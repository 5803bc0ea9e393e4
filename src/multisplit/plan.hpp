// Plan/executor architecture for multisplit (the CUB-style reusable API
// the paper's follow-up artifact evolved into).
//
// A MultisplitPlan is built once from (Device, n, m, config): it validates
// the configuration, resolves Method::kAuto against the device profile's
// crossover table, and precomputes the grid shape and temp-storage
// requirement -- all host-side arithmetic, no device work.  plan.run(...)
// then executes any number of times; per-call scratch buffers come back
// from the device's caching sub-allocator (sim/allocator.hpp), so repeated
// runs reuse the same address ranges and re-hit L2 instead of growing the
// address space.
//
// Every run is one sim::Request around attempts (detail::run_attempt,
// whose switch is the single method->implementation mapping); the
// resilient executor loops attempts inside its one request.  Single-shot
// modeled costs are bit-identical to the pre-plan code: plan construction
// does no device work, the dispatch calls exactly the method functions,
// and a fresh device's allocator hands out bump-identical addresses (see
// DESIGN.md §10).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "multisplit/block_ms.hpp"
#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "multisplit/fused_sort.hpp"
#include "multisplit/randomized_insertion.hpp"
#include "multisplit/reduced_bit_sort.hpp"
#include "multisplit/scan_split.hpp"
#include "multisplit/sort_baselines.hpp"
#include "multisplit/warp_ms.hpp"
#include "sim/telemetry.hpp"

namespace ms::split {

namespace detail {

/// Typed null value-buffer for the key-only paths (lets V deduce to u32).
inline constexpr const sim::DeviceBuffer<u32>* kNoValues = nullptr;
inline constexpr sim::DeviceBuffer<u32>* kNoValuesOut = nullptr;

/// One attempt of a concrete (already-resolved) method: the attempt span
/// (a no-op outside a traced request), the method dispatch, and the
/// result stamped with the method that ran.
template <typename BucketFn, typename V>
MultisplitResult run_attempt(Method method, sim::Device& dev,
                             const sim::DeviceBuffer<u32>& in,
                             sim::DeviceBuffer<u32>& out,
                             const sim::DeviceBuffer<V>* vals_in,
                             sim::DeviceBuffer<V>* vals_out, u32 m,
                             BucketFn bucket_of, const MultisplitConfig& cfg) {
  const sim::SpanScope attempt_span(dev, sim::SpanKind::kAttempt,
                                    method_token(method));
  // Park scratch frees until this attempt completes, thrown or not:
  // within-call alloc/free churn (the recursive scan split's per-round
  // buffers) must see fresh bump addresses for bit-identical single-shot
  // costs; the NEXT run then reuses everything this one freed, and a
  // faulted attempt leaves the device servable instead of leaking the
  // ranges its unwinding scratch buffers parked.
  const sim::CachingAllocator::DeferredScope scope(dev.allocator());
  MultisplitResult r;
  switch (method) {
    case Method::kDirect:
      r = warp_granularity_ms<false>(dev, in, out, vals_in, vals_out, m,
                                     bucket_of, cfg);
      break;
    case Method::kWarpLevel:
      r = warp_granularity_ms<true>(dev, in, out, vals_in, vals_out, m,
                                    bucket_of, cfg);
      break;
    case Method::kBlockLevel:
      r = block_ms(dev, in, out, vals_in, vals_out, m, bucket_of, cfg);
      break;
    case Method::kScanSplit:  // m <= 2, enforced at plan build
    case Method::kRecursiveScanSplit:
      r = scan_split_ms(dev, in, out, vals_in, vals_out, m, bucket_of, cfg);
      break;
    case Method::kReducedBitSort:
      r = reduced_bit_sort_ms(dev, in, out, vals_in, vals_out, m, bucket_of,
                              cfg);
      break;
    case Method::kRandomizedInsertion:  // key-only; enforced at plan build
      check(vals_in == nullptr,
            "randomized insertion is key-only (Section 3.5)");
      r = randomized_insertion_ms(dev, in, out, m, bucket_of, cfg);
      break;
    case Method::kFusedBucketSort:
      r = fused_bucket_sort_ms(dev, in, out, vals_in, vals_out, m, bucket_of,
                               cfg);
      break;
    case Method::kAuto:
      fail("multisplit: method not resolved");
  }
  r.method_selected = method;
  return r;
}

/// A plain run: one request bracket around one attempt.  A faulted
/// attempt propagates; the bracket still records the modeled time spent.
template <typename BucketFn, typename V>
MultisplitResult run_method(Method method, sim::Device& dev,
                            const sim::DeviceBuffer<u32>& in,
                            sim::DeviceBuffer<u32>& out,
                            const sim::DeviceBuffer<V>* vals_in,
                            sim::DeviceBuffer<V>* vals_out, u32 m,
                            BucketFn bucket_of, const MultisplitConfig& cfg) {
  sim::Request request(dev, method_token(method));
  MultisplitResult r = run_attempt<BucketFn, V>(method, dev, in, out, vals_in,
                                                vals_out, m, bucket_of, cfg);
  request.finish(r.total_ms());
  return r;
}

/// Run `body` and return the fault it raised, if any: a thrown SimError
/// (draining the duplicate sticky error the throw also parked, or the
/// next clean call would be misread as faulted), else the sticky error
/// a non-throwing fault parked (sanitizer reporting mode, the mt fault
/// merge).
template <typename Body>
std::optional<sim::FaultContext> capture_fault(sim::Device& dev, Body&& body) {
  try {
    body();
  } catch (const sim::SimError& e) {
    (void)dev.take_last_error();
    return e.context();
  }
  return dev.take_last_error();
}

/// Build the structured kRetryExhausted error a resilient run throws when
/// its attempts run out (defined in plan.cpp).
[[noreturn]] void throw_retry_exhausted(Method requested, u32 attempts,
                                        f64 spent_ms,
                                        const sim::FaultContext& last);

/// End-to-end output check for the resilient executor: the reported
/// bucket_offsets against boundaries recomputed from the input, bucket
/// order of every output key, and (for stable methods) the exact stable
/// permutation, keys and values.  Pure host-side verification -- charges
/// nothing, touches no device state, and reads buffers through const
/// views so initcheck shadows are unperturbed.  Returns false and fills
/// `why` on the first mismatch.
template <typename BucketFn, typename V>
bool validate_split_output(const sim::DeviceBuffer<u32>& in,
                           const sim::DeviceBuffer<u32>& out,
                           const sim::DeviceBuffer<V>* vals_in,
                           const sim::DeviceBuffer<V>* vals_out, u32 m,
                           BucketFn& bucket_of, bool stable,
                           const std::vector<u32>& offsets,
                           std::string* why) {
  const std::span<const u32> ki = std::as_const(in).host();
  const std::span<const u32> ko = std::as_const(out).host();
  const u64 n = ki.size();
  // Reference segment boundaries recomputed from the input.
  std::vector<u64> counts(m, 0);
  for (u64 i = 0; i < n; ++i) {
    const u32 b = bucket_of(ki[i]);
    if (b >= m) {
      if (why != nullptr) *why = "input key maps outside [0, m)";
      return false;
    }
    counts[b] += 1;
  }
  std::vector<u64> start(m + 1, 0);
  for (u32 j = 0; j < m; ++j) start[j + 1] = start[j] + counts[j];
  // The REPORTED offsets must equal the recomputed ones exactly: a
  // corrupted histogram/label can produce well-formed (monotone) offsets
  // over a perfectly ordered output, which only this comparison catches.
  for (u32 j = 0; j <= m; ++j) {
    if (offsets[j] != start[j]) {
      if (why != nullptr) {
        *why = "bucket_offsets[" + std::to_string(j) +
               "] disagrees with the input's bucket counts";
      }
      return false;
    }
  }
  // Bucket order: output position i in segment j must hold a bucket-j key.
  for (u32 j = 0; j < m; ++j) {
    for (u64 i = start[j]; i < start[j + 1]; ++i) {
      if (bucket_of(ko[i]) != j) {
        if (why != nullptr) {
          *why = "output key out of bucket order (segment " +
                 std::to_string(j) + ", index " + std::to_string(i) + ")";
        }
        return false;
      }
    }
  }
  if (stable) {
    // Stable methods must produce exactly the stable partition: walk the
    // input once, expecting each key (and its value) at its bucket cursor.
    std::vector<u64> cursor(start.begin(), start.end() - 1);
    const V* vi = nullptr;
    const V* vo = nullptr;
    if (vals_in != nullptr && vals_out != nullptr) {
      vi = std::as_const(*vals_in).host().data();
      vo = std::as_const(*vals_out).host().data();
    }
    for (u64 i = 0; i < n; ++i) {
      const u32 b = bucket_of(ki[i]);
      const u64 pos = cursor[b]++;
      if (ko[pos] != ki[i]) {
        if (why != nullptr) {
          *why = "stable permutation violated at output index " +
                 std::to_string(pos);
        }
        return false;
      }
      if (vi != nullptr && vo[pos] != vi[i]) {
        if (why != nullptr) {
          *why = "value does not travel with its key at output index " +
                 std::to_string(pos);
        }
        return false;
      }
    }
  } else {
    // Non-stable methods (randomized insertion, key-only): each segment
    // must hold the same multiset of keys as the input contributes.
    std::vector<std::vector<u32>> expect(m);
    for (u32 j = 0; j < m; ++j) expect[j].reserve(counts[j]);
    for (u64 i = 0; i < n; ++i) expect[bucket_of(ki[i])].push_back(ki[i]);
    for (u32 j = 0; j < m; ++j) {
      std::vector<u32> got(ko.begin() + static_cast<std::ptrdiff_t>(start[j]),
                           ko.begin() +
                               static_cast<std::ptrdiff_t>(start[j + 1]));
      std::sort(got.begin(), got.end());
      std::sort(expect[j].begin(), expect[j].end());
      if (got != expect[j]) {
        if (why != nullptr) {
          *why = "bucket " + std::to_string(j) +
                 " holds the wrong key multiset";
        }
        return false;
      }
    }
  }
  return true;
}

/// Check the result's offsets against the reference partition sizes.
inline bool validate_offsets(const MultisplitResult& r, u64 n, u32 m,
                             std::string* why) {
  const std::vector<u32>& off = r.bucket_offsets;
  if (off.size() != static_cast<std::size_t>(m) + 1 || off.front() != 0 ||
      off.back() != n) {
    if (why != nullptr) *why = "bucket_offsets malformed (size/ends)";
    return false;
  }
  for (u32 j = 0; j < m; ++j) {
    if (off[j] > off[j + 1]) {
      if (why != nullptr) *why = "bucket_offsets not monotone";
      return false;
    }
  }
  return true;
}

/// The resilient request executor: one request bracket around a retry
/// loop of attempts with deterministic virtual-time exponential backoff,
/// graceful degradation down the fallback_method ladder, and end-to-end
/// output validation that turns silent corruption into a retryable fault.
/// Faults are classified by fault_is_retryable; non-retryable ones
/// rethrow immediately.  All accounting lands in the device's
/// ResilienceStats (which its telemetry provider publishes).  With no
/// faults the executor adds zero device work, so a clean run is
/// bit-identical to a run without a policy.
template <typename BucketFn, typename V>
MultisplitResult run_resilient(Method initial, sim::Device& dev,
                               const sim::DeviceBuffer<u32>& in,
                               sim::DeviceBuffer<u32>& out,
                               const sim::DeviceBuffer<V>* vals_in,
                               sim::DeviceBuffer<V>* vals_out, u32 m,
                               BucketFn bucket_of, MultisplitConfig cfg,
                               const RetryPolicy& rp) {
  sim::ResilienceStats& rs = dev.resilience_stats();
  rs.requests += 1;
  // The cudaGetLastError idiom: entering a request consumes any stale
  // sticky error left by earlier work, so the classification below only
  // ever sees faults raised by THIS request's attempts.
  (void)dev.take_last_error();

  // One request for the whole resilient execution: attempt spans nest
  // under its span, retry / fallback / validation events attach to it
  // with the fault that caused them, and telemetry records it once.
  sim::Request request(dev, method_token(initial));
  sim::SpanRecorder* rec = dev.spans();

  ResilienceInfo info;
  Method cur = initial;
  u32 tries_on_method = 0;
  f64 spent_ms = 0.0;
  f64 next_backoff = RetryPolicy::kBackoffBaseMs;

  for (u32 attempt = 1;; ++attempt) {
    info.attempts = attempt;
    tries_on_method += 1;
    cfg.method = cur;
    const f64 t0 = dev.lifetime_ms();
    MultisplitResult r;
    std::optional<sim::FaultContext> fault = capture_fault(dev, [&] {
      r = run_attempt<BucketFn, V>(cur, dev, in, out, vals_in, vals_out, m,
                                   bucket_of, cfg);
    });
    if (!fault.has_value()) {
      std::string why;
      const bool stable = method_traits(cur).stable;
      if (!validate_offsets(r, in.size(), m, &why) ||
          !validate_split_output<BucketFn, V>(in, out, vals_in, vals_out, m,
                                             bucket_of, stable,
                                             r.bucket_offsets, &why)) {
        info.validation_failures += 1;
        rs.validation_failures += 1;
        sim::FaultContext ctx;
        ctx.kind = sim::FaultKind::kValidationFailure;
        ctx.kernel = "<resilience>";
        ctx.object = "multisplit output";
        ctx.detail = why;
        if (rec != nullptr) {
          rec->event(sim::SpanEvent{dev.lifetime_ms(), "validation_failure",
                                    why, ctx});
        }
        fault = std::move(ctx);
      }
    }
    spent_ms += dev.lifetime_ms() - t0;
    if (!fault.has_value()) {
      info.degraded = cur != initial;
      r.resilience = info;
      if (attempt > 1) {
        rs.recovered += 1;
        if (sim::Telemetry* telem = dev.telemetry()) {
          telem->histogram("request.retry_ms")
              .record_ms(spent_ms, request.trace());
        }
      }
      request.finish(r.total_ms());
      return r;
    }
    rs.faults_observed += 1;
    if (!fault_is_retryable(fault->kind, rp)) {
      rs.lost += 1;
      throw sim::SimError(std::move(*fault));
    }
    if (attempt >= RetryPolicy::kMaxAttempts) {
      rs.lost += 1;
      throw_retry_exhausted(initial, attempt, spent_ms, *fault);
    }
    // Deterministic exponential backoff in VIRTUAL time: reported on the
    // result, never slept -- wall clock would break bit-reproducibility
    // of campaign reports.
    info.backoff_ms += next_backoff;
    spent_ms += next_backoff;
    if (request.span_id() != 0) {
      rec->add_backoff(request.span_id(), next_backoff);
      rec->event(sim::SpanEvent{dev.lifetime_ms(), "retry",
                                method_token(cur), *fault});
    }
    next_backoff *= RetryPolicy::kBackoffMultiplier;
    info.retries += 1;
    rs.retries += 1;
    if (tries_on_method >= rp.attempts_per_method) {
      if (std::optional<Method> next =
              fallback_method(cur, m, vals_in != nullptr)) {
        cur = *next;
        tries_on_method = 0;
        info.fallbacks += 1;
        rs.fallbacks += 1;
        if (request.span_id() != 0) {
          rec->event(sim::SpanEvent{dev.lifetime_ms(), "fallback",
                                    method_token(cur), *fault});
        }
      }
      // Ladder exhausted: keep retrying the current method until the
      // attempt budget runs out.
    }
  }
}

}  // namespace detail

/// First-stage launch geometry a plan resolves (reported by the CLI and
/// benches; the kernels recompute the same values when they run).
struct GridShape {
  u64 subproblems = 0;    ///< L: warp- or block-level tiles of the input
  u32 blocks = 0;         ///< blocks of the first (pre-scan/labeling) kernel
  u32 warps_per_block = 0;
};

/// A reusable multisplit execution plan.  Construction is pure host-side
/// resolution (validate config, resolve kAuto, size the grid and scratch);
/// run()/run_pairs() may be called any number of times with different
/// buffer contents of the planned shape.
class MultisplitPlan {
 public:
  /// Build a plan for splitting n keys into m buckets on `dev`.
  /// `value_bytes` sizes the per-key payload for key-value use (0 =
  /// key-only); it only affects the temp-storage estimate.  Throws
  /// SimError (FaultKind::kInvalidConfig) for malformed configs and
  /// logic_error for method/shape mismatches (m out of a method's range,
  /// key-value with a key-only method).
  MultisplitPlan(sim::Device& dev, u64 n, u32 m, MultisplitConfig cfg = {},
                 u32 value_bytes = 0);

  sim::Device& device() const { return *dev_; }
  u64 n() const { return n_; }
  u32 m() const { return m_; }
  /// The concrete method this plan executes (never kAuto).
  Method method() const { return method_; }
  /// What the caller asked for (kAuto preserved for reporting).
  Method requested_method() const { return requested_; }
  /// The configuration the plan runs with (method resolved).
  const MultisplitConfig& config() const { return cfg_; }
  const GridShape& grid() const { return shape_; }
  /// Device scratch the methods will request per run (bytes, rounded to
  /// sectors): histogram/label/staging buffers plus the scan partial tree.
  /// With pooling on, runs after the first are served from the free lists.
  u64 temp_storage_bytes() const { return temp_bytes_; }

  /// Trace replay was removed; these constants stay only so the
  /// repository benchmark (perfbench/), which reports them, compiles.
  const char* replay_phase() const { return "off"; }
  bool replay_active() const { return false; }

  /// Key-only execution.  `in` must hold exactly n() keys.  With a
  /// RetryPolicy the run is resilient: retry/fallback/validation per `rp`
  /// (see detail::run_resilient), throwing only for non-retryable faults
  /// or an exhausted budget (FaultKind::kRetryExhausted).  A BucketFn
  /// that declares no charge_cost (a lambda, a BucketFunction) is charged
  /// 2 instructions per evaluation.
  template <typename BucketFn>
  MultisplitResult run(const sim::DeviceBuffer<u32>& in,
                       sim::DeviceBuffer<u32>& out, BucketFn bucket_of,
                       std::optional<RetryPolicy> rp = {}) const {
    check_keys(in, out);
    if (rp) {
      return detail::run_resilient<BucketFn, u32>(
          method_, *dev_, in, out, detail::kNoValues, detail::kNoValuesOut,
          m_, bucket_of, cfg_, *rp);
    }
    return detail::run_method<BucketFn, u32>(method_, *dev_, in, out,
                                             detail::kNoValues,
                                             detail::kNoValuesOut, m_,
                                             bucket_of, cfg_);
  }

  /// Key-value execution; values travel with their keys.  `rp` as run().
  template <typename BucketFn, typename V>
  MultisplitResult run_pairs(const sim::DeviceBuffer<u32>& keys_in,
                             const sim::DeviceBuffer<V>& vals_in,
                             sim::DeviceBuffer<u32>& keys_out,
                             sim::DeviceBuffer<V>& vals_out, BucketFn bucket_of,
                             std::optional<RetryPolicy> rp = {}) const {
    static_assert(std::is_same_v<V, u32> || std::is_same_v<V, u64>,
                  "multisplit values are u32 or u64 (use a pointer otherwise)");
    check_pairs(keys_in, vals_in.size(), keys_out, vals_out.size());
    check(&vals_in != &vals_out, "multisplit: in and out must be distinct");
    if (rp) {
      return detail::run_resilient<BucketFn, V>(method_, *dev_, keys_in,
                                                keys_out, &vals_in, &vals_out,
                                                m_, bucket_of, cfg_, *rp);
    }
    return detail::run_method<BucketFn, V>(method_, *dev_, keys_in, keys_out,
                                           &vals_in, &vals_out, m_, bucket_of,
                                           cfg_);
  }

 private:
  void check_keys(const sim::DeviceBuffer<u32>& in,
                  const sim::DeviceBuffer<u32>& out) const;
  void check_pairs(const sim::DeviceBuffer<u32>& keys_in, u64 vals_in_size,
                   const sim::DeviceBuffer<u32>& keys_out,
                   u64 vals_out_size) const;

  sim::Device* dev_;
  u64 n_;
  u32 m_;
  u32 value_bytes_;
  Method requested_;
  Method method_;
  MultisplitConfig cfg_;
  GridShape shape_;
  u64 temp_bytes_ = 0;
};

}  // namespace ms::split
