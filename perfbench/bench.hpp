// Shared machinery of the repository benchmark (msbench): options, the
// host multisplit oracle, statistics, modeled cost read back from the
// device's kernel log, the span aggregation of the traced run, and the
// emission of the fixed metric sets.
//
// The benchmark drives only the library's public entry points
// (workload::generate_keys, sim::Device, split::MultisplitPlan,
// split::ServingExecutor and the device's read-only accessors).
#pragma once

#include <chrono>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "multisplit/common.hpp"
#include "sim/device.hpp"
#include "sim/span.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

using ms::f64;
using ms::u32;
using ms::u64;

using Clock = std::chrono::steady_clock;

inline f64 ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  /// Simulator worker threads: min(4, CPUs this process may run on).
  u32 threads = 1;
  /// main() entry; the first set-up pass is timed from here.
  Clock::time_point process_start;
};

struct Metric {
  f64 value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Report {
  /// trace 0: the end-to-end metrics; trace 1: the per-layer metrics.
  std::map<std::string, Metric> metrics;
  /// Deterministic modeled values; perfbench/run.py compares them exactly
  /// across runs of the same seed and binary.
  std::map<std::string, f64> modeled;
  /// Human-readable context printed before the result.
  std::vector<std::string> notes;
  u64 attempted = 0;
  u64 failed = 0;
  /// Violations that make the whole run incorrect (modeled drift between
  /// repetitions of one input, a failed set-up request, ...).
  std::vector<std::string> errors;

  void put(const std::string& name, f64 value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: independent generator seeds from the benchmark
/// seed and a per-input tag.
u64 mix_seed(u64 seed, u64 tag);

/// n keys of `dist` shaped for m buckets, from a derived seed.
std::vector<u32> make_keys(u64 n, u32 m, ms::workload::Distribution dist,
                           u64 seed);

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Check one multisplit output against a host reference built with
/// std::stable_partition: keys, values (when `vals_out` is non-empty; the
/// values fed in were the identity permutation) and bucket offsets, with
/// RangeBucket{m}.  Stable methods must reproduce the stable partition
/// exactly; unstable ones must put the right keys in every bucket.
/// Returns "" on a match, otherwise the first difference.
std::string check_split(std::span<const u32> keys_in,
                        std::span<const u32> keys_out,
                        std::span<const u32> vals_out,
                        const std::vector<u32>& offsets, u32 m, bool stable);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
f64 quantile(std::vector<f64> v, f64 q);
inline f64 median(const std::vector<f64>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process, MiB.
f64 peak_rss_mb();

// ---------------------------------------------------------------------------
// Modeled cost, read back from Device::records()
// ---------------------------------------------------------------------------

/// Modeled cost of a set of kernels, split by the cost model's terms:
/// each kernel is launch overhead + max(memory, issue), and its body
/// counts as memory- or issue-bound by whichever term won, so the three
/// parts sum to the modeled time.
struct ModeledCost {
  f64 time_ms = 0.0;
  f64 launch_ms = 0.0;
  f64 mem_bound_ms = 0.0;
  f64 issue_bound_ms = 0.0;
  u64 launches = 0;
  ms::sim::KernelEvents events;

  void add(const std::vector<ms::sim::KernelRecord>& records,
           const ms::sim::DeviceProfile& profile);
  ModeledCost& operator+=(const ModeledCost& o);
  bool operator==(const ModeledCost& o) const = default;

  u64 l2_segments() const {
    return events.l2_read_segments + events.l2_write_segments;
  }
  u64 dram_tx() const { return events.dram_read_tx + events.dram_write_tx; }
};

/// Exact per-request modeled values of one request slot of a cycle: the
/// result's total plus the kernel-log cost.  The first repetition of a
/// slot sets it; every later one must match bit for bit.
struct SlotRef {
  bool set = false;
  f64 total_ms = 0.0;
  ModeledCost cost;
};

/// Record or check one request against its slot; appends to rep.errors
/// on drift.
void check_slot(Report& rep, SlotRef& slot, const char* what, u64 index,
                f64 total_ms, const ModeledCost& cost);

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Accumulates the in-memory span records of the traced phase.  A
/// request's host time partitions into top-level stage spans (inclusive
/// of their launches), launch spans outside any stage, and the unstaged
/// remainder, so the parts add up to the benchmark-timed request time.
struct SpanAgg {
  std::map<std::string, f64> stage_host_ms;
  std::map<std::string, f64> stage_modeled_ms;  // reference cycle only
  f64 nostage_launch_host_ms = 0.0;
  f64 launch_host_ms = 0.0;
  std::vector<f64> launch_host_us;  // one sample per launch span
  u64 nested_stages = 0;

  /// Fold every span of `rec`.  Modeled stage time is taken only when
  /// `reference` (one fixed cycle of requests, so it is exact).
  void add(const ms::sim::SpanRecorder& rec, bool reference);
};

/// Host busy fraction of the simulator's worker pool, from the telemetry
/// provider's pool.busy_frac over windows the benchmark brackets with
/// open() / close() around the timed work.
struct PoolBusy {
  f64 busy_ms = 0.0;
  f64 window_ms = 0.0;
  /// Snapshot `dev`'s telemetry to start a window.
  static void open(ms::sim::Device& dev);
  /// Snapshot again and fold the window since open().
  void close(ms::sim::Device& dev);
  f64 frac() const { return window_ms > 0.0 ? busy_ms / window_ms : 0.0; }
};

// ---------------------------------------------------------------------------
// Metric emission (the fixed metric sets of BENCHMARK.json)
// ---------------------------------------------------------------------------

/// Inputs of the end-to-end metrics (untraced run).  Host metrics are
/// computed per window of the timed loop and the median across windows is
/// reported: one window per run for bulk_oneshot and reuse_loop, one per
/// epoch for tiny_stream, whose requests complete 256 at a time.
struct EndToEnd {
  std::vector<std::vector<f64>> window_ms;  // host time per timed request
  std::vector<f64> window_keys_per_s;       // keys per host second of work
  u64 ref_keys = 0;                         // reference cycle
  f64 ref_modeled_ms = 0.0;
  std::vector<f64> setup_s;                 // one per set-up pass

  void add_window(std::vector<f64> request_ms, u64 keys, f64 timed_ms) {
    window_ms.push_back(std::move(request_ms));
    window_keys_per_s.push_back(static_cast<f64>(keys) / (timed_ms * 1e-3));
  }
};
void emit_end_to_end(const Options& opt, Report& rep, const EndToEnd& e);

/// Inputs of the per-layer metrics (traced run).
struct Layers {
  std::vector<f64> keygen_ms;  // one per set-up pass
  std::vector<f64> warmup_ms;  // one per set-up pass
  std::vector<f64> build_us;   // MultisplitPlan constructor calls
  u64 replayed = 0;            // timed requests with replay_active()
  u64 timed_requests = 0;      // both phases
  // Reference cycle (modeled, exact).
  ModeledCost ref_cost;
  u64 ref_requests = 0;
  u64 ref_alloc_count = 0;
  u64 ref_reuse_hits = 0;
  u64 bytes_reserved = 0;
  // Traced phase (host).
  SpanAgg spans;
  ModeledCost traced_cost;     // counts of the traced-phase requests
  u64 traced_requests = 0;
  u64 traced_ref_requests = 0;
  f64 traced_timed_ms = 0.0;
  PoolBusy pool;
  f64 p50_untraced_ms = 0.0;
  f64 p50_traced_ms = 0.0;
  // Serving layer (tiny_stream only; zero elsewhere).
  std::vector<f64> submit_us;  // submits that did not flush
  std::vector<f64> flush_ms;   // submits that flushed, and drains
  ms::sim::BatchStats batch;   // reference epoch
};
/// The modeled per-request values of the reference cycle (cost.*, sim.*
/// counts, L2 read hit rate, alloc.*), recorded for the cross-run check.
void put_modeled(Report& rep, const Layers& l,
                 const ms::sim::DeviceProfile& profile);

/// The per-layer metrics; call after put_modeled, whose values it
/// publishes alongside the traced host times.
void emit_layers(Report& rep, const Layers& l);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Report run_bulk_oneshot(const Options& opt);
Report run_reuse_loop(const Options& opt);
Report run_tiny_stream(const Options& opt);

/// Mean |ln(modeled rate / paper rate)| over the five K40c Table 5 cells,
/// each run once on a fresh device after the timed region.
f64 paper_score(const Options& opt, Report& rep);

}  // namespace perfbench
