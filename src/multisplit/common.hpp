// Common types of the multisplit public API: method selection, tuning
// options, and the result record (bucket offsets + per-stage timings +
// event summaries for the paper's stage-breakdown tables).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim.hpp"

namespace ms::split {

enum class Method {
  kDirect,              // Section 5: warp subproblems, no reordering
  kWarpLevel,           // Section 5.2.1: + warp-level reordering
  kBlockLevel,          // Section 5.2.2: block subproblems + reordering
  kScanSplit,           // Section 3.2: one scan-based binary split (m == 2)
  kRecursiveScanSplit,  // Section 3.2: ceil(log2 m) split rounds
  kReducedBitSort,      // Section 3.4: sort bucket labels, permute payload
  kRandomizedInsertion, // Section 3.5: PRAM dart throwing (not stable)
  kFusedBucketSort,     // Section 3.4's "future work": bucket functor fused
                        // into the sort kernels; stable, no label vector
  kAuto,                // Section 6 guidance: pick by (n, m) and the device
                        // profile's crossover table (MultisplitPlan resolves
                        // this to one of the concrete methods above)
};

/// Number of concrete (runnable) methods; kAuto is a selector, not an
/// implementation, and is always resolved before dispatch.
inline constexpr u32 kConcreteMethodCount =
    static_cast<u32>(Method::kAuto);

/// Display name, e.g. "Block-level MS" (the paper's table labels; used in
/// reports and human-readable output).
std::string to_string(Method m);

/// Stable CLI token, e.g. "block" -- the names `ms_cli --method` and the
/// benches accept.  parse_method accepts either spelling and round-trips
/// both; unknown names return nullopt (callers treat that as a hard error).
std::string method_token(Method m);
std::optional<Method> parse_method(std::string_view name);

/// Static capabilities of a concrete method, used by the plan layer for
/// early argument checking and by the CLI for its method listing.
struct MethodTraits {
  const char* token;    // CLI token ("warp")
  const char* display;  // paper-style display name ("Warp-level MS")
  u32 max_m;            // largest supported bucket count
  bool supports_pairs;  // key-value capable?
  bool stable;          // preserves input order within a bucket?
};
const MethodTraits& method_traits(Method m);

/// Resolve Method::kAuto for a problem shape against a device profile's
/// crossover table (paper Section 6): warp-level for small m, block-level
/// through m <= auto_block_level_max_m, reduced-bit sort beyond.
Method resolve_auto(const sim::DeviceProfile& profile, u64 n, u32 m);

/// All stable deterministic methods (the paper's main cast).
inline constexpr Method kCoreMethods[] = {Method::kDirect, Method::kWarpLevel,
                                          Method::kBlockLevel};

struct MultisplitConfig {
  Method method = Method::kBlockLevel;
  /// Warps per block (NW).  The paper uses 8 (256 threads) throughout and
  /// quantifies the sensitivity in Section 6.
  u32 warps_per_block = 8;
  /// Thread coarsening for the warp-granularity methods (paper footnote 5):
  /// each warp's subproblem holds 32 * items_per_thread keys.
  u32 items_per_thread = 1;
  /// Thread coarsening for block-level MS (this library's extension in the
  /// direction later multisplit implementations took); 1 = the paper's
  /// configuration (256-key blocks).  Ignored for m > 32, where the
  /// histogram matrix already strains shared memory.
  u32 block_items_per_thread = 1;
  /// Footnote-6 ablation: load the pre-scan histograms back from global
  /// memory in the post-scan stage instead of recomputing them with
  /// ballots.  The paper found recomputation cheaper ("the recomputation is
  /// cheaper than the cost of global store and load"); this flag lets the
  /// ablation bench check that on the model.  Direct MS only.
  bool reload_histograms = false;
  /// Relaxation factor x for randomized insertion (Section 3.5).
  f64 relaxation = 2.0;
  /// Seed for randomized insertion's dart throwing.
  u64 seed = 0x9E3779B97F4A7C15ull;
};

/// Reject malformed configurations (zero warps/items, relaxation below the
/// staging minimum) with a structured SimError (FaultKind::kInvalidConfig).
/// Called at plan build time, before any device work.
void validate_config(const MultisplitConfig& cfg);

/// Per-stage timing breakdown matching the paper's Table 4 rows.  For the
/// sort-based methods the stages map to labeling / sorting / packing.
struct StageTimings {
  f64 prescan_ms = 0.0;   // or "labeling"
  f64 scan_ms = 0.0;      // or "sorting"
  f64 postscan_ms = 0.0;  // or "(un)packing" / "splitting"
  f64 total() const { return prescan_ms + scan_ms + postscan_ms; }
};

/// How a resilient run may respond to faults (injected or organic).  A
/// request gets kMaxAttempts total attempts, degrading down the fallback
/// ladder after attempts_per_method tries on one method, with
/// deterministic exponential backoff in *virtual* milliseconds (reported,
/// never slept).  Every attempt's output is validated end to end, so
/// corrupted-but-non-throwing runs are caught and retried rather than
/// returned.
struct RetryPolicy {
  /// Total attempts across all methods (first try included).
  static constexpr u32 kMaxAttempts = 4;
  /// Virtual backoff before retry k is kBackoffBaseMs * 2^(k-1) ms.
  static constexpr f64 kBackoffBaseMs = 0.25;
  static constexpr f64 kBackoffMultiplier = 2.0;

  /// Attempts on the current method before falling back to a simpler one.
  u32 attempts_per_method = 2;
  /// Treat data-integrity faults (OOB, uninitialized reads, races) as
  /// retryable.  Off by default: in a healthy program those are bugs, not
  /// transients.  Chaos campaigns turn this on, since injected bit flips
  /// surface as exactly these kinds.
  bool retry_data_faults = false;
};

/// What resilience machinery did for one request (attached to the result).
struct ResilienceInfo {
  u32 attempts = 1;             // total attempts, first try included
  u32 retries = 0;              // attempts beyond the first
  u32 fallbacks = 0;            // method downgrades taken
  u32 validation_failures = 0;  // outputs rejected by the validator
  f64 backoff_ms = 0.0;         // total virtual backoff charged
  bool degraded = false;        // final method != requested/resolved method
};

/// True if a fault of this kind may be cured by retrying (per `rp`).
/// Allocation / launch / validation failures always are; data-integrity
/// faults only when rp.retry_data_faults; config errors never.
bool fault_is_retryable(sim::FaultKind kind, const RetryPolicy& rp);

/// Next rung down the degradation ladder from `cur` that can serve an
/// (m, pairs) request, or nullopt when out of options.  Moves toward the
/// simplest, most robust kernels: fused/reduced-bit sort -> block-level ->
/// warp-level -> direct -> scan-split (m <= 2 only).
std::optional<Method> fallback_method(Method cur, u32 m, bool pairs);

struct MultisplitResult {
  /// bucket_offsets[j] = first output index of bucket j; size m+1, with
  /// bucket_offsets[m] == n.  (The paper's optional m-entry index array.)
  std::vector<u32> bucket_offsets;
  StageTimings stages;
  sim::TimingSummary summary;
  /// The concrete method that produced this result -- what Method::kAuto
  /// resolved to, or simply the requested method.  kAuto only on a
  /// default-constructed (never-run) result.
  Method method_selected = Method::kAuto;
  /// Retry/fallback accounting for resilient runs; default (single clean
  /// attempt) otherwise.
  ResilienceInfo resilience;
  f64 total_ms() const { return stages.total(); }
  /// Fold one closed stage into the result: its modeled time into the
  /// Table 4 row `slot` (e.g. &StageTimings::scan_ms), its counters into
  /// `summary`.
  void add_stage(f64 StageTimings::*slot, const sim::TimingSummary& t) {
    stages.*slot += t.total_ms;
    summary += t;
  }
};

/// Type-erased bucket function for callers that don't want templates.
using BucketFunction = std::function<u32(u32)>;

}  // namespace ms::split
