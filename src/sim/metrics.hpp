// Derived metrics and guided bottleneck analysis -- the simulator's
// equivalent of Nsight Compute's "Speed of Light" and "Memory/Compute
// Workload Analysis" sections, computed from the raw KernelEvents the
// profiler (counters.hpp) already records.
//
// Three layers:
//
//   1. DerivedMetrics    -- the nsight-style ratios for one counter slice
//                           (a site, a kernel, or a whole run): speed-of-
//                           light utilization of the two modeled pipes,
//                           coalescing efficiency / sector over-fetch,
//                           bank-conflict serialization, active-lane
//                           (divergence) fraction, launch-overhead share,
//                           and a shared-memory-limited occupancy proxy.
//   2. MetricsReport     -- analyze_device() rolls a Device's kernel log
//                           into per-kernel-group, per-site and aggregate
//                           metrics, then runs a rules engine with fixed
//                           thresholds that emits severity-ranked
//                           Diagnosis entries ("DRAM-bound, 38% of moved
//                           bytes unrequested at site X").
//   3. diff_reports      -- the run-diff regression tool: structurally
//                           compares two JSON profile reports (ms_cli or
//                           bench --json output) value by value, matching
//                           array rows by identity keys (method/m/kv,
//                           kernel name, site label), with a configurable
//                           relative tolerance.  `ms_cli diff` is a thin
//                           shell around it.
//
// Everything here is read-only over the recorded events (analyze_device
// takes a const Device&): computing metrics never changes modeled times
// (the table5 baseline stays bit-identical).
#pragma once

#include <string>
#include <vector>

#include "sim/allocator.hpp"
#include "sim/chaos.hpp"
#include "sim/events.hpp"
#include "sim/json.hpp"
#include "sim/profile.hpp"

namespace ms::sim {

class Device;

/// Version stamp of every JSON report this repository writes (ms_cli
/// --json, bench --json, metrics sections, diff output).  Consumers
/// (ms_cli diff, bench_history.py) reject mismatched versions instead of
/// mis-parsing.  Bump when a field changes meaning or moves.
/// v4: reports gain the device sub-allocator stats block ("allocator")
/// and result rows record the concrete method ("method_selected").
/// v5: bench host timing excludes the warm-up trial and reports both mean
/// and min ("host_ms_min"); telemetry timelines (--telemetry JSONL,
/// bench/history records) carry the same version stamp.
/// v6: reports gain the resilience block ("resilience": fault-injection
/// and retry/fallback/validation accounting from the chaos engine and the
/// resilient request executor; all zeros when chaos is off).
/// v7: request-span dumps (--spans JSONL, sim/span.hpp) carry this stamp;
/// telemetry timeline histograms gain optional exemplar trace-id fields
/// (p50_trace/p95_trace/p99_trace/p999_trace/max_trace, present only when
/// a traced request landed in the percentile's bucket).
/// v8: reports gain the batched-serving block ("batching": batches,
/// packed/unpacked problem counts, fused launches, slot fill ratio and
/// partial-batch retries from the ServingExecutor; all zeros when the
/// device never served batches).  No existing field changed meaning:
/// modeled values are bit-identical to v7 on every existing bench.
inline constexpr u32 kReportSchemaVersion = 8;

/// Which modeled pipe a kernel (or run) saturates.  Classified with a 5%
/// margin: within it the two pipes are "balanced".
enum class Bound { kMemory, kIssue, kBalanced };
const char* to_string(Bound b);
Bound classify_bound(f64 mem_time_ms, f64 issue_time_ms);

/// Nsight-compute-style ratios for one counter slice.  The counter-only
/// fields are always valid; the time-based block (speed of light, launch
/// share, occupancy) is only filled when the slice corresponds to whole
/// kernels -- per-site slices have no time of their own and keep the
/// defaults.
struct DerivedMetrics {
  // --- traffic volumes (bytes) ---
  f64 dram_bytes = 0.0;    // DRAM transactions moved * sector size
  f64 sector_bytes = 0.0;  // L2 sector touches * sector size (hits + misses)
  f64 useful_bytes = 0.0;  // payload bytes lanes actually requested

  // --- memory workload ---
  /// useful_bytes / sector_bytes, in percent; 100 = perfectly coalesced.
  f64 coalescing_pct = 100.0;
  /// sector_bytes / useful_bytes (>= 1); the over-fetch factor: how many
  /// bytes move per byte requested.
  f64 sector_overfetch = 1.0;
  /// Fraction of L2 read sector touches served without a DRAM transaction.
  f64 l2_read_hit_pct = 100.0;

  // --- issue workload ---
  /// smem_slots / smem_accesses: average serialization of a shared access
  /// (1.0 = conflict-free; 32.0 = every access a 32-way bank conflict).
  f64 bank_conflict_mult = 1.0;
  /// Share of the cost model's weighted issue slots spent on bank-conflict
  /// serialization (the slots beyond one per shared access).
  f64 bank_conflict_slot_pct = 0.0;
  /// Share of weighted issue slots spent replaying non-coalesced global
  /// accesses (scatter_replays * scatter_issue_penalty).
  f64 scatter_replay_slot_pct = 0.0;

  // --- divergence ---
  /// Average active lanes per SIMT instruction, in percent of a full warp.
  f64 active_lane_pct = 100.0;
  u64 simt_insts = 0;
  u64 ballot_rounds = 0;

  // --- atomics ---
  f64 atomic_conflict_pct = 0.0;

  // --- time-based block (kernel / run slices only) ---
  f64 time_ms = 0.0;
  f64 mem_time_ms = 0.0;
  f64 issue_time_ms = 0.0;
  /// Pipe busy time as a percentage of the modeled execution time
  /// (time - launch overhead); the saturated pipe reads 100 for a single
  /// kernel.
  f64 sol_mem_pct = 0.0;
  f64 sol_issue_pct = 0.0;
  Bound bound = Bound::kBalanced;
  /// DRAM bytes moved / total kernel time (compare to the profile's peak).
  f64 dram_gbps = 0.0;
  /// Useful bytes / total kernel time (the app-visible bandwidth).
  f64 achieved_gbps = 0.0;
  /// Kernel-launch overhead as a share of total modeled time.
  f64 launch_overhead_pct = 0.0;
  /// Shared-memory-limited occupancy proxy: blocks that fit per SM given
  /// the peak per-block footprint, relative to the profile's resident-
  /// block ceiling.  100 when no shared memory is used.
  f64 smem_occupancy_pct = 100.0;
  u64 launches = 0;
};

/// Counter-only metrics of one slice (valid for sites and kernels alike).
DerivedMetrics derive_metrics(const KernelEvents& ev, const DeviceProfile& p);

/// Metrics of a sequence of whole kernels: counter ratios plus the
/// time-based block.  `mem_time_ms` / `issue_time_ms` are the summed pipe
/// components, `peak_smem_bytes` the largest per-block footprint.
DerivedMetrics derive_run_metrics(const KernelEvents& ev, f64 time_ms,
                                  f64 mem_time_ms, f64 issue_time_ms,
                                  u64 launches, u32 peak_smem_bytes,
                                  const DeviceProfile& p);

/// Shared-memory-limited occupancy proxy in percent (see DerivedMetrics).
f64 smem_occupancy_pct(u32 peak_smem_bytes, const DeviceProfile& p);

// ---------------------------------------------------------------------------
// Guided analysis
// ---------------------------------------------------------------------------

/// One finding of the rules engine, severity-ranked in MetricsReport.
struct Diagnosis {
  enum class Severity { kInfo = 0, kWarning = 1, kCritical = 2 };
  std::string rule;   // stable id, e.g. "dram-overfetch"
  Severity severity = Severity::kInfo;
  std::string scope;  // "run", "kernel:<name>" or "site:<label>"
  f64 value = 0.0;    // the metric that fired (rule-specific)
  std::string message;
};
const char* to_string(Diagnosis::Severity s);

/// Per-kernel-name aggregate (all launches of "warp_ms_prescan" fold into
/// one group, in first-launch order).
struct KernelGroupMetrics {
  std::string name;
  u64 launches = 0;
  f64 time_ms = 0.0;
  f64 mem_time_ms = 0.0;
  f64 issue_time_ms = 0.0;
  u32 peak_smem_bytes = 0;
  KernelEvents events;
  DerivedMetrics metrics;
};

struct SiteMetrics {
  std::string label;
  KernelEvents events;
  DerivedMetrics metrics;
};

/// The full derived-metrics report of everything a device has recorded.
struct MetricsReport {
  std::string device;
  f64 total_ms = 0.0;
  u64 launches = 0;
  KernelEvents events;
  DerivedMetrics aggregate;
  AllocatorStats allocator;                 // device-lifetime pool stats
  ResilienceStats resilience;               // chaos + retry accounting (v6)
  BatchStats batching;                      // batched-serving accounting (v8)
  std::vector<KernelGroupMetrics> kernels;  // first-launch order
  std::vector<SiteMetrics> sites;           // registration order, non-empty
  std::vector<Diagnosis> diagnoses;         // most severe first
};

/// Roll the device's kernel log and site table into a MetricsReport and
/// run the rules engine (fixed thresholds, see metrics.cpp).
MetricsReport analyze_device(const Device& dev);

/// Human-readable report (the `ms_cli metrics` output).
std::string format_metrics(const MetricsReport& rep);

/// Emit the report as "metrics" / "kernels" / "diagnoses" members of the
/// currently open JSON object (the machine-readable embedding used by
/// ms_cli --json and the bench reports).
void write_metrics_json(JsonWriter& w, const MetricsReport& rep);

/// Every KernelEvents counter as fields of the open JSON object.
void write_events_fields(JsonWriter& w, const KernelEvents& ev);

/// One per-site entry: label, raw counters, counter-only derived metrics.
void write_site_json(JsonWriter& w, const std::string& label,
                     const KernelEvents& ev, const DeviceProfile& p);

// ---------------------------------------------------------------------------
// Run-diff regression tool
// ---------------------------------------------------------------------------

struct DiffOptions {
  /// Allowed relative drift on numeric values (0 = exact; the simulator is
  /// deterministic, so two reports from the same build must match exactly).
  f64 tolerance = 0.0;
  /// Stop collecting after this many findings (the comparison still runs
  /// to completion for the summary counts).
  u64 max_findings = 200;
};

struct DiffFinding {
  std::string path;  // results[method=...,m=8].sites[label=...].dram_read_tx
  std::string note;  // "baseline 2948 current 2950 (+0.07%)"
  f64 drift = 0.0;   // relative drift for numeric findings, 0 otherwise
};

struct DiffResult {
  std::vector<DiffFinding> findings;
  u64 values_compared = 0;
  u64 total_findings = 0;  // >= findings.size() when capped
};

/// Structurally compare two parsed JSON reports.  Array elements are
/// matched by identity keys (method/name/label/kernel + m/key_value) when
/// present, by position otherwise; numbers drift-checked against
/// opts.tolerance; strings and bools compared exactly; missing or extra
/// members are findings.  Throws std::runtime_error when either document
/// lacks schema_version or carries one != kReportSchemaVersion.
DiffResult diff_reports(const JsonValue& base, const JsonValue& cur,
                        const DiffOptions& opts = {});

}  // namespace ms::sim
