#include "sim/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"

namespace ms::sim {

namespace {

/// printf into a std::string (all report text is ASCII + fixed formats).
std::string strf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

f64 pct(f64 num, f64 den) { return den > 0.0 ? 100.0 * num / den : 0.0; }

/// The cost model's weighted issue-slot total (the denominator of the
/// slot-share metrics).  Mirrors model_kernel_cost exactly.
f64 weighted_issue_slots(const KernelEvents& ev, const DeviceProfile& p) {
  return static_cast<f64>(ev.issue_slots) +
         static_cast<f64>(ev.warps_launched) * p.warp_overhead_slots +
         static_cast<f64>(ev.smem_slots) * p.smem_slot_weight +
         static_cast<f64>(ev.scatter_replays) * p.scatter_issue_penalty;
}

}  // namespace

const char* to_string(Bound b) {
  switch (b) {
    case Bound::kMemory: return "memory";
    case Bound::kIssue: return "issue";
    case Bound::kBalanced: return "balanced";
  }
  return "?";
}

const char* to_string(Diagnosis::Severity s) {
  switch (s) {
    case Diagnosis::Severity::kInfo: return "info";
    case Diagnosis::Severity::kWarning: return "warning";
    case Diagnosis::Severity::kCritical: return "critical";
  }
  return "?";
}

Bound classify_bound(f64 mem_time_ms, f64 issue_time_ms) {
  if (mem_time_ms <= 0.0 && issue_time_ms <= 0.0) return Bound::kBalanced;
  if (mem_time_ms >= issue_time_ms * 1.05) return Bound::kMemory;
  if (issue_time_ms >= mem_time_ms * 1.05) return Bound::kIssue;
  return Bound::kBalanced;
}

f64 smem_occupancy_pct(u32 peak_smem_bytes, const DeviceProfile& p) {
  if (peak_smem_bytes == 0) return 100.0;
  if (p.max_resident_blocks == 0) return 100.0;
  const u64 fit = p.smem_bytes_per_block / peak_smem_bytes;  // 0 if too big
  const u64 resident = std::min<u64>(fit, p.max_resident_blocks);
  return 100.0 * static_cast<f64>(resident) / p.max_resident_blocks;
}

DerivedMetrics derive_metrics(const KernelEvents& ev, const DeviceProfile& p) {
  DerivedMetrics m;
  const f64 tb = p.transaction_bytes;
  m.dram_bytes = static_cast<f64>(ev.dram_read_tx + ev.dram_write_tx) * tb;
  m.sector_bytes =
      static_cast<f64>(ev.l2_read_segments + ev.l2_write_segments) * tb;
  m.useful_bytes =
      static_cast<f64>(ev.useful_bytes_read + ev.useful_bytes_written);

  if (m.sector_bytes > 0.0) {
    m.coalescing_pct = std::min(100.0, pct(m.useful_bytes, m.sector_bytes));
    m.sector_overfetch =
        m.useful_bytes > 0.0 ? m.sector_bytes / m.useful_bytes : 1.0;
  }
  if (ev.l2_read_segments > 0) {
    // dram_read_tx counts read misses only (writes allocate without fill),
    // so the hit rate of the read stream is 1 - misses/touches.
    const f64 miss = pct(static_cast<f64>(ev.dram_read_tx),
                         static_cast<f64>(ev.l2_read_segments));
    m.l2_read_hit_pct = std::max(0.0, 100.0 - miss);
  }

  if (ev.smem_accesses > 0) {
    m.bank_conflict_mult = static_cast<f64>(ev.smem_slots) /
                           static_cast<f64>(ev.smem_accesses);
  }
  const f64 slots = weighted_issue_slots(ev, p);
  if (slots > 0.0) {
    const f64 conflict_extra =
        static_cast<f64>(ev.smem_slots - std::min(ev.smem_slots,
                                                  ev.smem_accesses)) *
        p.smem_slot_weight;
    m.bank_conflict_slot_pct = pct(conflict_extra, slots);
    m.scatter_replay_slot_pct =
        pct(static_cast<f64>(ev.scatter_replays) * p.scatter_issue_penalty,
            slots);
  }

  m.simt_insts = ev.simt_insts;
  m.ballot_rounds = ev.ballot_rounds;
  if (ev.simt_insts > 0) {
    m.active_lane_pct = pct(static_cast<f64>(ev.simt_active_lanes),
                            static_cast<f64>(kWarpSize) * ev.simt_insts);
  }
  if (ev.atomic_ops > 0) {
    m.atomic_conflict_pct = pct(static_cast<f64>(ev.atomic_conflicts),
                                static_cast<f64>(ev.atomic_ops));
  }
  return m;
}

DerivedMetrics derive_run_metrics(const KernelEvents& ev, f64 time_ms,
                                  f64 mem_time_ms, f64 issue_time_ms,
                                  u64 launches, u32 peak_smem_bytes,
                                  const DeviceProfile& p) {
  DerivedMetrics m = derive_metrics(ev, p);
  m.time_ms = time_ms;
  m.mem_time_ms = mem_time_ms;
  m.issue_time_ms = issue_time_ms;
  m.launches = launches;
  const f64 launch_ms =
      static_cast<f64>(launches) * p.kernel_launch_us * 1e-3;
  const f64 exec_ms = std::max(0.0, time_ms - launch_ms);
  m.sol_mem_pct = std::min(100.0, pct(mem_time_ms, exec_ms));
  m.sol_issue_pct = std::min(100.0, pct(issue_time_ms, exec_ms));
  m.bound = classify_bound(mem_time_ms, issue_time_ms);
  if (time_ms > 0.0) {
    m.dram_gbps = m.dram_bytes / (time_ms * 1e-3) / 1e9;
    m.achieved_gbps = m.useful_bytes / (time_ms * 1e-3) / 1e9;
    m.launch_overhead_pct = std::min(100.0, pct(launch_ms, time_ms));
  }
  m.smem_occupancy_pct = smem_occupancy_pct(peak_smem_bytes, p);
  return m;
}

// ---------------------------------------------------------------------------
// analyze_device + rules engine
// ---------------------------------------------------------------------------

namespace {

// Firing thresholds of the rules engine (percent).
constexpr f64 kOverfetchPct = 25.0;         // unrequested share of bytes
constexpr f64 kSiteTrafficSharePct = 10.0;  // min site share of traffic
constexpr f64 kBankConflictSlotPct = 20.0;
constexpr f64 kScatterReplaySlotPct = 20.0;
constexpr f64 kLaunchOverheadPct = 25.0;
constexpr f64 kActiveLanePct = 60.0;        // below: divergence warning
constexpr f64 kAtomicConflictPct = 50.0;
constexpr f64 kSmemOccupancyPct = 50.0;     // below: occupancy warning

void run_rules(MetricsReport& rep, const DeviceProfile& p) {
  auto add = [&](const char* rule, Diagnosis::Severity sev, std::string scope,
                 f64 value, std::string msg) {
    rep.diagnoses.push_back(
        Diagnosis{rule, sev, std::move(scope), value, std::move(msg)});
  };
  const DerivedMetrics& agg = rep.aggregate;

  // Rule: speed-of-light.  Always fires (info); states which pipe bounds
  // the run and how far from the device peaks it sits.
  switch (agg.bound) {
    case Bound::kMemory:
      add("speed-of-light", Diagnosis::Severity::kInfo, "run", agg.sol_mem_pct,
          strf("run is DRAM-bound: memory pipe busy %.0f%% of modeled "
               "execution time (issue pipe %.0f%%); moving %.2f GB/s of DRAM "
               "traffic against a %.1f GB/s peak",
               agg.sol_mem_pct, agg.sol_issue_pct, agg.dram_gbps,
               p.mem_bandwidth_gbps));
      break;
    case Bound::kIssue:
      add("speed-of-light", Diagnosis::Severity::kInfo, "run",
          agg.sol_issue_pct,
          strf("run is issue-bound: instruction pipe busy %.0f%% of modeled "
               "execution time (memory pipe %.0f%%); DRAM bandwidth is not "
               "the limiter (%.2f of %.1f GB/s)",
               agg.sol_issue_pct, agg.sol_mem_pct, agg.dram_gbps,
               p.mem_bandwidth_gbps));
      break;
    case Bound::kBalanced:
      add("speed-of-light", Diagnosis::Severity::kInfo, "run",
          std::max(agg.sol_mem_pct, agg.sol_issue_pct),
          strf("run is balanced: memory pipe %.0f%% vs issue pipe %.0f%% of "
               "modeled execution time -- no single pipe dominates",
               agg.sol_mem_pct, agg.sol_issue_pct));
      break;
  }

  // Rule: dram-overfetch.  A site moving a meaningful share of the run's
  // sector traffic where a large fraction of moved bytes was never
  // requested.  Critical when the run is memory-bound (the wasted bytes
  // are on the critical path), warning otherwise.
  const auto overfetch_sev = agg.bound == Bound::kIssue
                                 ? Diagnosis::Severity::kWarning
                                 : Diagnosis::Severity::kCritical;
  bool site_fired = false;
  for (const auto& s : rep.sites) {
    const f64 share = pct(s.metrics.sector_bytes, agg.sector_bytes);
    const f64 unrequested = 100.0 - s.metrics.coalescing_pct;
    if (share >= kSiteTrafficSharePct && unrequested > kOverfetchPct) {
      site_fired = true;
      add("dram-overfetch", overfetch_sev, "site:" + s.label, unrequested,
          strf("%.0f%% of bytes moved at site '%s' were never requested "
               "(over-fetch %.1fx, %.0f%% of run sector traffic) -- improve "
               "coalescing, e.g. stage elements in shared memory to reorder "
               "them before this access",
               unrequested, s.label.c_str(), s.metrics.sector_overfetch,
               share));
    }
  }
  if (!site_fired && 100.0 - agg.coalescing_pct > kOverfetchPct) {
    add("dram-overfetch", overfetch_sev, "run", 100.0 - agg.coalescing_pct,
        strf("%.0f%% of all moved bytes were never requested (over-fetch "
             "%.1fx) -- accesses are poorly coalesced",
             100.0 - agg.coalescing_pct, agg.sector_overfetch));
  }

  // Rule: bank-conflict-replays.  Serialized shared-memory banks eating a
  // large share of weighted issue slots; critical when the run is actually
  // issue-bound (they sit on the critical path).
  if (agg.bank_conflict_slot_pct >= kBankConflictSlotPct) {
    const char* worst = nullptr;
    u64 worst_extra = 0;
    for (const auto& s : rep.sites) {
      const u64 extra =
          s.events.smem_slots -
          std::min(s.events.smem_slots, s.events.smem_accesses);
      if (extra > worst_extra) {
        worst_extra = extra;
        worst = s.label.c_str();
      }
    }
    add("bank-conflict-replays",
        agg.bound == Bound::kMemory ? Diagnosis::Severity::kWarning
                                    : Diagnosis::Severity::kCritical,
        worst ? std::string("site:") + worst : std::string("run"),
        agg.bank_conflict_slot_pct,
        strf("issue-bound via shared-memory bank-conflict replays: %.0f%% of "
             "weighted issue slots serialize conflicting banks (avg %.1fx "
             "slots per access%s%s) -- pad the shared array or permute the "
             "indexing",
             agg.bank_conflict_slot_pct, agg.bank_conflict_mult,
             worst ? ", worst at site " : "", worst ? worst : ""));
  }

  // Rule: scatter-replays.  Non-coalesced global accesses burning issue
  // slots in replays.
  if (agg.scatter_replay_slot_pct >= kScatterReplaySlotPct) {
    const char* worst = nullptr;
    u64 worst_replays = 0;
    for (const auto& s : rep.sites) {
      if (s.events.scatter_replays > worst_replays) {
        worst_replays = s.events.scatter_replays;
        worst = s.label.c_str();
      }
    }
    add("scatter-replays",
        agg.bound == Bound::kMemory ? Diagnosis::Severity::kInfo
                                    : Diagnosis::Severity::kWarning,
        worst ? std::string("site:") + worst : std::string("run"),
        agg.scatter_replay_slot_pct,
        strf("%.0f%% of weighted issue slots replay fragmented global "
             "accesses%s%s -- coalesce (sort/stage) before touching DRAM",
             agg.scatter_replay_slot_pct, worst ? ", worst at site " : "",
             worst ? worst : ""));
  }

  // Rule: launch-overhead.  Fixed per-launch cost dominating small inputs.
  if (agg.launch_overhead_pct >= kLaunchOverheadPct) {
    add("launch-overhead",
        agg.launch_overhead_pct > 50.0 ? Diagnosis::Severity::kCritical
                                       : Diagnosis::Severity::kWarning,
        "run", agg.launch_overhead_pct,
        strf("kernel-launch overhead is %.0f%% of total modeled time "
             "(%llu launches x %.1f us) -- the run is launch-overhead "
             "dominated at this problem size; fuse kernels or batch more "
             "work per launch",
             agg.launch_overhead_pct,
             static_cast<unsigned long long>(agg.launches),
             p.kernel_launch_us));
  }

  // Rule: warp-divergence.  Per kernel group: mostly-idle lanes on
  // mask-carrying instructions.
  for (const auto& g : rep.kernels) {
    if (g.events.simt_insts == 0) continue;
    if (g.metrics.active_lane_pct < kActiveLanePct) {
      add("warp-divergence", Diagnosis::Severity::kWarning,
          "kernel:" + g.name, g.metrics.active_lane_pct,
          strf("kernel '%s' averages %.0f%% active lanes per SIMT "
               "instruction -- warps execute mostly diverged; consider "
               "compacting work or ballot-based reassignment",
               g.name.c_str(), g.metrics.active_lane_pct));
    }
  }

  // Rule: atomic-contention.  Serialized atomics on hot addresses.
  if (rep.events.atomic_ops > 0 &&
      agg.atomic_conflict_pct >= kAtomicConflictPct) {
    add("atomic-contention", Diagnosis::Severity::kWarning, "run",
        agg.atomic_conflict_pct,
        strf("%.0f%% of atomic operations conflicted on the same address -- "
             "atomics serialize; privatize per warp/block and reduce",
             agg.atomic_conflict_pct));
  }

  // Rule: smem-occupancy.  Per kernel group with a shared footprint:
  // shared memory caps resident blocks well below the device ceiling.
  for (const auto& g : rep.kernels) {
    if (g.peak_smem_bytes == 0) continue;
    if (g.metrics.smem_occupancy_pct < kSmemOccupancyPct) {
      add("smem-occupancy", Diagnosis::Severity::kWarning, "kernel:" + g.name,
          g.metrics.smem_occupancy_pct,
          strf("kernel '%s' allocates %u B shared memory per block, "
               "limiting residency to %.0f%% of the %u-block ceiling -- "
               "less latency hiding; shrink the footprint or split blocks",
               g.name.c_str(), g.peak_smem_bytes, g.metrics.smem_occupancy_pct,
               p.max_resident_blocks));
    }
  }

  std::stable_sort(rep.diagnoses.begin(), rep.diagnoses.end(),
                   [](const Diagnosis& a, const Diagnosis& b) {
                     if (a.severity != b.severity)
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     return a.value > b.value;
                   });
}

}  // namespace

MetricsReport analyze_device(const Device& dev) {
  const DeviceProfile& p = dev.profile();
  MetricsReport rep;
  rep.device = p.name;
  rep.allocator = dev.allocator().stats();
  rep.resilience = dev.resilience_stats();
  rep.batching = dev.batch_stats();

  f64 mem_sum = 0.0, issue_sum = 0.0;
  u32 run_peak = 0;
  for (const auto& r : dev.records()) {
    rep.launches += 1;
    rep.total_ms += r.time_ms;
    rep.events += r.events;
    mem_sum += r.mem_time_ms;
    issue_sum += r.issue_time_ms;
    run_peak = std::max(run_peak, r.peak_smem_bytes);

    auto it = std::find_if(rep.kernels.begin(), rep.kernels.end(),
                           [&](const auto& g) { return g.name == r.name; });
    if (it == rep.kernels.end()) {
      rep.kernels.push_back(KernelGroupMetrics{});
      it = rep.kernels.end() - 1;
      it->name = r.name;
    }
    it->launches += 1;
    it->time_ms += r.time_ms;
    it->mem_time_ms += r.mem_time_ms;
    it->issue_time_ms += r.issue_time_ms;
    it->peak_smem_bytes = std::max(it->peak_smem_bytes, r.peak_smem_bytes);
    it->events += r.events;
  }
  for (auto& g : rep.kernels) {
    g.metrics = derive_run_metrics(g.events, g.time_ms, g.mem_time_ms,
                                   g.issue_time_ms, g.launches,
                                   g.peak_smem_bytes, p);
  }
  rep.aggregate = derive_run_metrics(rep.events, rep.total_ms, mem_sum,
                                     issue_sum, rep.launches, run_peak, p);

  for (const auto& s : dev.site_stats()) {
    if (s.events == KernelEvents{}) continue;
    SiteMetrics sm;
    sm.label = s.label;
    sm.events = s.events;
    sm.metrics = derive_metrics(s.events, p);
    rep.sites.push_back(std::move(sm));
  }

  run_rules(rep, p);
  return rep;
}

// ---------------------------------------------------------------------------
// Text report
// ---------------------------------------------------------------------------

std::string format_metrics(const MetricsReport& rep) {
  std::ostringstream os;
  const DerivedMetrics& a = rep.aggregate;
  os << "=== derived metrics: " << rep.device << " ===\n";
  os << strf("launches %llu, total %.4f ms (mem pipe %.4f ms, issue pipe "
             "%.4f ms, launch %.4f ms)\n",
             static_cast<unsigned long long>(rep.launches), rep.total_ms,
             a.mem_time_ms, a.issue_time_ms,
             rep.total_ms * a.launch_overhead_pct / 100.0);
  os << strf("speed of light: mem %.1f%% | issue %.1f%%  -> %s-bound\n",
             a.sol_mem_pct, a.sol_issue_pct, to_string(a.bound));
  os << strf("dram %.3f MB moved (%.2f GB/s), useful %.3f MB (%.2f GB/s), "
             "coalescing %.1f%%, over-fetch %.2fx, L2 read hit %.1f%%\n",
             a.dram_bytes / 1e6, a.dram_gbps, a.useful_bytes / 1e6,
             a.achieved_gbps, a.coalescing_pct, a.sector_overfetch,
             a.l2_read_hit_pct);
  os << strf("divergence: %.1f%% active lanes over %llu SIMT insts, %llu "
             "ballot rounds\n",
             a.active_lane_pct, static_cast<unsigned long long>(a.simt_insts),
             static_cast<unsigned long long>(a.ballot_rounds));
  os << strf("shared memory: %.2fx avg bank serialization (%.1f%% of issue "
             "slots), occupancy proxy %.0f%%\n",
             a.bank_conflict_mult, a.bank_conflict_slot_pct,
             a.smem_occupancy_pct);

  if (!rep.kernels.empty()) {
    os << "\nkernels (grouped by name):\n";
    os << strf("  %-36s %7s %10s %8s %8s  %-8s %6s %6s\n", "name", "launch",
               "time_ms", "mem_ms", "iss_ms", "bound", "coal%", "lane%");
    for (const auto& g : rep.kernels) {
      os << strf("  %-36s %7llu %10.4f %8.4f %8.4f  %-8s %6.1f %6.1f\n",
                 g.name.c_str(), static_cast<unsigned long long>(g.launches),
                 g.time_ms, g.mem_time_ms, g.issue_time_ms,
                 to_string(g.metrics.bound), g.metrics.coalescing_pct,
                 g.metrics.active_lane_pct);
    }
  }

  if (!rep.sites.empty()) {
    os << "\nsites:\n";
    os << strf("  %-36s %10s %7s %6s %7s %7s %6s\n", "label", "sector_kB",
               "share%", "coal%", "ovf", "conflx", "lane%");
    for (const auto& s : rep.sites) {
      os << strf("  %-36s %10.1f %7.1f %6.1f %7.2f %7.2f %6.1f\n",
                 s.label.c_str(), s.metrics.sector_bytes / 1e3,
                 pct(s.metrics.sector_bytes, a.sector_bytes),
                 s.metrics.coalescing_pct, s.metrics.sector_overfetch,
                 s.metrics.bank_conflict_mult, s.metrics.active_lane_pct);
    }
  }

  if (!rep.diagnoses.empty()) {
    os << "\nguided analysis:\n";
    for (const auto& d : rep.diagnoses) {
      os << strf("  [%-8s] %-22s %s\n", to_string(d.severity), d.rule.c_str(),
                 d.message.c_str());
      os << strf("             scope %s, value %.1f\n", d.scope.c_str(),
                 d.value);
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

void write_events_fields(JsonWriter& w, const KernelEvents& ev) {
  w.field("issue_slots", ev.issue_slots);
  w.field("scatter_replays", ev.scatter_replays);
  w.field("smem_slots", ev.smem_slots);
  w.field("dram_read_tx", ev.dram_read_tx);
  w.field("dram_write_tx", ev.dram_write_tx);
  w.field("l2_read_segments", ev.l2_read_segments);
  w.field("l2_write_segments", ev.l2_write_segments);
  w.field("useful_bytes_read", ev.useful_bytes_read);
  w.field("useful_bytes_written", ev.useful_bytes_written);
  w.field("warps_launched", ev.warps_launched);
  w.field("blocks_launched", ev.blocks_launched);
  w.field("barriers", ev.barriers);
  w.field("atomic_ops", ev.atomic_ops);
  w.field("atomic_conflicts", ev.atomic_conflicts);
  w.field("simt_insts", ev.simt_insts);
  w.field("simt_active_lanes", ev.simt_active_lanes);
  w.field("ballot_rounds", ev.ballot_rounds);
  w.field("smem_accesses", ev.smem_accesses);
}

namespace {

void write_counter_metrics_fields(JsonWriter& w, const DerivedMetrics& m) {
  w.field("coalescing_pct", m.coalescing_pct);
  w.field("sector_overfetch", m.sector_overfetch);
  w.field("l2_read_hit_pct", m.l2_read_hit_pct);
  w.field("bank_conflict_mult", m.bank_conflict_mult);
  w.field("bank_conflict_slot_pct", m.bank_conflict_slot_pct);
  w.field("scatter_replay_slot_pct", m.scatter_replay_slot_pct);
  w.field("active_lane_pct", m.active_lane_pct);
  w.field("atomic_conflict_pct", m.atomic_conflict_pct);
}

void write_run_metrics_object(JsonWriter& w, const DerivedMetrics& m) {
  w.begin_object();
  w.field("time_ms", m.time_ms);
  w.field("mem_time_ms", m.mem_time_ms);
  w.field("issue_time_ms", m.issue_time_ms);
  w.field("sol_mem_pct", m.sol_mem_pct);
  w.field("sol_issue_pct", m.sol_issue_pct);
  w.field("bound", to_string(m.bound));
  w.field("dram_gbps", m.dram_gbps);
  w.field("achieved_gbps", m.achieved_gbps);
  w.field("launch_overhead_pct", m.launch_overhead_pct);
  w.field("smem_occupancy_pct", m.smem_occupancy_pct);
  w.field("dram_bytes", m.dram_bytes);
  w.field("sector_bytes", m.sector_bytes);
  w.field("useful_bytes", m.useful_bytes);
  write_counter_metrics_fields(w, m);
  w.end_object();
}

}  // namespace

void write_site_json(JsonWriter& w, const std::string& label,
                     const KernelEvents& ev, const DeviceProfile& p) {
  const DerivedMetrics m = derive_metrics(ev, p);
  w.begin_object();
  w.field("label", label);
  write_events_fields(w, ev);
  write_counter_metrics_fields(w, m);
  w.end_object();
}

void write_metrics_json(JsonWriter& w, const MetricsReport& rep) {
  w.key("metrics");
  write_run_metrics_object(w, rep.aggregate);

  w.key("counters");
  w.begin_object();
  write_events_fields(w, rep.events);
  w.end_object();

  // Device sub-allocator stats (schema v4): address-space and pool-reuse
  // accounting over the device's lifetime.  Deterministic host-side
  // counters, so the tolerance-0 gates compare them exactly too.
  w.key("allocator");
  w.begin_object();
  w.field("alloc_count", rep.allocator.alloc_count);
  w.field("free_count", rep.allocator.free_count);
  w.field("reuse_hits", rep.allocator.reuse_hits);
  w.field("bytes_requested", rep.allocator.bytes_requested);
  w.field("bytes_reused", rep.allocator.bytes_reused);
  w.field("bytes_reserved", rep.allocator.bytes_reserved);
  w.field("bytes_cached", rep.allocator.bytes_cached);
  w.field("bytes_live", rep.allocator.bytes_live);
  w.end_object();

  // Fault-injection and resilient-executor accounting (schema v6).  All
  // zeros when chaos is off and no run has a retry policy, so the
  // tolerance-0 gates compare the block exactly.
  w.key("resilience");
  w.begin_object();
  w.field("injected_alloc_failures", rep.resilience.injected_alloc_failures);
  w.field("injected_launch_aborts", rep.resilience.injected_launch_aborts);
  w.field("injected_bit_flips", rep.resilience.injected_bit_flips);
  w.field("injected_l2_corruptions", rep.resilience.injected_l2_corruptions);
  w.field("requests", rep.resilience.requests);
  w.field("faults_observed", rep.resilience.faults_observed);
  w.field("retries", rep.resilience.retries);
  w.field("fallbacks", rep.resilience.fallbacks);
  w.field("validation_failures", rep.resilience.validation_failures);
  w.field("recovered", rep.resilience.recovered);
  w.field("lost", rep.resilience.lost);
  w.end_object();

  // Batched-serving accounting (schema v8).  All zeros when the device
  // never served batches, so the tolerance-0 gates compare the block
  // exactly on existing benches.
  w.key("batching");
  w.begin_object();
  w.field("batches", rep.batching.batches);
  w.field("packed_problems", rep.batching.packed_problems);
  w.field("unpacked_problems", rep.batching.unpacked_problems);
  w.field("fused_launches", rep.batching.fused_launches);
  w.field("slots_filled", rep.batching.slots_filled);
  w.field("slots_total", rep.batching.slots_total);
  w.field("fill_ratio", rep.batching.fill_ratio());
  w.field("problems_retried", rep.batching.problems_retried);
  w.end_object();

  w.key("kernels");
  w.begin_array();
  for (const auto& g : rep.kernels) {
    w.begin_object();
    w.field("name", g.name);
    w.field("launches", g.launches);
    w.field("peak_smem_bytes", g.peak_smem_bytes);
    w.key("counters");
    w.begin_object();
    write_events_fields(w, g.events);
    w.end_object();
    w.key("metrics");
    write_run_metrics_object(w, g.metrics);
    w.end_object();
  }
  w.end_array();

  w.key("diagnoses");
  w.begin_array();
  for (const auto& d : rep.diagnoses) {
    w.begin_object();
    w.field("rule", d.rule);
    w.field("severity", to_string(d.severity));
    w.field("scope", d.scope);
    w.field("value", d.value);
    w.field("message", d.message);
    w.end_object();
  }
  w.end_array();
}

// ---------------------------------------------------------------------------
// Run-diff regression tool
// ---------------------------------------------------------------------------

namespace {

const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

/// Print a number the way a human wrote it: integers without a decimal
/// point, everything else with enough digits to identify the value.
std::string num_str(f64 v) {
  if (std::floor(v) == v && std::fabs(v) < 1e15) {
    return strf("%.0f", v);
  }
  return strf("%.9g", v);
}

/// Identity key of an array element: report rows are identified by the
/// subset of these members they carry (bench results by method/m/key_value,
/// kernel groups by name, site entries by label).
std::string identity_of(const JsonValue& v) {
  static constexpr std::array<const char*, 7> kIdKeys = {
      "method", "method_selected", "name", "label", "kernel", "m",
      "key_value"};
  if (!v.is_object()) return {};
  std::string id;
  for (const char* k : kIdKeys) {
    const JsonValue* f = v.find(k);
    if (f == nullptr) continue;
    if (!id.empty()) id += ',';
    id += k;
    id += '=';
    switch (f->type) {
      case JsonValue::Type::kString: id += f->str; break;
      case JsonValue::Type::kNumber: id += num_str(f->number); break;
      case JsonValue::Type::kBool: id += f->boolean ? "true" : "false"; break;
      default: id += type_name(f->type); break;
    }
  }
  return id;
}

struct DiffCtx {
  const DiffOptions* opts;
  DiffResult* out;

  void finding(const std::string& path, std::string note, f64 drift = 0.0) {
    out->total_findings += 1;
    if (out->findings.size() < opts->max_findings) {
      out->findings.push_back(DiffFinding{path, std::move(note), drift});
    }
  }
};

std::string join(const std::string& path, std::string_view key) {
  if (path.empty()) return std::string(key);
  return path + "." + std::string(key);
}

void diff_value(DiffCtx& ctx, const std::string& path, const JsonValue& base,
                const JsonValue& cur);

/// host_* fields (host_ms, host_keys_per_sec, ...) report the simulator's
/// own wall-clock, which varies run to run and with --host-threads; they
/// are never part of the modeled results, so diffs skip them entirely.
bool is_host_time_key(std::string_view k) { return k.rfind("host_", 0) == 0; }

void diff_object(DiffCtx& ctx, const std::string& path, const JsonValue& base,
                 const JsonValue& cur) {
  for (const auto& [k, bv] : base.object) {
    if (is_host_time_key(k)) continue;
    const JsonValue* cv = cur.find(k);
    if (cv == nullptr) {
      ctx.finding(join(path, k), "present in baseline, missing in current");
    } else {
      diff_value(ctx, join(path, k), bv, *cv);
    }
  }
  for (const auto& [k, cv] : cur.object) {
    (void)cv;
    if (is_host_time_key(k)) continue;
    if (base.find(k) == nullptr) {
      ctx.finding(join(path, k), "not in baseline, added in current");
    }
  }
}

void diff_array(DiffCtx& ctx, const std::string& path, const JsonValue& base,
                const JsonValue& cur) {
  // Keyed matching when every element on both sides carries an identity;
  // positional otherwise (bare number arrays, trace-style lists).
  bool keyed = !base.array.empty() || !cur.array.empty();
  for (const auto& e : base.array) keyed = keyed && !identity_of(e).empty();
  for (const auto& e : cur.array) keyed = keyed && !identity_of(e).empty();

  if (keyed) {
    std::vector<std::pair<std::string, const JsonValue*>> cur_rows;
    cur_rows.reserve(cur.array.size());
    for (const auto& e : cur.array) cur_rows.emplace_back(identity_of(e), &e);
    std::vector<bool> matched(cur_rows.size(), false);
    for (const auto& be : base.array) {
      const std::string id = identity_of(be);
      const std::string row_path = path + "[" + id + "]";
      bool found = false;
      for (size_t i = 0; i < cur_rows.size(); ++i) {
        if (!matched[i] && cur_rows[i].first == id) {
          matched[i] = true;
          found = true;
          diff_value(ctx, row_path, be, *cur_rows[i].second);
          break;
        }
      }
      if (!found) {
        ctx.finding(row_path, "row present in baseline, missing in current");
      }
    }
    for (size_t i = 0; i < cur_rows.size(); ++i) {
      if (!matched[i]) {
        ctx.finding(path + "[" + cur_rows[i].first + "]",
                    "row not in baseline, added in current");
      }
    }
    return;
  }

  const size_t common = std::min(base.array.size(), cur.array.size());
  for (size_t i = 0; i < common; ++i) {
    diff_value(ctx, path + "[" + std::to_string(i) + "]", base.array[i],
               cur.array[i]);
  }
  if (base.array.size() != cur.array.size()) {
    ctx.finding(path, strf("array length changed: baseline %zu current %zu",
                           base.array.size(), cur.array.size()));
  }
}

void diff_value(DiffCtx& ctx, const std::string& path, const JsonValue& base,
                const JsonValue& cur) {
  if (base.type != cur.type) {
    ctx.finding(path, strf("type changed: baseline %s, current %s",
                           type_name(base.type), type_name(cur.type)));
    return;
  }
  switch (base.type) {
    case JsonValue::Type::kNull:
      ctx.out->values_compared += 1;
      break;
    case JsonValue::Type::kBool:
      ctx.out->values_compared += 1;
      if (base.boolean != cur.boolean) {
        ctx.finding(path, strf("baseline %s, current %s",
                               base.boolean ? "true" : "false",
                               cur.boolean ? "true" : "false"));
      }
      break;
    case JsonValue::Type::kString:
      ctx.out->values_compared += 1;
      if (base.str != cur.str) {
        ctx.finding(path, "baseline \"" + base.str + "\", current \"" +
                              cur.str + "\"");
      }
      break;
    case JsonValue::Type::kNumber: {
      ctx.out->values_compared += 1;
      const f64 a = base.number, b = cur.number;
      if (a == b) break;
      const f64 denom = std::max(std::fabs(a), std::fabs(b));
      const f64 drift = denom > 0.0 ? std::fabs(b - a) / denom : 0.0;
      // Negated so a NaN drift (inf against a finite value) is a finding.
      if (!(drift <= ctx.opts->tolerance)) {
        ctx.finding(path,
                    strf("baseline %s, current %s (%+.4g%% drift)",
                         num_str(a).c_str(), num_str(b).c_str(),
                         100.0 * (b - a) / (denom > 0.0 ? denom : 1.0)),
                    drift);
      }
      break;
    }
    case JsonValue::Type::kObject:
      diff_object(ctx, path, base, cur);
      break;
    case JsonValue::Type::kArray:
      diff_array(ctx, path, base, cur);
      break;
  }
}

u64 schema_of(const JsonValue& v, const char* which) {
  if (!v.is_object()) {
    throw std::runtime_error(
        strf("%s report: top-level JSON value is not an object", which));
  }
  const JsonValue* s = v.find("schema_version");
  if (s == nullptr || !s->is_number()) {
    throw std::runtime_error(
        strf("%s report has no schema_version field -- it predates the "
             "metrics schema; regenerate it with this build",
             which));
  }
  return v.at_u64("schema_version");
}

}  // namespace

DiffResult diff_reports(const JsonValue& base, const JsonValue& cur,
                        const DiffOptions& opts) {
  const u64 bs = schema_of(base, "baseline");
  const u64 cs = schema_of(cur, "current");
  if (bs != cs) {
    throw std::runtime_error(
        strf("schema_version mismatch: baseline v%llu vs current v%llu -- "
             "regenerate both reports with the same build",
             static_cast<unsigned long long>(bs),
             static_cast<unsigned long long>(cs)));
  }
  if (bs != kReportSchemaVersion) {
    throw std::runtime_error(
        strf("unsupported schema_version v%llu (this build reads v%u)",
             static_cast<unsigned long long>(bs), kReportSchemaVersion));
  }
  DiffResult out;
  DiffCtx ctx{&opts, &out};
  diff_value(ctx, "", base, cur);
  return out;
}

}  // namespace ms::sim
