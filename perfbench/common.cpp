#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.hpp"
#include "multisplit/bucket.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {

using ms::split::RangeBucket;

u64 mix_seed(u64 seed, u64 tag) {
  u64 z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<u32> make_keys(u64 n, u32 m, ms::workload::Distribution dist,
                           u64 seed) {
  ms::workload::WorkloadConfig wc;
  wc.dist = dist;
  wc.m = m;
  wc.seed = seed;
  return ms::workload::generate_keys(n, wc);
}

namespace {

/// Stable-partition input positions [first, last) into buckets [lo, hi)
/// by halving the bucket range.
void partition_positions(std::vector<u32>::iterator first,
                         std::vector<u32>::iterator last, u32 lo, u32 hi,
                         std::span<const u32> keys, RangeBucket bucket) {
  if (hi - lo <= 1 || first == last) return;
  const u32 mid = lo + (hi - lo) / 2;
  const auto split = std::stable_partition(
      first, last, [&](u32 i) { return bucket(keys[i]) < mid; });
  partition_positions(first, split, lo, mid, keys, bucket);
  partition_positions(split, last, mid, hi, keys, bucket);
}

}  // namespace

std::string check_split(std::span<const u32> keys_in,
                        std::span<const u32> keys_out,
                        std::span<const u32> vals_out,
                        const std::vector<u32>& offsets, u32 m, bool stable) {
  const RangeBucket bucket{m};
  const u64 n = keys_in.size();
  if (keys_out.size() != n) return "output has the wrong length";
  if (!vals_out.empty() && vals_out.size() != n) {
    return "value output has the wrong length";
  }
  std::vector<u32> expect_off(m + 1, 0);
  for (const u32 k : keys_in) expect_off[bucket(k) + 1] += 1;
  std::partial_sum(expect_off.begin(), expect_off.end(), expect_off.begin());
  if (offsets != expect_off) return "bucket_offsets differ from the oracle";

  std::vector<u32> order(n);
  std::iota(order.begin(), order.end(), 0u);
  partition_positions(order.begin(), order.end(), 0, m, keys_in, bucket);
  if (stable) {
    for (u64 pos = 0; pos < n; ++pos) {
      if (keys_out[pos] != keys_in[order[pos]]) {
        return "key differs from the stable partition at output index " +
               std::to_string(pos);
      }
      if (!vals_out.empty() && vals_out[pos] != order[pos]) {
        return "value differs from the stable partition at output index " +
               std::to_string(pos);
      }
    }
    return "";
  }
  // Unstable methods: every bucket must hold the same keys, and a value
  // must still name the input position of the key beside it.
  for (u32 b = 0; b < m; ++b) {
    std::vector<u32> got(keys_out.begin() + expect_off[b],
                         keys_out.begin() + expect_off[b + 1]);
    std::vector<u32> want(got.size());
    for (u64 i = expect_off[b]; i < expect_off[b + 1]; ++i) {
      want[i - expect_off[b]] = keys_in[order[i]];
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) return "bucket " + std::to_string(b) + " holds wrong keys";
  }
  for (u64 pos = 0; pos < vals_out.size(); ++pos) {
    if (vals_out[pos] >= n || keys_in[vals_out[pos]] != keys_out[pos]) {
      return "value does not travel with its key at output index " +
             std::to_string(pos);
    }
  }
  return "";
}

f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void ModeledCost::add(const std::vector<ms::sim::KernelRecord>& records,
                      const ms::sim::DeviceProfile& profile) {
  const f64 launch = profile.kernel_launch_us * 1e-3;
  for (const ms::sim::KernelRecord& r : records) {
    time_ms += r.time_ms;
    launch_ms += launch;
    if (r.mem_time_ms >= r.issue_time_ms) {
      mem_bound_ms += r.mem_time_ms;
    } else {
      issue_bound_ms += r.issue_time_ms;
    }
    launches += 1;
    events += r.events;
  }
}

ModeledCost& ModeledCost::operator+=(const ModeledCost& o) {
  time_ms += o.time_ms;
  launch_ms += o.launch_ms;
  mem_bound_ms += o.mem_bound_ms;
  issue_bound_ms += o.issue_bound_ms;
  launches += o.launches;
  events += o.events;
  return *this;
}

void check_slot(Report& rep, SlotRef& slot, const char* what, u64 index,
                f64 total_ms, const ModeledCost& cost) {
  if (!slot.set) {
    slot = SlotRef{true, total_ms, cost};
    return;
  }
  if (slot.total_ms != total_ms || !(slot.cost == cost)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s request %llu: modeled cost %.17g ms differs from an "
                  "earlier run of the same input (%.17g ms)",
                  what, static_cast<unsigned long long>(index), total_ms,
                  slot.total_ms);
    rep.errors.push_back(buf);
  }
}

void SpanAgg::add(const ms::sim::SpanRecorder& rec, bool reference) {
  using ms::sim::SpanKind;
  const std::vector<ms::sim::SpanRecord>& spans = rec.spans();
  // Ids are 1-based indexes into spans(); parent 0 is the root.
  const auto stage_ancestor = [&](const ms::sim::SpanRecord& s) {
    for (u64 p = s.parent_id; p != 0; p = spans[p - 1].parent_id) {
      if (spans[p - 1].kind == SpanKind::kStage) return true;
    }
    return false;
  };
  for (const ms::sim::SpanRecord& s : spans) {
    if (s.kind == SpanKind::kStage) {
      if (stage_ancestor(s)) {
        nested_stages += 1;
        continue;
      }
      std::string name = s.name;
      std::replace(name.begin(), name.end(), '/', '.');
      stage_host_ms[name] += s.host_ms;
      if (reference) stage_modeled_ms[name] += s.end_ms - s.begin_ms;
    } else if (s.kind == SpanKind::kLaunch) {
      launch_host_ms += s.host_ms;
      launch_host_us.push_back(s.host_ms * 1e3);
      if (!stage_ancestor(s)) nostage_launch_host_ms += s.host_ms;
    }
  }
}

void PoolBusy::open(ms::sim::Device& dev) {
  if (ms::sim::Telemetry* t = dev.telemetry()) t->sample_now();
}

void PoolBusy::close(ms::sim::Device& dev) {
  ms::sim::Telemetry* t = dev.telemetry();
  if (t == nullptr) return;
  t->sample_now();
  const auto& tl = t->timeline();
  if (tl.size() < 2) return;
  const f64 window = tl.back().host_ms - tl[tl.size() - 2].host_ms;
  for (const ms::sim::ScalarSample& s : tl.back().scalars) {
    if (s.name == "pool.busy_frac") {
      busy_ms += s.value * window;
      window_ms += window;
      return;
    }
  }
}

namespace {

/// Every stage span the three workloads open, by name with '/' -> '.'.
/// Any other stage folds into stage.other, so the metric set stays fixed.
constexpr const char* kStageNames[] = {
    "direct_ms.prescan",     "direct_ms.scan",       "direct_ms.postscan",
    "direct_ms.epilogue",    "warp_ms.prescan",      "warp_ms.scan",
    "warp_ms.postscan",      "warp_ms.epilogue",     "block_ms.prescan",
    "block_ms.scan",         "block_ms.postscan",    "block_ms.epilogue",
    "reduced_bit.labeling",  "reduced_bit.sorting",  "reduced_bit.permuting",
    "reduced_bit.unpacking", "reduced_bit.epilogue",
};

f64 per(f64 total, u64 count) {
  return count == 0 ? 0.0 : total / static_cast<f64>(count);
}

}  // namespace

void emit_end_to_end(const Options& opt, Report& rep, const EndToEnd& e) {
  const auto window_median = [&](f64 q) {
    std::vector<f64> per_window;
    for (const std::vector<f64>& w : e.window_ms) {
      per_window.push_back(quantile(w, q));
    }
    return median(per_window);
  };
  rep.put("host_req_p50_ms", window_median(0.50), "ms");
  rep.put("host_req_p90_ms", window_median(0.90), "ms");
  rep.put("host_keys_per_s", median(e.window_keys_per_s), "keys/s");
  const f64 gkeys = static_cast<f64>(e.ref_keys) / e.ref_modeled_ms / 1e6;
  rep.put("modeled_gkeys_per_s", gkeys, "Gkeys/s");
  rep.modeled["modeled_gkeys_per_s"] = gkeys;
  rep.put("setup_s", median(e.setup_s), "s");
  rep.put("ok_rate",
          rep.attempted == 0
              ? 0.0
              : static_cast<f64>(rep.attempted - rep.failed) /
                    static_cast<f64>(rep.attempted),
          "ratio");
  // Tail percentiles are trustworthy only with ten samples beyond them.
  u64 samples = 0;
  for (const std::vector<f64>& w : e.window_ms) samples += w.size();
  const f64 n = static_cast<f64>(samples) /
                static_cast<f64>(std::max<std::size_t>(1, e.window_ms.size()));
  // p99 is context only: with ten samples beyond it only reuse_loop
  // resolves it, and the metric set must be the same on every workload.
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "host requests timed: %llu in %zu window(s); per window, "
                "samples beyond p90: %.0f, beyond p99: %.0f; "
                "host_req_p99_ms: %.4f%s",
                static_cast<unsigned long long>(samples), e.window_ms.size(),
                std::floor(n * 0.10), std::floor(n * 0.01),
                window_median(0.99),
                n * 0.01 < 10.0 ? " (under-sampled here)" : "");
  rep.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "error_rate: %.6g (%llu of %llu failed)",
                rep.attempted == 0 ? 0.0
                                   : static_cast<f64>(rep.failed) /
                                         static_cast<f64>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
  rep.notes.push_back(buf);
  rep.put("paper_abs_log_err", paper_score(opt, rep), "ratio");
  // Last, so it covers everything the run held.
  rep.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

void put_modeled(Report& rep, const Layers& l,
                 const ms::sim::DeviceProfile& profile) {
  const ModeledCost& c = l.ref_cost;
  const u64 rr = l.ref_requests;
  std::map<std::string, f64>& m = rep.modeled;
  m["cost.launch_ms"] = per(c.launch_ms, rr);
  m["cost.mem_bound_ms"] = per(c.mem_bound_ms, rr);
  m["cost.issue_bound_ms"] = per(c.issue_bound_ms, rr);
  m["sim.l2_read_hit_pct"] =
      ms::sim::derive_metrics(c.events, profile).l2_read_hit_pct;
  m["sim.l2_segments"] = per(static_cast<f64>(c.l2_segments()), rr);
  m["sim.dram_tx"] = per(static_cast<f64>(c.dram_tx()), rr);
  m["sim.simt_insts"] = per(static_cast<f64>(c.events.simt_insts), rr);
  m["sim.launches"] = per(static_cast<f64>(c.launches), rr);
  m["sim.launch_overhead_pct"] =
      c.time_ms > 0.0 ? 100.0 * c.launch_ms / c.time_ms : 0.0;
  m["alloc.count"] = per(static_cast<f64>(l.ref_alloc_count), rr);
  m["alloc.reuse_hits"] = per(static_cast<f64>(l.ref_reuse_hits), rr);
  m["alloc.bytes_reserved"] = static_cast<f64>(l.bytes_reserved);
}

void emit_layers(Report& rep, const Layers& l) {
  // workload / plan
  rep.put("workload.keygen_ms", median(l.keygen_ms), "ms");
  rep.put("plan.build_us", median(l.build_us), "us");
  rep.put("plan.warmup_ms", median(l.warmup_ms), "ms");
  rep.put("plan.replay_frac",
          per(static_cast<f64>(l.replayed), l.timed_requests), "ratio");

  // Stages: per traced request, host partition + modeled (reference).
  const u64 tr = l.traced_requests;
  f64 staged = 0.0;
  for (const auto& [name, ms] : l.spans.stage_host_ms) staged += ms;
  const f64 request_ms = per(l.traced_timed_ms, tr);
  std::map<std::string, std::pair<f64, f64>> stages;  // host, modeled
  for (const char* name : kStageNames) stages[name] = {0.0, 0.0};
  stages["other"] = {0.0, 0.0};
  for (const auto& [name, ms] : l.spans.stage_host_ms) {
    auto it = stages.find(name);
    std::pair<f64, f64>& slot = it == stages.end() ? stages["other"] : it->second;
    slot.first += per(ms, tr);
    const auto mit = l.spans.stage_modeled_ms.find(name);
    if (mit != l.spans.stage_modeled_ms.end()) {
      slot.second += per(mit->second, l.traced_ref_requests);
    }
  }
  for (const auto& [name, hm] : stages) {
    rep.put("stage." + name + ".host_ms", hm.first, "ms");
    rep.put("stage." + name + ".modeled_ms", hm.second, "ms");
    rep.modeled["stage." + name + ".modeled_ms"] = hm.second;
  }
  const f64 nostage = per(l.spans.nostage_launch_host_ms, tr);
  rep.put("stage.nostage_launch.host_ms", nostage, "ms");
  rep.put("stage.unstaged.host_ms", request_ms - per(staged, tr) - nostage,
          "ms");
  rep.put("request.host_ms", request_ms, "ms");

  // Cost model, memory model, lane engine, launches and allocator: the
  // modeled per-request values of the reference cycle (put_modeled).
  constexpr std::pair<const char*, const char*> kModeled[] = {
      {"cost.launch_ms", "ms"},         {"cost.mem_bound_ms", "ms"},
      {"cost.issue_bound_ms", "ms"},    {"sim.l2_read_hit_pct", "%"},
      {"sim.l2_segments", "count"},     {"sim.dram_tx", "count"},
      {"sim.simt_insts", "count"},      {"sim.launches", "count"},
      {"sim.launch_overhead_pct", "%"}, {"alloc.count", "count"},
      {"alloc.reuse_hits", "count"},    {"alloc.bytes_reserved", "bytes"},
  };
  for (const auto& [name, unit] : kModeled) {
    rep.put(name, rep.modeled.at(name), unit);
  }

  // Host time per simulated event, in launch spans.
  const f64 launch_ns = l.spans.launch_host_ms * 1e6;
  rep.put("sim.host_ns_per_l2_segment",
          per(launch_ns, l.traced_cost.l2_segments()), "ns");
  rep.put("sim.host_ns_per_simt_inst",
          per(launch_ns, l.traced_cost.events.simt_insts), "ns");
  rep.put("sim.launch.host_us", median(l.spans.launch_host_us), "us");
  rep.put("sim.launch.host_ms", per(l.spans.launch_host_ms, tr), "ms");

  // Scheduler.
  rep.put("pool.busy_frac", l.pool.frac(), "ratio");

  // Serving layer.
  const ms::sim::BatchStats& b = l.batch;
  const u64 problems = b.packed_problems + b.unpacked_problems;
  rep.put("serve.submit_us", median(l.submit_us), "us");
  rep.put("serve.flush_ms", median(l.flush_ms), "ms");
  rep.put("serve.fill_ratio", b.fill_ratio(), "ratio");
  rep.put("serve.packed_frac",
          per(static_cast<f64>(b.packed_problems), problems), "ratio");
  rep.put("serve.fused_launches", static_cast<f64>(b.fused_launches),
          "count");
  rep.put("serve.batches", static_cast<f64>(b.batches), "count");

  // Observability.
  rep.put("trace.overhead_pct",
          l.p50_untraced_ms > 0.0
              ? 100.0 * (l.p50_traced_ms / l.p50_untraced_ms - 1.0)
              : 0.0,
          "%");

  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "traced request host %.4f ms = stages %.4f + launches outside "
                "stages %.4f + unstaged %.4f (launch spans in total %.4f); "
                "%llu traced requests, %llu nested stage spans",
                request_ms, per(staged, tr), nostage,
                request_ms - per(staged, tr) - nostage,
                per(l.spans.launch_host_ms, tr),
                static_cast<unsigned long long>(tr),
                static_cast<unsigned long long>(l.spans.nested_stages));
  rep.notes.push_back(buf);
}

}  // namespace perfbench
