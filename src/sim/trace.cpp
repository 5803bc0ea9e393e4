#include "sim/trace.hpp"

#include <fstream>
#include <ostream>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace ms::sim {

namespace {

constexpr u32 kTidStages = 0;
constexpr u32 kTidKernels = 1;
constexpr u32 kTidMem = 2;
constexpr u32 kTidIssue = 3;
constexpr u32 kTidSpans = 4;

void metadata_event(JsonWriter& w, const char* name, u32 tid,
                    const char* value) {
  w.begin_object()
      .field("ph", "M")
      .field("pid", u64{0})
      .field("tid", static_cast<u64>(tid))
      .field("name", name);
  w.key("args").begin_object().field("name", value).end_object();
  w.end_object();
}

void slice_begin(JsonWriter& w, std::string_view name, const char* cat,
                 u32 tid, f64 ts_us, f64 dur_us) {
  w.begin_object()
      .field("ph", "X")
      .field("pid", u64{0})
      .field("tid", static_cast<u64>(tid))
      .field("name", name)
      .field("cat", cat)
      .field("ts", ts_us)
      .field("dur", dur_us);
}

void counter_event(JsonWriter& w, const char* name, f64 ts_us) {
  w.begin_object()
      .field("ph", "C")
      .field("pid", u64{0})
      .field("tid", u64{0})
      .field("name", name)
      .field("ts", ts_us);
}

}  // namespace

void write_chrome_trace(const Device& dev, std::ostream& os) {
  const auto& records = dev.records();
  const auto& sites = dev.site_stats();  // id -> label
  const DeviceProfile& prof = dev.profile();

  // Modeled start time of each kernel (and the end of the last), in us.
  std::vector<f64> start_us(records.size() + 1, 0.0);
  for (u64 i = 0; i < records.size(); ++i) {
    start_us[i + 1] = start_us[i] + records[i].time_ms * 1e3;
  }

  JsonWriter w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("otherData").begin_object().field("device", prof.name).end_object();
  w.key("traceEvents").begin_array();

  metadata_event(w, "process_name", 0, ("simulated " + prof.name).c_str());
  metadata_event(w, "thread_name", kTidStages, "stages");
  metadata_event(w, "thread_name", kTidKernels, "kernels");
  metadata_event(w, "thread_name", kTidMem, "memory pipe");
  metadata_event(w, "thread_name", kTidIssue, "issue pipe");

  // Stage bands from recorded Stages (host-only stages draw none).
  for (const RegionRecord& reg : dev.regions()) {
    if (reg.first_kernel >= reg.end_kernel ||
        reg.end_kernel > records.size()) {
      continue;
    }
    const f64 ts = start_us[reg.first_kernel];
    const f64 dur = start_us[reg.end_kernel] - ts;
    slice_begin(w, reg.name, "stage", kTidStages, ts, dur);
    w.end_object();
  }

  // Kernel slices + pipe sub-slices + counter tracks.
  u64 dram_read = 0, dram_write = 0;
  counter_event(w, "DRAM transactions", 0.0);
  w.key("args").begin_object().field("read", u64{0}).field("write", u64{0});
  w.end_object().end_object();

  for (u64 i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    const f64 ts = start_us[i];

    slice_begin(w, r.name, "kernel", kTidKernels, ts, r.time_ms * 1e3);
    w.key("args").begin_object();
    w.field("issue_slots", r.events.issue_slots)
        .field("scatter_replays", r.events.scatter_replays)
        .field("smem_slots", r.events.smem_slots)
        .field("dram_read_tx", r.events.dram_read_tx)
        .field("dram_write_tx", r.events.dram_write_tx)
        .field("l2_read_segments", r.events.l2_read_segments)
        .field("l2_write_segments", r.events.l2_write_segments)
        .field("useful_bytes_read", r.events.useful_bytes_read)
        .field("useful_bytes_written", r.events.useful_bytes_written)
        .field("warps_launched", r.events.warps_launched)
        .field("barriers", r.events.barriers)
        .field("atomic_ops", r.events.atomic_ops)
        .field("coalescing_pct",
               100.0 * coalescing_efficiency(r.events, prof))
        .field("achieved_gbps", achieved_bandwidth_gbps(r));
    if (!r.sites.empty()) {
      w.key("sites").begin_object();
      for (const auto& [site, ev] : r.sites) {
        w.key(site < sites.size() ? sites[site].label : "?").begin_object();
        w.field("coalescing_pct", 100.0 * coalescing_efficiency(ev, prof))
            .field("l2_segments", ev.l2_read_segments + ev.l2_write_segments)
            .field("scatter_replays", ev.scatter_replays)
            .field("issue_slots", ev.issue_slots);
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();  // args
    w.end_object();  // kernel slice

    // The two roofline components as sub-slices on their own pipes.
    if (r.mem_time_ms > 0.0) {
      slice_begin(w, r.name, "mem", kTidMem, ts + prof.kernel_launch_us,
                  r.mem_time_ms * 1e3);
      w.end_object();
    }
    if (r.issue_time_ms > 0.0) {
      slice_begin(w, r.name, "issue", kTidIssue, ts + prof.kernel_launch_us,
                  r.issue_time_ms * 1e3);
      w.end_object();
    }

    dram_read += r.events.dram_read_tx;
    dram_write += r.events.dram_write_tx;
    counter_event(w, "DRAM transactions", start_us[i + 1]);
    w.key("args").begin_object().field("read", dram_read).field("write",
                                                                dram_write);
    w.end_object().end_object();

    counter_event(w, "achieved GB/s", ts);
    w.key("args").begin_object().field("gbps", achieved_bandwidth_gbps(r));
    w.end_object().end_object();

    // Derived-metric counter tracks (metrics.hpp): each kernel contributes
    // one sample at its modeled start, so the tracks step along the same
    // timeline as the kernel slices.
    const DerivedMetrics dm =
        derive_run_metrics(r.events, r.time_ms, r.mem_time_ms,
                           r.issue_time_ms, 1, r.peak_smem_bytes, prof);
    counter_event(w, "speed of light %", ts);
    w.key("args").begin_object().field("mem", dm.sol_mem_pct).field(
        "issue", dm.sol_issue_pct);
    w.end_object().end_object();
    counter_event(w, "coalescing %", ts);
    w.key("args").begin_object().field("pct", dm.coalescing_pct);
    w.end_object().end_object();
    counter_event(w, "active lanes %", ts);
    w.key("args").begin_object().field("pct", dm.active_lane_pct);
    w.end_object().end_object();
  }
  if (!records.empty()) {
    const f64 end = start_us[records.size()];
    counter_event(w, "achieved GB/s", end);
    w.key("args").begin_object().field("gbps", 0.0).end_object().end_object();
    counter_event(w, "speed of light %", end);
    w.key("args").begin_object().field("mem", 0.0).field("issue", 0.0);
    w.end_object().end_object();
    counter_event(w, "coalescing %", end);
    w.key("args").begin_object().field("pct", 0.0).end_object().end_object();
    counter_event(w, "active lanes %", end);
    w.key("args").begin_object().field("pct", 0.0).end_object().end_object();
  }

  // Telemetry counter tracks (sim/telemetry.hpp): each ring snapshot
  // contributes one sample, plotted at its modeled timestamp so the tracks
  // line up with the kernel slices above.  Scalars are grouped by their
  // dotted prefix ("allocator.bytes_live" -> track "telemetry: allocator",
  // series "bytes_live"); per-worker series are skipped (host-time noise,
  // not modeled state).
  if (const Telemetry* telem = dev.telemetry(); telem != nullptr) {
    for (const TelemetrySnapshot& snap : telem->timeline()) {
      const f64 ts = snap.modeled_ms * 1e3;
      std::string group;
      bool open = false;
      for (const ScalarSample& s : snap.scalars) {
        const auto dot = s.name.find('.');
        if (dot == std::string::npos) continue;
        const std::string g = s.name.substr(0, dot);
        const std::string series = s.name.substr(dot + 1);
        if (g == "pool" && series.size() > 1 && series[0] == 'w' &&
            series[1] >= '0' && series[1] <= '9') {
          continue;
        }
        if (g != group) {
          if (open) w.end_object().end_object();
          counter_event(w, ("telemetry: " + g).c_str(), ts);
          w.key("args").begin_object();
          group = g;
          open = true;
        }
        w.field(series, s.value);
      }
      if (open) w.end_object().end_object();
    }
  }

  // Request / attempt / stage / launch spans (sim/span.hpp) as nested
  // slices on their own track, plotted on the same modeled timeline.
  // Flow arrows connect each attempt span to its first kernel launch, so
  // Perfetto draws the request -> kernel causality across tracks.
  if (const SpanRecorder* rec = dev.spans();
      rec != nullptr && !rec->spans().empty()) {
    metadata_event(w, "thread_name", kTidSpans, "requests (spans)");
    const auto& spans = rec->spans();
    for (const SpanRecord& s : spans) {
      if (!s.closed) continue;
      const f64 ts = s.begin_ms * 1e3;
      const std::string name =
          std::string(to_string(s.kind)) + ":" + s.name;
      // cat "span" (not the kind): the stage bands on tid 0 already use
      // cat "stage", and the Perfetto lint keys span-track checks on the
      // dedicated category.
      slice_begin(w, name, "span", kTidSpans, ts,
                  (s.end_ms - s.begin_ms) * 1e3);
      w.key("args").begin_object();
      w.field("trace", s.trace_id)
          .field("span", s.span_id)
          .field("parent", s.parent_id)
          .field("launches", s.counters.launches)
          .field("l2_read_segments", s.counters.l2_read_segments)
          .field("dram_read_tx", s.counters.dram_read_tx)
          .field("alloc_count", s.counters.alloc_count)
          .field("alloc_reuse_hits", s.counters.alloc_reuse_hits);
      if (s.backoff_ms > 0.0) w.field("backoff_ms", s.backoff_ms);
      if (s.overhead_ms > 0.0) w.field("overhead_ms", s.overhead_ms);
      if (!s.events.empty()) {
        w.field("events", static_cast<u64>(s.events.size()));
      }
      w.end_object();  // args
      w.end_object();  // span slice
      // Flow start on the attempt, finish on its first descendant launch
      // (launches usually nest under a stage span, not the attempt
      // directly -- walk the parent chain).
      if (s.kind == SpanKind::kAttempt) {
        const auto descends_from = [&spans](const SpanRecord& c, u64 id) {
          for (u64 p = c.parent_id; p != 0; p = spans[p - 1].parent_id) {
            if (p == id) return true;
          }
          return false;
        };
        for (const SpanRecord& c : spans) {
          if (c.kind != SpanKind::kLaunch || !c.closed ||
              !descends_from(c, s.span_id)) {
            continue;
          }
          w.begin_object()
              .field("ph", "s")
              .field("pid", u64{0})
              .field("tid", static_cast<u64>(kTidSpans))
              .field("name", "request flow")
              .field("cat", "span")
              .field("id", s.span_id)
              .field("ts", ts)
              .end_object();
          w.begin_object()
              .field("ph", "f")
              .field("bp", "e")
              .field("pid", u64{0})
              .field("tid", static_cast<u64>(kTidSpans))
              .field("name", "request flow")
              .field("cat", "span")
              .field("id", s.span_id)
              .field("ts", c.begin_ms * 1e3)
              .end_object();
          break;
        }
      }
      // Batched serving inverts the nesting: per-problem request spans sit
      // UNDER their fused launch span.  Draw the flow the other way --
      // start on the launch, finish on each packed per-problem request --
      // so Perfetto still shows the launch -> request fan-out.
      if (s.kind == SpanKind::kRequest && s.parent_id != 0 &&
          spans[s.parent_id - 1].kind == SpanKind::kLaunch) {
        const SpanRecord& launch = spans[s.parent_id - 1];
        w.begin_object()
            .field("ph", "s")
            .field("pid", u64{0})
            .field("tid", static_cast<u64>(kTidSpans))
            .field("name", "batch flow")
            .field("cat", "span")
            .field("id", s.span_id)
            .field("ts", launch.begin_ms * 1e3)
            .end_object();
        w.begin_object()
            .field("ph", "f")
            .field("bp", "e")
            .field("pid", u64{0})
            .field("tid", static_cast<u64>(kTidSpans))
            .field("name", "batch flow")
            .field("cat", "span")
            .field("id", s.span_id)
            .field("ts", ts)
            .end_object();
      }
    }
  }

  w.end_array();  // traceEvents
  w.end_object();
}

bool write_chrome_trace_file(const Device& dev, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(dev, os);
  os << '\n';
  return os.good();
}

}  // namespace ms::sim
