#include "sim/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "sim/device.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"

namespace ms::sim {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

void LatencyHistogram::record_ticks(u64 ticks, u64 exemplar_trace) {
  const u32 idx = bucket_index(ticks);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_trace != 0) {
    exemplars_[idx].store(exemplar_trace, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ticks, std::memory_order_relaxed);
  u64 lo = min_.load(std::memory_order_relaxed);
  while (ticks < lo &&
         !min_.compare_exchange_weak(lo, ticks, std::memory_order_relaxed)) {
  }
  u64 hi = max_.load(std::memory_order_relaxed);
  while (ticks > hi &&
         !max_.compare_exchange_weak(hi, ticks, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(kBucketCount);
  s.exemplars.resize(kBucketCount);
  for (u32 i = 0; i < kBucketCount; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.exemplars[i] = exemplars_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  // Derive count from the buckets so the snapshot is internally consistent
  // even if a concurrent record lands between loads; sum/min/max are
  // best-effort under concurrency (exact when recording has quiesced).
  s.sum_ticks = sum_.load(std::memory_order_relaxed);
  const u64 mn = min_.load(std::memory_order_relaxed);
  s.min_ticks = s.count > 0 && mn != ~u64{0} ? mn : 0;
  s.max_ticks = max_.load(std::memory_order_relaxed);
  return s;
}

u64 LatencyHistogram::Snapshot::percentile_ticks(f64 p) const {
  if (count == 0) return 0;
  const u32 b = percentile_bucket(p);
  if (b >= buckets.size()) return max_ticks;
  // Upper bound of the rank's bucket, clamped to the exact maximum so
  // high percentiles never exceed an observed value.
  return std::min(bucket_upper(b), max_ticks);
}

u32 LatencyHistogram::Snapshot::percentile_bucket(f64 p) const {
  if (count == 0) return kBucketCount;
  const f64 clamped = std::min(100.0, std::max(0.0, p));
  u64 rank = static_cast<u64>(std::ceil(clamped / 100.0 *
                                        static_cast<f64>(count)));
  rank = std::max<u64>(1, std::min(rank, count));
  u64 cum = 0;
  for (u32 i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return i;
  }
  return kBucketCount;
}

// ---------------------------------------------------------------------------
// Telemetry registry & sampler
// ---------------------------------------------------------------------------

namespace {

template <typename Vec>
auto* find_named(Vec& v, std::string_view name) {
  for (auto& [n, inst] : v) {
    if (n == name) return inst.get();
  }
  return decltype(v.front().second.get()){nullptr};
}

/// Reorder `scalars` so every dotted-prefix group ("serving" for
/// "serving.requests") is one contiguous run, groups in first-appearance
/// order.  Registry instruments and provider scalars may share a prefix;
/// exporters (the trace's one counter track per group) rely on the runs.
void group_by_prefix(std::vector<ScalarSample>& scalars) {
  std::vector<std::string_view> groups;
  std::vector<std::size_t> group_of;
  group_of.reserve(scalars.size());
  for (const ScalarSample& s : scalars) {
    const std::string_view g = std::string_view(s.name).substr(
        0, s.name.find('.'));
    const auto it = std::find(groups.begin(), groups.end(), g);
    group_of.push_back(static_cast<std::size_t>(it - groups.begin()));
    if (it == groups.end()) groups.push_back(g);
  }
  std::vector<ScalarSample> out;
  out.reserve(scalars.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      if (group_of[i] == g) out.push_back(std::move(scalars[i]));
    }
  }
  scalars = std::move(out);
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig cfg)
    : cfg_(cfg), start_(std::chrono::steady_clock::now()) {
  check(cfg_.ring_capacity >= 1, "telemetry: ring capacity must be >= 1");
}

f64 Telemetry::elapsed_ms() const {
  return std::chrono::duration<f64, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

Counter& Telemetry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* c = find_named(counters_, name)) return *c;
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& Telemetry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* g = find_named(gauges_, name)) return *g;
  gauges_.emplace_back(std::string(name), std::make_unique<Gauge>());
  return *gauges_.back().second;
}

LatencyHistogram& Telemetry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* h = find_named(hists_, name)) return *h;
  hists_.emplace_back(std::string(name),
                      std::make_unique<LatencyHistogram>());
  return *hists_.back().second;
}

void Telemetry::add_provider(Provider p) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_.push_back(std::move(p));
}

void Telemetry::tick() {
  const f64 now_ms = elapsed_ms();
  if (last_sample_ms_ >= 0.0 &&
      now_ms - last_sample_ms_ < cfg_.sample_interval_ms) {
    return;
  }
  sample_now();
}

void Telemetry::sample_now() {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetrySnapshot snap;
  snap.seq = next_seq_++;
  snap.host_ms = elapsed_ms();
  const f64 dt_ms =
      last_sample_ms_ >= 0.0 ? snap.host_ms - last_sample_ms_ : snap.host_ms;
  last_sample_ms_ = snap.host_ms;

  for (const auto& [name, c] : counters_) {
    snap.scalars.push_back({name, static_cast<f64>(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    snap.scalars.push_back({name, g->value()});
  }
  for (const auto& p : providers_) p(snap.scalars, dt_ms);
  group_by_prefix(snap.scalars);
  // The Device provider reports the modeled clock as a scalar; lift it
  // into the snapshot's timestamp so exporters can plot on the modeled
  // timeline without knowing provider internals.
  for (const auto& s : snap.scalars) {
    if (s.name == "device.modeled_ms") snap.modeled_ms = s.value;
  }

  for (const auto& [name, h] : hists_) {
    const LatencyHistogram::Snapshot hs = h->snapshot();
    HistogramSample out;
    out.name = name;
    out.count = hs.count;
    out.sum_ms = static_cast<f64>(hs.sum_ticks) / 1e6;
    out.min_ms = static_cast<f64>(hs.min_ticks) / 1e6;
    out.max_ms = static_cast<f64>(hs.max_ticks) / 1e6;
    out.p50_ms = hs.percentile_ms(50.0);
    out.p95_ms = hs.percentile_ms(95.0);
    out.p99_ms = hs.percentile_ms(99.0);
    out.p999_ms = hs.percentile_ms(99.9);
    out.p50_trace = hs.percentile_exemplar(50.0);
    out.p95_trace = hs.percentile_exemplar(95.0);
    out.p99_trace = hs.percentile_exemplar(99.0);
    out.p999_trace = hs.percentile_exemplar(99.9);
    if (hs.count > 0) {
      const u32 mb = LatencyHistogram::bucket_index(hs.max_ticks);
      out.max_trace = mb < hs.exemplars.size() ? hs.exemplars[mb] : 0;
    }
    snap.histograms.push_back(std::move(out));
  }

  ring_.push_back(std::move(snap));
  while (ring_.size() > cfg_.ring_capacity) {
    ring_.pop_front();
    ++dropped_;
  }
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

Request::Request(Device& dev, std::string name)
    : dev_(&dev),
      span_(dev, SpanKind::kRequest, std::move(name)),
      t_(dev.telemetry()) {
  if (const SpanRecorder* rec = dev.spans()) trace_ = rec->current_trace();
  if (t_ == nullptr) return;
  host_ms_ = &t_->histogram("request.host_ms");
  modeled_ms_ = &t_->histogram("request.modeled_ms");
  requests_ = &t_->counter("requests");
  modeled_t0_ = dev.lifetime_ms();
  host_t0_ = std::chrono::steady_clock::now();
}

Request::~Request() {
  // Unwinding past a faulted request: record the modeled time it spent.
  // No tick -- sampling allocates, and a destructor must not throw; the
  // next kernel end, request or exporter sample picks the record up.
  if (!finished_) record(dev_->lifetime_ms() - modeled_t0_);
}

void Request::finish(f64 modeled_ms) {
  if (finished_) return;
  record(modeled_ms);
  if (t_ != nullptr) t_->tick();
}

void Request::record(f64 modeled_ms) {
  finished_ = true;
  if (t_ == nullptr) return;
  const f64 host_ms = std::chrono::duration<f64, std::milli>(
                          std::chrono::steady_clock::now() - host_t0_)
                          .count();
  host_ms_->record_ms(host_ms, trace_);
  modeled_ms_->record_ms(modeled_ms, trace_);
  requests_->add(1);
}

// ---------------------------------------------------------------------------
// JSONL timeline export
// ---------------------------------------------------------------------------

void write_timeline_jsonl(std::ostream& os, const Telemetry& t,
                          std::string_view source, std::string_view device) {
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("telemetry", "timeline");
    w.field("schema_version", kReportSchemaVersion);
    w.field("source", source);
    w.field("device", device);
    w.field("sample_interval_ms", t.config().sample_interval_ms);
    w.field("snapshots", static_cast<u64>(t.timeline().size()));
    w.field("dropped", t.dropped());
    w.end_object();
  }
  os << '\n';
  for (const TelemetrySnapshot& s : t.timeline()) {
    JsonWriter w(os);
    w.begin_object();
    w.field("seq", s.seq);
    w.field("host_ms", s.host_ms);
    w.field("modeled_ms", s.modeled_ms);
    w.key("scalars").begin_object();
    for (const ScalarSample& sc : s.scalars) w.field(sc.name, sc.value);
    w.end_object();
    w.key("histograms").begin_object();
    for (const HistogramSample& h : s.histograms) {
      w.key(h.name).begin_object();
      w.field("count", h.count);
      w.field("sum_ms", h.sum_ms);
      w.field("min_ms", h.min_ms);
      w.field("max_ms", h.max_ms);
      w.field("p50_ms", h.p50_ms);
      w.field("p95_ms", h.p95_ms);
      w.field("p99_ms", h.p99_ms);
      w.field("p999_ms", h.p999_ms);
      // Exemplar trace ids, only when a traced request landed in the
      // percentile's bucket (keeps untraced timelines byte-stable).
      if (h.p50_trace != 0) w.field("p50_trace", h.p50_trace);
      if (h.p95_trace != 0) w.field("p95_trace", h.p95_trace);
      if (h.p99_trace != 0) w.field("p99_trace", h.p99_trace);
      if (h.p999_trace != 0) w.field("p999_trace", h.p999_trace);
      if (h.max_trace != 0) w.field("max_trace", h.max_trace);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    os << '\n';
  }
}

bool write_timeline_jsonl_file(const std::string& path, const Telemetry& t,
                               std::string_view source,
                               std::string_view device) {
  std::ofstream os(path);
  if (!os) return false;
  write_timeline_jsonl(os, t, source, device);
  return os.good();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

std::string prom_name(std::string_view name) {
  std::string out = "ms_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void write_prometheus(std::ostream& os, const TelemetrySnapshot& snap) {
  os << "# telemetry snapshot seq=" << snap.seq << " host_ms=" << snap.host_ms
     << " modeled_ms=" << snap.modeled_ms << "\n";
  if (!snap.histograms.empty()) {
    os << "# latency percentiles (ms):\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf), "# %-24s %8s %10s %10s %10s %10s %10s\n",
                  "histogram", "count", "p50", "p95", "p99", "p99.9", "max");
    os << buf;
    for (const HistogramSample& h : snap.histograms) {
      std::snprintf(buf, sizeof(buf),
                    "# %-24s %8llu %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                    h.name.c_str(), static_cast<unsigned long long>(h.count),
                    h.p50_ms, h.p95_ms, h.p99_ms, h.p999_ms, h.max_ms);
      os << buf;
    }
  }
  for (const ScalarSample& s : snap.scalars) {
    const std::string n = prom_name(s.name);
    os << "# TYPE " << n << " gauge\n" << n << ' ' << s.value << '\n';
  }
  for (const HistogramSample& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    // OpenMetrics-style exemplar suffix linking the quantile's bucket to
    // a concrete traced request (omitted when no trace landed there).
    const auto ex = [](u64 trace) {
      return trace != 0
                 ? " # {trace_id=\"" + std::to_string(trace) + "\"}"
                 : std::string();
    };
    os << "# TYPE " << n << " summary\n";
    os << n << "{quantile=\"0.5\"} " << h.p50_ms << ex(h.p50_trace) << '\n';
    os << n << "{quantile=\"0.95\"} " << h.p95_ms << ex(h.p95_trace) << '\n';
    os << n << "{quantile=\"0.99\"} " << h.p99_ms << ex(h.p99_trace) << '\n';
    os << n << "{quantile=\"0.999\"} " << h.p999_ms << ex(h.p999_trace)
       << '\n';
    os << n << "_sum " << h.sum_ms << '\n';
    os << n << "_count " << h.count << '\n';
  }
}

}  // namespace ms::sim
