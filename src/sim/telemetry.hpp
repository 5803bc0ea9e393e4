// Serving telemetry: a low-overhead time-series metrics registry.
//
// The snapshot-style reports (metrics.hpp) answer "what did this run cost
// in total"; they cannot show how a *serving* run evolves -- the allocator
// reuse ramp, the L2 hit rate climbing as a plan re-executes, latency
// percentiles over millions of small requests.  This header adds the
// over-time layer, in the spirit of MGSim's simulator-wide metric
// collection API (PAPERS.md, arXiv:1811.02884):
//
//   1. Instruments -- monotonic Counter, last-value Gauge, and a
//      log-bucketed HDR-style LatencyHistogram with exact-bucket
//      p50/p95/p99/p99.9 extraction.  All updates are relaxed atomics, so
//      worker threads may record without taking locks.
//   2. Telemetry (the registry) -- owns named instruments plus provider
//      callbacks (the Device registers one that polls the allocator, the
//      L2 counters and the threadpool), and a sampler: tick() snapshots
//      every instrument into an in-memory time-series ring once the
//      configured host-time interval has elapsed (interval 0 = every
//      tick).  The ring is bounded; the oldest snapshots are dropped.
//   3. Exports -- a schema-versioned JSONL timeline (one snapshot per
//      line; bench --telemetry), Prometheus text exposition of one
//      snapshot (`ms_cli top`), and counter tracks merged into the Chrome
//      trace (trace.cpp reads the ring and plots it on the modeled
//      timeline).
//
// Determinism contract (DESIGN.md §11): telemetry only ever *reads*
// modeled state.  Enabling it changes no counter, no L2 access, no
// allocator decision and therefore no modeled cost -- the tolerance-0
// baseline gates hold with telemetry on and off, at any thread count.
// Snapshot *timing* is host wall-clock and is not deterministic; snapshot
// *modeled* fields are.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/span.hpp"
#include "sim/types.hpp"

namespace ms::sim {

class Device;

struct TelemetryConfig {
  /// Minimum host milliseconds between ring snapshots taken by tick();
  /// 0 samples on every tick (one snapshot per kernel / request).
  f64 sample_interval_ms = 0.0;
  /// Snapshots kept in the in-memory ring; the oldest are dropped beyond
  /// this (dropped() reports how many).
  u64 ring_capacity = 4096;
};

/// Monotonic event counter.
class Counter {
 public:
  void add(u64 d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  u64 value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

/// Last-value-wins instantaneous gauge.
class Gauge {
 public:
  void set(f64 v) { v_.store(v, std::memory_order_relaxed); }
  f64 value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<f64> v_{0.0};
};

/// Log-bucketed latency histogram (the HdrHistogram idea, sized for
/// telemetry): values are nanosecond ticks; each power-of-two octave is
/// split into 2^kSubBits linear sub-buckets, bounding the relative
/// quantization error at 1/2^kSubBits (3.125%) while covering the full
/// u64 range in ~2K fixed buckets.  Recording is a single relaxed atomic
/// increment; percentiles are extracted from an immutable Snapshot by a
/// cumulative walk, returning the upper bound of the bucket holding the
/// requested rank (clamped to the exact recorded maximum).
class LatencyHistogram {
 public:
  static constexpr u32 kSubBits = 5;
  static constexpr u32 kSubBuckets = 1u << kSubBits;
  /// Linear region [0, 2^kSubBits) one bucket per value, then one group
  /// of kSubBuckets per octave for exponents kSubBits..63.
  static constexpr u32 kBucketCount = kSubBuckets * (64 - kSubBits + 1);

  /// Bucket holding `ticks` (exact in the linear region, log-linear above).
  static u32 bucket_index(u64 ticks) {
    if (ticks < kSubBuckets) return static_cast<u32>(ticks);
    const u32 h = 63 - static_cast<u32>(std::countl_zero(ticks));
    const u32 sub = static_cast<u32>((ticks >> (h - kSubBits)) - kSubBuckets);
    return kSubBuckets * (h - kSubBits + 1) + sub;
  }
  /// Inclusive value range [bucket_lower, bucket_upper] of a bucket.
  static u64 bucket_lower(u32 idx) {
    if (idx < kSubBuckets) return idx;
    const u32 h = kSubBits + idx / kSubBuckets - 1;
    const u64 sub = idx % kSubBuckets;
    return (u64{1} << h) + (sub << (h - kSubBits));
  }
  static u64 bucket_upper(u32 idx) {
    if (idx < kSubBuckets) return idx;
    const u32 h = kSubBits + idx / kSubBuckets - 1;
    return bucket_lower(idx) + (u64{1} << (h - kSubBits)) - 1;
  }

  /// Record one observation.  A nonzero `exemplar_trace` (a span trace
  /// id; they are 1-based, so 0 means "none") is stored as the bucket's
  /// exemplar, last-write-wins -- linking the percentile a bucket feeds
  /// back to one concrete traced request.
  void record_ticks(u64 ticks, u64 exemplar_trace = 0);
  /// Convenience: milliseconds -> nanosecond ticks (rounded).
  void record_ms(f64 ms, u64 exemplar_trace = 0) {
    record_ticks(ms <= 0.0 ? 0 : static_cast<u64>(ms * 1e6 + 0.5),
                 exemplar_trace);
  }

  u64 count() const { return count_.load(std::memory_order_relaxed); }

  /// Immutable copy of the histogram state; all percentile math runs on
  /// snapshots so concurrent recording cannot skew a walk mid-read.
  struct Snapshot {
    u64 count = 0;
    u64 sum_ticks = 0;
    u64 min_ticks = 0;  // 0 when empty
    u64 max_ticks = 0;
    std::vector<u64> buckets;    // kBucketCount entries
    std::vector<u64> exemplars;  // kBucketCount entries; 0 = none

    /// Value at percentile p (0..100]: the upper bound of the bucket
    /// containing rank ceil(p/100 * count), clamped to the recorded
    /// maximum.  0 when empty.
    u64 percentile_ticks(f64 p) const;
    f64 percentile_ms(f64 p) const {
      return static_cast<f64>(percentile_ticks(p)) / 1e6;
    }
    /// Index of the bucket holding percentile p's rank (kBucketCount when
    /// the histogram is empty).
    u32 percentile_bucket(f64 p) const;
    /// Exemplar trace id of the percentile's bucket (0 when none was
    /// recorded there, or when the histogram is empty).
    u64 percentile_exemplar(f64 p) const {
      const u32 b = percentile_bucket(p);
      return b < exemplars.size() ? exemplars[b] : 0;
    }
  };
  Snapshot snapshot() const;

 private:
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~u64{0}};
  std::atomic<u64> max_{0};
  std::array<std::atomic<u64>, kBucketCount> buckets_{};
  /// Per-bucket exemplar trace id (0 = none), relaxed last-write-wins:
  /// deterministic on the serial request path, best-effort under
  /// concurrent recording -- exemplars are a debugging link, not a
  /// compared metric.
  std::array<std::atomic<u64>, kBucketCount> exemplars_{};
};

/// One sampled scalar (counter, gauge, or provider-computed value).
struct ScalarSample {
  std::string name;
  f64 value = 0.0;
};

/// One sampled histogram: the percentile digest, not the buckets (the
/// ring stays small; full buckets remain available on the live
/// instrument).  Times in milliseconds.
struct HistogramSample {
  std::string name;
  u64 count = 0;
  f64 sum_ms = 0.0;
  f64 min_ms = 0.0;
  f64 max_ms = 0.0;
  f64 p50_ms = 0.0;
  f64 p95_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 p999_ms = 0.0;
  /// Exemplar trace ids of the buckets the percentiles (and max) fall
  /// in; 0 = no traced request landed there (e.g. span tracing off).
  u64 p50_trace = 0;
  u64 p95_trace = 0;
  u64 p99_trace = 0;
  u64 p999_trace = 0;
  u64 max_trace = 0;
};

/// One entry of the time-series ring.
struct TelemetrySnapshot {
  u64 seq = 0;        // monotonically increasing, survives ring eviction
  f64 host_ms = 0.0;  // host wall-clock since the registry was created
  /// Device-lifetime modeled milliseconds at sample time (set by the
  /// Device's provider; stays 0 for standalone registries).  This is the
  /// timestamp the Chrome-trace export plots counter tracks at.
  f64 modeled_ms = 0.0;
  std::vector<ScalarSample> scalars;
  std::vector<HistogramSample> histograms;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig cfg = {});

  /// Named instrument registration: the first call creates, later calls
  /// return the same instrument.  References stay valid for the registry's
  /// lifetime.  Safe from any thread.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Provider callback polled at snapshot time, appending scalars the
  /// registry cannot own itself (allocator stats, L2 interval rates, pool
  /// state).  `dt_ms` is the host interval since the previous snapshot
  /// (the full elapsed time for the first).
  using Provider =
      std::function<void(std::vector<ScalarSample>& out, f64 dt_ms)>;
  void add_provider(Provider p);

  /// Take a snapshot if the configured interval elapsed since the last
  /// one.  Cheap when it hasn't (one steady_clock read).
  void tick();
  /// Take a snapshot unconditionally (the "final state" sample exporters
  /// want before writing a timeline).
  void sample_now();

  const TelemetryConfig& config() const { return cfg_; }
  const std::deque<TelemetrySnapshot>& timeline() const { return ring_; }
  const TelemetrySnapshot* latest() const {
    return ring_.empty() ? nullptr : &ring_.back();
  }
  /// Snapshots evicted from the ring so far (0 = the timeline is complete).
  u64 dropped() const { return dropped_; }
  f64 elapsed_ms() const;

 private:
  TelemetryConfig cfg_;
  std::chrono::steady_clock::time_point start_;
  f64 last_sample_ms_ = -1.0;  // host_ms of the last snapshot, -1 = none
  u64 next_seq_ = 0;
  u64 dropped_ = 0;
  mutable std::mutex mu_;  // guards instrument registration
  // Registration order is export order; unique_ptr keeps references
  // stable across vector growth.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LatencyHistogram>>>
      hists_;
  std::vector<Provider> providers_;
  std::deque<TelemetrySnapshot> ring_;
};

/// RAII request bracket, the request-level sibling of sim::Stage.
/// Construction opens the kRequest span (inactive without a span
/// recorder) and, when the device has telemetry attached, resolves the
/// "request.host_ms" / "request.modeled_ms" histograms, the "requests"
/// counter and the span's trace id as their exemplar.  finish() records
/// one sample of each and ticks the sampler.  A request destroyed without
/// finish() -- one that threw -- records the modeled time it spent
/// (device lifetime delta) without ticking, so faulted requests stay
/// visible in the histograms instead of being dropped.
class Request {
 public:
  Request(Device& dev, std::string name);
  ~Request();

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Record the request's latency (`modeled_ms` is its modeled cost) and
  /// tick the sampler.  Idempotent.
  void finish(f64 modeled_ms);
  /// The request span's id, 0 without a span recorder.
  u64 span_id() const { return span_.id(); }
  /// The request's trace id, 0 without a span recorder.
  u64 trace() const { return trace_; }

 private:
  void record(f64 modeled_ms);  ///< the samples; no allocation, no throw

  Device* dev_;
  SpanScope span_;
  u64 trace_ = 0;
  bool finished_ = false;
  f64 modeled_t0_ = 0.0;
  std::chrono::steady_clock::time_point host_t0_;
  LatencyHistogram* host_ms_ = nullptr;  ///< null when telemetry is off
  LatencyHistogram* modeled_ms_ = nullptr;
  Counter* requests_ = nullptr;
  Telemetry* t_ = nullptr;
};

/// Write the whole timeline as schema-versioned JSONL: a header object
/// line (schema_version, source, device, interval, ring stats), then one
/// object per snapshot in ring order.
void write_timeline_jsonl(std::ostream& os, const Telemetry& t,
                          std::string_view source, std::string_view device);
bool write_timeline_jsonl_file(const std::string& path, const Telemetry& t,
                               std::string_view source,
                               std::string_view device);

/// Prometheus text exposition of one snapshot: scalars as gauges,
/// histograms as summaries (quantile-labeled series plus _sum/_count).
/// Names are sanitized ("allocator.bytes_live" -> ms_allocator_bytes_live)
/// and a human-readable percentile table precedes the series as # comment
/// lines, which the exposition format permits.
void write_prometheus(std::ostream& os, const TelemetrySnapshot& snap);

}  // namespace ms::sim
