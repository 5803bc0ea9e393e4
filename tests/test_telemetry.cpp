// Telemetry layer: histogram percentile math against closed forms, the
// registry/sampler mechanics, and the observe-only contract -- enabling
// telemetry must keep every modeled quantity bit-identical, serially and
// under the 4-thread scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "multisplit/multisplit.hpp"
#include "multisplit/serving.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "workload/distributions.hpp"

namespace ms::test {
namespace {

using sim::LatencyHistogram;

// --- bucket geometry -------------------------------------------------------

TEST(LatencyHistogramBuckets, LinearRegionIsExact) {
  for (u64 v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const u32 idx = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(idx, static_cast<u32>(v));
    EXPECT_EQ(LatencyHistogram::bucket_lower(idx), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(idx), v);
  }
}

TEST(LatencyHistogramBuckets, EveryValueLandsInsideItsBucket) {
  for (const u64 v : {u64{32}, u64{33}, u64{100}, u64{500}, u64{1000},
                      u64{999999}, u64{1} << 20, (u64{1} << 40) + 12345,
                      ~u64{0}}) {
    const u32 idx = LatencyHistogram::bucket_index(v);
    ASSERT_LT(idx, LatencyHistogram::kBucketCount) << v;
    EXPECT_LE(LatencyHistogram::bucket_lower(idx), v) << v;
    EXPECT_GE(LatencyHistogram::bucket_upper(idx), v) << v;
    // Log-linear bound: bucket width / lower bound <= 1 / 2^kSubBits.
    const f64 lo = static_cast<f64>(LatencyHistogram::bucket_lower(idx));
    const f64 hi = static_cast<f64>(LatencyHistogram::bucket_upper(idx));
    EXPECT_LE((hi - lo) / lo, 1.0 / LatencyHistogram::kSubBuckets + 1e-12)
        << v;
  }
}

TEST(LatencyHistogramBuckets, BucketsTileContiguously) {
  for (u32 idx = 0; idx + 1 < 512; ++idx) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(idx) + 1,
              LatencyHistogram::bucket_lower(idx + 1))
        << idx;
  }
}

// --- closed-form percentiles ----------------------------------------------

TEST(LatencyHistogramPercentiles, UniformClosedForm) {
  LatencyHistogram h;
  for (u64 v = 1; v <= 1000; ++v) h.record_ticks(v);
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min_ticks, 1u);
  EXPECT_EQ(s.max_ticks, 1000u);
  // percentile = upper bound of the bucket holding rank ceil(p/100 * n),
  // clamped to the recorded maximum.
  const auto upper_of = [](u64 v) {
    return LatencyHistogram::bucket_upper(LatencyHistogram::bucket_index(v));
  };
  EXPECT_EQ(s.percentile_ticks(50.0), upper_of(500));    // rank 500
  EXPECT_EQ(s.percentile_ticks(95.0), upper_of(950));    // rank 950
  EXPECT_EQ(s.percentile_ticks(99.0), upper_of(990));    // rank 990
  EXPECT_EQ(s.percentile_ticks(99.9), 1000u);  // rank 999, clamped to max
  EXPECT_EQ(s.percentile_ticks(100.0), 1000u);
  // The log-linear quantization bound holds at every percentile.
  for (const f64 p : {50.0, 95.0, 99.0, 99.9}) {
    const u64 rank_value = static_cast<u64>(p * 10.0);
    const f64 got = static_cast<f64>(s.percentile_ticks(p));
    EXPECT_GE(got, static_cast<f64>(rank_value)) << p;
    EXPECT_LE(got, static_cast<f64>(rank_value) *
                       (1.0 + 1.0 / LatencyHistogram::kSubBuckets))
        << p;
  }
}

TEST(LatencyHistogramPercentiles, BimodalClosedForm) {
  LatencyHistogram h;
  for (u32 i = 0; i < 500; ++i) h.record_ticks(10);        // fast mode
  for (u32 i = 0; i < 500; ++i) h.record_ticks(1000000);   // slow mode
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, 1000u);
  // Rank 500 is the last fast sample: value 10 sits in the linear region,
  // so its bucket is exact.
  EXPECT_EQ(s.percentile_ticks(50.0), 10u);
  // Every higher percentile is the slow mode, clamped to the exact max.
  EXPECT_EQ(s.percentile_ticks(95.0), 1000000u);
  EXPECT_EQ(s.percentile_ticks(99.0), 1000000u);
  EXPECT_EQ(s.percentile_ticks(99.9), 1000000u);
}

TEST(LatencyHistogramPercentiles, SingleSampleIsExactEverywhere) {
  LatencyHistogram h;
  h.record_ticks(777);
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, 1u);
  for (const f64 p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(s.percentile_ticks(p), 777u) << p;
  }
  EXPECT_EQ(s.min_ticks, 777u);
  EXPECT_EQ(s.max_ticks, 777u);
}

TEST(LatencyHistogramPercentiles, EmptyIsZero) {
  LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min_ticks, 0u);
  EXPECT_EQ(s.max_ticks, 0u);
  for (const f64 p : {50.0, 99.0, 99.9}) {
    EXPECT_EQ(s.percentile_ticks(p), 0u) << p;
  }
}

TEST(LatencyHistogramPercentiles, MsRoundTrip) {
  LatencyHistogram h;
  h.record_ms(1.5);  // 1.5 ms == 1'500'000 ns ticks
  const auto s = h.snapshot();
  EXPECT_EQ(s.max_ticks, 1500000u);
  const f64 p50 = s.percentile_ms(50.0);
  EXPECT_GE(p50, 1.5);
  EXPECT_LE(p50, 1.5 * (1.0 + 1.0 / LatencyHistogram::kSubBuckets));
}

// --- registry & sampler ----------------------------------------------------

TEST(TelemetryRegistry, NamedInstrumentsDeduplicate) {
  sim::Telemetry t;
  t.counter("a").add(3);
  t.counter("a").add(4);
  EXPECT_EQ(t.counter("a").value(), 7u);
  t.gauge("g").set(2.5);
  EXPECT_EQ(t.gauge("g").value(), 2.5);
  t.histogram("h").record_ticks(5);
  EXPECT_EQ(t.histogram("h").count(), 1u);
}

TEST(TelemetryRegistry, SampleCapturesInstrumentsAndProviders) {
  sim::Telemetry t;
  t.counter("events").add(11);
  t.gauge("depth").set(3.0);
  t.add_provider([](std::vector<sim::ScalarSample>& out, f64) {
    out.push_back({"derived.x", 42.0});
  });
  t.sample_now();
  ASSERT_NE(t.latest(), nullptr);
  const auto& snap = *t.latest();
  const auto find = [&](std::string_view name) -> f64 {
    for (const auto& s : snap.scalars) {
      if (s.name == name) return s.value;
    }
    return -1.0;
  };
  EXPECT_EQ(find("events"), 11.0);
  EXPECT_EQ(find("depth"), 3.0);
  EXPECT_EQ(find("derived.x"), 42.0);
}

TEST(TelemetryRegistry, RingEvictsOldestAndCountsDrops) {
  sim::TelemetryConfig cfg;
  cfg.ring_capacity = 4;
  sim::Telemetry t(cfg);
  for (u32 i = 0; i < 10; ++i) t.sample_now();
  EXPECT_EQ(t.timeline().size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.timeline().front().seq, 6u);  // seq survives eviction
  EXPECT_EQ(t.timeline().back().seq, 9u);
}

// --- the observe-only contract --------------------------------------------

/// Everything modeled, as one diffable string (the idiom of
/// test_parallel_determinism.cpp, trimmed to what telemetry could plausibly
/// perturb: kernel log with exact times and counters, plus the metrics
/// report JSON).
std::string modeled_snapshot(sim::Device& dev) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& r : dev.records()) {
    os << r.name << " t=" << r.time_ms << " mem=" << r.mem_time_ms
       << " issue=" << r.issue_time_ms << " rd=" << r.events.dram_read_tx
       << " wr=" << r.events.dram_write_tx
       << " l2r=" << r.events.l2_read_segments
       << " slots=" << r.events.issue_slots << "\n";
  }
  std::ostringstream json;
  sim::JsonWriter w(json);
  w.begin_object();
  sim::write_metrics_json(w, sim::analyze_device(dev));
  w.end_object();
  os << json.str();
  return os.str();
}

struct TelemetryRun {
  std::string snapshot;
  std::vector<u32> out;
  f64 total_ms = 0.0;
  u64 requests = 0;
};

TelemetryRun run_with(u32 host_threads, bool telemetry) {
  constexpr u64 n = u64{1} << 15;
  constexpr u32 m = 16;
  constexpr u32 kRuns = 3;
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = 0x7E1E;
  const auto host = workload::generate_keys(n, wc);

  sim::Device dev;
  dev.set_host_threads(host_threads);
  if (telemetry) dev.enable_telemetry();
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = split::Method::kBlockLevel;
  const split::MultisplitPlan plan(dev, n, m, cfg);

  TelemetryRun res;
  for (u32 i = 0; i < kRuns; ++i) {
    const auto r = plan.run(in, out, split::RangeBucket{m});
    res.total_ms += r.total_ms();
  }
  res.snapshot = modeled_snapshot(dev);
  res.out.assign(out.host().begin(), out.host().end());
  if (telemetry) {
    dev.telemetry()->sample_now();
    for (const auto& h : dev.telemetry()->latest()->histograms) {
      if (h.name == "request.modeled_ms") res.requests = h.count;
    }
  }
  return res;
}

TEST(TelemetryDeterminism, OnVsOffBitIdenticalSerialAndMt4) {
  const TelemetryRun off1 = run_with(1, /*telemetry=*/false);
  const TelemetryRun on1 = run_with(1, /*telemetry=*/true);
  const TelemetryRun off4 = run_with(4, /*telemetry=*/false);
  const TelemetryRun on4 = run_with(4, /*telemetry=*/true);

  // Telemetry on/off: bit-identical modeled state, serially...
  EXPECT_EQ(off1.snapshot, on1.snapshot);
  EXPECT_EQ(off1.total_ms, on1.total_ms);
  EXPECT_EQ(off1.out, on1.out);
  // ...and under the 4-thread scheduler...
  EXPECT_EQ(off4.snapshot, on4.snapshot);
  EXPECT_EQ(off4.total_ms, on4.total_ms);
  EXPECT_EQ(off4.out, on4.out);
  // ...and the scheduler itself stays invisible with telemetry armed.
  EXPECT_EQ(on1.snapshot, on4.snapshot);
  EXPECT_EQ(on1.total_ms, on4.total_ms);

  // The instrumentation itself saw every request in both modes.
  EXPECT_EQ(on1.requests, 3u);
  EXPECT_EQ(on4.requests, 3u);
}

/// The request bracket feeds the modeled-latency histogram with modeled
/// (deterministic) values: the recorded percentile digests must agree
/// between a serial and a 4-thread run.
TEST(TelemetryDeterminism, ModeledLatencyDigestMatchesAcrossThreadCounts) {
  const auto digest = [](u32 threads) {
    constexpr u64 n = u64{1} << 14;
    constexpr u32 m = 8;
    workload::WorkloadConfig wc;
    wc.m = m;
    wc.seed = 99;
    const auto host = workload::generate_keys(n, wc);
    sim::Device dev;
    dev.set_host_threads(threads);
    sim::Telemetry& t = dev.enable_telemetry();
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    split::MultisplitConfig cfg;
    cfg.method = split::Method::kWarpLevel;
    const split::MultisplitPlan plan(dev, n, m, cfg);
    for (u32 i = 0; i < 5; ++i) plan.run(in, out, split::RangeBucket{m});
    const auto s = t.histogram("request.modeled_ms").snapshot();
    std::ostringstream os;
    os << s.count << ' ' << s.min_ticks << ' ' << s.max_ticks << ' '
       << s.percentile_ticks(50.0) << ' ' << s.percentile_ticks(99.0);
    return os.str();
  };
  EXPECT_EQ(digest(1), digest(4));
}

// --- the request bracket and the executors' one accounting sink ----------

std::vector<u32> request_keys(u64 n, u32 m, u64 seed) {
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = seed;
  return workload::generate_keys(n, wc);
}

/// A resilient request that needed a retry is still ONE request to
/// telemetry: one "requests" tick and one sample per latency histogram,
/// the result's modeled cost; the retry's cost lands in request.retry_ms.
TEST(TelemetryRequest, RetriedRequestRecordsOneSample) {
  constexpr u64 n = u64{1} << 12;
  constexpr u32 m = 8;
  const auto host = request_keys(n, m, 11);
  sim::Device dev;
  sim::Telemetry& t = dev.enable_telemetry();
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  dev.enable_chaos(sim::ChaosPolicy{});
  dev.chaos()->arm_alloc_failure();  // first scratch alloc of attempt 1
  const split::MultisplitPlan plan(dev, n, m);
  const auto r =
      plan.run(in, out, split::RangeBucket{m}, split::RetryPolicy{});
  ASSERT_EQ(r.resilience.attempts, 2u);
  EXPECT_EQ(dev.resilience_stats().requests, 1u);
  EXPECT_EQ(t.counter("requests").value(), 1u);
  EXPECT_EQ(t.histogram("request.host_ms").count(), 1u);
  EXPECT_EQ(t.histogram("request.modeled_ms").count(), 1u);
  EXPECT_EQ(t.histogram("request.retry_ms").count(), 1u);
  const auto modeled = t.histogram("request.modeled_ms").snapshot();
  EXPECT_EQ(modeled.sum_ticks,
            static_cast<u64>(r.total_ms() * 1e6 + 0.5));
}

/// A request that throws records one sample of the modeled time it spent.
TEST(TelemetryRequest, LostRequestRecordsTheTimeItSpent) {
  constexpr u64 n = u64{1} << 10;
  constexpr u32 m = 8;
  const auto host = request_keys(n, m, 14);
  sim::Device dev;
  sim::Telemetry& t = dev.enable_telemetry();
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  sim::ChaosPolicy pol;
  pol.p_launch_abort = 1.0;  // every attempt of every method aborts
  dev.enable_chaos(pol);
  const split::MultisplitPlan plan(dev, n, m);
  const f64 t0 = dev.lifetime_ms();
  EXPECT_THROW(
      plan.run(in, out, split::RangeBucket{m}, split::RetryPolicy{}),
      sim::SimError);
  EXPECT_EQ(dev.resilience_stats().lost, 1u);
  EXPECT_EQ(t.counter("requests").value(), 1u);
  const auto modeled = t.histogram("request.modeled_ms").snapshot();
  EXPECT_EQ(modeled.count, 1u);
  EXPECT_EQ(modeled.sum_ticks,
            static_cast<u64>((dev.lifetime_ms() - t0) * 1e6 + 0.5));
}

/// The resilient and serving executors count only into the device's
/// stats structs; the device's telemetry provider publishes those totals,
/// one contiguous run per dotted prefix.
TEST(TelemetryRequest, ExecutorScalarsMirrorDeviceStats) {
  sim::Device dev;
  sim::Telemetry& t = dev.enable_telemetry();
  dev.enable_chaos(sim::ChaosPolicy{});  // armed, all probabilities zero

  // A faulted serving flush: sub-warp, warp and unpacked problems, with
  // the first fused launch aborted so its problems re-pack.
  split::ServingPolicy policy;
  policy.max_batch = 1000;
  policy.max_linger_ms = 1e9;
  split::ServingExecutor exec(dev, policy);
  for (u32 i = 0; i < 6; ++i) {
    exec.submit(request_keys(5, 4, 100 + i), 4, split::RangeBucket{4});
    exec.submit(request_keys(300, 16, 200 + i), 16, split::RangeBucket{16});
  }
  exec.submit(request_keys(8192, 8, 300), 8, split::RangeBucket{8});
  dev.chaos()->arm_launch_abort();
  exec.drain();

  // A resilient run that recovers after one retry.
  constexpr u64 n = u64{1} << 12;
  constexpr u32 m = 8;
  const auto host = request_keys(n, m, 12);
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  dev.chaos()->arm_launch_abort();
  split::MultisplitPlan(dev, n, m)
      .run(in, out, split::RangeBucket{m}, split::RetryPolicy{});

  t.sample_now();
  const auto& scalars = t.latest()->scalars;
  const auto scalar = [&](std::string_view name) -> f64 {
    for (const auto& s : scalars) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "no scalar " << name;
    return -1.0;
  };
  const sim::ResilienceStats& rs = dev.resilience_stats();
  EXPECT_GT(rs.retries, 0u);
  EXPECT_EQ(scalar("resilience.faults"), rs.faults_observed);
  EXPECT_EQ(scalar("resilience.retries"), rs.retries);
  EXPECT_EQ(scalar("resilience.fallbacks"), rs.fallbacks);
  EXPECT_EQ(scalar("resilience.recovered"), rs.recovered);
  EXPECT_EQ(scalar("resilience.lost"), rs.lost);
  EXPECT_EQ(scalar("resilience.validation_failures"),
            rs.validation_failures);
  const sim::BatchStats& bs = dev.batch_stats();
  EXPECT_GT(bs.problems_retried, 0u);
  EXPECT_GT(bs.unpacked_problems, 0u);
  EXPECT_EQ(scalar("serving.flushes"), bs.batches);
  EXPECT_EQ(scalar("serving.packed"), bs.packed_problems);
  EXPECT_EQ(scalar("serving.unpacked"), bs.unpacked_problems);
  EXPECT_EQ(scalar("serving.retries"), bs.problems_retried);

  // Registry ("serving.requests") and provider ("serving.flushes")
  // scalars share the serving prefix; each prefix is one run.
  std::vector<std::string> done;
  std::string group;
  for (const auto& s : scalars) {
    const std::string g = s.name.substr(0, s.name.find('.'));
    if (g == group) continue;
    EXPECT_EQ(std::find(done.begin(), done.end(), g), done.end())
        << "prefix " << g << " split at " << s.name;
    done.push_back(group = g);
  }
}

}  // namespace
}  // namespace ms::test
