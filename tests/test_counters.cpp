// Per-access-site attribution: the delta-snapshot bookkeeping must
// partition every kernel's counters exactly, ScopedSite must nest, and
// Stage must agree with the underlying mark()/summary_since().
#include <gtest/gtest.h>

#include <sstream>

#include "multisplit/multisplit.hpp"
#include "workload/distributions.hpp"

namespace ms::sim {
namespace {

KernelEvents sum_slices(const KernelRecord& r) {
  KernelEvents total;
  for (const auto& [site, ev] : r.sites) total += ev;
  return total;
}

/// Every kernel's site slices must reproduce its event totals exactly --
/// the unattributed remainder lives in site 0, so nothing can leak.
void expect_exact_partition(Device& dev) {
  ASSERT_FALSE(dev.records().empty());
  for (const auto& r : dev.records()) {
    EXPECT_EQ(sum_slices(r), r.events) << "kernel " << r.name;
  }
  // And the device-wide per-site accumulation matches the kernel log.
  KernelEvents from_sites;
  for (const auto& s : dev.site_stats()) from_sites += s.events;
  KernelEvents from_records;
  for (const auto& r : dev.records()) from_records += r.events;
  EXPECT_EQ(from_sites, from_records);
}

TEST(SiteAttribution, HandWrittenKernelPartitionsExactly) {
  Device dev;
  const u64 n = 4096;
  DeviceBuffer<u32> a(dev, n), b(dev, n);
  a.fill(1);
  const SiteId load_site = dev.site_id("test/load");
  const SiteId store_site = dev.site_id("test/store");

  launch_warps(dev, "copyish", n / kWarpSize, [&](Warp& w, u64 wid) {
    const u64 base = wid * kWarpSize;
    const auto x = [&] {
      ScopedSite site(dev, load_site);
      return w.load(a, base, kFullMask);
    }();
    w.charge(3);  // unattributed -> site 0 ("other")
    ScopedSite site(dev, store_site);
    w.store(b, base, x, kFullMask);
  });

  expect_exact_partition(dev);
  const auto& sites = dev.site_stats();
  ASSERT_GT(sites.size(), store_site);
  EXPECT_EQ(sites[load_site].label, "test/load");
  EXPECT_GT(sites[load_site].events.l2_read_segments, 0u);
  EXPECT_GT(sites[store_site].events.l2_write_segments, 0u);
  // The w.charge(3) issue slots landed in "other", not in either site.
  EXPECT_GT(sites[kSiteOther].events.issue_slots, 0u);
}

TEST(SiteAttribution, EndOfKernelWritebackGoesToItsOwnSite) {
  Device dev;
  const u64 n = 4096;
  DeviceBuffer<u32> buf(dev, n);
  device_fill<u32>(dev, buf, 7);
  const SiteId wb = dev.site_id("sim/l2_writeback");
  const auto& sites = dev.site_stats();
  ASSERT_GT(sites.size(), wb);
  // The fill's stores are flushed from L2 at end_kernel and must be
  // attributed to the writeback site, not to "other".
  EXPECT_GT(sites[wb].events.dram_write_tx, 0u);
  expect_exact_partition(dev);
}

TEST(SiteAttribution, WarpMultisplitPartitionsEveryKernel) {
  workload::WorkloadConfig wc;
  wc.m = 8;
  const u64 n = u64{1} << 12;
  const auto host = workload::generate_keys(n, wc);
  Device dev;
  DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = split::Method::kWarpLevel;
  split::multisplit_keys(dev, in, out, 8, split::RangeBucket{8}, cfg);
  expect_exact_partition(dev);

  // The registered sites actually saw traffic.
  const auto& sites = dev.site_stats();
  const auto find = [&](std::string_view label) -> const SiteStats* {
    for (const auto& s : sites)
      if (s.label == label) return &s;
    return nullptr;
  };
  const SiteStats* scatter = find("warp_ms/postscan_scatter");
  ASSERT_NE(scatter, nullptr);
  EXPECT_GT(scatter->events.l2_write_segments, 0u);
  const SiteStats* load = find("warp_ms/prescan_load");
  ASSERT_NE(load, nullptr);
  EXPECT_GT(load->events.l2_read_segments, 0u);
}

TEST(SiteAttribution, ScatterCoalescingDegradesWithMoreBuckets) {
  // The paper's core diagnosis: the post-scan scatter's coalescing decays
  // as m grows because each warp writes to m distinct bucket regions.
  const auto scatter_eff = [](u32 m) {
    workload::WorkloadConfig wc;
    wc.m = m;
    const u64 n = u64{1} << 13;
    const auto host = workload::generate_keys(n, wc);
    Device dev;
    DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    split::MultisplitConfig cfg;
    cfg.method = split::Method::kWarpLevel;
    split::multisplit_keys(dev, in, out, m, split::RangeBucket{m}, cfg);
    for (const auto& s : dev.site_stats()) {
      if (s.label == "warp_ms/postscan_scatter")
        return coalescing_efficiency(s.events, dev.profile());
    }
    ADD_FAILURE() << "scatter site not found for m=" << m;
    return 0.0;
  };
  const f64 eff2 = scatter_eff(2);
  const f64 eff32 = scatter_eff(32);
  EXPECT_GT(eff2, 0.0);
  EXPECT_LT(eff32, eff2);
}

TEST(ScopedSite, NestsAndRestores) {
  Device dev;
  const SiteId outer = dev.site_id("outer");
  const SiteId inner = dev.site_id("inner");
  EXPECT_EQ(dev.current_site(), kSiteOther);
  {
    ScopedSite a(dev, outer);
    EXPECT_EQ(dev.current_site(), outer);
    {
      ScopedSite b(dev, inner);
      EXPECT_EQ(dev.current_site(), inner);
    }
    EXPECT_EQ(dev.current_site(), outer);
  }
  EXPECT_EQ(dev.current_site(), kSiteOther);
  // Registering the same label twice returns the same id.
  EXPECT_EQ(dev.site_id("outer"), outer);
}

TEST(Stage, MatchesSummarySinceAndIsIdempotent) {
  Device dev;
  DeviceBuffer<u32> buf(dev, 2048);
  device_fill<u32>(dev, buf, 1);  // outside the region

  const u64 before = dev.mark();
  Stage stage(dev, "test/region");
  device_fill<u32>(dev, buf, 2);
  device_fill<u32>(dev, buf, 3);
  const TimingSummary got = stage.end();
  const TimingSummary want = dev.summary_since(before);
  EXPECT_EQ(got.kernels, 2u);
  EXPECT_DOUBLE_EQ(got.total_ms, want.total_ms);
  EXPECT_EQ(got.events, want.events);

  device_fill<u32>(dev, buf, 4);  // after end(): must not extend the region
  const TimingSummary again = stage.end();
  EXPECT_EQ(again.kernels, got.kernels);
  EXPECT_DOUBLE_EQ(again.total_ms, got.total_ms);

  ASSERT_EQ(dev.regions().size(), 1u);
  EXPECT_EQ(dev.regions()[0].name, "test/region");
  EXPECT_EQ(dev.regions()[0].first_kernel, before);
  EXPECT_EQ(dev.regions()[0].end_kernel, before + 2);
}

TEST(Stage, MultisplitStagesSumToKernelTotal) {
  workload::WorkloadConfig wc;
  wc.m = 16;
  const u64 n = u64{1} << 12;
  const auto host = workload::generate_keys(n, wc);
  Device dev;
  DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = split::Method::kBlockLevel;
  const auto r =
      split::multisplit_keys(dev, in, out, 16, split::RangeBucket{16}, cfg);
  // The three stage regions cover every kernel of the run exactly once.
  EXPECT_NEAR(r.stages.total(), dev.total_ms(), 1e-9);
  EXPECT_NEAR(r.summary.total_ms, dev.total_ms(), 1e-9);
  EXPECT_EQ(r.summary.kernels, dev.records().size());
}

// ---------------------------------------------------------------------------
// Exception safety: a SimError thrown mid-kernel (OOB access) unwinds any
// in-kernel ScopedSite scopes, so the attribution stack is restored and
// later launches cannot be misattributed to the site that was live at the
// fault.
// ---------------------------------------------------------------------------

TEST(SiteAttribution, FaultMidKernelRestoresSiteStack) {
  Device dev;
  SanitizerConfig cfg;
  cfg.memcheck = true;  // reporting mode: the launch swallows the fault
  dev.sanitizer().configure(cfg);
  DeviceBuffer<u32> buf(dev, 64);
  buf.fill(0);
  const SiteId good = dev.site_id("test/good");
  const SiteId bad = dev.site_id("test/bad");

  launch_warps(dev, "faulty", 1, [&](Warp& w, u64) {
    ScopedSite outer(dev, good);
    w.store(buf, 0, LaneArray<u32>::filled(1), kFullMask);
    ScopedSite inner(dev, bad);
    const auto oob =
        Warp::lane_id().map([](u32 l) { return u64{l} + 1000; });
    w.scatter(buf, oob, LaneArray<u32>::filled(2), kFullMask);
    ADD_FAILURE() << "the OOB scatter must abort the kernel";
  });

  // Both nested scopes were unwound; the device is back at "other".
  EXPECT_EQ(dev.current_site(), kSiteOther);
  ASSERT_TRUE(dev.last_error().has_value());
  ASSERT_EQ(dev.records().size(), 1u);
  EXPECT_TRUE(dev.records()[0].faulted);
  // What the aborted kernel did charge is still partitioned exactly.
  expect_exact_partition(dev);

  // A later clean launch must not leak counters into the faulted site.
  const KernelEvents bad_before = dev.site_stats()[bad].events;
  launch_warps(dev, "clean", 1, [&](Warp& w, u64) {
    ScopedSite site(dev, good);
    (void)w.load(buf, 0, kFullMask);
  });
  ASSERT_EQ(dev.records().size(), 2u);
  EXPECT_FALSE(dev.records()[1].faulted);
  expect_exact_partition(dev);
  EXPECT_EQ(dev.site_stats()[bad].events, bad_before);
}

TEST(SiteAttribution, FaultPropagatedToCallerStillRestoresSite) {
  Device dev;  // sanitizer disabled: launch_warps rethrows the SimError
  DeviceBuffer<u32> buf(dev, 32);
  buf.fill(0);
  const SiteId site = dev.site_id("test/site");
  EXPECT_THROW(
      launch_warps(dev, "faulty", 1,
                   [&](Warp& w, u64) {
                     ScopedSite s(dev, site);
                     const auto oob = Warp::lane_id().map(
                         [](u32 l) { return u64{l} + 100; });
                     w.scatter(buf, oob, LaneArray<u32>::filled(1),
                               kFullMask);
                   }),
      SimError);
  EXPECT_EQ(dev.current_site(), kSiteOther);
  // end_kernel still ran: the aborted launch has a (faulted) record and
  // the device stays usable for further launches.
  ASSERT_EQ(dev.records().size(), 1u);
  EXPECT_TRUE(dev.records()[0].faulted);
  device_fill<u32>(dev, buf, 3);
  expect_exact_partition(dev);
}

TEST(Stage, ClosesAcrossFaultedLaunch) {
  Device dev;
  SanitizerConfig cfg;
  cfg.memcheck = true;  // reporting mode
  dev.sanitizer().configure(cfg);
  Stage stage(dev, "test/faulted_stage");
  inject::oob_scatter(dev);  // aborted launch, swallowed by the sanitizer
  DeviceBuffer<u32> buf(dev, 1024);
  device_fill<u32>(dev, buf, 1);
  const TimingSummary s = stage.end();
  // The faulted launch still closed its record, so the stage spans both.
  EXPECT_EQ(s.kernels, 2u);
  ASSERT_EQ(dev.regions().size(), 1u);
  EXPECT_EQ(dev.regions()[0].first_kernel, 0u);
  EXPECT_EQ(dev.regions()[0].end_kernel, 2u);
  expect_exact_partition(dev);
}

TEST(Stage, HostOnlyStageInTracedRequestOpensOneSpanAndNoBand) {
  Device dev;
  SpanRecorder& rec = dev.enable_spans();
  DeviceBuffer<u32> buf(dev, 1024);
  {
    SpanScope request(dev, SpanKind::kRequest, "test");
    device_fill<u32>(dev, buf, 1);
    Stage epilogue(dev, "test/epilogue");  // host-side work only
    const TimingSummary s = epilogue.end();
    EXPECT_EQ(s.kernels, 0u);
    EXPECT_EQ(s.total_ms, 0.0);
  }
  // request, the fill's launch, and exactly one closed stage span.
  u64 stages = 0;
  for (const SpanRecord& sp : rec.spans()) {
    EXPECT_TRUE(sp.closed) << sp.name;
    if (sp.kind != SpanKind::kStage) continue;
    ++stages;
    EXPECT_EQ(sp.name, "test/epilogue");
    EXPECT_EQ(sp.parent_id, 1u);
    EXPECT_EQ(sp.begin_ms, sp.end_ms);
  }
  EXPECT_EQ(stages, 1u);
  // The region is recorded, but empty, so the trace draws no stage band.
  ASSERT_EQ(dev.regions().size(), 1u);
  EXPECT_EQ(dev.regions()[0].first_kernel, dev.regions()[0].end_kernel);
  std::ostringstream trace;
  write_chrome_trace(dev, trace);
  EXPECT_EQ(trace.str().find("\"cat\":\"stage\""), std::string::npos);
}

TEST(SiteAttribution, ChargesOutsideAKernelStayOutOfTheSiteTotals) {
  Device dev;
  DeviceBuffer<u32> buf(dev, 1024);
  device_fill<u32>(dev, buf, 1);
  const KernelEvents fill = dev.records()[0].events;
  const SiteId site = dev.site_id("test/between_launches");
  {
    // A Warp driven outside any kernel (as the lane micro-benchmarks do):
    // its charges show in events() but belong to no KernelRecord.
    Warp w(dev, 0);
    ScopedSite scope(dev, site);
    w.charge(5);
  }
  EXPECT_EQ(dev.events().issue_slots, fill.issue_slots + 5);
  EXPECT_EQ(dev.site_stats()[site].events, KernelEvents{});
  expect_exact_partition(dev);
  // The next launch starts from zero, not from the stray charges.
  device_fill<u32>(dev, buf, 2);
  ASSERT_EQ(dev.records().size(), 2u);
  EXPECT_EQ(dev.records()[1].events.issue_slots, fill.issue_slots);
  EXPECT_EQ(dev.site_stats()[site].events, KernelEvents{});
  expect_exact_partition(dev);
}

TEST(SiteAttribution, ResetStatsZeroesCountersKeepsLabels) {
  Device dev;
  const SiteId site = dev.site_id("sticky");
  DeviceBuffer<u32> buf(dev, 1024);
  device_fill<u32>(dev, buf, 5);
  dev.reset_stats();
  EXPECT_TRUE(dev.regions().empty());
  const auto& sites = dev.site_stats();
  ASSERT_GT(sites.size(), site);
  EXPECT_EQ(sites[site].label, "sticky");
  for (const auto& s : sites) EXPECT_EQ(s.events, KernelEvents{});
  EXPECT_EQ(dev.site_id("sticky"), site);
}

}  // namespace
}  // namespace ms::sim
