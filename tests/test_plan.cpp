// MultisplitPlan: the build-once/run-many entry point.  Covers the wrapper
// equivalence contract (a plan run and the legacy free function are
// bit-identical in results AND modeled costs for single-shot use), config
// validation at plan-build time, method metadata round-trips, kAuto's
// paper-guided crossover table, and plan reuse (same plan, fresh inputs,
// results identical to fresh single-shot calls; clean under sanitizers --
// the ctest gate `plan_reuse_sanitized` reruns this file with
// MS_SANITIZE=all).
#include <gtest/gtest.h>

#include <sstream>

#include "multisplit_test_util.hpp"

namespace ms::test {
namespace {

using split::Method;
using split::MultisplitConfig;
using split::MultisplitPlan;
using split::RangeBucket;

std::vector<u32> make_keys(u64 n, u32 m, u64 seed) {
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = seed;
  return workload::generate_keys(n, wc);
}

// ------------------------------------------------- wrapper equivalence

TEST(PlanEquivalence, SingleShotMatchesFreeFunctionBitExactly) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 42);
  for (const Method method :
       {Method::kDirect, Method::kWarpLevel, Method::kBlockLevel,
        Method::kReducedBitSort, Method::kFusedBucketSort}) {
    MultisplitConfig cfg;
    cfg.method = method;

    sim::Device dev_a;
    sim::DeviceBuffer<u32> ina(dev_a, std::span<const u32>(host));
    sim::DeviceBuffer<u32> outa(dev_a, n);
    const auto ra =
        split::multisplit_keys(dev_a, ina, outa, m, RangeBucket{m}, cfg);

    sim::Device dev_b;
    sim::DeviceBuffer<u32> inb(dev_b, std::span<const u32>(host));
    sim::DeviceBuffer<u32> outb(dev_b, n);
    const MultisplitPlan plan(dev_b, n, m, cfg);
    const auto rb = plan.run(inb, outb, RangeBucket{m});

    EXPECT_EQ(ra.bucket_offsets, rb.bucket_offsets) << to_string(method);
    EXPECT_EQ(buffer_to_vector(outa), buffer_to_vector(outb))
        << to_string(method);
    // Modeled costs must be bit-identical, not merely close: the free
    // functions are thin plan wrappers and the pooled allocator's first
    // pass is bump-identical.
    EXPECT_EQ(ra.stages.prescan_ms, rb.stages.prescan_ms) << to_string(method);
    EXPECT_EQ(ra.stages.scan_ms, rb.stages.scan_ms) << to_string(method);
    EXPECT_EQ(ra.stages.postscan_ms, rb.stages.postscan_ms)
        << to_string(method);
    EXPECT_EQ(ra.method_selected, rb.method_selected);
  }
}

TEST(PlanEquivalence, PairsMatchFreeFunction) {
  const u64 n = 1u << 10;
  const u32 m = 16;
  const auto host = make_keys(n, m, 7);
  const auto vals = workload::identity_values(n);
  MultisplitConfig cfg;
  cfg.method = Method::kBlockLevel;

  sim::Device dev_a;
  sim::DeviceBuffer<u32> ka(dev_a, std::span<const u32>(host));
  sim::DeviceBuffer<u32> va(dev_a, std::span<const u32>(vals));
  sim::DeviceBuffer<u32> koa(dev_a, n), voa(dev_a, n);
  const auto ra = split::multisplit_pairs(dev_a, ka, va, koa, voa, m,
                                          RangeBucket{m}, cfg);

  sim::Device dev_b;
  sim::DeviceBuffer<u32> kb(dev_b, std::span<const u32>(host));
  sim::DeviceBuffer<u32> vb(dev_b, std::span<const u32>(vals));
  sim::DeviceBuffer<u32> kob(dev_b, n), vob(dev_b, n);
  const MultisplitPlan plan(dev_b, n, m, cfg, sizeof(u32));
  const auto rb = plan.run_pairs(kb, vb, kob, vob, RangeBucket{m});

  EXPECT_EQ(ra.bucket_offsets, rb.bucket_offsets);
  EXPECT_EQ(buffer_to_vector(koa), buffer_to_vector(kob));
  EXPECT_EQ(buffer_to_vector(voa), buffer_to_vector(vob));
  EXPECT_EQ(ra.total_ms(), rb.total_ms());
}

// ------------------------------------------------------- plan metadata

TEST(Plan, ReportsGridAndTempStorage) {
  sim::Device dev;
  MultisplitConfig cfg;
  cfg.method = Method::kWarpLevel;
  const MultisplitPlan plan(dev, 1u << 14, 32, cfg);
  // 2^14 keys / (32 keys per warp-subproblem) = 512 subproblems over 8
  // warps per block.
  EXPECT_EQ(plan.grid().subproblems, 512u);
  EXPECT_EQ(plan.grid().warps_per_block, 8u);
  EXPECT_EQ(plan.grid().blocks, 64u);
  // Two m x L histogram matrices plus the scan tree, all sector-aligned.
  EXPECT_GE(plan.temp_storage_bytes(), 2u * 32u * 512u * 4u);
  EXPECT_EQ(plan.n(), u64{1} << 14);
  EXPECT_EQ(plan.m(), 32u);
  EXPECT_EQ(plan.method(), Method::kWarpLevel);
  EXPECT_EQ(plan.requested_method(), Method::kWarpLevel);
}

TEST(Plan, RejectsMismatchedInputSize) {
  sim::Device dev;
  const MultisplitPlan plan(dev, 1024, 8);
  sim::DeviceBuffer<u32> in(dev, 512), out(dev, 512);
  in.host();  // initialized, size is the problem
  EXPECT_THROW(plan.run(in, out, RangeBucket{8}), std::logic_error);
}

TEST(Plan, RandomizedInsertionRejectsPairsAtBuild) {
  sim::Device dev;
  MultisplitConfig cfg;
  cfg.method = Method::kRandomizedInsertion;
  EXPECT_THROW(MultisplitPlan(dev, 1024, 8, cfg, sizeof(u32)),
               std::logic_error);
  EXPECT_NO_THROW(MultisplitPlan(dev, 1024, 8, cfg));
}

TEST(Plan, ScanSplitRejectsLargeMAtBuild) {
  sim::Device dev;
  MultisplitConfig cfg;
  cfg.method = Method::kScanSplit;
  EXPECT_THROW(MultisplitPlan(dev, 1024, 8, cfg), std::logic_error);
  EXPECT_NO_THROW(MultisplitPlan(dev, 1024, 2, cfg));
}

// ------------------------------------------------------ config validation

struct MalformedConfig {
  const char* label;
  MultisplitConfig cfg;
};

// gtest would otherwise print the label's address and the config's raw bytes
// (padding included), which gtest_discover_tests folds into the ctest name,
// so the name would change from run to run.
void PrintTo(const MalformedConfig& c, std::ostream* os) { *os << c.label; }

class PlanConfigValidation
    : public ::testing::TestWithParam<MalformedConfig> {};

TEST_P(PlanConfigValidation, RejectedAtBuildWithStructuredFault) {
  sim::Device dev;
  const auto& [label, cfg] = GetParam();
  try {
    const MultisplitPlan plan(dev, 1024, 8, cfg);
    FAIL() << label << ": malformed config accepted";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.context().kind, sim::FaultKind::kInvalidConfig) << label;
    EXPECT_EQ(e.context().object, "MultisplitConfig") << label;
    EXPECT_FALSE(e.context().detail.empty()) << label;
  }
}

MultisplitConfig with_zero_warps() {
  MultisplitConfig c;
  c.warps_per_block = 0;
  return c;
}
MultisplitConfig with_zero_items() {
  MultisplitConfig c;
  c.items_per_thread = 0;
  return c;
}
MultisplitConfig with_zero_block_items() {
  MultisplitConfig c;
  c.block_items_per_thread = 0;
  return c;
}
MultisplitConfig with_low_relaxation() {
  MultisplitConfig c;
  c.relaxation = 0.99;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, PlanConfigValidation,
    ::testing::Values(MalformedConfig{"zero_warps", with_zero_warps()},
                      MalformedConfig{"zero_items", with_zero_items()},
                      MalformedConfig{"zero_block_items",
                                      with_zero_block_items()},
                      MalformedConfig{"low_relaxation", with_low_relaxation()}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(PlanConfigValidation, FreeFunctionsValidateToo) {
  // The wrappers build a plan internally, so the same rejection fires.
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, 64), out(dev, 64);
  in.fill(1);
  EXPECT_THROW(split::multisplit_keys(dev, in, out, 8, RangeBucket{8},
                                      with_zero_warps()),
               sim::SimError);
}

// ------------------------------------------------------- method metadata

TEST(MethodNames, TokenRoundTripsThroughParse) {
  for (u32 i = 0; i <= static_cast<u32>(Method::kAuto); ++i) {
    const Method m = static_cast<Method>(i);
    const auto parsed = split::parse_method(split::method_token(m));
    ASSERT_TRUE(parsed.has_value()) << split::method_token(m);
    EXPECT_EQ(*parsed, m);
    // Display names parse too (diff tooling reads them back from reports).
    const auto display = split::parse_method(to_string(m));
    ASSERT_TRUE(display.has_value()) << to_string(m);
    EXPECT_EQ(*display, m);
  }
}

TEST(MethodNames, UnknownNamesStayHardErrors) {
  EXPECT_FALSE(split::parse_method("warp_level").has_value());
  EXPECT_FALSE(split::parse_method("").has_value());
  EXPECT_FALSE(split::parse_method("AUTO").has_value());
  EXPECT_FALSE(split::parse_method("bms").has_value());
}

// ------------------------------------------------------------- kAuto

struct AutoCase {
  u32 m;
  Method want;  // on the default device (Tesla K40c decision table)
  friend std::ostream& operator<<(std::ostream& os, const AutoCase& c) {
    return os << "m" << c.m << "_" << split::method_token(c.want);
  }
};

class AutoSelection : public ::testing::TestWithParam<AutoCase> {};

TEST_P(AutoSelection, PicksPaperCrossoverAndRunsCorrectly) {
  const auto [m, want] = GetParam();
  const u64 n = 1u << 12;
  const auto host = make_keys(n, m, 1234 + m);

  sim::Device dev;
  MultisplitConfig cfg;
  cfg.method = Method::kAuto;
  const MultisplitPlan plan(dev, n, m, cfg);
  EXPECT_EQ(plan.method(), want);
  EXPECT_EQ(plan.requested_method(), Method::kAuto);
  EXPECT_EQ(split::resolve_auto(dev.profile(), n, m), want);

  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  const auto r = plan.run(in, out, RangeBucket{m});
  EXPECT_EQ(r.method_selected, want);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, m,
                          RangeBucket{m}, is_stable(want));
}

INSTANTIATE_TEST_SUITE_P(
    PaperGuidance, AutoSelection,
    ::testing::Values(AutoCase{2, Method::kWarpLevel},
                      AutoCase{8, Method::kBlockLevel},
                      AutoCase{32, Method::kBlockLevel},
                      AutoCase{256, Method::kBlockLevel},
                      AutoCase{4096, Method::kReducedBitSort}),
    [](const auto& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(AutoSelection, DecisionTableIsPerDeviceProfile) {
  // The Maxwell profile crosses over to block-level earlier (m > 4).
  const auto k40c = sim::DeviceProfile::tesla_k40c();
  const auto gtx750 = sim::DeviceProfile::gtx_750_ti();
  EXPECT_EQ(split::resolve_auto(k40c, 1 << 20, 6), Method::kWarpLevel);
  EXPECT_EQ(split::resolve_auto(gtx750, 1 << 20, 6), Method::kBlockLevel);
}

// ------------------------------------------------------------ plan reuse

TEST(PlanReuse, ThreeRunsMatchThreeFreshSingleShots) {
  // Satellite (d): one plan run three times on different inputs must
  // produce exactly the results of three fresh single-shot calls, and stay
  // sanitizer-clean (this whole file reruns under MS_SANITIZE=all via the
  // plan_reuse_sanitized ctest gate).
  const u64 n = 1u << 12;
  const u32 m = 32;
  MultisplitConfig cfg;
  cfg.method = Method::kBlockLevel;

  sim::Device dev;
  const MultisplitPlan plan(dev, n, m, cfg);
  sim::DeviceBuffer<u32> in(dev, n), out(dev, n);

  for (u32 round = 0; round < 3; ++round) {
    const auto host = make_keys(n, m, 100 + round * 31);
    std::copy(host.begin(), host.end(), in.host().begin());
    const auto reused = plan.run(in, out, RangeBucket{m});

    sim::Device fresh_dev;
    sim::DeviceBuffer<u32> fin(fresh_dev, std::span<const u32>(host));
    sim::DeviceBuffer<u32> fout(fresh_dev, n);
    const auto fresh =
        split::multisplit_keys(fresh_dev, fin, fout, m, RangeBucket{m}, cfg);

    EXPECT_EQ(reused.bucket_offsets, fresh.bucket_offsets) << round;
    EXPECT_EQ(buffer_to_vector(out), buffer_to_vector(fout)) << round;
    EXPECT_EQ(reused.method_selected, fresh.method_selected);
    expect_valid_multisplit(host, buffer_to_vector(out),
                            reused.bucket_offsets, m, RangeBucket{m}, true);
  }
  // The pool really was exercised: runs 2 and 3 recycled run 1's scratch.
  EXPECT_GT(dev.allocator().stats().reuse_hits, 0u);
}

/// Everything a reused-plan run produces: outputs plus every modeled
/// cost of every launch, down to the per-site counter slices.
struct ReuseRun {
  std::vector<u32> offsets;
  std::vector<u32> keys;
  f64 total_ms = 0.0;
  std::vector<std::string> kernels;
  std::vector<f64> kernel_ms;  // time_ms, mem_time_ms, issue_time_ms each
  std::vector<sim::KernelEvents> events;
  std::vector<std::vector<std::pair<u32, sim::KernelEvents>>> sites;
  bool operator==(const ReuseRun&) const = default;
};

TEST(PlanReuse, ReusedRunsAreDeterministic) {
  // Pool reuse is LIFO over deterministic free lists and the parallel
  // scheduler merges in item order, so the whole reuse sequence --
  // including every modeled cost -- must reproduce bit-for-bit on a
  // second device and on 4 host threads.  (Individual reused runs may
  // differ slightly from run 1 in either direction: recycled residency
  // shifts L2 set pressure.  Determinism is the contract; plan_reuse
  // measures the amortized win.)
  const u64 n = 1u << 12;
  const u32 m = 16;
  for (const Method method : {Method::kBlockLevel, Method::kWarpLevel}) {
    auto sequence = [&](u32 threads) {
      sim::Device dev;
      dev.set_host_threads(threads);
      MultisplitConfig cfg;
      cfg.method = method;
      const MultisplitPlan plan(dev, n, m, cfg);
      sim::DeviceBuffer<u32> in(dev, n), out(dev, n);
      std::vector<ReuseRun> runs;
      for (u32 round = 0; round < 5; ++round) {
        const auto host = make_keys(n, m, 900 + round);
        std::copy(host.begin(), host.end(), in.host().begin());
        const u64 mark = dev.mark();
        const auto r = plan.run(in, out, RangeBucket{m});
        ReuseRun run;
        run.offsets = r.bucket_offsets;
        run.keys = buffer_to_vector(out);
        run.total_ms = r.total_ms();
        for (u64 i = mark; i < dev.records().size(); ++i) {
          const sim::KernelRecord& k = dev.records()[i];
          run.kernels.push_back(k.name);
          run.kernel_ms.insert(run.kernel_ms.end(),
                               {k.time_ms, k.mem_time_ms, k.issue_time_ms});
          run.events.push_back(k.events);
          run.sites.push_back(k.sites);
        }
        runs.push_back(std::move(run));
      }
      return runs;
    };
    const auto serial = sequence(1);
    ASSERT_EQ(serial.size(), 5u);
    EXPECT_GT(serial[0].total_ms, 0.0) << to_string(method);
    EXPECT_EQ(serial, sequence(1)) << to_string(method);
    EXPECT_EQ(serial, sequence(4)) << to_string(method);
  }
}

}  // namespace
}  // namespace ms::test
