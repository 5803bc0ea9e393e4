// The central property suite: every multisplit method, across bucket
// counts, input sizes and key distributions, must produce a valid
// (permutation, contiguous, ascending, offset-correct, stable-if-promised)
// multisplit -- for key-only and key-value inputs.
#include <gtest/gtest.h>

#include "multisplit_test_util.hpp"

namespace ms::test {
namespace {

using split::Method;
using split::MultisplitConfig;
using split::RangeBucket;
using workload::Distribution;

struct Case {
  Method method;
  u32 m;
  u64 n;
  Distribution dist;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << to_string(c.method) << "/m" << c.m << "/n" << c.n << "/"
              << workload::to_string(c.dist);
  }
};

class MultisplitCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(MultisplitCorrectness, KeyOnly) {
  const Case c = GetParam();
  workload::WorkloadConfig wc;
  wc.dist = c.dist;
  wc.m = c.m;
  wc.seed = c.n * 131 + c.m;
  const auto host = workload::generate_keys(c.n, wc);

  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, c.n);
  MultisplitConfig cfg;
  cfg.method = c.method;
  const auto r = split::multisplit_keys(dev, in, out, c.m, RangeBucket{c.m}, cfg);

  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, c.m,
                          RangeBucket{c.m}, is_stable(c.method));
  EXPECT_GT(r.total_ms(), 0.0);
}

TEST_P(MultisplitCorrectness, KeyValue) {
  const Case c = GetParam();
  if (c.method == Method::kRandomizedInsertion) {
    GTEST_SKIP() << "randomized insertion is key-only";
  }
  workload::WorkloadConfig wc;
  wc.dist = c.dist;
  wc.m = c.m;
  wc.seed = c.n * 733 + c.m;
  const auto host = workload::generate_keys(c.n, wc);
  const auto vals = workload::identity_values(c.n);

  sim::Device dev;
  sim::DeviceBuffer<u32> kin(dev, std::span<const u32>(host));
  sim::DeviceBuffer<u32> vin(dev, std::span<const u32>(vals));
  sim::DeviceBuffer<u32> kout(dev, c.n), vout(dev, c.n);
  MultisplitConfig cfg;
  cfg.method = c.method;
  const auto r = split::multisplit_pairs(dev, kin, vin, kout, vout, c.m,
                                         RangeBucket{c.m}, cfg);

  expect_valid_multisplit(host, buffer_to_vector(kout), r.bucket_offsets, c.m,
                          RangeBucket{c.m}, /*stable=*/true);
  // Every value must still point at its original key.
  for (u64 i = 0; i < c.n; ++i)
    ASSERT_EQ(kout[i], host[vout[i]]) << "value desynchronized at " << i;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const Method methods[] = {Method::kDirect,
                            Method::kWarpLevel,
                            Method::kBlockLevel,
                            Method::kRecursiveScanSplit,
                            Method::kReducedBitSort,
                            Method::kRandomizedInsertion,
                            Method::kFusedBucketSort};
  for (const Method meth : methods) {
    for (const u32 m : {2u, 5u, 8u, 17u, 32u}) {
      for (const u64 n : {4096ull, 100001ull}) {
        cases.push_back({meth, m, n, Distribution::kUniform});
      }
      cases.push_back({meth, m, 30000ull, Distribution::kBinomial});
      cases.push_back({meth, m, 30000ull, Distribution::kSkewedOne});
    }
    cases.push_back({meth, 8, 30000ull, Distribution::kSortedUniform});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MultisplitCorrectness,
                         ::testing::ValuesIn(all_cases()));

TEST(MultisplitScanSplit, TwoBucketSplitWorks) {
  const u64 n = 50000;
  workload::WorkloadConfig wc;
  const auto host = workload::generate_keys(n, wc);
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  MultisplitConfig cfg;
  cfg.method = Method::kScanSplit;
  const auto r = split::multisplit_keys(dev, in, out, 2, RangeBucket{2}, cfg);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, 2,
                          RangeBucket{2}, true);
}

TEST(MultisplitScanSplit, RejectsMoreThanTwoBuckets) {
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, 64), out(dev, 64);
  MultisplitConfig cfg;
  cfg.method = Method::kScanSplit;
  EXPECT_THROW(split::multisplit_keys(dev, in, out, 3, RangeBucket{3}, cfg),
               std::logic_error);
}

// A BucketFunction (std::function) declares no charge_cost, so it is
// charged bucket_charge_cost's default of 2 per evaluation -- what
// RangeBucket declares.  Wrapping RangeBucket{m} in one must change no
// output, offset, stage time or counter, through the plan, the free
// function and the resilient run alike.
enum class Entry { kPlan, kFree, kResilient };

struct SplitRun {
  std::vector<u32> keys, vals;
  split::MultisplitResult r;
};

template <typename BucketFn>
SplitRun run_entry(Method method, Entry entry, bool pairs,
                   const std::vector<u32>& host, u32 m, BucketFn fn) {
  const u64 n = host.size();
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  const auto vhost = workload::identity_values(n);
  sim::DeviceBuffer<u32> vin(dev, std::span<const u32>(vhost)), vout(dev, n);
  MultisplitConfig cfg;
  cfg.method = method;
  SplitRun run;
  if (entry == Entry::kFree) {
    run.r = pairs ? split::multisplit_pairs(dev, in, vin, out, vout, m, fn, cfg)
                  : split::multisplit_keys(dev, in, out, m, fn, cfg);
  } else {
    const split::MultisplitPlan plan(dev, n, m, cfg, pairs ? 4 : 0);
    std::optional<split::RetryPolicy> rp;
    if (entry == Entry::kResilient) rp.emplace();
    run.r = pairs ? plan.run_pairs(in, vin, out, vout, fn, rp)
                  : plan.run(in, out, fn, rp);
  }
  run.keys = buffer_to_vector(out);
  if (pairs) run.vals = buffer_to_vector(vout);
  return run;
}

class BucketFunctionBitIdentity : public ::testing::TestWithParam<Method> {};

TEST_P(BucketFunctionBitIdentity, MatchesDeclaredCostFunctor) {
  const Method method = GetParam();
  const u32 m = method == Method::kScanSplit ? 2 : 8;
  workload::WorkloadConfig wc;
  wc.m = m;
  const auto host = workload::generate_keys(5000, wc);
  const split::BucketFunction erased = RangeBucket{m};
  for (const bool pairs : {false, true}) {
    if (pairs && !split::method_traits(method).supports_pairs) continue;
    for (const Entry entry : {Entry::kPlan, Entry::kFree, Entry::kResilient}) {
      SCOPED_TRACE(::testing::Message()
                   << "pairs=" << pairs << " entry=" << static_cast<int>(entry));
      const SplitRun want =
          run_entry(method, entry, pairs, host, m, RangeBucket{m});
      const SplitRun got = run_entry(method, entry, pairs, host, m, erased);
      expect_valid_multisplit(host, got.keys, got.r.bucket_offsets, m,
                              RangeBucket{m}, is_stable(method));
      EXPECT_EQ(got.keys, want.keys);
      EXPECT_EQ(got.vals, want.vals);
      EXPECT_EQ(got.r.bucket_offsets, want.r.bucket_offsets);
      EXPECT_EQ(got.r.stages.prescan_ms, want.r.stages.prescan_ms);
      EXPECT_EQ(got.r.stages.scan_ms, want.r.stages.scan_ms);
      EXPECT_EQ(got.r.stages.postscan_ms, want.r.stages.postscan_ms);
      EXPECT_EQ(got.r.summary.total_ms, want.r.summary.total_ms);
      EXPECT_EQ(got.r.summary.kernels, want.r.summary.kernels);
      EXPECT_EQ(got.r.summary.events, want.r.summary.events);
    }
  }
}

std::vector<Method> concrete_methods() {
  std::vector<Method> out;
  for (u32 i = 0; i < split::kConcreteMethodCount; ++i)
    out.push_back(static_cast<Method>(i));
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, BucketFunctionBitIdentity, ::testing::ValuesIn(concrete_methods()),
    [](const ::testing::TestParamInfo<Method>& info) {
      return split::method_token(info.param);
    });

TEST(MultisplitApi, NonMonotoneBucketsWork) {
  // Bucket IDs need not be order-correlated with keys (Figure 1's
  // prime/composite example): parity of popcount.
  const u64 n = 20000;
  workload::WorkloadConfig wc;
  const auto host = workload::generate_keys(n, wc);
  const auto fn = [](u32 k) { return static_cast<u32>(std::popcount(k)) % 3; };
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  MultisplitConfig cfg;
  cfg.method = Method::kWarpLevel;
  const auto r = split::multisplit_keys(dev, in, out, 3, fn, cfg);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, 3, fn,
                          true);
}

TEST(MultisplitApi, StageTimingsSumToTotal) {
  const u64 n = 65536;
  workload::WorkloadConfig wc;
  const auto host = workload::generate_keys(n, wc);
  for (const Method meth :
       {Method::kDirect, Method::kWarpLevel, Method::kBlockLevel}) {
    sim::Device dev;
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    MultisplitConfig cfg;
    cfg.method = meth;
    const auto r = split::multisplit_keys(dev, in, out, 8, RangeBucket{8}, cfg);
    EXPECT_GT(r.stages.prescan_ms, 0.0);
    EXPECT_GT(r.stages.scan_ms, 0.0);
    EXPECT_GT(r.stages.postscan_ms, 0.0);
    EXPECT_NEAR(r.total_ms(), r.summary.total_ms, 1e-9);
  }
}

TEST(MultisplitApi, RejectsAliasedOrUndersizedBuffers) {
  sim::Device dev;
  sim::DeviceBuffer<u32> a(dev, 128), small(dev, 64);
  MultisplitConfig cfg;
  EXPECT_THROW(split::multisplit_keys(dev, a, a, 2, RangeBucket{2}, cfg),
               std::logic_error);
  EXPECT_THROW(split::multisplit_keys(dev, a, small, 2, RangeBucket{2}, cfg),
               std::logic_error);
}

}  // namespace
}  // namespace ms::test
