// Chaos engine + resilient executor suite (the `chaos_suite` /
// `chaos_suite_mt4` ctest gates rerun the campaign tests with 4 simulator
// worker threads; `chaos_plan_state` reruns the plan-state tests with every
// sanitizer armed).
//
// Covers: one-shot deterministic injection (the faultinject.hpp positive
// controls), zero-overhead/bit-identity with chaos off or idle, retry and
// fallback behavior of the resilient executor, exception safety of a
// faulted run (no address-space leak, plan reusable), deterministic
// first-fault-wins under the parallel scheduler, and the seeded campaign
// acceptance gate: every injected fault recovered or surfaced, never a
// silent wrong result.
#include <gtest/gtest.h>

#include "multisplit/chaos_campaign.hpp"
#include "multisplit/plan.hpp"
#include "multisplit_test_util.hpp"
#include "sim/faultinject.hpp"

namespace ms::test {
namespace {

using split::Method;
using split::MultisplitConfig;
using split::MultisplitPlan;
using split::RangeBucket;
using split::RetryPolicy;
using sim::ChaosPolicy;
using sim::FaultKind;

std::vector<u32> make_keys(u64 n, u32 m, u64 seed) {
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = seed;
  return workload::generate_keys(n, wc);
}

// ------------------------------------------------ one-shot injection

TEST(ChaosInject, AllocFailureIsStructuredAndLeavesAllocatorUntouched) {
  sim::Device dev;
  const sim::AllocatorStats before = dev.allocator().stats();
  try {
    sim::inject::alloc_failure(dev);
    FAIL() << "injected allocation failure did not throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.context().kind, FaultKind::kAllocFailure);
    EXPECT_EQ(e.context().kernel, "<host>");
  }
  // The chaos check precedes all stats bumps: a failed allocation leaves
  // the allocator exactly as it was.
  const sim::AllocatorStats& after = dev.allocator().stats();
  EXPECT_EQ(before.alloc_count, after.alloc_count);
  EXPECT_EQ(before.bytes_live, after.bytes_live);
  EXPECT_EQ(before.bytes_reserved, after.bytes_reserved);
  EXPECT_EQ(dev.resilience_stats().injected_alloc_failures, 1u);
}

TEST(ChaosInject, LaunchAbortIsStructuredAndRecordsFaultedKernel) {
  sim::Device dev;
  const std::size_t records_before = dev.records().size();
  try {
    sim::inject::launch_abort(dev);
    FAIL() << "injected launch abort did not throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.context().kind, FaultKind::kLaunchFailure);
  }
  // The aborted launch leaves a faulted KernelRecord (the launch happened,
  // it just died), mirroring how a real device reports aborted kernels.
  ASSERT_EQ(dev.records().size(), records_before + 1);
  EXPECT_TRUE(dev.records().back().faulted);
  EXPECT_EQ(dev.resilience_stats().injected_launch_aborts, 1u);
  // The device stays servable: a later launch runs normally.
  sim::DeviceBuffer<u32> buf(dev, 32, "post_abort");
  buf.fill(0);
  sim::launch_warps(dev, "post_abort_kernel", 1, [&](sim::Warp& w, u64) {
    w.store(buf, 0, LaneArray<u32>::filled(7u));
  });
  EXPECT_EQ(buf[0], 7u);
}

TEST(ChaosInject, ArmedBitFlipHitsExactlyTheKnownWord) {
  sim::Device dev;
  dev.enable_chaos(ChaosPolicy{});  // all probabilities zero
  sim::DeviceBuffer<u32> buf(dev, 64, "flip_target");
  buf.fill(0xAAAAAAAAu);
  sim::inject::bit_flip(dev, buf, /*word=*/5, /*bit=*/17);
  for (u64 i = 0; i < buf.size(); ++i) {
    const u32 want = i == 5 ? (0xAAAAAAAAu ^ (1u << 17)) : 0xAAAAAAAAu;
    EXPECT_EQ(buf[i], want) << "word " << i;
  }
  ASSERT_EQ(dev.chaos()->log().size(), 1u);
  const sim::InjectionRecord& rec = dev.chaos()->log()[0];
  EXPECT_EQ(rec.site, sim::ChaosSite::kBitFlip);
  EXPECT_EQ(rec.word, 5u);
  EXPECT_EQ(rec.bit, 17u);
  EXPECT_NE(rec.object.find("flip_target"), std::string::npos);
  EXPECT_EQ(dev.resilience_stats().injected_bit_flips, 1u);
}

TEST(ChaosEngine, ProtectedBufferIsNeverFlipped) {
  sim::Device dev;
  ChaosPolicy pol;
  pol.p_bit_flip = 1.0;  // every kernel end flips some unprotected buffer
  dev.enable_chaos(pol);
  sim::DeviceBuffer<u32> guarded(dev, 64, "guarded");
  sim::DeviceBuffer<u32> fair_game(dev, 64, "fair_game");
  guarded.fill(0x12345678u);
  fair_game.fill(0x12345678u);
  dev.chaos()->protect_buffer(guarded.base_address());
  for (int k = 0; k < 8; ++k) {
    sim::launch_warps(dev, "noop", 1, [&](sim::Warp&, u64) {});
  }
  for (u64 i = 0; i < guarded.size(); ++i) {
    ASSERT_EQ(guarded[i], 0x12345678u) << "protected buffer was corrupted";
  }
  EXPECT_EQ(dev.resilience_stats().injected_bit_flips, 8u);
  u32 changed = 0;
  for (u64 i = 0; i < fair_game.size(); ++i) {
    if (fair_game[i] != 0x12345678u) ++changed;
  }
  EXPECT_GT(changed, 0u) << "the unprotected buffer took no flips";
}

// ------------------------------------------- L2 writeback injection order

// The L2-scramble stream takes one draw per dirty-sector writeback, in the
// order the L2 model evicts and flushes sectors.  Pinning the injection
// log pins that order: a cache change that moved one writeback would
// shift which draws land on which sectors.  The serial == mt4 gate alone
// cannot see such a change, because both runs would move together.
struct PinnedInjection {
  const char* kernel;
  const char* object;
  u64 word;
  u32 words;
};

// Captured from the array-of-lines tick-LRU L2 model.
constexpr PinnedInjection kL2WritebackFixture[] = {
    {"block_ms_prescan", "buffer@131072", 104, 8},
    {"block_ms_prescan", "buffer@131072", 160, 8},
    {"block_ms_prescan", "buffer@131072", 176, 8},
    {"scan_downsweep", "buffer@133120", 168, 8},
    {"scan_downsweep", "buffer@133120", 200, 8},
    {"scan_downsweep", "buffer@133120", 448, 8},
    {"block_ms_postscan", "l2pin.out", 16, 8},
    {"direct_ms_prescan", "buffer@131072", 104, 8},
    {"direct_ms_prescan", "buffer@131072", 160, 8},
    {"direct_ms_prescan", "buffer@131072", 176, 8},
    {"direct_ms_prescan", "buffer@131072", 680, 8},
    {"direct_ms_prescan", "buffer@131072", 712, 8},
    {"direct_ms_prescan", "buffer@131072", 960, 8},
    {"direct_ms_prescan", "buffer@131072", 1080, 8},
    {"direct_ms_prescan", "buffer@131072", 1208, 8},
    {"direct_ms_prescan", "buffer@131072", 1368, 8},
    {"direct_ms_prescan", "buffer@131072", 1640, 8},
    {"direct_ms_prescan", "buffer@131072", 1976, 8},
    {"direct_ms_prescan", "buffer@131072", 2056, 8},
    {"direct_ms_prescan", "buffer@131072", 2120, 8},
    {"direct_ms_prescan", "buffer@131072", 2568, 8},
    {"direct_ms_prescan", "buffer@131072", 2608, 8},
    {"direct_ms_prescan", "buffer@131072", 2768, 8},
    {"direct_ms_prescan", "buffer@131072", 2992, 8},
    {"direct_ms_prescan", "buffer@131072", 3184, 8},
    {"direct_ms_prescan", "buffer@131072", 3400, 8},
    {"direct_ms_prescan", "buffer@131072", 3768, 8},
    {"direct_ms_prescan", "buffer@131072", 3856, 8},
    {"direct_ms_prescan", "buffer@131072", 3960, 8},
    {"scan_downsweep", "buffer@147456", 152, 8},
    {"scan_downsweep", "buffer@147456", 576, 8},
    {"scan_downsweep", "buffer@147456", 880, 8},
    {"scan_downsweep", "buffer@147456", 944, 8},
    {"scan_downsweep", "buffer@147456", 1144, 8},
    {"scan_downsweep", "buffer@147456", 1168, 8},
    {"scan_downsweep", "buffer@147456", 1392, 8},
    {"scan_downsweep", "buffer@147456", 1728, 8},
    {"scan_downsweep", "buffer@147456", 1776, 8},
    {"scan_downsweep", "buffer@147456", 1808, 8},
    {"scan_downsweep", "buffer@147456", 1944, 8},
    {"scan_downsweep", "buffer@147456", 2160, 8},
    {"scan_downsweep", "buffer@147456", 2264, 8},
    {"scan_downsweep", "buffer@147456", 2440, 8},
    {"scan_downsweep", "buffer@147456", 2464, 8},
    {"scan_downsweep", "buffer@147456", 2528, 8},
    {"scan_downsweep", "buffer@147456", 2728, 8},
    {"scan_downsweep", "buffer@147456", 3032, 8},
    {"scan_downsweep", "buffer@147456", 3200, 8},
    {"scan_downsweep", "buffer@147456", 3344, 8},
    {"scan_downsweep", "buffer@147456", 3440, 8},
    {"scan_downsweep", "buffer@147456", 3464, 8},
    {"scan_downsweep", "buffer@147456", 3584, 8},
    {"scan_downsweep", "buffer@147456", 3664, 8},
    {"scan_downsweep", "buffer@147456", 3792, 8},
    {"scan_downsweep", "buffer@147456", 3872, 8},
};

std::vector<sim::InjectionRecord> l2_writeback_injections() {
  ChaosPolicy pol;
  pol.seed = 0x12C0FFEEu;
  pol.p_l2_corrupt = 0.05;
  const u64 n = 1u << 14;
  const u32 m = 8;
  const auto host = make_keys(n, m, 21);
  std::vector<sim::InjectionRecord> log;
  for (const Method method : {Method::kBlockLevel, Method::kDirect}) {
    sim::Device dev;
    dev.enable_chaos(pol);
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host), "l2pin.in");
    sim::DeviceBuffer<u32> out(dev, n, "l2pin.out");
    dev.chaos()->protect_buffer(in.base_address());
    MultisplitConfig cfg;
    cfg.method = method;
    try {
      MultisplitPlan(dev, n, m, cfg).run(in, out, RangeBucket{m});
    } catch (const sim::SimError&) {
      // A scrambled scratch word may fault a later kernel; the log up to
      // the fault is still deterministic.
    }
    const auto& got = dev.chaos()->log();
    log.insert(log.end(), got.begin(), got.end());
  }
  return log;
}

TEST(ChaosInject, L2WritebackSequencePinned) {
  const auto log = l2_writeback_injections();
  std::string actual;
  for (const sim::InjectionRecord& r : log) {
    EXPECT_EQ(r.site, sim::ChaosSite::kL2Writeback);
    actual += "    {\"" + r.kernel + "\", \"" + r.object + "\", " +
              std::to_string(r.word) + ", " + std::to_string(r.words) +
              "},\n";
  }
  std::string expected;
  for (const PinnedInjection& p : kL2WritebackFixture) {
    expected += std::string("    {\"") + p.kernel + "\", \"" + p.object +
                "\", " + std::to_string(p.word) + ", " +
                std::to_string(p.words) + "},\n";
  }
  EXPECT_EQ(actual, expected) << "L2 writeback injections changed";
}

/// With four workers the launcher replays a batch's L2 traffic -- and so
/// draws the writeback scrambles -- only once the whole batch has completed,
/// never while items that may read the scrambled words still run.  A
/// launch of 2048 blocks crosses the 1024-item merge batch; two runs must
/// inject the same words and leave the same buffers.
TEST(ChaosInject, L2WritebackAcrossBatchesReproducibleWithFourThreads) {
  const u64 n = u64{1} << 19;
  const u32 m = 8;
  const auto host = make_keys(n, m, 23);
  struct Run {
    std::vector<sim::InjectionRecord> log;
    std::vector<u32> out;
    u64 max_blocks = 0;
  };
  const auto run = [&] {
    ChaosPolicy pol;
    pol.seed = 0xB47C4E5u;
    pol.p_l2_corrupt = 0.02;
    sim::Device dev;
    dev.set_host_threads(4);
    dev.enable_chaos(pol);
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host), "batch.in");
    sim::DeviceBuffer<u32> out(dev, n, "batch.out");
    dev.chaos()->protect_buffer(in.base_address());
    MultisplitConfig cfg;
    cfg.method = Method::kWarpLevel;
    try {
      MultisplitPlan(dev, n, m, cfg).run(in, out, RangeBucket{m});
    } catch (const sim::SimError&) {
      // A scrambled scratch word may fault a later kernel.
    }
    Run r;
    r.log = dev.chaos()->log();
    r.out.assign(out.host().begin(), out.host().end());
    for (const auto& rec : dev.records()) {
      r.max_blocks = std::max(r.max_blocks, rec.events.blocks_launched);
    }
    return r;
  };
  const Run a = run();
  const Run b = run();
  EXPECT_GT(a.max_blocks, 1024u);
  ASSERT_FALSE(a.log.empty());
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].site, sim::ChaosSite::kL2Writeback);
    EXPECT_EQ(a.log[i].kernel, b.log[i].kernel) << i;
    EXPECT_EQ(a.log[i].object, b.log[i].object) << i;
    EXPECT_EQ(a.log[i].word, b.log[i].word) << i;
    EXPECT_EQ(a.log[i].words, b.log[i].words) << i;
  }
  EXPECT_EQ(a.out, b.out);
}

// ----------------------------------- zero overhead / bit-identity when off

TEST(ChaosEngine, IdleEngineIsBitIdenticalToNoEngine) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 99);
  split::MultisplitResult plain, idle;
  {
    sim::Device dev;
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    plain = MultisplitPlan(dev, n, m).run(in, out, RangeBucket{m});
  }
  {
    sim::Device dev;
    dev.enable_chaos(ChaosPolicy{});  // armed but all probabilities zero
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    idle = MultisplitPlan(dev, n, m).run(in, out, RangeBucket{m});
    EXPECT_TRUE(dev.chaos()->log().empty());
  }
  EXPECT_EQ(plain.bucket_offsets, idle.bucket_offsets);
  EXPECT_EQ(plain.stages.prescan_ms, idle.stages.prescan_ms);
  EXPECT_EQ(plain.stages.scan_ms, idle.stages.scan_ms);
  EXPECT_EQ(plain.stages.postscan_ms, idle.stages.postscan_ms);
  EXPECT_EQ(plain.summary.total_ms, idle.summary.total_ms);
}

// ------------------------------------------- retry/fallback classification

TEST(ResilientPolicy, RetryClassification) {
  RetryPolicy rp;  // retry_data_faults = false
  EXPECT_TRUE(split::fault_is_retryable(FaultKind::kAllocFailure, rp));
  EXPECT_TRUE(split::fault_is_retryable(FaultKind::kLaunchFailure, rp));
  EXPECT_TRUE(split::fault_is_retryable(FaultKind::kValidationFailure, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kGlobalOOB, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kUninitGlobalRead, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kInvalidConfig, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kHostOOB, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kRetryExhausted, rp));
  rp.retry_data_faults = true;  // the chaos-campaign setting
  EXPECT_TRUE(split::fault_is_retryable(FaultKind::kGlobalOOB, rp));
  EXPECT_TRUE(split::fault_is_retryable(FaultKind::kRaceHazard, rp));
  EXPECT_FALSE(split::fault_is_retryable(FaultKind::kInvalidConfig, rp));
}

TEST(ResilientPolicy, FallbackLadder) {
  using split::fallback_method;
  // m = 8, key-only: fused -> reduced_bit -> block -> warp -> direct ->
  // recursive scan split -> out of rungs.
  EXPECT_EQ(fallback_method(Method::kFusedBucketSort, 8, false),
            Method::kReducedBitSort);
  EXPECT_EQ(fallback_method(Method::kReducedBitSort, 8, false),
            Method::kBlockLevel);
  EXPECT_EQ(fallback_method(Method::kBlockLevel, 8, false),
            Method::kWarpLevel);
  EXPECT_EQ(fallback_method(Method::kWarpLevel, 8, false), Method::kDirect);
  EXPECT_EQ(fallback_method(Method::kDirect, 8, false),
            Method::kRecursiveScanSplit);
  // m <= 2 bottoms out in the single scan split instead.
  EXPECT_EQ(fallback_method(Method::kDirect, 2, false), Method::kScanSplit);
  // The scan splits are the bottom: nothing below them.
  EXPECT_EQ(fallback_method(Method::kScanSplit, 2, false), std::nullopt);
  EXPECT_EQ(fallback_method(Method::kRecursiveScanSplit, 8, false),
            std::nullopt);
  // The non-stable specialist degrades to the stable generalist.
  EXPECT_EQ(fallback_method(Method::kRandomizedInsertion, 8, false),
            Method::kWarpLevel);
}

// --------------------------------------------------- resilient execution

TEST(ResilientRun, CleanRunIsBitIdenticalToPlainRun) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 7);
  split::MultisplitResult plain, resilient;
  {
    sim::Device dev;
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    plain = MultisplitPlan(dev, n, m).run(in, out, RangeBucket{m});
  }
  {
    sim::Device dev;
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
    resilient =
        MultisplitPlan(dev, n, m).run(in, out, RangeBucket{m}, RetryPolicy{});
    EXPECT_EQ(dev.resilience_stats().requests, 1u);
    EXPECT_EQ(dev.resilience_stats().faults_observed, 0u);
  }
  EXPECT_EQ(resilient.resilience.attempts, 1u);
  EXPECT_EQ(resilient.resilience.retries, 0u);
  EXPECT_FALSE(resilient.resilience.degraded);
  EXPECT_EQ(plain.bucket_offsets, resilient.bucket_offsets);
  // The validation pass is host-side and uncharged: modeled costs match
  // the plain run bit-for-bit.
  EXPECT_EQ(plain.stages.prescan_ms, resilient.stages.prescan_ms);
  EXPECT_EQ(plain.stages.scan_ms, resilient.stages.scan_ms);
  EXPECT_EQ(plain.stages.postscan_ms, resilient.stages.postscan_ms);
}

TEST(ResilientRun, RecoversFromArmedAllocFailure) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 11);
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  dev.enable_chaos(ChaosPolicy{});
  dev.chaos()->arm_alloc_failure();  // first scratch alloc of attempt 1
  const MultisplitPlan plan(dev, n, m);
  const auto r = plan.run(in, out, RangeBucket{m}, RetryPolicy{});
  EXPECT_EQ(r.resilience.attempts, 2u);
  EXPECT_EQ(r.resilience.retries, 1u);
  EXPECT_GT(r.resilience.backoff_ms, 0.0);
  EXPECT_EQ(dev.resilience_stats().recovered, 1u);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, m,
                          RangeBucket{m}, /*stable=*/true);
}

TEST(ResilientRun, RecoversFromArmedLaunchAbort) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 12);
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  dev.enable_chaos(ChaosPolicy{});
  dev.chaos()->arm_launch_abort();
  const MultisplitPlan plan(dev, n, m);
  const auto r = plan.run(in, out, RangeBucket{m}, RetryPolicy{});
  EXPECT_EQ(r.resilience.attempts, 2u);
  EXPECT_EQ(dev.resilience_stats().injected_launch_aborts, 1u);
  EXPECT_EQ(dev.resilience_stats().recovered, 1u);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, m,
                          RangeBucket{m}, /*stable=*/true);
}

TEST(ResilientRun, ValidationCatchesArmedOutputBitFlip) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 13);
  MultisplitConfig cfg;
  cfg.method = Method::kWarpLevel;
  // Count the method's kernels on a clean reference device so the flip can
  // be armed for the LAST kernel end of attempt 1 (after the output is
  // fully written, where only end-to-end validation can catch it).
  std::size_t kernels = 0;
  {
    sim::Device ref;
    sim::DeviceBuffer<u32> in(ref, std::span<const u32>(host)), out(ref, n);
    MultisplitPlan(ref, n, m, cfg).run(in, out, RangeBucket{m});
    kernels = ref.records().size();
  }
  ASSERT_GT(kernels, 0u);

  sim::Device dev;
  dev.enable_chaos(ChaosPolicy{});
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  dev.chaos()->protect_buffer(in.base_address());
  dev.chaos()->arm_bit_flip(out.base_address(), /*word=*/3, /*bit=*/30,
                            /*skip_kernel_ends=*/kernels - 1);
  const MultisplitPlan plan(dev, n, m, cfg);
  const auto r = plan.run(in, out, RangeBucket{m}, RetryPolicy{});
  EXPECT_EQ(r.resilience.attempts, 2u);
  EXPECT_EQ(r.resilience.validation_failures, 1u);
  EXPECT_EQ(dev.resilience_stats().validation_failures, 1u);
  EXPECT_EQ(dev.resilience_stats().injected_bit_flips, 1u);
  EXPECT_EQ(dev.resilience_stats().recovered, 1u);
  expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, m,
                          RangeBucket{m}, /*stable=*/true);
}

TEST(ResilientRun, ExhaustedBudgetThrowsStructuredError) {
  const u64 n = 1u << 10;
  const u32 m = 8;
  const auto host = make_keys(n, m, 14);
  sim::Device dev;
  // Buffers BEFORE chaos: with p_alloc_fail = 1 every later allocation
  // fails, so every attempt of every method dies the same way.
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  ChaosPolicy pol;
  pol.p_alloc_fail = 1.0;
  dev.enable_chaos(pol);
  const MultisplitPlan plan(dev, n, m);
  try {
    plan.run(in, out, RangeBucket{m}, RetryPolicy{});
    FAIL() << "exhausted retries did not throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.context().kind, FaultKind::kRetryExhausted);
    EXPECT_NE(e.context().detail.find("4 attempts"), std::string::npos);
  }
  EXPECT_EQ(dev.resilience_stats().lost, 1u);
  EXPECT_EQ(dev.resilience_stats().faults_observed, 4u);
  EXPECT_EQ(dev.resilience_stats().retries, 3u);
}

TEST(ResilientRun, FallbackLadderEngagesUnderPersistentAborts) {
  const u64 n = 1u << 10;
  const u32 m = 8;
  const auto host = make_keys(n, m, 15);
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  ChaosPolicy pol;
  pol.p_launch_abort = 1.0;  // every launch of every method aborts
  dev.enable_chaos(pol);
  MultisplitConfig cfg;
  cfg.method = Method::kBlockLevel;
  const MultisplitPlan plan(dev, n, m, cfg);
  RetryPolicy rp;
  rp.attempts_per_method = 1;  // degrade on every retry
  EXPECT_THROW(plan.run(in, out, RangeBucket{m}, rp), sim::SimError);
  // block -> warp -> direct -> recursive scan split: three downgrades.
  EXPECT_EQ(dev.resilience_stats().fallbacks, 3u);
  EXPECT_EQ(dev.resilience_stats().lost, 1u);
}

// -------------------------- exception safety of a faulted run (satellite)

TEST(PlanFault, FaultedRunLeaksNoAddressSpaceAndPlanStaysUsable) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 21);
  sim::Device dev;
  dev.enable_chaos(ChaosPolicy{});
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  // Recursive scan split allocates per round, so a mid-method failure
  // unwinds with scratch live (the DeferredScope regression this guards).
  MultisplitConfig cfg;
  cfg.method = Method::kRecursiveScanSplit;
  const MultisplitPlan plan(dev, n, m, cfg);

  // One clean run to settle the pool, then snapshot.
  const auto clean = plan.run(in, out, RangeBucket{m});
  const u64 live0 = dev.allocator().stats().bytes_live;
  u64 reserved_after_first_cycle = 0;

  for (int cycle = 0; cycle < 3; ++cycle) {
    // Fail the 3rd allocation from now: mid-method, after some scratch
    // (and for later rounds, some kernels) already happened.
    dev.chaos()->arm_alloc_failure(/*skip=*/2);
    EXPECT_THROW(plan.run(in, out, RangeBucket{m}), sim::SimError);
    // Unwinding released every parked scratch range back to the pool.
    EXPECT_EQ(dev.allocator().stats().bytes_live, live0)
        << "faulted run leaked live bytes (cycle " << cycle << ")";

    // The same plan must serve the next request, correctly.
    const auto r = plan.run(in, out, RangeBucket{m});
    EXPECT_EQ(r.method_selected, Method::kRecursiveScanSplit);
    EXPECT_EQ(r.bucket_offsets, clean.bucket_offsets);
    expect_valid_multisplit(host, buffer_to_vector(out), r.bucket_offsets, m,
                            RangeBucket{m}, /*stable=*/true);

    // Address space must not grow cycle over cycle: the free lists absorb
    // and re-serve the fault/retry churn.
    const u64 reserved = dev.allocator().stats().bytes_reserved;
    if (cycle == 0) {
      reserved_after_first_cycle = reserved;
    } else {
      EXPECT_EQ(reserved, reserved_after_first_cycle)
          << "address space grew across fault cycles";
    }
  }
}

TEST(PlanFault, ResilientRunAfterFaultKeepsPooledScratchClean) {
  const u64 n = 1u << 12;
  const u32 m = 8;
  const auto host = make_keys(n, m, 22);
  sim::Device dev;
  dev.enable_chaos(ChaosPolicy{});
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  const MultisplitPlan plan(dev, n, m);
  // Faulted resilient run (recovers internally), then a plain run: the
  // recycled scratch must be indistinguishable from fresh.
  dev.chaos()->arm_alloc_failure(/*skip=*/1);
  const auto r1 = plan.run(in, out, RangeBucket{m}, RetryPolicy{});
  EXPECT_EQ(r1.resilience.attempts, 2u);
  const auto r2 = plan.run(in, out, RangeBucket{m});
  EXPECT_EQ(r1.bucket_offsets, r2.bucket_offsets);
  expect_valid_multisplit(host, buffer_to_vector(out), r2.bucket_offsets, m,
                          RangeBucket{m}, /*stable=*/true);
}

// ------------------------------------------------- metrics integration

TEST(ChaosMetrics, ResilienceStatsFlowIntoTheReport) {
  const u64 n = 1u << 10;
  const u32 m = 8;
  const auto host = make_keys(n, m, 31);
  sim::Device dev;
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  const MultisplitPlan plan(dev, n, m);
  plan.run(in, out, RangeBucket{m}, RetryPolicy{});
  const sim::MetricsReport rep = sim::analyze_device(dev);
  EXPECT_EQ(rep.resilience.requests, 1u);
  EXPECT_EQ(rep.resilience.faults_observed, 0u);
  EXPECT_EQ(rep.resilience.injected_total(), 0u);
}

// --------------------------------------------------- campaign acceptance

TEST(ChaosCampaign, FiveHundredRequestsNoSilentWrongResults) {
  split::ChaosCampaignConfig cfg;  // 500 requests, all four methods
  const split::ChaosCampaignReport rep = split::run_chaos_campaign(cfg);
  EXPECT_TRUE(rep.clean()) << split::format_campaign(rep);
  EXPECT_EQ(rep.silent_wrong, 0u);
  EXPECT_EQ(rep.total(), cfg.requests);
  // The policy actually exercised the machinery.
  EXPECT_GT(rep.stats.injected_alloc_failures, 0u);
  EXPECT_GT(rep.stats.injected_launch_aborts, 0u);
  EXPECT_GT(rep.stats.injected_bit_flips, 0u);
  EXPECT_GT(rep.stats.faults_observed, 0u);
  EXPECT_GT(rep.recovered, 0u);
  // Every injection is in the audit log.
  EXPECT_EQ(rep.injections.size(), rep.stats.injected_total());
}

TEST(ChaosCampaign, DeterministicGivenSeed) {
  split::ChaosCampaignConfig cfg;
  cfg.requests = 120;
  cfg.log2_n = 8;
  const auto a = split::run_chaos_campaign(cfg);
  const auto b = split::run_chaos_campaign(cfg);
  EXPECT_EQ(a.ok_first_try, b.ok_first_try);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.structured_errors, b.structured_errors);
  EXPECT_EQ(a.silent_wrong, b.silent_wrong);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.stats.injected_total(), b.stats.injected_total());
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    EXPECT_EQ(a.injections[i].site, b.injections[i].site) << "record " << i;
    EXPECT_EQ(a.injections[i].word, b.injections[i].word) << "record " << i;
    EXPECT_EQ(a.injections[i].bit, b.injections[i].bit) << "record " << i;
  }

  // A different chaos seed re-times the faults.
  split::ChaosCampaignConfig other = cfg;
  other.chaos.seed ^= 0xDEADBEEFull;
  const auto c = split::run_chaos_campaign(other);
  EXPECT_TRUE(c.clean()) << split::format_campaign(c);
}

}  // namespace
}  // namespace ms::test
