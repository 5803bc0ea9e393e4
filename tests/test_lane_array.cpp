// Unit tests for the fundamental simulator types: LaneArray, lane masks,
// and the small integer helpers everything else leans on -- plus the
// randomized property tests pinning the SIMD lane engine (sim/simd.hpp)
// to its simd::scalar reference loops bit for bit.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/simd.hpp"
#include "sim/types.hpp"

namespace ms {
namespace {

TEST(LaneArray, FilledBroadcastsToAllLanes) {
  const auto a = LaneArray<u32>::filled(7);
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(a[i], 7u);
}

TEST(LaneArray, IotaMatchesLaneIndex) {
  const auto a = LaneArray<u32>::iota();
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(a[i], i);
  const auto b = LaneArray<u32>::iota(100);
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(b[i], 100 + i);
}

TEST(LaneArray, DefaultIsZeroInitialized) {
  const LaneArray<u64> a{};
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(a[i], 0u);
}

TEST(LaneArray, MapAppliesElementwise) {
  const auto a = LaneArray<u32>::iota();
  const auto b = a.map([](u32 x) { return x * x; });
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(b[i], i * i);
}

TEST(LaneArray, MapCanChangeType) {
  const auto a = LaneArray<u32>::iota();
  const auto b = a.map([](u32 x) { return static_cast<u64>(x) << 40; });
  static_assert(std::is_same_v<decltype(b[0]), const u64&>);
  EXPECT_EQ(b[3], u64{3} << 40);
}

TEST(LaneArray, ZipCombinesTwoArrays) {
  const auto a = LaneArray<u32>::iota();
  const auto b = LaneArray<u32>::filled(10);
  const auto c = a.zip(b, [](u32 x, u32 y) { return x + y; });
  for (u32 i = 0; i < kWarpSize; ++i) EXPECT_EQ(c[i], i + 10);
}

TEST(LaneMaskHelpers, ForEachLaneVisitsSetBitsAscending) {
  std::vector<u32> visited;
  for_each_lane(0b1010'0001u, [&](u32 lane) { visited.push_back(lane); });
  EXPECT_EQ(visited, (std::vector<u32>{0, 5, 7}));
}

TEST(LaneMaskHelpers, ForEachLaneEmptyMask) {
  u32 count = 0;
  for_each_lane(0u, [&](u32) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(LaneMaskHelpers, LaneActive) {
  EXPECT_TRUE(lane_active(0b100u, 2));
  EXPECT_FALSE(lane_active(0b100u, 1));
  EXPECT_TRUE(lane_active(kFullMask, 31));
}

TEST(IntHelpers, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 32), 0u);
  EXPECT_EQ(ceil_div(1, 32), 1u);
  EXPECT_EQ(ceil_div(32, 32), 1u);
  EXPECT_EQ(ceil_div(33, 32), 2u);
  EXPECT_EQ(ceil_div(u64{1} << 40, 2), u64{1} << 39);
}

TEST(IntHelpers, CeilLog2) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(32), 5u);
  EXPECT_EQ(ceil_log2(33), 6u);
  EXPECT_EQ(ceil_log2(1u << 16), 16u);
}

TEST(IntHelpers, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), std::logic_error);
  try {
    fail("specific message");
    FAIL() << "fail() must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("specific message"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SIMD lane engine: every vector kernel against its simd::scalar reference
// loop.  In an MS_SIMD=off build the kernels are those loops, so these
// tests compare scalar with scalar and pass by construction.
// ---------------------------------------------------------------------------

// The mask shapes most likely to break lane<->bit plumbing: empty, lane 0
// only, lane 31 only (sign-bit handling in movemask-style extractions),
// both alternating phases, and full.
constexpr LaneMask kEdgeMasks[] = {0x0u,        0x1u,        0x80000000u,
                                   0xAAAAAAAAu, 0x55555555u, kFullMask};

namespace scalar = sim::simd::scalar;

TEST(SimdLaneEngine, NonzeroMaskMatchesReference) {
  std::mt19937 rng(2016);
  for (int trial = 0; trial < 2000; ++trial) {
    LaneArray<u32> v;
    for (u32 i = 0; i < kWarpSize; ++i) {
      // Mix zeros, small values, and sign-bit-heavy values: movemask-based
      // backends must classify 0x80000000 as nonzero like any other word.
      switch (rng() % 4) {
        case 0: v[i] = 0; break;
        case 1: v[i] = 1 + rng() % 7; break;
        case 2: v[i] = 0x80000000u; break;
        default: v[i] = rng(); break;
      }
    }
    ASSERT_EQ(sim::simd::nonzero_mask(v.data()), scalar::nonzero_mask(v.data()));
  }
  // Single-lane patterns: exactly one nonzero lane at each position.
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    LaneArray<u32> v{};
    v[lane] = 0x80000000u;
    ASSERT_EQ(sim::simd::nonzero_mask(v.data()), 1u << lane) << "lane " << lane;
  }
}

TEST(SimdLaneEngine, BallotMatchesReferenceUnderEdgeMasks) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 500; ++trial) {
    LaneArray<u32> pred;
    for (u32 i = 0; i < kWarpSize; ++i) pred[i] = rng() & 1u ? rng() | 1u : 0u;
    for (LaneMask active : kEdgeMasks) {
      ASSERT_EQ(sim::simd::ballot(pred.data(), active),
                scalar::nonzero_mask(pred.data()) & active);
    }
    const LaneMask random_mask = rng();
    ASSERT_EQ(sim::simd::ballot(pred.data(), random_mask),
              scalar::nonzero_mask(pred.data()) & random_mask);
  }
}

TEST(SimdLaneEngine, BitBallotsMatchesReferenceForAllRounds) {
  std::mt19937 rng(4242);
  for (u32 rounds = 1; rounds <= 8; ++rounds) {
    for (int trial = 0; trial < 200; ++trial) {
      LaneArray<u32> bucket;
      for (u32 i = 0; i < kWarpSize; ++i) bucket[i] = rng() % (1u << rounds);
      const LaneMask valid =
          trial < 6 ? kEdgeMasks[trial] : static_cast<LaneMask>(rng());
      u32 got[8], want[8];
      sim::simd::bit_ballots(bucket.data(), rounds, valid, got);
      scalar::bit_ballots(bucket.data(), rounds, valid, want);
      for (u32 k = 0; k < rounds; ++k) {
        ASSERT_EQ(got[k], want[k]) << "rounds=" << rounds << " k=" << k;
      }
    }
  }
}

TEST(SimdLaneEngine, ClassMasksMatchReferenceAndPartitionValid) {
  std::mt19937 rng(99173);
  for (u32 rounds = 1; rounds <= 8; ++rounds) {
    const u32 classes = 1u << rounds;
    for (int trial = 0; trial < 100; ++trial) {
      LaneArray<u32> bucket;
      for (u32 i = 0; i < kWarpSize; ++i) bucket[i] = rng() % classes;
      const LaneMask valid =
          trial < 6 ? kEdgeMasks[trial] : static_cast<LaneMask>(rng());
      u32 ballots[8];
      sim::simd::bit_ballots(bucket.data(), rounds, valid, ballots);
      std::vector<u32> got(classes), want(classes);
      sim::simd::class_masks(rounds, ballots, valid, got.data());
      scalar::class_masks(rounds, ballots, valid, want.data());
      LaneMask unioned = 0;
      for (u32 c = 0; c < classes; ++c) {
        ASSERT_EQ(got[c], want[c]) << "rounds=" << rounds << " class " << c;
        // Partition property: class masks are pairwise disjoint...
        ASSERT_EQ(unioned & got[c], 0u) << "overlap at class " << c;
        unioned |= got[c];
        // ...and each valid lane lands in exactly the class of its bucket.
        for_each_lane(got[c], [&](u32 lane) {
          ASSERT_EQ(bucket[lane] & (classes - 1), c) << "lane " << lane;
        });
      }
      ASSERT_EQ(unioned, valid) << "union must cover exactly the valid lanes";
    }
  }
}

}  // namespace
}  // namespace ms
