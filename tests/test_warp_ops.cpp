// Algorithms 2 and 3 (ballot-based warp histogram / local offsets), the
// merged ranking, and the m > 32 multi-bitmap extensions -- checked against
// straightforward references over randomized inputs, including partial
// (tail) warps, and against the literal per-lane ballot loops of the paper
// for both values and charged counters.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "primitives/warp_ops.hpp"

namespace ms::prim {
namespace {

using sim::Device;

std::vector<u32> reference_histogram(const LaneArray<u32>& b, u32 m,
                                     LaneMask valid) {
  std::vector<u32> h(m, 0);
  for_each_lane(valid, [&](u32 lane) { h[b[lane]]++; });
  return h;
}

std::vector<u32> reference_offsets(const LaneArray<u32>& b, LaneMask valid) {
  std::vector<u32> out(kWarpSize, 0);
  for_each_lane(valid, [&](u32 lane) {
    u32 r = 0;
    for (u32 j = 0; j < lane; ++j) {
      if (lane_active(valid, j) && b[j] == b[lane]) ++r;
    }
    out[lane] = r;
  });
  return out;
}

class WarpOpsTest : public ::testing::TestWithParam<u32> {
 protected:
  Device dev;
  std::mt19937 rng{GetParam() * 7919 + 13};

  template <typename F>
  void in_warp(F&& f) {
    sim::launch_warps(dev, "test", 1, [&](sim::Warp& w, u64) { f(w); });
  }
};

TEST_P(WarpOpsTest, HistogramMatchesReference) {
  const u32 m = GetParam();
  in_warp([&](sim::Warp& w) {
    for (int trial = 0; trial < 40; ++trial) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid =
          (trial % 3 == 0) ? sim::tail_mask(1 + rng() % 32) : kFullMask;
      const auto got = warp_histogram(w, b, m, valid);
      const auto want = reference_histogram(b, m, valid);
      for (u32 d = 0; d < m; ++d) ASSERT_EQ(got[d], want[d]) << "bucket " << d;
    }
  });
}

TEST_P(WarpOpsTest, OffsetsMatchReference) {
  const u32 m = GetParam();
  in_warp([&](sim::Warp& w) {
    for (int trial = 0; trial < 40; ++trial) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid =
          (trial % 3 == 1) ? sim::tail_mask(1 + rng() % 32) : kFullMask;
      const auto got = warp_offsets(w, b, m, valid);
      const auto want = reference_offsets(b, valid);
      for_each_lane(valid,
                    [&](u32 i) { ASSERT_EQ(got[i], want[i]) << "lane " << i; });
    }
  });
}

TEST_P(WarpOpsTest, MergedRankAgreesWithSeparateOps) {
  const u32 m = GetParam();
  in_warp([&](sim::Warp& w) {
    for (int trial = 0; trial < 20; ++trial) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid = sim::tail_mask(1 + rng() % 32);
      const auto rank = warp_rank(w, b, m, valid);
      const auto h = warp_histogram(w, b, m, valid);
      const auto o = warp_offsets(w, b, m, valid);
      for (u32 i = 0; i < kWarpSize; ++i) {
        ASSERT_EQ(rank.histogram[i], h[i]);
        ASSERT_EQ(rank.offsets[i], o[i]);
      }
    }
  });
}

TEST_P(WarpOpsTest, HistogramSumsToValidCount) {
  const u32 m = GetParam();
  in_warp([&](sim::Warp& w) {
    LaneArray<u32> b;
    for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
    const LaneMask valid = sim::tail_mask(17);
    const auto h = warp_histogram(w, b, m, valid);
    u32 total = 0;
    for (u32 d = 0; d < m; ++d) total += h[d];
    EXPECT_EQ(total, 17u);
  });
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, WarpOpsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 15u, 16u,
                                           17u, 31u, 32u));

class WarpOpsMultiTest : public ::testing::TestWithParam<u32> {
 protected:
  Device dev;
  std::mt19937 rng{GetParam() * 104729 + 7};
};

TEST_P(WarpOpsMultiTest, MultiHistogramMatchesReference) {
  const u32 m = GetParam();
  sim::launch_warps(dev, "test", 1, [&](sim::Warp& w, u64) {
    for (int trial = 0; trial < 20; ++trial) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid =
          (trial % 2 == 0) ? sim::tail_mask(1 + rng() % 32) : kFullMask;
      const auto groups = warp_histogram_multi(w, b, m, valid);
      const auto want = reference_histogram(b, m, valid);
      ASSERT_EQ(groups.size(), ceil_div(m, kWarpSize));
      for (u32 d = 0; d < m; ++d) {
        ASSERT_EQ(groups[d / kWarpSize][d % kWarpSize], want[d])
            << "bucket " << d;
      }
    }
  });
}

TEST_P(WarpOpsMultiTest, MultiOffsetsMatchReference) {
  const u32 m = GetParam();
  sim::launch_warps(dev, "test", 1, [&](sim::Warp& w, u64) {
    for (int trial = 0; trial < 20; ++trial) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid = kFullMask;
      const auto got = warp_offsets_multi(w, b, m, valid);
      const auto want = reference_offsets(b, valid);
      for (u32 i = 0; i < kWarpSize; ++i) ASSERT_EQ(got[i], want[i]);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(LargeBucketCounts, WarpOpsMultiTest,
                         ::testing::Values(33u, 64u, 100u, 256u, 1000u));

// ---------------------------------------------------------------------------
// Literal Algorithms 2 and 3: every lane keeps its own bitmap and intersects
// one ballot per round, charged through Warp::ballot/charge/popc.  The
// library builds all class bitmaps at once and charges a closed form; these
// loops are the oracle for both its lane values and its counters.
// ---------------------------------------------------------------------------

LaneMask ballot_bit(sim::Warp& w, const LaneArray<u32>& bits, LaneMask valid) {
  return w.ballot(bits.map([](u32 b) { return b & 1u; }), valid);
}

LaneArray<u32> below_masked(const LaneArray<u32>& bmp) {
  LaneArray<u32> masked;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    masked[lane] = bmp[lane] & ((1u << lane) - 1u);
  }
  return masked;
}

/// Algorithm 2, m <= 32: lane i is responsible for bucket i.
LaneArray<u32> oracle_histogram(sim::Warp& w, const LaneArray<u32>& bucket_id,
                                u32 m, LaneMask valid) {
  LaneArray<u32> histo_bmp = LaneArray<u32>::filled(valid);
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < ceil_log2(m); ++k) {
    const LaneMask ballot = ballot_bit(w, bits, valid);
    w.charge(1);  // select-and-mask (LOP3 on real hardware)
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      histo_bmp[lane] &= ((lane >> k) & 1u) ? ballot : ~ballot;
    }
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  return w.popc(histo_bmp);
}

/// Algorithm 3 (any m): keep the lanes whose bits match my element's bits,
/// then count the ones strictly below me.
LaneArray<u32> oracle_offsets(sim::Warp& w, const LaneArray<u32>& bucket_id,
                              u32 m, LaneMask valid) {
  LaneArray<u32> offset_bmp = LaneArray<u32>::filled(valid);
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < ceil_log2(m); ++k) {
    const LaneMask ballot = ballot_bit(w, bits, valid);
    w.charge(1);
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      offset_bmp[lane] &= (bits[lane] & 1u) ? ballot : ~ballot;
    }
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  w.charge(1);  // the below-lane mask
  return w.popc(below_masked(offset_bmp));
}

/// Algorithms 2 and 3 merged: one ballot per round feeds both bitmaps.
WarpRank oracle_rank(sim::Warp& w, const LaneArray<u32>& bucket_id, u32 m,
                     LaneMask valid) {
  LaneArray<u32> histo_bmp = LaneArray<u32>::filled(valid);
  LaneArray<u32> offset_bmp = LaneArray<u32>::filled(valid);
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < ceil_log2(m); ++k) {
    const LaneMask ballot = ballot_bit(w, bits, valid);
    w.charge(2);  // two select-and-mask updates off one ballot
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      offset_bmp[lane] &= (bits[lane] & 1u) ? ballot : ~ballot;
      histo_bmp[lane] &= ((lane >> k) & 1u) ? ballot : ~ballot;
    }
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  WarpRank r;
  r.histogram = w.popc(histo_bmp);
  w.charge(1);
  r.offsets = w.popc(below_masked(offset_bmp));
  return r;
}

/// Section 5.3 histogram (any m): lane i of group g is responsible for
/// bucket 32g + i.
std::vector<LaneArray<u32>> oracle_histogram_multi(
    sim::Warp& w, const LaneArray<u32>& bucket_id, u32 m, LaneMask valid) {
  const u32 groups = static_cast<u32>(ceil_div(m, kWarpSize));
  std::vector<LaneArray<u32>> bmp(groups, LaneArray<u32>::filled(valid));
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < ceil_log2(m); ++k) {
    const LaneMask ballot = ballot_bit(w, bits, valid);
    for (u32 g = 0; g < groups; ++g) {
      w.charge(1);
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        const u32 bucket = g * kWarpSize + lane;
        bmp[g][lane] &= ((bucket >> k) & 1u) ? ballot : ~ballot;
      }
    }
    w.charge(1);
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  std::vector<LaneArray<u32>> histo(groups);
  for (u32 g = 0; g < groups; ++g) histo[g] = w.popc(bmp[g]);
  return histo;
}

/// Lane values in order (groups one after the other), for readable
/// assertion messages.
std::vector<u32> lanes(const LaneArray<u32>& a) {
  return std::vector<u32>(a.data(), a.data() + kWarpSize);
}
std::vector<u32> lanes(const std::vector<LaneArray<u32>>& groups) {
  std::vector<u32> out;
  for (const auto& g : groups) out.insert(out.end(), g.data(), g.data() + kWarpSize);
  return out;
}

std::string describe(const sim::KernelEvents& e) {
  std::ostringstream os;
  os << "issue_slots=" << e.issue_slots << " ballot_rounds=" << e.ballot_rounds
     << " simt_insts=" << e.simt_insts
     << " simt_active_lanes=" << e.simt_active_lanes;
  return os.str();
}

// The mask shapes most likely to break lane<->bit plumbing: empty, lane 0
// only, lane 31 only, both alternating phases, and full.
constexpr LaneMask kEdgeMasks[] = {0x0u,        0x1u,        0x80000000u,
                                   0xAAAAAAAAu, 0x55555555u, kFullMask};

TEST(WarpOpsOracle, FusedPrimitivesMatchPerLaneLoopsInValuesAndCounters) {
  Device dev;
  dev.begin_kernel("oracle");
  sim::Warp w(dev, 0);
  std::mt19937 rng(2016);
  // Counter delta of one call, so the two sides are compared increment for
  // increment rather than by their running totals.
  const auto delta = [&](auto&& op) {
    const sim::KernelEvents before = dev.events();
    auto result = op();
    return std::make_pair(result, dev.events() - before);
  };
  constexpr int kMasksPerM = 40;
  for (u32 m = 1; m <= 256; ++m) {
    for (int t = 0; t < kMasksPerM; ++t) {
      LaneArray<u32> b;
      for (u32 i = 0; i < kWarpSize; ++i) b[i] = rng() % m;
      const LaneMask valid =
          t < 6 ? kEdgeMasks[t] : static_cast<LaneMask>(rng());
      SCOPED_TRACE(::testing::Message() << "m=" << m << " valid=0x" << std::hex
                                        << valid);
      const auto check_events = [&](const char* op, const sim::KernelEvents& got,
                                    const sim::KernelEvents& want) {
        ASSERT_TRUE(got == want) << op << ": library " << describe(got)
                                 << ", oracle " << describe(want);
      };
      if (m <= kWarpSize) {
        const auto [h, h_ev] =
            delta([&] { return warp_histogram(w, b, m, valid); });
        const auto [h_ref, h_ref_ev] =
            delta([&] { return oracle_histogram(w, b, m, valid); });
        ASSERT_EQ(lanes(h), lanes(h_ref));
        check_events("warp_histogram", h_ev, h_ref_ev);

        const auto [o, o_ev] =
            delta([&] { return warp_offsets(w, b, m, valid); });
        const auto [o_ref, o_ref_ev] =
            delta([&] { return oracle_offsets(w, b, m, valid); });
        ASSERT_EQ(lanes(o), lanes(o_ref));
        check_events("warp_offsets", o_ev, o_ref_ev);

        const auto [r, r_ev] = delta([&] { return warp_rank(w, b, m, valid); });
        const auto [r_ref, r_ref_ev] =
            delta([&] { return oracle_rank(w, b, m, valid); });
        ASSERT_EQ(lanes(r.histogram), lanes(r_ref.histogram));
        ASSERT_EQ(lanes(r.offsets), lanes(r_ref.offsets));
        check_events("warp_rank", r_ev, r_ref_ev);
      }
      const auto [hm, hm_ev] =
          delta([&] { return warp_histogram_multi(w, b, m, valid); });
      const auto [hm_ref, hm_ref_ev] =
          delta([&] { return oracle_histogram_multi(w, b, m, valid); });
      ASSERT_EQ(lanes(hm), lanes(hm_ref));
      check_events("warp_histogram_multi", hm_ev, hm_ref_ev);

      const auto [om, om_ev] =
          delta([&] { return warp_offsets_multi(w, b, m, valid); });
      const auto [om_ref, om_ref_ev] =
          delta([&] { return oracle_offsets(w, b, m, valid); });
      ASSERT_EQ(lanes(om), lanes(om_ref));
      check_events("warp_offsets_multi", om_ev, om_ref_ev);
    }
  }
  dev.end_kernel();
}

TEST(WarpOpsCost, BallotRoundsScaleWithLogM) {
  // The defining property of Algorithm 2: ceil(log2 m) ballots, not m.
  Device dev;
  dev.begin_kernel("count");
  sim::Warp w(dev, 0);
  const auto count_ballots = [&](u32 m) {
    const u64 before = dev.events().issue_slots;
    warp_histogram(w, LaneArray<u32>::filled(0), m);
    return dev.events().issue_slots - before;
  };
  const u64 c2 = count_ballots(2);
  const u64 c32 = count_ballots(32);
  // 1 round vs 5 rounds (2 slots per round + final popc).
  EXPECT_EQ(c2, 1 * 2 + 1);
  EXPECT_EQ(c32, 5 * 2 + 1);
  dev.end_kernel();
}

TEST(WarpOpsCost, RejectsOutOfRangeM) {
  Device dev;
  dev.begin_kernel("bad");
  sim::Warp w(dev, 0);
  EXPECT_THROW(warp_histogram(w, LaneArray<u32>{}, 33), std::logic_error);
  EXPECT_THROW(warp_offsets(w, LaneArray<u32>{}, 0), std::logic_error);
  dev.end_kernel();
}

}  // namespace
}  // namespace ms::prim
