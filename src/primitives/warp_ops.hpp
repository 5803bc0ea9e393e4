// Ballot-based warp-level histogram and local-offset computation --
// Algorithms 2 and 3 of the paper, the computational core of every
// multisplit variant (and of the radix sort ranking kernel, which is why
// they live in the primitives layer).
//
// The idea: instead of materializing the binary bucket matrix H-bar, each
// thread keeps one 32-bit bitmap in a register.  ceil(log2 m) ballot rounds
// broadcast one bit of every lane's bucket ID; each thread intersects the
// ballots compatible with the bucket it is responsible for (histogram) or
// with its own element's bucket (offsets).  A final popc produces the
// count / rank.  No shared memory, no divergence.
//
// The simulator runs the merged form the paper mentions: one pass builds
// the class bitmap M[c] for every class c of the low r = ceil(log2 m)
// bucket bits (sim::simd::bit_ballots + class_masks).  M[c] is the final
// bitmap of the lane responsible for bucket c and of every lane whose own
// bucket is in class c, so each output is one popc of an M entry.  Each
// primitive then charges, in one charge_warp_op, the exact counter deltas
// of the per-lane ballot loop it replaces; tests/test_warp_ops.cpp keeps
// those loops as the oracle for both the values and the charges.
#pragma once

#include <vector>

#include "primitives/warp_scan.hpp"

namespace ms::prim {

namespace detail {

/// Largest r = ceil(log2 m) the fused bitmap build handles: 2^8 class
/// words fit on the stack.  Only warp_*_multi accept larger m.
inline constexpr u32 kMaxFusedRounds = 8;

/// M[c] for every class c in [0, 2^rounds): the valid lanes whose low
/// `rounds` bucket bits equal c.
inline void class_masks(const LaneArray<u32>& bucket_id, u32 rounds,
                        LaneMask valid, u32* M) {
  u32 ballots[kMaxFusedRounds];
  sim::simd::bit_ballots(bucket_id.data(), rounds, valid, ballots);
  sim::simd::class_masks(rounds, ballots, valid, M);
}

/// The counters of a per-lane ballot loop: `rounds` ballots over the valid
/// lanes, `popcs` full-warp popcs, and `issue_slots` issue slots in all
/// (ballots, select-and-mask updates, popcs and the prefix mask).
inline void charge_ballot_loop(Warp& w, u32 rounds, LaneMask valid,
                               u64 issue_slots, u64 popcs) {
  const u64 pv = static_cast<u64>(std::popcount(valid));
  w.charge_warp_op(issue_slots, /*ballot_rounds=*/rounds,
                   /*simt_insts=*/rounds + popcs,
                   /*simt_active_lanes=*/u64{rounds} * pv + kWarpSize * popcs);
}

/// Lanes strictly below `lane`: the part of its class bitmap that counts
/// toward lane's rank.
constexpr LaneMask lanes_below(u32 lane) { return (1u << lane) - 1u; }

/// Algorithm 3 for rounds <= kMaxFusedRounds (shared by warp_offsets and
/// warp_offsets_multi): lane i's rank is its own class bitmap restricted to
/// the lanes below it.
inline LaneArray<u32> offsets(Warp& w, const LaneArray<u32>& bucket_id,
                              u32 rounds, LaneMask valid) {
  alignas(32) u32 M[1u << kMaxFusedRounds];
  class_masks(bucket_id, rounds, valid, M);
  charge_ballot_loop(w, rounds, valid, /*issue_slots=*/2u * rounds + 2,
                     /*popcs=*/1);
  const u32 mb = (1u << rounds) - 1u;
  LaneArray<u32> out;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    out[lane] = static_cast<u32>(
        std::popcount(M[bucket_id[lane] & mb] & lanes_below(lane)));
  }
  return out;
}

}  // namespace detail

/// Algorithm 2: warp-level histogram for m <= 32 buckets.
/// Lane i returns the number of valid elements of this warp whose bucket ID
/// is i.  `valid` masks the lanes that actually hold elements (tail warps);
/// invalid lanes are counted in no bucket.  Lanes past the last class read
/// M[i & (2^r - 1)], the wrap-around the per-lane (lane >> k) & 1 bit walk
/// gives them.
inline LaneArray<u32> warp_histogram(Warp& w, const LaneArray<u32>& bucket_id,
                                     u32 m, LaneMask valid = kFullMask) {
  check(m >= 1 && m <= kWarpSize, "warp_histogram: m out of range");
  const u32 rounds = ceil_log2(m);
  alignas(32) u32 M[kWarpSize];
  detail::class_masks(bucket_id, rounds, valid, M);
  detail::charge_ballot_loop(w, rounds, valid, /*issue_slots=*/2u * rounds + 1,
                             /*popcs=*/1);
  const u32 mb = (1u << rounds) - 1u;
  LaneArray<u32> out;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    out[lane] = static_cast<u32>(std::popcount(M[lane & mb]));
  }
  return out;
}

/// Algorithm 3: warp-level local offsets for m <= 32 buckets.
/// Lane i returns the number of valid elements with lane index < i that
/// share lane i's bucket -- its stable rank within the bucket, local to the
/// warp.
inline LaneArray<u32> warp_offsets(Warp& w, const LaneArray<u32>& bucket_id,
                                   u32 m, LaneMask valid = kFullMask) {
  check(m >= 1 && m <= kWarpSize, "warp_offsets: m out of range");
  return detail::offsets(w, bucket_id, ceil_log2(m), valid);
}

/// Merged histogram + local offsets (the paper notes Algorithms 2 and 3
/// "share many common operations [and] can be merged into a single
/// procedure" -- one ballot per round feeds both bitmaps).  This is what
/// the post-scan stages use, where both results are needed.
struct WarpRank {
  LaneArray<u32> histogram;  // lane d: count of bucket d
  LaneArray<u32> offsets;    // lane i: stable rank of element i in its bucket
};

inline WarpRank warp_rank(Warp& w, const LaneArray<u32>& bucket_id, u32 m,
                          LaneMask valid = kFullMask) {
  check(m >= 1 && m <= kWarpSize, "warp_rank: m out of range");
  const u32 rounds = ceil_log2(m);
  // One class-mask build serves both outputs, charged as the merged loop's
  // r ballots, 2r select-mask slots, the prefix mask and two popcs.
  alignas(32) u32 M[kWarpSize];
  detail::class_masks(bucket_id, rounds, valid, M);
  detail::charge_ballot_loop(w, rounds, valid, /*issue_slots=*/3u * rounds + 3,
                             /*popcs=*/2);
  const u32 mb = (1u << rounds) - 1u;
  WarpRank r;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    r.histogram[lane] = static_cast<u32>(std::popcount(M[lane & mb]));
    r.offsets[lane] = static_cast<u32>(
        std::popcount(M[bucket_id[lane] & mb] & detail::lanes_below(lane)));
  }
  return r;
}

/// Section 5.3 extension: histogram for m > 32.  Thread i is responsible
/// for buckets i, i+32, i+64, ...; the result is one LaneArray per group of
/// 32 buckets (group g covers buckets [32g, 32g+32)).  All histogram state
/// scales by ceil(m/32), exactly the linearization the paper describes.
inline std::vector<LaneArray<u32>> warp_histogram_multi(
    Warp& w, const LaneArray<u32>& bucket_id, u32 m,
    LaneMask valid = kFullMask) {
  const u32 groups = static_cast<u32>(ceil_div(m, kWarpSize));
  const u32 rounds = ceil_log2(m);
  if (rounds <= detail::kMaxFusedRounds) {
    // Up to 256 classes fit the fused bitmap build.  Group g's lane i is
    // responsible for bucket 32g + i, i.e. class (32g + i) & (2^r - 1).
    alignas(32) u32 M[1u << detail::kMaxFusedRounds];
    detail::class_masks(bucket_id, rounds, valid, M);
    detail::charge_ballot_loop(w, rounds, valid,
                               /*issue_slots=*/u64{rounds} * (groups + 2) +
                                   groups,
                               /*popcs=*/groups);
    const u32 mb = (1u << rounds) - 1u;
    std::vector<LaneArray<u32>> histo(groups);
    for (u32 g = 0; g < groups; ++g) {
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        histo[g][lane] = static_cast<u32>(
            std::popcount(M[(g * kWarpSize + lane) & mb]));
      }
    }
    return histo;
  }
  // m > 256: the per-lane ballot loop, one bitmap per group.
  std::vector<LaneArray<u32>> bmp(groups, LaneArray<u32>::filled(valid));
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < rounds; ++k) {
    const LaneMask ballot =
        w.ballot(bits.map([](u32 b) { return b & 1u; }), valid);
    for (u32 g = 0; g < groups; ++g) {
      w.charge(1);
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        const u32 bucket = g * kWarpSize + lane;
        const bool my_bit = (bucket >> k) & 1u;
        bmp[g][lane] &= my_bit ? ballot : ~ballot;
      }
    }
    w.charge(1);
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  std::vector<LaneArray<u32>> histo(groups);
  for (u32 g = 0; g < groups; ++g) histo[g] = w.popc(bmp[g]);
  return histo;
}

/// Section 5.3 extension: local offsets for m > 32.  The offset bitmap is
/// per-element (not per-responsible-bucket), so a single bitmap suffices
/// regardless of m; only the number of ballot rounds grows.
inline LaneArray<u32> warp_offsets_multi(Warp& w,
                                         const LaneArray<u32>& bucket_id,
                                         u32 m, LaneMask valid = kFullMask) {
  const u32 rounds = ceil_log2(m);
  if (rounds <= detail::kMaxFusedRounds) {
    return detail::offsets(w, bucket_id, rounds, valid);
  }
  // m > 256: the per-lane ballot loop, one bitmap whatever m is.
  LaneArray<u32> offset_bmp = LaneArray<u32>::filled(valid);
  LaneArray<u32> bits = bucket_id;
  for (u32 k = 0; k < rounds; ++k) {
    const LaneMask ballot =
        w.ballot(bits.map([](u32 b) { return b & 1u; }), valid);
    w.charge(1);
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const bool my_bit = bits[lane] & 1u;
      offset_bmp[lane] &= my_bit ? ballot : ~ballot;
    }
    bits = bits.map([](u32 b) { return b >> 1; });
  }
  w.charge(1);
  LaneArray<u32> masked;
  for (u32 lane = 0; lane < kWarpSize; ++lane) {
    masked[lane] = offset_bmp[lane] & detail::lanes_below(lane);
  }
  return w.popc(masked);
}

}  // namespace ms::prim
