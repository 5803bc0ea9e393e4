// Fused batched multisplit kernels for the serving executor.
//
// The serving shape (millions of tiny requests: n <= 4096, m <= 32) is the
// launch-overhead wall the ROADMAP calls out: one launch sequence per
// request spends more modeled time in kernel_launch_us than in the split
// itself.  Following the warp-level-parallelism replication idea
// (PAPERS.md, arXiv:1501.01405), these kernels pack many *independent*
// problems into one fused launch, one problem per warp -- or per sub-warp
// slot when the problem is small enough -- so thousands of requests share
// a single launch overhead.
//
// Two packing classes:
//
//   kSub  (n <= 8, m <= 8):  four 8-lane slots per warp.  Each slot's
//         bucket IDs are lifted into a composite class space
//         (class = slot * 8 + bucket, < 32), so ONE shared warp_rank over
//         m = 32 composite classes ranks all four problems at once:
//         composite classes are problem-disjoint, so histogram lane d is
//         slot (d / 8)'s count of its local bucket (d % 8) and the
//         offsets are per-problem stable ranks.
//   kWarp (otherwise, n <= 4096, m <= 32):  one problem per warp, the
//         single-warp specialization of Direct MS (warp_ms.hpp) with the
//         histogram matrix, device scan and their launches all collapsed
//         into warp registers: pass A accumulates the ballot histogram
//         over ceil(n/32) rounds, a warp_exclusive_scan replaces the
//         device-wide scan, pass B recomputes ranks (footnote 6:
//         recomputation beats a global round-trip) and scatters.
//
// Problems that don't fit a class (n or m too large, or a non-stable
// method selected) fall back to the ordinary plan path; see serving.cpp.
//
// Both kernels produce the *stable* partition of every packed problem --
// bit-identical output to any stable method run sequentially on the same
// keys -- and write each problem's bucket histogram to a counts buffer so
// the host can assemble bucket_offsets without another launch.
//
// Determinism: packing metadata lives in host vectors indexed by warp id,
// every warp reads/writes only its own slot regions, and the launch goes
// through launch_warps' fixed 16-warp item decomposition -- so outputs
// and merged accounting are bit-identical for any MS_HOST_THREADS.
#pragma once

#include <algorithm>
#include <vector>

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/warp_ops.hpp"
#include "sim/kernel.hpp"

namespace ms::split {

/// Which fused-launch class a problem packs into (kNone: plan path).
enum class PackClass : u8 { kSub, kWarp, kNone };

/// Packing shape constants.
inline constexpr u32 kSubSlotWidth = 8;    ///< keys per sub-warp slot
inline constexpr u32 kSubSlotsPerWarp = kWarpSize / kSubSlotWidth;
inline constexpr u64 kPackMaxN = 4096;     ///< largest packable problem
inline constexpr u32 kPackMaxM = kWarpSize;

/// Classify one problem.  Depends ONLY on the problem's own shape and the
/// method selected for it -- never on what else is in the batch -- so a
/// problem's class (and with it its modeled per-problem cost) is identical
/// at every batch size.
inline PackClass classify_packing(u64 n, u32 m, Method selected) {
  if (n == 0 || n > kPackMaxN || m == 0 || m > kPackMaxM) {
    return PackClass::kNone;
  }
  // The fused kernels produce the stable partition; a non-stable selected
  // method (randomized insertion) has no such contract, so honor it on the
  // plan path instead of silently changing semantics.
  if (!method_traits(selected).stable) return PackClass::kNone;
  if (n <= kSubSlotWidth && m <= kSubSlotWidth) return PackClass::kSub;
  return PackClass::kWarp;
}

/// One packed problem as the fused kernels see it: shape, bucket function
/// and the lane window it owns inside the packed buffers.  Filled by the
/// serving executor's packer.
struct PackedProblem {
  u64 n = 0;
  u32 m = 0;
  const BucketFunction* bucket = nullptr;
  /// Element index of this problem's first key in the packed key buffers
  /// (kSub: warp_base + slot * kSubSlotWidth; kWarp: a 32-multiple).
  u64 base = 0;
  /// Element index of this problem's m histogram lanes in the counts
  /// buffer.
  u64 counts_base = 0;
};

namespace detail {

/// Clamped composite/bucket evaluation for one lane.  Inactive lanes get
/// bucket 0; malformed bucket functions (b >= m) are clamped for memory
/// safety -- the serving validator rejects the problem afterwards.
inline u32 safe_bucket(const PackedProblem& p, u32 key) {
  const u32 b = (*p.bucket)(key);
  return b < p.m ? b : p.m - 1;
}

}  // namespace detail

/// Sub-warp fused launch: problems[w * kSubSlotsPerWarp + s] (nullptr =
/// empty slot) runs in slot s of warp w.  keys_in holds each problem's
/// keys at its base (staged by the host); keys_out receives the stable
/// partition in the same window; counts lane (counts_base + d) receives
/// the count of bucket d.
inline void batch_ms_sub(sim::Device& dev,
                         const sim::DeviceBuffer<u32>& keys_in,
                         sim::DeviceBuffer<u32>& keys_out,
                         sim::DeviceBuffer<u32>& counts,
                         const std::vector<const PackedProblem*>& problems) {
  const u64 num_warps = ceil_div(problems.size(), u64{kSubSlotsPerWarp});
  sim::launch_warps(dev, "batch_ms_sub", num_warps, [&](sim::Warp& w,
                                                        u64 wid) {
    const u64 base = wid * kWarpSize;
    const u64 p0 = wid * kSubSlotsPerWarp;
    // Active lanes: lane s*8+i holds key i of slot s's problem.
    LaneMask valid = 0;
    for (u32 s = 0; s < kSubSlotsPerWarp; ++s) {
      const u64 pi = p0 + s;
      if (pi >= problems.size() || problems[pi] == nullptr) continue;
      valid |= sim::tail_mask(problems[pi]->n) << (s * kSubSlotWidth);
    }
    if (valid == 0) return;
    const auto keys = w.load(keys_in, base, valid);
    // One erased-bucket evaluation plus the composite-class lift
    // (class = slot * 8 + bucket) per round; this warp has one round.
    w.charge(bucket_charge_cost<BucketFunction>);
    w.charge(1);
    LaneArray<u32> comp{};
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const u32 s = lane / kSubSlotWidth;
      const u64 pi = p0 + s;
      u32 b = 0;
      if ((valid >> lane) & 1u) {
        b = detail::safe_bucket(*problems[pi], keys[lane]);
      }
      comp[lane] = s * kSubSlotWidth + b;
    }
    // ONE shared ranking over the 32 composite classes serves all four
    // slots: histogram lane d = slot d/8's count of bucket d%8, offsets =
    // stable rank within (slot, bucket).
    const auto rank = prim::warp_rank(w, comp, kWarpSize, valid);
    const auto excl = prim::warp_exclusive_scan(w, rank.histogram);
    // Start of the lane's bucket within its slot: composite-class scan at
    // the own class minus the scan at the slot's first class.
    const auto cls_start = w.shfl(excl, comp, valid);
    const auto slot_start = w.shfl(
        excl, comp.map([](u32 c) { return c & ~(kSubSlotWidth - 1); }),
        valid);
    w.charge(1);  // start-in-slot subtraction
    w.charge(2);  // destination address arithmetic
    LaneArray<u64> dest{};
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const u32 slot_base = (lane / kSubSlotWidth) * kSubSlotWidth;
      dest[lane] = base + slot_base +
                   (cls_start[lane] - slot_start[lane]) +
                   rank.offsets[lane];
    }
    w.scatter(keys_out, dest, keys, valid);
    // Composite histogram lanes ARE the per-slot bucket counts, laid out
    // contiguously: one coalesced store covers all four problems.
    w.store(counts, base, rank.histogram, kFullMask);
  });
}

/// Warp-granularity fused launch: problems[w] runs entirely in warp w,
/// looping ceil(n/32) rounds over its window [base, base + n).
inline void batch_ms_warp(sim::Device& dev,
                          const sim::DeviceBuffer<u32>& keys_in,
                          sim::DeviceBuffer<u32>& keys_out,
                          sim::DeviceBuffer<u32>& counts,
                          const std::vector<const PackedProblem*>& problems) {
  sim::launch_warps(dev, "batch_ms_warp", problems.size(), [&](sim::Warp& w,
                                                               u64 wid) {
    const PackedProblem* p = problems[wid];
    if (p == nullptr || p->n == 0) return;
    const u64 rounds = ceil_div(p->n, u64{kWarpSize});
    const auto eval = [&](const LaneArray<u32>& keys,
                          LaneMask mask) {
      w.charge(bucket_charge_cost<BucketFunction>);
      LaneArray<u32> b{};
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        if ((mask >> lane) & 1u) b[lane] = detail::safe_bucket(*p, keys[lane]);
      }
      return b;
    };
    // Pass A: ballot histogram of the whole problem (Direct MS pre-scan
    // collapsed into registers).
    LaneArray<u32> acc{};
    for (u64 r = 0; r < rounds; ++r) {
      const u64 rb = p->base + r * kWarpSize;
      const LaneMask mask = sim::tail_mask(p->n - r * kWarpSize);
      const auto keys = w.load(keys_in, rb, mask);
      const auto buckets = eval(keys, mask);
      acc = prim::lane_add(w, acc,
                           prim::warp_histogram(w, buckets, p->m, mask));
    }
    // The device-wide scan of warp_ms.hpp collapses to one warp scan.
    const auto hscan = prim::warp_exclusive_scan(w, acc);
    // Pass B: recompute ranks per round (footnote 6) and scatter to the
    // stable position inside this problem's output window.
    LaneArray<u32> done{};
    for (u64 r = 0; r < rounds; ++r) {
      const u64 rb = p->base + r * kWarpSize;
      const LaneMask mask = sim::tail_mask(p->n - r * kWarpSize);
      const auto keys = w.load(keys_in, rb, mask);
      const auto buckets = eval(keys, mask);
      const auto rank = prim::warp_rank(w, buckets, p->m, mask);
      const auto prev = w.shfl(done, buckets, mask);
      const auto start = w.shfl(hscan, buckets, mask);
      w.charge(2);  // destination address arithmetic
      LaneArray<u64> dest{};
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        dest[lane] = p->base + start[lane] + prev[lane] + rank.offsets[lane];
      }
      w.scatter(keys_out, dest, keys, mask);
      done = prim::lane_add(w, done, rank.histogram);
    }
    w.charge(1);  // counts address setup
    w.store(counts, p->counts_base, acc, sim::tail_mask(p->m));
  });
}

/// Closed-form modeled cost of one packed problem, in milliseconds,
/// excluding the (shared) kernel launch overhead.  This is the
/// per-problem cost the serving executor reports: a deterministic
/// function of (profile, n, m, class) ONLY, so it is bit-identical across
/// batch compositions, batch sizes and host thread counts -- the
/// tolerance-0 serving gates compare it exactly between the batched and
/// unbatched paths.
///
/// Conventions (documented, deliberately input-independent):
///   - "as-if-full": a sub-warp problem is charged 1/4 of its warp's
///     shared instruction stream whether or not the other slots are
///     occupied;
///   - cold L2: every touched sector is charged as a DRAM transaction;
///   - worst-case scatter fragmentation: the stable scatter is charged
///     one lane-order run per element (real batches usually do better --
///     the fused launch's LIVE accounting, which drives the device
///     clock, counts the organic figure).
inline f64 packed_problem_cost(const sim::DeviceProfile& prof, u64 n, u32 m,
                               PackClass cls) {
  if (cls == PackClass::kNone || n == 0) return 0.0;
  const f64 sector = prof.transaction_bytes;
  f64 issue_slots = 0.0;   // plain + intrinsic slots, incl. warp overhead
  f64 replays = 0.0;       // scatter replays (penalty-weighted by the model)
  f64 sectors = 0.0;       // DRAM transactions, reads + writes
  if (cls == PackClass::kSub) {
    // Shared per-warp stream (see batch_ms_sub): load 1, bucket 2 + lift
    // 1, warp_rank(m=32 -> 5 rounds) 3*5+3, exclusive scan 11, two start
    // shfls + subtraction 3, address math 2, scatter 1, counts store 1.
    const f64 shared = 1 + 3 + (3 * 5.0 + 3) + 11 + 3 + 2 + 1 + 1 +
                       static_cast<f64>(prof.warp_overhead_slots);
    issue_slots = shared / kSubSlotsPerWarp;
    replays = static_cast<f64>(kWarpSize - 1) / kSubSlotsPerWarp;
    // 32 keys in + 32 out + 32 counts lanes, 4 bytes each, shared 4 ways.
    sectors = 3.0 * (kWarpSize * 4.0 / sector) / kSubSlotsPerWarp;
  } else {
    const f64 rounds = static_cast<f64>(ceil_div(n, u64{kWarpSize}));
    const f64 r = static_cast<f64>(ceil_log2(m));
    // Pass A per round: load 1, bucket 2, histogram 2r+1, lane_add 1.
    // Scan: 11.  Pass B per round: load 1, bucket 2, rank 3r+3, two
    // shfls 2, address 2, scatter 1, lane_add 1.  Epilogue: counts
    // address 1 + store 1.
    issue_slots = rounds * ((1 + 2 + 2 * r + 1 + 1) +
                            (1 + 2 + 3 * r + 3 + 2 + 2 + 1 + 1)) +
                  11 + 2 + static_cast<f64>(prof.warp_overhead_slots);
    replays = rounds * (kWarpSize - 1);
    // Keys read twice (two passes) + written once, plus m counts lanes.
    sectors = rounds * 3.0 * (kWarpSize * 4.0 / sector) +
              std::max(1.0, m * 4.0 / sector);
  }
  const f64 issue_ms = (issue_slots + replays * prof.scatter_issue_penalty) /
                       (prof.issue_rate_gips * 1e9) * 1e3;
  const f64 mem_ms = sectors * sector / (prof.mem_bandwidth_gbps * 1e9) * 1e3;
  return std::max(issue_ms, mem_ms);
}

}  // namespace ms::split
