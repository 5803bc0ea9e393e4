// Randomized insertion multisplit (paper Section 3.5): the PRAM
// dart-throwing algorithm of Meyer [18], refactored for a block-based GPU.
//
//   1. A global histogram sizes a relaxed buffer per bucket (x times the
//      expected block share, x = cfg.relaxation).
//   2. Each block keeps an x-relaxed shared-memory buffer per bucket and
//      throws each of its keys at a random slot of its bucket's buffer;
//      collisions linearly probe for an adjacent empty slot.  Every probe
//      round costs the warp its full width (divergence: lanes that already
//      placed their key still wait), which is exactly the contention
//      penalty the paper identifies as this method's downfall.
//   3. When a shared buffer fills up, the block cooperatively flushes it
//      (including empty slots) to a cursor-reserved region of that
//      bucket's global staging area and empties it; all remaining buffers
//      are flushed at block end.
//   4. A final scan-based compaction squeezes the empty slots out of the
//      ~x*n staging area.
//
// The result is a valid (contiguous, ascending-bucket) multisplit but NOT
// stable -- intra-bucket order is randomized.  Key-only, like the paper's
// treatment.  The staging footprint and the compaction volume scale with
// x while the collision rate shrinks with it: the trade-off Section 3.5
// analyzes (best x ~= 2, still ~2x slower than radix sort).
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/compact.hpp"
#include "primitives/histogram.hpp"

namespace ms::split::detail {

/// SplitMix64: cheap, well-distributed per-element hash for dart throwing.
inline u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename BucketFn>
MultisplitResult randomized_insertion_ms(Device& dev,
                                         const DeviceBuffer<u32>& keys_in,
                                         DeviceBuffer<u32>& keys_out, u32 m,
                                         BucketFn bucket_of,
                                         const MultisplitConfig& cfg) {
  check(m >= 1 && m <= kWarpSize,
        "randomized_insertion supports m <= 32 buckets");
  const u64 n = keys_in.size();
  const u32 nw = cfg.warps_per_block;
  const u32 tile = nw * kWarpSize;
  const u32 nblocks = static_cast<u32>(ceil_div(n, tile));
  constexpr u32 kBucketCost = bucket_charge_cost<BucketFn>;

  MultisplitResult result;
  const sim::SiteId flush_site = dev.site_id("randomized/flush_scatter");

  sim::Stage histogram(dev, "randomized/histogram");
  // ---- stage 1: global histogram to size the relaxed buffers ----------
  DeviceBuffer<u32> hist(dev, m);
  prim::histogram_block_local(dev, keys_in, hist, m, bucket_of,
                              cfg.warps_per_block);

  // Per-block per-bucket shared capacity: x times the expected tile share,
  // with a floor so small buckets still have probe room.  (Host-side
  // arithmetic on the m-entry histogram -- launch-parameter computation.)
  std::vector<u32> cap(m), sm_base(m + 1, 0);
  for (u32 d = 0; d < m; ++d) {
    const f64 expected = static_cast<f64>(hist[d]) * tile / static_cast<f64>(n);
    cap[d] = std::max<u32>(16, static_cast<u32>(cfg.relaxation * expected) + 1);
    sm_base[d + 1] = sm_base[d] + cap[d];
  }
  const u32 cap_total = sm_base[m];

  // Global staging: bucket-major regions, cursor-reserved by flushes.
  // Sized for the end-of-block flushes plus the worst-case mid-flushes
  // (each mid-flush of bucket d clears at least ~half its buffer, so at
  // most ~2 * hist[d] / cap[d] of them happen).
  std::vector<u64> gbase(m + 1, 0);
  for (u32 d = 0; d < m; ++d) {
    const u64 end_flushes = static_cast<u64>(cap[d]) * nblocks;
    const u64 clears_per_flush =
        std::max<u32>(cap[d] / 2, cap[d] > kWarpSize ? cap[d] - kWarpSize : 1);
    const u64 mid_flushes =
        (hist[d] / clears_per_flush + 2) * static_cast<u64>(cap[d]);
    gbase[d + 1] = gbase[d] + end_flushes + mid_flushes;
  }
  DeviceBuffer<u32> staged_keys(dev, gbase[m], "randomized/staged_keys");
  DeviceBuffer<u32> staged_flags(dev, gbase[m], "randomized/staged_flags");
  DeviceBuffer<u32> cursor(dev, m, "randomized/cursor");
  // staged_keys must be cleared too: the worst-case staging slack beyond
  // the final cursors is never flushed to, yet the flag-driven compaction
  // below streams the whole buffer (initcheck would rightly flag it).
  sim::device_fill<u32>(dev, staged_keys, 0);
  sim::device_fill<u32>(dev, staged_flags, 0);
  sim::device_fill<u32>(dev, cursor, 0);
  result.add_stage(&StageTimings::prescan_ms, histogram.end());

  sim::Stage insertion(dev, "randomized/insertion");
  // ---- stage 2: dart throwing into shared buffers, flush on pressure ---
  sim::launch_blocks(dev, "randomized_insertion", nblocks, nw, [&](Block& blk) {
    auto sm_keys = blk.shared<u32>(cap_total, "randomized/sm_keys");
    auto sm_occ = blk.shared<u32>(cap_total, "randomized/sm_occ");
    // Benign-race annotation: warps share these buffers within a barrier
    // epoch on purpose.  Slot ownership is claimed through the serialized
    // shared atomic on sm_occ, and the mid-kernel flushes rely on the
    // simulator's run-each-warp-to-completion execution order (see the
    // dart-throwing comment below).  Racecheck would rightly flag that as
    // scheduling-dependent on real hardware; here it is the modeled
    // contention experiment itself.
    sm_keys.annotate_warp_serialized();
    sm_occ.annotate_warp_serialized();
    const u64 tile_base = static_cast<u64>(blk.block_id()) * tile;

    // Zero occupancy flags AND the key buffer cooperatively: flushes copy
    // every slot of a buffer, empties included, so unclaimed key slots are
    // read later and must hold defined values.
    blk.for_each_warp([&](Warp& w) {
      for (u32 base = w.warp_in_block() * kWarpSize; base < cap_total;
           base += nw * kWarpSize) {
        const LaneMask mask = sim::tail_mask(cap_total - base);
        w.smem_write(sm_occ, LaneArray<u32>::iota(base), LaneArray<u32>{},
                     mask);
        w.smem_write(sm_keys, LaneArray<u32>::iota(base), LaneArray<u32>{},
                     mask);
      }
    });
    blk.sync();

    // Flush bucket d's shared buffer (all cap[d] slots, empties included)
    // to a cursor-reserved span of its global region, then empty it.
    const auto flush_bucket = [&](Warp& w, u32 d) {
      const auto old = w.atomic_add(cursor, LaneArray<u64>::filled(d),
                                    LaneArray<u32>::filled(cap[d]), 1u);
      const u64 dst0 = gbase[d] + old[0];
      check(dst0 + cap[d] <= gbase[d + 1],
            "randomized_insertion: staging region overflow");
      for (u32 off = 0; off < cap[d]; off += kWarpSize) {
        const LaneMask mask = sim::tail_mask(cap[d] - off);
        const auto sidx = LaneArray<u32>::iota(sm_base[d] + off);
        const auto k = w.smem_read(sm_keys, sidx, mask);
        const auto occ = w.smem_read(sm_occ, sidx, mask);
        w.charge(2);
        LaneArray<u64> idx{};
        for (u32 lane = 0; lane < kWarpSize; ++lane)
          idx[lane] = dst0 + off + lane;
        const auto flag = occ.map([](u32 o) { return o != 0 ? 1u : 0u; });
        {
          sim::ScopedSite site(dev, flush_site);
          w.scatter(staged_keys, idx, k, mask);
          w.scatter(staged_flags, idx, flag, mask);
        }
        w.smem_write(sm_occ, sidx, LaneArray<u32>{}, mask);
      }
    };

    // Dart throwing.  The simulator runs a block's warps sequentially
    // between barriers, so the claim loop below is race-free by
    // construction while paying the same contention charges a real,
    // atomically-synchronized block would.
    blk.for_each_warp([&](Warp& w) {
      const u32 wi = w.warp_in_block();
      const u64 base = tile_base + static_cast<u64>(wi) * kWarpSize;
      const LaneMask mask = prim::detail::row_mask(base, n);
      if (mask == 0) return;
      const auto keys = w.load(keys_in, base, mask);
      w.charge(kBucketCost);
      const auto buckets = keys.map(bucket_of);
      LaneArray<u32> slot{};
      LaneArray<u32> probes{};
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        if (!lane_active(mask, lane)) continue;
        const u64 h = splitmix64(cfg.seed ^ (base + lane));
        slot[lane] = sm_base[buckets[lane]] +
                     static_cast<u32>(h % cap[buckets[lane]]);
      }
      w.charge(4);  // hash + modulo
      LaneMask pending = mask;
      while (pending != 0) {
        // A lane that has probed its bucket's full capacity found it full:
        // flush that bucket (once) and restart the probe sequences of every
        // pending lane targeting it -- they all now see an empty buffer.
        for_each_lane(pending, [&](u32 lane) {
          const u32 d = buckets[lane];
          if (probes[lane] >= cap[d]) {
            flush_bucket(w, d);
            for_each_lane(pending, [&](u32 other) {
              if (buckets[other] == d) probes[other] = 0;
            });
          }
        });
        // Attempt: claim slots; the first claimant of a slot in lane order
        // sees old == 0 (the serialized shared atomic), losers probe on.
        const auto old =
            w.smem_atomic_add(sm_occ, slot, LaneArray<u32>::filled(1),
                              pending);
        LaneMask placed = 0;
        for_each_lane(pending, [&](u32 lane) {
          if (old[lane] == 0) placed |= (1u << lane);
        });
        w.smem_write(sm_keys, slot, keys, placed);
        pending &= ~placed;
        w.charge(2);  // ballot + predicate upkeep
        for_each_lane(pending, [&](u32 lane) {
          const u32 d = buckets[lane];
          u32 s = slot[lane] + 1;
          if (s >= sm_base[d] + cap[d]) s = sm_base[d];
          slot[lane] = s;
          probes[lane] += 1;
        });
      }
    });
    blk.sync();

    // End-of-block flush of every buffer.
    blk.for_each_warp([&](Warp& w) {
      for (u32 d = w.warp_in_block(); d < m; d += nw) flush_bucket(w, d);
    });
  });
  result.add_stage(&StageTimings::scan_ms, insertion.end());

  // ---- stage 3: compact the empty slots out ----------------------------
  sim::Stage compaction(dev, "randomized/compaction");
  const u64 kept =
      prim::compact_by_flags<u32>(dev, staged_keys, staged_flags, keys_out);
  check(kept == n, "randomized_insertion: lost elements");
  result.add_stage(&StageTimings::postscan_ms, compaction.end());

  result.bucket_offsets.assign(m + 1, 0);
  for (u32 d = 0; d < m; ++d)
    result.bucket_offsets[d + 1] = result.bucket_offsets[d] + hist[d];
  return result;
}

}  // namespace ms::split::detail
