// Block-level Multisplit (paper Sections 5.1, 5.2.2 and 6.4).
//
// Subproblems are whole thread blocks (NW * 32 * k elements, k = block
// thread coarsening), so the global histogram matrix H shrinks by a
// further factor of NW*k relative to the warp-granularity methods -- the
// cheapest possible global scan -- at the price of hierarchical local
// work:
//
//   pre-scan:  warp histograms (accumulated over k rounds) ->
//              shared-memory multi-reduction across the block's warps ->
//              one column of H per *block*;
//   scan:      device-wide exclusive scan over m x (n / (NW*32*k));
//   post-scan: warp histograms + stable per-element ranks again, an
//              exclusive multi-scan across warps (per bucket) for
//              block-level local offsets, a stable block-wide reorder in
//              shared memory, and contiguous per-bucket writes.
//
// The paper's configuration is k = 1 (one item per thread, 256-key
// blocks); that is the default.  k > 1 is this library's extension in the
// direction the paper's footnote 5 hints at and later implementations
// took: longer per-bucket runs, a smaller scan, better amortized
// overheads, more shared memory per block.
//
// For m > 32 the per-row multi-scan no longer fits the warp-per-bucket
// scheme; following Section 6.4, the row-vectorized histogram matrix
// (m * NW entries) is stored in shared memory and scanned with one
// block-wide scan (k is forced to 1 there: the histogram matrix already
// strains shared memory).  All shared-memory pressure and bank behaviour
// of that regime is charged organically.
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "multisplit/warp_ms.hpp"
#include "primitives/block_ops.hpp"

namespace ms::split::detail {

template <typename BucketFn, typename V = u32>
MultisplitResult block_ms(Device& dev, const DeviceBuffer<u32>& keys_in,
                          DeviceBuffer<u32>& keys_out,
                          const DeviceBuffer<V>* vals_in,
                          DeviceBuffer<V>* vals_out, u32 m,
                          BucketFn bucket_of, const MultisplitConfig& cfg) {
  const u64 n = keys_in.size();
  const u32 nw = cfg.warps_per_block;
  const bool small_m = (m <= kWarpSize);
  const u32 k = small_m ? std::max<u32>(1, cfg.block_items_per_thread) : 1;
  const u32 tile = nw * kWarpSize * k;
  const u64 L = ceil_div(n, tile);  // one subproblem per block
  const u32 nblocks = static_cast<u32>(L);
  constexpr u32 kBucketCost = bucket_charge_cost<BucketFn>;
  const u32 groups = static_cast<u32>(ceil_div(m, kWarpSize));

  DeviceBuffer<u32> h(dev, static_cast<u64>(m) * L);
  DeviceBuffer<u32> g(dev, static_cast<u64>(m) * L);

  const sim::SiteId prescan_load_site = dev.site_id("block_ms/prescan_load");
  const sim::SiteId scatter_site = dev.site_id("block_ms/postscan_scatter");

  MultisplitResult result;
  sim::Stage prescan(dev, "block_ms/prescan");

  // Element index of warp wi's round r lane base within block b.
  const auto strip_base = [&](u64 b, u32 wi, u32 r) {
    return b * tile + (static_cast<u64>(wi) * k + r) * kWarpSize;
  };

  // ---------------- pre-scan ----------------
  sim::launch_blocks(dev, "block_ms_prescan", nblocks, nw, [&](Block& blk) {
    if (small_m) {
      auto h2 = blk.shared<u32>(nw * m);
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        LaneArray<u32> acc{};
        for (u32 r = 0; r < k; ++r) {
          const u64 base = strip_base(blk.block_id(), wi, r);
          const LaneMask mask = prim::detail::row_mask(base, n);
          if (mask == 0) break;
          const auto keys = [&] {
            sim::ScopedSite site(dev, prescan_load_site);
            return w.load(keys_in, base, mask);
          }();
          w.charge(kBucketCost);
          const auto buckets = keys.map(bucket_of);
          acc = prim::lane_add(w, acc,
                               prim::warp_histogram(w, buckets, m, mask));
        }
        w.smem_write(h2, LaneArray<u32>::iota(wi * m), acc,
                     sim::tail_mask(m));
      });
      blk.sync();
      prim::block_multi_reduce(blk, h2, m);
      Warp& w0 = blk.warp(0);
      const LaneMask mm = sim::tail_mask(m);
      const auto counts = w0.smem_read(h2, LaneArray<u32>::iota(0), mm);
      LaneArray<u64> idx{};
      for (u32 lane = 0; lane < kWarpSize; ++lane)
        idx[lane] = static_cast<u64>(lane) * L + blk.block_id();
      w0.charge(2);
      w0.scatter(h, idx, counts, mm);
    } else {
      // Section 6.4 path: row-vectorized histogram matrix in shared memory.
      const u64 tile_base = static_cast<u64>(blk.block_id()) * tile;
      auto ht = blk.shared<u32>(m * nw);  // ht[d * nw + wi]
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        const u64 base = tile_base + static_cast<u64>(wi) * kWarpSize;
        const LaneMask mask = prim::detail::row_mask(base, n);
        std::vector<LaneArray<u32>> histo(groups);
        if (mask != 0) {
          const auto keys = [&] {
            sim::ScopedSite site(dev, prescan_load_site);
            return w.load(keys_in, base, mask);
          }();
          w.charge(kBucketCost);
          const auto buckets = keys.map(bucket_of);
          histo = prim::warp_histogram_multi(w, buckets, m, mask);
        }
        for (u32 gi = 0; gi < groups; ++gi) {
          const u32 d0 = gi * kWarpSize;
          const LaneMask mm = sim::tail_mask(m - d0);
          w.charge(1);
          const auto sidx = Warp::lane_id().map(
              [d0, nw, wi](u32 lane) { return (d0 + lane) * nw + wi; });
          w.smem_write(ht, sidx, histo[gi], mm);
        }
      });
      blk.sync();
      // Row sums -> the block's column of H (warps cooperate over rows).
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        for (u32 d0 = wi * kWarpSize; d0 < m; d0 += nw * kWarpSize) {
          const LaneMask mm = sim::tail_mask(m - d0);
          LaneArray<u32> acc{};
          for (u32 j = 0; j < nw; ++j) {
            w.charge(1);
            const auto sidx = Warp::lane_id().map(
                [d0, nw, j](u32 lane) { return (d0 + lane) * nw + j; });
            acc = prim::lane_add(w, acc, w.smem_read(ht, sidx, mm));
          }
          LaneArray<u64> idx{};
          for (u32 lane = 0; lane < kWarpSize; ++lane)
            idx[lane] = static_cast<u64>(d0 + lane) * L + blk.block_id();
          w.charge(2);
          w.scatter(h, idx, acc, mm);
        }
      });
    }
  });
  result.add_stage(&StageTimings::prescan_ms, prescan.end());

  // ---------------- scan ----------------
  sim::Stage scan(dev, "block_ms/scan");
  prim::exclusive_scan<u32>(dev, h, g);
  result.add_stage(&StageTimings::scan_ms, scan.end());
  sim::Stage postscan(dev, "block_ms/postscan");

  // ---------------- post-scan ----------------
  sim::launch_blocks(dev, "block_ms_postscan", nblocks, nw, [&](Block& blk) {
    const u64 tile_base = static_cast<u64>(blk.block_id()) * tile;
    const u32 tile_n = static_cast<u32>(std::min<u64>(tile, n - tile_base));
    auto st_keys = blk.shared<u32>(tile);
    sim::SharedArray<V> st_vals;
    if (vals_in != nullptr) st_vals = blk.shared<V>(tile);
    auto adjusted = blk.shared<u32>(m);  // global base minus block start

    // Per-warp, per-round register state across barriers.
    std::vector<std::vector<LaneArray<u32>>> keys_r(nw), buckets_r(nw),
        rank_r(nw);
    std::vector<std::vector<LaneArray<V>>> vals_r(nw);
    std::vector<std::vector<LaneMask>> mask_r(nw);

    if (small_m) {
      auto h2 = blk.shared<u32>((nw + 1) * m);
      auto bucket_start = blk.shared<u32>(m);
      // Phase 1: load rounds, warp histograms and stable in-strip ranks.
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        keys_r[wi].resize(k);
        buckets_r[wi].resize(k);
        rank_r[wi].resize(k);
        mask_r[wi].assign(k, 0);
        if (vals_in != nullptr) vals_r[wi].resize(k);
        LaneArray<u32> acc{};
        for (u32 r = 0; r < k; ++r) {
          const u64 base = strip_base(blk.block_id(), wi, r);
          const LaneMask mask = prim::detail::row_mask(base, n);
          mask_r[wi][r] = mask;
          if (mask == 0) break;
          keys_r[wi][r] = w.load(keys_in, base, mask);
          if (vals_in != nullptr) vals_r[wi][r] = w.load(*vals_in, base, mask);
          w.charge(kBucketCost);
          buckets_r[wi][r] = keys_r[wi][r].map(bucket_of);
          const auto rank = prim::warp_rank(w, buckets_r[wi][r], m, mask);
          const auto prev = w.shfl(acc, buckets_r[wi][r], mask);
          rank_r[wi][r] = prim::lane_add(w, prev, rank.offsets);
          acc = prim::lane_add(w, acc, rank.histogram);
        }
        w.smem_write(h2, LaneArray<u32>::iota(wi * m), acc,
                     sim::tail_mask(m));
      });
      blk.sync();

      // Phase 2: per-bucket exclusive scan across warps + block offsets.
      prim::block_multi_scan_exclusive(blk, h2, m);
      {
        Warp& w0 = blk.warp(0);
        const LaneMask mm = sim::tail_mask(m);
        LaneArray<u32> totals =
            w0.smem_read(h2, LaneArray<u32>::iota(nw * m), mm);
        for (u32 lane = m; lane < kWarpSize; ++lane) totals[lane] = 0;
        const auto starts = prim::warp_exclusive_scan(w0, totals);
        w0.smem_write(bucket_start, Warp::lane_id(), starts, mm);
        LaneArray<u64> idx{};
        for (u32 lane = 0; lane < kWarpSize; ++lane)
          idx[lane] = static_cast<u64>(lane) * L + blk.block_id();
        const auto gbase = w0.gather(g, idx, mm);
        w0.charge(1);
        const auto adj =
            gbase.zip(starts, [](u32 a, u32 s) { return a - s; });
        w0.smem_write(adjusted, Warp::lane_id(), adj, mm);
      }
      blk.sync();

      // Phase 3: stable block-wide reorder in shared memory.
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        const auto warp_base = w.smem_read(h2, LaneArray<u32>::iota(wi * m),
                                           sim::tail_mask(m));
        for (u32 r = 0; r < k; ++r) {
          const LaneMask mask = mask_r[wi][r];
          if (mask == 0) break;
          const auto ds = w.smem_read(bucket_start, buckets_r[wi][r], mask);
          const auto wb = w.shfl(warp_base, buckets_r[wi][r], mask);
          const auto pos =
              prim::lane_add(w, prim::lane_add(w, ds, wb), rank_r[wi][r]);
          w.smem_write(st_keys, pos, keys_r[wi][r], mask);
          if (vals_in != nullptr)
            w.smem_write(st_vals, pos, vals_r[wi][r], mask);
        }
      });
    } else {
      // Section 6.4 path for m > 32 (k == 1).
      auto ht = blk.shared<u32>(m * nw);
      auto bucket_start = blk.shared<u32>(m);
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        keys_r[wi].resize(1);
        buckets_r[wi].resize(1);
        rank_r[wi].resize(1);
        mask_r[wi].assign(1, 0);
        if (vals_in != nullptr) vals_r[wi].resize(1);
        const u64 base = tile_base + static_cast<u64>(wi) * kWarpSize;
        const LaneMask mask = prim::detail::row_mask(base, n);
        mask_r[wi][0] = mask;
        std::vector<LaneArray<u32>> histo(groups);
        if (mask != 0) {
          keys_r[wi][0] = w.load(keys_in, base, mask);
          if (vals_in != nullptr) vals_r[wi][0] = w.load(*vals_in, base, mask);
          w.charge(kBucketCost);
          buckets_r[wi][0] = keys_r[wi][0].map(bucket_of);
          histo = prim::warp_histogram_multi(w, buckets_r[wi][0], m, mask);
          rank_r[wi][0] = prim::warp_offsets_multi(w, buckets_r[wi][0], m, mask);
        }
        for (u32 gi = 0; gi < groups; ++gi) {
          const u32 d0 = gi * kWarpSize;
          const LaneMask mm = sim::tail_mask(m - d0);
          w.charge(1);
          const auto sidx = Warp::lane_id().map(
              [d0, nw, wi](u32 lane) { return (d0 + lane) * nw + wi; });
          w.smem_write(ht, sidx, histo[gi], mm);
        }
      });
      blk.sync();
      // One block-wide scan over the row-vectorized matrix: entry
      // (d, wi) becomes (elements of earlier buckets in the block) +
      // (elements of bucket d in earlier warps).
      prim::block_exclusive_scan_smem(blk, ht, m * nw);
      // bucket_start[d] = ht[d * nw]; adjusted[d] = G[d*L + b] - start.
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        for (u32 d0 = wi * kWarpSize; d0 < m; d0 += nw * kWarpSize) {
          const LaneMask mm = sim::tail_mask(m - d0);
          w.charge(1);
          const auto sidx = Warp::lane_id().map(
              [d0, nw](u32 lane) { return (d0 + lane) * nw; });
          const auto starts = w.smem_read(ht, sidx, mm);
          w.smem_write(bucket_start,
                       Warp::lane_id().map([d0](u32 l) { return d0 + l; }),
                       starts, mm);
          LaneArray<u64> idx{};
          for (u32 lane = 0; lane < kWarpSize; ++lane)
            idx[lane] = static_cast<u64>(d0 + lane) * L + blk.block_id();
          const auto gbase = w.gather(g, idx, mm);
          w.charge(1);
          const auto adj =
              gbase.zip(starts, [](u32 a, u32 s) { return a - s; });
          w.smem_write(adjusted,
                       Warp::lane_id().map([d0](u32 l) { return d0 + l; }),
                       adj, mm);
        }
      });
      blk.sync();
      // Reorder: pos = ht[d * nw + wi] + in-warp offset.
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        const LaneMask mask = mask_r[wi][0];
        if (mask == 0) return;
        w.charge(1);
        const auto sidx = buckets_r[wi][0].map(
            [nw, wi](u32 d) { return d * nw + wi; });
        const auto base_d = w.smem_read(ht, sidx, mask);
        const auto pos = prim::lane_add(w, base_d, rank_r[wi][0]);
        w.smem_write(st_keys, pos, keys_r[wi][0], mask);
        if (vals_in != nullptr) w.smem_write(st_vals, pos, vals_r[wi][0], mask);
      });
    }
    blk.sync();

    // Final phase: contiguous per-bucket writes, one 32-wide strip per
    // warp-round over the reordered tile.
    blk.for_each_warp([&](Warp& w) {
      const u32 wi = w.warp_in_block();
      for (u32 r = 0; r < k; ++r) {
        const u32 t = (wi * k + r) * kWarpSize;
        if (t >= tile_n) break;
        const LaneMask mask = sim::tail_mask(tile_n - t);
        const auto keys2 = w.smem_read(st_keys, LaneArray<u32>::iota(t), mask);
        w.charge(kBucketCost);
        const auto buckets2 = keys2.map(bucket_of);
        const auto gb = w.smem_read(adjusted, buckets2, mask);
        w.charge(1);
        LaneArray<u64> fin{};
        for (u32 lane = 0; lane < kWarpSize; ++lane)
          fin[lane] = static_cast<u64>(gb[lane]) + t + lane;
        {
          sim::ScopedSite site(dev, scatter_site);
          w.scatter(keys_out, fin, keys2, mask);
        }
        if (vals_in != nullptr) {
          const auto vals2 =
              w.smem_read(st_vals, LaneArray<u32>::iota(t), mask);
          sim::ScopedSite site(dev, scatter_site);
          w.scatter(*vals_out, fin, vals2, mask);
        }
      }
    });
  });

  result.add_stage(&StageTimings::postscan_ms, postscan.end());
  // Host-side offsets assembly: launches no kernel, so it draws no trace
  // band and adds nothing to the result.
  const sim::Stage epilogue(dev, "block_ms/epilogue");
  offsets_from_scanned(g, m, L, n, result.bucket_offsets);
  return result;
}

}  // namespace ms::split::detail
