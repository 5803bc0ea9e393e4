// Direct Multisplit and Warp-level Multisplit (paper Section 5).
//
// Both split the input into warp-sized subproblems, following the paper's
// Algorithm 1, with thread coarsening (the paper's footnote 5): each warp
// owns a tile of 32 * items_per_thread keys, processed in 32-wide rounds,
// so L = ceil(n / (32 * k)) columns in the histogram matrix H:
//
//   pre-scan:  each warp accumulates its ballot-based histogram (Alg. 2)
//              over its rounds and stores one column of H (layout
//              H[bucket * L + warp] so the row-vectorized device scan needs
//              no transpose);
//   scan:      one device-wide exclusive scan over the m x L matrix;
//   post-scan: each warp recomputes histogram + per-element local offsets
//              (merged Alg. 2+3 ranking; recomputing beats a global
//              round-trip, footnote 6) and writes elements out.
//
// Direct MS writes each round's 32 elements straight to their final
// positions: one store instruction scatters across up to m bucket runs, so
// every round pays the fragmentation.  Warp-level MS (Section 5.2.1) first
// reorders the whole tile in shared memory so that elements of one bucket
// are adjacent; the write-out rounds then cover contiguous position runs
// -- fewer memory segments per instruction, at the price of the reorder
// work.  This is the paper's central locality-vs-local-work trade, and the
// crossover (reordering wins for small m, loses for large m) emerges from
// the counted segments.
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/scan.hpp"
#include "primitives/warp_ops.hpp"

namespace ms::split::detail {

using prim::warp_exclusive_scan;
using prim::warp_histogram;
using prim::warp_rank;
using sim::Block;
using sim::Device;
using sim::DeviceBuffer;
using sim::Warp;

/// Fill `result.bucket_offsets` (size m+1) from the head of the scanned
/// histogram matrix G: bucket j starts at G[j * L] (the count of all
/// elements in buckets < j).
inline void offsets_from_scanned(const DeviceBuffer<u32>& g, u32 m, u64 L,
                                 u64 n, std::vector<u32>& out) {
  out.resize(m + 1);
  for (u32 j = 0; j < m; ++j) out[j] = g[static_cast<u64>(j) * L];
  out[m] = static_cast<u32>(n);
}

/// Shared implementation of Direct MS (kReorder = false) and Warp-level MS
/// (kReorder = true).  `vals_in`/`vals_out` are null for key-only splits.
template <bool kReorder, typename BucketFn, typename V = u32>
MultisplitResult warp_granularity_ms(Device& dev,
                                     const DeviceBuffer<u32>& keys_in,
                                     DeviceBuffer<u32>& keys_out,
                                     const DeviceBuffer<V>* vals_in,
                                     DeviceBuffer<V>* vals_out, u32 m,
                                     BucketFn bucket_of,
                                     const MultisplitConfig& cfg) {
  // Section 5.3: Direct MS extends past the warp width by giving each
  // thread ceil(m/32) bucket bitmaps; all histogram-related traffic is
  // linearized by the same factor ("no theoretical concerns, but will
  // degrade performance").  Warp-level reordering keeps the m <= 32 bound:
  // its in-warp bucket scan is a warp-wide shuffle program.
  check(m >= 1, "multisplit: need at least one bucket");
  check(!kReorder || m <= kWarpSize,
        "warp-level multisplit supports m <= 32 (use direct or block level)");
  const u32 groups = static_cast<u32>(ceil_div(m, kWarpSize));
  const bool small_m = (m <= kWarpSize);
  const u64 n = keys_in.size();
  const u32 k = std::max<u32>(1, cfg.items_per_thread);
  const u32 tile_w = kWarpSize * k;           // keys per warp subproblem
  const u64 L = ceil_div(n, tile_w);          // number of subproblems
  const u32 nw = cfg.warps_per_block;
  const u32 nblocks = static_cast<u32>(ceil_div(L, nw));
  constexpr u32 kBucketCost = bucket_charge_cost<BucketFn>;

  DeviceBuffer<u32> h(dev, static_cast<u64>(m) * L);
  DeviceBuffer<u32> g(dev, static_cast<u64>(m) * L);

  // nvprof-style access sites: registered once, charged per scope below.
  const char* tag = kReorder ? "warp_ms" : "direct_ms";
  const sim::SiteId prescan_load_site =
      dev.site_id(std::string(tag) + "/prescan_load");
  const sim::SiteId scatter_site =
      dev.site_id(std::string(tag) + "/postscan_scatter");

  MultisplitResult result;
  sim::Stage prescan(dev, std::string(tag) + "/prescan");

  // ---------------- pre-scan ----------------
  // Per-warp histograms are staged in shared memory and written to H one
  // *row chunk* at a time: H[d*L + s0 .. s0+NW) covers the block's NW
  // subproblems contiguously, so the global store of the histogram matrix
  // is coalesced instead of one strided line per warp per bucket.
  sim::launch_blocks(dev, kReorder ? "warp_ms_prescan" : "direct_ms_prescan",
                     nblocks, nw, [&](Block& blk) {
    const u32 mpad = m | 1u;  // odd stride: conflict-free staging (32 banks)
    auto h2 = blk.shared<u32>(nw * mpad);
    const u64 s0 = static_cast<u64>(blk.block_id()) * nw;
    const u32 vw = static_cast<u32>(s0 < L ? std::min<u64>(nw, L - s0) : 0);
    blk.for_each_warp([&](Warp& w) {
      const u64 s = w.warp_id();
      if (s >= L) return;
      std::vector<LaneArray<u32>> accs(groups);
      for (u32 r = 0; r < k; ++r) {
        const u64 base = s * tile_w + static_cast<u64>(r) * kWarpSize;
        const LaneMask mask = prim::detail::row_mask(base, n);
        if (mask == 0) break;
        const auto keys = [&] {
          sim::ScopedSite site(dev, prescan_load_site);
          return w.load(keys_in, base, mask);
        }();
        w.charge(kBucketCost);
        const auto buckets = keys.map(bucket_of);
        if (small_m) {
          accs[0] =
              prim::lane_add(w, accs[0], warp_histogram(w, buckets, m, mask));
        } else {
          const auto histo = prim::warp_histogram_multi(w, buckets, m, mask);
          for (u32 gi = 0; gi < groups; ++gi)
            accs[gi] = prim::lane_add(w, accs[gi], histo[gi]);
        }
      }
      if (small_m) {
        w.smem_write(h2, LaneArray<u32>::iota(w.warp_in_block() * mpad),
                     accs[0], sim::tail_mask(m));
      } else {
        // Linearized per-warp H column store (Section 5.3).
        for (u32 gi = 0; gi < groups; ++gi) {
          const u32 d0 = gi * kWarpSize;
          LaneArray<u64> idx{};
          for (u32 lane = 0; lane < kWarpSize; ++lane)
            idx[lane] = static_cast<u64>(d0 + lane) * L + s;
          w.charge(2);
          w.scatter(h, idx, accs[gi], sim::tail_mask(m - d0));
        }
      }
    });
    blk.sync();
    if (vw == 0 || !small_m) return;
    blk.for_each_warp([&](Warp& w) {
      const u32 wi = w.warp_in_block();
      const u32 warps_m = static_cast<u32>(nw);
      for (u32 d = wi; d < m; d += warps_m) {
        w.charge(1);
        const auto sidx =
            Warp::lane_id().map([&](u32 lane) { return lane * mpad + d; });
        const auto vals = w.smem_read(h2, sidx, sim::tail_mask(vw));
        w.store(h, static_cast<u64>(d) * L + s0, vals, sim::tail_mask(vw));
      }
    });
  });
  result.add_stage(&StageTimings::prescan_ms, prescan.end());

  // ---------------- scan ----------------
  sim::Stage scan(dev, std::string(tag) + "/scan");
  prim::exclusive_scan<u32>(dev, h, g);
  result.add_stage(&StageTimings::scan_ms, scan.end());
  sim::Stage postscan(dev, std::string(tag) + "/postscan");

  // ---------------- post-scan ----------------
  sim::launch_blocks(dev, kReorder ? "warp_ms_postscan" : "direct_ms_postscan",
                     nblocks, nw, [&](Block& blk) {
    sim::SharedArray<u32> st_keys;
    sim::SharedArray<V> st_vals;
    if constexpr (kReorder) {
      st_keys = blk.shared<u32>(blk.num_warps() * tile_w);
      if (vals_in != nullptr)
        st_vals = blk.shared<V>(blk.num_warps() * tile_w);
    }
    // Stage the block's slice of G through shared memory (the mirror image
    // of the pre-scan's coalesced H store): row chunk G[d*L + s0 .. s0+NW)
    // is read once per block and distributed to the warps' columns.
    const u32 mpad = m | 1u;
    auto g2 = blk.shared<u32>(small_m ? nw * mpad : 1);
    const u64 s0 = static_cast<u64>(blk.block_id()) * nw;
    const u32 vw = static_cast<u32>(s0 < L ? std::min<u64>(nw, L - s0) : 0);
    if (vw == 0) return;
    if (small_m) {
      blk.for_each_warp([&](Warp& w) {
        const u32 wi = w.warp_in_block();
        for (u32 d = wi; d < m; d += nw) {
          const auto vals = w.load(g, static_cast<u64>(d) * L + s0,
                                   sim::tail_mask(vw));
          w.charge(1);
          const auto sidx =
              Warp::lane_id().map([&](u32 lane) { return lane * mpad + d; });
          w.smem_write(g2, sidx, vals, sim::tail_mask(vw));
        }
      });
      blk.sync();
    }
    blk.for_each_warp([&](Warp& w) {
      const u64 s = w.warp_id();
      if (s >= L) return;
      const u64 wbase = s * tile_w;
      const u32 valid_total = static_cast<u32>(
          std::min<u64>(tile_w, n > wbase ? n - wbase : 0));
      if (valid_total == 0) return;
      // Global base of each bucket for this subproblem: lane d holds
      // G[d * L + s], staged in shared memory (m <= 32 only; the
      // linearized m > 32 path gathers G per element instead).
      LaneArray<u32> gbase{};
      if (small_m) {
        gbase = w.smem_read(g2,
                            LaneArray<u32>::iota(w.warp_in_block() * mpad),
                            sim::tail_mask(m));
      }

      if constexpr (!kReorder) {
        // Direct MS: every round scatters straight to final positions.
        // Footnote-6 ablation: the per-round histograms can either be
        // recomputed with ballots (default; what the paper ships) or the
        // *tile* histogram reloaded from H with per-round offsets still
        // computed locally -- reloading replaces log(m) ballot rounds per
        // round with one strided gather.
        LaneArray<u32> acc{};
        std::vector<LaneArray<u32>> acc_groups(small_m ? 0 : groups);
        for (u32 r = 0; r < k; ++r) {
          const u64 base = wbase + static_cast<u64>(r) * kWarpSize;
          const LaneMask mask = prim::detail::row_mask(base, n);
          if (mask == 0) break;
          const auto keys = w.load(keys_in, base, mask);
          w.charge(kBucketCost);
          const auto buckets = keys.map(bucket_of);
          if (!small_m) {
            // Section 5.3 linearized path: multi-bitmap offsets, per-group
            // histograms, and a per-element gather of G by own bucket.
            const auto offsets =
                prim::warp_offsets_multi(w, buckets, m, mask);
            const auto histo = prim::warp_histogram_multi(w, buckets, m, mask);
            LaneArray<u32> prev_rounds{};
            for (u32 gi = 0; gi < groups; ++gi) {
              const auto cand = w.shfl(
                  acc_groups[gi],
                  buckets.map([](u32 b) { return b % kWarpSize; }), mask);
              w.charge(1);
              for (u32 lane = 0; lane < kWarpSize; ++lane) {
                if (buckets[lane] / kWarpSize == gi)
                  prev_rounds[lane] = cand[lane];
              }
              acc_groups[gi] = prim::lane_add(w, acc_groups[gi], histo[gi]);
            }
            LaneArray<u64> gidx{};
            for (u32 lane = 0; lane < kWarpSize; ++lane)
              gidx[lane] = static_cast<u64>(buckets[lane]) * L + s;
            w.charge(1);
            const auto my_g = w.gather(g, gidx, mask);
            w.charge(2);
            LaneArray<u64> fin{};
            for (u32 lane = 0; lane < kWarpSize; ++lane)
              fin[lane] = static_cast<u64>(my_g[lane]) + prev_rounds[lane] +
                          offsets[lane];
            {
              sim::ScopedSite site(dev, scatter_site);
              w.scatter(keys_out, fin, keys, mask);
            }
            if (vals_in != nullptr) {
              const auto vals = w.load(*vals_in, base, mask);
              sim::ScopedSite site(dev, scatter_site);
              w.scatter(*vals_out, fin, vals, mask);
            }
            continue;
          }
          LaneArray<u32> offsets, histo;
          if (cfg.reload_histograms) {
            // Reload the subproblem histogram stored by the pre-scan
            // instead of recomputing it; offsets still need their ballot
            // pass.  Only meaningful with one item per thread, where the
            // subproblem histogram is exactly this round's histogram.
            check(k == 1, "reload_histograms requires items_per_thread == 1");
            offsets = prim::warp_offsets(w, buckets, m, mask);
            LaneArray<u64> hidx{};
            for (u32 lane = 0; lane < kWarpSize; ++lane)
              hidx[lane] = static_cast<u64>(lane) * L + s;
            w.charge(1);
            histo = w.gather(h, hidx, sim::tail_mask(m));
          } else {
            const auto rank = warp_rank(w, buckets, m, mask);
            offsets = rank.offsets;
            histo = rank.histogram;
          }
          const auto prev_rounds = w.shfl(acc, buckets, mask);
          const auto my_g = w.shfl(gbase, buckets, mask);
          w.charge(2);
          LaneArray<u64> fin{};
          for (u32 lane = 0; lane < kWarpSize; ++lane)
            fin[lane] = static_cast<u64>(my_g[lane]) + prev_rounds[lane] +
                        offsets[lane];
          {
            sim::ScopedSite site(dev, scatter_site);
            w.scatter(keys_out, fin, keys, mask);
          }
          if (vals_in != nullptr) {
            const auto vals = w.load(*vals_in, base, mask);
            sim::ScopedSite site(dev, scatter_site);
            w.scatter(*vals_out, fin, vals, mask);
          }
          acc = prim::lane_add(w, acc, histo);
        }
      } else {
        // Warp-level MS: stable local multisplit of the whole tile in
        // shared memory, then contiguous write-out rounds.
        const u32 slot0 = w.warp_in_block() * tile_w;
        LaneArray<u32> acc{};
        std::vector<LaneArray<u32>> keys_r(k), buckets_r(k), rank_r(k);
        std::vector<LaneArray<V>> vals_r(vals_in != nullptr ? k : 0);
        std::vector<LaneMask> mask_r(k, 0);
        for (u32 r = 0; r < k; ++r) {
          const u64 base = wbase + static_cast<u64>(r) * kWarpSize;
          const LaneMask mask = prim::detail::row_mask(base, n);
          mask_r[r] = mask;
          if (mask == 0) break;
          keys_r[r] = w.load(keys_in, base, mask);
          if (vals_in != nullptr) vals_r[r] = w.load(*vals_in, base, mask);
          w.charge(kBucketCost);
          buckets_r[r] = keys_r[r].map(bucket_of);
          const auto rank = warp_rank(w, buckets_r[r], m, mask);
          const auto prev_rounds = w.shfl(acc, buckets_r[r], mask);
          rank_r[r] = prim::lane_add(w, prev_rounds, rank.offsets);
          acc = prim::lane_add(w, acc, rank.histogram);
        }
        // Start of each bucket within the tile (equation (1) locally).
        const auto hscan = warp_exclusive_scan(w, acc);
        for (u32 r = 0; r < k; ++r) {
          const LaneMask mask = mask_r[r];
          if (mask == 0) break;
          const auto start = w.shfl(hscan, buckets_r[r], mask);
          const auto new_idx = prim::lane_add(w, start, rank_r[r]);
          w.charge(1);
          const auto st_idx =
              new_idx.map([slot0](u32 i) { return slot0 + i; });
          w.smem_write(st_keys, st_idx, keys_r[r], mask);
          if (vals_in != nullptr)
            w.smem_write(st_vals, st_idx, vals_r[r], mask);
        }
        // Write-out: positions t and t+1 of the reordered tile map to
        // adjacent (or bucket-boundary) global addresses.
        for (u32 t = 0; t < valid_total; t += kWarpSize) {
          const LaneMask mask2 = sim::tail_mask(valid_total - t);
          const auto keys2 =
              w.smem_read(st_keys, LaneArray<u32>::iota(slot0 + t), mask2);
          w.charge(kBucketCost);
          const auto buckets2 = keys2.map(bucket_of);
          const auto start2 = w.shfl(hscan, buckets2, mask2);
          const auto my_g = w.shfl(gbase, buckets2, mask2);
          w.charge(2);
          LaneArray<u64> fin{};
          for (u32 lane = 0; lane < kWarpSize; ++lane)
            fin[lane] = static_cast<u64>(my_g[lane]) +
                        (t + lane - start2[lane]);
          {
            sim::ScopedSite site(dev, scatter_site);
            w.scatter(keys_out, fin, keys2, mask2);
          }
          if (vals_in != nullptr) {
            const auto vals2 =
                w.smem_read(st_vals, LaneArray<u32>::iota(slot0 + t), mask2);
            sim::ScopedSite site(dev, scatter_site);
            w.scatter(*vals_out, fin, vals2, mask2);
          }
        }
      }
    });
  });

  result.add_stage(&StageTimings::postscan_ms, postscan.end());
  // Host-side offsets assembly: launches no kernel, so it draws no trace
  // band and adds nothing to the result.
  const sim::Stage epilogue(dev, std::string(tag) + "/epilogue");
  offsets_from_scanned(g, m, L, n, result.bucket_offsets);
  return result;
}

}  // namespace ms::split::detail
