#include "graph/sssp.hpp"

#include <algorithm>

#include "multisplit/multisplit.hpp"
#include "multisplit/sort_baselines.hpp"

namespace ms::graph {

using sim::Device;
using sim::DeviceBuffer;
using ms::LaneArray;
using sim::Warp;

std::string to_string(BucketingStrategy s) {
  switch (s) {
    case BucketingStrategy::kMultisplit2: return "multisplit-2 (warp MS)";
    case BucketingStrategy::kNearFar: return "Near-Far (scan split)";
    case BucketingStrategy::kRadixSort: return "radix-sort bucketing";
    case BucketingStrategy::kMultisplit10: return "multisplit-10 (block MS)";
  }
  return "?";
}

namespace {

/// Near/far bucketing: bucket 0 holds candidates below the threshold.
struct NearFarBucket {
  u32 limit;
  u32 operator()(u32 d) const { return d < limit ? 0u : 1u; }
  static constexpr u32 charge_cost = 1;
};

/// Delta buckets relative to the current base threshold.
struct DeltaRelBucket {
  u32 base;
  u32 delta;
  u32 m;
  u32 operator()(u32 d) const {
    if (d <= base) return 0;
    const u32 b = (d - base) / delta;
    return b < m ? b : m - 1;
  }
  static constexpr u32 charge_cost = 3;
};

/// Charged device-wide minimum of pool[0, count): per-warp reduction plus
/// one global atomicMin per warp.
u32 device_min(Device& dev, const DeviceBuffer<u32>& pool, u64 count,
               DeviceBuffer<u32>& scratch) {
  scratch[0] = kInfDist;
  sim::launch_warps(dev, "sssp_pool_min", ceil_div(count, kWarpSize),
                    [&](Warp& w, u64 wid) {
    const u64 base = wid * kWarpSize;
    const LaneMask mask = sim::tail_mask(count - base);
    LaneArray<u32> v = LaneArray<u32>::filled(kInfDist);
    const auto loaded = w.load(pool, base, mask);
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      if (lane_active(mask, lane)) v[lane] = loaded[lane];
    }
    const auto mn = prim::warp_reduce_max(w, v.map([](u32 x) { return ~x; }));
    w.charge(1);
    w.atomic_min(scratch, LaneArray<u64>::filled(0),
                 LaneArray<u32>::filled(~mn[0]), 1u);
  });
  return scratch[0];
}

}  // namespace

SsspResult sssp_delta_stepping(Device& dev, const Csr& g, u32 source,
                               const SsspConfig& cfg) {
  g.validate();
  check(source < g.num_vertices, "sssp: source out of range");
  const u32 n = g.num_vertices;
  const u64 m_edges = g.num_edges();

  u32 max_w = 1;
  for (u32 w : g.weights) max_w = std::max(max_w, w);
  const u32 delta = cfg.delta != 0 ? cfg.delta : std::max<u32>(1, max_w / 4);

  // Upload the CSR and distance array.
  DeviceBuffer<u32> ro(dev, std::span<const u32>(g.row_offsets));
  DeviceBuffer<u32> ci(dev, std::span<const u32>(g.col_indices));
  DeviceBuffer<u32> wt(dev, std::span<const u32>(g.weights));
  DeviceBuffer<u32> dist(dev, n);
  dist.fill(kInfDist);
  dist[source] = 0;

  const u64 append_cap =
      std::max<u64>(1024, static_cast<u64>(cfg.pool_headroom * m_edges) + n);
  DeviceBuffer<u32> app_k(dev, append_cap), app_v(dev, append_cap);
  DeviceBuffer<u32> cursor(dev, 1);
  DeviceBuffer<u32> min_scratch(dev, 1);

  // Candidate pool, exact-sized and rebuilt each round.
  DeviceBuffer<u32> pool_k(dev, 1), pool_v(dev, 1);
  pool_k[0] = 0;
  pool_v[0] = source;
  u64 pool_n = 1;

  SsspResult result;
  u32 threshold = 0;
  f64 reorg_ms = 0.0, expand_ms = 0.0;
  sim::Stage total(dev, "sssp/total");

  split::MultisplitConfig ms_cfg;
  ms_cfg.warps_per_block = cfg.warps_per_block;

  while (pool_n > 0) {
    result.rounds += 1;
    check(result.rounds < 1000000, "sssp: too many rounds (non-termination?)");

    // ---- reorganize the pool --------------------------------------
    sim::Stage reorganize(dev, "sssp/reorganize");
    DeviceBuffer<u32> out_k(dev, pool_n), out_v(dev, pool_n);
    const u32 near_limit = threshold + delta;
    u64 near_count = 0;
    switch (cfg.strategy) {
      case BucketingStrategy::kMultisplit2: {
        ms_cfg.method = split::Method::kWarpLevel;
        auto r = split::multisplit_pairs(dev, pool_k, pool_v, out_k, out_v, 2,
                                         NearFarBucket{near_limit}, ms_cfg);
        near_count = r.bucket_offsets[1];
        break;
      }
      case BucketingStrategy::kNearFar: {
        ms_cfg.method = split::Method::kScanSplit;
        auto r = split::multisplit_pairs(dev, pool_k, pool_v, out_k, out_v, 2,
                                         NearFarBucket{near_limit}, ms_cfg);
        near_count = r.bucket_offsets[1];
        break;
      }
      case BucketingStrategy::kRadixSort: {
        sim::device_copy(dev, out_k, pool_k);
        sim::device_copy(dev, out_v, pool_v);
        prim::sort_pairs<u32>(dev, out_k, out_v);
        near_count = static_cast<u64>(
            std::upper_bound(out_k.host().begin(), out_k.host().end(),
                             near_limit - 1) -
            out_k.host().begin());
        break;
      }
      case BucketingStrategy::kMultisplit10: {
        ms_cfg.method = split::Method::kBlockLevel;
        auto r = split::multisplit_pairs(
            dev, pool_k, pool_v, out_k, out_v, cfg.num_buckets,
            DeltaRelBucket{threshold, delta, cfg.num_buckets}, ms_cfg);
        near_count = r.bucket_offsets[1];
        break;
      }
    }
    reorg_ms += reorganize.end().total_ms;

    // ---- nothing near: advance the threshold ------------------------
    if (near_count == 0) {
      sim::Stage advance(dev, "sssp/advance_threshold");
      const u32 mn = device_min(dev, out_k, pool_n, min_scratch);
      expand_ms += advance.end().total_ms;
      check(mn != kInfDist, "sssp: live pool with no finite distance");
      check(mn >= near_limit, "sssp: near candidate missed by bucketing");
      threshold = mn / delta * delta;
      // The pool is unchanged (already reorganized); keep it.
      pool_k = std::move(out_k);
      pool_v = std::move(out_v);
      continue;
    }

    // ---- expand the near set ----------------------------------------
    sim::Stage expand(dev, "sssp/expand");
    cursor[0] = 0;
    u64 edges_this_round = 0;
    sim::launch_warps(dev, "sssp_expand", ceil_div(near_count, kWarpSize),
                      [&](Warp& w, u64 wid) {
      const u64 base = wid * kWarpSize;
      const LaneMask mask = sim::tail_mask(near_count - base);
      const auto d = w.load(out_k, base, mask);
      const auto v = w.load(out_v, base, mask);
      LaneArray<u64> vidx{}, vidx1{};
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        vidx[lane] = v[lane];
        vidx1[lane] = v[lane] + 1u;
      }
      const auto cur = w.gather(dist, vidx, mask);
      w.charge(1);
      // A candidate is live unless a better distance already settled.
      const LaneMask live =
          w.ballot(d.zip(cur, [](u32 a, u32 b) { return a <= b ? 1u : 0u; }),
                   mask);
      if (live == 0) return;
      auto e_cur = w.gather(ro, vidx, live);
      const auto e_end = w.gather(ro, vidx1, live);
      w.charge(1);
      LaneMask active = w.ballot(
          e_cur.zip(e_end, [](u32 a, u32 b) { return a < b ? 1u : 0u; }),
          live);
      while (active != 0) {
        LaneArray<u64> eidx{};
        for (u32 lane = 0; lane < kWarpSize; ++lane) eidx[lane] = e_cur[lane];
        const auto u = w.gather(ci, eidx, active);
        const auto we = w.gather(wt, eidx, active);
        w.charge(1);
        const auto nd = d.zip(we, [](u32 a, u32 b) { return a + b; });
        LaneArray<u64> uidx{};
        for (u32 lane = 0; lane < kWarpSize; ++lane) uidx[lane] = u[lane];
        const auto old = w.atomic_min(dist, uidx, nd, active);
        const LaneMask improved = w.ballot(
            nd.zip(old, [](u32 a, u32 b) { return a < b ? 1u : 0u; }),
            active);
        edges_this_round += std::popcount(active);
        if (improved != 0) {
          // Warp-aggregated append: one atomic for the whole warp.
          const u32 cnt = static_cast<u32>(std::popcount(improved));
          const auto old_cur =
              w.atomic_add(cursor, LaneArray<u64>::filled(0),
                           LaneArray<u32>::filled(cnt), 1u);
          const auto app_base = w.shfl(old_cur, 0);
          w.charge(2);
          LaneArray<u64> pos{};
          for (u32 lane = 0; lane < kWarpSize; ++lane) {
            const u32 rank = static_cast<u32>(
                std::popcount(improved & ((lane == 0)
                                              ? 0u
                                              : (kFullMask >> (kWarpSize - lane)))));
            pos[lane] = static_cast<u64>(app_base[0]) + rank;
          }
          w.scatter(app_k, pos, nd, improved);
          w.scatter(app_v, pos, u, improved);
        }
        // Advance per-lane edge cursors.
        w.charge(2);
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (lane_active(active, lane)) e_cur[lane] += 1;
        }
        active = w.ballot(
            e_cur.zip(e_end, [](u32 a, u32 b) { return a < b ? 1u : 0u; }),
            active);
      }
    });
    const u64 appended = cursor[0];
    check(appended <= append_cap, "sssp: append buffer overflow");

    // ---- rebuild the pool: deferred (far) part + new candidates ------
    const u64 far_count = pool_n - near_count;
    const u64 new_n = far_count + appended;
    DeviceBuffer<u32> nk(dev, std::max<u64>(new_n, 1)),
        nv(dev, std::max<u64>(new_n, 1));
    if (far_count > 0) {
      sim::device_copy_n(dev, nk, 0, out_k, near_count, far_count);
      sim::device_copy_n(dev, nv, 0, out_v, near_count, far_count);
    }
    if (appended > 0) {
      sim::device_copy_n(dev, nk, far_count, app_k, 0, appended);
      sim::device_copy_n(dev, nv, far_count, app_v, 0, appended);
    }
    pool_k = std::move(nk);
    pool_v = std::move(nv);
    pool_n = new_n;
    expand_ms += expand.end().total_ms;
    result.candidates_processed += near_count;
    result.edges_relaxed += edges_this_round;
  }

  result.total_ms = total.end().total_ms;
  result.reorg_ms = reorg_ms;
  result.expand_ms = expand_ms;
  result.dist.assign(dist.host().begin(), dist.host().end());
  return result;
}

}  // namespace ms::graph
