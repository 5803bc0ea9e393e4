// Reduced-bit sort (paper Section 3.4): the best way to do multisplit with
// an off-the-shelf sort primitive.
//
// Key-only: build a label vector of bucket IDs and radix-sort
// (label, key) pairs on just ceil(log2 m) bits -- far fewer passes than a
// full 32-bit sort.
//
// Key-value: pack each (key, value) pair into one 64-bit payload, sort
// (label, packed) pairs, unpack.  (The paper also tried sorting
// (label, index) and permuting manually, found it loses to packing because
// of non-coalesced permutation traffic, and so do we -- see the
// `ablation_reduced_bit_permute` bench.)
//
// Stage accounting matches Table 4's rows: labeling / sorting /
// (un)packing.
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/radix_sort.hpp"

namespace ms::split::detail {

template <typename BucketFn, typename V = u32>
MultisplitResult reduced_bit_sort_ms(Device& dev,
                                     const DeviceBuffer<u32>& keys_in,
                                     DeviceBuffer<u32>& keys_out,
                                     const DeviceBuffer<V>* vals_in,
                                     DeviceBuffer<V>* vals_out, u32 m,
                                     BucketFn bucket_of,
                                     const MultisplitConfig& cfg) {
  (void)cfg;
  const u64 n = keys_in.size();
  const u32 bits = std::max<u32>(1, ceil_log2(m));
  constexpr u32 kBucketCost = bucket_charge_cost<BucketFn>;

  MultisplitResult result;
  DeviceBuffer<u32> labels(dev, n);

  sim::Stage labeling(dev, "reduced_bit/labeling");
  // ---- labeling: one pass producing the label vector ------------------
  sim::launch_warps(dev, "rbs_labeling", ceil_div(n, kWarpSize),
                    [&](Warp& w, u64 wid) {
    const u64 base = wid * kWarpSize;
    const LaneMask mask = prim::detail::row_mask(base, n);
    const auto keys = w.load(keys_in, base, mask);
    w.charge(kBucketCost);
    const auto lab = keys.map(bucket_of);
    w.store(labels, base, lab, mask);
  });

  if (vals_in == nullptr) {
    // Key-only: the keys ride along as the sort's values.
    sim::device_copy(dev, keys_out, keys_in);
    result.add_stage(&StageTimings::prescan_ms, labeling.end());
    sim::Stage sorting(dev, "reduced_bit/sorting");
    prim::sort_pairs<u32>(dev, labels, keys_out, 0, bits);
    result.add_stage(&StageTimings::scan_ms, sorting.end());
  } else if constexpr (sizeof(V) == 8) {
    // 64-bit payloads cannot be packed next to the key; fall back to the
    // (label, index) sort + permutation variant the paper describes (and
    // rejects for 32-bit payloads because of its non-coalesced gathers).
    DeviceBuffer<u32> index(dev, n);
    sim::launch_warps(dev, "rbs_index", ceil_div(n, kWarpSize),
                      [&](Warp& w, u64 wid) {
      const u64 base = wid * kWarpSize;
      const LaneMask mask = prim::detail::row_mask(base, n);
      LaneArray<u32> idx;
      for (u32 lane = 0; lane < kWarpSize; ++lane)
        idx[lane] = static_cast<u32>(base + lane);
      w.store(index, base, idx, mask);
    });
    result.add_stage(&StageTimings::prescan_ms, labeling.end());
    sim::Stage sorting(dev, "reduced_bit/sorting");
    prim::sort_pairs<u32>(dev, labels, index, 0, bits);
    result.add_stage(&StageTimings::scan_ms, sorting.end());
    sim::Stage permuting(dev, "reduced_bit/permuting");
    sim::launch_warps(dev, "rbs_permute", ceil_div(n, kWarpSize),
                      [&](Warp& w, u64 wid) {
      const u64 base = wid * kWarpSize;
      const LaneMask mask = prim::detail::row_mask(base, n);
      const auto src = w.load(index, base, mask);
      LaneArray<u64> idx{};
      for (u32 lane = 0; lane < kWarpSize; ++lane) idx[lane] = src[lane];
      w.store(keys_out, base, w.gather(keys_in, idx, mask), mask);
      w.store(*vals_out, base, w.gather(*vals_in, idx, mask), mask);
    });
    result.add_stage(&StageTimings::postscan_ms, permuting.end());
  } else {
    // Key-value: pack (key, value) into u64, sort, unpack.
    DeviceBuffer<u64> packed(dev, n);
    sim::launch_warps(dev, "rbs_pack", ceil_div(n, kWarpSize),
                      [&](Warp& w, u64 wid) {
      const u64 base = wid * kWarpSize;
      const LaneMask mask = prim::detail::row_mask(base, n);
      const auto keys = w.load(keys_in, base, mask);
      const auto vals = w.load(*vals_in, base, mask);
      w.charge(2);
      const auto pk = keys.zip(vals, [](u32 k, u32 v) {
        return (static_cast<u64>(k) << 32) | v;
      });
      w.store(packed, base, pk, mask);
    });
    result.add_stage(&StageTimings::prescan_ms, labeling.end());
    sim::Stage sorting(dev, "reduced_bit/sorting");
    prim::sort_pairs<u64>(dev, labels, packed, 0, bits);
    result.add_stage(&StageTimings::scan_ms, sorting.end());
    sim::Stage unpacking(dev, "reduced_bit/unpacking");
    sim::launch_warps(dev, "rbs_unpack", ceil_div(n, kWarpSize),
                      [&](Warp& w, u64 wid) {
      const u64 base = wid * kWarpSize;
      const LaneMask mask = prim::detail::row_mask(base, n);
      const auto pk = w.load(packed, base, mask);
      w.charge(2);
      const auto keys = pk.map([](u64 p) { return static_cast<u32>(p >> 32); });
      const auto vals = pk.map([](u64 p) { return static_cast<u32>(p); });
      w.store(keys_out, base, keys, mask);
      w.store(*vals_out, base, vals, mask);
    });
    result.add_stage(&StageTimings::postscan_ms, unpacking.end());
  }

  // Host-side epilogue (launches no kernel, so it draws no trace band).
  const sim::Stage epilogue(dev, "reduced_bit/epilogue");
  // Bucket offsets from the sorted label vector (host-side, uncharged).
  // Labels are device data and untrusted: under fault injection a flipped
  // bit can push one outside [0, m), which must produce wrong offsets (the
  // resilient executor's validation catches those), never an out-of-range
  // host write.
  result.bucket_offsets.assign(m + 1, static_cast<u32>(n));
  result.bucket_offsets[0] = 0;
  for (u64 i = n; i-- > 0;) {
    const u32 lab = labels[i];
    if (lab < m) result.bucket_offsets[lab] = static_cast<u32>(i);
  }
  for (u32 j = m; j-- > 1;) {
    if (result.bucket_offsets[j] > result.bucket_offsets[j + 1])
      result.bucket_offsets[j] = result.bucket_offsets[j + 1];
  }
  return result;
}

}  // namespace ms::split::detail
