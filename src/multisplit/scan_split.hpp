// Scan-based split (paper Section 3.2).
//
// One round stably partitions the input by a binary flag using one
// device-wide scan: elements with flag 0 keep their relative order at the
// front, flag-1 elements at the back.  The recursive variant runs
// ceil(log2 m) rounds over the *bits of the bucket ID*, least-significant
// bit first -- each round is a stable binary split, so the composition is a
// stable multisplit (the same argument that makes LSB radix sort stable).
//
// The paper reports only an idealized lower bound (log2(m) times one
// split) because a single round was already uncompetitive; we implement
// the full recursion and benches report both the real time and that bound.
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/scan.hpp"

namespace ms::split::detail {

/// One stable binary split round: elements with bit_of(key) == 0 first.
/// Stage kernels are named after the paper's Table 4 rows (labeling /
/// scan / splitting); each round's stages add into `result`.
template <typename BitFn, typename V = u32>
void split_round(Device& dev, const DeviceBuffer<u32>& keys_in,
                 DeviceBuffer<u32>& keys_out, const DeviceBuffer<V>* vals_in,
                 DeviceBuffer<V>* vals_out, BitFn bit_of,
                 MultisplitResult& result) {
  const u64 n = keys_in.size();
  DeviceBuffer<u32> flags(dev, n);
  DeviceBuffer<u32> scanned(dev, n);
  const sim::SiteId scatter_site = dev.site_id("scan_split/scatter");

  sim::Stage labeling(dev, "scan_split/labeling");
  sim::launch_warps(dev, "split_labeling", ceil_div(n, kWarpSize),
                    [&](Warp& w, u64 wid) {
    const u64 base = wid * kWarpSize;
    const LaneMask mask = prim::detail::row_mask(base, n);
    const auto keys = w.load(keys_in, base, mask);
    w.charge(2);
    const auto f = keys.map([&](u32 k) { return bit_of(k); });
    w.store(flags, base, f, mask);
  });
  result.add_stage(&StageTimings::prescan_ms, labeling.end());

  sim::Stage scan(dev, "scan_split/scan");
  prim::exclusive_scan<u32>(dev, flags, scanned);
  result.add_stage(&StageTimings::scan_ms, scan.end());

  const u64 total1 = scanned[n - 1] + flags[n - 1];
  const u64 total0 = n - total1;

  sim::Stage splitting(dev, "scan_split/splitting");
  sim::launch_warps(dev, "split_scatter", ceil_div(n, kWarpSize),
                    [&](Warp& w, u64 wid) {
    const u64 base = wid * kWarpSize;
    const LaneMask mask = prim::detail::row_mask(base, n);
    const auto keys = w.load(keys_in, base, mask);
    const auto f = w.load(flags, base, mask);
    const auto s = w.load(scanned, base, mask);
    w.charge(3);
    LaneArray<u64> pos{};
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const u64 i = base + lane;
      pos[lane] = f[lane] ? (total0 + s[lane]) : (i - s[lane]);
    }
    {
      sim::ScopedSite site(dev, scatter_site);
      w.scatter(keys_out, pos, keys, mask);
    }
    if (vals_in != nullptr) {
      const auto vals = w.load(*vals_in, base, mask);
      sim::ScopedSite site(dev, scatter_site);
      w.scatter(*vals_out, pos, vals, mask);
    }
  });
  result.add_stage(&StageTimings::postscan_ms, splitting.end());
}

/// Recursive scan-based split: ceil(log2 m) stable binary-split rounds over
/// the bucket-ID bits, LSB first.  For m == 2 this is the classic single
/// scan-based split.
template <typename BucketFn, typename V = u32>
MultisplitResult scan_split_ms(Device& dev, const DeviceBuffer<u32>& keys_in,
                               DeviceBuffer<u32>& keys_out,
                               const DeviceBuffer<V>* vals_in,
                               DeviceBuffer<V>* vals_out, u32 m,
                               BucketFn bucket_of,
                               const MultisplitConfig& cfg) {
  (void)cfg;
  const u64 n = keys_in.size();
  const u32 rounds = std::max<u32>(1, ceil_log2(m));

  MultisplitResult result;

  DeviceBuffer<u32> tmp_keys(dev, rounds > 1 ? n : 0);
  std::optional<DeviceBuffer<V>> tmp_vals;
  if (vals_in != nullptr && rounds > 1) tmp_vals.emplace(dev, n);

  // Ping-pong buffers so round `rounds-1` writes into keys_out.
  const DeviceBuffer<u32>* src_k = &keys_in;
  const DeviceBuffer<V>* src_v = vals_in;
  for (u32 r = 0; r < rounds; ++r) {
    const bool to_out = ((rounds - 1 - r) % 2 == 0);
    DeviceBuffer<u32>* dst_k = to_out ? &keys_out : &tmp_keys;
    DeviceBuffer<V>* dst_v =
        vals_in != nullptr ? (to_out ? vals_out : &*tmp_vals) : nullptr;
    split_round(
        dev, *src_k, *dst_k, src_v, dst_v,
        [&](u32 k) { return (bucket_of(k) >> r) & 1u; }, result);
    src_k = dst_k;
    src_v = dst_v;
  }
  check(src_k == &keys_out, "scan_split: ping-pong ended in wrong buffer");
  // Host-side epilogue (launches no kernel, so it draws no trace band).
  const sim::Stage epilogue(dev, "scan_split/epilogue");
  // Bucket offsets: derived host-side from the (already split) output;
  // uncharged verification convenience, as the split rounds themselves
  // never materialize a histogram.
  // Output keys are device data and untrusted (see reduced_bit_sort.hpp):
  // a corrupted key whose bucket falls outside [0, m) must produce wrong
  // offsets, never an out-of-range host write.
  result.bucket_offsets.assign(m + 1, 0);
  for (u64 i = 0; i < n; ++i) {
    const u32 b = bucket_of(keys_out[i]);
    if (b < m) result.bucket_offsets[b + 1]++;
  }
  for (u32 j = 0; j < m; ++j)
    result.bucket_offsets[j + 1] += result.bucket_offsets[j];
  return result;
}

}  // namespace ms::split::detail
