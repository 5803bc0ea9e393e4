// Sort-based multisplit baselines (paper Sections 3.1 and 3.3).
//
// * radix_sort_multisplit: a full 32-bit radix sort of the keys.  When
//   buckets are range-based (larger bucket ID <=> larger keys), a sorted
//   key vector IS a valid -- though not stable -- multisplit (Figure 1).
//   This is the paper's Table 3 baseline and the denominator of every
//   speedup in Table 6.
// * identity_sort_multisplit: the trivial identity-buckets case
//   (B_i = {i}, keys in {0..m-1}), where sorting only ceil(log2 m) key
//   bits is the right tool; Table 4's last row.
#pragma once

#include "multisplit/common.hpp"
#include "primitives/radix_sort.hpp"

namespace ms::split {

namespace detail {
inline void offsets_from_sorted_range(const sim::DeviceBuffer<u32>& keys,
                                      u32 m, auto&& bucket_of,
                                      std::vector<u32>& out) {
  const u64 n = keys.size();
  out.assign(m + 1, static_cast<u32>(n));
  out[0] = 0;
  for (u64 i = n; i-- > 0;) out[bucket_of(keys[i])] = static_cast<u32>(i);
  for (u32 j = m; j-- > 1;) {
    if (out[j] > out[j + 1]) out[j] = out[j + 1];
  }
}
}  // namespace detail

/// Multisplit via a full radix sort of the keys.  Only valid for
/// monotone (range-style) bucket functions; not stable.
template <typename BucketFn>
MultisplitResult radix_sort_multisplit_keys(sim::Device& dev,
                                            const sim::DeviceBuffer<u32>& in,
                                            sim::DeviceBuffer<u32>& out, u32 m,
                                            BucketFn bucket_of,
                                            u32 sort_bits = 32) {
  MultisplitResult r;
  sim::Stage sorting(dev, "radix_sort/sorting");
  sim::device_copy(dev, out, in);
  prim::sort_keys(dev, out, 0, sort_bits);
  r.add_stage(&StageTimings::scan_ms, sorting.end());
  detail::offsets_from_sorted_range(out, m, bucket_of, r.bucket_offsets);
  return r;
}

/// Key-value multisplit via a full radix sort of (key, value) pairs.
template <typename BucketFn>
MultisplitResult radix_sort_multisplit_pairs(
    sim::Device& dev, const sim::DeviceBuffer<u32>& kin,
    const sim::DeviceBuffer<u32>& vin, sim::DeviceBuffer<u32>& kout,
    sim::DeviceBuffer<u32>& vout, u32 m, BucketFn bucket_of,
    u32 sort_bits = 32) {
  MultisplitResult r;
  sim::Stage sorting(dev, "radix_sort/sorting");
  sim::device_copy(dev, kout, kin);
  sim::device_copy(dev, vout, vin);
  prim::sort_pairs<u32>(dev, kout, vout, 0, sort_bits);
  r.add_stage(&StageTimings::scan_ms, sorting.end());
  detail::offsets_from_sorted_range(kout, m, bucket_of, r.bucket_offsets);
  return r;
}

}  // namespace ms::split
