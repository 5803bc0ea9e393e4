// Fused-bucket sort multisplit -- the paper's Section 3.4 "future work",
// implemented.
//
// The reduced-bit sort's overheads are exactly the ones the paper wishes
// sort libraries would remove: "Today's sort primitives do not currently
// provide APIs for user-specified computations (e.g., bucket
// identifications) to be integrated as functors directly into sort's
// kernels; while this is an intriguing area of future work for the
// designers of sort primitives, ...".  Because this library owns its sort,
// we can do it: each counting pass evaluates the bucket functor inside the
// ranking kernels and sorts on a bit-window *of the bucket ID* -- no label
// vector is ever materialized, no (label, payload) pairs are packed or
// unpacked, and key-value pairs move exactly once per pass.
//
// Costs relative to the reduced-bit sort: saves the labeling pass (~2n
// global traffic), the label payloads in every pass, and the (un)packing
// passes for key-value inputs; pays the bucket functor ceil(bits/5) + 1
// extra evaluations per element.  The `ablation_fused_sort` bench
// quantifies the trade.
#pragma once

#include "multisplit/bucket.hpp"
#include "multisplit/common.hpp"
#include "primitives/radix_sort.hpp"

namespace ms::split::detail {

template <typename BucketFn, typename V = u32>
MultisplitResult fused_bucket_sort_ms(Device& dev,
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
  prim::RadixSortConfig rc;
  const u32 passes = static_cast<u32>(ceil_div(bits, rc.bits_per_pass));

  MultisplitResult result;
  sim::Stage sorting(dev, "fused_sort/sorting");

  DeviceBuffer<u32> tmp_keys(dev, n);
  std::optional<DeviceBuffer<V>> tmp_vals;
  if (vals_in != nullptr) tmp_vals.emplace(dev, n);

  // Ping-pong so the last pass lands in the caller's output buffers.  The
  // first pass reads the (const) input directly -- with an even pass count
  // the first write goes to the temporaries.
  const DeviceBuffer<u32>* src_k = &keys_in;
  const DeviceBuffer<V>* src_v = vals_in;
  u32 shift = 0;
  for (u32 p = 0; p < passes; ++p) {
    const bool to_out = ((passes - 1 - p) % 2 == 0);
    DeviceBuffer<u32>* dst_k = to_out ? &keys_out : &tmp_keys;
    DeviceBuffer<V>* dst_v =
        vals_in != nullptr ? (to_out ? vals_out : &*tmp_vals) : nullptr;
    const u32 pass_bits = std::min(rc.bits_per_pass, bits - shift);
    const u32 md = 1u << pass_bits;
    prim::detail::radix_pass_fn<V>(
        dev, *src_k, *dst_k, src_v, dst_v, md,
        [&, shift, md](u32 k) { return (bucket_of(k) >> shift) & (md - 1); },
        /*digit_cost=*/kBucketCost + 1, rc);
    src_k = dst_k;
    src_v = dst_v;
    shift += pass_bits;
  }
  check(src_k == &keys_out, "fused_bucket_sort: ping-pong ended wrong");

  result.add_stage(&StageTimings::scan_ms, sorting.end());  // one stage

  // Bucket offsets from the sorted-by-bucket output (host-side).  Output
  // keys are device data and untrusted: with an identity-style bucket
  // function a fault-injected bit flip can map one outside [0, m), which
  // must yield wrong offsets (caught by resilient validation), never an
  // out-of-range host write.
  result.bucket_offsets.assign(m + 1, static_cast<u32>(n));
  result.bucket_offsets[0] = 0;
  for (u64 i = n; i-- > 0;) {
    const u32 b = bucket_of(keys_out[i]);
    if (b < m) result.bucket_offsets[b] = static_cast<u32>(i);
  }
  for (u32 j = m; j-- > 1;) {
    if (result.bucket_offsets[j] > result.bucket_offsets[j + 1])
      result.bucket_offsets[j] = result.bucket_offsets[j + 1];
  }
  return result;
}

}  // namespace ms::split::detail
