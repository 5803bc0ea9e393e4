// GPU Multisplit -- public API.
//
// Multisplit permutes keys (or key-value pairs) into m contiguous buckets,
// ordered by ascending bucket ID, where a programmer-provided functor maps
// each key to its bucket.  The deterministic methods are stable (input
// order preserved within a bucket); randomized insertion is not.
//
//   Device dev;                                    // simulated K40c
//   DeviceBuffer<u32> in(dev, n), out(dev, n);
//   ... fill in ...
//   auto r = multisplit_keys(dev, in, out, /*m=*/8, RangeBucket{8});
//   // out now holds the permuted keys; r.bucket_offsets[j] is where
//   // bucket j starts; r.stages breaks the cost into the paper's
//   // pre-scan / scan / post-scan stages.
//
// Method selection (MultisplitConfig::method) follows the paper's guidance:
// Warp-level MS for small m (<= ~6), Block-level MS for larger m; Direct
// MS, scan-based splits, reduced-bit sort and randomized insertion are
// provided as the paper's full cast of alternatives and baselines.
// Method::kAuto applies that guidance automatically.
//
// The free functions below are one-shot conveniences: each builds a
// MultisplitPlan (plan.hpp) and runs it once.  Callers that split
// repeatedly should build the plan themselves and reuse it -- scratch
// buffers then come back from the device's pooled allocator and repeated
// runs re-hit L2 (see bench/plan_reuse.cpp).  Single-shot modeled costs
// are identical either way.
#pragma once

#include "multisplit/plan.hpp"

namespace ms::split {

/// Key-only multisplit of `in` into `out` (distinct buffers, equal size).
/// Returns bucket offsets and per-stage timings.
template <typename BucketFn>
MultisplitResult multisplit_keys(sim::Device& dev,
                                 const sim::DeviceBuffer<u32>& in,
                                 sim::DeviceBuffer<u32>& out, u32 m,
                                 BucketFn bucket_of,
                                 const MultisplitConfig& cfg = {}) {
  const MultisplitPlan plan(dev, in.size(), m, cfg);
  return plan.run(in, out, bucket_of);
}

/// Key-value multisplit: values are permuted alongside their keys.
/// V is u32 or u64 -- the paper's "values larger than the size of a
/// pointer use a pointer in place of the actual value" convention.
template <typename BucketFn, typename V>
MultisplitResult multisplit_pairs(sim::Device& dev,
                                  const sim::DeviceBuffer<u32>& keys_in,
                                  const sim::DeviceBuffer<V>& vals_in,
                                  sim::DeviceBuffer<u32>& keys_out,
                                  sim::DeviceBuffer<V>& vals_out, u32 m,
                                  BucketFn bucket_of,
                                  const MultisplitConfig& cfg = {}) {
  static_assert(std::is_same_v<V, u32> || std::is_same_v<V, u64>,
                "multisplit values are u32 or u64 (use a pointer otherwise)");
  const MultisplitPlan plan(dev, keys_in.size(), m, cfg,
                            static_cast<u32>(sizeof(V)));
  return plan.run_pairs(keys_in, vals_in, keys_out, vals_out, bucket_of);
}

}  // namespace ms::split
