// Bucket-identification functors (the paper's programmer-provided
// `whatBucket()`).  A bucket functor maps a 32-bit key to a bucket ID in
// [0, m); it must be pure and cheap, since every multisplit stage
// recomputes it rather than storing labels (the paper's footnote 6 finds
// recomputation cheaper than a global round-trip -- an ablation bench
// checks the same trade-off here).
//
// `charge_cost` tells the simulator how many warp instructions one
// evaluation costs; the default of 2 models a multiply+shift or
// compare+select.
#pragma once

#include <span>
#include <vector>

#include "sim/types.hpp"

namespace ms::split {

/// Buckets that equally divide the full 32-bit key domain -- the paper's
/// evaluation setup (Section 6): bucket(key) = floor(key * m / 2^32).
struct RangeBucket {
  u32 m;
  u32 operator()(u32 key) const {
    return static_cast<u32>((static_cast<u64>(key) * m) >> 32);
  }
  static constexpr u32 charge_cost = 2;
};

/// Identity buckets B_i = {i} over keys drawn from {0..m-1} -- the trivial
/// case of Section 3.1 where a plain radix sort is the right tool.
struct IdentityBucket {
  u32 operator()(u32 key) const { return key; }
  static constexpr u32 charge_cost = 0;
};

/// Group by low bits (hash-join style grouping of low-bit radixes).
struct LowBitsBucket {
  u32 bits;
  u32 operator()(u32 key) const { return key & ((1u << bits) - 1); }
  static constexpr u32 charge_cost = 1;
};

/// Delta-stepping SSSP buckets: bucket(dist) = min(dist / delta, m-1),
/// with one overflow bucket at the top.  Distances are fixed-point u32.
struct DeltaBucket {
  u32 delta;
  u32 m;
  u32 operator()(u32 dist) const {
    const u32 b = dist / delta;
    return b < m ? b : m - 1;
  }
  static constexpr u32 charge_cost = 3;
};

/// Two-pivot three-way bucketing (probabilistic top-k selection, one of the
/// paper's motivating applications: three bins around two pivots).
struct PivotBucket {
  u32 lo, hi;
  u32 operator()(u32 key) const { return (key >= hi) ? 2u : (key >= lo) ? 1u : 0u; }
  static constexpr u32 charge_cost = 3;
};

/// Prime/composite example from the paper's Figure 1.  Deliberately
/// expensive; demonstrates that bucket IDs need not be order-preserving.
struct PrimeBucket {
  u32 operator()(u32 key) const {
    if (key < 2) return 1u;  // composite-ish bucket for 0 and 1
    for (u32 d = 2; d * d <= key; ++d) {
      if (key % d == 0) return 1u;
    }
    return 0u;
  }
  static constexpr u32 charge_cost = 16;
};

namespace detail {
template <typename F, typename = void>
struct ChargeCost {
  static constexpr u32 value = 2;
};
template <typename F>
struct ChargeCost<F, std::void_t<decltype(F::charge_cost)>> {
  static constexpr u32 value = F::charge_cost;
};
}  // namespace detail

/// Instruction cost of one bucket-functor evaluation (defaults to 2 for
/// functors that don't declare a `charge_cost`).
template <typename F>
inline constexpr u32 bucket_charge_cost = detail::ChargeCost<F>::value;

/// Host oracle: the stable partition `bucket_of` induces on `keys` (what
/// every stable method must output) and its m + 1 bucket offsets.
/// Returns false, leaving the outputs unspecified, when a key maps
/// outside [0, m).
template <typename BucketFn>
bool host_stable_partition(std::span<const u32> keys, u32 m,
                           const BucketFn& bucket_of,
                           std::vector<u32>& out_keys,
                           std::vector<u32>& offsets) {
  std::vector<u32> counts(m, 0);
  for (const u32 k : keys) {
    const u32 b = bucket_of(k);
    if (b >= m) return false;
    counts[b] += 1;
  }
  offsets.assign(m + 1, 0);
  for (u32 j = 0; j < m; ++j) offsets[j + 1] = offsets[j] + counts[j];
  std::vector<u32> cursor(offsets.begin(), offsets.end() - 1);
  out_keys.assign(keys.size(), 0);
  for (const u32 k : keys) out_keys[cursor[bucket_of(k)]++] = k;
  return true;
}

}  // namespace ms::split
