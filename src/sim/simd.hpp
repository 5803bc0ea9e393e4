// Portable host-SIMD lane engine for the 32-lane warp primitives.
//
// The simulator's inner loops are warp-wide operations over 32 lanes
// (ballot, bucket-bit broadcasts, class-mask intersection).  On a host
// with vector units those 32 lanes fit in a handful of registers, so this
// header wraps the few lane-parallel kernels the hot paths need behind a
// tiny ISA-dispatched API:
//
//   ballot(pred, active)        -- CUDA __ballot over a 32-lane register
//   bit_ballots(bucket, r, ...) -- ballots of bucket-ID bits 0..r-1 at once
//   class_masks(r, ballots, ..) -- the fused Algorithm-2/3 bitmap build:
//                                  M[c] = valid ∩ lanes whose low r bucket
//                                  bits equal c (see primitives/warp_ops)
//
// There is one lane engine: every caller takes these kernels.  The backend
// is a compile-time choice from what the target has (AVX2 > SSE2 > NEON >
// the simd::scalar loops).  The MS_SIMD=off CMake option is a test build
// configuration: it compiles the simd::scalar loops here (and the
// no-vector paths of sim/cache.hpp) on a host that has vector units, so
// the tolerance-0 baselines can be checked against them.  simd::scalar is
// also the reference the vector kernels are tested and benchmarked
// against.
//
// Nothing in here touches modeled costs: these are pure value computations
// whose results feed the same charging formulas on every backend.
#pragma once

#include <bit>

#include "sim/types.hpp"

#if !defined(MS_SIMD_DISABLE)
#if defined(__AVX2__)
#define MS_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MS_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define MS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !MS_SIMD_DISABLE

namespace ms::sim::simd {

/// Name of the compiled lane engine, as surfaced in --json reports and
/// `ms_cli --version` ("host_simd").
constexpr const char* backend_name() {
#if defined(MS_SIMD_AVX2)
  return "avx2";
#elif defined(MS_SIMD_SSE2)
  return "sse2";
#elif defined(MS_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference kernels: the plain per-lane loops.  The no-vector build
// runs them, and tests/test_lane_array.cpp and bench/lane_ops.cpp compare
// the vector kernels below against them.
// ---------------------------------------------------------------------------
namespace scalar {

inline u32 nonzero_mask(const u32* v) {
  u32 out = 0;
  for (u32 i = 0; i < kWarpSize; ++i) out |= (v[i] != 0 ? 1u : 0u) << i;
  return out;
}

inline void bit_ballots(const u32* bucket, u32 rounds, LaneMask valid,
                        u32* ballots) {
  for (u32 k = 0; k < rounds; ++k) {
    u32 mask = 0;
    for (u32 i = 0; i < kWarpSize; ++i) mask |= ((bucket[i] >> k) & 1u) << i;
    ballots[k] = mask & valid;
  }
}

inline void class_masks(u32 rounds, const u32* ballots, LaneMask valid,
                        u32* M) {
  const u32 classes = 1u << rounds;
  for (u32 c = 0; c < classes; ++c) M[c] = valid;
  for (u32 k = 0; k < rounds; ++k) {
    const u32 b = ballots[k];
    for (u32 c = 0; c < classes; ++c) M[c] &= b ^ (((c >> k) & 1u) - 1u);
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Lane-parallel kernels.  Each has one vector implementation per backend
// and falls back to its simd::scalar loop; results are bit-identical by
// construction.
// ---------------------------------------------------------------------------

/// Bit i of the result: v[i] != 0.  The core of __ballot/__any/__all.
inline u32 nonzero_mask(const u32* v) {
#if defined(MS_SIMD_AVX2)
  const __m256i zero = _mm256_setzero_si256();
  u32 out = 0;
  for (u32 g = 0; g < 4; ++g) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * g));
    const __m256i eq = _mm256_cmpeq_epi32(x, zero);
    const u32 zeros =
        static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    out |= (~zeros & 0xFFu) << (8 * g);
  }
  return out;
#elif defined(MS_SIMD_SSE2)
  const __m128i zero = _mm_setzero_si128();
  u32 out = 0;
  for (u32 g = 0; g < 8; ++g) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + 4 * g));
    const __m128i eq = _mm_cmpeq_epi32(x, zero);
    const u32 zeros = static_cast<u32>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
    out |= (~zeros & 0xFu) << (4 * g);
  }
  return out;
#elif defined(MS_SIMD_NEON)
  // Per group of 4 lanes: compare-nonzero lanes to all-ones, then collapse
  // each lane to its bit via a positional AND and a horizontal add.
  const uint32x4_t bits = {1u, 2u, 4u, 8u};
  u32 out = 0;
  for (u32 g = 0; g < 8; ++g) {
    const uint32x4_t x = vld1q_u32(v + 4 * g);
    const uint32x4_t nz = vtstq_u32(x, x);  // 0xFFFFFFFF where x != 0
    out |= vaddvq_u32(vandq_u32(nz, bits)) << (4 * g);
  }
  return out;
#else
  return scalar::nonzero_mask(v);
#endif
}

/// CUDA __ballot: bit i is pred[i] != 0 for lanes in `active`.
inline LaneMask ballot(const u32* pred, LaneMask active) {
  return nonzero_mask(pred) & active;
}

/// ballots[k] = mask of lanes (restricted to `valid`) whose bucket ID has
/// bit k set, for k in [0, rounds).  One pass replaces `rounds` sequential
/// ballot(bucket >> k & 1) calls.
inline void bit_ballots(const u32* bucket, u32 rounds, LaneMask valid,
                        u32* ballots) {
#if defined(MS_SIMD_AVX2)
  __m256i x[4];
  for (u32 g = 0; g < 4; ++g) {
    x[g] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bucket + 8 * g));
  }
  for (u32 k = 0; k < rounds; ++k) {
    u32 mask = 0;
    for (u32 g = 0; g < 4; ++g) {
      // Move bit k into the sign position and take the sign mask.
      const __m256i shifted = _mm256_slli_epi32(x[g], 31 - static_cast<int>(k));
      mask |= static_cast<u32>(
                  _mm256_movemask_ps(_mm256_castsi256_ps(shifted)) & 0xFF)
              << (8 * g);
    }
    ballots[k] = mask & valid;
  }
#elif defined(MS_SIMD_SSE2)
  for (u32 k = 0; k < rounds; ++k) {
    u32 mask = 0;
    for (u32 g = 0; g < 8; ++g) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bucket + 4 * g));
      const __m128i shifted = _mm_slli_epi32(x, 31 - static_cast<int>(k));
      mask |= static_cast<u32>(_mm_movemask_ps(_mm_castsi128_ps(shifted)) &
                               0xF)
              << (4 * g);
    }
    ballots[k] = mask & valid;
  }
#elif defined(MS_SIMD_NEON)
  const uint32x4_t bits = {1u, 2u, 4u, 8u};
  for (u32 k = 0; k < rounds; ++k) {
    u32 mask = 0;
    for (u32 g = 0; g < 8; ++g) {
      const uint32x4_t x = vld1q_u32(bucket + 4 * g);
      const uint32x4_t bit =
          vtstq_u32(x, vdupq_n_u32(1u << k));  // all-ones where bit k set
      mask |= vaddvq_u32(vandq_u32(bit, bits)) << (4 * g);
    }
    ballots[k] = mask & valid;
  }
#else
  scalar::bit_ballots(bucket, rounds, valid, ballots);
#endif
}

/// The fused Algorithm-2/3 bitmap build.  M[c] (for c in [0, 2^rounds)) is
/// the mask of lanes in `valid` whose low `rounds` bucket bits equal c:
///
///   M[c] = valid & AND_k ( bit_k(c) ? ballots[k] : ~ballots[k] )
///
/// The select is branchless: ballots[k] ^ (bit - 1) is ballots[k] when
/// bit == 1 and ~ballots[k] when bit == 0.  `M` must hold 2^rounds words
/// (rounds <= 8 across this library: m <= 256).
inline void class_masks(u32 rounds, const u32* ballots, LaneMask valid,
                        u32* M) {
#if defined(MS_SIMD_AVX2)
  const u32 classes = 1u << rounds;
  if (classes >= 8) {
    for (u32 c0 = 0; c0 < classes; c0 += 8) {
      __m256i m = _mm256_set1_epi32(static_cast<int>(valid));
      const __m256i c = _mm256_setr_epi32(
          static_cast<int>(c0 + 0), static_cast<int>(c0 + 1),
          static_cast<int>(c0 + 2), static_cast<int>(c0 + 3),
          static_cast<int>(c0 + 4), static_cast<int>(c0 + 5),
          static_cast<int>(c0 + 6), static_cast<int>(c0 + 7));
      for (u32 k = 0; k < rounds; ++k) {
        const __m256i b = _mm256_set1_epi32(static_cast<int>(ballots[k]));
        // bit - 1 per class: 0 where bit k of c is set, ~0 where clear.
        const __m256i bit = _mm256_and_si256(
            _mm256_srli_epi32(c, static_cast<int>(k)), _mm256_set1_epi32(1));
        const __m256i sel = _mm256_sub_epi32(bit, _mm256_set1_epi32(1));
        m = _mm256_and_si256(m, _mm256_xor_si256(b, sel));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(M + c0), m);
    }
    return;
  }
#endif
  scalar::class_masks(rounds, ballots, valid, M);
}

}  // namespace ms::sim::simd
