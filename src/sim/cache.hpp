// Set-associative L2 cache model.
//
// The GPU's L2 is what makes fine-grained scatters survivable: when many
// warps append to the same per-bucket output cursors, their partial 32-byte
// sectors coalesce in L2 and reach DRAM once.  The multisplit paper's
// central trade-off -- local reordering vs. scattered writes -- only
// reproduces faithfully if that effect exists, so we model it: an LRU
// set-associative cache of 32-byte sectors.  Reads miss once per sector of
// streamed data; writes to a sector still resident in L2 are free at the
// DRAM level (write combining), and a dirty sector costs one DRAM
// transaction when evicted or flushed.
//
// Every recorded sector of a parallel launch replays through this model
// serially (Device::merge_shard), so its per-access cost bounds the
// simulator's thread scaling.  The state is one compact record per set:
//
//   u32 lo[P]    low 32 bits of each way's sector (one vector compare)
//   u32 hi[P]    high 32 bits, checked only for ways whose low bits match
//   u32 valid    way mask
//   u32 dirty    way mask
//   u8  rank[P]  recency rank, 0 = most recent; a permutation of 0..ways-1
//
// where P is `ways` rounded up to kLanes.  Padding lanes sit outside the
// way masks and carry rank kPadRank, so no compare ever selects them.  A
// set-level dirty bitset lets flush_dirty() visit only sets holding dirty
// ways.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <vector>

#include "sim/simd.hpp"
#include "sim/types.hpp"

namespace ms::sim {

class ChaosEngine;

class SectorCache {
 public:
  struct AccessResult {
    bool hit = false;
    /// DRAM transactions caused by this access (miss fill and/or dirty
    /// eviction writeback).
    u32 dram_read_tx = 0;
    u32 dram_write_tx = 0;
  };

  /// Largest associativity the set record supports (one bit per way in
  /// the u32 valid/dirty masks).
  static constexpr u32 kMaxWays = 32;

  /// `capacity_bytes` / `sector_bytes` sectors arranged in `ways`-way sets.
  /// The capacity must be a whole number of sets.
  SectorCache(u32 capacity_bytes, u32 ways, u32 sector_bytes);

  /// Read one sector (identified by a device-wide sector index).  Defined
  /// inline: every warp memory instruction funnels its sectors through here,
  /// making this the single hottest call in the simulator.
  AccessResult read(u64 sector) { return access<false>(sector); }

  /// Write one sector.  Write misses allocate without a fill (the common
  /// GPU policy for full-sector streaming stores); the DRAM cost is paid at
  /// eviction/flush time as a writeback.
  AccessResult write(u64 sector) { return access<true>(sector); }

  /// Write back all dirty lines, in ascending (set, way) order; returns the
  /// number of DRAM write transactions.  Called at the end of each kernel:
  /// a kernel's stores must be globally visible before the next kernel
  /// launches.
  u64 flush_dirty();

  /// Drop everything (also clears statistics' working set).
  void reset();

  u32 sector_bytes() const { return sector_bytes_; }
  u32 num_sets() const { return num_sets_; }
  u32 ways() const { return ways_; }

  /// Attach/detach the fault-injection engine (Device::enable_chaos).
  /// When set, every dirty-sector writeback (eviction or flush) gives the
  /// engine a chance to corrupt the written-back range.  The writeback
  /// stream is identical serial vs replayed-parallel, so the draws are
  /// too.  A scramble writes buffer memory that kernel items read, so with
  /// an engine attached Device::run_items replays a batch of items only
  /// once all of them have completed, never while any still runs; the
  /// injections then stay deterministic at any thread count.
  void set_chaos(ChaosEngine* chaos) { chaos_ = chaos; }

 private:
  /// Ways compared per vector step; the record pads each field to it.
  static constexpr u32 kLanes = 16;
  static constexpr u8 kPadRank = 0x7F;
  static constexpr u32 kNoWay = ~0u;

  /// Out of line: needs the ChaosEngine definition, and only runs on dirty
  /// evictions/flushes (off the resident-hit fast path).
  void note_writeback(u64 sector);

  template <bool kWrite>
  AccessResult access(u64 sector) {
    const u32 set = set_of(sector);
    u32* rec = record(set);
    const u32 lo = static_cast<u32>(sector);
    const u32 hi = static_cast<u32>(sector >> 32);
    u32& valid = rec[2 * padded_];
    u32& dirty = rec[2 * padded_ + 1];
    u8* rank = ranks(rec);
    AccessResult r;
    if (const u32 w = find(rec, lo, hi, valid); w != kNoWay) {
      r.hit = true;
      if constexpr (kWrite) mark_dirty(dirty, set, w);
      touch(rank, w);
      return r;
    }
    const u32 w = victim(rank, valid);
    const u32 bit = 1u << w;
    if ((dirty & bit) != 0) {
      r.dram_write_tx = 1;
      note_writeback(tag(rec, w));
    }
    rec[w] = lo;
    rec[padded_ + w] = hi;
    valid |= bit;
    if constexpr (kWrite) {
      mark_dirty(dirty, set, w);  // allocate-without-fill: cost at writeback
    } else {
      dirty &= ~bit;
      r.dram_read_tx = 1;  // miss fill
    }
    touch(rank, w);
    return r;
  }

  /// sector % num_sets_.  Sectors below 2^32 (device addresses under
  /// 128 GiB with 32-byte sectors) take Lemire's fastmod: one multiply by
  /// the precomputed reciprocal and one high-half multiply instead of a
  /// 64-bit divide.
  u32 set_of(u64 sector) const {
    if ((sector >> 32) == 0) {
      const u64 low_bits = set_reciprocal_ * sector;
      return static_cast<u32>(
          (static_cast<unsigned __int128>(low_bits) * num_sets_) >> 64);
    }
    return static_cast<u32>(sector % num_sets_);
  }

  u32* record(u32 set) { return &sets_[std::size_t{set} * stride_]; }
  u8* ranks(u32* rec) const {
    return reinterpret_cast<u8*>(rec + 2 * padded_ + 2);
  }
  u64 tag(const u32* rec, u32 w) const {
    return (u64{rec[padded_ + w]} << 32) | rec[w];
  }

  void mark_dirty(u32& dirty, u32 set, u32 w) {
    dirty |= 1u << w;
    dirty_sets_[set >> 6] |= u64{1} << (set & 63);
  }

  /// The valid way holding the sector whose halves are `hi`:`lo`, or
  /// kNoWay.  The vector path compares every way's low half at once and
  /// checks the high half only where the low half matches.
  u32 find(const u32* rec, u32 lo, u32 hi, u32 valid) const {
#if defined(MS_SIMD_SSE2) || defined(MS_SIMD_AVX2)
    const __m128i key = _mm_set1_epi32(static_cast<int>(lo));
    for (u32 c = 0; c < padded_; c += kLanes) {
      const auto* p = reinterpret_cast<const __m128i*>(rec + c);
      const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(p), key);
      const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(p + 1), key);
      const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(p + 2), key);
      const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(p + 3), key);
      const __m128i b = _mm_packs_epi16(_mm_packs_epi32(e0, e1),
                                        _mm_packs_epi32(e2, e3));
      for (u32 m = (static_cast<u32>(_mm_movemask_epi8(b)) << c) & valid;
           m != 0; m &= m - 1) {
        const u32 w = static_cast<u32>(std::countr_zero(m));
        if (rec[padded_ + w] == hi) return w;
      }
    }
#else
    for (u32 w = 0; w < ways_; ++w) {
      if (rec[w] == lo && ((valid >> w) & 1u) != 0 &&
          rec[padded_ + w] == hi) {
        return w;
      }
    }
#endif
    return kNoWay;
  }

  /// Make way `w` the most recent: every way more recent than it ages by
  /// one.  Keeps the ranks a permutation, so among valid ways they order
  /// exactly like the last-touch times of a global access counter.
  void touch(u8* rank, u32 w) const {
    const u8 r = rank[w];
#if defined(MS_SIMD_SSE2) || defined(MS_SIMD_AVX2)
    // Way w is the one lane holding rank r; zero it in the same store.
    const __m128i rv = _mm_set1_epi8(static_cast<char>(r));
    for (u32 c = 0; c < padded_; c += kLanes) {
      auto* p = reinterpret_cast<__m128i*>(rank + c);
      const __m128i v = _mm_loadu_si128(p);
      // cmplt yields -1 where rank < r: subtracting it adds one.
      const __m128i aged = _mm_sub_epi8(v, _mm_cmplt_epi8(v, rv));
      _mm_storeu_si128(p, _mm_andnot_si128(_mm_cmpeq_epi8(v, rv), aged));
    }
#else
    // The same on eight ranks per u64.  Ranks are below 0x80, so no byte
    // borrows or carries into its neighbour.
    (void)w;
    const u64 below = (0x80 + u64{r} - 1) * kOnes;  // high bit: rank < r
    for (u32 c = 0; r != 0 && c < padded_; c += 8) {
      u64 v;
      std::memcpy(&v, rank + c, 8);
      const u64 aged = v + (((below - v) & kHigh) >> 7);
      v = aged & ~((equal_bytes(v, r) >> 7) * 0xFF);
      std::memcpy(rank + c, &v, 8);
    }
#endif
  }

  /// The way a miss fills: the first invalid way in 1..ways-1, else way 0
  /// if invalid, else the least recently used way.  Way placement decides
  /// which sector each eviction writes back and the order of the flush;
  /// the tolerance-0 baselines and the L2-writeback chaos fixture pin it.
  u32 victim(const u8* rank, u32 valid) const {
    const u32 free_above_0 = ~valid & way_mask_ & ~1u;
    if (free_above_0 != 0) {
      return static_cast<u32>(std::countr_zero(free_above_0));
    }
    if ((valid & 1u) == 0) return 0;
    // Every way is valid, so the ranks are a full permutation and the LRU
    // way is the one holding rank ways-1 (never a padding lane).
    const u8 oldest = static_cast<u8>(ways_ - 1);
#if defined(MS_SIMD_SSE2) || defined(MS_SIMD_AVX2)
    const __m128i rv = _mm_set1_epi8(static_cast<char>(oldest));
    for (u32 c = 0; c < padded_; c += kLanes) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rank + c));
      const auto m =
          static_cast<u32>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, rv)));
      if (m != 0) return c + static_cast<u32>(std::countr_zero(m));
    }
#else
    for (u32 c = 0; c < padded_; c += 8) {
      u64 v;
      std::memcpy(&v, rank + c, 8);
      const u64 m = equal_bytes(v, oldest);
      if (m != 0) return c + static_cast<u32>(std::countr_zero(m)) / 8;
    }
#endif
    return 0;  // unreachable while the ranks are a permutation
  }

#if !defined(MS_SIMD_SSE2) && !defined(MS_SIMD_AVX2)
  static constexpr u64 kOnes = 0x0101010101010101ull;
  static constexpr u64 kHigh = 0x8080808080808080ull;

  /// High bit set in each byte of `v` equal to `r`, clear elsewhere.
  static u64 equal_bytes(u64 v, u8 r) {
    const u64 x = v ^ (r * kOnes);
    return (kHigh - (x & ~kHigh)) & ~x & kHigh;
  }
#endif

  u32 ways_;
  u32 sector_bytes_;
  u32 num_sets_;
  u32 way_mask_;
  u32 padded_;   // ways_ rounded up to kLanes
  u32 stride_;   // u32 words per set record
  u64 set_reciprocal_;  // floor((2^64 - 1) / num_sets_) + 1, for set_of()
  std::vector<u32> sets_;        // num_sets_ records, set-major
  std::vector<u64> dirty_sets_;  // bit per set: may hold dirty ways
  ChaosEngine* chaos_ = nullptr;
};

}  // namespace ms::sim
