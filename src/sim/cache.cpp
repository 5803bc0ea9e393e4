#include "sim/cache.hpp"

#include <algorithm>
#include <utility>

#include "sim/chaos.hpp"

namespace ms::sim {

void SectorCache::note_writeback(u64 sector) {
  if (chaos_ != nullptr) {
    chaos_->on_writeback(sector * sector_bytes_, sector_bytes_);
  }
}

SectorCache::SectorCache(u32 capacity_bytes, u32 ways, u32 sector_bytes)
    : ways_(ways), sector_bytes_(sector_bytes) {
  check(ways > 0 && sector_bytes > 0, "cache: bad geometry");
  check(ways <= kMaxWays, "cache: more ways than the set record holds");
  const u64 set_bytes = u64{sector_bytes} * ways;
  check(capacity_bytes >= set_bytes, "cache: capacity smaller than one set");
  check(capacity_bytes % set_bytes == 0,
        "cache: capacity is not a whole number of sets");
  num_sets_ = static_cast<u32>(capacity_bytes / set_bytes);
  way_mask_ = ways == 32 ? ~0u : (1u << ways) - 1;
  padded_ = (ways + kLanes - 1) / kLanes * kLanes;
  // lo[P] hi[P] valid dirty rank[P bytes], padded to 16 bytes.
  stride_ = (2 * padded_ + 2 + padded_ / 4 + 3) / 4 * 4;
  set_reciprocal_ = ~u64{0} / num_sets_ + 1;
  sets_.resize(std::size_t{num_sets_} * stride_);
  dirty_sets_.resize((num_sets_ + 63) / 64);
  reset();
}

u64 SectorCache::flush_dirty() {
  u64 writebacks = 0;
  for (std::size_t i = 0; i < dirty_sets_.size(); ++i) {
    for (u64 sets = std::exchange(dirty_sets_[i], 0); sets != 0;
         sets &= sets - 1) {
      const u32 set = static_cast<u32>(i * 64 + std::countr_zero(sets));
      u32* rec = record(set);
      for (u32 d = std::exchange(rec[2 * padded_ + 1], 0); d != 0;
           d &= d - 1) {
        ++writebacks;
        note_writeback(tag(rec, static_cast<u32>(std::countr_zero(d))));
      }
    }
  }
  return writebacks;
}

void SectorCache::reset() {
  std::fill(sets_.begin(), sets_.end(), 0u);
  for (u32 set = 0; set < num_sets_; ++set) {
    u8* rank = ranks(record(set));
    for (u32 w = 0; w < padded_; ++w) {
      rank[w] = w < ways_ ? static_cast<u8>(w) : kPadRank;
    }
  }
  std::fill(dirty_sets_.begin(), dirty_sets_.end(), u64{0});
}

}  // namespace ms::sim
