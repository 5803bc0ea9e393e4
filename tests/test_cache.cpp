// SectorCache (L2 model) unit tests: hit/miss behaviour, LRU eviction,
// dirty writeback accounting, flush semantics, and a seeded differential
// run against the array-of-lines tick-LRU model the set records replaced.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/cache.hpp"
#include "sim/chaos.hpp"
#include "sim/device.hpp"
#include "sim/memory.hpp"

namespace ms::sim {
namespace {

TEST(SectorCache, ColdReadMissesThenHits) {
  SectorCache c(1024, 4, 32);
  auto r1 = c.read(7);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.dram_read_tx, 1u);
  auto r2 = c.read(7);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.dram_read_tx, 0u);
}

TEST(SectorCache, WriteAllocatesWithoutFill) {
  SectorCache c(1024, 4, 32);
  auto w = c.write(3);
  EXPECT_FALSE(w.hit);
  EXPECT_EQ(w.dram_read_tx, 0u);   // no fill on write miss
  EXPECT_EQ(w.dram_write_tx, 0u);  // cost deferred to writeback
  EXPECT_EQ(c.flush_dirty(), 1u);
  EXPECT_EQ(c.flush_dirty(), 0u);  // idempotent
}

TEST(SectorCache, ReadAfterWriteHitsWithoutFill) {
  SectorCache c(1024, 4, 32);
  c.write(5);
  auto r = c.read(5);
  EXPECT_TRUE(r.hit);
}

TEST(SectorCache, LruEvictionWithinSet) {
  // 4 ways; sectors that map to the same set are k*num_sets apart.
  SectorCache c(1024, 4, 32);  // 32 lines, 8 sets
  const u64 sets = c.num_sets();
  // Fill set 0 with 4 distinct tags.
  for (u64 k = 0; k < 4; ++k) c.read(k * sets);
  // Touch the first three again so tag 3*sets is LRU.
  c.read(0);
  c.read(sets);
  c.read(2 * sets);
  // A fifth tag evicts the LRU (3*sets).
  c.read(4 * sets);
  EXPECT_TRUE(c.read(0).hit);
  EXPECT_FALSE(c.read(3 * sets).hit);
}

TEST(SectorCache, DirtyEvictionCostsWriteback) {
  SectorCache c(128, 1, 32);  // 4 sets, direct-mapped
  const u64 sets = c.num_sets();
  c.write(0);
  auto r = c.read(sets);  // maps to set 0, evicts dirty line
  EXPECT_EQ(r.dram_write_tx, 1u);
  EXPECT_EQ(r.dram_read_tx, 1u);
}

TEST(SectorCache, ResetDropsEverything) {
  SectorCache c(1024, 4, 32);
  c.write(1);
  c.read(2);
  c.reset();
  EXPECT_EQ(c.flush_dirty(), 0u);
  EXPECT_FALSE(c.read(2).hit);
}

TEST(SectorCache, RejectsBadGeometry) {
  EXPECT_THROW(SectorCache(16, 4, 32), std::logic_error);
  EXPECT_THROW(SectorCache(1024, 0, 32), std::logic_error);
  // 1000 B is not a whole number of 128 B sets (it used to model 896 B).
  EXPECT_THROW(SectorCache(1000, 4, 32), std::logic_error);
  constexpr u32 kMax = SectorCache::kMaxWays;
  EXPECT_NO_THROW(SectorCache(4 * kMax * 32, kMax, 32));
  EXPECT_THROW(SectorCache(4 * (kMax + 1) * 32, kMax + 1, 32),
               std::logic_error);
}

TEST(SectorCache, LargeWorkingSetThrashes) {
  SectorCache c(1024, 4, 32);  // 32 lines total
  u32 misses = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (u64 s = 0; s < 64; ++s) {  // 2x capacity
      if (!c.read(s).hit) ++misses;
    }
  }
  EXPECT_EQ(misses, 3u * 64u);  // pure capacity thrash: no reuse survives
}

// The array-of-lines model with a global access tick that SectorCache
// replaced.  Kept verbatim in behaviour as the differential reference;
// it also records every writeback, in order.
class TickLruCache {
 public:
  TickLruCache(u32 capacity_bytes, u32 ways, u32 sector_bytes)
      : ways_(ways),
        sets_(capacity_bytes / sector_bytes / ways),
        lines_(static_cast<std::size_t>(sets_) * ways) {}

  SectorCache::AccessResult access(u64 sector, bool is_write) {
    Line* base = &lines_[(sector % sets_) * ways_];
    SectorCache::AccessResult r;
    for (u32 w = 0; w < ways_; ++w) {
      if (base[w].tag == sector) {
        r.hit = true;
        base[w].dirty = base[w].dirty || is_write;
        base[w].lru = ++tick_;
        return r;
      }
    }
    Line* victim = base;
    for (u32 w = 1; w < ways_; ++w) {
      if (base[w].tag == kInvalid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    if (victim->tag != kInvalid && victim->dirty) {
      r.dram_write_tx = 1;
      writebacks.push_back(victim->tag);
    }
    if (!is_write) r.dram_read_tx = 1;
    *victim = Line{sector, ++tick_, is_write};
    return r;
  }

  u64 flush_dirty() {
    u64 n = 0;
    for (Line& line : lines_) {
      if (line.tag != kInvalid && line.dirty) {
        line.dirty = false;
        ++n;
        writebacks.push_back(line.tag);
      }
    }
    return n;
  }

  void reset() {
    lines_.assign(lines_.size(), Line{});
    tick_ = 0;
  }

  std::vector<u64> writebacks;

 private:
  static constexpr u64 kInvalid = ~u64{0};
  struct Line {
    u64 tag = kInvalid;
    u64 lru = 0;
    bool dirty = false;
  };
  u32 ways_;
  u32 sets_;
  u64 tick_ = 0;
  std::vector<Line> lines_;
};

struct Geometry {
  u32 capacity_bytes;
  u32 ways;
};

class SectorCacheDifferential : public ::testing::TestWithParam<Geometry> {};

TEST_P(SectorCacheDifferential, MatchesTickLruReference) {
  const Geometry g = GetParam();
  SectorCache cache(g.capacity_bytes, g.ways, 32);
  TickLruCache ref(g.capacity_bytes, g.ways, 32);
  const u64 sets = cache.num_sets();
  const u64 lines = sets * g.ways;
  // The chaos engine takes one draw per writeback; at probability 1 it
  // logs every writeback that lands in a registered buffer, which makes
  // the cache's writeback order observable.  Low halves of the sectors
  // fall in `window`.
  Device dev;
  ChaosPolicy scramble_all;
  scramble_all.p_l2_corrupt = 1.0;
  cache.set_chaos(&dev.enable_chaos(scramble_all));
  DeviceBuffer<u32> window(dev, 3 * lines * 8, "window");
  ASSERT_EQ(window.base_address() % 32, 0u);
  const u64 first = window.base_address() / 32;
  // High halves 0 and 1 take the fastmod and the 64-bit set paths.  A high
  // half that is a multiple of the set count maps a sector to the same
  // set as its low 32 bits alone, so those sectors collide on the partial
  // tag and only the full-tag check tells them apart.
  const u64 highs[] = {0, 0, 0, 1, sets, 3 * sets};
  std::mt19937_64 rng(0x5EC7C0DEu + g.ways * 7919u + sets);
  u64 cursor = 0;
  for (int step = 0; step < 200000; ++step) {
    const u64 roll = rng() % 10000;
    if (roll < 2) {
      cache.reset();
      ref.reset();
      continue;
    }
    if (roll < 40) {
      ASSERT_EQ(cache.flush_dirty(), ref.flush_dirty()) << "step " << step;
      continue;
    }
    // Half the touches walk a sequential stream, half land at random in a
    // footprint of three capacities.
    const u64 lo =
        first + (roll % 2 == 0 ? cursor++ % (3 * lines) : rng() % (3 * lines));
    const u64 sector = (highs[rng() % std::size(highs)] << 32) | lo;
    const bool is_write = rng() % 2 == 0;
    const auto got = is_write ? cache.write(sector) : cache.read(sector);
    const auto want = ref.access(sector, is_write);
    ASSERT_EQ(got.hit, want.hit) << "step " << step << " sector " << sector;
    ASSERT_EQ(got.dram_read_tx, want.dram_read_tx) << "step " << step;
    ASSERT_EQ(got.dram_write_tx, want.dram_write_tx) << "step " << step;
  }
  EXPECT_EQ(cache.flush_dirty(), ref.flush_dirty());
  std::vector<u64> got;
  for (const InjectionRecord& rec : dev.chaos()->log()) {
    got.push_back(first + rec.word / 8);
  }
  std::vector<u64> want;
  for (const u64 sector : ref.writebacks) {
    if ((sector >> 32) == 0) want.push_back(sector);
  }
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want) << "writeback order differs";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SectorCacheDifferential,
    ::testing::Values(Geometry{128, 1},              // 1-way, 4 sets
                      Geometry{1024, 4},             // 4-way, 8 sets
                      Geometry{1536 * 1024, 16},     // K40c: 3072 sets
                      Geometry{96 * 16 * 32, 16},    // 16-way, 96 sets
                      Geometry{7 * 20 * 32, 20},     // padded lanes
                      Geometry{24 * SectorCache::kMaxWays * 32,
                               SectorCache::kMaxWays}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(info.param.ways) + "way_" +
             std::to_string(info.param.capacity_bytes / 32 /
                            info.param.ways) +
             "sets";
    });

}  // namespace
}  // namespace ms::sim
