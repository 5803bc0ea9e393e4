// Block execution context: NW warps, a shared-memory arena, and barriers.
//
// Block kernels are written as explicit barrier-separated phases:
//
//   launch_blocks(dev, "k", nblocks, NW, [&](Block& blk) {
//     auto h = blk.shared<u32>(m * blk.num_warps());
//     blk.for_each_warp([&](Warp& w) { /* phase 1 */ });
//     blk.sync();
//     blk.for_each_warp([&](Warp& w) { /* phase 2 */ });
//   });
//
// Running each warp of a phase to completion before the barrier is
// semantically identical to lockstep execution with __syncthreads(), because
// no intra-phase communication between warps is allowed (the same contract
// real warp-synchronous CUDA code relies on).  The sanitizer's racecheck
// tool enforces that contract: each sync() advances the block's barrier
// epoch, and a warp touching a shared word that a *different* warp accessed
// in the same epoch is reported as a RAW/WAW/WAR hazard (see sanitizer.hpp).
//
// Shared memory accesses are charged with bank-conflict accounting: shared
// memory has 32 four-byte banks; a warp access is serialized once per
// distinct word it needs from the same bank (broadcasts of one word are
// free, as on real hardware).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/warp.hpp"

namespace ms::sim {

class Block;

/// A typed window into the block's shared-memory arena.  Knows its byte
/// offset within the arena so bank numbers can be computed.  The element
/// pointer is resolved through the arena on every access: a later
/// shared-memory allocation may grow (reallocate) the arena, and a stale
/// direct pointer would dangle.
///
/// Arrays may carry a label (used by sanitizer fault reports); unlabeled
/// arrays are identified by their byte offset within the arena.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(Block* block, std::vector<std::byte>* arena, u32 size,
              u32 byte_offset, std::string label)
      : block_(block),
        arena_(arena),
        size_(size),
        byte_offset_(byte_offset),
        label_(std::move(label)) {}

  u32 size() const { return size_; }
  u32 byte_offset() const { return byte_offset_; }

  /// Report label: the explicit label, or "smem+<offset>".
  std::string object() const {
    return label_.empty() ? "smem+" + std::to_string(byte_offset_) : label_;
  }

  /// Direct (uncharged) element access, for host-side setup and checking in
  /// tests.  Bounds-checked (SimError on violation); the mutable overload
  /// counts as initialization of the element's words.  Defined after Block
  /// (they need its sanitizer state).
  T& raw(u32 i);
  const T& raw(u32 i) const;

  /// Benign-race annotation (the TSan ANNOTATE_BENIGN_RACE idiom): declares
  /// that cross-warp accesses to this array within a barrier epoch are
  /// ordered by construction -- e.g. slots claimed exclusively through a
  /// shared atomic, plus the simulator's serialized warp execution between
  /// barriers -- and suppresses racecheck for its words.  Initcheck and
  /// bounds checks still apply.  Use sparingly and justify at the call
  /// site; an unannotated hazard is a bug.
  SharedArray& annotate_warp_serialized() {
    racecheck_exempt_ = true;
    return *this;
  }

 private:
  friend class Warp;
  friend class Block;

  T* data() const {
    return reinterpret_cast<T*>(arena_->data() + byte_offset_);
  }

  /// First 4-byte arena word of element i / words an element spans (the
  /// sanitizer shadows shared memory at bank-word granularity).
  u32 word0(u32 i) const {
    return (byte_offset_ + i * static_cast<u32>(sizeof(T))) / 4;
  }
  static constexpr u32 words_per_elem() {
    return sizeof(T) < 4 ? 1u : static_cast<u32>(sizeof(T)) / 4;
  }

  void host_bounds_check(u32 i) const;

  Block* block_ = nullptr;
  std::vector<std::byte>* arena_ = nullptr;
  u32 size_ = 0;
  u32 byte_offset_ = 0;
  bool racecheck_exempt_ = false;
  std::string label_;
};

class Block {
 public:
  Block(Device& dev, u32 block_id, u32 num_warps)
      : dev_(&dev),
        block_id_(block_id),
        arena_(dev.profile().smem_bytes_per_block) {
    if (dev.sanitizer().smem_tools()) {
      shadow_ = std::make_unique<SmemShadow>();
      shadow_->resize(shadow_words(static_cast<u32>(arena_.size())));
    }
    warps_.reserve(num_warps);
    for (u32 w = 0; w < num_warps; ++w) {
      warps_.emplace_back(dev, static_cast<u64>(block_id) * num_warps + w, w,
                          block_id);
    }
  }

  Device& device() const { return *dev_; }
  u32 block_id() const { return block_id_; }
  u32 num_warps() const { return static_cast<u32>(warps_.size()); }
  u32 num_threads() const { return num_warps() * kWarpSize; }

  /// Allocate `count` elements of shared memory (16-byte aligned, as CUDA
  /// does for aggregate shared declarations).  Usage beyond the device's
  /// 48 kB per-block capacity is permitted but recorded: the paper's
  /// large-m discussion (Section 6.4) identifies shared-memory pressure as
  /// the limiting factor, and tests assert on `peak_smem_bytes()` instead
  /// of hard-failing mid-experiment.  With the sanitizer armed the first
  /// overcommitting allocation is additionally reported as a warning
  /// naming the allocating kernel.
  template <typename T>
  SharedArray<T> shared(u32 count, std::string label = {}) {
    const u32 align = 16;
    used_ = (used_ + align - 1) / align * align;
    const u32 offset = used_;
    used_ += count * static_cast<u32>(sizeof(T));
    peak_ = std::max(peak_, used_);
    dev_->note_smem_usage(peak_);
    if (used_ > arena_.size()) {
      arena_.resize(used_);
      if (shadow_ != nullptr) shadow_->resize(shadow_words(used_));
    }
    const u32 capacity = dev_->profile().smem_bytes_per_block;
    if (used_ > capacity && !overcommit_warned_ && dev_->sanitizer().any()) {
      overcommit_warned_ = true;
      FaultContext ctx;
      ctx.kind = FaultKind::kSmemOvercommit;
      ctx.severity = FaultSeverity::kWarning;
      ctx.kernel = dev_->current_kernel_name();
      ctx.object = label.empty() ? "smem+" + std::to_string(offset) : label;
      ctx.index = used_;
      ctx.extent = capacity;
      ctx.block = block_id_;
      ctx.detail =
          "shared-memory allocation exceeds the device's per-block capacity";
      dev_->sanitizer().report(std::move(ctx));
    }
    return SharedArray<T>(this, &arena_, count, offset, std::move(label));
  }

  u32 peak_smem_bytes() const { return peak_; }
  bool smem_overcommitted() const {
    return peak_ > dev_->profile().smem_bytes_per_block;
  }

  /// __syncthreads(): a barrier between phases.  Each of the block's warps
  /// pays the barrier overhead in issue slots.  Also advances the
  /// racecheck barrier epoch: accesses before and after a sync() can never
  /// conflict.
  void sync() {
    dev_->events().barriers += 1;
    dev_->events().issue_slots +=
        static_cast<u64>(num_warps()) * dev_->profile().barrier_overhead_slots;
    epoch_ += 1;
  }

  /// Current barrier epoch (starts at 1; 0 in the shadow means "never").
  u32 epoch() const { return epoch_; }

  Warp& warp(u32 w) { return warps_[w]; }

  template <typename F>
  void for_each_warp(F&& f) {
    for (u32 w = 0; w < warps_.size(); ++w) f(warps_[w]);
  }

  /// True when this block carries a shared-memory shadow (racecheck or
  /// initcheck armed at construction).  Lets the Warp smem instructions
  /// skip the hook call entirely on the common path.
  bool smem_shadow_armed() const { return shadow_ != nullptr; }

  /// Sanitizer hook for one lane's shared access covering the 4-byte arena
  /// words [word0, word0 + nwords).  Non-fatal: initcheck flags reads
  /// (including the read half of an atomic RMW) of never-written words;
  /// racecheck flags cross-warp access to the same word within one barrier
  /// epoch (atomic-vs-atomic is exempt, as on hardware).  No-op unless a
  /// shared-memory tool was armed when the block was constructed.
  /// `label`/`byte_offset` identify the array (the report label is only
  /// materialized when something fires).  `racecheck_exempt` carries the
  /// array's SharedArray::annotate_warp_serialized() annotation: hazard
  /// detection and epoch bookkeeping are skipped, initcheck is not.
  void smem_sanitize(u32 word0, u32 nwords, bool is_write, bool is_atomic,
                     u32 lane, u32 warp, u64 global_warp,
                     std::string_view label, u32 byte_offset, u64 elem,
                     u64 extent, bool racecheck_exempt = false) {
    if (shadow_ == nullptr) return;
    Sanitizer& san = dev_->sanitizer();
    SmemShadow& sh = *shadow_;
    const auto object = [&]() -> std::string {
      return label.empty() ? "smem+" + std::to_string(byte_offset)
                           : std::string(label);
    };
    for (u32 k = 0; k < nwords; ++k) {
      const u32 w = word0 + k;
      const bool reads = !is_write || is_atomic;
      if (reads && san.initcheck() && sh.valid[w] == 0) {
        sh.valid[w] = 1;  // report each stale word once
        FaultContext ctx = smem_fault(FaultKind::kUninitSharedRead, lane,
                                      warp, global_warp, object(), elem,
                                      extent);
        ctx.detail = is_atomic
                         ? "atomic read-modify-write of a shared word never "
                           "written since block start"
                         : "read of a shared word never written since block "
                           "start";
        san.report(std::move(ctx));
      }
      if (san.racecheck() && !racecheck_exempt) {
        const bool prior_write =
            sh.write_epoch[w] == epoch_ && sh.writer[w] != warp;
        const bool prior_read =
            sh.read_epoch[w] == epoch_ && sh.reader[w] != warp;
        const char* hazard = nullptr;
        u32 other = 0;
        if (is_write && prior_write &&
            !(is_atomic && sh.write_atomic[w] != 0)) {
          hazard = "WAW";
          other = sh.writer[w];
        } else if (is_write && prior_read) {
          hazard = "WAR";
          other = sh.reader[w];
        } else if (!is_write && prior_write) {
          hazard = "RAW";
          other = sh.writer[w];
        }
        if (hazard != nullptr) {
          FaultContext ctx = smem_fault(FaultKind::kRaceHazard, lane, warp,
                                        global_warp, object(), elem, extent);
          ctx.detail = std::string(hazard) + " hazard with warp " +
                       std::to_string(other) +
                       " of this block: no Block::sync() between the "
                       "conflicting shared accesses";
          san.report(std::move(ctx));
          // Retire the word's epoch state so one missing barrier does not
          // flood the stream with a hazard per subsequent access.
          sh.write_epoch[w] = 0;
          sh.read_epoch[w] = 0;
        }
      }
      if (is_write) sh.valid[w] = 1;
      if (racecheck_exempt) continue;
      if (is_write) {
        sh.write_epoch[w] = epoch_;
        sh.writer[w] = warp;
        sh.write_atomic[w] = is_atomic ? u8{1} : u8{0};
      } else {
        sh.read_epoch[w] = epoch_;
        sh.reader[w] = warp;
      }
    }
  }

 private:
  template <typename T>
  friend class SharedArray;

  static u32 shadow_words(u32 bytes) { return (bytes + 3) / 4; }

  FaultContext smem_fault(FaultKind kind, u32 lane, u32 warp, u64 global_warp,
                          std::string_view object, u64 elem,
                          u64 extent) const {
    FaultContext ctx;
    ctx.kind = kind;
    ctx.kernel = dev_->current_kernel_name();
    ctx.object = std::string(object);
    ctx.index = elem;
    ctx.extent = extent;
    ctx.lane = lane;
    ctx.warp_in_block = warp;
    ctx.block = block_id_;
    ctx.global_warp = global_warp;
    return ctx;
  }

  Device* dev_;
  u32 block_id_;
  u32 used_ = 0;
  u32 peak_ = 0;
  /// Racecheck barrier epoch; 0 is reserved for "never accessed".
  u32 epoch_ = 1;
  bool overcommit_warned_ = false;
  std::vector<std::byte> arena_;
  std::unique_ptr<SmemShadow> shadow_;
  std::vector<Warp> warps_;
};

// ---------------------------------------------------------------------------
// SharedArray member implementations that need Block's definition.
// ---------------------------------------------------------------------------

template <typename T>
void SharedArray<T>::host_bounds_check(u32 i) const {
  if (i < size_) return;
  FaultContext ctx;
  ctx.kind = FaultKind::kSharedOOB;
  ctx.kernel = "<host>";
  if (block_ != nullptr && !block_->device().current_kernel_name().empty()) {
    ctx.kernel = block_->device().current_kernel_name();
  }
  ctx.object = object();
  ctx.index = i;
  ctx.extent = size_;
  if (block_ != nullptr) ctx.block = block_->block_id();
  ctx.detail = "SharedArray::raw() index out of bounds";
  if (block_ != nullptr && block_->device().sanitizer().memcheck()) {
    block_->device().sanitizer().report(ctx);
  }
  throw SimError(std::move(ctx));
}

template <typename T>
T& SharedArray<T>::raw(u32 i) {
  host_bounds_check(i);
  if (block_ != nullptr && block_->shadow_ != nullptr) {
    for (u32 k = 0; k < words_per_elem(); ++k) {
      block_->shadow_->valid[word0(i) + k] = 1;
    }
  }
  return data()[i];
}

template <typename T>
const T& SharedArray<T>::raw(u32 i) const {
  host_bounds_check(i);
  return data()[i];
}

// ---------------------------------------------------------------------------
// Warp shared-memory member implementations (need SharedArray's layout).
// ---------------------------------------------------------------------------

namespace detail {
/// Bank-conflict degree of a warp-wide shared access: shared memory has 32
/// four-byte banks; the access replays once per extra distinct word mapped
/// to the same bank.  Returns the number of serialized passes (>= 1).
template <typename T>
inline u32 smem_conflict_degree(const SharedArray<T>& arr,
                                const LaneArray<u32>& idx, LaneMask active) {
  if (active == 0) return 0;
  if constexpr (sizeof(T) == 4) {
    // Fast path for one-word elements: a single bank-occupancy bitmap
    // detects the conflict-free case (every lane in its own bank) without
    // building the per-bank word lists.  Any collision -- real conflict or
    // broadcast -- falls through to the full scan, which tells them apart.
    u32 occupied = 0;
    bool clean = true;
    for_each_lane(active, [&](u32 lane) {
      const u32 word = arr.byte_offset() / 4 + idx[lane];
      const u32 bank_bit = 1u << (word % kWarpSize);
      clean &= (occupied & bank_bit) == 0;
      occupied |= bank_bit;
    });
    if (clean) return 1;
  }
  // words[b] collects the distinct word addresses lane accesses map to in
  // bank b.  sizeof(T) is 4 or 8 in this library; handle both by counting
  // each 4-byte word the lane touches.
  std::array<std::array<u32, kWarpSize>, kWarpSize> words;  // guarded by counts
  std::array<u32, kWarpSize> counts{};
  u32 degree = 1;
  for_each_lane(active, [&](u32 lane) {
    const u32 base_word = (arr.byte_offset() + idx[lane] * static_cast<u32>(sizeof(T))) / 4;
    const u32 nwords = static_cast<u32>(sizeof(T)) / 4;
    for (u32 k = 0; k < nwords; ++k) {
      const u32 word = base_word + k;
      const u32 bank = word % kWarpSize;
      bool dup = false;
      for (u32 j = 0; j < counts[bank]; ++j) {
        if (words[bank][j] == word) dup = true;
      }
      if (!dup) {
        words[bank][counts[bank]++] = word;
        degree = std::max(degree, counts[bank]);
      }
    }
  });
  return degree;
}
}  // namespace detail

template <typename T>
LaneArray<T> Warp::smem_read(const SharedArray<T>& arr,
                             const LaneArray<u32>& idx, LaneMask active) {
  LaneArray<T> out{};
  if (active == 0) return out;
  count_simt(active);
  dev_->events().smem_accesses += 1;
  dev_->events().smem_slots += detail::smem_conflict_degree(arr, idx, active);
  const bool sanitize = arr.block_ != nullptr && arr.block_->smem_shadow_armed();
  for_each_lane(active, [&](u32 lane) {
    if (idx[lane] >= arr.size_) {
      smem_oob_fail(idx[lane], arr.size_, arr.object(), lane,
                    "shared memory read");
    }
    if (sanitize) {
      arr.block_->smem_sanitize(arr.word0(idx[lane]), arr.words_per_elem(),
                                /*is_write=*/false, /*is_atomic=*/false, lane,
                                warp_in_block_, global_warp_id_, arr.label_,
                                arr.byte_offset_, idx[lane], arr.size_,
                                arr.racecheck_exempt_);
    }
    out[lane] = arr.data()[idx[lane]];
  });
  return out;
}

template <typename T>
void Warp::smem_write(SharedArray<T>& arr, const LaneArray<u32>& idx,
                      const LaneArray<T>& v, LaneMask active) {
  if (active == 0) return;
  count_simt(active);
  dev_->events().smem_accesses += 1;
  dev_->events().smem_slots += detail::smem_conflict_degree(arr, idx, active);
  const bool sanitize = arr.block_ != nullptr && arr.block_->smem_shadow_armed();
  for_each_lane(active, [&](u32 lane) {
    if (idx[lane] >= arr.size_) {
      smem_oob_fail(idx[lane], arr.size_, arr.object(), lane,
                    "shared memory write");
    }
    if (sanitize) {
      arr.block_->smem_sanitize(arr.word0(idx[lane]), arr.words_per_elem(),
                                /*is_write=*/true, /*is_atomic=*/false, lane,
                                warp_in_block_, global_warp_id_, arr.label_,
                                arr.byte_offset_, idx[lane], arr.size_,
                                arr.racecheck_exempt_);
    }
    arr.data()[idx[lane]] = v[lane];
  });
}

template <typename T>
LaneArray<T> Warp::smem_atomic_add(SharedArray<T>& arr,
                                   const LaneArray<u32>& idx,
                                   const LaneArray<T>& v, LaneMask active) {
  LaneArray<T> out{};
  if (active == 0) return out;
  count_simt(active);
  dev_->events().smem_accesses += 1;
  // Shared atomics serialize on address collisions.
  const u32 n_active = static_cast<u32>(std::popcount(active));
  u32 distinct = 0;
  std::array<u32, kWarpSize> seen{};
  for_each_lane(active, [&](u32 lane) {
    bool dup = false;
    for (u32 k = 0; k < distinct; ++k) {
      if (seen[k] == idx[lane]) dup = true;
    }
    if (!dup) seen[distinct++] = idx[lane];
  });
  dev_->events().atomic_ops += n_active;
  dev_->events().atomic_conflicts += n_active - distinct;
  dev_->events().smem_slots += n_active;  // one pass per lane (serialized RMW)
  const bool sanitize = arr.block_ != nullptr && arr.block_->smem_shadow_armed();
  for_each_lane(active, [&](u32 lane) {
    if (idx[lane] >= arr.size_) {
      smem_oob_fail(idx[lane], arr.size_, arr.object(), lane,
                    "shared memory atomic");
    }
    if (sanitize) {
      arr.block_->smem_sanitize(arr.word0(idx[lane]), arr.words_per_elem(),
                                /*is_write=*/true, /*is_atomic=*/true, lane,
                                warp_in_block_, global_warp_id_, arr.label_,
                                arr.byte_offset_, idx[lane], arr.size_,
                                arr.racecheck_exempt_);
    }
    out[lane] = arr.data()[idx[lane]];
    arr.data()[idx[lane]] += v[lane];
  });
  return out;
}

}  // namespace ms::sim
