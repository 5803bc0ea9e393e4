// The warp execution context.
//
// Kernels in this library are written warp-synchronously: the unit of
// execution is a 32-lane warp whose lanes advance in lockstep, exactly as
// CUDA warps do under SIMT control.  A Warp exposes
//
//   * the CUDA warp-wide intrinsics the paper's algorithms are built from
//     (`ballot`, `shfl`, `shfl_up`, `shfl_down`, `shfl_xor`, `popc`), with
//     bit-exact semantics;
//   * charged global-memory instructions (`load`/`store` for unit-stride,
//     `gather`/`scatter` for arbitrary lane addresses, warp-wide atomics) --
//     each access counts the distinct 32-byte sectors its lane addresses
//     touch and routes them through the device's L2 model;
//   * charged shared-memory instructions with bank-conflict accounting.
//
// Divergence is expressed by explicit active-lane masks: a lane outside the
// mask neither reads, writes, nor contributes to a ballot, matching the
// behaviour of predicated-off CUDA threads.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>

#include "sim/memory.hpp"
#include "sim/simd.hpp"
#include "sim/types.hpp"

namespace ms::sim {

template <typename T>
class SharedArray;  // defined in block.hpp

class Warp {
 public:
  Warp(Device& dev, u64 global_warp_id, u32 warp_in_block = 0, u32 block_id = 0)
      : dev_(&dev),
        global_warp_id_(global_warp_id),
        warp_in_block_(warp_in_block),
        block_id_(block_id) {}

  Device& device() const { return *dev_; }
  u64 warp_id() const { return global_warp_id_; }
  u32 warp_in_block() const { return warp_in_block_; }
  u32 block_id() const { return block_id_; }

  /// lane_id()[i] == i, the CUDA laneIdx.
  static LaneArray<u32> lane_id() { return LaneArray<u32>::iota(); }

  /// Charge `slots` warp-instruction issue slots of plain arithmetic.
  /// Algorithms call this for the address/bookkeeping math that the
  /// simulator does not see as an intrinsic.  Deliberately not counted as a
  /// SIMT instruction: the mask-carrying intrinsics and memory ops below
  /// are the divergence-visible instruction stream.
  void charge(u64 slots) { dev_->events().issue_slots += slots; }

  /// Bulk charge for a fused warp-level primitive (primitives/warp_ops.hpp):
  /// the exact counter deltas the unfused per-lane instruction sequence of
  /// Algorithms 2 and 3 would have accumulated, applied in one shot.  The
  /// closed forms are derived from those loops, which tests/test_warp_ops.cpp
  /// keeps as the oracle -- a change to the modeled instruction sequence
  /// must change the formula and that oracle together.
  void charge_warp_op(u64 issue_slots, u64 ballot_rounds, u64 simt_insts,
                      u64 simt_active_lanes) {
    auto& ev = dev_->events();
    ev.issue_slots += issue_slots;
    ev.ballot_rounds += ballot_rounds;
    ev.simt_insts += simt_insts;
    ev.simt_active_lanes += simt_active_lanes;
  }

  // ---------------------------------------------------------------- ballot
  /// CUDA __ballot: bit i of the result is pred[i] != 0 for active lanes;
  /// inactive lanes contribute 0.
  LaneMask ballot(const LaneArray<u32>& pred, LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    dev_->events().ballot_rounds += 1;
    count_simt(active);
    return simd::ballot(pred.data(), active);
  }

  /// CUDA __any: true if any active lane's predicate is non-zero.
  bool any(const LaneArray<u32>& pred, LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    return (simd::nonzero_mask(pred.data()) & active) != 0;
  }

  /// CUDA __all: true if every active lane's predicate is non-zero.
  bool all(const LaneArray<u32>& pred, LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    return (simd::nonzero_mask(pred.data()) & active) == active;
  }

  // ----------------------------------------------------------------- shfl
  /// CUDA __shfl: every active lane reads `v` from lane src[i] (mod 32).
  template <typename T>
  LaneArray<T> shfl(const LaneArray<T>& v, const LaneArray<u32>& src,
                    LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    LaneArray<T> out = v;
    for_each_lane(active, [&](u32 lane) { out[lane] = v[src[lane] % kWarpSize]; });
    return out;
  }

  /// __shfl with a uniform source lane.
  template <typename T>
  LaneArray<T> shfl(const LaneArray<T>& v, u32 src_lane,
                    LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    LaneArray<T> out = v;
    for_each_lane(active,
                  [&](u32 lane) { out[lane] = v[src_lane % kWarpSize]; });
    return out;
  }

  /// CUDA __shfl_up: lane i reads lane i-delta; lanes with i < delta keep
  /// their own value.
  template <typename T>
  LaneArray<T> shfl_up(const LaneArray<T>& v, u32 delta,
                       LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    LaneArray<T> out = v;
    for_each_lane(active, [&](u32 lane) {
      if (lane >= delta) out[lane] = v[lane - delta];
    });
    return out;
  }

  /// CUDA __shfl_down: lane i reads lane i+delta; top lanes keep their own.
  template <typename T>
  LaneArray<T> shfl_down(const LaneArray<T>& v, u32 delta,
                         LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    LaneArray<T> out = v;
    for_each_lane(active, [&](u32 lane) {
      if (lane + delta < kWarpSize) out[lane] = v[lane + delta];
    });
    return out;
  }

  /// CUDA __shfl_xor: lane i reads lane i^mask.
  template <typename T>
  LaneArray<T> shfl_xor(const LaneArray<T>& v, u32 mask,
                        LaneMask active = kFullMask) {
    dev_->events().issue_slots += 1;
    count_simt(active);
    LaneArray<T> out = v;
    for_each_lane(active,
                  [&](u32 lane) { out[lane] = v[(lane ^ mask) % kWarpSize]; });
    return out;
  }

  // ----------------------------------------------------------------- popc
  /// Per-lane __popc on a warp register.
  LaneArray<u32> popc(const LaneArray<u32>& v) {
    dev_->events().issue_slots += 1;
    count_simt(kFullMask);  // per-lane op, no mask form
    return v.map([](u32 x) { return static_cast<u32>(std::popcount(x)); });
  }

  // --------------------------------------------------- global memory: load
  /// Unit-stride load: active lane i reads buf[base + i].
  template <typename T>
  LaneArray<T> load(const DeviceBuffer<T>& buf, u64 base,
                    LaneMask active = kFullMask) {
    LaneArray<T> out{};
    if (active == 0) return out;
    count_simt(active);
    charge_contiguous</*is_write=*/false, T>(buf, base, active);
    if (active == kFullMask && base + kWarpSize <= buf.size() &&
        buf.init_shadow() == nullptr) [[likely]] {
      // Full warp, in bounds, no initcheck shadow: one bulk copy replaces
      // 32 per-lane bounds/shadow checks.  Fault behavior is unchanged --
      // an OOB access always falls through to the checking loop below.
      std::memcpy(out.data(), buf.raw_data() + base, kWarpSize * sizeof(T));
      return out;
    }
    for_each_lane(active, [&](u32 lane) {
      bounds_check(buf, base + lane, lane, "unit-stride load");
      init_check_read(buf, base + lane, lane);
      out[lane] = buf.raw_data()[base + lane];
    });
    return out;
  }

  /// Unit-stride store: active lane i writes buf[base + i].
  template <typename T>
  void store(DeviceBuffer<T>& buf, u64 base, const LaneArray<T>& v,
             LaneMask active = kFullMask) {
    if (active == 0) return;
    count_simt(active);
    charge_contiguous</*is_write=*/true, T>(buf, base, active);
    GlobalShadow* sh = buf.init_shadow();
    if (sh == nullptr && active == kFullMask &&
        base + kWarpSize <= buf.size()) [[likely]] {
      std::memcpy(buf.raw_data() + base, v.data(), kWarpSize * sizeof(T));
      return;
    }
    for_each_lane(active, [&](u32 lane) {
      bounds_check(buf, base + lane, lane, "unit-stride store");
      if (sh != nullptr) mark_valid(*sh, base + lane);
      buf.raw_data()[base + lane] = v[lane];
    });
  }

  /// Arbitrary-address gather: active lane i reads buf[idx[i]].
  template <typename T>
  LaneArray<T> gather(const DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
                      LaneMask active = kFullMask) {
    LaneArray<T> out{};
    if (active == 0) return out;
    count_simt(active);
    charge_scattered</*is_write=*/false, T>(buf, idx, active);
    for_each_lane(active, [&](u32 lane) {
      bounds_check(buf, idx[lane], lane, "gather");
      init_check_read(buf, idx[lane], lane);
      out[lane] = buf.raw_data()[idx[lane]];
    });
    return out;
  }

  /// Arbitrary-address scatter: active lane i writes buf[idx[i]].
  template <typename T>
  void scatter(DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
               const LaneArray<T>& v, LaneMask active = kFullMask) {
    if (active == 0) return;
    count_simt(active);
    charge_scattered</*is_write=*/true, T>(buf, idx, active);
    GlobalShadow* sh = buf.init_shadow();
    for_each_lane(active, [&](u32 lane) {
      bounds_check(buf, idx[lane], lane, "scatter");
      if (sh != nullptr) mark_valid(*sh, idx[lane]);
      buf.raw_data()[idx[lane]] = v[lane];
    });
  }

  /// Warp-wide global atomicAdd: returns each active lane's old value.
  /// Lanes hitting the same address are serialized (and counted as
  /// conflicts); distinct addresses are charged like a scatter.
  template <typename T>
  LaneArray<T> atomic_add(DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
                          const LaneArray<T>& v, LaneMask active = kFullMask) {
    return global_atomic(buf, idx, active, "atomicAdd", [&](T old, u32 lane) {
      return static_cast<T>(old + v[lane]);
    });
  }

  /// Warp-wide global atomicMin: returns each active lane's old value.
  template <typename T>
  LaneArray<T> atomic_min(DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
                          const LaneArray<T>& v, LaneMask active = kFullMask) {
    return global_atomic(buf, idx, active, "atomicMin", [&](T old, u32 lane) {
      return std::min(old, v[lane]);
    });
  }

  // --------------------------------------------------------- shared memory
  // Implementations live in block.hpp (they need SharedArray's layout).
  template <typename T>
  LaneArray<T> smem_read(const SharedArray<T>& arr, const LaneArray<u32>& idx,
                         LaneMask active = kFullMask);
  template <typename T>
  void smem_write(SharedArray<T>& arr, const LaneArray<u32>& idx,
                  const LaneArray<T>& v, LaneMask active = kFullMask);
  template <typename T>
  LaneArray<T> smem_atomic_add(SharedArray<T>& arr, const LaneArray<u32>& idx,
                               const LaneArray<T>& v,
                               LaneMask active = kFullMask);

 private:
  /// Divergence accounting: one SIMT instruction with popcount(active)
  /// live lanes.  Called once per mask-carrying intrinsic or memory
  /// instruction (an atomic RMW counts once even though its read and
  /// write passes are charged separately).
  void count_simt(LaneMask active) {
    auto& ev = dev_->events();
    ev.simt_insts += 1;
    ev.simt_active_lanes += static_cast<u64>(std::popcount(active));
  }

  /// Build the common part of a fault context for a global access from
  /// this warp.
  template <typename T>
  FaultContext global_fault(FaultKind kind, const DeviceBuffer<T>& buf, u64 i,
                            u32 lane, std::string detail) const {
    FaultContext ctx;
    ctx.kind = kind;
    ctx.kernel = dev_->current_kernel_name();
    ctx.object = object_label(buf.name(), buf.base_address());
    ctx.index = i;
    ctx.extent = buf.size();
    ctx.lane = lane;
    ctx.warp_in_block = warp_in_block_;
    ctx.block = block_id_;
    ctx.global_warp = global_warp_id_;
    ctx.detail = std::move(detail);
    return ctx;
  }

  /// Same, for a shared-memory access (the smem instructions live in
  /// block.hpp but are Warp members, so the builders sit here).
  FaultContext shared_fault(FaultKind kind, std::string_view object, u64 i,
                            u64 extent, u32 lane, std::string detail) const {
    FaultContext ctx;
    ctx.kind = kind;
    ctx.kernel = dev_->current_kernel_name();
    ctx.object = std::string(object);
    ctx.index = i;
    ctx.extent = extent;
    ctx.lane = lane;
    ctx.warp_in_block = warp_in_block_;
    ctx.block = block_id_;
    ctx.global_warp = global_warp_id_;
    ctx.detail = std::move(detail);
    return ctx;
  }

  /// Shared OOB: fatal, reported under memcheck (same policy as global
  /// OOB).  Callers do the cheap index comparison themselves so the
  /// object-label string is only built on the failure path.
  [[noreturn]] void smem_oob_fail(u64 i, u64 extent, std::string object,
                                  u32 lane, const char* what) {
    FaultContext ctx =
        shared_fault(FaultKind::kSharedOOB, object, i, extent, lane,
                     std::string(what) + " out of bounds");
    if (dev_->sanitizer().memcheck()) dev_->sanitizer().report(ctx);
    throw SimError(std::move(ctx));
  }

  /// Global OOB is always fatal (the backing storage does not exist); with
  /// memcheck armed the fault is also recorded as a sanitizer report so
  /// the launch helpers can degrade gracefully.
  template <typename T>
  void bounds_check(const DeviceBuffer<T>& buf, u64 i, u32 lane,
                    const char* what) {
    if (i < buf.size()) return;
    FaultContext ctx =
        global_fault(FaultKind::kGlobalOOB, buf, i, lane,
                     std::string(what) + " out of bounds");
    if (dev_->sanitizer().memcheck()) dev_->sanitizer().report(ctx);
    throw SimError(std::move(ctx));
  }

  /// initcheck: reading an element no host or device write ever touched.
  /// Non-fatal; the word is marked valid after reporting so one stale
  /// element does not flood the report stream.  The mark is an atomic
  /// exchange so concurrently scheduled blocks reading the same stale
  /// element produce exactly one report (which block wins the exchange --
  /// and so stamps the report's block/lane fields -- is the one place the
  /// parallel scheduler may differ from serial attribution).
  template <typename T>
  void init_check_read(const DeviceBuffer<T>& buf, u64 i, u32 lane) {
    GlobalShadow* sh = buf.init_shadow();
    if (sh == nullptr) return;
    if (std::atomic_ref<u8>(sh->valid[i]).exchange(1, std::memory_order_relaxed) != 0) {
      return;
    }
    dev_->sanitizer().report(
        global_fault(FaultKind::kUninitGlobalRead, buf, i, lane,
                     "read of a global element never written by host or "
                     "device"));
  }

  /// Mark one shadow element written (racing writers are fine: all store 1).
  static void mark_valid(GlobalShadow& sh, u64 i) {
    std::atomic_ref<u8>(sh.valid[i]).store(1, std::memory_order_relaxed);
  }

  /// The one global atomic RMW behind atomic_add / atomic_min: the
  /// serial-order fence, the write and old-value read charges, the
  /// conflict accounting, and per lane the checks plus
  /// `update(old, lane)` applied as a host atomic.  `what` labels faults.
  template <typename T, typename F>
  LaneArray<T> global_atomic(DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
                             LaneMask active, const char* what, F&& update) {
    LaneArray<T> out{};
    if (active == 0) return out;
    dev_->global_atomic_fence();
    count_simt(active);
    charge_scattered</*is_write=*/true, T>(buf, idx, active);
    // Reads the old value too.
    charge_scattered</*is_write=*/false, T>(buf, idx, active);

    const u32 n_active = static_cast<u32>(std::popcount(active));
    u32 distinct = 0;
    std::array<u64, kWarpSize> seen{};
    for_each_lane(active, [&](u32 lane) {
      bool dup = false;
      for (u32 k = 0; k < distinct; ++k) {
        if (seen[k] == idx[lane]) dup = true;
      }
      if (!dup) seen[distinct++] = idx[lane];
    });
    dev_->events().atomic_ops += n_active;
    dev_->events().atomic_conflicts += n_active - distinct;
    // Conflicting lanes replay the atomic.
    dev_->events().issue_slots += (n_active - distinct);

    GlobalShadow* sh = buf.init_shadow();
    for_each_lane(active, [&](u32 lane) {
      bounds_check(buf, idx[lane], lane, what);
      init_check_read(buf, idx[lane], lane);
      if (sh != nullptr) mark_valid(*sh, idx[lane]);
      out[lane] = atomic_rmw(buf.raw_data()[idx[lane]],
                             [&](T old) { return update(old, lane); });
    });
    return out;
  }

  /// Host-atomic read-modify-write of one device element; returns the old
  /// value.  The global-atomic fence has already serialized concurrently
  /// scheduled items by this point, so the CAS loop never spins in
  /// practice -- it exists so device atomics are real host atomics (no
  /// data race even if a kernel mixes atomics with the fence disabled).
  template <typename T, typename F>
  static T atomic_rmw(T& cell, F&& update) {
    std::atomic_ref<T> ref(cell);
    T old = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(old, update(old),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
    }
    return old;
  }

  /// Charge a unit-stride access.  Issue cost: the load-store unit replays
  /// once per extra 128-byte cache line the warp touches (a perfectly
  /// coalesced 32 x 4 B access is one line, one issue slot); memory cost:
  /// each covered 32-byte sector goes through the L2 model.
  template <bool kIsWrite, typename T>
  void charge_contiguous(const DeviceBuffer<T>& buf, u64 base, LaneMask active) {
    const u32 tx = dev_->profile().transaction_bytes;
    const u32 line = kLineBytes;
    const u32 lo = static_cast<u32>(std::countr_zero(active));
    const u32 hi = 31u - static_cast<u32>(std::countl_zero(active));
    const u64 addr_lo = buf.address_of(base + lo);
    const u64 addr_hi = buf.address_of(base + hi) + sizeof(T) - 1;
    const u64 first = addr_lo / tx;
    const u32 segments = static_cast<u32>(addr_hi / tx - first + 1);
    const u32 lines = static_cast<u32>(addr_hi / line - addr_lo / line + 1);
    account<kIsWrite>(lines,
                      static_cast<u64>(std::popcount(active)) * sizeof(T));
    dev_->touch_sectors(first, segments, kIsWrite);
  }

  /// Charge an arbitrary-address access.
  ///
  /// Issue cost follows the coalescing model the paper itself reasons with
  /// (Figure 2): the access is decomposed into maximal *lane-order runs* of
  /// consecutive addresses, and each run costs one issue slot per 128-byte
  /// line it spans.  A store whose lanes interleave two buckets therefore
  /// pays one transaction per interleave break, which is exactly the
  /// fragmentation that local reordering exists to remove.
  ///
  /// Memory cost is physical: each distinct 32-byte sector goes through the
  /// L2 model once (the L2 still merges duplicate sectors on their way to
  /// DRAM regardless of lane order).
  template <bool kIsWrite, typename T>
  void charge_scattered(const DeviceBuffer<T>& buf, const LaneArray<u64>& idx,
                        LaneMask active) {
    const u32 tx = dev_->profile().transaction_bytes;
    // One pass computes both costs: the lane-order run decomposition for
    // the issue side and the sector list for the DRAM/L2 side.
    u32 lines = 0;
    u64 run_start = 0, prev_end = ~u64{0};
    std::array<u64, 2 * kWarpSize> sectors{};
    u32 n = 0;
    bool presorted = true;
    for_each_lane(active, [&](u32 lane) {
      const u64 a = buf.address_of(idx[lane]);
      if (a != prev_end) {
        if (prev_end != ~u64{0}) {
          lines += static_cast<u32>((prev_end - 1) / kLineBytes -
                                    run_start / kLineBytes + 1);
        }
        run_start = a;
      }
      prev_end = a + sizeof(T);
      const u64 s0 = a / tx;
      const u64 s1 = (a + sizeof(T) - 1) / tx;
      if (n > 0 && s0 < sectors[n - 1]) presorted = false;
      sectors[n++] = s0;
      if (s1 != s0) sectors[n++] = s1;
    });
    if (prev_end != ~u64{0}) {
      lines += static_cast<u32>((prev_end - 1) / kLineBytes -
                                run_start / kLineBytes + 1);
    }
    // Distinct ascending sectors; lane addresses are usually already
    // monotone (bucket-major scatters), so the sort is rarely needed.
    if (!presorted) std::sort(sectors.begin(), sectors.begin() + n);
    const u32 segments =
        static_cast<u32>(std::unique(sectors.begin(), sectors.begin() + n) -
                         sectors.begin());
    account<kIsWrite>(lines,
                      static_cast<u64>(std::popcount(active)) * sizeof(T));
    for (u32 s = 0; s < segments; ++s) {
      dev_->touch_sectors(sectors[s], 1, kIsWrite);
    }
  }

  /// L1/LSU cache-line granularity for issue replays.
  static constexpr u32 kLineBytes = 128;

  template <bool kIsWrite>
  void account(u32 lines, u64 useful_bytes) {
    auto& ev = dev_->events();
    ev.issue_slots += 1;
    ev.scatter_replays += lines - 1;
    if constexpr (kIsWrite) {
      ev.useful_bytes_written += useful_bytes;
    } else {
      ev.useful_bytes_read += useful_bytes;
    }
  }

  Device* dev_;
  u64 global_warp_id_;
  u32 warp_in_block_;
  u32 block_id_;
};

}  // namespace ms::sim
