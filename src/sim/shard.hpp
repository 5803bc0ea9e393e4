// Per-item counter shard for the parallel block scheduler.
//
// When a kernel's blocks (or warp chunks) execute concurrently, they must
// not touch the Device's shared accounting state: the KernelEvents
// totals, the per-site attribution snapshots, the order-dependent L2
// model and the sanitizer report sink are all single-writer structures.
// Instead, each scheduled item runs with a thread-local CounterShard
// armed (t_shard below); every Device::events() increment, site
// transition, sector touch and sanitizer report lands in the shard.
// After the launch the shards are merged in ascending item order, which
// reproduces the serial execution order exactly -- see
// Device::merge_shard for the determinism argument.
//
// The L2 is the one piece that cannot be sharded (its LRU state makes
// every access's hit/miss outcome depend on all earlier accesses
// device-wide), so shards *record* their 32-byte sector streams as
// run-length-encoded SectorOp entries and the merge replays them
// serially through the real cache model.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sim/events.hpp"
#include "sim/sanitizer.hpp"
#include "sim/span.hpp"
#include "sim/types.hpp"

namespace ms::sim {

/// One recorded L2 touch: `count` consecutive sectors starting at
/// `first_sector`, read or write, attributed to `site`.  Consecutive
/// same-kind touches from one shard are merged (unit-stride streams
/// collapse to a few entries).
struct SectorOp {
  u64 first_sector = 0;
  u32 count = 0;
  u32 site = 0;       // SiteId active when the touch was recorded
  bool is_write = false;
};

/// Accounting state of one scheduled item (one block, or one chunk of
/// warps).  Mirrors the Device's per-kernel accumulation machinery:
/// `events` plays the role of Device::current_, `site_snapshot` /
/// `current_site` / `sites` implement the same delta-based per-site
/// attribution, `sector_ops` stands in for the L2 and `reports` for the
/// sanitizer sink.
struct CounterShard {
  u64 item_id = 0;
  KernelEvents events;
  KernelEvents site_snapshot;
  u32 current_site = 0;
  /// (site id, counter slice) pairs; partition `events` exactly, like
  /// KernelRecord::sites.
  std::vector<std::pair<u32, KernelEvents>> sites;
  u32 peak_smem = 0;
  std::vector<SectorOp> sector_ops;
  std::vector<FaultContext> reports;
  /// First fault this item recorded via Device::record_fault (not thrown;
  /// the body kept running).  The merge applies the lowest faulting
  /// item's context -- deterministic first-fault-wins (see record_fault).
  std::optional<FaultContext> fault;
  /// Span events parked by this item (the fault above, when span tracing
  /// is on).  Forwarded to the recorder at merge time only when the
  /// item's fault wins, so serial and parallel runs attach the exact
  /// same events in the exact same order.
  std::vector<SpanEvent> span_events;
  /// Fatal exception raised by this item's body (SimError or any other);
  /// the item's partial counters up to the throw are kept.
  std::exception_ptr error;
  /// Set once this item's first global atomic has passed the
  /// completed-prefix fence (later atomics skip the wait).
  bool fence_passed = false;

  /// Attribute `events - site_snapshot` to the current site (the same
  /// algorithm as Device::flush_site_delta, scoped to this shard).
  void flush_site_delta() {
    const KernelEvents delta = events - site_snapshot;
    if (!(delta == KernelEvents{})) {
      auto it = sites.begin();
      for (; it != sites.end(); ++it) {
        if (it->first == current_site) break;
      }
      if (it == sites.end()) {
        sites.emplace_back(current_site, delta);
      } else {
        it->second += delta;
      }
    }
    site_snapshot = events;
  }

  u32 set_site(u32 site) {
    flush_site_delta();
    const u32 prev = current_site;
    current_site = site;
    return prev;
  }

  /// Append one sector touch, merging into the previous entry when it
  /// extends the same contiguous same-kind same-site run.
  void record_sectors(u64 first, u32 count, bool is_write) {
    if (!sector_ops.empty()) {
      SectorOp& back = sector_ops.back();
      if (back.is_write == is_write && back.site == current_site &&
          back.first_sector + back.count == first) {
        back.count += count;
        return;
      }
    }
    sector_ops.push_back(SectorOp{first, count, current_site, is_write});
  }
};

namespace detail {
/// The shard of the item currently executing on this thread, or null on
/// the serial path (and always null on the main thread).  Set by
/// Device::run_items around each item body.
extern thread_local CounterShard* t_shard;
}  // namespace detail

}  // namespace ms::sim
