// Per-kernel accounting context: the counter sink of serial execution and
// of each parallel item.
//
// CounterShard is the one piece of per-kernel accumulation state in the
// simulator: the KernelEvents totals, the delta-based per-site attribution,
// the peak shared-memory footprint and, on an item shard, the deferred
// sanitizer reports.  The Device owns one shard of its own, which the serial
// path (and host code between launches) writes directly.  When a kernel's
// blocks (or warp chunks) execute concurrently, each scheduled item instead
// runs with a thread-local shard of its own armed (t_shard below), so every
// Device::events() increment, site transition, sector touch and sanitizer
// report lands there.  The launching thread folds the item shards into the
// Device's shard in ascending item order, each one as soon as the thread
// pool's completed prefix covers it (it and every lower-numbered item have
// completed), while later items still run.  That reproduces the serial
// execution order exactly -- see Device::merge_shard for the determinism
// argument.
//
// The L2 is the one piece that cannot be sharded (its LRU state makes
// every access's hit/miss outcome depend on all earlier accesses
// device-wide), so item shards *record* their 32-byte sector streams as
// run-length-encoded SectorOp entries and the merge replays them
// serially through the real cache model, then frees them; the Device's
// own shard sends its touches straight into the L2.
#pragma once

#include <exception>
#include <utility>
#include <vector>

#include "sim/events.hpp"
#include "sim/sanitizer.hpp"
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

/// Accounting state of one execution context: the Device's own per-kernel
/// totals, or one scheduled item (one block, or one chunk of warps).
/// `site_snapshot` / `current_site` / `sites` implement the delta-based
/// per-site attribution; on an item shard `sector_ops` stands in for the
/// L2 and `reports` for the sanitizer sink.
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
  /// Fatal exception raised by this item's body (SimError or any other);
  /// the item's partial counters up to the throw are kept.
  std::exception_ptr error;
  /// Set once this item's first global atomic has passed the
  /// completed-prefix fence (later atomics skip the wait).
  bool fence_passed = false;

  /// Add `delta` to `site`'s slice (the slice is created on first use).
  void attribute(u32 site, const KernelEvents& delta) {
    for (auto& [s, slice] : sites) {
      if (s == site) {
        slice += delta;
        return;
      }
    }
    sites.emplace_back(site, delta);
  }

  /// Attribute `events - site_snapshot` to the current site.
  void flush_site_delta() {
    const KernelEvents delta = events - site_snapshot;
    if (!(delta == KernelEvents{})) attribute(current_site, delta);
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
/// Device::run_items around each item body.  constinit: the variable has
/// no dynamic initializer, so every access is a plain TLS load rather than
/// a call through the thread_local init wrapper (which UBSan misreads as a
/// null load at each inlined Device::shard()).
extern constinit thread_local CounterShard* t_shard;
}  // namespace detail

}  // namespace ms::sim
