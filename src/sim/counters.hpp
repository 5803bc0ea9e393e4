// Per-access-site counters and scoped stage profiling -- the simulator's
// equivalent of `nvprof --metrics` source correlation.
//
// A *site* is a registered label for a region of kernel code ("who issued
// this traffic"), e.g. "warp_ms/postscan_scatter".  While a ScopedSite is
// alive, every counter increment -- sectors, useful bytes, scatter replays,
// bank-conflict slots, atomics -- is attributed to that site as well as to
// the kernel totals.  Attribution is delta-based: the executing
// CounterShard (shard.hpp) snapshots the running KernelEvents at every
// site transition and charges the difference to the outgoing site, so the
// per-site slices *partition* the kernel's totals exactly (anything
// outside an explicit scope lands on the reserved site 0, "other";
// end-of-kernel L2 writeback lands on "sim/l2_writeback").  Each kernel's
// slices are folded into the device-lifetime SiteStats once, at
// end_kernel, so Device::site_stats() is a plain const read.
//
// A *Stage* is the one stage-boundary hook: it brackets one algorithm
// stage (a sequence of kernel launches, or host-side work that launches
// none), returns the stage's TimingSummary from end(), records the region
// on the device so trace export (trace.hpp) can draw stage bands, and
// opens the stage's span inside a traced request (span.hpp).
#pragma once

#include <string>

#include "sim/events.hpp"
#include "sim/span.hpp"
#include "sim/types.hpp"

namespace ms::sim {

class Device;

/// Index into the device's site table.  Site 0 is always "other".
using SiteId = u32;
inline constexpr SiteId kSiteOther = 0;

/// Accumulated counters of one registered access site.
struct SiteStats {
  std::string label;
  KernelEvents events;
};

/// A closed Stage: [first_kernel, end_kernel) indexes into
/// Device::records().
struct RegionRecord {
  std::string name;
  u64 first_kernel = 0;
  u64 end_kernel = 0;
};

/// RAII site scope.  Construction switches the device's current attribution
/// site; destruction restores the previous one.  Scopes nest (the inner
/// site takes over for its lifetime only).  Cheap enough for per-round use
/// inside kernels: a transition costs one KernelEvents snapshot.
class ScopedSite {
 public:
  ScopedSite(Device& dev, SiteId site);
  ScopedSite(Device& dev, std::string_view label);
  ~ScopedSite();

  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  Device* dev_;
  SiteId prev_;
};

/// RAII algorithm stage (paper Table 4's pre-scan / scan / post-scan or
/// labeling / sorting / packing rows, plus host-side epilogues).  end()
/// closes the stage, records its region on the device (the trace's stage
/// band; a stage that launched no kernel draws none), closes its kStage
/// span, and returns the TimingSummary of every kernel launched inside
/// it.  A stage destroyed without end() is closed with whatever ran so
/// far, so a stage aborted by a fault still records its region and span.
class Stage {
 public:
  Stage(Device& dev, std::string name);
  ~Stage();

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Close the stage and return its summary (idempotent: later calls
  /// return the summary captured by the first).
  TimingSummary end();

 private:
  Device* dev_;
  std::string name_;
  u64 begin_;
  SpanScope span_;  ///< active only inside a traced request
  bool ended_ = false;
  TimingSummary final_;
};

}  // namespace ms::sim
