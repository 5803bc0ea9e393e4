// The simulated device: owns the device profile, the L2 sector-cache model,
// the per-kernel accounting (one CounterShard, see shard.hpp) and the log
// of executed kernels.
//
// Kernels are executed host-side, warp by warp, between begin_kernel() /
// end_kernel() brackets (use the launch_* helpers in kernel.hpp rather than
// calling these directly).  At end_kernel() the dirty L2 sectors are flushed
// (a kernel's stores must be globally visible before the next launch) and
// the cost model converts the counters into modeled time.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <optional>

#include "sim/allocator.hpp"
#include "sim/cache.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
#include "sim/counters.hpp"
#include "sim/events.hpp"
#include "sim/profile.hpp"
#include "sim/sanitizer.hpp"
#include "sim/shard.hpp"
#include "sim/span.hpp"
#include "sim/types.hpp"

namespace ms::sim {

class ThreadPool;
class Telemetry;
struct TelemetryConfig;

/// Upper bound on the simulator worker count from any source (flag,
/// environment, set_host_threads): each worker is one OS thread.
inline constexpr u32 kMaxHostThreads = 256;

/// Process-wide default worker count for new Devices: an explicit value
/// set here (e.g. from a --host-threads flag) wins over the
/// MS_HOST_THREADS environment variable, which wins over the hardware
/// concurrency (capped at kMaxHostThreads).  0 clears the override.
void set_default_host_threads(u32 threads);
u32 default_host_threads();
/// MS_HOST_THREADS parsed and checked (1..kMaxHostThreads), or 0 when it is
/// unset or empty.  A malformed or out-of-range value is a UsageError
/// naming the variable.
u32 host_threads_from_env();

class Device {
 public:
  explicit Device(DeviceProfile profile = DeviceProfile::tesla_k40c());
  ~Device();  // out-of-line: ThreadPool is incomplete here

  const DeviceProfile& profile() const { return profile_; }

  // --- kernel bracketing (used by kernel.hpp) ---
  void begin_kernel(std::string name);
  const KernelRecord& end_kernel();
  bool in_kernel() const { return in_kernel_; }
  /// Name of the kernel currently executing ("" between launches); used by
  /// the sanitizer hooks to stamp FaultContexts.
  const std::string& current_kernel_name() const { return current_name_; }

  // --- sanitizer & structured faults (see sanitizer.hpp) ---
  Sanitizer& sanitizer() { return san_; }
  const Sanitizer& sanitizer() const { return san_; }
  /// Record a fatal fault: parks it as last_error(), flags the kernel
  /// record being finalized and attaches the fault to the innermost open
  /// span (the launch span for aborted kernels).  Main thread only: the
  /// launch helpers' catch path calls it after run_items has rethrown the
  /// lowest faulting item's exception.
  void note_fault(const FaultContext& ctx) {
    last_error_ = ctx;
    if (in_kernel_) pending_fault_ = true;
    if (spans_ != nullptr) {
      spans_->event(SpanEvent{lifetime_ms_, "fault", {}, ctx});
    }
  }
  /// The most recent fatal fault, if any (sticky, like cudaPeekAtLastError).
  const std::optional<FaultContext>& last_error() const { return last_error_; }
  /// Return and clear the sticky fault (the cudaGetLastError idiom).
  std::optional<FaultContext> take_last_error() {
    std::optional<FaultContext> e = std::move(last_error_);
    last_error_.reset();
    return e;
  }

  // --- address space for DeviceBuffer allocations ---
  /// Reserve `bytes` of device address space, aligned to a sector.
  /// Served by the caching sub-allocator: a recycled range of the same
  /// rounded size when one is pooled, fresh address space otherwise.
  u64 allocate_address_range(u64 bytes);
  /// Return a range to the allocator's pool (DeviceBuffer destructor).
  /// `bytes` must be the size passed to the matching allocate call.
  void free_address_range(u64 base, u64 bytes);
  /// The device sub-allocator (pooling toggle, trim, reuse stats).
  CachingAllocator& allocator() { return alloc_; }
  const CachingAllocator& allocator() const { return alloc_; }

  // --- event recording (used by Warp/Block contexts) ---
  /// The counter sink of the executing context: the thread-local shard
  /// while a parallel item runs on this thread, the device's own shard
  /// otherwise (serial path, and host code between launches).  Counters
  /// charged between launches (a Warp driven outside any kernel) show up
  /// here but belong to no KernelRecord and no site total; the next
  /// begin_kernel clears them.
  KernelEvents& events() { return shard().events; }

  /// Record a warp-wide global read or write of `count` consecutive
  /// sectors starting at `first_sector` (count 1 for each sector of an
  /// already deduplicated scatter).  Serial path: the sectors go through
  /// the L2 model immediately.  Parallel path: they are recorded in the
  /// item's shard and replayed through the L2 in item order once the item
  /// and every earlier one have completed (see run_items).
  void touch_sectors(u64 first_sector, u32 count, bool is_write);

  /// Record a block's shared-memory footprint (called by Block::shared);
  /// the maximum across the kernel's blocks lands in
  /// KernelRecord::peak_smem_bytes for the occupancy proxy.
  void note_smem_usage(u32 bytes) {
    CounterShard& sh = shard();
    sh.peak_smem = std::max(sh.peak_smem, bytes);
  }

  // --- parallel block scheduler (used by the launch helpers) ---
  /// Worker threads used to execute independent kernel items (blocks /
  /// warp chunks); 1 = the serial path.  Defaults to
  /// default_host_threads() at construction.
  u32 host_threads() const { return host_threads_; }
  /// Set the worker count (0 = reset to the process default; at most
  /// kMaxHostThreads).  Takes effect at the next launch; must not be
  /// called mid-kernel.
  void set_host_threads(u32 threads);

  /// Execute body(item) for items [0, n), concurrently when
  /// host_threads() > 1, with accounting merged in ascending item order
  /// so that counters, per-site slices, L2 traffic and modeled costs are
  /// bit-identical to serial execution.  Items run as pool jobs of up to
  /// 1024; the calling thread merges up to the pool's completed prefix
  /// (ThreadPool::wait_prefix) while the workers run later items.  Called
  /// by the launch helpers with one item per block (launch_blocks) or per
  /// fixed-size warp chunk (launch_warps).
  void run_items(u64 n, const std::function<void(u64)>& body);

  /// Serial-equivalence fence for global atomics: blocks the calling
  /// worker until every lower-numbered item of the current launch has
  /// completed (ThreadPool::wait_below), so atomic old values are
  /// consumed in the exact order serial execution would produce.  No-op
  /// on the serial path and after the item's first call.
  void global_atomic_fence();

  // --- kernel log / timing sections ---
  const std::vector<KernelRecord>& records() const { return records_; }
  void clear_records() { records_.clear(); }

  /// Position marker for timing sections: summarize everything executed
  /// after a mark() with summary_since().  (sim::Stage in counters.hpp is
  /// the scoped front-end; this stays as the underlying primitive.)
  u64 mark() const { return records_.size(); }
  TimingSummary summary_since(u64 mark) const;
  TimingSummary summary_all() const { return summary_since(0); }

  /// Total modeled milliseconds across all recorded kernels.
  f64 total_ms() const;

  // --- per-site attribution (see counters.hpp) ---
  /// Register-or-look-up an access site by label.  Labels are stable for
  /// the device's lifetime; register once outside hot loops and reuse the
  /// id from ScopedSite(dev, id).
  SiteId site_id(std::string_view label);
  /// Switch the current attribution site (flushing the pending counter
  /// delta to the outgoing site); returns the previous site.  Prefer
  /// ScopedSite over calling this directly.
  SiteId set_site(SiteId site);
  SiteId current_site() const {
    const CounterShard* sh = detail::t_shard;
    return sh != nullptr ? sh->current_site : main_.current_site;
  }
  /// Accumulated per-site counters across all recorded kernels: each
  /// kernel's slices are folded in at its end_kernel, so the totals always
  /// equal the sum of the kernel log.  Index == SiteId.
  const std::vector<SiteStats>& site_stats() const { return sites_; }

  // --- profiled regions (stage bands; see counters.hpp) ---
  const std::vector<RegionRecord>& regions() const { return regions_; }
  void add_region(RegionRecord r) { regions_.push_back(std::move(r)); }

  /// Reset the cache, the kernel log, per-site counters and regions
  /// (buffers keep their contents; site labels stay registered).
  void reset_stats();

  // --- telemetry (sim/telemetry.hpp) ---
  /// Attach a metrics registry.  Registers a provider that polls the
  /// allocator, the L2 counters and the threadpool at snapshot time, and
  /// makes end_kernel() tick the sampler.  Telemetry only *reads* modeled
  /// state -- modeled costs are bit-identical with it on or off (the
  /// telemetry_overhead CTest gate).  Idempotent; the config of the first
  /// call wins.
  Telemetry& enable_telemetry(const TelemetryConfig& cfg);
  Telemetry& enable_telemetry();
  /// The attached registry, or nullptr when telemetry is off.
  Telemetry* telemetry() { return telem_.get(); }
  const Telemetry* telemetry() const { return telem_.get(); }

  /// Device-lifetime modeled totals.  Unlike total_ms()/records(), these
  /// survive reset_stats()/clear_records() -- they are the monotonic clock
  /// telemetry snapshots are plotted against.
  f64 lifetime_ms() const { return lifetime_ms_; }
  u64 lifetime_launches() const { return lifetime_launches_; }

  // --- fault injection (sim/chaos.hpp) ---
  /// Arm the deterministic chaos engine with `policy`.  Idempotent like
  /// enable_telemetry: the first call's policy wins; later calls return
  /// the existing engine (use its one-shot arming APIs to add precise
  /// injections).  Buffers created while armed register with the engine
  /// and become corruption targets.
  ChaosEngine& enable_chaos(const ChaosPolicy& policy);
  /// Detach and destroy the engine; every injection point reverts to the
  /// zero-overhead null check (live buffers simply stop being targets).
  void disable_chaos();
  /// The armed engine, or nullptr when chaos is off.
  ChaosEngine* chaos() { return chaos_.get(); }
  const ChaosEngine* chaos() const { return chaos_.get(); }

  /// Injection and recovery counters (chaos engine + resilient executor).
  /// Lifetime totals; all-zero on a device that never saw chaos or a
  /// resilient run -- the schema-v6 "resilience" report block.
  ResilienceStats& resilience_stats() { return res_stats_; }
  const ResilienceStats& resilience_stats() const { return res_stats_; }

  /// Batched-serving accounting (ServingExecutor).  Lifetime totals;
  /// all-zero on a device that never served batches -- the schema-v8
  /// "batching" report block.
  BatchStats& batch_stats() { return batch_stats_; }
  const BatchStats& batch_stats() const { return batch_stats_; }

  // --- request-scoped span tracing (sim/span.hpp) ---
  /// Attach a span recorder.  Plan executions then open request /
  /// attempt / stage spans and every kernel launch inside a request gets
  /// a launch span.  Spans only *read* modeled state: modeled costs are
  /// bit-identical with tracing on or off.  Idempotent.
  SpanRecorder& enable_spans();
  /// The attached recorder, or nullptr when tracing is off.
  SpanRecorder* spans() { return spans_.get(); }
  const SpanRecorder* spans() const { return spans_.get(); }

  /// Open / close a span against the device lifetime clock and the span
  /// counter snapshot.  Main thread only; requires enable_spans().
  /// SpanScope is the RAII front-end.
  u64 open_span(SpanKind kind, std::string name) {
    return spans_->begin(kind, std::move(name), lifetime_ms_,
                         span_counters_now());
  }
  void close_span(u64 id) {
    spans_->end(id, lifetime_ms_, span_counters_now());
  }
  /// Launch span id of the most recently completed kernel, 0 when that
  /// kernel ran untraced.  Valid until the next launch begins; the
  /// serving executor uses it to nest per-problem spans under the fused
  /// launch that carried them.
  u64 last_launch_span() const { return last_launch_span_; }
  /// Snapshot of the lifetime counters spans track as deltas.
  SpanCounters span_counters_now() const {
    return SpanCounters{lifetime_launches_, lifetime_l2_read_segments_,
                        lifetime_dram_read_tx_, alloc_.stats().alloc_count,
                        alloc_.stats().reuse_hits};
  }

 private:
  /// The accounting context of the calling thread: the item shard armed by
  /// run_items on a worker, the device's own shard otherwise.
  CounterShard& shard() {
    CounterShard* sh = detail::t_shard;
    return sh != nullptr ? *sh : main_;
  }

  /// Fold one completed item's shard into the device's own shard: counter
  /// slices, peak shared memory, the L2 sector-stream replay (the stream
  /// is freed afterwards) and the deferred sanitizer reports.  Must be
  /// called in ascending item order (the replay reproduces the serial L2
  /// access sequence).
  void merge_shard(CounterShard& item);

  DeviceProfile profile_;
  SectorCache l2_;
  Sanitizer san_;
  std::optional<FaultContext> last_error_;
  bool pending_fault_ = false;
  /// Accounting of the kernel currently executing (of the last one between
  /// launches); item shards are merged into it in ascending item order.
  CounterShard main_;
  std::string current_name_;
  bool in_kernel_ = false;
  CachingAllocator alloc_;  // initialized from profile_.transaction_bytes
  std::vector<KernelRecord> records_;
  std::vector<RegionRecord> regions_;

  std::vector<SiteStats> sites_;
  SiteId writeback_site_ = 0;  // set in the constructor
  /// merge_shard's per-site DRAM sums (kept to reuse its storage).
  std::vector<std::pair<u32, KernelEvents>> merge_dram_;

  /// Guards the site table's size: kernel bodies may register labels from
  /// worker threads while others validate ids in set_site.
  std::mutex site_mu_;

  u32 host_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;     // lazily created, reused

  std::unique_ptr<ChaosEngine> chaos_;   // null when chaos is off
  ResilienceStats res_stats_;

  std::unique_ptr<Telemetry> telem_;     // null when telemetry is off
  std::unique_ptr<SpanRecorder> spans_;  // null when span tracing is off
  /// Launch span of the kernel currently executing (0 when none: tracing
  /// off, or the launch happened outside a request span).
  u64 launch_span_ = 0;
  /// Launch span of the most recently *completed* kernel (saved at
  /// end_kernel before launch_span_ resets).  The batched serving
  /// executor reads this to parent per-problem spans under their fused
  /// launch after the launch closes.
  u64 last_launch_span_ = 0;
  BatchStats batch_stats_;
  /// Lifetime accumulators (updated at end_kernel; survive reset_stats).
  f64 lifetime_ms_ = 0.0;
  u64 lifetime_launches_ = 0;
  u64 lifetime_l2_read_segments_ = 0;
  u64 lifetime_dram_read_tx_ = 0;
};

}  // namespace ms::sim
