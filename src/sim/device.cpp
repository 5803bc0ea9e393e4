#include "sim/device.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "sim/telemetry.hpp"
#include "sim/threadpool.hpp"

namespace ms::sim {

namespace detail {
thread_local CounterShard* t_shard = nullptr;
}  // namespace detail

namespace {
/// Non-zero: explicit process-wide override (e.g. --host-threads).
std::atomic<u32> g_host_threads_override{0};
}  // namespace

void set_default_host_threads(u32 threads) {
  g_host_threads_override.store(threads, std::memory_order_relaxed);
}

u32 default_host_threads() {
  const u32 o = g_host_threads_override.load(std::memory_order_relaxed);
  if (o != 0) return o;
  if (const char* env = std::getenv("MS_HOST_THREADS"); env != nullptr && *env) {
    const int v = std::atoi(env);
    check(v >= 1, "MS_HOST_THREADS must be a positive integer");
    return static_cast<u32>(v);
  }
  return ThreadPool::hardware_threads();
}

Device::Device(DeviceProfile profile)
    : profile_(std::move(profile)),
      l2_(profile_.l2_bytes, profile_.l2_ways, profile_.transaction_bytes),
      alloc_(profile_.transaction_bytes) {
  host_threads_ = default_host_threads();
  sites_.push_back(SiteStats{"other", {}});  // SiteId 0 == kSiteOther
  writeback_site_ = site_id("sim/l2_writeback");
  // MS_SANITIZE=memcheck,racecheck,initcheck (or "all") arms the sanitizer
  // on every device, in fail-fast mode, so an unmodified test suite can be
  // rerun under the sanitizers (the CTest sanitize_clean_suite entry).
  if (const char* env = std::getenv("MS_SANITIZE"); env != nullptr && *env) {
    const auto cfg = SanitizerConfig::parse(env);
    check(cfg.has_value(), "MS_SANITIZE: unknown sanitizer tool name");
    SanitizerConfig armed = *cfg;
    armed.fail_fast = armed.any();
    san_.configure(armed);
  }
}

void Device::begin_kernel(std::string name) {
  check(!in_kernel_, "begin_kernel: a kernel is already executing");
  in_kernel_ = true;
  current_ = KernelEvents{};
  site_snapshot_ = KernelEvents{};
  kernel_sites_.clear();
  current_peak_smem_ = 0;
  current_name_ = std::move(name);
  // Launch span: one per kernel executed inside a request.  Opened here
  // (main thread) so kernel-body faults attach to it; end_kernel closes
  // it after the lifetime clock advances, so its duration is exactly the
  // kernel's modeled time.
  if (spans_ != nullptr && spans_->in_request()) {
    launch_span_ = open_span(SpanKind::kLaunch, current_name_);
    spans_->set_overhead(launch_span_, profile_.kernel_launch_us / 1000.0);
  }
}

const KernelRecord& Device::end_kernel() {
  check(in_kernel_, "end_kernel: no kernel is executing");
  in_kernel_ = false;
  flush_site_delta();
  // Stores become globally visible at kernel end: flush dirty L2 sectors.
  // The flushed write traffic is attributed to its own site so explicit
  // scatter sites keep only the transactions their lanes caused directly.
  const u64 writeback = l2_.flush_dirty();
  if (writeback > 0) {
    const SiteId prev = current_site_;
    current_site_ = writeback_site_;
    current_.dram_write_tx += writeback;
    flush_site_delta();
    current_site_ = prev;
  }

  KernelRecord rec;
  rec.name = std::move(current_name_);
  current_name_.clear();
  rec.events = current_;
  rec.faulted = pending_fault_;
  pending_fault_ = false;
  rec.peak_smem_bytes = current_peak_smem_;
  std::sort(kernel_sites_.begin(), kernel_sites_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  rec.sites = std::move(kernel_sites_);
  kernel_sites_.clear();
  const CostBreakdown c = model_kernel_cost(current_, profile_);
  rec.time_ms = c.time_ms;
  rec.mem_time_ms = c.mem_time_ms;
  rec.issue_time_ms = c.issue_time_ms;
  lifetime_ms_ += c.time_ms;
  lifetime_launches_ += 1;
  lifetime_l2_read_segments_ += rec.events.l2_read_segments;
  lifetime_dram_read_tx_ += rec.events.dram_read_tx;
  records_.push_back(std::move(rec));
  // Close the launch span now that the lifetime clock includes this
  // kernel -- and before the chaos hook, which may mutate buffers but
  // belongs to no launch.  Aborted launches reach here too (the launch
  // helpers' catch path calls end_kernel), so the span always closes.
  last_launch_span_ = launch_span_;
  if (launch_span_ != 0) {
    close_span(launch_span_);
    launch_span_ = 0;
  }
  // Chaos bit-flip decision point: transient device-memory corruption
  // manifests between kernels (host storage mutates; no modeled cost --
  // the corrupted VALUES may of course change later kernels' behavior).
  if (chaos_ != nullptr) chaos_->on_kernel_end(records_.back().name);
  if (telem_ != nullptr) telem_->tick();
  return records_.back();
}

void Device::record_fault(FaultContext ctx) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    // Worker path: park in the item's shard, no shared state touched.
    // Within one item the first fault wins (serial call order).  The
    // span event parks alongside it and is forwarded at merge time only
    // if this item's fault wins (lifetime_ms_ is stable mid-kernel, so
    // the timestamp matches what the serial path would record).
    if (!sh->fault.has_value()) {
      if (spans_ != nullptr) {
        sh->span_events.push_back(SpanEvent{lifetime_ms_, "fault", {}, ctx});
      }
      sh->fault = std::move(ctx);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(fault_mu_);
  // First-fault-wins per launch: once a fault of the current launch is
  // pending, later ones are dropped (matching ascending-item merge order).
  if (in_kernel_ && pending_fault_) return;
  if (spans_ != nullptr) {
    spans_->event(SpanEvent{lifetime_ms_, "fault", {}, ctx});
  }
  last_error_ = std::move(ctx);
  if (in_kernel_) pending_fault_ = true;
}

ChaosEngine& Device::enable_chaos(const ChaosPolicy& policy) {
  if (chaos_ != nullptr) return *chaos_;
  chaos_ = std::make_unique<ChaosEngine>(policy, *this, res_stats_);
  alloc_.set_chaos(chaos_.get());
  l2_.set_chaos(chaos_.get());
  return *chaos_;
}

void Device::disable_chaos() {
  alloc_.set_chaos(nullptr);
  l2_.set_chaos(nullptr);
  chaos_.reset();
}

u64 Device::allocate_address_range(u64 bytes) {
  return alloc_.allocate(bytes);
}

void Device::free_address_range(u64 base, u64 bytes) {
  alloc_.deallocate(base, bytes);
}

void Device::touch_read_sectors(u64 first_sector, u32 segments) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    sh->events.l2_read_segments += segments;
    sh->record_sectors(first_sector, segments, /*is_write=*/false);
    return;
  }
  current_.l2_read_segments += segments;
  for (u32 s = 0; s < segments; ++s) {
    const auto r = l2_.read(first_sector + s);
    current_.dram_read_tx += r.dram_read_tx;
    current_.dram_write_tx += r.dram_write_tx;
  }
}

void Device::touch_write_sectors(u64 first_sector, u32 segments) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    sh->events.l2_write_segments += segments;
    sh->record_sectors(first_sector, segments, /*is_write=*/true);
    return;
  }
  current_.l2_write_segments += segments;
  for (u32 s = 0; s < segments; ++s) {
    const auto r = l2_.write(first_sector + s);
    current_.dram_read_tx += r.dram_read_tx;
    current_.dram_write_tx += r.dram_write_tx;
  }
}

void Device::touch_read_sector(u64 sector) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    sh->events.l2_read_segments += 1;
    sh->record_sectors(sector, 1, /*is_write=*/false);
    return;
  }
  current_.l2_read_segments += 1;
  const auto r = l2_.read(sector);
  current_.dram_read_tx += r.dram_read_tx;
  current_.dram_write_tx += r.dram_write_tx;
}

void Device::touch_write_sector(u64 sector) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    sh->events.l2_write_segments += 1;
    sh->record_sectors(sector, 1, /*is_write=*/true);
    return;
  }
  current_.l2_write_segments += 1;
  const auto r = l2_.write(sector);
  current_.dram_read_tx += r.dram_read_tx;
  current_.dram_write_tx += r.dram_write_tx;
}

TimingSummary Device::summary_since(u64 mark) const {
  TimingSummary s;
  for (u64 i = mark; i < records_.size(); ++i) s.add(records_[i]);
  return s;
}

f64 Device::total_ms() const {
  f64 t = 0.0;
  for (const auto& r : records_) t += r.time_ms;
  return t;
}

SiteId Device::site_id(std::string_view label) {
  std::lock_guard<std::mutex> lock(site_mu_);
  for (SiteId i = 0; i < sites_.size(); ++i) {
    if (sites_[i].label == label) return i;
  }
  sites_.push_back(SiteStats{std::string(label), {}});
  return static_cast<SiteId>(sites_.size() - 1);
}

SiteId Device::set_site(SiteId site) {
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    {
      std::lock_guard<std::mutex> lock(site_mu_);
      check(site < sites_.size(), "set_site: unregistered site id");
    }
    return sh->set_site(site);
  }
  check(site < sites_.size(), "set_site: unregistered site id");
  flush_site_delta();
  const SiteId prev = current_site_;
  current_site_ = site;
  return prev;
}

const std::vector<SiteStats>& Device::site_stats() {
  flush_site_delta();
  return sites_;
}

void Device::flush_site_delta() {
  const KernelEvents delta = current_ - site_snapshot_;
  if (!(delta == KernelEvents{})) {
    sites_[current_site_].events += delta;
    auto it = std::find_if(kernel_sites_.begin(), kernel_sites_.end(),
                           [&](const auto& p) { return p.first == current_site_; });
    if (it == kernel_sites_.end()) {
      kernel_sites_.emplace_back(current_site_, delta);
    } else {
      it->second += delta;
    }
  }
  site_snapshot_ = current_;
}

Device::~Device() = default;

SpanRecorder& Device::enable_spans() {
  if (spans_ == nullptr) spans_ = std::make_unique<SpanRecorder>();
  return *spans_;
}

Telemetry& Device::enable_telemetry(const TelemetryConfig& cfg) {
  if (telem_ != nullptr) return *telem_;
  telem_ = std::make_unique<Telemetry>(cfg);
  // Pre-register the resilient executor's instruments so every snapshot
  // carries them (zero-valued until a resilient run records something)
  // and `ms_cli top` renders the full resilience picture even for runs
  // that never faulted.
  telem_->counter("resilience.faults");
  telem_->counter("resilience.retries");
  telem_->counter("resilience.fallbacks");
  telem_->counter("resilience.recovered");
  telem_->counter("resilience.lost");
  telem_->counter("resilience.validation_failures");
  telem_->histogram("request.retry_ms");
  // Interval state lives in a shared_ptr captured by the provider: the
  // deltas between consecutive snapshots turn lifetime totals into
  // interval rates (L2 hit rate per interval, reuse-hit rate per
  // interval, per-worker busy fraction of the sampling window).
  struct IntervalState {
    u64 l2_reads = 0;
    u64 dram_reads = 0;
    u64 allocs = 0;
    u64 reuse_hits = 0;
    std::vector<f64> busy_ms;  // per worker, cumulative at last sample
  };
  auto st = std::make_shared<IntervalState>();
  telem_->add_provider([this, st](std::vector<ScalarSample>& out, f64 dt_ms) {
    out.push_back({"device.modeled_ms", lifetime_ms_});
    out.push_back({"device.launches", static_cast<f64>(lifetime_launches_)});

    const AllocatorStats& a = alloc_.stats();
    out.push_back({"allocator.bytes_live", static_cast<f64>(a.bytes_live)});
    out.push_back({"allocator.bytes_cached", static_cast<f64>(a.bytes_cached)});
    out.push_back(
        {"allocator.bytes_reserved", static_cast<f64>(a.bytes_reserved)});
    out.push_back({"allocator.alloc_count", static_cast<f64>(a.alloc_count)});
    out.push_back({"allocator.reuse_hits", static_cast<f64>(a.reuse_hits)});
    const u64 d_allocs = a.alloc_count - st->allocs;
    const u64 d_hits = a.reuse_hits - st->reuse_hits;
    out.push_back({"allocator.reuse_hit_pct",
                   d_allocs > 0 ? 100.0 * static_cast<f64>(d_hits) /
                                      static_cast<f64>(d_allocs)
                                : 0.0});
    out.push_back({"allocator.reuse_hit_pct_cum",
                   a.alloc_count > 0 ? 100.0 * static_cast<f64>(a.reuse_hits) /
                                           static_cast<f64>(a.alloc_count)
                                     : 0.0});
    st->allocs = a.alloc_count;
    st->reuse_hits = a.reuse_hits;

    const u64 d_l2 = lifetime_l2_read_segments_ - st->l2_reads;
    const u64 d_dram = lifetime_dram_read_tx_ - st->dram_reads;
    out.push_back(
        {"l2.read_hit_pct",
         d_l2 > 0 ? 100.0 * (1.0 - static_cast<f64>(std::min(d_dram, d_l2)) /
                                       static_cast<f64>(d_l2))
                  : 0.0});
    out.push_back(
        {"l2.read_hit_pct_cum",
         lifetime_l2_read_segments_ > 0
             ? 100.0 *
                   (1.0 - static_cast<f64>(std::min(
                              lifetime_dram_read_tx_,
                              lifetime_l2_read_segments_)) /
                              static_cast<f64>(lifetime_l2_read_segments_))
             : 0.0});
    st->l2_reads = lifetime_l2_read_segments_;
    st->dram_reads = lifetime_dram_read_tx_;

    if (pool_ != nullptr) {
      out.push_back({"pool.workers", static_cast<f64>(pool_->size())});
      out.push_back(
          {"pool.queue_depth", static_cast<f64>(pool_->queue_depth())});
      const auto ws = pool_->worker_stats();
      st->busy_ms.resize(ws.size(), 0.0);
      f64 total_busy = 0.0;
      for (u32 i = 0; i < ws.size(); ++i) {
        const f64 d_busy = ws[i].busy_ms - st->busy_ms[i];
        st->busy_ms[i] = ws[i].busy_ms;
        total_busy += d_busy;
        char name[32];
        std::snprintf(name, sizeof(name), "pool.w%u.busy_frac", i);
        out.push_back({name, dt_ms > 0.0 ? d_busy / dt_ms : 0.0});
      }
      out.push_back({"pool.busy_frac",
                     dt_ms > 0.0 && !ws.empty()
                         ? total_busy / (dt_ms * static_cast<f64>(ws.size()))
                         : 0.0});
    }
  });
  return *telem_;
}

Telemetry& Device::enable_telemetry() {
  return enable_telemetry(TelemetryConfig{});
}

void Device::set_host_threads(u32 threads) {
  check(!in_kernel_, "set_host_threads: kernel executing");
  host_threads_ = threads == 0 ? default_host_threads() : threads;
}

void Device::run_items(u64 n, const std::function<void(u64)>& body) {
  // Chaos launch-abort decision point: we are inside the launch helper's
  // try block (begin_kernel already ran), so the thrown kLaunchFailure
  // takes the normal aborted-launch path -- note_fault, a faulted
  // KernelRecord, rethrow (or a sanitizer report in reporting mode).
  if (chaos_ != nullptr) chaos_->maybe_abort_launch();
  const u32 threads = host_threads_;
  if (threads <= 1 || n <= 1) {
    for (u64 i = 0; i < n; ++i) body(i);
    return;
  }
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  if (pool_->timing_enabled() != (telem_ != nullptr)) {
    pool_->set_timing_enabled(telem_ != nullptr);
  }
  sync_ = std::make_unique<LaunchSync>();
  sync_->done.assign(n, 0);
  // Items start attributing to the site active at launch entry, exactly
  // as the serial loop would.
  const SiteId launch_site = current_site_;
  std::exception_ptr first_error;
  // Batching bounds the memory held by recorded sector streams; it cannot
  // change results (batches run back-to-back, merges stay in item order,
  // and the completed-prefix fence spans the whole launch).
  constexpr u64 kBatch = 1024;
  std::vector<CounterShard> shards;
  for (u64 base = 0; base < n && first_error == nullptr; base += kBatch) {
    const u64 count = std::min(kBatch, n - base);
    shards.assign(count, CounterShard{});
    for (u64 i = 0; i < count; ++i) {
      shards[i].item_id = base + i;
      shards[i].current_site = launch_site;
    }
    const std::function<void(u64)> worker = [&](u64 item) {
      CounterShard& sh = shards[item - base];
      detail::t_shard = &sh;
      try {
        body(item);
      } catch (...) {
        sh.error = std::current_exception();
      }
      detail::t_shard = nullptr;
      // Always advance the completed prefix, fault or not: later items
      // may be blocked in global_atomic_fence.
      std::lock_guard<std::mutex> lock(sync_->mu);
      sync_->done[item] = 1;
      while (sync_->prefix < n && sync_->done[sync_->prefix] != 0) {
        sync_->prefix += 1;
      }
      sync_->cv.notify_all();
    };
    pool_->run(base, base + count, worker);
    // Merge in ascending item order.  A faulted item keeps its partial
    // counters but nothing after it is merged: serial execution would
    // have thrown before reaching those items.
    for (u64 i = 0; i < count; ++i) {
      const std::exception_ptr err = shards[i].error;
      merge_shard(shards[i]);
      if (err != nullptr) {
        first_error = err;
        break;
      }
    }
  }
  sync_.reset();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void Device::global_atomic_fence() {
  CounterShard* sh = detail::t_shard;
  if (sh == nullptr || sh->fence_passed) return;
  LaunchSync& s = *sync_;
  std::unique_lock<std::mutex> lock(s.mu);
  s.cv.wait(lock, [&] { return s.prefix >= sh->item_id; });
  sh->fence_passed = true;
}

void Device::merge_shard(CounterShard& shard) {
  shard.flush_site_delta();
  for (const auto& [site, slice] : shard.sites) {
    add_attributed(site, slice);
  }
  current_peak_smem_ = std::max(current_peak_smem_, shard.peak_smem);
  // Replay the item's sector stream through the real L2.  Replay order ==
  // merge order == item order == serial execution order, so every access
  // sees the exact cache state it would have seen serially and the
  // hit/miss (and writeback) sequence is reproduced bit-for-bit.  The
  // DRAM transactions are summed per site and attributed once per site:
  // integer sums give the same totals as attributing every op.
  merge_dram_.clear();
  std::size_t cur = 0;  // merge_dram_ entry of the previous op's site
  for (const SectorOp& op : shard.sector_ops) {
    u64 read_tx = 0;
    u64 write_tx = 0;
    for (u64 s = op.first_sector; s < op.first_sector + op.count; ++s) {
      const auto r = op.is_write ? l2_.write(s) : l2_.read(s);
      read_tx += r.dram_read_tx;
      write_tx += r.dram_write_tx;
    }
    if (merge_dram_.empty() || merge_dram_[cur].first != op.site) {
      cur = 0;
      while (cur < merge_dram_.size() && merge_dram_[cur].first != op.site) {
        ++cur;
      }
      if (cur == merge_dram_.size()) {
        merge_dram_.emplace_back(op.site, KernelEvents{});
      }
    }
    merge_dram_[cur].second.dram_read_tx += read_tx;
    merge_dram_[cur].second.dram_write_tx += write_tx;
  }
  for (const auto& [site, d] : merge_dram_) {
    if (!(d == KernelEvents{})) add_attributed(site, d);
  }
  for (FaultContext& r : shard.reports) {
    san_.report(std::move(r));
  }
  shard.reports.clear();
  // Shard-parked record_fault: merges run in ascending item order, so the
  // guard makes the lowest faulting item's context win -- the exact fault
  // serial execution would have reported first.  Its parked span events
  // are forwarded only on a win, matching the serial emission rule.
  if (shard.fault.has_value()) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (!pending_fault_) {
      if (spans_ != nullptr) {
        for (SpanEvent& ev : shard.span_events) spans_->event(std::move(ev));
      }
      last_error_ = std::move(*shard.fault);
      pending_fault_ = true;
    }
    shard.fault.reset();
  }
  shard.span_events.clear();
}

void Device::add_attributed(SiteId site, const KernelEvents& delta) {
  // Bump totals and snapshot together so any delta the *main* thread had
  // pending before the launch stays pending and is attributed to its own
  // site at the next flush.
  current_ += delta;
  site_snapshot_ += delta;
  sites_[site].events += delta;
  auto it = std::find_if(kernel_sites_.begin(), kernel_sites_.end(),
                         [&](const auto& p) { return p.first == site; });
  if (it == kernel_sites_.end()) {
    kernel_sites_.emplace_back(site, delta);
  } else {
    it->second += delta;
  }
}

void Device::reset_stats() {
  check(!in_kernel_, "reset_stats: kernel executing");
  l2_.reset();
  records_.clear();
  regions_.clear();
  for (auto& s : sites_) s.events = KernelEvents{};
  current_ = KernelEvents{};
  site_snapshot_ = KernelEvents{};
  kernel_sites_.clear();
  current_site_ = kSiteOther;
}

}  // namespace ms::sim
