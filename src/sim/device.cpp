#include "sim/device.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "sim/flags.hpp"
#include "sim/telemetry.hpp"
#include "sim/threadpool.hpp"

namespace ms::sim {

namespace detail {
constinit thread_local CounterShard* t_shard = nullptr;
}  // namespace detail

namespace {
/// Non-zero: explicit process-wide override (e.g. --host-threads).
std::atomic<u32> g_host_threads_override{0};
}  // namespace

void set_default_host_threads(u32 threads) {
  g_host_threads_override.store(threads, std::memory_order_relaxed);
}

u32 host_threads_from_env() {
  const char* env = std::getenv("MS_HOST_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  return parse_flag_in<u32>("MS_HOST_THREADS", env, 1, kMaxHostThreads);
}

u32 default_host_threads() {
  const u32 o = g_host_threads_override.load(std::memory_order_relaxed);
  if (o != 0) return o;
  if (const u32 env = host_threads_from_env(); env != 0) return env;
  return std::min(ThreadPool::hardware_threads(), kMaxHostThreads);
}

Device::Device(DeviceProfile profile)
    : profile_(std::move(profile)),
      l2_(profile_.l2_bytes, profile_.l2_ways, profile_.transaction_bytes),
      alloc_(profile_.transaction_bytes) {
  host_threads_ = default_host_threads();
  site_id("other");  // SiteId 0 == kSiteOther
  writeback_site_ = site_id("sim/l2_writeback");
  // MS_SANITIZE=memcheck,racecheck,initcheck (or "all") arms the sanitizer
  // on every device, in fail-fast mode, so an unmodified test suite can be
  // rerun under the sanitizers (the CTest sanitize_clean_suite entry).
  if (const auto cfg = sanitizer_from_env()) san_.configure(*cfg);
}

void Device::begin_kernel(std::string name) {
  check(!in_kernel_, "begin_kernel: a kernel is already executing");
  in_kernel_ = true;
  // Fresh accounting; attribution continues at the site active now.
  const SiteId site = main_.current_site;
  main_ = CounterShard{};
  main_.current_site = site;
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
  // Stores become globally visible at kernel end: flush dirty L2 sectors.
  // The flushed write traffic is attributed to its own site so explicit
  // scatter sites keep only the transactions their lanes caused directly.
  main_.flush_site_delta();
  const u64 writeback = l2_.flush_dirty();
  if (writeback > 0) {
    const SiteId prev = main_.set_site(writeback_site_);
    main_.events.dram_write_tx += writeback;
    main_.set_site(prev);
  }

  KernelRecord rec;
  rec.name = std::move(current_name_);
  current_name_.clear();
  rec.events = main_.events;
  rec.faulted = pending_fault_;
  pending_fault_ = false;
  rec.peak_smem_bytes = main_.peak_smem;
  rec.sites = std::move(main_.sites);
  main_.sites.clear();
  std::sort(rec.sites.begin(), rec.sites.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [site, slice] : rec.sites) sites_[site].events += slice;
  const CostBreakdown c = model_kernel_cost(rec.events, profile_);
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

void Device::touch_sectors(u64 first_sector, u32 count, bool is_write) {
  CounterShard& sh = shard();
  (is_write ? sh.events.l2_write_segments : sh.events.l2_read_segments) +=
      count;
  if (&sh != &main_) {
    sh.record_sectors(first_sector, count, is_write);
    return;
  }
  for (u64 s = first_sector; s < first_sector + count; ++s) {
    const auto r = is_write ? l2_.write(s) : l2_.read(s);
    main_.events.dram_read_tx += r.dram_read_tx;
    main_.events.dram_write_tx += r.dram_write_tx;
  }
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
  {
    std::lock_guard<std::mutex> lock(site_mu_);
    check(site < sites_.size(), "set_site: unregistered site id");
  }
  return shard().set_site(site);
}

Device::~Device() = default;

SpanRecorder& Device::enable_spans() {
  if (spans_ == nullptr) spans_ = std::make_unique<SpanRecorder>();
  return *spans_;
}

Telemetry& Device::enable_telemetry(const TelemetryConfig& cfg) {
  if (telem_ != nullptr) return *telem_;
  telem_ = std::make_unique<Telemetry>(cfg);
  // Pre-registered so every snapshot carries it (empty until a resilient
  // run recovers) and `ms_cli top` renders it even for fault-free runs.
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

    // The resilient and serving executors count into the device's stats
    // structs; telemetry publishes those device-lifetime totals.
    const ResilienceStats& rs = res_stats_;
    out.push_back({"resilience.faults", static_cast<f64>(rs.faults_observed)});
    out.push_back({"resilience.retries", static_cast<f64>(rs.retries)});
    out.push_back({"resilience.fallbacks", static_cast<f64>(rs.fallbacks)});
    out.push_back({"resilience.recovered", static_cast<f64>(rs.recovered)});
    out.push_back({"resilience.lost", static_cast<f64>(rs.lost)});
    out.push_back({"resilience.validation_failures",
                   static_cast<f64>(rs.validation_failures)});
    const BatchStats& bs = batch_stats_;
    out.push_back({"serving.flushes", static_cast<f64>(bs.batches)});
    out.push_back({"serving.packed", static_cast<f64>(bs.packed_problems)});
    out.push_back({"serving.unpacked", static_cast<f64>(bs.unpacked_problems)});
    out.push_back({"serving.retries", static_cast<f64>(bs.problems_retried)});
  });
  return *telem_;
}

Telemetry& Device::enable_telemetry() {
  return enable_telemetry(TelemetryConfig{});
}

void Device::set_host_threads(u32 threads) {
  check(!in_kernel_, "set_host_threads: kernel executing");
  check(threads <= kMaxHostThreads,
        "set_host_threads: more than kMaxHostThreads workers");
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
  // Items start attributing to the site active at launch entry, exactly
  // as the serial loop would.
  const SiteId launch_site = main_.current_site;
  std::exception_ptr first_error;
  // Batching bounds the memory held by recorded sector streams; it cannot
  // change results (batches run back-to-back, merges stay in item order,
  // and a batch's completed prefix starts with every earlier item done).
  constexpr u64 kBatch = 1024;
  // The launcher merges item i once items [0, i] have completed.  It
  // sleeps until the completed prefix has grown by four items per worker:
  // each wake-up costs the notifying worker a system call, and waking per
  // round of workers measured slower on host_scaling.  With chaos attached
  // an L2 writeback may scramble buffer memory that running items read, so
  // it merges a batch only once the whole batch has completed.
  const u64 round = chaos_ != nullptr ? kBatch : 4 * u64{threads};
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
    };
    pool_->start(base, base + count, worker, telem_ != nullptr);
    // Merge in ascending item order.  A faulted item keeps its partial
    // counters but nothing after it is merged: serial execution would
    // have thrown before reaching those items.  The pool still runs the
    // rest of the batch, so which items wrote buffers never depends on
    // timing.
    try {
      for (u64 i = 0; i < count && first_error == nullptr;) {
        const u64 ready = pool_->wait_prefix(base + i + round) - base;
        for (; i < ready && first_error == nullptr; ++i) {
          merge_shard(shards[i]);
          first_error = shards[i].error;
        }
      }
    } catch (...) {
      pool_->wait();  // workers still write into `shards`
      throw;
    }
    pool_->wait();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void Device::global_atomic_fence() {
  CounterShard* sh = detail::t_shard;
  if (sh == nullptr || sh->fence_passed) return;
  pool_->wait_below(sh->item_id);
  sh->fence_passed = true;
}

void Device::merge_shard(CounterShard& item) {
  // Totals and snapshot move together, so a delta the device's own shard
  // had pending before the launch stays pending for its own site.
  const auto fold = [this](u32 site, const KernelEvents& delta) {
    main_.events += delta;
    main_.site_snapshot += delta;
    main_.attribute(site, delta);
  };
  item.flush_site_delta();
  for (const auto& [site, slice] : item.sites) fold(site, slice);
  main_.peak_smem = std::max(main_.peak_smem, item.peak_smem);
  // Replay the item's sector stream through the real L2.  Replay order ==
  // merge order == item order == serial execution order, so every access
  // sees the exact cache state it would have seen serially and the
  // hit/miss (and writeback) sequence is reproduced bit-for-bit.  The
  // DRAM transactions are summed per site and attributed once per site:
  // integer sums give the same totals as attributing every op.
  merge_dram_.clear();
  std::size_t cur = 0;  // merge_dram_ entry of the previous op's site
  for (const SectorOp& op : item.sector_ops) {
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
    if (!(d == KernelEvents{})) fold(site, d);
  }
  for (FaultContext& r : item.reports) {
    san_.report(std::move(r));
  }
  item.reports.clear();
  // The stream is replayed; release it while later items still run.
  std::vector<SectorOp>().swap(item.sector_ops);
}

void Device::reset_stats() {
  check(!in_kernel_, "reset_stats: kernel executing");
  l2_.reset();
  records_.clear();
  regions_.clear();
  for (auto& s : sites_) s.events = KernelEvents{};
  main_ = CounterShard{};
}

}  // namespace ms::sim
