// Fixed-size host worker pool for the parallel block scheduler.
//
// One pool is owned lazily by each Device and reused across kernel
// launches (spawning threads per launch would dominate small kernels).
// The only job shape it runs is the one the scheduler needs: execute
// `body(item)` for every item of [begin, end), handing items to workers
// in *ascending order* (a shared cursor).  start() returns as soon as the
// job is handed out, so the launching thread can merge completed items
// while later ones run; wait() joins the job.  Ascending dispatch is
// load-bearing for deterministic execution: Device::run_items relies on
// the invariant that the lowest-numbered incomplete item is always
// already running on some worker, so a worker blocked in the
// global-atomic fence (waiting for every earlier item to finish) can
// never deadlock the pool.
//
// Worker threads never touch Device state directly; all counter routing
// happens through the thread-local CounterShard set up by the caller's
// `body` (see shard.hpp).  Exceptions must be contained by `body` itself
// (run_items captures them per item); a throw escaping `body` terminates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/types.hpp"

namespace ms::sim {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).  Workers idle on a condition
  /// variable between jobs.
  explicit ThreadPool(u32 threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  u32 size() const { return static_cast<u32>(workers_.size()); }

  // --- telemetry (sim/telemetry.hpp; read-only over scheduling state) ---

  /// Cumulative per-worker execution stats.  Busy time is only accumulated
  /// while timing is enabled (two steady_clock reads per item otherwise
  /// avoided -- the pool must stay invisible to untelemetered runs).
  struct WorkerStats {
    f64 busy_ms = 0.0;    ///< wall-clock spent inside item bodies
    u64 items = 0;        ///< items this worker executed
  };
  void set_timing_enabled(bool on) {
    timing_enabled_.store(on, std::memory_order_relaxed);
  }
  bool timing_enabled() const {
    return timing_enabled_.load(std::memory_order_relaxed);
  }
  std::vector<WorkerStats> worker_stats() const;

  /// Items of the current job not yet completed (unclaimed + in flight);
  /// 0 between jobs.  The telemetry sampler's queue-depth gauge.
  u64 queue_depth() const;

  /// Hand body(item) for every item of [begin, end) to the workers and
  /// return at once; items are claimed in ascending order.  The caller may
  /// work while the job runs (run_items merges completed items), but must
  /// call wait() before `body` goes out of scope or the next start().  One
  /// job at a time (the caller is the Device's launch path, which is
  /// single-threaded by construction).
  void start(u64 begin, u64 end, const std::function<void(u64)>& body);
  /// Block until every item of the started job has completed; returns at
  /// once when no job is running.
  void wait();

  /// Number of hardware threads, with a floor of 1 (hardware_concurrency
  /// may report 0 on exotic platforms).
  static u32 hardware_threads();

 private:
  void worker_loop(u32 worker_index);

  /// Per-worker accumulators, cache-line separated so telemetry updates
  /// never bounce lines between workers.
  struct alignas(64) WorkerCell {
    std::atomic<u64> busy_ns{0};
    std::atomic<u64> items{0};
  };

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;   // wait() waits here for completion
  const std::function<void(u64)>* body_ = nullptr;
  u64 next_ = 0;
  u64 end_ = 0;
  u64 in_flight_ = 0;  // items claimed but not yet finished
  u64 job_seq_ = 0;    // bumped per start() so idle workers wake exactly once
  bool shutdown_ = false;
  std::atomic<bool> timing_enabled_{false};
  std::unique_ptr<WorkerCell[]> cells_;  // one per worker, fixed at spawn
  std::vector<std::thread> workers_;
};

}  // namespace ms::sim
