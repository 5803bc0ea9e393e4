// Fixed-size host worker pool for the parallel block scheduler.
//
// One pool is owned lazily by each Device and reused across kernel
// launches (spawning threads per launch would dominate small kernels).
// The only job shape it runs is the one the scheduler needs: execute
// `body(item)` for every item of [begin, end), handing items to workers
// in *ascending order* from a claim cursor.  The pool owns the job's whole
// scheduling state under its one mutex, including the completed prefix
// that the launcher merges up to (wait_prefix) and the global-atomic
// fence waits on (wait_below).  Ascending dispatch is load-bearing: the
// lowest incomplete item is always already running on some worker, so a
// worker blocked in wait_below can never deadlock the pool.
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

  /// Cumulative per-worker execution stats, accumulated only for jobs
  /// started with `timed` (the pool must stay invisible to untelemetered
  /// runs).
  struct WorkerStats {
    f64 busy_ms = 0.0;    ///< wall-clock in item bodies and their completion
    u64 items = 0;        ///< items this worker executed
  };
  std::vector<WorkerStats> worker_stats() const;

  /// Items of the current job outside its completed prefix; 0 between
  /// jobs.  The telemetry sampler's queue-depth gauge.
  u64 queue_depth() const;

  /// Hand body(item) for every item of [begin, end) to the workers and
  /// return at once; the completed prefix restarts at `begin`.  `timed`
  /// arms the busy-time accounting.  One job at a time: the caller (the
  /// Device's single-threaded launch path) must call wait() before `body`
  /// goes out of scope or the next start().
  void start(u64 begin, u64 end, const std::function<void(u64)>& body,
             bool timed);
  /// Launcher side: block until items [begin, min(want, end)) have
  /// completed; returns the completed prefix.
  u64 wait_prefix(u64 want);
  /// Block until the whole job has completed (at once when none runs).
  void wait() { wait_prefix(~u64{0}); }
  /// Item side (the atomic fence): block until every item of the job
  /// below `item` has completed.
  void wait_below(u64 item);

  /// Number of hardware threads, with a floor of 1 (hardware_concurrency
  /// may report 0 on exotic platforms).
  static u32 hardware_threads();

 private:
  void worker_loop(u32 worker_index);
  /// Mark `item` done and advance the prefix (mu_ held); true when the
  /// launcher's wake target is reached.
  bool complete(u64 item);

  /// Per-worker accumulators, cache-line separated so telemetry updates
  /// never bounce lines between workers.
  struct alignas(64) WorkerCell {
    std::atomic<u64> busy_ns{0};
    std::atomic<u64> items{0};
  };

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // workers wait here for a job
  std::condition_variable launcher_cv_;  // wait_prefix
  std::condition_variable fence_cv_;     // wait_below
  const std::function<void(u64)>* body_ = nullptr;
  bool timed_ = false;
  u64 begin_ = 0;
  u64 next_ = 0;    // claim cursor
  u64 end_ = 0;
  u64 prefix_ = 0;  // items [begin_, prefix_) have completed
  std::vector<u8> done_;  // done_[item - begin_]
  u64 wake_at_ = ~u64{0};  // prefix the sleeping launcher waits for
  u32 fence_waiters_ = 0;
  bool shutdown_ = false;
  std::unique_ptr<WorkerCell[]> cells_;  // one per worker, fixed at spawn
  std::vector<std::thread> workers_;
};

}  // namespace ms::sim
