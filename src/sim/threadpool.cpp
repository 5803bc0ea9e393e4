#include "sim/threadpool.hpp"

#include <chrono>

namespace ms::sim {

ThreadPool::ThreadPool(u32 threads) {
  check(threads >= 1, "ThreadPool: need at least one worker");
  cells_ = std::make_unique<WorkerCell[]>(threads);
  workers_.reserve(threads);
  for (u32 t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

u32 ThreadPool::hardware_threads() {
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::start(u64 begin, u64 end,
                       const std::function<void(u64)>& body) {
  if (begin >= end) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    next_ = begin;
    end_ = end;
    in_flight_ = 0;
    job_seq_ += 1;
  }
  work_cv_.notify_all();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return next_ >= end_ && in_flight_ == 0; });
  body_ = nullptr;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(workers_.size());
  for (u32 i = 0; i < workers_.size(); ++i) {
    out[i].busy_ms =
        static_cast<f64>(cells_[i].busy_ns.load(std::memory_order_relaxed)) /
        1e6;
    out[i].items = cells_[i].items.load(std::memory_order_relaxed);
  }
  return out;
}

u64 ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (end_ > next_ ? end_ - next_ : 0) + in_flight_;
}

void ThreadPool::worker_loop(u32 worker_index) {
  WorkerCell& cell = cells_[worker_index];
  u64 seen_seq = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (job_seq_ != seen_seq && next_ < end_);
    });
    if (shutdown_) return;
    seen_seq = job_seq_;
    // Claim items in ascending order until the job is drained.
    while (next_ < end_) {
      const u64 item = next_++;
      in_flight_ += 1;
      const std::function<void(u64)>* body = body_;
      const bool timed = timing_enabled_.load(std::memory_order_relaxed);
      lock.unlock();
      if (timed) {
        const auto t0 = std::chrono::steady_clock::now();
        (*body)(item);
        const auto t1 = std::chrono::steady_clock::now();
        cell.busy_ns.fetch_add(
            static_cast<u64>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()),
            std::memory_order_relaxed);
        cell.items.fetch_add(1, std::memory_order_relaxed);
      } else {
        (*body)(item);
      }
      lock.lock();
      in_flight_ -= 1;
    }
    if (in_flight_ == 0) done_cv_.notify_all();
  }
}

}  // namespace ms::sim
