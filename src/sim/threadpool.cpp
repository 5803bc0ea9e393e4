#include "sim/threadpool.hpp"

#include <algorithm>
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
                       const std::function<void(u64)>& body, bool timed) {
  if (begin >= end) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    timed_ = timed;
    begin_ = begin;
    next_ = begin;
    end_ = end;
    prefix_ = begin;
    done_.assign(end - begin, 0);
  }
  work_cv_.notify_all();
}

u64 ThreadPool::wait_prefix(u64 want) {
  std::unique_lock<std::mutex> lock(mu_);
  const u64 target = std::min(want, end_);
  while (prefix_ < target) {
    wake_at_ = target;
    launcher_cv_.wait(lock);
  }
  wake_at_ = ~u64{0};
  return prefix_;
}

void ThreadPool::wait_below(u64 item) {
  std::unique_lock<std::mutex> lock(mu_);
  if (prefix_ >= item) return;
  fence_waiters_ += 1;
  fence_cv_.wait(lock, [&] { return prefix_ >= item; });
  fence_waiters_ -= 1;
}

bool ThreadPool::complete(u64 item) {
  done_[item - begin_] = 1;
  // Only the lowest incomplete item can move the prefix.
  if (item != prefix_) return false;
  do {
    prefix_ += 1;
  } while (prefix_ < end_ && done_[prefix_ - begin_] != 0);
  if (fence_waiters_ > 0) fence_cv_.notify_all();
  if (prefix_ < wake_at_) return false;
  wake_at_ = ~u64{0};
  return true;
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
  return end_ - prefix_;
}

void ThreadPool::worker_loop(u32 worker_index) {
  WorkerCell& cell = cells_[worker_index];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || next_ < end_; });
    if (shutdown_) return;
    // Claim items in ascending order until the job is drained; marking an
    // item done and claiming the next share one lock hold.
    bool wake_launcher = false;
    while (next_ < end_) {
      const u64 item = next_++;
      const std::function<void(u64)>& body = *body_;
      const bool timed = timed_;
      lock.unlock();
      if (wake_launcher) launcher_cv_.notify_one();
      const auto t0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      body(item);
      lock.lock();
      wake_launcher = complete(item);
      // Busy time spans the body and its completion bookkeeping.
      if (timed) {
        const auto t1 = std::chrono::steady_clock::now();
        cell.busy_ns.fetch_add(
            static_cast<u64>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()),
            std::memory_order_relaxed);
        cell.items.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (wake_launcher) {
      lock.unlock();
      launcher_cv_.notify_one();
      lock.lock();
    }
  }
}

}  // namespace ms::sim
