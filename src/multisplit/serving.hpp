// Async batched serving executor -- the request path for "millions of
// tiny multisplits" workloads.
//
// The plan/executor layer (plan.hpp) is built for few large problems:
// every run() pays a full launch sequence, so at serving shapes
// (n <= 4096, m <= 32) the 5 us kernel-launch overhead dominates the
// modeled time.  The ServingExecutor refactors that path into a serving
// pipeline:
//
//   submit() -> ticket        requests queue; nothing runs yet
//   [policy flush point]      queue full, linger expired, or explicit
//   flush: pack + fuse        packable problems are packed one-per-warp
//                             (or 4-per-warp sub-warp slots) into at most
//                             two fused launches (batch_ms.hpp); the rest
//                             fall back to an ordinary plan.run()
//   get(ticket) -> result     completion is observable without blocking
//                             via ready(); get() forces a flush
//
// "Async" here means deferred to deterministic flush points, not host
// threads: all serving logic runs on the main thread, the parallelism is
// inside the fused launches (launch_warps' deterministic item pool), and
// every flush trigger is a pure function of the queue and the device's
// VIRTUAL clock.  Results are therefore bit-identical for a given policy
// regardless of MS_HOST_THREADS.
//
// Determinism of the reported per-problem cost: packed problems report
// the closed-form packed_problem_cost(profile, n, m, class), a function
// of the problem's own shape only -- never of batch size, batch
// composition, buffer addresses or thread count.  Unpacked problems run
// the ordinary plan path outside the batch span and report exactly what
// a sequential caller would see.
//
// Partial-batch retry: a faulted fused launch (or a problem whose output
// fails host validation, e.g. under chaos bit flips) re-packs ONLY the
// affected problems into a fresh fused launch, up to
// ServingPolicy::kMaxRetryRounds; the rest of the batch completes normally.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "multisplit/batch_ms.hpp"
#include "multisplit/common.hpp"

namespace ms::split {

/// Flush policy of a ServingExecutor.  All triggers are deterministic:
/// queue depth and the device's virtual clock only.  Every packed
/// problem's output is host-validated against the stable partition (the
/// fused kernels' contract), which catches silent corruption (chaos bit
/// flips) per problem and enables partial-batch retry.
struct ServingPolicy {
  /// Re-pack rounds for faulted / validation-failed problems before
  /// reporting them failed.
  static constexpr u32 kMaxRetryRounds = 2;

  /// Flush as soon as this many requests are queued.
  u32 max_batch = 256;
  /// Flush at submit time when the oldest queued request has lingered
  /// this long in VIRTUAL milliseconds (device lifetime_ms delta).  The
  /// virtual clock only advances when launches run, so a pure submit
  /// stream flushes on max_batch; interleaved foreground work expires
  /// lingering batches.
  f64 max_linger_ms = 0.25;
};

/// Completed request.  `failed` requests carry `error` and empty outputs.
struct ServeResult {
  std::vector<u32> keys_out;        ///< the stable partition of the input
  std::vector<u32> bucket_offsets;  ///< size m+1, bucket_offsets[m] == n
  /// The concrete method this request resolved to (kAuto resolved at
  /// flush with resolve_auto -- identical to what a sequential plan.run
  /// would have selected and recorded).
  Method method_selected = Method::kAuto;
  /// Packed problems: closed-form packed_problem_cost (launch overhead
  /// excluded -- it is shared).  Unpacked problems: the plan result's
  /// total_ms(), exactly as sequential.
  f64 modeled_cost_ms = 0.0;
  PackClass pack_class = PackClass::kNone;
  bool packed = false;   ///< served by a fused launch?
  bool failed = false;
  std::string error;     ///< first failure cause when failed
  u64 batch_id = 0;      ///< flush that served this request (1-based)
  u32 batch_size = 0;    ///< problems served by that flush
  u32 retry_rounds = 0;  ///< fused re-pack rounds this problem needed
};

/// Ticket returned by submit(); redeem with ready()/get().
using ServeTicket = u64;

class ServingExecutor {
 public:
  explicit ServingExecutor(sim::Device& dev, ServingPolicy policy = {});

  /// Queue one multisplit request (key-only, type-erased bucket function,
  /// matching the serving shape).  The executor owns the key vector; the
  /// split runs at the next flush point.  May flush before returning
  /// (max_batch reached or linger expired) -- completion is still only
  /// observable through ready()/get().
  ServeTicket submit(std::vector<u32> keys, u32 m, BucketFunction bucket_of,
                     Method method = Method::kAuto);

  /// True once the ticket's request has executed (no blocking, no work).
  bool ready(ServeTicket t) const;

  /// Result of a submitted request; forces a flush if still queued.
  const ServeResult& get(ServeTicket t);

  /// Execute everything queued now.  Returns the number of requests
  /// served (0 when the queue was empty).
  u64 flush();

  /// Flush until the queue is empty (one flush serves everything; this
  /// is the explicit end-of-stream drain point).
  u64 drain() { return flush(); }

  /// Requests queued but not yet executed.
  u64 pending() const { return queue_.size(); }

  const ServingPolicy& policy() const { return policy_; }
  sim::Device& device() const { return *dev_; }

 private:
  struct PendingRequest {
    ServeTicket ticket = 0;
    std::vector<u32> keys;
    u32 m = 0;
    BucketFunction bucket;
    Method method = Method::kAuto;
    f64 enqueue_ms = 0.0;  ///< virtual clock at submit (linger base)
  };

  /// A pending request resolved for one flush: concrete method + class.
  struct FlushItem {
    PendingRequest* req = nullptr;
    Method selected = Method::kAuto;
    PackClass cls = PackClass::kNone;
  };

  void maybe_flush();
  /// Run one fused launch over `items` (all of one class), validating and
  /// retrying up to ServingPolicy::kMaxRetryRounds; fills each item's
  /// ServeResult.
  void run_packed(PackClass cls, std::vector<FlushItem>& items, u64 batch_id,
                  u32 batch_size);
  /// Ordinary plan path for one non-packable request (outside any batch
  /// span: spans and modeled costs identical to a sequential caller).
  void run_unpacked(const FlushItem& item, u64 batch_id, u32 batch_size);
  ServeResult& result_slot(ServeTicket t);

  sim::Device* dev_;
  ServingPolicy policy_;
  std::vector<PendingRequest> queue_;
  /// results_[ticket - 1]; nullopt until executed.
  std::vector<std::optional<ServeResult>> results_;
  u64 next_batch_ = 1;
};

}  // namespace ms::split
