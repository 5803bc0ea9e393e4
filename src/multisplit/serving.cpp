#include "multisplit/serving.hpp"

#include <algorithm>
#include <utility>

#include "multisplit/plan.hpp"
#include "sim/span.hpp"
#include "sim/telemetry.hpp"

namespace ms::split {

ServingExecutor::ServingExecutor(sim::Device& dev, ServingPolicy policy)
    : dev_(&dev), policy_(std::move(policy)) {
  check(policy_.max_batch >= 1, "serving: max_batch must be >= 1");
  check(policy_.max_linger_ms >= 0.0, "serving: max_linger_ms negative");
}

ServeTicket ServingExecutor::submit(std::vector<u32> keys, u32 m,
                                    BucketFunction bucket_of, Method method) {
  check(static_cast<bool>(bucket_of), "serving: null bucket function");
  PendingRequest req;
  req.ticket = static_cast<ServeTicket>(results_.size()) + 1;
  req.keys = std::move(keys);
  req.m = m;
  req.bucket = std::move(bucket_of);
  req.method = method;
  req.enqueue_ms = dev_->lifetime_ms();
  results_.emplace_back(std::nullopt);
  queue_.push_back(std::move(req));
  if (sim::Telemetry* t = dev_->telemetry()) {
    t->counter("serving.requests").add(1);
  }
  maybe_flush();
  if (sim::Telemetry* t = dev_->telemetry()) {
    t->gauge("serving.queue_depth").set(static_cast<f64>(queue_.size()));
  }
  return results_.size();  // == req.ticket (queue_ may have moved req)
}

void ServingExecutor::maybe_flush() {
  if (queue_.empty()) return;
  const bool full = queue_.size() >= policy_.max_batch;
  // Linger is measured on the VIRTUAL clock, which submit never advances:
  // this trigger fires when foreground launches aged the queue, and is
  // therefore identical at any host thread count.
  const bool lingered =
      dev_->lifetime_ms() - queue_.front().enqueue_ms >= policy_.max_linger_ms;
  if (full || lingered) flush();
}

bool ServingExecutor::ready(ServeTicket t) const {
  check(t >= 1 && t <= results_.size(), "serving: unknown ticket");
  return results_[t - 1].has_value();
}

const ServeResult& ServingExecutor::get(ServeTicket t) {
  check(t >= 1 && t <= results_.size(), "serving: unknown ticket");
  if (!results_[t - 1].has_value()) flush();
  check(results_[t - 1].has_value(), "serving: ticket did not execute");
  return *results_[t - 1];
}

ServeResult& ServingExecutor::result_slot(ServeTicket t) {
  results_[t - 1].emplace();
  return *results_[t - 1];
}

u64 ServingExecutor::flush() {
  if (queue_.empty()) return 0;
  std::vector<PendingRequest> batch;
  batch.swap(queue_);
  const u64 batch_id = next_batch_++;
  const u32 batch_size = static_cast<u32>(batch.size());
  // The cudaGetLastError idiom (cf. run_resilient): consume any stale
  // sticky error so fused-launch fault classification below only sees
  // faults raised by THIS flush.
  (void)dev_->take_last_error();

  // Resolve every request to its concrete method and packing class.
  // Resolution uses resolve_auto exactly as plan construction does, so a
  // packed problem reports the same method_selected a sequential
  // plan.run() would have -- and the class depends only on the problem's
  // own (n, m, method), never on the rest of the batch.
  std::vector<FlushItem> items(batch.size());
  std::vector<FlushItem> sub, warp;
  u64 unpacked = 0;
  for (u64 i = 0; i < batch.size(); ++i) {
    FlushItem& it = items[i];
    it.req = &batch[i];
    it.selected = batch[i].method == Method::kAuto
                      ? resolve_auto(dev_->profile(), batch[i].keys.size(),
                                     batch[i].m)
                      : batch[i].method;
    it.cls = classify_packing(batch[i].keys.size(), batch[i].m, it.selected);
    if (it.cls == PackClass::kSub) {
      sub.push_back(it);
    } else if (it.cls == PackClass::kWarp) {
      warp.push_back(it);
    } else {
      unpacked += 1;
    }
  }

  sim::BatchStats& bs = dev_->batch_stats();
  bs.batches += 1;
  bs.packed_problems += sub.size() + warp.size();
  bs.unpacked_problems += unpacked;
  sim::Telemetry* telem = dev_->telemetry();
  if (telem != nullptr) {
    telem->histogram("serving.batch_size")
        .record_ms(static_cast<f64>(batch_size));
  }

  const f64 flush_t0 = dev_->lifetime_ms();
  const u64 fused_before = bs.fused_launches;
  if (!sub.empty()) run_packed(PackClass::kSub, sub, batch_id, batch_size);
  if (!warp.empty()) run_packed(PackClass::kWarp, warp, batch_id, batch_size);
  // Unpacked problems run the ordinary plan path OUTSIDE any batch span:
  // their spans, telemetry and modeled costs are bit-identical to a
  // sequential caller's.
  for (const FlushItem& it : items) {
    if (it.cls == PackClass::kNone) run_unpacked(it, batch_id, batch_size);
  }

  if (telem != nullptr) {
    const f64 elapsed = dev_->lifetime_ms() - flush_t0;
    const f64 launch_ms =
        static_cast<f64>(bs.fused_launches - fused_before) *
        dev_->profile().kernel_launch_us * 1e-3;
    telem->gauge("serving.launch_overhead_share")
        .set(elapsed > 0.0 ? launch_ms / elapsed : 0.0);
    telem->gauge("serving.queue_depth").set(0.0);
  }
  return batch.size();
}

void ServingExecutor::run_packed(PackClass cls, std::vector<FlushItem>& items,
                                 u64 batch_id, u32 batch_size) {
  sim::Device& dev = *dev_;
  sim::BatchStats& bs = dev.batch_stats();
  sim::SpanRecorder* rec = dev.spans();
  const char* span_name =
      cls == PackClass::kSub ? "serve.batch.sub" : "serve.batch.warp";

  std::vector<FlushItem*> active;
  active.reserve(items.size());
  for (FlushItem& it : items) active.push_back(&it);

  for (u32 round = 0; !active.empty(); ++round) {
    // --- pack: assign every active problem its lane window ---------------
    const u64 count = active.size();
    std::vector<PackedProblem> pp(count);
    std::vector<const PackedProblem*> launch_list;
    u64 total_keys = 0;
    u64 total_counts = 0;
    if (cls == PackClass::kSub) {
      // Slot s of warp w serves problem w * 4 + s: base == 8 * index for
      // both keys and counts (the histogram lanes mirror the key lanes).
      const u64 warps = ceil_div(count, u64{kSubSlotsPerWarp});
      total_keys = warps * kWarpSize;
      total_counts = total_keys;
      launch_list.resize(count);
      for (u64 i = 0; i < count; ++i) {
        pp[i] = {active[i]->req->keys.size(), active[i]->req->m,
                 &active[i]->req->bucket, i * kSubSlotWidth,
                 i * kSubSlotWidth};
        launch_list[i] = &pp[i];
      }
      bs.slots_total += warps * kSubSlotsPerWarp;
    } else {
      // One problem per warp; each key region rounded to whole warp rows
      // so every warp's loads stay inside its own window.
      launch_list.resize(count);
      for (u64 i = 0; i < count; ++i) {
        const u64 n = active[i]->req->keys.size();
        pp[i] = {n, active[i]->req->m, &active[i]->req->bucket, total_keys,
                 total_counts};
        launch_list[i] = &pp[i];
        total_keys += ceil_div(n, u64{kWarpSize}) * kWarpSize;
        total_counts += active[i]->req->m;
      }
      bs.slots_total += count;
    }
    bs.slots_filled += count;
    bs.fused_launches += 1;

    sim::DeviceBuffer<u32> keys_in(dev, total_keys, "serve.batch.keys_in");
    sim::DeviceBuffer<u32> keys_out(dev, total_keys, "serve.batch.keys_out");
    sim::DeviceBuffer<u32> counts(dev, total_counts, "serve.batch.counts");
    {
      // Uncharged host staging (the host() idiom every workload generator
      // uses); padding lanes are never device-read thanks to the kernels'
      // tail masks.
      const std::span<u32> hi = keys_in.host();
      for (u64 i = 0; i < count; ++i) {
        std::copy(active[i]->req->keys.begin(), active[i]->req->keys.end(),
                  hi.begin() + static_cast<std::ptrdiff_t>(pp[i].base));
      }
    }

    // --- fused launch, bracketed as one batch request span ---------------
    const f64 t0 = dev.lifetime_ms();
    std::optional<sim::FaultContext> fault;
    {
      const sim::SpanScope batch_span(dev, sim::SpanKind::kRequest,
                                      span_name);
      fault = detail::capture_fault(dev, [&] {
        if (cls == PackClass::kSub) {
          batch_ms_sub(dev, keys_in, keys_out, counts, launch_list);
        } else {
          batch_ms_warp(dev, keys_in, keys_out, counts, launch_list);
        }
      });
    }
    const f64 t1 = dev.lifetime_ms();

    // Per-problem attribution: carve the fused launch's interval into
    // per-request spans, proportional to each problem's closed-form cost,
    // nested DIRECTLY under the launch span (trace.cpp draws the
    // launch -> request flow arrows from this shape).  Counter deltas
    // stay on the launch span; the request spans are pure attribution.
    if (rec != nullptr && dev.last_launch_span() != 0) {
      f64 total_cost = 0.0;
      std::vector<f64> cost(count);
      for (u64 i = 0; i < count; ++i) {
        cost[i] = packed_problem_cost(dev.profile(), pp[i].n, pp[i].m, cls);
        total_cost += cost[i];
      }
      f64 cum = 0.0;
      for (u64 i = 0; i < count; ++i) {
        const f64 f0 = total_cost > 0.0 ? cum / total_cost
                                        : static_cast<f64>(i) / count;
        cum += cost[i];
        const f64 f1 = total_cost > 0.0 ? cum / total_cost
                                        : static_cast<f64>(i + 1) / count;
        rec->insert_closed(sim::SpanKind::kRequest,
                           method_token(active[i]->selected),
                           dev.last_launch_span(), t0 + f0 * (t1 - t0),
                           t0 + f1 * (t1 - t0), sim::SpanCounters{});
      }
    }

    // --- unpack, validate, and decide per-problem fate --------------------
    std::vector<FlushItem*> retry;
    std::string launch_error;
    if (fault.has_value()) {
      // The whole fused launch faulted: every problem in THIS launch (and
      // only this launch -- the rest of the batch is untouched) retries.
      launch_error = fault->detail.empty()
                         ? std::string("fused launch fault in ") +
                               (fault->kernel.empty() ? span_name
                                                      : fault->kernel.c_str())
                         : fault->detail;
      retry = active;
    } else {
      const std::span<const u32> ko = std::as_const(keys_out).host();
      const std::span<const u32> co = std::as_const(counts).host();
      for (u64 i = 0; i < count; ++i) {
        FlushItem* it = active[i];
        const PendingRequest& req = *it->req;
        const u64 n = pp[i].n;
        const u32 m = pp[i].m;
        std::vector<u32> expect_keys, expect_off;
        if (!host_stable_partition(req.keys, m, req.bucket, expect_keys,
                                   expect_off)) {
          // Caller error: deterministic, no retry can cure it.
          ServeResult& r = result_slot(req.ticket);
          r.failed = true;
          r.error = "input key maps outside [0, m)";
          r.method_selected = it->selected;
          r.pack_class = cls;
          r.batch_id = batch_id;
          r.batch_size = batch_size;
          r.retry_rounds = round;
          continue;
        }
        std::vector<u32> got_off(m + 1, 0);
        for (u32 j = 0; j < m; ++j) {
          got_off[j + 1] = got_off[j] + co[pp[i].counts_base + j];
        }
        std::vector<u32> got_keys(
            ko.begin() + static_cast<std::ptrdiff_t>(pp[i].base),
            ko.begin() + static_cast<std::ptrdiff_t>(pp[i].base + n));
        if (got_off != expect_off || got_keys != expect_keys) {
          retry.push_back(it);
          continue;
        }
        ServeResult& r = result_slot(req.ticket);
        r.keys_out = std::move(got_keys);
        r.bucket_offsets = std::move(got_off);
        r.method_selected = it->selected;
        r.modeled_cost_ms = packed_problem_cost(dev.profile(), n, m, cls);
        r.pack_class = cls;
        r.packed = true;
        r.batch_id = batch_id;
        r.batch_size = batch_size;
        r.retry_rounds = round;
      }
    }

    if (retry.empty()) return;
    if (round >= ServingPolicy::kMaxRetryRounds) {
      for (FlushItem* it : retry) {
        ServeResult& r = result_slot(it->req->ticket);
        r.failed = true;
        r.error = !launch_error.empty()
                      ? launch_error
                      : "packed output failed validation after retries";
        r.method_selected = it->selected;
        r.pack_class = cls;
        r.batch_id = batch_id;
        r.batch_size = batch_size;
        r.retry_rounds = round;
      }
      return;
    }
    bs.problems_retried += retry.size();
    active = std::move(retry);
  }
}

void ServingExecutor::run_unpacked(const FlushItem& item, u64 batch_id,
                                   u32 batch_size) {
  sim::Device& dev = *dev_;
  const PendingRequest& req = *item.req;
  ServeResult& r = result_slot(req.ticket);
  r.pack_class = PackClass::kNone;
  r.batch_id = batch_id;
  r.batch_size = batch_size;
  try {
    sim::DeviceBuffer<u32> in(dev, std::span<const u32>(req.keys),
                              "serve.in");
    sim::DeviceBuffer<u32> out(dev, req.keys.size(), "serve.out");
    MultisplitConfig cfg;
    cfg.method = req.method;  // kAuto preserved: the plan resolves it
    const MultisplitPlan plan(dev, req.keys.size(), req.m, cfg);
    const MultisplitResult res = plan.run(in, out, req.bucket);
    const std::span<const u32> ho = std::as_const(out).host();
    r.keys_out.assign(ho.begin(), ho.end());
    r.bucket_offsets = res.bucket_offsets;
    r.method_selected = res.method_selected;
    r.modeled_cost_ms = res.total_ms();
  } catch (const std::exception& e) {
    (void)dev.take_last_error();
    r.failed = true;
    r.error = e.what();
    r.method_selected = item.selected;
  }
}

}  // namespace ms::split
