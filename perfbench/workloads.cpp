// The three benchmark workloads.  Each is a closed loop with one client:
// a fixed, seed-derived request stream, every request timed on its own,
// every output checked against the oracle outside the timed spans.
//
// A run first sets the workload up kSetupPasses times from scratch (key
// generation, device and pool start-up, plan build, warm-up requests) and
// reports the median.  The request stream is cyclic; the first cycle of
// the timed loop is the reference whose modeled values the run reports,
// and every later repetition of a request must reproduce its modeled cost
// bit for bit.  A traced run (--trace 1) alternates untraced segments with
// segments that attach spans and telemetry, so it can report the tracing
// overhead next to the per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench.hpp"
#include "multisplit/bucket.hpp"
#include "multisplit/plan.hpp"
#include "multisplit/serving.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {
namespace {

using ms::sim::Device;
using ms::sim::DeviceBuffer;
using ms::split::Method;
using ms::split::MultisplitPlan;
using ms::split::RangeBucket;
using ms::workload::Distribution;

constexpr u32 kSetupPasses = 3;

ms::sim::DeviceProfile profile() {
  return ms::sim::DeviceProfile::tesla_k40c();
}

bool stable(Method m) { return ms::split::method_traits(m).stable; }

/// A device for one request (bulk_oneshot), one serving loop (reuse_loop)
/// or one epoch (tiny_stream).
/// Traced devices record spans and telemetry; the opening snapshot starts
/// the pool-busy window.
std::unique_ptr<Device> make_device(bool traced) {
  auto dev = std::make_unique<Device>(profile());
  if (traced) {
    dev->enable_spans();
    // Snapshots only when PoolBusy asks, never from the per-kernel tick.
    ms::sim::TelemetryConfig cfg;
    cfg.sample_interval_ms = 1e300;
    dev->enable_telemetry(cfg);
    PoolBusy::open(*dev);
  }
  return dev;
}

/// Run `body(index, reference)` until `seconds` have passed, but at least
/// one full cycle; `reference` marks the first cycle of the first segment.
template <typename Body>
void timed_loop(f64 seconds, u64 cycle, bool first, Body&& body) {
  const Clock::time_point start = Clock::now();
  for (u64 i = 0; i < cycle || ms_between(start, Clock::now()) < seconds * 1e3;
       ++i) {
    body(i, first && i < cycle);
  }
}

void append(std::vector<f64>& to, const std::vector<f64>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// The timed loop of a run.  Untraced (--trace 0): one segment.  Traced:
/// untraced and traced segments alternate, two of each, so drift on a
/// shared machine hits both sides alike; the p50 of each side gives
/// trace.overhead_pct.  `phase(traced, seconds, first)` runs one segment
/// and returns its per-request host times.
template <typename Phase>
void run_segments(const Options& opt, Layers& l, Phase&& phase) {
  if (!opt.trace) {
    phase(false, opt.seconds, true);
    return;
  }
  std::vector<f64> untraced, traced;
  for (int round = 0; round < 2; ++round) {
    append(untraced, phase(false, opt.seconds / 4, round == 0));
    append(traced, phase(true, opt.seconds / 4, round == 0));
  }
  l.p50_untraced_ms = median(untraced);
  l.p50_traced_ms = median(traced);
}

/// Emit the run's metric set: end-to-end (--trace 0) or per-layer.
void finish(const Options& opt, Report& rep, const EndToEnd& e,
            const Layers& l) {
  put_modeled(rep, l, profile());
  if (opt.trace) {
    emit_layers(rep, l);
  } else {
    emit_end_to_end(opt, rep, e);
  }
}

void note_failure(Report& rep, const std::string& what) {
  rep.failed += 1;
  if (rep.failed <= 5) rep.notes.push_back("request failed: " + what);
}

// ---------------------------------------------------------------------------
// bulk_oneshot
// ---------------------------------------------------------------------------

constexpr u64 kBulkN = u64{1} << 20;
constexpr u32 kBulkInputs = 2;  // distinct inputs per cell

struct Cell {
  const char* label;
  Method method;
  u32 m;
  bool kv;
  f64 paper_gkeys;
};

// Paper reference rates: Table 5 of the paper (Tesla K40c, n = 2^25,
// uniform keys, G keys/s), as transcribed in bench/table5_rates.cpp.
constexpr Cell kCells[] = {
    {"direct_m16_key", Method::kDirect, 16, false, 5.51},
    {"warp_m2_key", Method::kWarpLevel, 2, false, 10.04},
    {"block_m32_key", Method::kBlockLevel, 32, false, 4.51},
    {"block_m8_kv", Method::kBlockLevel, 8, true, 4.95},
    {"rbsort_m32_kv", Method::kReducedBitSort, 32, true, 1.84},
};
constexpr u32 kCellCount = sizeof(kCells) / sizeof(kCells[0]);

std::vector<u32> cell_keys(u64 seed, u32 cell, u32 input) {
  return make_keys(kBulkN, kCells[cell].m, Distribution::kUniform,
                   mix_seed(seed, 1000 + cell * 16 + input));
}

struct OneShot {
  f64 host_ms = 0.0;
  f64 build_us = 0.0;
  bool replayed = false;
  ms::split::MultisplitResult r;
  ModeledCost cost;
  ms::sim::AllocatorStats alloc;
  std::string error;
};

/// One bulk_oneshot request: a fresh device and plan and one run, timed
/// from device construction to the end of the run (the buffer upload
/// included).  The oracle check, the cost read-back and span folding come
/// after the clock stops, and so does device teardown.
OneShot one_shot(const Cell& c, const std::vector<u32>& keys,
                 const std::vector<u32>& values, bool traced, SpanAgg* spans,
                 bool reference, PoolBusy* pool) {
  OneShot o;
  try {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Device> dev = make_device(traced);
    // Allocation order of bench_common.hpp's run_multisplit, so the modeled
    // costs match the table benches' address placement.
    DeviceBuffer<u32> in(*dev, std::span<const u32>(keys));
    DeviceBuffer<u32> out(*dev, kBulkN);
    ms::split::MultisplitConfig cfg;
    cfg.method = c.method;
    const Clock::time_point b0 = Clock::now();
    const MultisplitPlan plan(*dev, kBulkN, c.m, cfg, c.kv ? 4 : 0);
    o.build_us = ms_between(b0, Clock::now()) * 1e3;
    o.replayed = plan.replay_active();
    DeviceBuffer<u32> vin, kout, vout;
    if (c.kv) {
      vin = DeviceBuffer<u32>(*dev, std::span<const u32>(values));
      kout = DeviceBuffer<u32>(*dev, kBulkN);
      vout = DeviceBuffer<u32>(*dev, kBulkN);
      o.r = plan.run_pairs(in, vin, kout, vout, RangeBucket{c.m});
    } else {
      o.r = plan.run(in, out, RangeBucket{c.m});
    }
    o.host_ms = ms_between(t0, Clock::now());
    if (traced) pool->close(*dev);

    const DeviceBuffer<u32>& keys_out = c.kv ? kout : out;
    o.error = check_split(keys, std::as_const(keys_out).host(),
                          c.kv ? std::as_const(vout).host()
                               : std::span<const u32>{},
                          o.r.bucket_offsets, c.m, stable(o.r.method_selected));
    o.cost.add(dev->records(), dev->profile());
    o.alloc = dev->allocator().stats();
    if (traced) spans->add(*dev->spans(), reference);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

// ---------------------------------------------------------------------------
// reuse_loop
// ---------------------------------------------------------------------------

constexpr u64 kReuseN = u64{1} << 16;
constexpr u32 kReuseM = 32;
constexpr u32 kReuseInputs = 8;  // alternating kUniform / kSkewedOne
constexpr u32 kReuseWarmup = 2;  // tape record + verify

/// The serving-loop state: one device, one plan, one in/out buffer pair.
/// Members are destroyed buffers first, device last.
struct ReuseState {
  std::unique_ptr<Device> dev;
  std::unique_ptr<MultisplitPlan> plan;
  DeviceBuffer<u32> in;
  DeviceBuffer<u32> out;
};

struct Reused {
  f64 host_ms = 0.0;
  bool replayed = false;
  f64 total_ms = 0.0;
  ModeledCost cost;
  u64 allocs = 0;
  u64 reuse_hits = 0;
  std::string error;
};

/// One reuse_loop request: copy the keys in (untimed), time plan.run,
/// then check the output and read the request's kernels back.
Reused reuse_request(ReuseState& s, const std::vector<u32>& keys,
                     bool traced, SpanAgg* spans, bool reference,
                     PoolBusy* pool) {
  Reused o;
  Device& dev = *s.dev;
  const ms::sim::AllocatorStats a0 = dev.allocator().stats();
  try {
    std::copy(keys.begin(), keys.end(), s.in.host().begin());
    if (traced) PoolBusy::open(dev);
    o.replayed = s.plan->replay_active();
    const Clock::time_point t0 = Clock::now();
    const ms::split::MultisplitResult r =
        s.plan->run(s.in, s.out, RangeBucket{kReuseM});
    o.host_ms = ms_between(t0, Clock::now());
    if (traced) pool->close(dev);
    o.total_ms = r.total_ms();
    o.error = check_split(keys, std::as_const(s.out).host(), {},
                          r.bucket_offsets, kReuseM,
                          stable(r.method_selected));
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  const ms::sim::AllocatorStats a1 = dev.allocator().stats();
  o.allocs = a1.alloc_count - a0.alloc_count;
  o.reuse_hits = a1.reuse_hits - a0.reuse_hits;
  o.cost.add(dev.records(), dev.profile());
  // The loop keeps the kernel log and span buffer to one request, as a
  // long-lived serving process would.
  dev.clear_records();
  if (ms::sim::SpanRecorder* rec = dev.spans()) {
    if (traced) spans->add(*rec, reference);
    rec->clear();
  }
  return o;
}

/// Build the serving-loop state and run its warm-up requests (tape record
/// and verify).  Set-up passes record the plan build and warm-up times in
/// `l`; the traced run's second state passes nullptr.
std::unique_ptr<ReuseState> make_reuse_state(
    const std::vector<std::vector<u32>>& inputs, bool traced, Report& rep,
    Layers* l) {
  auto s = std::make_unique<ReuseState>();
  s->dev = make_device(traced);
  ms::split::MultisplitConfig cfg;
  cfg.method = Method::kAuto;
  const Clock::time_point b0 = Clock::now();
  s->plan = std::make_unique<MultisplitPlan>(*s->dev, kReuseN, kReuseM, cfg);
  if (l != nullptr) l->build_us.push_back(ms_between(b0, Clock::now()) * 1e3);
  s->in = DeviceBuffer<u32>(*s->dev, kReuseN);
  s->out = DeviceBuffer<u32>(*s->dev, kReuseN);
  const Clock::time_point w0 = Clock::now();
  for (u32 k = 0; k < kReuseWarmup; ++k) {
    const Reused o = reuse_request(*s, inputs[k], false, nullptr, false,
                                   nullptr);
    if (!o.error.empty()) rep.errors.push_back("set-up request: " + o.error);
  }
  if (l != nullptr) l->warmup_ms.push_back(ms_between(w0, Clock::now()));
  return s;
}

// ---------------------------------------------------------------------------
// tiny_stream
// ---------------------------------------------------------------------------

constexpr u32 kTinyNs[] = {5, 8, 32, 96, 256, 1024, 4096};
constexpr u32 kTinyMs[] = {2, 3, 4, 8, 16, 32};
constexpr u32 kUnpackableEvery = 32;  // the 32nd request: n = 2^14, m = 64
/// lcm(7 sizes, 6 bucket counts, 32, max_batch 256): every epoch submits
/// the same requests in the same flush batches.
constexpr u64 kTinyEpoch = 5376;

struct TinyRequest {
  u32 m = 0;
  std::vector<u32> keys;
};

std::vector<TinyRequest> tiny_requests(u64 seed) {
  std::vector<TinyRequest> reqs(kTinyEpoch);
  for (u64 i = 0; i < kTinyEpoch; ++i) {
    const bool unpackable = i % kUnpackableEvery == kUnpackableEvery - 1;
    const u64 n = unpackable ? u64{1} << 14 : kTinyNs[i % 7];
    reqs[i].m = unpackable ? 64 : kTinyMs[i % 6];
    reqs[i].keys = make_keys(n, reqs[i].m, Distribution::kUniform,
                             mix_seed(seed, 3000000 + i));
  }
  return reqs;
}

struct Epoch {
  std::vector<f64> latency_ms;  // submit start -> its flush done
  std::vector<f64> submit_us;   // submits that did not flush
  std::vector<f64> flush_ms;    // submits that flushed, and the drain
  f64 timed_ms = 0.0;           // all submit and drain calls
  u64 keys = 0;
  f64 modeled_ms = 0.0;         // device lifetime over the epoch
  ModeledCost cost;
  ms::sim::AllocatorStats alloc;
  ms::sim::BatchStats batch;
};

/// One epoch: a fresh device and ServingExecutor (default policy) receive
/// the request stream, then drain.  Outputs are checked against the oracle
/// after the last flush, per-request modeled costs against `slots`, and
/// the epoch's totals against `epoch_slot`.  Set-up epochs (`timed` false)
/// report failures as run errors.
Epoch tiny_epoch(const std::vector<TinyRequest>& reqs, Report& rep,
                 std::vector<SlotRef>& slots, SlotRef& epoch_slot, bool timed,
                 bool traced, SpanAgg* spans, bool reference, PoolBusy* pool) {
  Epoch ep;
  const std::unique_ptr<Device> dev = make_device(traced);
  ms::split::ServingExecutor ex(*dev);
  // Client-side copies, made before the clock runs: the executor takes
  // ownership of each request's keys.
  std::vector<std::vector<u32>> keys(kTinyEpoch);
  std::vector<ms::split::BucketFunction> fns(kTinyEpoch);
  for (u64 i = 0; i < kTinyEpoch; ++i) {
    keys[i] = reqs[i].keys;
    fns[i] = RangeBucket{reqs[i].m};
    ep.keys += reqs[i].keys.size();
  }
  std::vector<ms::split::ServeTicket> tickets(kTinyEpoch);
  std::vector<Clock::time_point> submitted(kTinyEpoch);
  ep.latency_ms.reserve(kTinyEpoch);
  u64 waiting = 0;  // first request not yet served
  for (u64 i = 0; i < kTinyEpoch; ++i) {
    const Clock::time_point t0 = Clock::now();
    tickets[i] = ex.submit(std::move(keys[i]), reqs[i].m, std::move(fns[i]));
    const Clock::time_point t1 = Clock::now();
    submitted[i] = t0;
    ep.timed_ms += ms_between(t0, t1);
    if (ex.pending() == 0) {  // this submit flushed everything queued
      for (; waiting <= i; ++waiting) {
        ep.latency_ms.push_back(ms_between(submitted[waiting], t1));
      }
      ep.flush_ms.push_back(ms_between(t0, t1));
    } else {
      ep.submit_us.push_back(ms_between(t0, t1) * 1e3);
    }
  }
  const Clock::time_point d0 = Clock::now();
  const u64 drained = ex.drain();
  const Clock::time_point d1 = Clock::now();
  ep.timed_ms += ms_between(d0, d1);
  if (drained > 0) ep.flush_ms.push_back(ms_between(d0, d1));
  for (; waiting < kTinyEpoch; ++waiting) {
    ep.latency_ms.push_back(ms_between(submitted[waiting], d1));
  }
  if (traced) pool->close(*dev);

  for (u64 i = 0; i < kTinyEpoch; ++i) {
    const ms::split::ServeResult& r = ex.get(tickets[i]);
    if (timed) rep.attempted += 1;
    std::string error = r.failed ? r.error
                                 : check_split(reqs[i].keys, r.keys_out, {},
                                               r.bucket_offsets, reqs[i].m,
                                               stable(r.method_selected));
    if (!error.empty()) {
      if (timed) {
        note_failure(rep, error);
      } else {
        rep.errors.push_back("set-up request: " + error);
      }
      continue;
    }
    check_slot(rep, slots[i], "tiny_stream", i, r.modeled_cost_ms, {});
  }
  ep.modeled_ms = dev->lifetime_ms();
  ep.cost.add(dev->records(), dev->profile());
  check_slot(rep, epoch_slot, "tiny_stream epoch", 0, ep.modeled_ms, ep.cost);
  ep.alloc = dev->allocator().stats();
  ep.batch = dev->batch_stats();
  if (traced) spans->add(*dev->spans(), reference);
  return ep;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------------

Report run_bulk_oneshot(const Options& opt) {
  Report rep;
  EndToEnd e;
  Layers l;
  std::vector<std::vector<u32>> inputs;  // [cell * kBulkInputs + input]
  std::vector<u32> values;
  for (u32 pass = 0; pass < kSetupPasses; ++pass) {
    const Clock::time_point s0 = pass == 0 ? opt.process_start : Clock::now();
    const Clock::time_point k0 = Clock::now();
    inputs.clear();
    for (u32 c = 0; c < kCellCount; ++c) {
      for (u32 k = 0; k < kBulkInputs; ++k) {
        inputs.push_back(cell_keys(opt.seed, c, k));
      }
    }
    values = ms::workload::identity_values(kBulkN);
    l.keygen_ms.push_back(ms_between(k0, Clock::now()));
    const Clock::time_point w0 = Clock::now();
    for (u32 c = 0; c < kCellCount; ++c) {
      const OneShot o = one_shot(kCells[c], inputs[c * kBulkInputs], values,
                                 false, nullptr, false, nullptr);
      if (!o.error.empty()) rep.errors.push_back("set-up request: " + o.error);
    }
    l.warmup_ms.push_back(ms_between(w0, Clock::now()));
    e.setup_s.push_back(ms_between(s0, Clock::now()) * 1e-3);
  }

  const u64 cycle = kCellCount * kBulkInputs;
  std::vector<SlotRef> slots(cycle);
  run_segments(opt, l, [&](bool traced, f64 seconds, bool first) {
    std::vector<f64> request_ms;
    f64 timed_ms = 0.0;
    timed_loop(seconds, cycle, first, [&](u64 i, bool reference) {
      const u32 slot = static_cast<u32>(i % cycle);
      const u32 c = slot % kCellCount;
      const OneShot o =
          one_shot(kCells[c], inputs[c * kBulkInputs + slot / kCellCount],
                   values, traced, &l.spans, reference, &l.pool);
      rep.attempted += 1;
      l.timed_requests += 1;
      l.replayed += o.replayed ? 1 : 0;
      if (!o.error.empty()) {
        note_failure(rep, o.error);
        return;
      }
      check_slot(rep, slots[slot], "bulk_oneshot", i, o.r.total_ms(), o.cost);
      request_ms.push_back(o.host_ms);
      l.build_us.push_back(o.build_us);
      if (traced) {
        l.traced_timed_ms += o.host_ms;
        l.traced_requests += 1;
        l.traced_cost += o.cost;
        l.traced_ref_requests += reference ? 1 : 0;
        return;
      }
      timed_ms += o.host_ms;
      if (reference) {
        e.ref_keys += kBulkN;
        e.ref_modeled_ms += o.r.total_ms();
        l.ref_cost += o.cost;
        l.ref_requests += 1;
        l.ref_alloc_count += o.alloc.alloc_count;
        l.ref_reuse_hits += o.alloc.reuse_hits;
        l.bytes_reserved = std::max(l.bytes_reserved, o.alloc.bytes_reserved);
      }
    });
    if (!opt.trace) {
      e.add_window(request_ms, request_ms.size() * kBulkN, timed_ms);
    }
    return request_ms;
  });
  finish(opt, rep, e, l);
  return rep;
}

Report run_reuse_loop(const Options& opt) {
  Report rep;
  EndToEnd e;
  Layers l;
  std::vector<std::vector<u32>> inputs;
  std::unique_ptr<ReuseState> state;
  for (u32 pass = 0; pass < kSetupPasses; ++pass) {
    const Clock::time_point s0 = pass == 0 ? opt.process_start : Clock::now();
    state.reset();
    const Clock::time_point k0 = Clock::now();
    inputs.clear();
    for (u32 k = 0; k < kReuseInputs; ++k) {
      inputs.push_back(make_keys(
          kReuseN, kReuseM,
          k % 2 == 0 ? Distribution::kUniform : Distribution::kSkewedOne,
          mix_seed(opt.seed, 2000 + k)));
    }
    l.keygen_ms.push_back(ms_between(k0, Clock::now()));
    state = make_reuse_state(inputs, false, rep, &l);
    e.setup_s.push_back(ms_between(s0, Clock::now()) * 1e-3);
  }
  rep.notes.push_back(std::string("reuse_loop plan: ") +
                      ms::split::to_string(state->plan->method()) +
                      ", replay phase after warm-up: " +
                      state->plan->replay_phase());

  // Traced segments run on a second state whose device records spans and
  // telemetry; its warm-up happens outside the timed loop.
  std::unique_ptr<ReuseState> traced_state;
  std::vector<SlotRef> slots(kReuseInputs);
  u64 next = kReuseWarmup;  // request index across all segments
  run_segments(opt, l, [&](bool traced, f64 seconds, bool first) {
    if (traced && traced_state == nullptr) {
      traced_state = make_reuse_state(inputs, true, rep, nullptr);
    }
    ReuseState& s = traced ? *traced_state : *state;
    std::vector<f64> request_ms;
    f64 timed_ms = 0.0;
    timed_loop(seconds, kReuseInputs, first, [&](u64, bool reference) {
      const u32 slot = static_cast<u32>(next % kReuseInputs);
      const Reused o = reuse_request(s, inputs[slot], traced, &l.spans,
                                     reference, &l.pool);
      rep.attempted += 1;
      l.timed_requests += 1;
      l.replayed += o.replayed ? 1 : 0;
      if (!o.error.empty()) {
        note_failure(rep, o.error);
      } else {
        check_slot(rep, slots[slot], "reuse_loop", next, o.total_ms, o.cost);
      }
      next += 1;
      request_ms.push_back(o.host_ms);
      if (traced) {
        l.traced_timed_ms += o.host_ms;
        l.traced_requests += 1;
        l.traced_cost += o.cost;
        l.traced_ref_requests += reference ? 1 : 0;
        return;
      }
      timed_ms += o.host_ms;
      if (reference) {
        e.ref_keys += kReuseN;
        e.ref_modeled_ms += o.total_ms;
        l.ref_cost += o.cost;
        l.ref_requests += 1;
        l.ref_alloc_count += o.allocs;
        l.ref_reuse_hits += o.reuse_hits;
      }
    });
    if (!opt.trace) {
      e.add_window(request_ms, request_ms.size() * kReuseN, timed_ms);
    }
    return request_ms;
  });
  l.bytes_reserved = state->dev->allocator().stats().bytes_reserved;
  finish(opt, rep, e, l);
  return rep;
}

Report run_tiny_stream(const Options& opt) {
  Report rep;
  EndToEnd e;
  Layers l;
  std::vector<TinyRequest> reqs;
  std::vector<SlotRef> slots(kTinyEpoch);
  SlotRef epoch_slot;
  for (u32 pass = 0; pass < kSetupPasses; ++pass) {
    const Clock::time_point s0 = pass == 0 ? opt.process_start : Clock::now();
    const Clock::time_point k0 = Clock::now();
    reqs = tiny_requests(opt.seed);
    l.keygen_ms.push_back(ms_between(k0, Clock::now()));
    const Clock::time_point w0 = Clock::now();
    tiny_epoch(reqs, rep, slots, epoch_slot, /*timed=*/false, false, nullptr,
               false, nullptr);
    l.warmup_ms.push_back(ms_between(w0, Clock::now()));
    e.setup_s.push_back(ms_between(s0, Clock::now()) * 1e-3);
  }

  run_segments(opt, l, [&](bool traced, f64 seconds, bool first) {
    std::vector<f64> request_ms;
    timed_loop(seconds, 1, first, [&](u64, bool reference) {
      const Epoch ep = tiny_epoch(reqs, rep, slots, epoch_slot,
                                  /*timed=*/true, traced, &l.spans, reference,
                                  &l.pool);
      l.timed_requests += kTinyEpoch;
      append(request_ms, ep.latency_ms);
      if (traced) {
        append(l.submit_us, ep.submit_us);
        append(l.flush_ms, ep.flush_ms);
        l.traced_timed_ms += ep.timed_ms;
        l.traced_requests += kTinyEpoch;
        l.traced_cost += ep.cost;
        l.traced_ref_requests += reference ? kTinyEpoch : 0;
        return;
      }
      if (reference) {
        e.ref_keys = ep.keys;
        e.ref_modeled_ms = ep.modeled_ms;
        l.ref_cost = ep.cost;
        l.ref_requests = kTinyEpoch;
        l.ref_alloc_count = ep.alloc.alloc_count;
        l.ref_reuse_hits = ep.alloc.reuse_hits;
        l.bytes_reserved = ep.alloc.bytes_reserved;
        l.batch = ep.batch;
      }
      if (!opt.trace) e.add_window(ep.latency_ms, ep.keys, ep.timed_ms);
    });
    return request_ms;
  });
  finish(opt, rep, e, l);
  return rep;
}

f64 paper_score(const Options& opt, Report& rep) {
  const std::vector<u32> values = ms::workload::identity_values(kBulkN);
  const ms::sim::DeviceProfile prof = profile();
  f64 sum = 0.0;
  for (u32 c = 0; c < kCellCount; ++c) {
    const Cell& cell = kCells[c];
    const OneShot o = one_shot(cell, cell_keys(opt.seed, c, 0), values, false,
                               nullptr, false, nullptr);
    if (!o.error.empty()) {
      rep.errors.push_back(std::string("paper cell ") + cell.label + ": " +
                           o.error);
      continue;
    }
    // bench_common.hpp's launch-aware rescale to the paper's n = 2^25:
    // launch overhead stays fixed, the per-key work scales linearly.
    const f64 scale = std::ldexp(1.0, 25 - 20);
    const f64 raw = o.r.stages.total();
    const f64 launch = static_cast<f64>(o.r.summary.kernels) *
                       prof.kernel_launch_us * 1e-3;
    const f64 scaled = std::max(raw, (raw - launch) * scale + launch);
    const f64 rate = std::ldexp(1.0, 25) / (scaled * 1e-3) / 1e9;
    sum += std::abs(std::log(rate / cell.paper_gkeys));
    rep.modeled[std::string("paper.") + cell.label + ".gkeys_per_s"] = rate;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "paper cell %-14s modeled %6.3f Gkeys/s, paper %6.2f "
                  "(ratio %.3f)",
                  cell.label, rate, cell.paper_gkeys, rate / cell.paper_gkeys);
    rep.notes.push_back(buf);
  }
  const f64 err = sum / kCellCount;
  rep.modeled["paper_abs_log_err"] = err;
  return err;
}

}  // namespace perfbench
