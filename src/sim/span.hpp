// Request-scoped span tracing -- the simulator's distributed-tracing
// analogue (request -> attempt -> stage -> kernel-launch nesting).
//
// Every resilient or plain plan execution opens a *request* span stamped
// with a deterministic counter-based trace id; under it the resilient
// executor opens one *attempt* span per try (retry or fallback-ladder
// hop), the method implementations open *stage* spans (one per
// sim::Stage, the same scope that records the trace's stage bands), and
// the device opens one *launch* span per kernel.  Spans
// carry modeled begin/end timestamps off the device's lifetime clock,
// the kernel-launch overhead charged, virtual retry backoff, and the
// deltas of a few key lifetime counters (launches, L2 read segments,
// DRAM read transactions, allocator traffic).  Fault / retry / fallback
// events attach to the owning span together with the structured
// FaultContext.
//
// Determinism: every span open/close point sits on the main thread
// (begin_kernel/end_kernel, Request, run_attempt, Stage), and so does
// every event: a kernel-body fault under the parallel block scheduler is
// rethrown on the main thread (the lowest faulting item's, exactly the
// fault serial execution hits first) and recorded there by
// Device::note_fault.  The JSONL dump therefore contains modeled
// values only and is byte-identical between serial and multi-threaded
// runs (test_span.cpp).  Host wall-clock per span is kept in memory for
// interactive inspection but never written to the deterministic dump.
//
// Tracing is strictly opt-in (Device::enable_spans); with it off, no
// span state exists and modeled costs are bit-identical -- and with it
// on, spans only *read* modeled state, so costs are bit-identical too
// (the tolerance-0 baseline gates run both ways).
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sanitizer.hpp"
#include "sim/types.hpp"

namespace ms::sim {

class Device;

enum class SpanKind : u8 {
  kRequest = 0,  ///< one MultisplitPlan::run / run_pairs / resilient run
  kAttempt,      ///< one try of the resilient executor (retry / fallback)
  kStage,        ///< one algorithm stage (sim::Stage, counters.hpp)
  kLaunch,       ///< one kernel launch
};

const char* to_string(SpanKind k);

/// One structured event attached to a span ("fault", "retry",
/// "fallback", "validation_failure"), stamped with the modeled time at
/// which it happened.
struct SpanEvent {
  f64 t_ms = 0.0;      ///< device lifetime clock at the event
  std::string what;    ///< event kind token
  std::string detail;  ///< free-form: method hopped to, backoff charged...
  std::optional<FaultContext> fault;  ///< structured fault, when one caused it
};

/// Snapshot of the device counters a span tracks; a closed span stores
/// the close-minus-open delta.
struct SpanCounters {
  u64 launches = 0;
  u64 l2_read_segments = 0;
  u64 dram_read_tx = 0;
  u64 alloc_count = 0;
  u64 alloc_reuse_hits = 0;

  SpanCounters operator-(const SpanCounters& o) const {
    return SpanCounters{launches - o.launches,
                        l2_read_segments - o.l2_read_segments,
                        dram_read_tx - o.dram_read_tx,
                        alloc_count - o.alloc_count,
                        alloc_reuse_hits - o.alloc_reuse_hits};
  }
};

/// One recorded span.  `span_id` is 1-based and monotonic in open order
/// (the deterministic ID: opens happen in the same order serial and
/// parallel); `parent_id` 0 means root; `trace_id` groups every span of
/// one request (assigned from the recorder's request counter).
struct SpanRecord {
  u64 span_id = 0;
  u64 parent_id = 0;
  u64 trace_id = 0;
  SpanKind kind = SpanKind::kRequest;
  std::string name;
  f64 begin_ms = 0.0;     ///< device lifetime clock at open
  f64 end_ms = 0.0;       ///< device lifetime clock at close
  f64 host_ms = 0.0;      ///< host wall-clock; in-memory only, never dumped
  f64 backoff_ms = 0.0;   ///< virtual retry backoff charged to this span
  f64 overhead_ms = 0.0;  ///< launch spans: fixed kernel-launch overhead
  SpanCounters counters;  ///< close-minus-open deltas once closed
  std::vector<SpanEvent> events;
  bool closed = false;
};

/// The span sink.  Main-thread only (see the header comment); the
/// recorder keeps an explicit open-span stack so nesting needs no
/// thread-local state and integrity (every span closed exactly once,
/// children before parents) is checkable after the fact.
class SpanRecorder {
 public:
  /// Open a span.  kRequest spans draw a fresh trace id from the request
  /// counter; every other kind inherits the innermost open span's trace.
  /// Returns the new span's id.
  u64 begin(SpanKind kind, std::string name, f64 now_ms,
            const SpanCounters& snap);
  /// Close span `id`, which must be the innermost open span (spans
  /// strictly nest).  Stores end time, counter deltas and host wall.
  void end(u64 id, f64 now_ms, const SpanCounters& snap);

  /// Append an already-closed span under an explicit parent, bypassing
  /// the open-span stack.  The batched serving executor uses this to
  /// attribute per-problem sub-intervals of a fused launch after the
  /// launch span itself has closed: the per-problem kRequest spans draw
  /// fresh trace ids (they ARE independent requests), every other kind
  /// inherits the parent's trace.  `parent_id` must name a recorded
  /// span.  Returns the new span's id.
  u64 insert_closed(SpanKind kind, std::string name, u64 parent_id,
                    f64 begin_ms, f64 end_ms, const SpanCounters& delta,
                    std::vector<SpanEvent> events = {});

  /// Attach an event to the innermost open span (dropped when no span is
  /// open -- events outside any request are not part of a trace).
  void event(SpanEvent ev);
  /// Charge virtual backoff milliseconds to span `id` (the request span;
  /// backoff never advances the device lifetime clock).
  void add_backoff(u64 id, f64 ms);
  /// Set the modeled fixed overhead of span `id` (launch spans).
  void set_overhead(u64 id, f64 ms);

  /// True while any span is open (all roots are request spans, so this
  /// is "a request is in flight").
  bool in_request() const { return !stack_.empty(); }
  /// Trace id of the innermost open span, 0 when none is open.  This is
  /// the exemplar id latency histograms record.
  u64 current_trace() const;
  /// Id of the innermost open span, 0 when none.
  u64 current_span() const { return stack_.empty() ? 0 : stack_.back(); }

  u64 trace_count() const { return next_trace_; }
  std::size_t open_depth() const { return stack_.size(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord& at(u64 id) const { return spans_[id - 1]; }
  void clear();

 private:
  SpanRecord& mut(u64 id) { return spans_[id - 1]; }

  std::vector<SpanRecord> spans_;
  std::vector<u64> stack_;  ///< ids of open spans, outermost first
  std::vector<std::chrono::steady_clock::time_point> host_begin_;
  u64 next_trace_ = 0;
};

/// RAII span over a Device (snapshots the device's span counters at
/// both ends).  No-op when the device has no recorder or -- for
/// non-request kinds -- when no request span is open.  Destruction
/// closes the span if end() was not called (exception safety: an
/// aborted attempt still closes its span).
class SpanScope {
 public:
  SpanScope(Device& dev, SpanKind kind, std::string name);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void end();
  /// The span's id, 0 when the scope is inactive.
  u64 id() const { return id_; }
  bool active() const { return id_ != 0; }

 private:
  Device* dev_;
  u64 id_ = 0;
};

/// Write the deterministic span dump: a JSONL header line
/// `{"spans":"trace","schema_version":...,...}` followed by one line per
/// span in span_id order.  Modeled fields only (no host wall-clock).
void write_spans_jsonl(std::ostream& os, const SpanRecorder& rec,
                       std::string_view source, std::string_view device_name);
/// Same, to a file; returns false when the file cannot be opened.
bool write_spans_jsonl_file(const std::string& path, const SpanRecorder& rec,
                            std::string_view source,
                            std::string_view device_name);

}  // namespace ms::sim
