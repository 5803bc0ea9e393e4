// Sanitizer subsystem: the simulator's compute-sanitizer analogue.
//
// Three opt-in tools, mirroring NVIDIA's `compute-sanitizer`:
//
//   * memcheck  -- out-of-bounds global/shared accesses.  An OOB access is
//     always fatal (the backing storage simply does not exist), but with
//     memcheck enabled the fault is also recorded as a report and the
//     launch helpers degrade gracefully instead of unwinding the caller
//     (the `cudaGetLastError` idiom: the fault parks in
//     `Device::last_error()`).
//   * initcheck -- shadow valid-bit tracking per element of every
//     DeviceBuffer and per 4-byte word of the shared-memory arena.  A
//     device read of a word that was never written (by host setup or by a
//     kernel) produces a report; execution continues with whatever garbage
//     the storage holds, exactly like the real tool.
//   * racecheck -- shared-memory hazard detection via per-word access
//     epochs.  `Block::sync()` advances the block's barrier epoch; a warp
//     touching a word that a *different* warp wrote in the same epoch is a
//     RAW/WAW/WAR hazard (atomic-vs-atomic accesses are exempt, as on
//     hardware).  The simulator executes warps sequentially, so racy
//     kernels still produce deterministic -- deceptively correct --
//     results; racecheck is what surfaces the missing barrier.
//
// Faults and reports carry a FaultContext (kernel, object, element index,
// lane, warp, block), and fatal ones are thrown as SimError, which derives
// from std::logic_error so legacy catch sites keep working.
//
// Enabling any tool does not change modeled costs: the hooks never touch
// KernelEvents.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace ms::sim {

/// Sentinel for "no specific lane" in a FaultContext.
inline constexpr u32 kNoLane = 0xFFFFFFFFu;

enum class FaultKind : u8 {
  kGlobalOOB,        // memcheck: global access out of bounds
  kSharedOOB,        // memcheck: shared access out of bounds
  kHostOOB,          // memcheck: host-side DeviceBuffer index out of bounds
  kUninitGlobalRead, // initcheck: read of never-written global word
  kUninitSharedRead, // initcheck: read of never-written shared word
  kRaceHazard,       // racecheck: cross-warp same-epoch shared access
  kSmemOvercommit,   // warning: shared allocation beyond device capacity
  kInvalidConfig,    // malformed MultisplitConfig rejected at plan build
  kLaunchFailure,    // a kernel launch was aborted by a fault
  kAllocFailure,     // device allocation failed (chaos-injected OOM)
  kValidationFailure,// resilient executor: output failed end-to-end check
  kRetryExhausted,   // resilient executor: attempts/budget exhausted
};

enum class FaultSeverity : u8 { kError, kWarning };

const char* to_string(FaultKind k);

/// Everything a report or fatal fault knows about where it happened.
struct FaultContext {
  FaultKind kind = FaultKind::kLaunchFailure;
  FaultSeverity severity = FaultSeverity::kError;
  std::string kernel;     // executing kernel name, or "<host>"
  std::string object;     // buffer / shared-array label
  u64 index = 0;          // element index of the access
  u64 extent = 0;         // object size in elements
  u32 lane = kNoLane;     // faulting lane, or kNoLane
  u32 warp_in_block = 0;
  u32 block = 0;
  u64 global_warp = 0;
  std::string detail;     // free-form: access kind, conflicting warp, ...
};

/// Multi-line compute-sanitizer-style rendering of one fault.
std::string format_fault(const FaultContext& ctx);

/// Structured simulator fault.  Derives from std::logic_error so existing
/// `catch (const std::logic_error&)` sites (and EXPECT_THROW assertions)
/// keep working; new code can catch SimError and inspect context().
class SimError : public std::logic_error {
 public:
  explicit SimError(FaultContext ctx)
      : std::logic_error(format_fault(ctx)), ctx_(std::move(ctx)) {}

  const FaultContext& context() const { return ctx_; }

 private:
  FaultContext ctx_;
};

/// Which tools are armed.  `fail_fast` additionally turns every error
/// report into a SimError thrown at the end of the offending launch --
/// the mode the MS_SANITIZE environment variable uses so that rerunning an
/// unmodified test suite fails on the first finding
/// (compute-sanitizer's --error-exitcode).
struct SanitizerConfig {
  bool memcheck = false;
  bool racecheck = false;
  bool initcheck = false;
  bool fail_fast = false;

  bool any() const { return memcheck || racecheck || initcheck; }

  static SanitizerConfig all() {
    return SanitizerConfig{true, true, true, false};
  }

  /// Parse a comma-separated tool list: "memcheck,racecheck,initcheck",
  /// "all", or "none".  Returns nullopt on an unknown token.
  static std::optional<SanitizerConfig> parse(std::string_view csv);
};

/// MS_SANITIZE parsed into a fail-fast config (fail_fast set when any tool
/// is armed), or nullopt when the variable is unset or empty.  An unknown
/// tool name is a UsageError naming the variable.
std::optional<SanitizerConfig> sanitizer_from_env();

/// Per-element valid bits of one DeviceBuffer (initcheck shadow state).
/// Registered at buffer construction; the buffer caches the pointer so the
/// hot paths never pay a map lookup (entries are node-stable).
struct GlobalShadow {
  std::string name;
  u64 base = 0;
  u64 count = 0;
  u32 elem_size = 0;
  std::vector<u8> valid;  // one byte per element

  void mark_all() { std::fill(valid.begin(), valid.end(), u8{1}); }
};

/// Per-word shadow state of one block's shared-memory arena (initcheck
/// valid bits + racecheck access epochs).  Word = 4 bytes, matching the
/// bank width; an 8-byte element spans two words.
struct SmemShadow {
  std::vector<u8> valid;
  std::vector<u32> write_epoch, writer;
  std::vector<u8> write_atomic;
  std::vector<u32> read_epoch, reader;

  void resize(u32 words) {
    valid.resize(words, 0);
    write_epoch.resize(words, 0);
    writer.resize(words, 0);
    write_atomic.resize(words, 0);
    read_epoch.resize(words, 0);
    reader.resize(words, 0);
  }
};

/// The device-wide sanitizer: configuration, the report sink, and the
/// global-buffer shadow registry.  Owned by Device; disabled by default
/// (every hook first reads one bool).
class Sanitizer {
 public:
  void configure(SanitizerConfig cfg) {
    cfg_ = cfg;
    clear_reports();
  }
  const SanitizerConfig& config() const { return cfg_; }
  bool memcheck() const { return cfg_.memcheck; }
  bool racecheck() const { return cfg_.racecheck; }
  bool initcheck() const { return cfg_.initcheck; }
  bool fail_fast() const { return cfg_.fail_fast; }
  bool any() const { return cfg_.any(); }
  /// True when any tool that shadows shared memory is armed.
  bool smem_tools() const { return cfg_.racecheck || cfg_.initcheck; }

  // --- report sink ---
  /// Record one finding.  Errors and warnings are counted separately; the
  /// first kMaxStoredReports are kept verbatim, the rest only counted.
  void report(FaultContext ctx);
  u64 error_count() const { return errors_; }
  u64 warning_count() const { return warnings_; }
  const std::vector<FaultContext>& reports() const { return reports_; }
  /// The most recent error-severity report (for fail_fast rethrow).
  const std::optional<FaultContext>& last_error_report() const {
    return last_error_report_;
  }
  void clear_reports();
  /// Full compute-sanitizer-style dump: every stored report plus a
  /// summary line.  Empty string when there is nothing to report.
  std::string format_reports() const;

  // --- initcheck: global-buffer shadow registry ---
  /// Register a buffer allocation; returns the stable shadow slot (null
  /// when initcheck is off, so untracked buffers cost nothing).
  GlobalShadow* on_buffer_alloc(u64 base, u64 count, u32 elem_size,
                                std::string name);
  void on_buffer_free(u64 base);

  static constexpr u64 kMaxStoredReports = 128;

 private:
  SanitizerConfig cfg_;
  std::vector<FaultContext> reports_;
  std::optional<FaultContext> last_error_report_;
  u64 errors_ = 0;
  u64 warnings_ = 0;
  u64 dropped_ = 0;
  std::unordered_map<u64, std::unique_ptr<GlobalShadow>> buffers_;
};

/// "name" if non-empty, else "buffer@<base byte address>".
std::string object_label(std::string_view name, u64 base);

}  // namespace ms::sim
