// Non-template pieces of the plan layer: method metadata (tokens, display
// names, capabilities), Method::kAuto resolution, MultisplitConfig
// validation, and MultisplitPlan's host-side shape/scratch resolution.
#include "multisplit/plan.hpp"

#include <sstream>

#include "primitives/scan.hpp"

namespace ms::split {

namespace {

/// Metadata table, indexed by static_cast<u32>(Method); kAuto last.
constexpr MethodTraits kTraits[] = {
    // token, display, max_m, supports_pairs, stable
    {"direct", "Direct MS", UINT32_MAX, true, true},
    {"warp", "Warp-level MS", UINT32_MAX, true, true},
    {"block", "Block-level MS", UINT32_MAX, true, true},
    {"scan_split", "Scan-based split", 2, true, true},
    {"recursive_split", "Recursive scan split", UINT32_MAX, true, true},
    {"reduced_bit", "Reduced-bit sort", UINT32_MAX, true, true},
    {"randomized", "Randomized insertion", UINT32_MAX, false, false},
    {"fused_sort", "Fused-bucket sort", UINT32_MAX, true, true},
    {"auto", "Auto", UINT32_MAX, true, true},
};
constexpr u32 kMethodCount = static_cast<u32>(std::size(kTraits));

[[noreturn]] void reject_config(const std::string& detail) {
  sim::FaultContext ctx;
  ctx.kind = sim::FaultKind::kInvalidConfig;
  ctx.kernel = "<plan>";
  ctx.object = "MultisplitConfig";
  ctx.detail = detail;
  throw sim::SimError(std::move(ctx));
}

}  // namespace

const MethodTraits& method_traits(Method m) {
  const u32 idx = static_cast<u32>(m);
  check(idx < kMethodCount, "method_traits: unknown method");
  return kTraits[idx];
}

std::string to_string(Method m) { return method_traits(m).display; }

std::string method_token(Method m) { return method_traits(m).token; }

std::optional<Method> parse_method(std::string_view name) {
  for (u32 i = 0; i < kMethodCount; ++i) {
    if (name == kTraits[i].token || name == kTraits[i].display) {
      return static_cast<Method>(i);
    }
  }
  return std::nullopt;
}

bool fault_is_retryable(sim::FaultKind kind, const RetryPolicy& rp) {
  switch (kind) {
    // Transient by construction: a failed allocation may succeed after the
    // pool drains, an aborted launch after resubmission, and a rejected
    // output after a rerun overwrites the corruption.
    case sim::FaultKind::kAllocFailure:
    case sim::FaultKind::kLaunchFailure:
    case sim::FaultKind::kValidationFailure:
      return true;
    // Data-integrity findings.  In a healthy program these are bugs and
    // retrying hides them; under fault injection a flipped bit produces
    // exactly these kinds, so chaos campaigns opt in.
    case sim::FaultKind::kGlobalOOB:
    case sim::FaultKind::kSharedOOB:
    case sim::FaultKind::kUninitGlobalRead:
    case sim::FaultKind::kUninitSharedRead:
    case sim::FaultKind::kRaceHazard:
      return rp.retry_data_faults;
    // Deterministic host/config errors: a retry replays the same mistake.
    default:
      return false;
  }
}

std::optional<Method> fallback_method(Method cur, u32 m, bool pairs) {
  // Degradation ladder, most- to least-sophisticated.  Each faulting
  // method falls to the next rung that can serve the (m, pairs) request;
  // the bottom rungs trade throughput for simpler kernels with smaller
  // scratch footprints and fewer shared-memory tricks.
  auto usable = [&](Method cand) {
    const MethodTraits& tr = method_traits(cand);
    if (m > tr.max_m) return false;
    if (pairs && !tr.supports_pairs) return false;
    return true;
  };
  auto next_in_chain = [&](Method from) -> std::optional<Method> {
    static constexpr Method kLadder[] = {
        Method::kFusedBucketSort, Method::kReducedBitSort,
        Method::kBlockLevel,      Method::kWarpLevel,
        Method::kDirect,
    };
    bool seen = false;
    for (Method cand : kLadder) {
      if (cand == from) {
        seen = true;
        continue;
      }
      if (seen && usable(cand)) return cand;
    }
    if (!seen) return std::nullopt;
    // Below the warp methods: the scan-based splits, whose kernels share
    // almost nothing with the histogram/sort family that just failed.
    if (m <= 2 && from != Method::kScanSplit && usable(Method::kScanSplit)) {
      return Method::kScanSplit;
    }
    if (m > 2 && usable(Method::kRecursiveScanSplit)) {
      return Method::kRecursiveScanSplit;
    }
    return std::nullopt;
  };
  switch (cur) {
    case Method::kRandomizedInsertion:
      // Key-only, non-stable specialist: degrade to the stable generalist.
      return usable(Method::kWarpLevel) ? std::optional<Method>(Method::kWarpLevel)
                                        : std::nullopt;
    case Method::kScanSplit:
    case Method::kRecursiveScanSplit:
    case Method::kAuto:
      // Already at the bottom of the ladder (or unresolved): no rung left.
      return std::nullopt;
    default:
      return next_in_chain(cur);
  }
}

Method resolve_auto(const sim::DeviceProfile& profile, u64 /*n*/, u32 m) {
  // Paper Section 6: warp-level MS leads for small bucket counts, the
  // block-level method through the shared-memory histogram limit, and the
  // reduced-bit sort beyond.  The crossover points live in the device
  // profile; n currently does not move them (the paper's crossovers are
  // stable across its measured sizes).
  if (m <= profile.auto_warp_level_max_m) return Method::kWarpLevel;
  if (m <= profile.auto_block_level_max_m) return Method::kBlockLevel;
  return Method::kReducedBitSort;
}

void validate_config(const MultisplitConfig& cfg) {
  if (cfg.warps_per_block == 0) {
    reject_config("warps_per_block must be >= 1 (a block needs a warp)");
  }
  if (cfg.items_per_thread == 0) {
    reject_config("items_per_thread must be >= 1");
  }
  if (cfg.block_items_per_thread == 0) {
    reject_config("block_items_per_thread must be >= 1");
  }
  if (cfg.relaxation < 1.0) {
    std::ostringstream os;
    os << "relaxation must be >= 1.0 (staging areas need at least one slot "
          "per key), got "
       << cfg.relaxation;
    reject_config(os.str());
  }
}

namespace {

/// Scratch estimate helpers.  Sizes are rounded per buffer exactly the way
/// the allocator rounds them (to the 32-byte transaction granularity), so
/// the plan's temp_storage_bytes matches the address space a run consumes.
constexpr u64 kAlign = 32;
u64 rounded(u64 bytes) {
  return ceil_div(bytes == 0 ? u64{1} : bytes, kAlign) * kAlign;
}

/// Address space of exclusive_scan's recursive partial tree over `len`
/// u32 elements (primitives/scan.hpp: two nblocks-sized buffers per level).
u64 scan_tree_bytes(u64 len) {
  const u32 tile = prim::ScanConfig{}.tile_items();
  if (len <= tile) return 0;
  const u64 nblocks = ceil_div(len, tile);
  return 2 * rounded(nblocks * 4) + scan_tree_bytes(nblocks);
}

}  // namespace

MultisplitPlan::MultisplitPlan(sim::Device& dev, u64 n, u32 m,
                               MultisplitConfig cfg, u32 value_bytes)
    : dev_(&dev),
      n_(n),
      m_(m),
      value_bytes_(value_bytes),
      requested_(cfg.method),
      cfg_(cfg) {
  check(m >= 1, "multisplit: need at least one bucket");
  validate_config(cfg_);
  method_ = requested_ == Method::kAuto ? resolve_auto(dev.profile(), n, m)
                                        : requested_;
  cfg_.method = method_;

  const MethodTraits& tr = method_traits(method_);
  if (method_ == Method::kScanSplit) {
    check(m <= 2, "scan-based split handles at most 2 buckets");
  }
  check(m <= tr.max_m, "multisplit: m exceeds the method's bucket limit");
  if (value_bytes_ > 0) {
    check(tr.supports_pairs, "randomized insertion is key-only (Section 3.5)");
  }

  // First-stage geometry and per-run scratch, mirroring what the method
  // implementations compute when they run.  All host arithmetic: building
  // a plan does no device work (the bit-identity argument in DESIGN.md
  // §10 depends on this).
  const u32 nw = cfg_.warps_per_block;
  shape_.warps_per_block = nw;
  switch (method_) {
    case Method::kDirect:
    case Method::kWarpLevel: {
      const u32 k = std::max<u32>(1, cfg_.items_per_thread);
      const u64 L = ceil_div(n, u64{kWarpSize} * k);  // warp subproblems
      shape_.subproblems = L;
      shape_.blocks = static_cast<u32>(ceil_div(L, nw));
      // Histogram matrix h and its scan g (m x L u32 each) + scan tree.
      temp_bytes_ = 2 * rounded(u64{m_} * L * 4) + scan_tree_bytes(u64{m_} * L);
      break;
    }
    case Method::kBlockLevel: {
      const bool small_m = m_ <= 32;
      const u32 k = small_m ? std::max<u32>(1, cfg_.block_items_per_thread) : 1;
      const u64 tile = u64{nw} * kWarpSize * k;
      const u64 L = ceil_div(n, tile);  // one subproblem per block
      shape_.subproblems = L;
      shape_.blocks = static_cast<u32>(L);
      temp_bytes_ = 2 * rounded(u64{m_} * L * 4) + scan_tree_bytes(u64{m_} * L);
      break;
    }
    case Method::kScanSplit:
    case Method::kRecursiveScanSplit: {
      const u32 rounds = std::max<u32>(1, ceil_log2(m_));
      shape_.subproblems = ceil_div(n, u64{kWarpSize});  // labeling warps
      shape_.blocks = static_cast<u32>(ceil_div(shape_.subproblems, u64{nw}));
      // Per round: flag + scanned-flag vectors and their scan tree; the
      // ping-pong key (and value) buffer persists across rounds.
      temp_bytes_ = 2 * rounded(n * 4) + scan_tree_bytes(n);
      if (rounds > 1) {
        temp_bytes_ += rounded(n * 4);
        if (value_bytes_ > 0) temp_bytes_ += rounded(n * value_bytes_);
      }
      break;
    }
    case Method::kReducedBitSort: {
      shape_.subproblems = ceil_div(n, u64{kWarpSize});
      shape_.blocks = static_cast<u32>(ceil_div(shape_.subproblems, u64{nw}));
      // Label vector + permutation payload (index vector key-only, packed
      // label|key u64 otherwise) + the radix sort's ping-pong buffers.
      // The sort's per-pass histogram trees are O(n / tile * m) and are
      // left out of the estimate.
      const u64 payload = value_bytes_ > 0 ? rounded(n * 8) : rounded(n * 4);
      temp_bytes_ = rounded(n * 4) + 2 * payload;
      break;
    }
    case Method::kRandomizedInsertion: {
      const u64 tile = u64{nw} * kWarpSize;
      shape_.subproblems = ceil_div(n, tile);
      shape_.blocks = static_cast<u32>(shape_.subproblems);
      // Histogram + cursor (m u32 each) and the relaxed staging area
      // (~relaxation * n slots for keys and occupancy flags; the exact
      // size rounds per bucket at run time).
      const u64 staged =
          static_cast<u64>(cfg_.relaxation * static_cast<f64>(n)) + m_;
      temp_bytes_ = 2 * rounded(u64{m_} * 4) + 2 * rounded(staged * 4) +
                    scan_tree_bytes(m_);
      break;
    }
    case Method::kFusedBucketSort: {
      shape_.subproblems = ceil_div(n, u64{kWarpSize});
      shape_.blocks = static_cast<u32>(ceil_div(shape_.subproblems, u64{nw}));
      // Ping-pong key (and value) buffers; per-pass histogram trees left
      // out as above.
      temp_bytes_ = rounded(n * 4);
      if (value_bytes_ > 0) temp_bytes_ += rounded(n * value_bytes_);
      break;
    }
    case Method::kAuto:
      fail("multisplit plan: kAuto must resolve to a concrete method");
  }
}

void MultisplitPlan::check_keys(const sim::DeviceBuffer<u32>& in,
                                const sim::DeviceBuffer<u32>& out) const {
  check(&in != &out, "multisplit: in and out must be distinct");
  check(in.size() == n_, "multisplit plan: input size differs from planned n");
  check(out.size() >= n_, "multisplit: output too small");
}

void MultisplitPlan::check_pairs(const sim::DeviceBuffer<u32>& keys_in,
                                 u64 vals_in_size,
                                 const sim::DeviceBuffer<u32>& keys_out,
                                 u64 vals_out_size) const {
  check(&keys_in != &keys_out, "multisplit: in and out must be distinct");
  check(keys_in.size() == n_,
        "multisplit plan: input size differs from planned n");
  check(keys_in.size() == vals_in_size, "multisplit: key/value mismatch");
  check(keys_out.size() >= n_ && vals_out_size >= n_,
        "multisplit: output too small");
  check(method_traits(method_).supports_pairs,
        "randomized insertion is key-only (Section 3.5)");
}

namespace detail {

void throw_retry_exhausted(Method requested, u32 attempts, f64 spent_ms,
                           const sim::FaultContext& last) {
  sim::FaultContext ctx;
  ctx.kind = sim::FaultKind::kRetryExhausted;
  ctx.kernel = "<resilience>";
  ctx.object = to_string(requested);
  ctx.index = attempts;
  std::ostringstream os;
  os << "retry budget exhausted after " << attempts << " attempts ("
     << spent_ms << " modeled ms); last fault: " << to_string(last.kind);
  if (!last.detail.empty()) os << " -- " << last.detail;
  ctx.detail = os.str();
  throw sim::SimError(std::move(ctx));
}

}  // namespace detail

}  // namespace ms::split
