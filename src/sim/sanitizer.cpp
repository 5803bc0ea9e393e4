#include "sim/sanitizer.hpp"

#include <cstdlib>
#include <sstream>

#include "sim/flags.hpp"
#include "sim/shard.hpp"

namespace ms::sim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kGlobalOOB: return "invalid global access (memcheck)";
    case FaultKind::kSharedOOB: return "invalid shared access (memcheck)";
    case FaultKind::kHostOOB: return "invalid host-side access (memcheck)";
    case FaultKind::kUninitGlobalRead:
      return "uninitialized global read (initcheck)";
    case FaultKind::kUninitSharedRead:
      return "uninitialized shared read (initcheck)";
    case FaultKind::kRaceHazard: return "shared-memory hazard (racecheck)";
    case FaultKind::kSmemOvercommit:
      return "shared-memory overcommit (warning)";
    case FaultKind::kInvalidConfig:
      return "invalid multisplit configuration";
    case FaultKind::kLaunchFailure: return "kernel launch failure";
    case FaultKind::kAllocFailure: return "device allocation failure";
    case FaultKind::kValidationFailure:
      return "output validation failure (resilience)";
    case FaultKind::kRetryExhausted:
      return "retry budget exhausted (resilience)";
  }
  return "unknown fault";
}

std::string object_label(std::string_view name, u64 base) {
  if (!name.empty()) return std::string(name);
  std::ostringstream os;
  os << "buffer@" << base;
  return os.str();
}

std::string format_fault(const FaultContext& ctx) {
  std::ostringstream os;
  os << "========= "
     << (ctx.severity == FaultSeverity::kWarning ? "WARNING: " : "ERROR: ")
     << to_string(ctx.kind) << "\n";
  os << "=========     kernel '" << (ctx.kernel.empty() ? "<host>" : ctx.kernel)
     << "'";
  if (ctx.lane != kNoLane) {
    os << ", block " << ctx.block << ", warp " << ctx.warp_in_block
       << " (global warp " << ctx.global_warp << "), lane " << ctx.lane;
  }
  os << "\n";
  if (!ctx.object.empty()) {
    os << "=========     object '" << ctx.object << "': index " << ctx.index
       << " (extent " << ctx.extent << ")\n";
  }
  if (!ctx.detail.empty()) os << "=========     " << ctx.detail << "\n";
  return os.str();
}

std::optional<SanitizerConfig> SanitizerConfig::parse(std::string_view csv) {
  SanitizerConfig cfg;
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string_view tok =
        csv.substr(pos, comma == std::string_view::npos ? csv.size() - pos
                                                        : comma - pos);
    if (tok == "memcheck") cfg.memcheck = true;
    else if (tok == "racecheck") cfg.racecheck = true;
    else if (tok == "initcheck") cfg.initcheck = true;
    else if (tok == "all") cfg = SanitizerConfig::all();
    else if (tok == "none" || tok.empty()) { /* no-op */ }
    else return std::nullopt;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return cfg;
}

std::optional<SanitizerConfig> sanitizer_from_env() {
  const char* env = std::getenv("MS_SANITIZE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  std::optional<SanitizerConfig> cfg = SanitizerConfig::parse(env);
  if (!cfg) {
    throw UsageError(std::string("invalid value '") + env +
                     "' for MS_SANITIZE (expected memcheck,racecheck,"
                     "initcheck or all|none)");
  }
  cfg->fail_fast = cfg->any();
  return cfg;
}

void Sanitizer::report(FaultContext ctx) {
  // Parallel path: defer the report into the executing item's shard; the
  // post-launch merge forwards shard reports here in item order, so
  // counts, stored reports and last_error_report match serial execution.
  if (CounterShard* sh = detail::t_shard; sh != nullptr) {
    sh->reports.push_back(std::move(ctx));
    return;
  }
  if (ctx.severity == FaultSeverity::kError) {
    ++errors_;
    last_error_report_ = ctx;
  } else {
    ++warnings_;
  }
  if (reports_.size() < kMaxStoredReports) {
    reports_.push_back(std::move(ctx));
  } else {
    ++dropped_;
  }
}

void Sanitizer::clear_reports() {
  reports_.clear();
  last_error_report_.reset();
  errors_ = warnings_ = dropped_ = 0;
}

std::string Sanitizer::format_reports() const {
  if (errors_ == 0 && warnings_ == 0) return {};
  std::ostringstream os;
  for (const auto& r : reports_) os << format_fault(r);
  os << "========= SANITIZER SUMMARY: " << errors_ << " error(s), "
     << warnings_ << " warning(s)";
  if (dropped_ > 0) {
    os << " (" << dropped_ << " further report(s) not stored)";
  }
  os << "\n";
  return os.str();
}

GlobalShadow* Sanitizer::on_buffer_alloc(u64 base, u64 count, u32 elem_size,
                                         std::string name) {
  if (!cfg_.initcheck) return nullptr;
  auto shadow = std::make_unique<GlobalShadow>();
  shadow->name = std::move(name);
  shadow->base = base;
  shadow->count = count;
  shadow->elem_size = elem_size;
  shadow->valid.assign(count, 0);
  GlobalShadow* raw = shadow.get();
  buffers_[base] = std::move(shadow);
  return raw;
}

void Sanitizer::on_buffer_free(u64 base) { buffers_.erase(base); }

}  // namespace ms::sim
