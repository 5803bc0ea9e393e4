// Shared machinery for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper.  The
// simulator runs on a single host core, so the default problem sizes are
// smaller than the paper's n = 2^25; measured times are reported both raw
// and linearly rescaled to the paper's element count (the cost model is
// linear in n up to kernel-launch constants -- a property the test suite
// checks).  Pass `--n <log2>` to change the size, `--full` for the paper's
// exact sizes (slow on one core), `--device k40c|750ti` to switch device
// profiles, and `--trials <k>` to average over several input seeds.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "multisplit/multisplit.hpp"
#include "sim/flags.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "workload/distributions.hpp"

namespace ms::bench {

struct Options {
  u32 log2_n;
  u32 paper_log2_n;
  std::string device = "k40c";
  u32 trials = 1;
  bool full = false;
  /// --host-threads <k>: simulator worker threads (0 = keep the process
  /// default: MS_HOST_THREADS env or the hardware concurrency).  Changes
  /// host wall-clock only; modeled results are bit-identical by design.
  u32 host_threads = 0;
  /// --method <token>: override the method every measured multisplit runs
  /// with ("auto" routes through the plan's paper-guided selection).
  /// Unset = each bench's own method list.
  std::optional<split::Method> method;
  std::string json_path;   // --json <file>: machine-readable report
  std::string trace_path;  // --trace <file>: Chrome trace of the first run
  /// --telemetry <file>: JSONL telemetry timeline (sim/telemetry.hpp) of
  /// the first instrumented device in the process (plan_reuse wires it to
  /// the pooled serving loop instead -- the interesting timeline).
  std::string telemetry_path;
  /// --spans <file>: JSONL request-span dump (sim/span.hpp) of the same
  /// device --telemetry instruments (`ms_cli tail` consumes it).
  std::string spans_path;
  /// Set once the first run has emitted its trace (only one run per process
  /// gets the trace -- otherwise later runs would overwrite it).
  mutable bool trace_written = false;
  mutable bool telemetry_written = false;
  mutable bool spans_written = false;

  /// Strict parser: unknown flags, missing values, unknown device names,
  /// malformed or out-of-range numbers (--n above 31: bucket offsets are
  /// u32; --trials or --host-threads of 0; --host-threads above
  /// kMaxHostThreads) and bad MS_HOST_THREADS / MS_SANITIZE values are
  /// hard errors (exit 2), not silent fallbacks.  Benches that support
  /// machine-readable output pass `machine_readable = true` to enable
  /// --json/--trace; elsewhere those flags are rejected with an
  /// explanation.
  static Options parse(int argc, char** argv, u32 default_log2_n,
                       u32 paper_log2_n, bool machine_readable = false) {
    Options o;
    o.log2_n = default_log2_n;
    o.paper_log2_n = paper_log2_n;
    try {
      for (int i = 1; i < argc; ++i) {
        const auto value = [&](const char* flag) -> const char* {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                         flag);
            std::exit(2);
          }
          return argv[++i];
        };
        const auto count = [&](const char* flag, u32 lo, u32 hi) -> u32 {
          return sim::parse_flag_in<u32>(flag, value(flag), lo, hi);
        };
        if (!std::strcmp(argv[i], "--n")) {
          o.log2_n = count("--n", 0, 31);
        } else if (!std::strcmp(argv[i], "--full")) {
          o.full = true;
          o.log2_n = paper_log2_n;
        } else if (!std::strcmp(argv[i], "--device")) {
          o.device = value("--device");
          if (o.device != "k40c" && o.device != "750ti" &&
              o.device != "gtx750ti" && o.device != "sol") {
            std::fprintf(stderr,
                         "%s: unknown device '%s' (expected k40c, 750ti or "
                         "sol)\n",
                         argv[0], o.device.c_str());
            std::exit(2);
          }
        } else if (!std::strcmp(argv[i], "--trials")) {
          o.trials = count("--trials", 1, UINT32_MAX);
        } else if (!std::strcmp(argv[i], "--method")) {
          const char* name = value("--method");
          o.method = split::parse_method(name);
          if (!o.method) {
            std::fprintf(stderr,
                         "%s: unknown method '%s' (try ms_cli --list)\n",
                         argv[0], name);
            std::exit(2);
          }
        } else if (!std::strcmp(argv[i], "--host-threads")) {
          o.host_threads = count("--host-threads", 1, sim::kMaxHostThreads);
          sim::set_default_host_threads(o.host_threads);
        } else if (!std::strcmp(argv[i], "--json") && machine_readable) {
          o.json_path = value("--json");
        } else if (!std::strcmp(argv[i], "--trace") && machine_readable) {
          o.trace_path = value("--trace");
        } else if (!std::strcmp(argv[i], "--telemetry") && machine_readable) {
          o.telemetry_path = value("--telemetry");
        } else if (!std::strcmp(argv[i], "--spans") && machine_readable) {
          o.spans_path = value("--spans");
        } else if (!std::strcmp(argv[i], "--json") ||
                   !std::strcmp(argv[i], "--trace") ||
                   !std::strcmp(argv[i], "--telemetry") ||
                   !std::strcmp(argv[i], "--spans")) {
          std::fprintf(stderr, "%s: %s is not supported by this bench\n",
                       argv[0], argv[i]);
          std::exit(2);
        } else if (!std::strcmp(argv[i], "--help")) {
          std::printf(
              "usage: %s [--n <log2 elements>] [--full] "
              "[--device k40c|750ti|sol] [--trials k] [--host-threads k] "
              "[--method <token|auto>]%s\n",
              argv[0],
              machine_readable
                  ? " [--json <file>] [--trace <file>] [--telemetry <file>] "
                    "[--spans <file>]"
                  : "");
          std::exit(0);
        } else {
          std::fprintf(stderr, "%s: unknown flag '%s' (try --help)\n",
                       argv[0], argv[i]);
          std::exit(2);
        }
      }
      // The environment variables every Device reads: a bad value is the
      // same usage error as a bad flag, not an abort at the first Device.
      sim::host_threads_from_env();
      sim::sanitizer_from_env();
    } catch (const sim::UsageError& e) {
      std::fprintf(stderr, "%s: usage error: %s\n", argv[0], e.what());
      std::exit(2);
    }
    return o;
  }

  u64 n() const { return u64{1} << log2_n; }

  /// Linear rescale from the measured size to the paper's size.
  f64 scale() const {
    return std::ldexp(1.0, static_cast<int>(paper_log2_n) -
                               static_cast<int>(log2_n));
  }

  sim::DeviceProfile profile() const {
    if (device == "750ti" || device == "gtx750ti")
      return sim::DeviceProfile::gtx_750_ti();
    if (device == "sol") return sim::DeviceProfile::speed_of_light();
    return sim::DeviceProfile::tesla_k40c();
  }

  void print_header(const char* what) const {
    std::printf("== %s ==\n", what);
    std::printf(
        "device: %s | n = 2^%u (%llu keys) | times rescaled x%.0f to the "
        "paper's n = 2^%u | trials = %u\n\n",
        profile().name.c_str(), log2_n, static_cast<unsigned long long>(n()),
        scale(), paper_log2_n, trials);
  }
};

/// One multisplit measurement, averaged over `trials` input seeds.
struct Measurement {
  split::StageTimings stages;  // already rescaled to the paper's n
  f64 total_ms = 0.0;          // rescaled
  f64 rate_gkeys = 0.0;        // at the paper's n
  /// Host (simulator) wall-clock per trial, *not* rescaled and *not* part
  /// of the modeled results: it measures how fast the simulation itself
  /// ran (the parallel scheduler's speedup shows up here).  The first
  /// trial is a warm-up (first-touch page faults, lazily-spawned worker
  /// pool) and is excluded whenever more than one trial runs; both the
  /// mean and the min of the remaining trials are reported, and
  /// host_keys_per_sec uses the min -- the stable statistic history-based
  /// regression tracking needs (tools/bench_history.py).
  f64 host_ms = 0.0;      // mean over non-warm-up trials
  f64 host_ms_min = 0.0;  // fastest non-warm-up trial
  f64 host_keys_per_sec = 0.0;  // measured n / host_ms_min
  /// Concrete method the measured runs executed (kAuto resolved); kAuto
  /// only if run_once never produced a result.
  split::Method method_selected = split::Method::kAuto;
};

template <typename Runner>
Measurement measure(const Options& opt, Runner&& run_once) {
  Measurement m;
  f64 kernels = 0;
  std::vector<f64> trial_ms(opt.trials, 0.0);
  for (u32 t = 0; t < opt.trials; ++t) {
    const auto host_t0 = std::chrono::steady_clock::now();
    const split::MultisplitResult r = run_once(t);
    const auto host_t1 = std::chrono::steady_clock::now();
    trial_ms[t] =
        std::chrono::duration<f64, std::milli>(host_t1 - host_t0).count();
    m.stages.prescan_ms += r.stages.prescan_ms;
    m.stages.scan_ms += r.stages.scan_ms;
    m.stages.postscan_ms += r.stages.postscan_ms;
    kernels += static_cast<f64>(r.summary.kernels);
    m.method_selected = r.method_selected;
  }
  // Host statistics skip the warm-up trial when there is one to skip;
  // modeled stage averages keep using every trial (they are deterministic
  // per seed -- warm-up does not exist on the modeled timeline).
  const u32 first = opt.trials > 1 ? 1u : 0u;
  f64 host_sum = 0.0;
  m.host_ms_min = trial_ms[first];
  for (u32 t = first; t < opt.trials; ++t) {
    host_sum += trial_ms[t];
    m.host_ms_min = std::min(m.host_ms_min, trial_ms[t]);
  }
  m.host_ms = host_sum / static_cast<f64>(opt.trials - first);
  m.host_keys_per_sec =
      m.host_ms_min > 0
          ? static_cast<f64>(opt.n()) / (m.host_ms_min * 1e-3)
          : 0.0;
  m.stages.prescan_ms /= opt.trials;
  m.stages.scan_ms /= opt.trials;
  m.stages.postscan_ms /= opt.trials;
  kernels /= opt.trials;

  // Launch-aware rescaling: kernel-launch overhead is a fixed cost per
  // kernel (the kernel *count* does not grow with n), so scaling it
  // linearly with the per-element work would distort small-n measurements.
  // scaled = (measured - launches) * scale + launches.
  const f64 launch_ms = kernels * opt.profile().kernel_launch_us * 1e-3;
  const f64 raw_total = m.stages.total();
  const f64 scaled_total =
      std::max(raw_total, (raw_total - launch_ms) * opt.scale() + launch_ms);
  const f64 ratio = raw_total > 0 ? scaled_total / raw_total : 1.0;
  m.stages.prescan_ms *= ratio;
  m.stages.scan_ms *= ratio;
  m.stages.postscan_ms *= ratio;
  m.total_ms = m.stages.total();
  const f64 paper_n = std::ldexp(1.0, static_cast<int>(opt.paper_log2_n));
  m.rate_gkeys = paper_n / (m.total_ms * 1e-3) / 1e9;
  return m;
}

/// Run one multisplit (key-only or key-value) on a fresh device.  When
/// `sites_out` is given, the device's per-access-site counters are copied
/// there; when `metrics_out` is given, the full derived-metrics report of
/// the run lands there (metrics.hpp); when the Options carry a --trace
/// path, the first run in the process also writes its Chrome trace.
inline split::MultisplitResult run_multisplit(
    const Options& opt, split::Method method, u32 m, bool key_value,
    workload::Distribution dist = workload::Distribution::kUniform,
    u64 seed_salt = 0, u32 warps_per_block = 8,
    std::vector<sim::SiteStats>* sites_out = nullptr,
    sim::MetricsReport* metrics_out = nullptr) {
  workload::WorkloadConfig wc;
  wc.dist = dist;
  wc.m = m;
  wc.seed = 0xABCDE + seed_salt * 7919;
  const u64 n = opt.n();
  const auto host = workload::generate_keys(n, wc);
  sim::Device dev(opt.profile());
  // Like --trace: the first run in the process gets the telemetry timeline
  // (benches with their own serving loop, e.g. plan_reuse, wire the flag
  // to that loop's device instead before any run_multisplit happens).
  const bool telemetry_here =
      !opt.telemetry_path.empty() && !opt.telemetry_written;
  if (telemetry_here) dev.enable_telemetry();
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = opt.method.value_or(method);
  cfg.warps_per_block = warps_per_block;
  // Plan-API path: build once (validates config, resolves kAuto), run once.
  // The device is fresh, so modeled costs equal the pre-plan free-function
  // path bit for bit.
  const split::MultisplitPlan plan(dev, n, m, cfg,
                                   key_value ? static_cast<u32>(sizeof(u32))
                                             : 0);
  const auto finish = [&](split::MultisplitResult r) {
    if (sites_out != nullptr) *sites_out = dev.site_stats();
    if (metrics_out != nullptr) *metrics_out = sim::analyze_device(dev);
    if (!opt.trace_path.empty() && !opt.trace_written)
      opt.trace_written = sim::write_chrome_trace_file(dev, opt.trace_path);
    if (telemetry_here && dev.telemetry() != nullptr) {
      dev.telemetry()->sample_now();
      opt.telemetry_written = sim::write_timeline_jsonl_file(
          opt.telemetry_path, *dev.telemetry(), "bench", opt.profile().name);
    }
    return r;
  };
  if (!key_value) {
    return finish(plan.run(in, out, split::RangeBucket{m}));
  }
  const auto vals = workload::identity_values(n);
  sim::DeviceBuffer<u32> vin(dev, std::span<const u32>(vals));
  sim::DeviceBuffer<u32> kout(dev, n), vout(dev, n);
  return finish(plan.run_pairs(in, vin, kout, vout, split::RangeBucket{m}));
}

/// Full radix sort baseline (Table 3 / Table 6 denominator).
inline split::MultisplitResult run_radix_baseline(const Options& opt, u32 m,
                                                  bool key_value,
                                                  u64 seed_salt = 0) {
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = 0xFACE + seed_salt * 104729;
  const u64 n = opt.n();
  const auto host = workload::generate_keys(n, wc);
  sim::Device dev(opt.profile());
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  if (!key_value) {
    return split::radix_sort_multisplit_keys(dev, in, out, m,
                                             split::RangeBucket{m});
  }
  const auto vals = workload::identity_values(n);
  sim::DeviceBuffer<u32> vin(dev, std::span<const u32>(vals));
  sim::DeviceBuffer<u32> kout(dev, n), vout(dev, n);
  return split::radix_sort_multisplit_pairs(dev, in, vin, kout, vout, m,
                                            split::RangeBucket{m});
}

/// RAII writer for a bench's --json report.  Opens the file, emits the
/// shared header (bench name, device, sizes, trials), and positions the
/// writer inside a "results" array; the bench appends one object per
/// measurement and the destructor closes everything.
class JsonReport {
 public:
  JsonReport(const Options& opt, const char* bench) {
    if (opt.json_path.empty()) return;
    out_.open(opt.json_path);
    if (!out_) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   opt.json_path.c_str());
      std::exit(2);
    }
    w_.emplace(out_);
    w_->begin_object();
    w_->field("bench", bench);
    w_->field("schema_version", sim::kReportSchemaVersion);
    w_->field("device", opt.profile().name);
    // A host_* field, never compared by ms_cli diff: records which host lane
    // engine produced the run (modeled results are backend-invariant).
    w_->field("host_simd", sim::simd::backend_name());
    w_->field("log2_n", opt.log2_n);
    w_->field("paper_log2_n", opt.paper_log2_n);
    w_->field("trials", opt.trials);
    w_->key("results").begin_array();
  }
  ~JsonReport() {
    if (w_) {
      w_->end_array().end_object();
      out_ << "\n";
    }
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return w_.has_value(); }
  sim::JsonWriter& writer() { return *w_; }

 private:
  std::ofstream out_;
  std::optional<sim::JsonWriter> w_;
};

/// Emit the non-empty per-site counter slices as a JSON array: label, all
/// raw counters, and the site's counter-only derived metrics (coalescing,
/// over-fetch, bank-conflict and divergence ratios -- see metrics.hpp).
inline void write_site_array(sim::JsonWriter& w,
                             const std::vector<sim::SiteStats>& sites,
                             const sim::DeviceProfile& prof) {
  w.begin_array();
  for (const auto& s : sites) {
    if (s.events == sim::KernelEvents{}) continue;
    sim::write_site_json(w, s.label, s.events, prof);
  }
  w.end_array();
}

inline f64 geomean(const std::vector<f64>& xs) {
  f64 acc = 0.0;
  for (f64 x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<f64>(xs.size()));
}

}  // namespace ms::bench
