// ms_cli: run any multisplit method on a synthetic workload from the
// command line and inspect timing, throughput and event counters --
// a quick way to explore the implementation space without writing code.
//
//   $ ms_cli --method warp --m 8 --n 20 --dist binomial --kv
//   $ ms_cli --method all --m 32 --device 750ti
//   $ ms_cli --method warp --m 32 --trace out.json   # Perfetto timeline
//   $ ms_cli --method all --sites                    # per-site counters
//   $ ms_cli --method all --sanitize=memcheck,racecheck,initcheck
//   $ ms_cli metrics --method warp --m 32          # nsight-style report
//   $ ms_cli diff base.json cur.json               # run-diff regression gate
//   $ ms_cli --list
//
// With --sanitize, runs continue past faults (the compute-sanitizer model:
// a faulting launch is aborted and recorded, later launches proceed) and a
// report is printed per method; the exit code is 1 if any errors were found.
//
// `diff` compares two --json reports (from ms_cli or the benches)
// value-by-value with exact matching by default; exit 0 = no drift,
// 1 = drift found, 2 = unusable input (bad file / schema mismatch).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <iostream>

#include "multisplit/chaos_campaign.hpp"
#include "multisplit/multisplit.hpp"
#include "multisplit/serving.hpp"
#include "multisplit/sort_baselines.hpp"
#include "sim/cost_model.hpp"
#include "sim/flags.hpp"
#include "sim/metrics.hpp"
#include "sim/span.hpp"
#include "sim/telemetry.hpp"
#include "workload/distributions.hpp"

using namespace ms;

namespace {

/// All concrete methods, dispatch-table order (the `--method all` sweep).
std::vector<split::Method> concrete_methods() {
  std::vector<split::Method> out;
  for (u32 i = 0; i < split::kConcreteMethodCount; ++i)
    out.push_back(static_cast<split::Method>(i));
  return out;
}

const std::map<std::string, workload::Distribution> kDists = {
    {"uniform", workload::Distribution::kUniform},
    {"binomial", workload::Distribution::kBinomial},
    {"skewed", workload::Distribution::kSkewedOne},
    {"identity", workload::Distribution::kIdentity},
    {"sorted", workload::Distribution::kSortedUniform},
};

using sim::parse_flag;
using sim::parse_flag_in;
using sim::UsageError;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [run] [options]\n"
      "       %s <subcommand> [args]   (run, metrics, diff, top, tail, "
      "chaos, serve)\n"
      "run options ('run' may be omitted):\n"
      "  --method <name|all>   auto (paper-guided selection) or one of:",
      argv0, argv0);
  for (const auto meth : concrete_methods())
    std::printf(" %s", split::method_token(meth).c_str());
  std::printf(
      "\n"
      "  --m <buckets>         bucket count (default 8)\n"
      "  --n <log2 keys>       input size as a power of two (default 20)\n"
      "  --dist <name>         uniform|binomial|skewed|identity|sorted\n"
      "  --device <name>       k40c (default) | 750ti | sol\n"
      "  --kv                  key-value instead of key-only\n"
      "  --nw <warps>          warps per block (default 8)\n"
      "  --ipt <items>         items per thread, warp methods (default 1)\n"
      "  --seed <u64>          workload seed\n"
      "  --host-threads <k>    simulator worker threads, at most 256 "
      "(default:\n"
      "                        MS_HOST_THREADS or the hardware concurrency;\n"
      "                        modeled results are identical for every k)\n"
      "  --sites               print per-access-site counters\n"
      "  --sanitize <tools>    memcheck,racecheck,initcheck (or all|none)\n"
      "  --json <file>         write a machine-readable report\n"
      "  --trace <file>        write a Chrome/Perfetto trace (single method)\n"
      "  --spans <file>        write the request span dump (single method;\n"
      "                        analyze with `ms_cli tail`)\n"
      "  --list                list methods and exit\n"
      "  --version             print the report schema version and exit\n"
      "subcommands:\n"
      "  run [options]         run one method on a synthetic workload (the\n"
      "                        default when no subcommand is given)\n"
      "  metrics [options]     run and print the derived-metrics report\n"
      "                        (speed of light, coalescing, divergence,\n"
      "                        guided analysis)\n"
      "  diff <baseline.json> <current.json> [--tolerance <pct>]\n"
      "       [--json <file>]  compare two reports; exit 1 on drift\n"
      "  top <timeline.jsonl>  render the latest telemetry snapshot of a\n"
      "                        --telemetry timeline as Prometheus text\n"
      "                        (+ latency percentile table)\n"
      "  tail <spans.jsonl> [--top N]\n"
      "                        tail-latency attribution over a --spans dump:\n"
      "                        p99 tail set, ranked per-category critical\n"
      "                        path, slowest-N request trees\n"
      "  chaos [--requests N] [--n <log2>] [--m <buckets>] [--seed <u64>]\n"
      "        [--chaos-seed <u64>] [--spans <file>]\n"
      "                        run a deterministic fault-injection campaign\n"
      "                        over the resilient executor; exit 1 unless\n"
      "                        every injected fault was recovered or\n"
      "                        surfaced as a structured error\n"
      "  serve [--requests N] [--batch B] [--linger <ms>] [--seed <u64>]\n"
      "        [--device k40c|750ti|sol]\n"
      "                        drive the async batched serving executor\n"
      "                        over a stream of tiny mixed-shape requests\n"
      "                        (sub-warp/warp packing into fused launches)\n"
      "                        and print the batching report; exit 1 if any\n"
      "                        request failed\n");
}

struct Args {
  std::string method = "block";
  u32 m = 8;
  u32 log2_n = 20;
  std::string dist = "uniform";
  std::string device = "k40c";
  bool kv = false;
  u32 nw = 8;
  u32 ipt = 1;
  u64 seed = 0xC0FFEE;
  bool sites = false;
  bool metrics = false;
  std::string sanitize;
  std::string json_path;
  std::string trace_path;
  std::string spans_path;
};

/// Runs one method; returns the number of sanitizer errors found.
u64 run_one(const Args& a, const std::string& name, split::Method method,
            const sim::SanitizerConfig* scfg, sim::JsonWriter* jw) {
  workload::WorkloadConfig wc;
  wc.dist = kDists.at(a.dist);
  wc.m = a.m;
  wc.seed = a.seed;
  const u64 n = u64{1} << a.log2_n;
  const auto host = workload::generate_keys(n, wc);

  sim::DeviceProfile prof = sim::DeviceProfile::tesla_k40c();
  if (a.device == "750ti") prof = sim::DeviceProfile::gtx_750_ti();
  if (a.device == "sol") prof = sim::DeviceProfile::speed_of_light();
  sim::Device dev(prof);
  if (scfg != nullptr) dev.sanitizer().configure(*scfg);
  if (!a.spans_path.empty()) dev.enable_spans();

  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host), "in"),
      out(dev, n, "out");
  split::MultisplitConfig cfg;
  cfg.method = method;
  cfg.warps_per_block = a.nw;
  cfg.items_per_thread = a.ipt;

  split::MultisplitResult r;
  const auto host_t0 = std::chrono::steady_clock::now();
  try {
    // Build the plan once (validates the config and resolves kAuto before
    // any device work), then run it through the plan API.
    const split::MultisplitPlan plan(dev, n, a.m, cfg,
                                     a.kv ? static_cast<u32>(sizeof(u32)) : 0);
    if (a.kv) {
      const auto vals = workload::identity_values(n);
      sim::DeviceBuffer<u32> vin(dev, std::span<const u32>(vals), "vin");
      sim::DeviceBuffer<u32> kout(dev, n, "kout"), vout(dev, n, "vout");
      r = plan.run_pairs(in, vin, kout, vout, split::RangeBucket{a.m});
    } else {
      r = plan.run(in, out, split::RangeBucket{a.m});
    }
  } catch (const std::logic_error& e) {
    std::printf("%-16s unsupported for this configuration: %s\n", name.c_str(),
                e.what());
    return dev.sanitizer().error_count();
  }
  const auto host_t1 = std::chrono::steady_clock::now();
  const f64 host_ms =
      std::chrono::duration<f64, std::milli>(host_t1 - host_t0).count();

  if (const auto fault = dev.take_last_error()) {
    // A launch was aborted mid-run (sanitizer armed, reporting mode); the
    // timing summary would be meaningless, so print the fault instead.
    std::printf("%-16s launch aborted by fault:\n%s", name.c_str(),
                sim::format_fault(*fault).c_str());
    const std::string rep = dev.sanitizer().format_reports();
    if (!rep.empty()) std::printf("%s", rep.c_str());
    return dev.sanitizer().error_count();
  }

  const auto& ev = r.summary.events;
  // With --method auto, show what the plan resolved to.
  const std::string shown =
      method == split::Method::kAuto
          ? name + "->" + split::method_token(r.method_selected)
          : name;
  std::printf(
      "%-16s %9.3f ms (%6.2f Gkeys/s) | pre %7.3f scan %7.3f post %7.3f | "
      "coalescing %4.0f%% | %llu kernels\n",
      shown.c_str(), r.total_ms(),
      static_cast<f64>(n) / (r.total_ms() * 1e6), r.stages.prescan_ms,
      r.stages.scan_ms, r.stages.postscan_ms,
      100.0 * sim::coalescing_efficiency(ev, dev.profile()),
      static_cast<unsigned long long>(r.summary.kernels));

  const auto& sites = dev.site_stats();
  if (a.sites) {
    std::printf("  %-28s %12s %10s %10s %10s %6s\n", "site", "issue_slots",
                "replays", "dram_rd", "dram_wr", "coal%");
    for (const auto& s : sites) {
      if (s.events == sim::KernelEvents{}) continue;
      std::printf("  %-28s %12llu %10llu %10llu %10llu %5.0f%%\n",
                  s.label.c_str(),
                  static_cast<unsigned long long>(s.events.issue_slots),
                  static_cast<unsigned long long>(s.events.scatter_replays),
                  static_cast<unsigned long long>(s.events.dram_read_tx),
                  static_cast<unsigned long long>(s.events.dram_write_tx),
                  100.0 * sim::coalescing_efficiency(s.events, dev.profile()));
    }
  }
  sim::MetricsReport mrep = sim::analyze_device(dev);
  if (a.metrics) std::printf("\n%s\n", sim::format_metrics(mrep).c_str());
  if (jw != nullptr) {
    auto& w = *jw;
    w.begin_object();
    w.field("method", name);
    w.field("method_selected", split::method_token(r.method_selected));
    w.field("total_ms", r.total_ms());
    w.field("rate_gkeys", static_cast<f64>(n) / (r.total_ms() * 1e6));
    w.field("host_ms", host_ms);
    w.field("host_keys_per_sec",
            host_ms > 0 ? static_cast<f64>(n) / (host_ms * 1e-3) : 0.0);
    // "kernel_launches", not "kernels": write_metrics_json below emits the
    // per-kernel-group "kernels" array and JSON keys must stay unique.
    w.field("kernel_launches", r.summary.kernels);
    w.key("stages").begin_object();
    w.field("prescan_ms", r.stages.prescan_ms);
    w.field("scan_ms", r.stages.scan_ms);
    w.field("postscan_ms", r.stages.postscan_ms);
    w.end_object();
    w.field("coalescing_pct",
            100.0 * sim::coalescing_efficiency(ev, dev.profile()));
    w.key("sites").begin_array();
    for (const auto& s : sites) {
      if (s.events == sim::KernelEvents{}) continue;
      sim::write_site_json(w, s.label, s.events, dev.profile());
    }
    w.end_array();
    sim::write_metrics_json(w, mrep);
    w.end_object();
  }
  if (!a.trace_path.empty()) {
    if (!sim::write_chrome_trace_file(dev, a.trace_path))
      std::printf("warning: could not write trace to '%s'\n",
                  a.trace_path.c_str());
  }
  if (!a.spans_path.empty()) {
    if (!sim::write_spans_jsonl_file(a.spans_path, *dev.spans(), "ms_cli",
                                     dev.profile().name))
      std::printf("warning: could not write spans to '%s'\n",
                  a.spans_path.c_str());
  }
  if (dev.sanitizer().any()) {
    const std::string rep = dev.sanitizer().format_reports();
    if (!rep.empty()) std::printf("%s", rep.c_str());
  }
  return dev.sanitizer().error_count();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// `ms_cli diff <baseline.json> <current.json>`: the run-diff regression
/// gate.  Exit 0 = reports match (within --tolerance), 1 = drift found,
/// 2 = unusable input.
int cmd_diff(int argc, char** argv) {
  std::vector<std::string> paths;
  sim::DiffOptions opts;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&] {
      if (i + 1 >= argc) {
        throw UsageError(std::string("missing value for ") + argv[i]);
      }
      return std::string(argv[++i]);
    };
    if (!std::strcmp(argv[i], "--tolerance")) {
      opts.tolerance = parse_flag<f64>("--tolerance", next()) / 100.0;
    } else if (!std::strcmp(argv[i], "--json")) {
      json_path = next();
    } else if (argv[i][0] == '-') {
      std::printf("diff: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2) {
    std::printf("usage: ms_cli diff <baseline.json> <current.json> "
                "[--tolerance <pct>] [--json <file>]\n");
    return 2;
  }

  sim::JsonValue base, cur;
  try {
    for (int side = 0; side < 2; ++side) {
      const auto text = read_file(paths[side]);
      if (!text) {
        std::printf("diff: cannot read '%s'\n", paths[side].c_str());
        return 2;
      }
      (side == 0 ? base : cur) = sim::parse_json(*text);
    }
  } catch (const std::runtime_error& e) {
    std::printf("diff: malformed JSON: %s\n", e.what());
    return 2;
  }

  sim::DiffResult res;
  try {
    res = sim::diff_reports(base, cur, opts);
  } catch (const std::runtime_error& e) {
    std::printf("diff: %s\n", e.what());
    return 2;
  }

  std::printf("comparing baseline %s vs current %s (schema v%u, tolerance "
              "%g%%)\n",
              paths[0].c_str(), paths[1].c_str(), sim::kReportSchemaVersion,
              opts.tolerance * 100.0);
  for (const auto& f : res.findings) {
    std::printf("  DRIFT %s: %s\n", f.path.c_str(), f.note.c_str());
  }
  if (res.total_findings > res.findings.size()) {
    std::printf("  ... (%llu more finding(s) suppressed)\n",
                static_cast<unsigned long long>(res.total_findings -
                                                res.findings.size()));
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::printf("diff: cannot open '%s' for writing\n", json_path.c_str());
      return 2;
    }
    sim::JsonWriter w(os);
    w.begin_object();
    w.field("tool", "ms_cli diff");
    w.field("schema_version", sim::kReportSchemaVersion);
    w.field("baseline", paths[0]);
    w.field("current", paths[1]);
    w.field("tolerance_pct", opts.tolerance * 100.0);
    w.field("values_compared", res.values_compared);
    w.field("total_findings", res.total_findings);
    w.key("findings").begin_array();
    for (const auto& f : res.findings) {
      w.begin_object();
      w.field("path", f.path);
      w.field("note", f.note);
      w.field("drift", f.drift);
      w.end_object();
    }
    w.end_array().end_object();
    os << "\n";
  }

  if (res.total_findings > 0) {
    std::printf("ms_cli diff: FAIL -- %llu finding(s) across %llu compared "
                "values\n",
                static_cast<unsigned long long>(res.total_findings),
                static_cast<unsigned long long>(res.values_compared));
    return 1;
  }
  std::printf("ms_cli diff: OK -- %llu values compared, zero drift\n",
              static_cast<unsigned long long>(res.values_compared));
  return 0;
}

/// `ms_cli top <timeline.jsonl>`: one-shot Prometheus-text render of the
/// latest snapshot of a --telemetry timeline.  Exit 0 = rendered, 2 =
/// unusable input (missing file, malformed line, schema mismatch, empty
/// timeline).
int cmd_top(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::printf("usage: ms_cli top <timeline.jsonl>\n");
    return 2;
  }
  std::ifstream is(argv[1]);
  if (!is) {
    std::printf("top: cannot read '%s'\n", argv[1]);
    return 2;
  }
  std::string line, last;
  bool saw_header = false;
  u64 line_no = 0;
  u64 last_no = 0;  // line number of `last`, for diagnostics
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!saw_header) {
      // Line 1 is the timeline header: check provenance and schema before
      // trusting any snapshot line (the diff-tool convention).
      try {
        const sim::JsonValue h = sim::parse_json(line);
        const sim::JsonValue* tag = h.find("telemetry");
        if (tag == nullptr || tag->str != "timeline") {
          std::printf("top: '%s' is not a telemetry timeline\n", argv[1]);
          return 2;
        }
        const u64 ver = h.at_u64("schema_version");
        if (ver != sim::kReportSchemaVersion) {
          std::printf("top: schema v%llu, this tool expects v%u\n",
                      static_cast<unsigned long long>(ver),
                      sim::kReportSchemaVersion);
          return 2;
        }
      } catch (const std::runtime_error& e) {
        std::printf("top: malformed header: %s\n", e.what());
        return 2;
      }
      saw_header = true;
      continue;
    }
    last = line;
    last_no = line_no;
  }
  if (!saw_header || last.empty()) {
    std::printf("top: '%s' has no snapshots\n", argv[1]);
    return 2;
  }

  sim::TelemetrySnapshot snap;
  try {
    const sim::JsonValue v = sim::parse_json(last);
    snap.seq = v.at_u64("seq");
    snap.host_ms = v.at("host_ms").number;
    snap.modeled_ms = v.at("modeled_ms").number;
    for (const auto& [name, val] : v.at("scalars").object) {
      snap.scalars.push_back({name, val.number});
    }
    for (const auto& [name, h] : v.at("histograms").object) {
      sim::HistogramSample out;
      out.name = name;
      out.count = h.at_u64("count");
      out.sum_ms = h.at("sum_ms").number;
      out.min_ms = h.at("min_ms").number;
      out.max_ms = h.at("max_ms").number;
      out.p50_ms = h.at("p50_ms").number;
      out.p95_ms = h.at("p95_ms").number;
      out.p99_ms = h.at("p99_ms").number;
      out.p999_ms = h.at("p999_ms").number;
      // Exemplar trace ids are only written when a traced request landed in
      // the percentile's bucket -- optional on read too.
      const auto trace = [&h](const char* key) -> u64 {
        return h.find(key) != nullptr ? h.at_u64(key) : 0;
      };
      out.p50_trace = trace("p50_trace");
      out.p95_trace = trace("p95_trace");
      out.p99_trace = trace("p99_trace");
      out.p999_trace = trace("p999_trace");
      out.max_trace = trace("max_trace");
      snap.histograms.push_back(std::move(out));
    }
  } catch (const std::runtime_error& e) {
    std::printf("top: malformed snapshot (line %llu): %s\n",
                static_cast<unsigned long long>(last_no), e.what());
    return 2;
  }
  sim::write_prometheus(std::cout, snap);
  return 0;
}

// ---------------------------------------------------------------------------
// `ms_cli tail`: tail-latency attribution over a span dump
// ---------------------------------------------------------------------------

/// One span line of a --spans JSONL dump, reduced to what attribution needs.
struct TailSpan {
  u64 span = 0, parent = 0, trace = 0;
  std::string kind, name;
  f64 begin_ms = 0.0, end_ms = 0.0;
  f64 overhead_ms = 0.0, backoff_ms = 0.0;
  std::vector<std::string> events;  // "what" or "what detail" per event
  bool closed = false;

  f64 dur_ms() const { return end_ms - begin_ms; }
};

/// Per-request roll-up: total modeled latency and its category breakdown.
struct TailRequest {
  u64 trace = 0;
  u64 root = 0;  // span_id of the request span
  std::string method;
  f64 total_ms = 0.0;       // (end - begin) + backoff
  f64 attributed_ms = 0.0;  // sum over categories (== total by construction)
  std::map<std::string, f64> by_category;
};

/// Loads a span dump; returns std::nullopt (with a printed diagnostic)
/// when the file is missing, malformed or from another schema version.
std::optional<std::vector<TailSpan>> load_span_dump(const char* path) {
  std::ifstream is(path);
  if (!is) {
    std::printf("tail: cannot read '%s'\n", path);
    return std::nullopt;
  }
  std::vector<TailSpan> spans;
  std::string line;
  bool saw_header = false;
  u64 line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const sim::JsonValue v = sim::parse_json(line);
      if (!saw_header) {
        const sim::JsonValue* tag = v.find("spans");
        if (tag == nullptr || tag->str != "trace") {
          std::printf("tail: '%s' is not a span dump\n", path);
          return std::nullopt;
        }
        const u64 ver = v.at_u64("schema_version");
        if (ver != sim::kReportSchemaVersion) {
          std::printf("tail: schema v%llu, this tool expects v%u\n",
                      static_cast<unsigned long long>(ver),
                      sim::kReportSchemaVersion);
          return std::nullopt;
        }
        saw_header = true;
        continue;
      }
      TailSpan s;
      s.span = v.at_u64("span");
      // A parent is always opened before its child (ids follow open
      // order), so parent < span; anything else is a hostile or corrupt
      // dump whose parent walks would loop or index out of range.
      s.parent = v.at_u64("parent");
      if (s.parent > spans.size()) {
        throw std::runtime_error("parent must name an earlier span or 0");
      }
      s.trace = v.at_u64("trace");
      s.kind = v.at("kind").str;
      s.name = v.at("name").str;
      s.begin_ms = v.at("begin_ms").number;
      s.end_ms = v.at("end_ms").number;
      if (const auto* o = v.find("overhead_ms")) s.overhead_ms = o->number;
      if (const auto* b = v.find("backoff_ms")) s.backoff_ms = b->number;
      if (const auto* ev = v.find("events")) {
        for (const sim::JsonValue& e : ev->array) {
          std::string what = e.at("what").str;
          if (const auto* d = e.find("detail"); d != nullptr && !d->str.empty())
            what += " " + d->str;
          if (const auto* f = e.find("fault")) {
            what += " (" + f->at("kind").str + " in " + f->at("kernel").str +
                    ")";
          }
          s.events.push_back(std::move(what));
        }
      }
      s.closed = v.at("closed").boolean;
      if (s.span != spans.size() + 1) {
        std::printf("tail: non-contiguous span ids at line %llu\n",
                    static_cast<unsigned long long>(line_no));
        return std::nullopt;
      }
      spans.push_back(std::move(s));
    } catch (const std::runtime_error& e) {
      std::printf("tail: malformed line %llu: %s\n",
                  static_cast<unsigned long long>(line_no), e.what());
      return std::nullopt;
    }
  }
  if (!saw_header) {
    std::printf("tail: '%s' has no header line\n", path);
    return std::nullopt;
  }
  return spans;
}

/// Critical-path attribution for one request: every modeled millisecond of
/// the request lands in exactly one category.
///
/// The simulator's clock only advances inside kernels (launch spans), so a
/// request decomposes exactly into its launch spans plus retry backoff:
///   - per launch, the fixed launch overhead -> "launch overhead";
///   - the remainder of the launch -> "stage:<innermost enclosing stage>"
///     (or "unstaged kernel" for launches outside any sim::Stage);
///   - the request's accumulated retry backoff -> "retry backoff".
/// Anything left over (zero by construction) is reported as "unattributed"
/// so a broken dump is visible rather than silently renormalized.
TailRequest attribute_request(const std::vector<TailSpan>& spans,
                              const TailSpan& req) {
  TailRequest out;
  out.trace = req.trace;
  out.root = req.span;
  out.method = req.name;
  out.total_ms = req.dur_ms() + req.backoff_ms;
  if (req.backoff_ms > 0.0) {
    out.by_category["retry backoff"] += req.backoff_ms;
    out.attributed_ms += req.backoff_ms;
  }
  for (const TailSpan& s : spans) {
    if (s.kind != "launch" || !s.closed || s.trace != req.trace) continue;
    // Confirm the launch actually descends from this request span (trace
    // ids are per-request in practice, but the parent chain is the truth).
    bool under = false;
    std::string stage = "unstaged kernel";
    bool stage_found = false;
    for (u64 p = s.parent; p != 0; p = spans[p - 1].parent) {
      const TailSpan& a = spans[p - 1];
      if (!stage_found && a.kind == "stage") {
        stage = "stage:" + a.name;
        stage_found = true;
      }
      if (p == req.span) {
        under = true;
        break;
      }
    }
    if (!under) continue;
    const f64 overhead = std::min(s.overhead_ms, s.dur_ms());
    out.by_category["launch overhead"] += overhead;
    out.by_category[stage] += s.dur_ms() - overhead;
    out.attributed_ms += s.dur_ms();
  }
  const f64 leftover = out.total_ms - out.attributed_ms;
  if (leftover > 1e-12 * std::max(1.0, out.total_ms)) {
    out.by_category["unattributed"] += leftover;
  }
  return out;
}

/// Renders one request's span tree (the slowest-N drill-down).
void print_span_tree(const std::vector<TailSpan>& spans, u64 root_span,
                     u32 depth) {
  const TailSpan& s = spans[root_span - 1];
  std::printf("  %*s%s:%s  %.6f ms", static_cast<int>(depth * 2), "",
              s.kind.c_str(), s.name.c_str(), s.dur_ms());
  if (s.backoff_ms > 0.0) std::printf(" (+%.3f ms backoff)", s.backoff_ms);
  std::printf("\n");
  for (const std::string& ev : s.events) {
    std::printf("  %*s! %s\n", static_cast<int>(depth * 2 + 2), "",
                ev.c_str());
  }
  for (const TailSpan& c : spans) {
    if (c.parent == root_span) print_span_tree(spans, c.span, depth + 1);
  }
}

/// `ms_cli tail <spans.jsonl> [--top N]`: per-request critical-path roll-up
/// of a span dump, the tail set (requests at or above the exact p99 total),
/// the ranked category attribution over that tail, and the slowest N
/// request trees.  Exit 0 = rendered, 2 = unusable input.
int cmd_tail(int argc, char** argv) {
  const char* path = nullptr;
  u64 top_n = 5;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--top") && i + 1 < argc) {
      top_n = parse_flag<u64>("--top", argv[++i]);
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      std::printf("usage: ms_cli tail <spans.jsonl> [--top N]\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::printf("usage: ms_cli tail <spans.jsonl> [--top N]\n");
    return 2;
  }
  const auto spans = load_span_dump(path);
  if (!spans) return 2;

  std::vector<TailRequest> reqs;
  for (const TailSpan& s : *spans) {
    if (s.kind == "request" && s.closed) {
      reqs.push_back(attribute_request(*spans, s));
    }
  }
  if (reqs.empty()) {
    std::printf("tail: '%s' contains no closed request spans\n", path);
    return 2;
  }

  // Exact p99 by nearest rank over the sorted totals; the tail set is
  // every request at or above it.
  std::vector<f64> totals;
  totals.reserve(reqs.size());
  for (const TailRequest& r : reqs) totals.push_back(r.total_ms);
  std::sort(totals.begin(), totals.end());
  const std::size_t rank =
      (totals.size() * 99 + 99) / 100;  // ceil(0.99 * count), 1-based
  const f64 p99 = totals[std::min(rank, totals.size()) - 1];

  std::vector<const TailRequest*> tail;
  for (const TailRequest& r : reqs) {
    if (r.total_ms >= p99) tail.push_back(&r);
  }
  // Slowest first; trace id breaks ties so the listing is deterministic.
  std::sort(tail.begin(), tail.end(),
            [](const TailRequest* a, const TailRequest* b) {
              if (a->total_ms != b->total_ms) return a->total_ms > b->total_ms;
              return a->trace < b->trace;
            });

  std::printf("span dump: %s (%llu spans, %llu requests)\n", path,
              static_cast<unsigned long long>(spans->size()),
              static_cast<unsigned long long>(reqs.size()));
  std::printf("p99 request latency: %.6f ms; tail set: %llu request(s)\n\n",
              p99, static_cast<unsigned long long>(tail.size()));

  // Ranked category table over the tail set.
  std::map<std::string, f64> categories;
  f64 tail_total = 0.0, tail_attributed = 0.0;
  for (const TailRequest* r : tail) {
    tail_total += r->total_ms;
    tail_attributed += r->attributed_ms;
    for (const auto& [cat, ms] : r->by_category) categories[cat] += ms;
  }
  std::vector<std::pair<std::string, f64>> ranked(categories.begin(),
                                                  categories.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::printf("tail-latency attribution (%llu request(s) >= p99)\n",
              static_cast<unsigned long long>(tail.size()));
  std::printf("  %-36s %12s %8s\n", "category", "ms", "share");
  for (const auto& [cat, ms] : ranked) {
    std::printf("  %-36s %12.6f %7.2f%%\n", cat.c_str(), ms,
                tail_total > 0.0 ? 100.0 * ms / tail_total : 0.0);
  }
  std::printf("  %-36s %12.6f %7.2f%%\n", "total", tail_total,
              tail_total > 0.0 ? 100.0 * tail_attributed / tail_total : 0.0);

  // Slowest-N drill-down over ALL requests (the tail set only scopes the
  // attribution table; --top can reach past it): full span tree with
  // events.
  std::vector<const TailRequest*> slowest;
  for (const TailRequest& r : reqs) slowest.push_back(&r);
  std::sort(slowest.begin(), slowest.end(),
            [](const TailRequest* a, const TailRequest* b) {
              if (a->total_ms != b->total_ms) return a->total_ms > b->total_ms;
              return a->trace < b->trace;
            });
  const u64 shown = std::min<u64>(top_n, slowest.size());
  std::printf("\nslowest %llu request(s)\n",
              static_cast<unsigned long long>(shown));
  for (u64 i = 0; i < shown; ++i) {
    const TailRequest& r = *slowest[i];
    std::printf("trace %llu  %s  total %.6f ms  (attributed %.2f%%)\n",
                static_cast<unsigned long long>(r.trace), r.method.c_str(),
                r.total_ms,
                r.total_ms > 0.0 ? 100.0 * r.attributed_ms / r.total_ms
                                 : 100.0);
    print_span_tree(*spans, r.root, 0);
  }
  return 0;
}

/// `ms_cli chaos [...]`: run one seeded fault-injection campaign and print
/// the recovery table.  Exit 0 = clean (every fault recovered or surfaced
/// as a structured error), 1 = silent wrong results or lost requests,
/// 2 = bad arguments.
int cmd_chaos(int argc, char** argv) {
  split::ChaosCampaignConfig cfg;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    const std::string arg = argv[i];
    std::optional<std::string> v;
    if (arg == "--requests" && (v = next())) {
      cfg.requests = parse_flag<u32>(arg, *v);
    } else if (arg == "--n" && (v = next())) {
      cfg.log2_n = parse_flag<u32>(arg, *v);
    } else if (arg == "--m" && (v = next())) {
      cfg.m = parse_flag<u32>(arg, *v);
    } else if (arg == "--seed" && (v = next())) {
      cfg.seed = parse_flag<u64>(arg, *v, 0);
    } else if (arg == "--chaos-seed" && (v = next())) {
      cfg.chaos.seed = parse_flag<u64>(arg, *v, 0);
    } else if (arg == "--device" && (v = next())) {
      cfg.profile = *v;
    } else if (arg == "--spans" && (v = next())) {
      spans_path = *v;
      cfg.record_spans = true;
    } else {
      std::printf(
          "chaos: unknown or incomplete option '%s'\n"
          "usage: ms_cli chaos [--requests N] [--n <log2>] [--m <buckets>]\n"
          "                    [--seed <u64>] [--chaos-seed <u64>]\n"
          "                    [--device k40c|750ti|sol]\n"
          "                    [--spans <file>]\n",
          arg.c_str());
      return 2;
    }
  }
  const split::ChaosCampaignReport rep = split::run_chaos_campaign(cfg);
  std::fputs(split::format_campaign(rep).c_str(), stdout);
  if (!spans_path.empty()) {
    std::ofstream os(spans_path);
    if (!os) {
      std::printf("chaos: cannot open '%s' for writing\n", spans_path.c_str());
      return 2;
    }
    os << rep.spans_jsonl;
    std::printf("spans: %s (feed to `ms_cli tail`)\n", spans_path.c_str());
  }
  return rep.clean() ? 0 : 1;
}

/// `ms_cli serve [...]`: drive the async batched serving executor over a
/// mixed stream of tiny multisplit requests and print the batching report.
/// Exit 0 = every request served, 1 = failed requests, 2 = bad arguments.
int cmd_serve(int argc, char** argv) {
  u64 requests = 4096;
  split::ServingPolicy policy;
  u64 seed = 0xABCDE;
  std::string device = "k40c";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    const std::string arg = argv[i];
    std::optional<std::string> v;
    if (arg == "--requests" && (v = next())) {
      requests = parse_flag<u64>(arg, *v);
    } else if (arg == "--batch" && (v = next())) {
      policy.max_batch = parse_flag<u32>(arg, *v);
    } else if (arg == "--linger" && (v = next())) {
      policy.max_linger_ms = parse_flag<f64>(arg, *v);
    } else if (arg == "--seed" && (v = next())) {
      seed = parse_flag<u64>(arg, *v, 0);
    } else if (arg == "--device" && (v = next())) {
      device = *v;
    } else {
      std::printf(
          "serve: unknown or incomplete option '%s'\n"
          "usage: ms_cli serve [--requests N] [--batch B] [--linger <ms>]\n"
          "                    [--seed <u64>] [--device k40c|750ti|sol]\n",
          arg.c_str());
      return 2;
    }
  }
  if (requests == 0 || policy.max_batch == 0) {
    std::printf("serve: --requests and --batch must be >= 1\n");
    return 2;
  }
  sim::DeviceProfile prof = sim::DeviceProfile::tesla_k40c();
  if (device == "750ti") prof = sim::DeviceProfile::gtx_750_ti();
  else if (device == "sol") prof = sim::DeviceProfile::speed_of_light();
  else if (device != "k40c") {
    std::printf("serve: unknown device '%s' (expected k40c, 750ti or sol)\n",
                device.c_str());
    return 2;
  }
  sim::Device dev(prof);
  split::ServingExecutor exec(dev, policy);

  // The serving-shape stream: tiny n, small m, every pack class
  // represented (sub-warp, warp-packed, and the plan fallback).
  static constexpr u64 kNs[] = {5, 8, 32, 96, 256, 1024};
  static constexpr u32 kMs[] = {2, 3, 4, 8, 16, 32};
  std::vector<split::ServeTicket> tickets;
  tickets.reserve(requests);
  workload::WorkloadConfig wc;
  for (u64 i = 0; i < requests; ++i) {
    const u32 m = kMs[(i / 6) % 6];
    wc.m = m;
    wc.seed = seed + i * 7919;
    tickets.push_back(exec.submit(workload::generate_keys(kNs[i % 6], wc), m,
                                  split::RangeBucket{m}));
  }
  exec.drain();

  u64 failed = 0, packed = 0;
  f64 packed_cost_ms = 0.0;
  for (const auto t : tickets) {
    const split::ServeResult& r = exec.get(t);
    if (r.failed) {
      if (failed == 0)
        std::printf("serve: request %" PRIu64 " failed: %s\n", t,
                    r.error.c_str());
      ++failed;
      continue;
    }
    if (r.packed) {
      ++packed;
      packed_cost_ms += r.modeled_cost_ms;
    }
  }
  const sim::BatchStats& bs = dev.batch_stats();
  const sim::MetricsReport rep = sim::analyze_device(dev);
  const f64 total_ms = dev.lifetime_ms();
  std::printf("serve: %" PRIu64 " requests, device %s, max_batch %u\n",
              requests, device.c_str(), policy.max_batch);
  std::printf("  batches            %" PRIu64 "\n", bs.batches);
  std::printf("  fused launches     %" PRIu64 "\n", bs.fused_launches);
  std::printf("  packed problems    %" PRIu64 "  (sub-warp/warp fused)\n",
              bs.packed_problems);
  std::printf("  unpacked problems  %" PRIu64 "  (plan fallback)\n",
              bs.unpacked_problems);
  std::printf("  slot fill ratio    %.1f%%\n", 100.0 * bs.fill_ratio());
  std::printf("  retried problems   %" PRIu64 "\n", bs.problems_retried);
  std::printf("  modeled time       %.3f ms  (%.0f requests/sec)\n", total_ms,
              static_cast<f64>(requests) / (total_ms * 1e-3));
  std::printf("  launch overhead    %.1f%% of modeled time (%" PRIu64
              " launches)\n",
              rep.aggregate.launch_overhead_pct, rep.launches);
  std::printf("  packed cost        %.3f ms closed-form across %" PRIu64
              " problems\n",
              packed_cost_ms, packed);
  if (failed > 0) {
    std::printf("serve: %" PRIu64 " of %" PRIu64 " requests FAILED\n", failed,
                requests);
    return 1;
  }
  std::printf("serve: all requests served\n");
  return 0;
}

int run_cli(int argc, char** argv) {
  if (argc > 1 && (!std::strcmp(argv[1], "--version") ||
                   !std::strcmp(argv[1], "-V"))) {
    std::printf("ms_cli report schema v%u\n", sim::kReportSchemaVersion);
    std::printf("host_simd %s\n", sim::simd::backend_name());
    return 0;
  }
  if (argc > 1 && !std::strcmp(argv[1], "diff")) {
    return cmd_diff(argc - 1, argv + 1);
  }
  if (argc > 1 && !std::strcmp(argv[1], "top")) {
    return cmd_top(argc - 1, argv + 1);
  }
  if (argc > 1 && !std::strcmp(argv[1], "tail")) {
    return cmd_tail(argc - 1, argv + 1);
  }
  if (argc > 1 && !std::strcmp(argv[1], "chaos")) {
    return cmd_chaos(argc - 1, argv + 1);
  }
  if (argc > 1 && !std::strcmp(argv[1], "serve")) {
    return cmd_serve(argc - 1, argv + 1);
  }
  Args a;
  int argi = 1;
  if (argc > 1 && !std::strcmp(argv[1], "metrics")) {
    a.metrics = true;
    argi = 2;
  } else if (argc > 1 && !std::strcmp(argv[1], "run")) {
    argi = 2;  // explicit form of the default subcommand
  } else if (argc > 1 && argv[1][0] != '-') {
    // A bare word that is not a known subcommand must not fall through to
    // flag parsing ("ms_cli metrcs" silently running the default method).
    std::printf("unknown subcommand '%s' (expected chaos, diff, metrics, "
                "run, serve, tail or top; try --help)\n",
                argv[1]);
    return 2;
  }
  for (int i = argi; i < argc; ++i) {
    const auto next = [&] {
      if (i + 1 >= argc) {
        throw UsageError(std::string("missing value for ") + argv[i]);
      }
      return std::string(argv[++i]);
    };
    if (!std::strcmp(argv[i], "--method")) a.method = next();
    else if (!std::strcmp(argv[i], "--m")) a.m = parse_flag<u32>("--m", next());
    else if (!std::strcmp(argv[i], "--n")) a.log2_n = parse_flag<u32>("--n", next());
    else if (!std::strcmp(argv[i], "--dist")) a.dist = next();
    else if (!std::strcmp(argv[i], "--device")) a.device = next();
    else if (!std::strcmp(argv[i], "--kv")) a.kv = true;
    else if (!std::strcmp(argv[i], "--nw")) a.nw = parse_flag<u32>("--nw", next());
    else if (!std::strcmp(argv[i], "--ipt")) a.ipt = parse_flag<u32>("--ipt", next());
    else if (!std::strcmp(argv[i], "--seed")) a.seed = parse_flag<u64>("--seed", next());
    else if (!std::strcmp(argv[i], "--host-threads")) {
      sim::set_default_host_threads(parse_flag_in<u32>(
          "--host-threads", next(), 0, sim::kMaxHostThreads));
    }
    else if (!std::strcmp(argv[i], "--sites")) a.sites = true;
    else if (!std::strcmp(argv[i], "--sanitize")) a.sanitize = next();
    else if (!std::strncmp(argv[i], "--sanitize=", 11)) a.sanitize = argv[i] + 11;
    else if (!std::strcmp(argv[i], "--json")) a.json_path = next();
    else if (!std::strcmp(argv[i], "--trace")) a.trace_path = next();
    else if (!std::strcmp(argv[i], "--spans")) a.spans_path = next();
    else if (!std::strcmp(argv[i], "--list")) {
      for (const auto meth : concrete_methods())
        std::printf("%-16s %s\n", split::method_token(meth).c_str(),
                    to_string(meth).c_str());
      std::printf("%-16s %s\n", "auto",
                  "paper-guided selection (warp/block/reduced-bit by m)");
      return 0;
    } else {
      usage(argv[0]);
      // --help exits 2 like every "did not run anything" path, so scripts
      // can tell "printed usage" from "ran a workload" (0) / "failed" (1).
      return std::strcmp(argv[i], "--help") == 0 ? 2 : 1;
    }
  }
  if (!kDists.contains(a.dist)) {
    std::printf("unknown distribution '%s'\n", a.dist.c_str());
    return 1;
  }
  if (a.device != "k40c" && a.device != "750ti" && a.device != "sol") {
    std::printf("unknown device '%s' (expected k40c, 750ti or sol)\n",
                a.device.c_str());
    return 1;
  }
  if (!a.trace_path.empty() && a.method == "all") {
    std::printf("--trace needs a single --method (one trace per device)\n");
    return 1;
  }
  if (!a.spans_path.empty() && a.method == "all") {
    std::printf("--spans needs a single --method (one dump per device)\n");
    return 1;
  }
  std::optional<sim::SanitizerConfig> scfg;
  if (!a.sanitize.empty()) {
    scfg = sim::SanitizerConfig::parse(a.sanitize);
    if (!scfg) {
      std::printf("unknown sanitizer tool in '%s' (expected "
                  "memcheck,racecheck,initcheck or all|none)\n",
                  a.sanitize.c_str());
      return 1;
    }
  }
  const sim::SanitizerConfig* scfgp = scfg ? &*scfg : nullptr;

  std::ofstream json_out;
  std::optional<sim::JsonWriter> jw;
  if (!a.json_path.empty()) {
    json_out.open(a.json_path);
    if (!json_out) {
      std::printf("cannot open '%s' for writing\n", a.json_path.c_str());
      return 1;
    }
    jw.emplace(json_out);
    jw->begin_object();
    jw->field("tool", "ms_cli");
    jw->field("schema_version", sim::kReportSchemaVersion);
    jw->field("log2_n", a.log2_n);
    jw->field("m", a.m);
    jw->field("dist", a.dist);
    jw->field("device", a.device);
    jw->field("key_value", a.kv);
    jw->key("results").begin_array();
  }
  sim::JsonWriter* jwp = jw ? &*jw : nullptr;

  std::printf("n = 2^%u, m = %u, %s, %s, %s\n\n", a.log2_n, a.m,
              a.dist.c_str(), a.kv ? "key-value" : "key-only",
              a.device.c_str());
  u64 sanitizer_errors = 0;
  if (a.method == "all") {
    for (const auto meth : concrete_methods())
      sanitizer_errors +=
          run_one(a, split::method_token(meth), meth, scfgp, jwp);
  } else if (const auto meth = split::parse_method(a.method)) {
    sanitizer_errors += run_one(a, a.method, *meth, scfgp, jwp);
  } else {
    std::printf("unknown method '%s'\n", a.method.c_str());
    usage(argv[0]);
    return 1;
  }
  if (jw) {
    jw->end_array().end_object();
    json_out << "\n";
  }
  if (sanitizer_errors > 0) {
    std::printf("\nsanitizer: %llu error(s) across methods\n",
                static_cast<unsigned long long>(sanitizer_errors));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const UsageError& e) {
    std::printf("usage error: %s; try --help\n", e.what());
    return 2;
  }
}
