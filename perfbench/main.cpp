// msbench: the repository benchmark's measuring program.
//
//   msbench --workload <bulk_oneshot|reuse_loop|tiny_stream> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Prints context lines, then one JSON object on the last line of stdout:
// the run conditions, correctness counts, the metrics (end-to-end with
// --trace 0, per-layer with --trace 1, each with its unit) and the
// deterministic modeled values.  perfbench/run.py builds this program,
// checks the modeled values across runs and reshapes the result.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "sim/simd.hpp"

namespace {

using perfbench::f64;
using perfbench::u32;
using perfbench::u64;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "msbench: %s\nusage: msbench --workload "
               "bulk_oneshot|reuse_loop|tiny_stream --seed <n> --seconds <s> "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value for a flag");
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (!std::strcmp(flag, "--workload")) {
      o.workload = value;
      seen_workload = true;
    } else if (!std::strcmp(flag, "--seed")) {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed needs a non-negative integer");
    } else if (!std::strcmp(flag, "--seconds")) {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("--seconds needs a number in (0, 600]");
      }
    } else if (!std::strcmp(flag, "--trace")) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace needs 0 or 1");
      }
      o.trace = value[0] == '1';
    } else {
      usage("unknown flag");
    }
  }
  if (!seen_workload) usage("--workload is required");
  return o;
}

/// CPUs this process may run on (what `nproc` prints).
u32 usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<u32>(std::max(1, CPU_COUNT(&set)));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(f64 v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  perfbench::Options opt = parse(argc, argv);
  opt.process_start = start;

  // Each of these switches the simulator onto another path than the one
  // the benchmark measures.
  for (const char* var : {"MS_REPLAY", "MS_SIMD", "MS_SANITIZE",
                          "MS_HOST_THREADS"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr,
                   "msbench: refusing to run with %s=%s set: it changes the "
                   "measured path; unset it\n",
                   var, v);
      return 2;
    }
  }
  const u32 nproc = usable_cpus();
  opt.threads = std::min<u32>(4, nproc);
  ms::sim::set_default_host_threads(opt.threads);

  perfbench::Report rep;
  if (opt.workload == "bulk_oneshot") {
    rep = perfbench::run_bulk_oneshot(opt);
  } else if (opt.workload == "reuse_loop") {
    rep = perfbench::run_reuse_loop(opt);
  } else if (opt.workload == "tiny_stream") {
    rep = perfbench::run_tiny_stream(opt);
  } else {
    usage("unknown workload");
  }

  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) rep.errors.push_back(name + " is not finite");
  }
  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  for (const std::string& err : rep.errors) {
    std::printf("ERROR: %s\n", err.c_str());
  }

  std::string out = "{\"workload\": " + json_string(opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"sim_threads\": " + std::to_string(opt.threads);
  out += ", \"simd\": " + json_string(ms::sim::simd::backend_name());
  const bool correct = rep.errors.empty() && rep.failed == 0;
  out += std::string(", \"correct\": ") + (correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"errors\": " + std::to_string(rep.errors.size());
  out += ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : rep.metrics) {
    out += sep + json_string(name) + ": {\"value\": " +
           (std::isfinite(m.value) ? json_number(m.value) : "null") +
           ", \"unit\": " + json_string(m.unit) + "}";
    sep = ", ";
  }
  out += "}, \"modeled\": {";
  sep = "";
  for (const auto& [name, v] : rep.modeled) {
    out += sep + json_string(name) + ": " +
           (std::isfinite(v) ? json_number(v) : "null");
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
