// Per-intrinsic microbench for the host SIMD lane engine (sim/simd.hpp).
//
// Times each raw lane-parallel kernel (nonzero_mask, ballot, bit_ballots,
// class_masks) of the compiled backend against its simd::scalar reference
// loop.  The two are bit-identical by construction (the randomized
// property tests in test_lane_array prove it); this bench answers only
// "how much host time does the vector backend save per operation".  In an
// MS_SIMD=off build both rows run the scalar loops.
//
// --n sets log2 of the iteration count per kernel (default 2^20).
// --json emits one result row per (kernel, engine) pair; the header's
// host_simd field names the compiled backend.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "sim/simd.hpp"

using namespace ms;
using namespace ms::bench;

namespace {

volatile u32 g_sink;  // defeats dead-code elimination of the timed loops

/// Time `iters` calls of f(i) -> u32; returns nanoseconds per call.
template <typename F>
f64 time_loop(u64 iters, F&& f) {
  u32 acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (u64 i = 0; i < iters; ++i) acc ^= f(i);
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = acc;
  return std::chrono::duration<f64, std::nano>(t1 - t0).count() /
         static_cast<f64>(iters);
}

namespace scalar = sim::simd::scalar;

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv, /*default_log2_n=*/20,
                               /*paper_log2_n=*/22,
                               /*machine_readable=*/true);
  opt.print_header("lane ops: per-intrinsic SIMD vs scalar host time");
  JsonReport report(opt, "lane_ops");
  std::printf("compiled lane engine: %s\n\n", sim::simd::backend_name());

  // Input pool: enough distinct warp registers that the loop does not
  // turn into a constant fold, small enough to stay in L1.
  constexpr u32 kPool = 256;
  std::mt19937 rng(12345);
  std::vector<LaneArray<u32>> preds(kPool), buckets(kPool);
  for (u32 p = 0; p < kPool; ++p) {
    for (u32 i = 0; i < kWarpSize; ++i) {
      preds[p][i] = rng() & 1u ? rng() : 0u;
      buckets[p][i] = rng() % 32u;
    }
  }
  const u64 iters = opt.n();
  constexpr u32 kRounds = 5;  // m = 32

  struct Row {
    const char* kernel;
    const char* engine;
    f64 ns;
  };
  std::vector<Row> rows;

  // ---- raw lane kernels --------------------------------------------------
  rows.push_back({"nonzero_mask", "scalar", time_loop(iters, [&](u64 i) {
                    return scalar::nonzero_mask(preds[i % kPool].data());
                  })});
  rows.push_back({"nonzero_mask", "simd", time_loop(iters, [&](u64 i) {
                    return sim::simd::nonzero_mask(preds[i % kPool].data());
                  })});
  rows.push_back({"ballot", "scalar", time_loop(iters, [&](u64 i) {
                    return scalar::nonzero_mask(preds[i % kPool].data()) &
                           static_cast<u32>(i | 1u);
                  })});
  rows.push_back({"ballot", "simd", time_loop(iters, [&](u64 i) {
                    return sim::simd::ballot(preds[i % kPool].data(),
                                             static_cast<u32>(i | 1u));
                  })});
  rows.push_back({"bit_ballots", "scalar", time_loop(iters, [&](u64 i) {
                    u32 b[kRounds];
                    scalar::bit_ballots(buckets[i % kPool].data(), kRounds,
                                        kFullMask, b);
                    return b[0] ^ b[kRounds - 1];
                  })});
  rows.push_back({"bit_ballots", "simd", time_loop(iters, [&](u64 i) {
                    u32 b[kRounds];
                    sim::simd::bit_ballots(buckets[i % kPool].data(), kRounds,
                                           kFullMask, b);
                    return b[0] ^ b[kRounds - 1];
                  })});
  rows.push_back({"class_masks", "scalar", time_loop(iters, [&](u64 i) {
                    u32 b[kRounds], M[1u << kRounds];
                    scalar::bit_ballots(buckets[i % kPool].data(), kRounds,
                                        kFullMask, b);
                    scalar::class_masks(kRounds, b, kFullMask, M);
                    return M[0] ^ M[31];
                  })});
  rows.push_back({"class_masks", "simd", time_loop(iters, [&](u64 i) {
                    u32 b[kRounds], M[1u << kRounds];
                    sim::simd::bit_ballots(buckets[i % kPool].data(), kRounds,
                                           kFullMask, b);
                    sim::simd::class_masks(kRounds, b, kFullMask, M);
                    return M[0] ^ M[31];
                  })});

  // ---- report ------------------------------------------------------------
  std::printf("%16s %8s %12s %14s %10s\n", "kernel", "engine", "ns/op",
              "Mops/s", "speedup");
  f64 scalar_ns = 0.0;
  for (const Row& r : rows) {
    if (std::strcmp(r.engine, "scalar") == 0) scalar_ns = r.ns;
    std::printf("%16s %8s %12.2f %14.1f %9.2fx\n", r.kernel, r.engine, r.ns,
                r.ns > 0 ? 1e3 / r.ns : 0.0,
                r.ns > 0 ? scalar_ns / r.ns : 0.0);
    if (report.enabled()) {
      auto& jw = report.writer();
      jw.begin_object();
      char method[64];
      std::snprintf(method, sizeof method, "%s_%s", r.kernel, r.engine);
      jw.field("method", method);  // identity key: kernel x engine
      jw.field("kernel", r.kernel);
      jw.field("engine", r.engine);
      jw.field("ns_per_op", r.ns);
      jw.field("mops_per_sec", r.ns > 0 ? 1e3 / r.ns : 0.0);
      jw.end_object();
    }
  }
  return 0;
}
