// Determinism contract of the parallel block scheduler: every modeled
// quantity -- event counters, per-site slices, L2/DRAM traffic, modeled
// times, the derived-metrics report -- must be bit-identical whether the
// simulator executes blocks serially (1 host thread) or concurrently
// (4 host threads), with and without the sanitizers armed.  Host
// wall-clock is the only thing allowed to change.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "multisplit/multisplit.hpp"
#include "primitives/histogram.hpp"
#include "sim/metrics.hpp"
#include "workload/distributions.hpp"

namespace ms::test {
namespace {

using split::Method;

void dump_events(std::ostream& os, const sim::KernelEvents& e) {
  os << e.issue_slots << ' ' << e.scatter_replays << ' ' << e.smem_slots
     << ' ' << e.dram_read_tx << ' ' << e.dram_write_tx << ' '
     << e.l2_read_segments << ' ' << e.l2_write_segments << ' '
     << e.useful_bytes_read << ' ' << e.useful_bytes_written << ' '
     << e.warps_launched << ' ' << e.blocks_launched << ' ' << e.barriers
     << ' ' << e.atomic_ops << ' ' << e.atomic_conflicts << ' '
     << e.simt_insts << ' ' << e.simt_active_lanes << ' ' << e.ballot_rounds
     << ' ' << e.smem_accesses;
}

/// Everything modeled, as one diffable string: the kernel log (names,
/// counters, per-site slices, exact modeled times), the device-lifetime
/// per-site totals, and the derived-metrics JSON report.
std::string snapshot(const sim::Device& dev) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& r : dev.records()) {
    os << r.name << " t=" << r.time_ms << " mem=" << r.mem_time_ms
       << " issue=" << r.issue_time_ms << " smem=" << r.peak_smem_bytes
       << " faulted=" << r.faulted << "\n  ev ";
    dump_events(os, r.events);
    for (const auto& [site, slice] : r.sites) {
      os << "\n  site " << site << ": ";
      dump_events(os, slice);
    }
    os << "\n";
  }
  for (const auto& s : dev.site_stats()) {
    if (s.events == sim::KernelEvents{}) continue;
    os << s.label << ": ";
    dump_events(os, s.events);
    os << "\n";
  }
  std::ostringstream json;
  sim::JsonWriter w(json);
  w.begin_object();
  sim::write_metrics_json(w, sim::analyze_device(dev));
  w.end_object();
  os << json.str();
  return os.str();
}

struct RunResult {
  std::string snapshot;
  std::vector<u32> out;
  f64 total_ms = 0.0;
  u64 sanitizer_errors = 0;
  u64 sanitizer_warnings = 0;
};

RunResult run_multisplit(Method method, u32 host_threads, bool sanitize) {
  constexpr u64 n = u64{1} << 16;
  constexpr u32 m = 13;
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = 0xD15C0 + static_cast<u32>(method);
  const auto host = workload::generate_keys(n, wc);

  sim::Device dev;
  dev.set_host_threads(host_threads);
  if (sanitize) dev.sanitizer().configure(sim::SanitizerConfig::all());
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host), "in"),
      out(dev, n, "out");
  split::MultisplitConfig cfg;
  cfg.method = method;
  const auto r =
      split::multisplit_keys(dev, in, out, m, split::RangeBucket{m}, cfg);

  RunResult res;
  res.snapshot = snapshot(dev);
  res.out.assign(out.host().begin(), out.host().end());
  res.total_ms = r.total_ms();
  res.sanitizer_errors = dev.sanitizer().error_count();
  res.sanitizer_warnings = dev.sanitizer().warning_count();
  return res;
}

class ParallelDeterminism : public ::testing::TestWithParam<Method> {};

TEST_P(ParallelDeterminism, SerialVsFourThreads) {
  const RunResult serial = run_multisplit(GetParam(), 1, /*sanitize=*/false);
  const RunResult mt = run_multisplit(GetParam(), 4, /*sanitize=*/false);
  EXPECT_EQ(serial.snapshot, mt.snapshot);
  EXPECT_EQ(serial.out, mt.out);
  EXPECT_EQ(serial.total_ms, mt.total_ms);  // bit-identical, not approx
}

TEST_P(ParallelDeterminism, SerialVsFourThreadsSanitized) {
  const RunResult serial = run_multisplit(GetParam(), 1, /*sanitize=*/true);
  const RunResult mt = run_multisplit(GetParam(), 4, /*sanitize=*/true);
  EXPECT_EQ(serial.snapshot, mt.snapshot);
  EXPECT_EQ(serial.out, mt.out);
  EXPECT_EQ(serial.total_ms, mt.total_ms);
  EXPECT_EQ(serial.sanitizer_errors, mt.sanitizer_errors);
  EXPECT_EQ(serial.sanitizer_warnings, mt.sanitizer_warnings);
  EXPECT_EQ(serial.sanitizer_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, ParallelDeterminism,
                         ::testing::Values(Method::kDirect,
                                           Method::kWarpLevel,
                                           Method::kBlockLevel,
                                           Method::kRecursiveScanSplit,
                                           Method::kReducedBitSort,
                                           Method::kRandomizedInsertion,
                                           Method::kFusedBucketSort),
                         [](const auto& info) {
                           std::string name;
                           for (const char c : to_string(info.param)) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               name += c;
                             }
                           }
                           return name;
                         });

/// Cross-block global-atomic contention: every block of a 4-thread run
/// increments the same histogram cells.  The final counts must be exact
/// (real read-modify-write, no lost updates) and all modeled counters
/// must match the serial run, including the per-warp atomic-conflict
/// accounting and the old values the fence serializes.
TEST(ParallelAtomics, CrossBlockContentionIsExactAndDeterministic) {
  constexpr u64 n = u64{1} << 15;
  constexpr u32 m = 4;  // few buckets -> heavy cross-block contention
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = 42;
  const auto host = workload::generate_keys(n, wc);
  std::vector<u32> expected(m, 0);
  for (const u32 k : host) expected[k % m] += 1;

  auto run = [&](u32 host_threads, std::vector<u32>* hist_out) {
    sim::Device dev;
    dev.set_host_threads(host_threads);
    sim::DeviceBuffer<u32> keys(dev, std::span<const u32>(host), "keys");
    sim::DeviceBuffer<u32> hist(dev, m, "hist");
    prim::histogram_global_atomic(dev, keys, hist, m,
                                  [&](u32 k) { return k % m; });
    hist_out->assign(hist.host().begin(), hist.host().end());
    return snapshot(dev);
  };

  std::vector<u32> hist1, hist4;
  const std::string s1 = run(1, &hist1);
  const std::string s4 = run(4, &hist4);
  EXPECT_EQ(hist1, expected);  // serial reference is exact
  EXPECT_EQ(hist4, expected);  // no lost updates across worker threads
  EXPECT_EQ(s1, s4);
}

/// Same property for the block-local variant (shared-memory histograms
/// merged with one global atomic per block): counters include
/// bank-conflict serialization and barrier costs, all order-sensitive.
TEST(ParallelAtomics, BlockLocalHistogramDeterministic) {
  constexpr u64 n = u64{1} << 15;
  constexpr u32 m = 64;
  workload::WorkloadConfig wc;
  wc.m = m;
  wc.seed = 7;
  const auto host = workload::generate_keys(n, wc);
  std::vector<u32> expected(m, 0);
  for (const u32 k : host) expected[k % m] += 1;

  auto run = [&](u32 host_threads, std::vector<u32>* hist_out) {
    sim::Device dev;
    dev.set_host_threads(host_threads);
    sim::DeviceBuffer<u32> keys(dev, std::span<const u32>(host), "keys");
    sim::DeviceBuffer<u32> hist(dev, m, "hist");
    prim::histogram_block_local(dev, keys, hist, m,
                                [&](u32 k) { return k % m; });
    hist_out->assign(hist.host().begin(), hist.host().end());
    return snapshot(dev);
  };

  std::vector<u32> hist1, hist4;
  const std::string s1 = run(1, &hist1);
  const std::string s4 = run(4, &hist4);
  EXPECT_EQ(hist1, expected);
  EXPECT_EQ(hist4, expected);
  EXPECT_EQ(s1, s4);
}

/// The scheduler must also be deterministic at thread counts that do not
/// divide the block count, and when the pool is reused across launches
/// with different worker counts.
TEST(ParallelAtomics, OddThreadCountsMatchSerial) {
  const RunResult serial =
      run_multisplit(Method::kBlockLevel, 1, /*sanitize=*/false);
  for (const u32 threads : {2u, 3u, 7u}) {
    const RunResult mt =
        run_multisplit(Method::kBlockLevel, threads, /*sanitize=*/false);
    EXPECT_EQ(serial.snapshot, mt.snapshot) << threads << " threads";
    EXPECT_EQ(serial.out, mt.out) << threads << " threads";
  }
}

/// Each worker is one OS thread, so the count is capped.  The check fires
/// before any pool exists: nothing here launches a kernel.
TEST(HostThreads, SetHostThreadsRejectsMoreThanTheCap) {
  sim::Device dev;
  dev.set_host_threads(2);
  EXPECT_THROW(dev.set_host_threads(sim::kMaxHostThreads + 1),
               std::logic_error);
  EXPECT_EQ(dev.host_threads(), 2u);
  dev.set_host_threads(sim::kMaxHostThreads);
  EXPECT_EQ(dev.host_threads(), sim::kMaxHostThreads);
  EXPECT_LE(sim::default_host_threads(), sim::kMaxHostThreads);
}

}  // namespace
}  // namespace ms::test
