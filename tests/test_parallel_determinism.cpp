// Determinism contract of the parallel block scheduler: every modeled
// quantity -- event counters, per-site slices, L2/DRAM traffic, modeled
// times, the derived-metrics report -- must be bit-identical whether the
// simulator executes blocks serially (1 host thread) or concurrently
// (4 host threads), with and without the sanitizers armed.  Host
// wall-clock is the only thing allowed to change.
#include <gtest/gtest.h>

#include <algorithm>
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
  /// Most items of any one launch_blocks / launch_warps launch.
  u64 max_block_items = 0;
  u64 max_warp_items = 0;
};

/// Device::run_items merges the items of a launch in batches of this many;
/// a launch with more items crosses a batch boundary.
constexpr u64 kMergeBatch = 1024;

RunResult run_multisplit(Method method, u32 host_threads, bool sanitize,
                         u64 n = u64{1} << 16) {
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
  for (const auto& r : dev.records()) {
    if (r.events.blocks_launched > 0) {
      res.max_block_items = std::max(res.max_block_items,
                                     r.events.blocks_launched);
    } else {
      res.max_warp_items = std::max(
          res.max_warp_items,
          ceil_div(r.events.warps_launched, sim::kWarpsPerScheduleItem));
    }
  }
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

/// The cases above stay inside one merge batch.  These cross it: the
/// 4-thread launcher merges the items of the first batch while they run,
/// then starts the next batch, and the result must still be the serial one.
RunResult expect_serial_equals_mt4(Method method, u64 n) {
  RunResult serial = run_multisplit(method, 1, /*sanitize=*/false, n);
  const RunResult mt = run_multisplit(method, 4, /*sanitize=*/false, n);
  EXPECT_EQ(serial.snapshot, mt.snapshot);
  EXPECT_EQ(serial.out, mt.out);
  EXPECT_EQ(serial.total_ms, mt.total_ms);
  return serial;
}

TEST(ParallelBatches, BlockLaunchSerialVsFourThreads) {
  const RunResult serial =
      expect_serial_equals_mt4(Method::kWarpLevel, u64{1} << 19);
  EXPECT_GT(serial.max_block_items, kMergeBatch);
}

TEST(ParallelBatches, WarpLaunchSerialVsFourThreads) {
  // One warp item per 16 * 32 keys: 2^19 keys would fill exactly one batch.
  const RunResult serial =
      expect_serial_equals_mt4(Method::kReducedBitSort, u64{3} << 18);
  EXPECT_GT(serial.max_warp_items, kMergeBatch);
}

/// A fault in the second merge batch of a launch.  Serial execution stops
/// at the faulting block; the 4-thread run has merged the blocks before it
/// while the batch was running, merges the faulting block's partial
/// counters and nothing after it.  The kernel log (the faulted record's
/// counters and site slices), the site totals, the parked fault and the
/// next launch's DRAM traffic -- which depends on what the faulted launch
/// left in the L2 -- must all match.  The buffers do not: every block of
/// the faulting batch still runs on the pool, so blocks after the fault
/// have stored their words too (`out` pins exactly which ones).
struct FaultRun {
  std::string snapshot;
  std::string error;
  bool threw = false;
  u64 sanitizer_errors = 0;
  std::vector<u32> out;
};

constexpr u32 kFaultBlocks = 1500;
constexpr u32 kFaultBlock = 1100;  // second batch
constexpr u32 kFaultWarps = 4;
constexpr u32 kFaultRounds = 4;
constexpr u64 kFaultBlockWords = u64{kFaultWarps} * kFaultRounds * kWarpSize;

/// Word i of the faulting kernel's input (never 0 for i > 0).
u32 fault_input_word(u64 i) { return static_cast<u32>(i * 2654435761u); }

FaultRun run_mid_launch_fault(u32 host_threads, bool memcheck) {
  // 3 MB per buffer: twice the K40c L2, so the launch evicts.
  constexpr u64 n = u64{kFaultBlocks} * kFaultBlockWords;
  std::vector<u32> host(n);
  for (u64 i = 0; i < n; ++i) host[i] = fault_input_word(i);

  sim::Device dev;
  dev.set_host_threads(host_threads);
  if (memcheck) {
    sim::SanitizerConfig cfg;
    cfg.memcheck = true;
    dev.sanitizer().configure(cfg);
  }
  sim::DeviceBuffer<u32> in(dev, std::span<const u32>(host), "in"),
      out(dev, n, "out");
  const sim::SiteId load_site = dev.site_id("test/load");
  const sim::SiteId store_site = dev.site_id("test/store");
  FaultRun res;
  try {
    sim::launch_blocks(
        dev, "fault_mid_launch", kFaultBlocks, kFaultWarps,
        [&](sim::Block& blk) {
          blk.for_each_warp([&](sim::Warp& w) {
            for (u32 r = 0; r < kFaultRounds; ++r) {
              const u64 base =
                  ((u64{blk.block_id()} * kFaultRounds + r) * kFaultWarps +
                   w.warp_in_block()) *
                  kWarpSize;
              // The faulting block's warp 2 reads past the end of `in` in
              // its last round, after eleven clean loads and stores.
              const bool fault = blk.block_id() == kFaultBlock &&
                                 w.warp_in_block() == 2 &&
                                 r == kFaultRounds - 1;
              LaneArray<u32> v;
              {
                sim::ScopedSite site(dev, load_site);
                v = w.load(in, fault ? n - 1 : base);
              }
              sim::ScopedSite site(dev, store_site);
              w.store(out, base, v);
            }
          });
        });
  } catch (const sim::SimError&) {
    res.threw = true;
  }
  sim::DeviceBuffer<u32> copy(dev, n, "copy");
  sim::device_copy(dev, copy, in);
  res.snapshot = snapshot(dev);
  if (dev.last_error()) res.error = sim::format_fault(*dev.last_error());
  res.sanitizer_errors = dev.sanitizer().error_count();
  res.out.assign(out.host().begin(), out.host().end());
  EXPECT_EQ(dev.records().size(), 2u);
  EXPECT_TRUE(dev.records().front().faulted);
  return res;
}

TEST(ParallelBatches, MidLaunchFaultSerialVsFourThreads) {
  for (const bool memcheck : {false, true}) {
    const FaultRun serial = run_mid_launch_fault(1, memcheck);
    const FaultRun mt = run_mid_launch_fault(4, memcheck);
    // Reporting mode parks the fault instead of unwinding the caller.
    EXPECT_EQ(serial.threw, !memcheck);
    EXPECT_EQ(serial.threw, mt.threw);
    EXPECT_NE(serial.error.find("block 1100, warp 2"), std::string::npos)
        << serial.error;
    EXPECT_EQ(serial.error, mt.error) << "memcheck=" << memcheck;
    EXPECT_EQ(serial.snapshot, mt.snapshot) << "memcheck=" << memcheck;
    EXPECT_EQ(serial.sanitizer_errors, mt.sanitizer_errors);
  }
}

/// What a faulted parallel launch leaves in its buffers: the pool runs
/// every block of the faulting 1024-block batch, so blocks 1101-1499
/// (after the fault, before the end of the launch) are stored too.  That
/// is the one difference from serial, and it does not depend on timing.
TEST(ParallelBatches, MidLaunchFaultBuffersArePinned) {
  const FaultRun serial = run_mid_launch_fault(1, /*memcheck=*/false);
  const FaultRun mt = run_mid_launch_fault(4, /*memcheck=*/false);
  const FaultRun mt_again = run_mid_launch_fault(4, /*memcheck=*/false);
  EXPECT_TRUE(mt.out == mt_again.out);

  std::vector<u32> expected = serial.out;
  const u64 first = u64{kFaultBlock + 1} * kFaultBlockWords;
  const u64 last = u64{kFaultBlocks} * kFaultBlockWords;
  EXPECT_EQ(std::count(expected.begin() + static_cast<std::ptrdiff_t>(first),
                       expected.end(), 0u),
            static_cast<std::ptrdiff_t>(last - first))
      << "serial execution stores nothing after the faulting block";
  for (u64 i = first; i < last; ++i) expected[i] = fault_input_word(i);
  EXPECT_TRUE(mt.out == expected);
  EXPECT_EQ(last - first, 399 * kFaultBlockWords);
}

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

/// The atomic fence at the edges of the 1024-item merge batches: lane 0
/// of every block takes one ticket from a shared counter.  The completed
/// prefix restarts at each batch's first item, so the tickets must still
/// come out 0..n-1 in block order, for launches just below, at and past
/// one and two batches and for worker counts that do and do not divide
/// them.
TEST(ParallelAtomics, FenceAtBatchEdgesMatchesSerial) {
  const auto run = [](u32 blocks, u32 host_threads, std::vector<u32>* olds) {
    sim::Device dev;
    dev.set_host_threads(host_threads);
    sim::DeviceBuffer<u32> counter(dev, 1, "counter"),
        tickets(dev, blocks, "tickets");
    counter[0] = 0;
    sim::launch_blocks(
        dev, "block_tickets", blocks, 1, [&](sim::Block& blk) {
          blk.for_each_warp([&](sim::Warp& w) {
            constexpr LaneMask kLane0 = 1;
            const LaneArray<u32> old =
                w.atomic_add(counter, LaneArray<u64>::filled(0),
                             LaneArray<u32>::filled(1), kLane0);
            w.store(tickets, blk.block_id(), old, kLane0);
          });
        });
    olds->assign(tickets.host().begin(), tickets.host().end());
    return snapshot(dev);
  };

  for (const u32 blocks : {2u, 3u, 1023u, 1024u, 1025u, 2049u}) {
    std::vector<u32> in_order(blocks);
    for (u32 b = 0; b < blocks; ++b) in_order[b] = b;
    std::vector<u32> serial_olds;
    const std::string serial = run(blocks, 1, &serial_olds);
    EXPECT_TRUE(serial_olds == in_order) << blocks << " blocks";
    for (const u32 threads : {2u, 3u, 4u, 7u}) {
      std::vector<u32> olds;
      EXPECT_EQ(serial, run(blocks, threads, &olds))
          << blocks << " blocks, " << threads << " threads";
      EXPECT_TRUE(olds == in_order)
          << blocks << " blocks, " << threads << " threads";
    }
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
