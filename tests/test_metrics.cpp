// Derived-metrics engine (metrics.hpp): synthetic kernels with closed-form
// counter totals must produce exact derived metrics and the expected guided-
// analysis diagnoses; the divergence counters must match hand-computed lane
// counts; and the report differ must flag exactly the edits made to a
// document -- all without perturbing any modeled time.
#include <gtest/gtest.h>

#include <stdexcept>

#include "multisplit/multisplit.hpp"
#include "workload/distributions.hpp"

namespace ms::sim {
namespace {

const Diagnosis* find_rule(const MetricsReport& rep, std::string_view rule,
                           std::string_view scope = {}) {
  for (const auto& d : rep.diagnoses) {
    if (d.rule == rule && (scope.empty() || d.scope == scope)) return &d;
  }
  return nullptr;
}

const SiteMetrics* find_site(const MetricsReport& rep, std::string_view label) {
  for (const auto& s : rep.sites) {
    if (s.label == label) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Speed-of-light self-checks: three synthetic kernels whose counters have
// closed forms, so every derived metric is asserted exactly.
// ---------------------------------------------------------------------------

// A perfectly coalesced stream copy: 8 warps x 4 rounds of a unit-stride
// 32 x u32 load + store.  Every metric sits at its ideal value and the
// kernel is memory-bound (256 DRAM transactions vs 160 weighted slots).
TEST(MetricsSelfCheck, CoalescedStreamCopyIsIdealAndMemoryBound) {
  Device dev;  // Tesla K40c
  const u64 n = 1024;
  DeviceBuffer<u32> src(dev, n), dst(dev, n);
  src.fill(1);

  launch_warps(dev, "selfcheck_stream_copy", 8, [&](Warp& w, u64 wid) {
    for (u32 r = 0; r < 4; ++r) {
      const u64 base = (wid * 4 + r) * kWarpSize;
      const auto v = w.load(src, base, kFullMask);
      w.store(dst, base, v, kFullMask);
    }
  });

  const MetricsReport rep = analyze_device(dev);

  // Raw totals: 32 loads + 32 stores, 4 sectors (128 B) each, all cold.
  const KernelEvents& ev = rep.events;
  EXPECT_EQ(ev.issue_slots, 64u);
  EXPECT_EQ(ev.scatter_replays, 0u);
  EXPECT_EQ(ev.l2_read_segments, 128u);
  EXPECT_EQ(ev.dram_read_tx, 128u);
  EXPECT_EQ(ev.l2_write_segments, 128u);
  EXPECT_EQ(ev.dram_write_tx, 128u);  // dirty sectors flushed at kernel end
  EXPECT_EQ(ev.useful_bytes_read, 4096u);
  EXPECT_EQ(ev.useful_bytes_written, 4096u);
  EXPECT_EQ(ev.simt_insts, 64u);
  EXPECT_EQ(ev.simt_active_lanes, 2048u);
  EXPECT_EQ(ev.warps_launched, 8u);

  const DerivedMetrics& m = rep.aggregate;
  EXPECT_DOUBLE_EQ(m.coalescing_pct, 100.0);
  EXPECT_DOUBLE_EQ(m.sector_overfetch, 1.0);
  EXPECT_DOUBLE_EQ(m.active_lane_pct, 100.0);
  // Streaming: every read sector is touched exactly once, so all miss.
  EXPECT_DOUBLE_EQ(m.l2_read_hit_pct, 0.0);
  EXPECT_DOUBLE_EQ(m.bank_conflict_slot_pct, 0.0);
  EXPECT_DOUBLE_EQ(m.scatter_replay_slot_pct, 0.0);

  // Two-resource roofline: mem = 256 tx * 32 B / 288 GB/s = 28.4 ns,
  // issue = (64 + 8*12) slots / 16 Gips = 10 ns -> memory-bound.
  EXPECT_DOUBLE_EQ(m.mem_time_ms, 256.0 * 32.0 / (288.0 * 1e9) * 1e3);
  EXPECT_DOUBLE_EQ(m.issue_time_ms, 160.0 / (16.0 * 1e9) * 1e3);
  EXPECT_EQ(m.bound, Bound::kMemory);
  EXPECT_NEAR(m.sol_mem_pct, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.smem_occupancy_pct, 100.0);

  const Diagnosis* sol = find_rule(rep, "speed-of-light");
  ASSERT_NE(sol, nullptr);
  EXPECT_EQ(sol->severity, Diagnosis::Severity::kInfo);
  EXPECT_EQ(sol->scope, "run");
  // Perfectly coalesced: the over-fetch rule must not fire anywhere.
  EXPECT_EQ(find_rule(rep, "dram-overfetch"), nullptr);
  EXPECT_EQ(find_rule(rep, "bank-conflict-replays"), nullptr);
}

// A 32-byte-strided gather: each lane touches its own sector but requests
// only 4 of its 32 bytes, so the gather site reads 12.5% coalescing and an
// 8x over-fetch exactly, and the run diagnoses DRAM over-fetch at that
// site as critical (the run is memory-bound).
TEST(MetricsSelfCheck, StridedGatherIsOverfetchBound) {
  Device dev;
  const u64 n_dst = 1024;
  DeviceBuffer<u32> src(dev, n_dst * 8), dst(dev, n_dst);
  src.fill(1);

  launch_warps(dev, "selfcheck_strided_gather", 8, [&](Warp& w, u64 wid) {
    for (u32 r = 0; r < 4; ++r) {
      const u64 t = wid * 4 + r;
      const auto idx =
          Warp::lane_id().map([&](u32 l) { return (t * kWarpSize + l) * 8; });
      const auto v = [&] {
        ScopedSite site(dev, "selfcheck/strided_gather");
        return w.gather(src, idx, kFullMask);
      }();
      ScopedSite site(dev, "selfcheck/stream_store");
      w.store(dst, t * kWarpSize, v, kFullMask);
    }
  });

  const MetricsReport rep = analyze_device(dev);

  // Each of the 32 gathers: 32 distinct sectors, 32 single-line lane runs
  // (1 issue slot + 31 replays), 128 useful bytes.
  const KernelEvents& ev = rep.events;
  EXPECT_EQ(ev.issue_slots, 64u);
  EXPECT_EQ(ev.scatter_replays, 992u);
  EXPECT_EQ(ev.l2_read_segments, 1024u);
  EXPECT_EQ(ev.dram_read_tx, 1024u);
  EXPECT_EQ(ev.l2_write_segments, 128u);
  EXPECT_EQ(ev.dram_write_tx, 128u);
  EXPECT_EQ(ev.useful_bytes_read, 4096u);
  EXPECT_EQ(ev.useful_bytes_written, 4096u);

  const SiteMetrics* gather = find_site(rep, "selfcheck/strided_gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->events.scatter_replays, 992u);
  EXPECT_DOUBLE_EQ(gather->metrics.coalescing_pct, 12.5);
  EXPECT_DOUBLE_EQ(gather->metrics.sector_overfetch, 8.0);
  const SiteMetrics* store = find_site(rep, "selfcheck/stream_store");
  ASSERT_NE(store, nullptr);
  EXPECT_DOUBLE_EQ(store->metrics.coalescing_pct, 100.0);

  // mem = 1152 tx * 32 B / 288 GB/s = 128 ns > issue = (64 + 96 +
  // 992*1.5) / 16 Gips = 103 ns: DRAM-bound, so wasted bytes are critical.
  EXPECT_EQ(rep.aggregate.bound, Bound::kMemory);
  const Diagnosis* ovf =
      find_rule(rep, "dram-overfetch", "site:selfcheck/strided_gather");
  ASSERT_NE(ovf, nullptr);
  EXPECT_EQ(ovf->severity, Diagnosis::Severity::kCritical);
  EXPECT_DOUBLE_EQ(ovf->value, 87.5);  // 100 - 12.5
  // The coalesced store site must NOT be flagged.
  EXPECT_EQ(find_rule(rep, "dram-overfetch", "site:selfcheck/stream_store"),
            nullptr);
  // The replay share is large but the run is memory-bound: info only.
  const Diagnosis* rep_d = find_rule(rep, "scatter-replays");
  ASSERT_NE(rep_d, nullptr);
  EXPECT_EQ(rep_d->severity, Diagnosis::Severity::kInfo);
}

// Worst-case shared-memory banking: idx = lane * 32 puts all 32 lanes in
// bank 0, a 32-way conflict on every access.  No global traffic at all, so
// the kernel is issue-bound and the bank-conflict rule fires critical.
TEST(MetricsSelfCheck, BankConflictKernelIsIssueBound) {
  Device dev;
  launch_blocks(dev, "selfcheck_bank_conflict", 1, 1, [&](Block& blk) {
    auto tile = blk.shared<u32>(1024, "selfcheck.tile");
    Warp& w = blk.warp(0);
    ScopedSite site(dev, "selfcheck/conflict_smem");
    const auto idx = Warp::lane_id().map([](u32 l) { return l * 32; });
    for (u32 k = 0; k < 8; ++k) {
      w.smem_write(tile, idx, LaneArray<u32>::filled(k), kFullMask);
    }
    for (u32 k = 0; k < 8; ++k) {
      (void)w.smem_read(tile, idx, kFullMask);
    }
  });

  const MetricsReport rep = analyze_device(dev);

  const KernelEvents& ev = rep.events;
  EXPECT_EQ(ev.smem_accesses, 16u);
  EXPECT_EQ(ev.smem_slots, 512u);  // 16 accesses x 32-way serialization
  EXPECT_EQ(ev.dram_read_tx, 0u);
  EXPECT_EQ(ev.dram_write_tx, 0u);

  const DerivedMetrics& m = rep.aggregate;
  EXPECT_DOUBLE_EQ(m.bank_conflict_mult, 32.0);
  // Weighted slots: 1 warp * 12 overhead + 512 * 0.5 smem = 268; the
  // conflict excess is (512 - 16) * 0.5 = 248 of them.
  EXPECT_DOUBLE_EQ(m.bank_conflict_slot_pct, 100.0 * 248.0 / 268.0);
  EXPECT_DOUBLE_EQ(m.mem_time_ms, 0.0);
  EXPECT_EQ(m.bound, Bound::kIssue);

  const Diagnosis* bank =
      find_rule(rep, "bank-conflict-replays", "site:selfcheck/conflict_smem");
  ASSERT_NE(bank, nullptr);
  EXPECT_EQ(bank->severity, Diagnosis::Severity::kCritical);

  // 4 KB of shared memory -> 12 of 16 resident blocks: above the warning
  // threshold, so no occupancy diagnosis.
  ASSERT_FALSE(rep.kernels.empty());
  EXPECT_DOUBLE_EQ(rep.kernels[0].metrics.smem_occupancy_pct,
                   100.0 * 12.0 / 16.0);
  EXPECT_EQ(find_rule(rep, "smem-occupancy"), nullptr);
}

TEST(MetricsSelfCheck, SmemOccupancyProxyClosedForms) {
  const DeviceProfile k40c = DeviceProfile::tesla_k40c();
  EXPECT_DOUBLE_EQ(smem_occupancy_pct(0, k40c), 100.0);      // no smem
  EXPECT_DOUBLE_EQ(smem_occupancy_pct(3072, k40c), 100.0);   // 16 fit = cap
  EXPECT_DOUBLE_EQ(smem_occupancy_pct(6144, k40c), 50.0);    // 8 of 16
  EXPECT_DOUBLE_EQ(smem_occupancy_pct(100000, k40c), 0.0);   // exceeds 48 KB
  const DeviceProfile ti = DeviceProfile::gtx_750_ti();
  EXPECT_DOUBLE_EQ(smem_occupancy_pct(3072, ti), 50.0);      // 16 of 32
}

TEST(MetricsSelfCheck, BoundClassificationMargin) {
  EXPECT_EQ(classify_bound(0.0, 0.0), Bound::kBalanced);
  EXPECT_EQ(classify_bound(1.06, 1.0), Bound::kMemory);
  EXPECT_EQ(classify_bound(1.0, 1.06), Bound::kIssue);
  EXPECT_EQ(classify_bound(1.02, 1.0), Bound::kBalanced);
  EXPECT_EQ(classify_bound(1.0, 0.0), Bound::kMemory);
  EXPECT_EQ(classify_bound(0.0, 1.0), Bound::kIssue);
}

// Computing metrics is read-only: analyzing a device twice yields the same
// report and leaves every recorded kernel time bit-identical.
TEST(MetricsSelfCheck, AnalysisDoesNotPerturbRecordedTimes) {
  workload::WorkloadConfig wc;
  wc.m = 8;
  const u64 n = u64{1} << 12;
  const auto host = workload::generate_keys(n, wc);
  Device dev;
  DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = split::Method::kWarpLevel;
  split::multisplit_keys(dev, in, out, 8, split::RangeBucket{8}, cfg);

  std::vector<f64> times_before;
  for (const auto& r : dev.records()) times_before.push_back(r.time_ms);

  const MetricsReport a = analyze_device(dev);
  const MetricsReport b = analyze_device(dev);

  ASSERT_EQ(dev.records().size(), times_before.size());
  for (size_t i = 0; i < times_before.size(); ++i) {
    EXPECT_EQ(dev.records()[i].time_ms, times_before[i]) << "kernel " << i;
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_ms, b.total_ms);
  ASSERT_EQ(a.diagnoses.size(), b.diagnoses.size());
  for (size_t i = 0; i < a.diagnoses.size(); ++i) {
    EXPECT_EQ(a.diagnoses[i].rule, b.diagnoses[i].rule);
    EXPECT_EQ(a.diagnoses[i].message, b.diagnoses[i].message);
  }
  // The aggregate reproduces the kernel log exactly.
  KernelEvents from_records;
  for (const auto& r : dev.records()) from_records += r.events;
  EXPECT_EQ(a.events, from_records);
}

// ---------------------------------------------------------------------------
// Divergence counters: hand-built kernels with exact lane counts.
// ---------------------------------------------------------------------------

KernelEvents run_one_warp(void (*body)(Device&, Warp&)) {
  Device dev;
  launch_warps(dev, "divergence_probe", 1,
               [&](Warp& w, u64) { body(dev, w); });
  return dev.records().at(0).events;
}

TEST(DivergenceCounters, FullWarpBallotIsFullyConverged) {
  const KernelEvents ev = run_one_warp([](Device&, Warp& w) {
    (void)w.ballot(LaneArray<u32>::filled(1), kFullMask);
  });
  EXPECT_EQ(ev.simt_insts, 1u);
  EXPECT_EQ(ev.simt_active_lanes, 32u);
  EXPECT_EQ(ev.ballot_rounds, 1u);
  Device dev;
  EXPECT_DOUBLE_EQ(derive_metrics(ev, dev.profile()).active_lane_pct, 100.0);
}

TEST(DivergenceCounters, HalfWarpIsExactlyFiftyPercent) {
  Device dev;
  DeviceBuffer<u32> buf(dev, kWarpSize);
  buf.fill(0);
  const LaneMask half = 0x0000FFFFu;
  launch_warps(dev, "half_warp", 1, [&](Warp& w, u64) {
    (void)w.ballot(LaneArray<u32>::filled(1), half);
    (void)w.shfl_xor(LaneArray<u32>::iota(), 1, half);
    (void)w.load(buf, 0, half);
  });
  const KernelEvents& ev = dev.records().at(0).events;
  EXPECT_EQ(ev.simt_insts, 3u);
  EXPECT_EQ(ev.simt_active_lanes, 48u);
  EXPECT_DOUBLE_EQ(derive_metrics(ev, dev.profile()).active_lane_pct, 50.0);
}

TEST(DivergenceCounters, SingleLaneIsOneThirtySecond) {
  Device dev;
  DeviceBuffer<u32> buf(dev, kWarpSize);
  buf.fill(0);
  const LaneMask one = 0x1u;
  launch_warps(dev, "single_lane", 1, [&](Warp& w, u64) {
    (void)w.ballot(LaneArray<u32>::filled(1), one);
    (void)w.shfl_xor(LaneArray<u32>::iota(), 1, one);
    (void)w.load(buf, 0, one);
  });
  const KernelEvents& ev = dev.records().at(0).events;
  EXPECT_EQ(ev.simt_insts, 3u);
  EXPECT_EQ(ev.simt_active_lanes, 3u);
  EXPECT_DOUBLE_EQ(derive_metrics(ev, dev.profile()).active_lane_pct, 3.125);
}

// Data-dependent exit: lane l leaves the loop after round l.  Round j runs
// a ballot over 32-j live lanes, so 32 ballots count 32+31+...+1 = 528
// active lanes: 528 / (32*32) = 51.5625% exactly.
TEST(DivergenceCounters, DataDependentExitLoop) {
  const KernelEvents ev = run_one_warp([](Device&, Warp& w) {
    LaneMask active = kFullMask;
    u32 k = 0;
    while (active != 0) {
      const auto still_going =
          Warp::lane_id().map([&](u32 l) { return l > k ? 1u : 0u; });
      active = w.ballot(still_going, active);
      ++k;
    }
  });
  EXPECT_EQ(ev.simt_insts, 32u);
  EXPECT_EQ(ev.ballot_rounds, 32u);
  EXPECT_EQ(ev.simt_active_lanes, 528u);
  Device dev;
  EXPECT_DOUBLE_EQ(derive_metrics(ev, dev.profile()).active_lane_pct,
                   51.5625);
}

// Warp::charge() models converged scalar bookkeeping and must not count as
// a SIMT instruction (it would dilute the divergence signal).
TEST(DivergenceCounters, ChargeIsNotASimtInstruction) {
  const KernelEvents ev =
      run_one_warp([](Device&, Warp& w) { w.charge(5); });
  EXPECT_EQ(ev.issue_slots, 5u);
  EXPECT_EQ(ev.simt_insts, 0u);
  EXPECT_EQ(ev.simt_active_lanes, 0u);
}

// ---------------------------------------------------------------------------
// Report differ
// ---------------------------------------------------------------------------

TEST(ReportDiff, IdenticalReportsHaveZeroFindings) {
  const char* doc = R"({"schema_version":8,"device":"k40c","results":[
    {"method":"X","m":8,"key_value":true,"total_ms":1.5,
     "sites":[{"label":"a","dram_read_tx":100},
              {"label":"b","dram_read_tx":7}]}]})";
  const DiffResult r = diff_reports(parse_json(doc), parse_json(doc));
  EXPECT_EQ(r.total_findings, 0u);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_GT(r.values_compared, 5u);
}

TEST(ReportDiff, EditedCounterNamesRowSiteAndMetric) {
  const char* base = R"({"schema_version":8,"results":[
    {"method":"Warp-level MS","m":8,"key_value":true,
     "sites":[{"label":"warp_ms/postscan_scatter","dram_read_tx":2948}]}]})";
  const char* cur = R"({"schema_version":8,"results":[
    {"method":"Warp-level MS","m":8,"key_value":true,
     "sites":[{"label":"warp_ms/postscan_scatter","dram_read_tx":2950}]}]})";
  const DiffResult r = diff_reports(parse_json(base), parse_json(cur));
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].path,
            "results[method=Warp-level MS,m=8,key_value=true]"
            ".sites[label=warp_ms/postscan_scatter].dram_read_tx");
  EXPECT_NE(r.findings[0].note.find("baseline 2948"), std::string::npos);
  EXPECT_NE(r.findings[0].note.find("current 2950"), std::string::npos);
}

TEST(ReportDiff, ToleranceSuppressesSmallDrift) {
  const char* base = R"({"schema_version":8,"results":[
    {"name":"k","time_ms":100.0}]})";
  const char* cur = R"({"schema_version":8,"results":[
    {"name":"k","time_ms":100.5}]})";
  DiffOptions opts;
  opts.tolerance = 0.01;  // 1% allowed; drift here is ~0.5%
  EXPECT_EQ(diff_reports(parse_json(base), parse_json(cur), opts)
                .total_findings,
            0u);
  opts.tolerance = 0.001;
  EXPECT_EQ(diff_reports(parse_json(base), parse_json(cur), opts)
                .total_findings,
            1u);
  // Exact tolerance 0: any numeric change is a finding.
  EXPECT_EQ(
      diff_reports(parse_json(base), parse_json(cur)).total_findings, 1u);
  // inf against a finite value has NaN relative drift; no tolerance may
  // swallow it.
  const char* inf = R"({"schema_version":8,"results":[
    {"name":"k","time_ms":1e999}]})";
  opts.tolerance = 0.5;
  EXPECT_EQ(diff_reports(parse_json(base), parse_json(inf), opts)
                .total_findings,
            1u);
  EXPECT_EQ(diff_reports(parse_json(inf), parse_json(base), opts)
                .total_findings,
            1u);
}

TEST(ReportDiff, RowOrderDoesNotMatter) {
  const char* base = R"({"schema_version":8,"results":[
    {"method":"A","m":2,"key_value":false,"total_ms":1.0},
    {"method":"B","m":2,"key_value":false,"total_ms":2.0}]})";
  const char* cur = R"({"schema_version":8,"results":[
    {"method":"B","m":2,"key_value":false,"total_ms":2.0},
    {"method":"A","m":2,"key_value":false,"total_ms":1.0}]})";
  EXPECT_EQ(diff_reports(parse_json(base), parse_json(cur)).total_findings,
            0u);
}

TEST(ReportDiff, MissingRowsAndMembersAreFindings) {
  const char* base = R"({"schema_version":8,"total_ms":3.0,"results":[
    {"method":"A","m":2,"key_value":false,"total_ms":1.0},
    {"method":"B","m":2,"key_value":false,"total_ms":2.0}]})";
  const char* cur = R"({"schema_version":8,"results":[
    {"method":"A","m":2,"key_value":false,"total_ms":1.0},
    {"method":"C","m":2,"key_value":false,"total_ms":9.0}]})";
  const DiffResult r = diff_reports(parse_json(base), parse_json(cur));
  ASSERT_EQ(r.findings.size(), 3u);
  bool missing_member = false, missing_row = false, added_row = false;
  for (const auto& f : r.findings) {
    if (f.path == "total_ms" &&
        f.note.find("missing in current") != std::string::npos)
      missing_member = true;
    if (f.path == "results[method=B,m=2,key_value=false]" &&
        f.note.find("missing in current") != std::string::npos)
      missing_row = true;
    if (f.path == "results[method=C,m=2,key_value=false]" &&
        f.note.find("added in current") != std::string::npos)
      added_row = true;
  }
  EXPECT_TRUE(missing_member);
  EXPECT_TRUE(missing_row);
  EXPECT_TRUE(added_row);
}

TEST(ReportDiff, PositionalArraysCompareByIndex) {
  const char* base = R"({"schema_version":8,"xs":[1,2,3]})";
  const char* cur = R"({"schema_version":8,"xs":[1,2,4,5]})";
  const DiffResult r = diff_reports(parse_json(base), parse_json(cur));
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].path, "xs[2]");
  EXPECT_EQ(r.findings[1].path, "xs");  // length change
}

TEST(ReportDiff, SchemaVersionIsEnforced) {
  const char* cur = R"({"schema_version":8,"x":1})";
  const char* old = R"({"schema_version":4,"x":1})";
  const char* none = R"({"x":1})";
  EXPECT_THROW(diff_reports(parse_json(none), parse_json(cur)),
               std::runtime_error);
  EXPECT_THROW(diff_reports(parse_json(cur), parse_json(none)),
               std::runtime_error);
  // Mismatched versions and matching-but-unsupported versions both throw.
  EXPECT_THROW(diff_reports(parse_json(old), parse_json(cur)),
               std::runtime_error);
  EXPECT_THROW(diff_reports(parse_json(old), parse_json(old)),
               std::runtime_error);
  EXPECT_NO_THROW(diff_reports(parse_json(cur), parse_json(cur)));
}

TEST(ReportDiff, HostTimeFieldsAreNeverCompared) {
  // Host wall-clock is nondeterministic by nature; any key starting with
  // "host_" is excluded from the diff in both directions (extra, missing,
  // or changed).
  const char* base = R"({"schema_version":8,"total_ms":3.0,"results":[
      {"method":"warp","host_ms":12.5,"host_keys_per_sec":1e8}]})";
  const char* cur = R"({"schema_version":8,"total_ms":3.0,"results":[
      {"method":"warp","host_ms":99.0}]})";
  const DiffResult r = diff_reports(parse_json(base), parse_json(cur));
  EXPECT_EQ(r.findings.size(), 0u)
      << (r.findings.empty() ? "" : r.findings[0].path);
}

TEST(ReportDiff, FindingCapKeepsTotalCount) {
  std::string base = R"({"schema_version":8,"xs":[)";
  std::string cur = base;
  for (int i = 0; i < 20; ++i) {
    base += (i ? "," : "") + std::to_string(i);
    cur += (i ? "," : "") + std::to_string(i + 100);
  }
  base += "]}";
  cur += "]}";
  DiffOptions opts;
  opts.max_findings = 5;
  const DiffResult r =
      diff_reports(parse_json(base), parse_json(cur), opts);
  EXPECT_EQ(r.findings.size(), 5u);
  EXPECT_EQ(r.total_findings, 20u);
}

}  // namespace
}  // namespace ms::sim
