// Campaign driver: see chaos_campaign.hpp for the contract.
#include "multisplit/chaos_campaign.hpp"

#include <sstream>

#include "multisplit/bucket.hpp"
#include "multisplit/plan.hpp"
#include "sim/memory.hpp"
#include "sim/span.hpp"

namespace ms::split {

namespace {

/// splitmix64 (same mixer the chaos engine uses); the campaign derives one
/// independent key stream per request from (campaign seed, request index).
u64 mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

sim::DeviceProfile profile_by_name(const std::string& name) {
  if (name == "750ti") return sim::DeviceProfile::gtx_750_ti();
  if (name == "sol") return sim::DeviceProfile::speed_of_light();
  return sim::DeviceProfile::tesla_k40c();
}

}  // namespace

ChaosCampaignReport run_chaos_campaign(const ChaosCampaignConfig& cfg) {
  check(!cfg.methods.empty(), "chaos campaign: need at least one method");
  check(cfg.m >= 1, "chaos campaign: need at least one bucket");

  ChaosCampaignReport rep;
  rep.config = cfg;

  sim::Device dev(profile_by_name(cfg.profile));
  dev.enable_chaos(cfg.chaos);
  if (cfg.record_spans) dev.enable_spans();

  const u64 n = u64{1} << cfg.log2_n;
  // Created AFTER enable_chaos, so both register with the engine.  The
  // input is protected: retries must re-execute against pristine keys, and
  // the ground-truth audit below is only meaningful if the reference input
  // survives the campaign.  The output stays fair game.
  sim::DeviceBuffer<u32> in(dev, n, "campaign.in");
  sim::DeviceBuffer<u32> out(dev, n, "campaign.out");
  dev.chaos()->protect_buffer(in.base_address());

  // Plans are built once per method (host-side only) and reused across
  // requests -- the serving pattern the resilient executor targets.
  std::vector<MultisplitPlan> plans;
  plans.reserve(cfg.methods.size());
  for (const Method m : cfg.methods) {
    MultisplitConfig mc;
    mc.method = m;
    plans.emplace_back(dev, n, cfg.m, mc);
  }

  const RangeBucket bucket{cfg.m};
  std::vector<u32> keys(n);
  std::vector<u32> want_offsets, want_sorted;

  for (u32 req = 0; req < cfg.requests; ++req) {
    // Fresh deterministic keys for this request.
    const u64 stream = mix64(cfg.seed ^ (u64{req} + 1));
    for (u64 i = 0; i < n; ++i) {
      keys[i] = static_cast<u32>(mix64(stream + i));
    }
    std::copy(keys.begin(), keys.end(), in.host().begin());
    // Host ground truth (RangeBucket never maps outside [0, m)).
    (void)host_stable_partition(keys, cfg.m, bucket, want_sorted,
                                want_offsets);

    const MultisplitPlan& plan = plans[req % plans.size()];
    MultisplitResult r;
    bool ran = false;
    try {
      r = plan.run(in, out, bucket, cfg.retry);
      ran = true;
    } catch (const sim::SimError&) {
      // Structured failure: the request surfaced an error instead of a
      // result.  Drain the sticky error so the audit of the next request
      // starts clean (run_resilient drains on entry too; this keeps the
      // device presentable for callers inspecting it between requests).
      (void)dev.take_last_error();
      rep.structured_errors += 1;
    }
    if (!ran) continue;

    rep.retries += r.resilience.retries;
    rep.fallbacks += r.resilience.fallbacks;

    // Independent audit against the host ground truth -- the executor's
    // own validator is part of the system under test, so the campaign
    // never trusts it.  All campaign methods are stable, so the output
    // must equal the stable partition exactly.
    bool correct = r.bucket_offsets.size() == want_offsets.size();
    if (correct) {
      for (std::size_t j = 0; j < want_offsets.size(); ++j) {
        if (r.bucket_offsets[j] != want_offsets[j]) correct = false;
      }
    }
    if (correct) {
      const std::span<const u32> got = std::as_const(out).host();
      for (u64 i = 0; i < n; ++i) {
        if (got[i] != want_sorted[i]) {
          correct = false;
          break;
        }
      }
    }
    if (correct) {
      // The protected input must still hold the generated keys.
      const std::span<const u32> src = std::as_const(in).host();
      for (u64 i = 0; i < n; ++i) {
        if (src[i] != keys[i]) {
          correct = false;
          break;
        }
      }
    }
    if (!correct) {
      rep.silent_wrong += 1;
    } else if (r.resilience.attempts > 1) {
      rep.recovered += 1;
    } else {
      rep.ok_first_try += 1;
    }
  }

  rep.stats = dev.resilience_stats();
  rep.injections = dev.chaos()->log();
  if (cfg.record_spans) {
    std::ostringstream spans;
    sim::write_spans_jsonl(spans, *dev.spans(), "chaos_campaign",
                           dev.profile().name);
    rep.spans_jsonl = spans.str();
  }
  return rep;
}

std::string format_campaign(const ChaosCampaignReport& rep) {
  const ChaosCampaignConfig& c = rep.config;
  std::ostringstream os;
  os << "chaos campaign: " << c.requests << " requests, n=2^" << c.log2_n
     << ", m=" << c.m << ", seed=0x" << std::hex << c.seed << std::dec
     << "\n";
  os << "methods:";
  for (const Method m : c.methods) os << " " << method_token(m);
  os << "\n";
  os << "policy: p_alloc_fail=" << c.chaos.p_alloc_fail
     << " p_launch_abort=" << c.chaos.p_launch_abort
     << " p_bit_flip=" << c.chaos.p_bit_flip
     << " p_l2_corrupt=" << c.chaos.p_l2_corrupt << "\n\n";

  const sim::ResilienceStats& s = rep.stats;
  os << "injected faults\n";
  os << "  alloc failures     " << s.injected_alloc_failures << "\n";
  os << "  launch aborts      " << s.injected_launch_aborts << "\n";
  os << "  bit flips          " << s.injected_bit_flips << "\n";
  os << "  l2 corruptions     " << s.injected_l2_corruptions << "\n";
  os << "  total              " << s.injected_total() << "\n\n";

  os << "executor response\n";
  os << "  faults detected    " << s.faults_observed << "\n";
  os << "  retries            " << s.retries << "\n";
  os << "  fallbacks          " << s.fallbacks << "\n";
  os << "  validation catches " << s.validation_failures << "\n\n";

  os << "request outcomes (" << rep.total() << "/" << c.requests << ")\n";
  os << "  ok first try       " << rep.ok_first_try << "\n";
  os << "  recovered          " << rep.recovered << "\n";
  os << "  structured errors  " << rep.structured_errors << "\n";
  os << "  SILENT WRONG       " << rep.silent_wrong << "\n\n";

  os << (rep.clean()
             ? "verdict: CLEAN (every fault recovered or surfaced)\n"
             : "verdict: FAILED (silent wrong results or lost requests)\n");
  return os.str();
}

}  // namespace ms::split
