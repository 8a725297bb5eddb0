#include "core/experiment.h"

#include <cinttypes>

#include "sim/format.h"

namespace ntier::core {

std::unique_ptr<NTierSystem> run_system(const ExperimentConfig& cfg) {
  validate(cfg);
  auto sys = std::make_unique<NTierSystem>(cfg);
  sys->run();
  return sys;
}

ExperimentSummary summarize(NTierSystem& sys) {
  ExperimentSummary s;
  const auto& cfg = sys.config();
  s.name = cfg.name;
  const sim::Time now = sys.simulation().now();
  const sim::Time from = cfg.workload.measure_from;
  s.duration_s = (now - from).to_seconds();
  s.throughput_rps = sys.latency().throughput_rps(from, now);
  s.latency = sys.latency().digest();
  s.failed_requests = sys.clients().failed();

  for (int t = 0; t < 3; ++t) {
    const Tier tier = static_cast<Tier>(t);
    auto* srv = sys.tier(tier);
    TierSummary ts;
    ts.server = srv->name();
    ts.accepted = srv->stats().accepted;
    ts.dropped = srv->stats().dropped;
    ts.completed = srv->stats().completed;
    ts.max_sys_q_depth = srv->max_sys_q_depth();
    ts.peak_queue = sys.sampler().series(srv->name() + ".queue").max_value();
    const auto& cpu = sys.sampler().series(sys.tier_vm(tier)->name() + ".cpu");
    ts.mean_cpu_pct = cpu.mean_over(from, now);
    s.total_drops += ts.dropped;
    if (ts.mean_cpu_pct > s.highest_mean_util_pct) s.highest_mean_util_pct = ts.mean_cpu_pct;
    s.tiers.push_back(std::move(ts));
  }
  if (const auto* gov = sys.clients().governor()) {
    s.client_retries = gov->stats().retries;
    s.client_hedges = gov->stats().hedges;
    s.hedge_wins = gov->stats().hedge_wins;
    s.breaker_opens = gov->breaker() ? gov->breaker()->opens() : 0;
    s.deadline_cancels = gov->stats().deadline_cancels;
  }
  s.retransmit_exhausted = sys.clients().tx_stats().retransmit_exhausted;
  for (int t = 0; t < 3; ++t) {
    auto* srv = sys.tier(static_cast<Tier>(t));
    s.expired_at_admission += srv->stats().expired;
    if (const auto* gov = srv->governor()) {
      s.deadline_cancels += gov->stats().deadline_cancels;
      s.hedge_wins += gov->stats().hedge_wins;
    }
    if (auto* tx = srv->downstream_transport())
      s.retransmit_exhausted += tx->stats().retransmit_exhausted;
  }
  s.ctqo = analyze_ctqo(sys);
  return s;
}

std::string ExperimentSummary::to_string() const {
  std::string out;
  sim::appendf(out,
               "%s: %.1f req/s over %.0fs, highest avg CPU %.0f%%, drops=%" PRIu64
               ", failed=%" PRIu64 "\n  latency: %s\n",
               name.c_str(), throughput_rps, duration_s, highest_mean_util_pct, total_drops,
               failed_requests, latency.to_string().c_str());
  for (const auto& t : tiers)
    sim::appendf(out,
                 "  %-8s acc=%" PRIu64 " drop=%" PRIu64
                 " peakQ=%.0f maxSysQDepth=%zu cpu=%.0f%%\n",
                 t.server.c_str(), t.accepted, t.dropped, t.peak_queue, t.max_sys_q_depth,
                 t.mean_cpu_pct);
  if (client_retries || client_hedges || breaker_opens || deadline_cancels ||
      expired_at_admission || retransmit_exhausted)
    sim::appendf(out,
                 "  policy: retries=%" PRIu64 " hedges=%" PRIu64 " (wins=%" PRIu64
                 ") breakerOpens=%" PRIu64 " deadlineCancels=%" PRIu64
                 " expiredAtTier=%" PRIu64 " rtoExhausted=%" PRIu64 "\n",
                 client_retries, client_hedges, hedge_wins, breaker_opens, deadline_cancels,
                 expired_at_admission, retransmit_exhausted);
  out += ctqo.to_string();
  return out;
}

}  // namespace ntier::core
