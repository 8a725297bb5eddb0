#include "core/metastability.h"

#include <algorithm>

#include "sim/format.h"

namespace ntier::core {

const char* to_string(Regime r) {
  switch (r) {
    case Regime::kRecovered: return "recovered";
    case Regime::kMetastable: return "metastable";
  }
  return "?";
}

std::string TierRecovery::to_string() const {
  std::string out;
  sim::appendf(out, "  %-10s ", name.c_str());
  if (recovered)
    sim::appendf(out, "recovered at t=%.2fs ", recovered_at.to_seconds());
  else
    out += "NOT recovered       ";
  sim::appendf(out, " (pre peak %.1f, post peak %.1f, amplification %.2fx)", pre_queue_peak,
               post_queue_peak, amplification);
  return out;
}

std::string MetastabilityVerdict::to_string() const {
  std::string out;
  if (regime == Regime::kRecovered)
    sim::appendf(out,
                 "verdict: RECOVERED  time-to-recovery %.2fs  amplification %.2fx "
                 "(slowest tier: %s)",
                 time_to_recovery.to_seconds(), storm_amplification, worst_tier.c_str());
  else
    sim::appendf(out, "verdict: METASTABLE  amplification %.2fx (worst tier: %s)",
                 storm_amplification, worst_tier.c_str());
  for (const auto& t : tiers) {
    out += '\n';
    out += t.to_string();
  }
  return out;
}

MetastabilityVerdict classify_recovery(
    const std::vector<std::string>& tier_prefixes,
    const monitor::Sampler& sampler, const RecoveryOptions& opt) {
  MetastabilityVerdict v;
  const sim::Duration win = sampler.window();
  const sim::Time horizon_end = opt.fault_clear + opt.horizon;

  for (const auto& prefix : tier_prefixes) {
    const metrics::Timeline& queue = sampler.series(prefix + ".queue");
    const metrics::Timeline& offered = sampler.series(prefix + ".offered");
    const metrics::Timeline& completed = sampler.series(prefix + ".completed");

    TierRecovery tr;
    tr.name = prefix;
    const sim::Time pre_from = opt.fault_start - opt.pre_window;
    tr.pre_queue_peak = queue.max_over(pre_from, opt.fault_start);
    tr.pre_goodput = completed.mean_over(pre_from, opt.fault_start);
    tr.post_queue_peak = queue.max_over(opt.fault_clear, horizon_end);

    const double drain = completed.mean_over(opt.fault_clear, horizon_end);
    const double offer = offered.mean_over(opt.fault_clear, horizon_end);
    tr.amplification = offer / std::max(drain, 1e-9);

    const double queue_ok =
        std::max(opt.queue_floor, opt.queue_band * tr.pre_queue_peak);
    const double goodput_ok = opt.goodput_band * tr.pre_goodput;
    for (sim::Time t = opt.fault_clear; t + opt.settle <= horizon_end; t = t + win) {
      if (queue.max_over(t, t + opt.settle) <= queue_ok &&
          completed.mean_over(t, t + opt.settle) >= goodput_ok) {
        tr.recovered = true;
        tr.recovered_at = t;
        break;
      }
    }
    v.tiers.push_back(std::move(tr));
  }

  bool all = !v.tiers.empty();
  sim::Duration ttr = sim::Duration::zero();
  for (const auto& t : v.tiers) {
    if (!t.recovered) all = false;
    v.storm_amplification = std::max(v.storm_amplification, t.amplification);
  }
  if (all) {
    v.regime = Regime::kRecovered;
    for (const auto& t : v.tiers) {
      const sim::Duration d = t.recovered_at - opt.fault_clear;
      if (t.recovered && d >= ttr) {
        ttr = d;
        v.worst_tier = t.name;
      }
    }
    v.time_to_recovery = ttr;
  } else {
    v.regime = Regime::kMetastable;
    double worst = -1.0;
    for (const auto& t : v.tiers) {
      if (!t.recovered && t.amplification > worst) {
        worst = t.amplification;
        v.worst_tier = t.name;
      }
    }
  }
  return v;
}

}  // namespace ntier::core
