#include "core/correlate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/testbed.h"

namespace ntier::core {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

std::vector<double> values_of(const metrics::Timeline& t) {
  std::vector<double> v(t.window_count());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = t.value_at(i);
  return v;
}

// A millibottleneck is defined by *pegged* windows (the paper marks a VM
// or disk saturated when demand/busy >= ~99%), so saturation candidates
// are correlated as 0/1 saturation indicators rather than raw
// percentages. Raw co-movement is misleading here: during upstream CTQO
// the victim tier's own utilization rises as a consequence of the
// backpressure and can out-correlate the true bottleneck, while the
// pegged-window indicator stays clean.
std::vector<double> binarize(std::vector<double> v, double threshold) {
  for (double& x : v) x = x >= threshold ? 1.0 : 0.0;
  return v;
}

// Pearson r of (x[i], y[i + lag]). Series zero-fill past their recorded
// length, so one that simply stopped early — e.g. no VLRT after the last
// episode — contributes genuine zeros rather than truncating the overlap.
double pearson_at_lag(const std::vector<double>& x, const std::vector<double>& y, int lag) {
  const std::size_t horizon = std::max(x.size(), y.size());
  if (horizon < 2 || static_cast<std::size_t>(lag) + 2 > horizon) return 0.0;
  const std::size_t m = horizon - static_cast<std::size_t>(lag);
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double a = i < x.size() ? x[i] : 0.0;
    const std::size_t j = i + static_cast<std::size_t>(lag);
    const double b = j < y.size() ? y[j] : 0.0;
    sx += a;
    sy += b;
    sxx += a * a;
    syy += b * b;
    sxy += a * b;
  }
  const double n = static_cast<double>(m);
  const double cov = n * sxy - sx * sy;
  const double vx = n * sxx - sx * sx;
  const double vy = n * syy - sy * sy;
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

// Ascending lag sweep; only a strictly greater r displaces the incumbent
// so the smallest best lag wins ties (determinism).
LagCorrelation best_lag(std::string source, std::string target,
                        const std::vector<double>& x, const std::vector<double>& y,
                        int max_lag, double window_seconds) {
  LagCorrelation out;
  out.source = std::move(source);
  out.target = std::move(target);
  out.r = pearson_at_lag(x, y, 0);
  for (int lag = 1; lag <= max_lag; ++lag) {
    const double r = pearson_at_lag(x, y, lag);
    if (r > out.r) {
      out.r = r;
      out.lag_windows = lag;
    }
  }
  out.lag_seconds = out.lag_windows * window_seconds;
  return out;
}

double series_total(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

}  // namespace

std::string LagCorrelation::to_string() const {
  return source + " -> " + target + fmt(": lag %.2f s r %.3f", lag_seconds, r);
}

std::string CausalChain::to_string() const {
  return saturation_series + " -> " + drop_series +
         fmt(" (lag %.2f s, r %.3f)", fill.lag_seconds, fill.r) + " -> vlrt" +
         fmt(" (lag %.2f s, r %.3f)", rto.lag_seconds, rto.r) +
         fmt(" score %.3f", score, 0.0);
}

const char* to_string(Propagation p) {
  switch (p) {
    case Propagation::kUpstream: return "upstream";
    case Propagation::kDownstream: return "downstream";
    case Propagation::kAbsent: return "absent";
  }
  return "absent";
}

std::string CorrelationReport::to_string() const {
  std::string out = "correlation report: propagation=";
  out += core::to_string(propagation);
  if (drop_tier >= 0) out += " drops at " + drop_tier_name;
  if (bottleneck_tier >= 0) out += " bottleneck " + bottleneck_series;
  out += "\n";
  for (const auto& c : chains) out += "  chain: " + c.to_string() + "\n";
  for (const auto& d : direct) out += "  direct: " + d.to_string() + "\n";
  if (!queue_onsets.empty()) {
    out += "  queue onset:";
    for (const auto& [name, at] : queue_onsets) {
      out += " " + name + (at < 0 ? "=never" : fmt("=%.2f s", at, 0.0));
    }
    out += "\n";
  }
  return out;
}

SignalSet collect_signals(const Testbed& sys) {
  SignalSet s;
  s.registry = &sys.registry();
  s.vlrt = &sys.latency().vlrt_per_window();
  s.window = sys.sampler().window();
  for (std::size_t f = 0; f < sys.flat_count(); ++f) {
    TierSignals ts;
    ts.name = sys.server_flat(f)->name();
    if (const cpu::IoDevice* disk = sys.disk_flat(f))
      ts.saturation.push_back(disk->name() + ".busy");
    const std::string& vm = sys.vm_flat(f)->name();
    ts.saturation.push_back(vm + ".demand");
    ts.saturation.push_back(vm + ".stall");
    ts.dropped = ts.name + ".dropped";
    ts.queue = ts.name + ".queue";
    s.tiers.push_back(std::move(ts));
  }
  return s;
}

std::vector<obs::SeriesGroup> detector_groups(const SignalSet& s) {
  std::vector<obs::SeriesGroup> groups;
  groups.reserve(s.tiers.size());
  for (const TierSignals& ts : s.tiers) {
    obs::SeriesGroup g;
    g.name = ts.name;
    g.saturation = ts.saturation;
    g.queue = ts.queue;
    g.dropped = ts.dropped;
    groups.push_back(std::move(g));
  }
  return groups;
}

CorrelationReport correlate_signals(const SignalSet& s, CorrelateOptions opt) {
  CorrelationReport rep;
  if (s.registry == nullptr || s.vlrt == nullptr || s.tiers.empty()) return rep;
  const double win_s = s.window.to_seconds();
  const int direct_max_lag = opt.max_fill_lag_windows + opt.max_rto_lag_windows;
  const std::vector<double> vlrt = values_of(*s.vlrt);

  // Extract every tier's signals once: saturation indicators (pegged
  // windows) and raw per-window drop counts.
  struct TierData {
    std::vector<std::pair<std::string, std::vector<double>>> sat;
    std::vector<double> drops;
  };
  std::vector<TierData> data(s.tiers.size());
  std::vector<double> drop_totals(s.tiers.size(), 0.0);
  for (std::size_t i = 0; i < s.tiers.size(); ++i) {
    for (const auto& name : s.tiers[i].saturation) {
      const metrics::Timeline* x = s.registry->find_series(name);
      if (x != nullptr)
        data[i].sat.emplace_back(name, binarize(values_of(*x), opt.saturation_pct));
    }
    const metrics::Timeline* d = s.registry->find_series(s.tiers[i].dropped);
    if (d != nullptr) {
      data[i].drops = values_of(*d);
      drop_totals[i] = series_total(data[i].drops);
    }
  }

  // Ranked pairs: every candidate series against VLRT directly.
  for (std::size_t i = 0; i < s.tiers.size(); ++i) {
    for (const auto& [name, sig] : data[i].sat)
      rep.direct.push_back(best_lag(name, "vlrt", sig, vlrt, direct_max_lag, win_s));
    if (!data[i].drops.empty())
      rep.direct.push_back(best_lag(s.tiers[i].dropped, "vlrt", data[i].drops, vlrt,
                                    opt.max_rto_lag_windows, win_s));
  }
  std::stable_sort(rep.direct.begin(), rep.direct.end(),
                   [](const LagCorrelation& a, const LagCorrelation& b) { return a.r > b.r; });

  // Chains: every saturation candidate against every dropping tier. The
  // RTO link is shared per drop tier; compute it once.
  std::vector<CausalChain> all;
  for (std::size_t d = 0; d < s.tiers.size(); ++d) {
    if (drop_totals[d] <= 0.0) continue;
    const LagCorrelation rto = best_lag(s.tiers[d].dropped, "vlrt", data[d].drops, vlrt,
                                        opt.max_rto_lag_windows, win_s);
    for (std::size_t b = 0; b < s.tiers.size(); ++b) {
      for (const auto& [sat, sig] : data[b].sat) {
        CausalChain c;
        c.bottleneck_tier = static_cast<int>(b);
        c.saturation_series = sat;
        c.drop_tier = static_cast<int>(d);
        c.drop_series = s.tiers[d].dropped;
        c.fill = best_lag(sat, s.tiers[d].dropped, sig, data[d].drops,
                          opt.max_fill_lag_windows, win_s);
        c.rto = rto;
        c.score = std::min(c.fill.r, c.rto.r);
        all.push_back(std::move(c));
      }
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const CausalChain& a, const CausalChain& b) { return a.score > b.score; });
  for (const auto& c : all)
    if (c.score >= opt.min_link_r) rep.chains.push_back(c);

  // Conclusion: dominant drop tier + the best chain explaining it.
  double best_drops = 0.0;
  for (std::size_t i = 0; i < s.tiers.size(); ++i) {
    if (drop_totals[i] > best_drops) {
      best_drops = drop_totals[i];
      rep.drop_tier = static_cast<int>(i);
    }
  }
  if (rep.drop_tier < 0) {
    rep.propagation = Propagation::kAbsent;
  } else {
    rep.drop_tier_name = s.tiers[static_cast<std::size_t>(rep.drop_tier)].name;
    for (const auto& c : all) {
      if (c.drop_tier == rep.drop_tier) {
        rep.bottleneck_tier = c.bottleneck_tier;
        rep.bottleneck_series = c.saturation_series;
        break;
      }
    }
    rep.propagation = rep.drop_tier < rep.bottleneck_tier ? Propagation::kUpstream
                                                          : Propagation::kDownstream;
  }

  // Queue-onset evidence: when each queue first hit half its own peak.
  for (const auto& tier : s.tiers) {
    const metrics::Timeline* q = s.registry->find_series(tier.queue);
    double at = -1.0;
    if (q != nullptr && q->max_value() > 0.0) {
      const sim::Time t = q->first_time_at_least(
          0.5 * q->max_value(), sim::Time::origin(), q->window_start(q->window_count()));
      if (t != sim::Time::max()) at = (t - sim::Time::origin()).to_seconds();
    }
    rep.queue_onsets.emplace_back(tier.name, at);
  }
  return rep;
}

CorrelationReport correlate(const Testbed& sys, CorrelateOptions opt) {
  return correlate_signals(collect_signals(sys), opt);
}

}  // namespace ntier::core
