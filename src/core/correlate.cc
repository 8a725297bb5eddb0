#include "core/correlate.h"

#include <algorithm>
#include <cmath>

#include "core/testbed.h"
#include "sim/format.h"

namespace ntier::core {

namespace {

// A series as its nonzero windows: ascending indices with their values,
// and the recorded length. Built once per series per report, so each lag
// of a sweep costs the nonzero windows rather than the whole run.
struct Sparse {
  std::size_t size = 0;
  std::vector<std::size_t> idx;
  std::vector<double> val;

  void push(std::size_t i, double v) {
    idx.push_back(i);
    val.push_back(v);
  }
};

// Every window whose value is not +-0.0 (NaN counts as nonzero).
Sparse nonzeros(const metrics::Timeline& t) {
  Sparse s;
  const std::vector<double>& v = t.values();
  s.size = v.size();
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] != 0.0) s.push(i, v[i]);
  return s;
}

// A millibottleneck is defined by *pegged* windows (the paper marks a VM
// or disk saturated when demand/busy >= ~99%), so saturation candidates
// are correlated as 0/1 saturation indicators rather than raw
// percentages. Raw co-movement is misleading here: during upstream CTQO
// the victim tier's own utilization rises as a consequence of the
// backpressure and can out-correlate the true bottleneck, while the
// pegged-window indicator stays clean.
Sparse pegged(const metrics::Timeline& t, double threshold) {
  Sparse s;
  const std::vector<double>& v = t.values();
  s.size = v.size();
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] >= threshold) s.push(i, 1.0);
  return s;
}

// Pearson r of (x[i], y[i + lag]) for i < horizon - lag. Series zero-fill
// past their recorded length, so one that simply stopped early — e.g. no
// VLRT after the last episode — contributes genuine zeros rather than
// truncating the overlap.
//
// Only nonzero windows are summed, and this is exact, not approximate:
// each sum starts at +0.0 and an IEEE sum is -0.0 only when both addends
// are, so adding a +-0.0 term never changes it. Each sum skips exactly
// its zero terms and sees the rest in ascending window order, as a loop
// over every window would: sx/sxx walk x's nonzero windows, sy/syy walk
// y's from `lag` on, and sxy walks their union (x's windows merged with
// y's shifted by the lag), so a product is skipped only when both
// factors are zero and 0 * inf still yields NaN.
double pearson_at_lag(const Sparse& x, const Sparse& y, int lag) {
  const std::size_t horizon = std::max(x.size, y.size);
  const auto shift = static_cast<std::size_t>(lag);
  if (horizon < 2 || shift + 2 > horizon) return 0.0;
  const std::size_t m = horizon - shift;
  const std::size_t xn =
      static_cast<std::size_t>(std::lower_bound(x.idx.begin(), x.idx.end(), m) - x.idx.begin());
  std::size_t yk =
      static_cast<std::size_t>(std::lower_bound(y.idx.begin(), y.idx.end(), shift) - y.idx.begin());
  std::size_t xk = 0;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  while (xk < xn || yk < y.idx.size()) {
    // Next window of the union; a series with no term there reads 0.
    const std::size_t xi = xk < xn ? x.idx[xk] : m;
    const std::size_t yi = yk < y.idx.size() ? y.idx[yk] - shift : m;
    double a = 0.0, b = 0.0;
    if (xi <= yi) {
      a = x.val[xk++];
      sx += a;
      sxx += a * a;
    }
    if (yi <= xi) {
      b = y.val[yk++];
      sy += b;
      syy += b * b;
    }
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
LagCorrelation best_lag(std::string source, std::string target, const Sparse& x,
                        const Sparse& y, int max_lag, double window_seconds) {
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

// Sum in window order; skipping the zero windows is exact (see above).
double series_total(const Sparse& s) {
  double acc = 0.0;
  for (double x : s.val) acc += x;
  return acc;
}

}  // namespace

std::string LagCorrelation::to_string() const {
  std::string out = source + " -> " + target;
  sim::appendf(out, ": lag %.2f s r %.3f", lag_seconds, r);
  return out;
}

std::string CausalChain::to_string() const {
  std::string out = saturation_series + " -> " + drop_series;
  sim::appendf(out, " (lag %.2f s, r %.3f) -> vlrt (lag %.2f s, r %.3f) score %.3f",
               fill.lag_seconds, fill.r, rto.lag_seconds, rto.r, score);
  return out;
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
      out += " " + name;
      if (at < 0)
        out += "=never";
      else
        sim::appendf(out, "=%.2f s", at);
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
  const Sparse vlrt = nonzeros(*s.vlrt);

  // Extract every tier's signals once: saturation indicators (pegged
  // windows) and raw per-window drop counts, as their nonzero windows.
  struct TierData {
    std::vector<std::pair<std::string, Sparse>> sat;
    Sparse drops;
  };
  std::vector<TierData> data(s.tiers.size());
  std::vector<double> drop_totals(s.tiers.size(), 0.0);
  for (std::size_t i = 0; i < s.tiers.size(); ++i) {
    for (const auto& name : s.tiers[i].saturation) {
      const metrics::Timeline* x = s.registry->find_series(name);
      if (x != nullptr) data[i].sat.emplace_back(name, pegged(*x, opt.saturation_pct));
    }
    const metrics::Timeline* d = s.registry->find_series(s.tiers[i].dropped);
    if (d != nullptr) {
      data[i].drops = nonzeros(*d);
      drop_totals[i] = series_total(data[i].drops);
    }
  }

  // Ranked pairs: every candidate series against VLRT directly.
  for (std::size_t i = 0; i < s.tiers.size(); ++i) {
    for (const auto& [name, sig] : data[i].sat)
      rep.direct.push_back(best_lag(name, "vlrt", sig, vlrt, direct_max_lag, win_s));
    if (data[i].drops.size > 0)
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
  for (auto& c : all)
    if (c.score >= opt.min_link_r) rep.chains.push_back(std::move(c));

  // Conclusion: dominant drop tier + the best surviving chain explaining
  // it. Drops that no chain above min_link_r explains name their tier
  // but carry no bottleneck and no direction.
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
    for (const auto& c : rep.chains) {
      if (c.drop_tier == rep.drop_tier) {
        rep.bottleneck_tier = c.bottleneck_tier;
        rep.bottleneck_series = c.saturation_series;
        break;
      }
    }
    if (rep.bottleneck_tier < 0) {
      rep.propagation = Propagation::kAbsent;
    } else {
      rep.propagation = rep.drop_tier < rep.bottleneck_tier ? Propagation::kUpstream
                                                            : Propagation::kDownstream;
    }
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
