// Correlation engine (core/correlate.h): synthetic lag recovery,
// propagation classification, determinism, and the fig 5 integration
// check — the engine must rediscover "DB disk saturation causes client
// VLRT one RTO (~3 s) later" from the registry timelines alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/correlate.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "metrics/timeline.h"
#include "telemetry/registry.h"

using namespace ntier;
using sim::Duration;
using sim::Time;

namespace {

constexpr int kWindows = 400;  // 20 s of 50 ms windows

Time w(int i) { return Time::origin() + Duration::millis(50) * i; }

// Marks [start, start+len) with `value` in a registry series.
void pulse(metrics::Timeline& t, int start, int len, double value) {
  for (int i = 0; i < len; ++i) t.set(w(start + i), value);
}

// Two-tier synthetic run: a saturation series on `sat_tier`, a drop
// series on `drop_tier`, VLRT trailing the drops by `rto_lag` windows,
// drops trailing saturation by `fill_lag`. Everything else zero.
struct Synthetic {
  telemetry::Registry reg{Duration::millis(50)};
  metrics::Timeline vlrt{"vlrt", Duration::millis(50)};
  core::SignalSet set;

  Synthetic(int sat_tier, int drop_tier, int fill_lag, int rto_lag) {
    const std::vector<std::string> names = {"front", "leaf"};
    auto& sat = reg.series(names[sat_tier] + "disk.busy");
    auto& drops = reg.series(names[drop_tier] + ".dropped");
    for (int start : {100, 250}) {
      pulse(sat, start, 10, 100.0);  // pegged windows (>= 99 %)
      pulse(drops, start + fill_lag, 10, 40.0);
      pulse(vlrt, start + fill_lag + rto_lag, 10, 30.0);
    }
    // Extend every series to the full horizon (trailing zeros).
    sat.set(w(kWindows - 1), 5.0);
    drops.set(w(kWindows - 1), 0.0);
    vlrt.set(w(kWindows - 1), 0.0);

    set.registry = &reg;
    set.vlrt = &vlrt;
    set.window = Duration::millis(50);
    for (int i = 0; i < 2; ++i) {
      core::TierSignals ts;
      ts.name = names[i];
      if (i == sat_tier) ts.saturation.push_back(names[i] + "disk.busy");
      ts.dropped = names[i] + ".dropped";
      ts.queue = names[i] + ".queue";
      set.tiers.push_back(std::move(ts));
    }
  }
};

}  // namespace

TEST(Correlate, RecoversInjectedLagsUpstream) {
  // Bottleneck behind (tier 1), drops in front (tier 0): upstream CTQO.
  Synthetic s(/*sat_tier=*/1, /*drop_tier=*/0, /*fill_lag=*/3, /*rto_lag=*/60);
  const auto rep = core::correlate_signals(s.set);

  EXPECT_EQ(rep.propagation, core::Propagation::kUpstream);
  EXPECT_EQ(rep.drop_tier, 0);
  EXPECT_EQ(rep.drop_tier_name, "front");
  EXPECT_EQ(rep.bottleneck_tier, 1);
  EXPECT_EQ(rep.bottleneck_series, "leafdisk.busy");

  ASSERT_FALSE(rep.chains.empty());
  const auto& top = rep.chains.front();
  EXPECT_EQ(top.fill.lag_windows, 3);
  EXPECT_NEAR(top.fill.lag_seconds, 0.15, 1e-9);
  EXPECT_EQ(top.rto.lag_windows, 60);
  EXPECT_NEAR(top.rto.lag_seconds, 3.0, 1e-9);
  EXPECT_GT(top.score, 0.95);  // pulses align exactly at the right lags
}

TEST(Correlate, ClassifiesDownstreamWhenDropsAreBehindTheBottleneck) {
  // Bottleneck in front (tier 0), drops behind (tier 1): an async front
  // flooded its backend — downstream CTQO.
  Synthetic s(/*sat_tier=*/0, /*drop_tier=*/1, /*fill_lag=*/5, /*rto_lag=*/61);
  const auto rep = core::correlate_signals(s.set);
  EXPECT_EQ(rep.propagation, core::Propagation::kDownstream);
  EXPECT_EQ(rep.drop_tier, 1);
  EXPECT_EQ(rep.bottleneck_tier, 0);
  ASSERT_FALSE(rep.chains.empty());
  EXPECT_EQ(rep.chains.front().rto.lag_windows, 61);
}

TEST(Correlate, AbsentWhenNothingDropped) {
  Synthetic s(1, 0, 3, 60);
  // Rebuild the signal set with the drop series zeroed out.
  auto& drops = s.reg.series("front.dropped");
  for (int i = 0; i < kWindows; ++i) drops.set(w(i), 0.0);
  const auto rep = core::correlate_signals(s.set);
  EXPECT_EQ(rep.propagation, core::Propagation::kAbsent);
  EXPECT_EQ(rep.drop_tier, -1);
  EXPECT_TRUE(rep.chains.empty());
}

TEST(Correlate, ReportIsDeterministic) {
  Synthetic a(1, 0, 3, 60);
  Synthetic b(1, 0, 3, 60);
  const auto ra = core::correlate_signals(a.set);
  const auto rb = core::correlate_signals(b.set);
  EXPECT_EQ(ra.to_string(), rb.to_string());
  // And repeated analysis of the same signals is byte-identical.
  EXPECT_EQ(core::correlate_signals(a.set).to_string(), ra.to_string());
}

namespace {

// The engine's definition of a lagged Pearson r, summed densely over every
// window of the overlap with zero-fill past each series' length. The
// engine sums only nonzero windows; the oracle below requires bit-equal r.
double dense_pearson(const std::vector<double>& x, const std::vector<double>& y, int lag) {
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

struct DenseBest {
  int lag = 0;
  double r = 0.0;
};

// Ascending sweep; a strictly greater r wins.
DenseBest dense_best(const std::vector<double>& x, const std::vector<double>& y, int max_lag) {
  DenseBest b{0, dense_pearson(x, y, 0)};
  for (int lag = 1; lag <= max_lag; ++lag) {
    const double r = dense_pearson(x, y, lag);
    if (r > b.r) b = {lag, r};
  }
  return b;
}

// A series of `len` windows, each nonzero with probability `density`:
// fractional values (so every sum depends on addend order), some
// negative, and -0.0 in a share of the zero windows.
void fill_sparse(metrics::Timeline& t, std::size_t len, double density, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t i = 0; i < len; ++i) {
    const Time at = w(static_cast<int>(i));
    if (u(rng) < density)
      t.set(at, (u(rng) < 0.1 ? -1.0 : 1.0) * (0.1 + 97.3 * u(rng)));
    else
      t.set(at, u(rng) < 0.2 ? -0.0 : 0.0);
  }
}

}  // namespace

// Oracle: the nonzero-window sweep gives every direct and chain link the
// same best lag and the bit-identical r that the dense sum gives, over
// sparse and dense series of unequal lengths, all-zero and empty series,
// -0.0 entries, and lag bounds up to and past horizon - 2.
TEST(Correlate, SparseSweepMatchesDensePearsonBitForBit) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 24; ++trial) {
    telemetry::Registry reg{Duration::millis(50)};
    metrics::Timeline vlrt{"vlrt", Duration::millis(50)};
    core::SignalSet set;
    set.registry = &reg;
    set.vlrt = &vlrt;
    const auto len = [&](std::size_t lo, std::size_t hi) { return lo + rng() % (hi - lo + 1); };
    fill_sparse(vlrt, len(0, 160), 0.05 + 0.1 * (trial % 3), rng);
    for (int t = 0; t < 3; ++t) {
      core::TierSignals ts;
      ts.name = "t";
      ts.name += std::to_string(t);
      for (const char* kind : {"disk.busy", ".demand"}) {
        const std::string name = ts.name + kind;
        auto& sat = reg.series(name);
        // Percent-like values: some windows pegged at >= 99.
        std::uniform_real_distribution<double> u(0.0, 1.0);
        const std::size_t n = len(0, 160);
        for (std::size_t i = 0; i < n; ++i)
          sat.set(w(static_cast<int>(i)), u(rng) < 0.15 ? 99.0 + u(rng) : 98.9 * u(rng));
        ts.saturation.push_back(name);
      }
      ts.dropped = ts.name + ".dropped";
      auto& drops = reg.series(ts.dropped);
      if (t == 1 && trial % 4 == 0) {
        drops.set(w(static_cast<int>(len(1, 120))), 0.0);  // all zero: no chain
      } else if (t == 2 && trial % 5 == 0) {
        // Registered but never written: zero windows.
      } else {
        fill_sparse(drops, len(0, 160), 0.02 + 0.2 * (trial % 4), rng);
      }
      ts.queue = ts.name + ".queue";
      set.tiers.push_back(std::move(ts));
    }
    core::CorrelateOptions opt;
    opt.max_fill_lag_windows = static_cast<int>(len(0, 90));
    opt.max_rto_lag_windows = static_cast<int>(len(0, 200));
    opt.min_link_r = -2.0;  // keep every chain

    const core::CorrelationReport rep = core::correlate_signals(set, opt);

    // Expected links from the dense oracle, keyed by (source, target).
    const std::vector<double>& y = vlrt.values();
    auto pegged = [&](const std::string& name) {
      std::vector<double> v = reg.find_series(name)->values();
      for (double& x : v) x = x >= opt.saturation_pct ? 1.0 : 0.0;
      return v;
    };
    std::map<std::pair<std::string, std::string>, DenseBest> expect;
    std::size_t direct = 0, chains = 0;
    for (const auto& ts : set.tiers) {
      const std::vector<double>& drops = reg.find_series(ts.dropped)->values();
      for (const auto& sat : ts.saturation) {
        expect[{sat, "vlrt"}] =
            dense_best(pegged(sat), y, opt.max_fill_lag_windows + opt.max_rto_lag_windows);
        ++direct;
      }
      if (!drops.empty()) {
        expect[{ts.dropped, "vlrt"}] = dense_best(drops, y, opt.max_rto_lag_windows);
        ++direct;
      }
      double total = 0.0;
      for (double d : drops) total += d;
      if (total <= 0.0) continue;
      for (const auto& src : set.tiers) {
        for (const auto& sat : src.saturation) {
          expect[{sat, ts.dropped}] = dense_best(pegged(sat), drops, opt.max_fill_lag_windows);
          ++chains;
        }
      }
    }
    auto check = [&](const core::LagCorrelation& c) {
      const auto it = expect.find({c.source, c.target});
      ASSERT_NE(it, expect.end()) << c.source << " -> " << c.target;
      EXPECT_EQ(c.lag_windows, it->second.lag) << "trial " << trial << " " << c.to_string();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.r), std::bit_cast<std::uint64_t>(it->second.r))
          << "trial " << trial << " " << c.to_string();
    };
    ASSERT_EQ(rep.direct.size(), direct) << "trial " << trial;
    ASSERT_EQ(rep.chains.size(), chains) << "trial " << trial;
    for (const auto& d : rep.direct) check(d);
    for (const auto& c : rep.chains) {
      check(c.fill);
      check(c.rto);
    }
  }
}

TEST(Correlate, Fig5FindsDbDiskSaturationAtOneRto) {
  // The acceptance check: from the fig 5 log-flush run's telemetry
  // alone, the engine must rank "DB disk saturation -> front-tier drops
  // -> VLRT at ~3 s" first and call the propagation upstream.
  auto sys = core::run_system(core::scenarios::fig5_logflush_sync());
  const auto set = core::collect_signals(*sys);
  for (const auto& tier : set.tiers) {
    for (const auto& name : tier.saturation)
      EXPECT_TRUE(set.registry->has_series(name)) << name;
    EXPECT_TRUE(set.registry->has_series(tier.dropped)) << tier.dropped;
  }

  const auto rep = core::correlate(*sys);
  EXPECT_EQ(rep.propagation, core::Propagation::kUpstream);
  EXPECT_EQ(rep.drop_tier_name, "apache");
  EXPECT_EQ(rep.bottleneck_series, "dbdisk.busy");
  ASSERT_FALSE(rep.chains.empty());
  const auto& top = rep.chains.front();
  EXPECT_EQ(top.saturation_series, "dbdisk.busy");
  // The headline number: drops surface as VLRT one RTO later (3 s
  // +/- 200 ms acceptance band).
  EXPECT_NEAR(top.rto.lag_seconds, 3.0, 0.2);
  EXPECT_GT(top.rto.r, 0.9);
  EXPECT_GT(top.score, 0.5);
}

TEST(Correlate, ConclusionComesFromSurvivingChains) {
  // Fig 1 at WL 8000 cut to 40 s: apache drops packets, but no VLRT
  // lands after measure_from, so every chain scores 0 and is pruned. The
  // conclusion must not fall back to a pruned chain: the drop tier is
  // named, and there is no bottleneck and no direction.
  auto cfg = core::scenarios::fig1_multimodal(8000);
  cfg.duration = Duration::seconds(40);
  auto sys = core::run_system(cfg);
  const auto rep = core::correlate(*sys);
  EXPECT_EQ(rep.drop_tier_name, "apache");
  EXPECT_TRUE(rep.chains.empty());
  EXPECT_EQ(rep.propagation, core::Propagation::kAbsent);
  EXPECT_EQ(rep.bottleneck_tier, -1);
  EXPECT_TRUE(rep.bottleneck_series.empty());
  EXPECT_EQ(rep.to_string().rfind("correlation report: propagation=absent drops at apache\n", 0),
            0u);
}
