// Telemetry primitives: the Greenwald-Khanna streaming quantile's rank
// guarantee (vs the exact percentiles LinearHistogram computes from its
// raw sample), merge semantics, and the registry's probe sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

using namespace ntier;
using sim::Duration;
using sim::Time;
using telemetry::GkQuantile;
using telemetry::Registry;

namespace {

// GK contract: quantile(q) returns a sample whose rank lies within
// eps*n of q*n. Verified against the sorted sample: the estimate must
// fall between the values at ranks q*n -/+ eps*n (inclusive, +1 sample
// of slack for rank-rounding at the extremes).
void expect_rank_bound(const std::vector<double>& sorted, const GkQuantile& gk,
                       double q) {
  const auto n = static_cast<double>(sorted.size());
  const double slack = gk.merged_eps() * n + 1.0;
  const auto lo = static_cast<std::size_t>(std::max(0.0, q * n - slack));
  const auto hi = static_cast<std::size_t>(
      std::min(n - 1.0, q * n + slack));
  const double est = gk.quantile(q);
  EXPECT_GE(est, sorted[lo]) << "q=" << q;
  EXPECT_LE(est, sorted[hi]) << "q=" << q;
}

// Deterministic non-sorted feeding order: i -> (i * stride) mod n with
// gcd(stride, n) = 1 is a permutation of 0..n-1.
std::vector<double> scrambled_iota(std::size_t n, std::size_t stride) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<double>((i * stride) % n);
  return v;
}

// The paper's multi-modal latency shape: a dense sub-200 ms body with
// modes near 3/6/9 s (the 1/2/3-retransmission peaks). Exactly the
// distribution that defeats curve-fitting estimators.
std::vector<double> multimodal_latencies(std::size_t n) {
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 1000;
    if (c < 900) {
      v.push_back(100.0 + static_cast<double>(i % 37));
    } else if (c < 970) {
      v.push_back(3000.0 + static_cast<double>(i % 23));
    } else if (c < 990) {
      v.push_back(6000.0 + static_cast<double>(i % 11));
    } else {
      v.push_back(9000.0 + static_cast<double>(i % 7));
    }
  }
  return v;
}

}  // namespace

TEST(GkQuantile, EmptyReturnsZero) {
  GkQuantile gk;
  EXPECT_EQ(gk.count(), 0u);
  EXPECT_DOUBLE_EQ(gk.quantile(0.5), 0.0);
}

TEST(GkQuantile, SingleAndExtremeQuantiles) {
  GkQuantile gk;
  gk.record(7.5);
  for (double q : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(gk.quantile(q), 7.5);
  gk.record(2.0);
  EXPECT_DOUBLE_EQ(gk.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(gk.quantile(1.0), 7.5);
}

TEST(GkQuantile, RankBoundOnUniformStream) {
  const std::size_t n = 20000;
  GkQuantile gk(0.005);
  for (double x : scrambled_iota(n, 7919)) gk.record(x);
  ASSERT_EQ(gk.count(), n);
  std::vector<double> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = static_cast<double>(i);
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999})
    expect_rank_bound(sorted, gk, q);
}

TEST(GkQuantile, RankBoundOnMultimodalVsExactHistogram) {
  auto samples = multimodal_latencies(30000);
  GkQuantile gk(0.005);
  metrics::LinearHistogram hist(Duration::millis(100), Duration::seconds(30));
  for (double ms : samples) {
    gk.record(ms);
    hist.record(Duration::from_seconds(ms / 1000.0));
  }
  auto sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.9, 0.99, 0.995, 0.999})
    expect_rank_bound(sorted, gk, q);

  // Against the exact (raw-sample) histogram percentiles: in the dense
  // body the two must agree to within the error the rank bound allows
  // (the p50 neighbourhood spans values 100..136 ms).
  EXPECT_NEAR(gk.quantile(0.5), hist.percentile(50.0).to_millis(), 40.0);
  // p99 sits inside the 3 s retransmission mode for both estimators.
  EXPECT_NEAR(gk.quantile(0.99), hist.percentile(99.0).to_millis(), 150.0);
}

TEST(GkQuantile, CompressionBoundsMemory) {
  const std::size_t n = 50000;
  GkQuantile gk(0.005);
  for (double x : scrambled_iota(n, 9973)) gk.record(x);
  // O((1/eps) * log(eps*n)) tuples, not O(n).
  EXPECT_LT(gk.tuple_count(), 5000u);
  EXPECT_GT(gk.tuple_count(), 10u);
}

TEST(GkQuantile, MergeSumsEpsAndAnswersOverUnion) {
  const std::size_t n = 10000;
  GkQuantile a(0.01);
  GkQuantile b(0.01);
  for (double x : scrambled_iota(n, 7919)) a.record(x);
  for (double x : scrambled_iota(n, 7919)) b.record(x + static_cast<double>(n));
  a.merge(b);
  EXPECT_EQ(a.count(), 2 * n);
  EXPECT_NEAR(a.merged_eps(), 0.02, 1e-12);
  std::vector<double> sorted(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) sorted[i] = static_cast<double>(i);
  for (double q : {0.1, 0.5, 0.9, 0.99}) expect_rank_bound(sorted, a, q);
}

TEST(Registry, CumulativeProbeWritesPerSecondRates) {
  Registry reg(Duration::millis(50));
  std::uint64_t events = 0;
  reg.add_probe("sim.events", Registry::ProbeKind::kCumulative,
                [&] { return static_cast<double>(events); });
  events = 5;
  reg.sample(Time::origin(), 0.05);
  events = 5 + 12;
  reg.sample(Time::origin() + Duration::millis(50), 0.05);
  reg.sample(Time::origin() + Duration::millis(100), 0.05);  // no new events
  const auto& s = *reg.find_series("sim.events");
  EXPECT_DOUBLE_EQ(s.value_at(0), 5.0 / 0.05);
  EXPECT_DOUBLE_EQ(s.value_at(1), 12.0 / 0.05);
  EXPECT_DOUBLE_EQ(s.value_at(2), 0.0);
}

TEST(Registry, GaugeProbeWritesLevelsVerbatim) {
  Registry reg(Duration::millis(50));
  double depth = 3.0;
  reg.add_probe("sim.heap_depth", Registry::ProbeKind::kGauge,
                [&] { return depth; });
  reg.sample(Time::origin(), 0.05);
  depth = 17.0;
  reg.sample(Time::origin() + Duration::millis(50), 0.05);
  const auto& s = *reg.find_series("sim.heap_depth");
  EXPECT_DOUBLE_EQ(s.value_at(0), 3.0);
  EXPECT_DOUBLE_EQ(s.value_at(1), 17.0);
}

TEST(Registry, SnapshotIsNameSortedAndMarksProbeTotals) {
  Registry reg;
  reg.add_probe("web.drops", Registry::ProbeKind::kGauge, [] { return 3.0; });
  std::uint64_t total = 41;
  reg.add_probe("sim.events", Registry::ProbeKind::kCumulative,
                [&] { return static_cast<double>(total); });
  reg.add_probe("breaker.state", Registry::ProbeKind::kGauge, [] { return 1.0; });
  reg.add_probe("breaker.state", Registry::ProbeKind::kGauge, [] { return 2.0; });
  total = 42;
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "breaker.state");
  EXPECT_DOUBLE_EQ(snap[0].second, 2.0);  // the later of two same-named probes wins
  EXPECT_EQ(snap[1].first, "sim.events.total");
  EXPECT_DOUBLE_EQ(snap[1].second, 42.0);  // probe totals read fn() now
  EXPECT_EQ(snap[2].first, "web.drops");
  EXPECT_DOUBLE_EQ(snap[2].second, 3.0);
}

TEST(Registry, CreateOrGetReturnsStableInstruments) {
  Registry reg;
  auto& s = reg.series("x");
  s.set(Time::origin(), 2.0);
  EXPECT_EQ(&reg.series("x"), &s);
  EXPECT_EQ(&reg.at(reg.intern_series("x")), &s);
  for (int i = 0; i < 1000; ++i) reg.series(std::to_string(i));
  EXPECT_EQ(&reg.series("x"), &s);  // growth moves no series
  EXPECT_DOUBLE_EQ(reg.series("x").value_at(0), 2.0);
  auto& q = reg.quantile("lat", 0.01);
  q.record(1.0);
  EXPECT_EQ(&reg.quantile("lat"), &q);
  EXPECT_DOUBLE_EQ(reg.quantile("lat").eps(), 0.01);
  EXPECT_FALSE(reg.has_series("lat"));
  EXPECT_TRUE(reg.has_series("999"));
}
