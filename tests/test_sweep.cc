// Sweep engine: grid enumeration, replication statistics, and the
// jobs-invariance determinism contract.
#include "sweep/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "sweep/grid.h"
#include "sweep/stats.h"

namespace ntier::sweep {
namespace {

// ---------------------------------------------------------------- grid

TEST(Grid, RowMajorEnumeration) {
  Grid g;
  g.add_axis("a", {1, 2, 3}).add_axis("b", {10, 20});
  ASSERT_EQ(g.axis_count(), 2u);
  ASSERT_EQ(g.size(), 6u);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 6u);
  // Axis 0 slowest, axis 1 fastest; index == position.
  const double want[6][2] = {{1, 10}, {1, 20}, {2, 10}, {2, 20}, {3, 10}, {3, 20}};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(pts[i].index, i);
    EXPECT_EQ(pts[i].value(0), want[i][0]);
    EXPECT_EQ(pts[i].value(1), want[i][1]);
  }
  EXPECT_EQ(pts[3].label(g.axes()), "a=2 b=20");
}

TEST(Grid, SingleAxis) {
  Grid g;
  g.add_axis("wl", {3000, 5000, 7000});
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[2].value(0), 7000);
  EXPECT_EQ(pts[0].label(g.axes()), "wl=3000");
}

TEST(Grid, EmptyGridHasNoPoints) {
  Grid g;
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.points().empty());
}

TEST(Grid, RejectsBadAxes) {
  Grid g;
  g.add_axis("a", {1});
  EXPECT_THROW(g.add_axis("a", {2}), std::invalid_argument);  // duplicate
  EXPECT_THROW(g.add_axis("", {2}), std::invalid_argument);   // unnamed
  EXPECT_THROW(g.add_axis("b", {}), std::invalid_argument);   // empty values
}

// --------------------------------------------------------------- stats

TEST(Stats, TCriticalTable) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(2), 4.303);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  // Between tabulated rows the next smaller df is used (wider interval).
  EXPECT_DOUBLE_EQ(t_critical_95(45), 2.021);
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.96);
}

TEST(Stats, TIntervalClosedFormFixture) {
  // {1..5}: mean 3, sample stddev sqrt(2.5); half-width
  // t_{0.975,4} * s / sqrt(5) = 2.776 * sqrt(0.5).
  const Interval iv = t_interval({1, 2, 3, 4, 5});
  EXPECT_EQ(iv.n, 5u);
  EXPECT_DOUBLE_EQ(iv.mean, 3.0);
  EXPECT_NEAR(iv.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(iv.half_width, 2.776 * std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(iv.lo(), 3.0 - 2.776 * std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(iv.hi(), 3.0 + 2.776 * std::sqrt(0.5), 1e-12);
}

TEST(Stats, TIntervalDegenerateInputs) {
  const Interval empty = t_interval({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.half_width, 0.0);
  const Interval one = t_interval({42.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.half_width, 0.0);  // no spread estimate from n=1
  const Interval flat = t_interval({7, 7, 7});
  EXPECT_DOUBLE_EQ(flat.mean, 7.0);
  EXPECT_DOUBLE_EQ(flat.half_width, 0.0);
}

// -------------------------------------------------------------- engine

core::ExperimentConfig tiny_config(const GridPoint& p) {
  core::ExperimentConfig cfg;
  cfg.name = "tiny";
  cfg.workload.sessions = static_cast<std::size_t>(p.value(0));
  cfg.duration = sim::Duration::seconds(3);
  cfg.seed = 11;
  return cfg;
}

Grid tiny_grid() {
  Grid g;
  g.add_axis("sessions", {200, 400});
  return g;
}

TEST(SweepEngine, ReplicationSeedsAndShape) {
  SweepOptions opt;
  opt.replications = 2;
  opt.jobs = 1;
  const SweepResult res = run_sweep(tiny_grid(), tiny_config, opt);
  ASSERT_EQ(res.points.size(), 2u);
  EXPECT_EQ(res.replications, 2u);
  EXPECT_EQ(res.runs, 4u);
  for (const PointResult& pt : res.points) {
    ASSERT_EQ(pt.reps.size(), 2u);
    EXPECT_EQ(pt.base_seed, 11u);
    EXPECT_EQ(pt.reps[0].seed, 11u);
    EXPECT_EQ(pt.reps[1].seed, 12u);  // replication r runs cfg.seed + r
    EXPECT_GT(pt.reps[0].events, 0u);
    EXPECT_GT(pt.completed_mean, 0.0);
    EXPECT_EQ(pt.throughput_rps.n, 2u);
  }
  EXPECT_GT(res.total_events, 0u);
}

TEST(SweepEngine, ReplicationMatchesSoloRun) {
  // Replication r of a point must be bit-identical to a standalone run
  // of the same config with seed + r (the isolation invariant).
  SweepOptions opt;
  opt.replications = 2;
  opt.jobs = 2;
  const SweepResult res = run_sweep(tiny_grid(), tiny_config, opt);

  auto cfg = tiny_config(res.points[1].point);
  cfg.seed += 1;
  auto sys = core::run_system(cfg);
  const core::ExperimentSummary solo = core::summarize(*sys);
  const core::ExperimentSummary& rep = res.points[1].reps[1].summary;
  EXPECT_EQ(rep.latency.count, solo.latency.count);
  EXPECT_EQ(rep.latency.vlrt_count, solo.latency.vlrt_count);
  EXPECT_EQ(rep.total_drops, solo.total_drops);
  EXPECT_DOUBLE_EQ(rep.throughput_rps, solo.throughput_rps);
  EXPECT_EQ(rep.latency.mean.count_micros(), solo.latency.mean.count_micros());
  EXPECT_EQ(rep.latency.p99.count_micros(), solo.latency.p99.count_micros());
}

TEST(SweepEngine, JobsInvariantArtifacts) {
  // The determinism contract: the reduced CSV and manifest are
  // byte-identical for any worker count.
  SweepOptions serial;
  serial.replications = 3;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 8;
  const SweepResult a = run_sweep(tiny_grid(), tiny_config, serial);
  const SweepResult b = run_sweep(tiny_grid(), tiny_config, parallel);
  EXPECT_EQ(a.csv(), b.csv());
  EXPECT_EQ(a.manifest_json(), b.manifest_json());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.total_events, b.total_events);
  // And the worker count leaks into no artifact.
  EXPECT_EQ(a.manifest_json().find("jobs"), std::string::npos);
}

TEST(SweepEngine, CsvShapeAndRegistryMerge) {
  SweepOptions opt;
  opt.replications = 2;
  opt.jobs = 2;
  const SweepResult res = run_sweep(tiny_grid(), tiny_config, opt);
  const std::string csv = res.csv();
  // Header + one row per grid point.
  std::size_t lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1u + res.points.size());
  EXPECT_EQ(csv.rfind("sessions,name,replications,", 0), 0u);
  // Registry totals: merged name-sorted sums over the replications.
  const auto& totals = res.points[0].registry_totals;
  ASSERT_FALSE(totals.empty());
  for (std::size_t i = 1; i < totals.size(); ++i)
    EXPECT_LT(totals[i - 1].first, totals[i].first);
  double want = 0.0, got = 0.0;
  for (const auto& rep : res.points[0].reps)
    for (const auto& [name, v] : rep.registry)
      if (name == totals[0].first) want += v;
  for (const auto& [name, v] : totals)
    if (name == totals[0].first) got = v;
  EXPECT_DOUBLE_EQ(got, want);
}

TEST(SweepEngine, RejectsBadOptionsAndConfigs) {
  SweepOptions opt;
  opt.replications = 0;
  EXPECT_THROW(run_sweep(tiny_grid(), tiny_config, opt), std::invalid_argument);
  opt.replications = 1;
  opt.jobs = 0;
  EXPECT_THROW(run_sweep(tiny_grid(), tiny_config, opt), std::invalid_argument);
  opt.jobs = 1;
  const auto bad_bind = [](const GridPoint&) {
    core::ExperimentConfig cfg;
    cfg.workload.sessions = 0;  // invalid: no load generators
    return cfg;
  };
  EXPECT_THROW(run_sweep(tiny_grid(), bad_bind, opt), std::invalid_argument);
}

TEST(SweepEngine, CtqoOnsetPerSlice) {
  // Synthesize onsets without running heavy configs: drive the real
  // engine over a tiny 2x2 grid, then check the slice bookkeeping on the
  // result (onset detection itself is pure reduction logic).
  Grid g;
  g.add_axis("wl", {200, 400}).add_axis("nx", {0, 1});
  SweepOptions opt;
  opt.replications = 1;
  opt.jobs = 2;
  const SweepResult res = run_sweep(g, tiny_config, opt);
  // One onset record per combination of the non-primary axes.
  ASSERT_EQ(res.onsets.size(), 2u);
  EXPECT_EQ(res.onsets[0].slice_label, "nx=0");
  EXPECT_EQ(res.onsets[1].slice_label, "nx=1");
  for (const CtqoOnset& o : res.onsets) {
    // Tiny overprovisioned runs never overflow a queue: no onset.
    EXPECT_FALSE(o.found);
  }
}

}  // namespace
}  // namespace ntier::sweep
