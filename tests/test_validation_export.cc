// Tests for QuantileTimeline, the run validator, and CSV run export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include "core/experiment.h"
#include "core/export.h"
#include "core/scenarios.h"
#include "core/validation.h"
#include "metrics/quantile_timeline.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;

// --- QuantileTimeline ------------------------------------------------------

TEST(QuantileTimeline, PerWindowQuantiles) {
  metrics::QuantileTimeline q({50.0, 99.0}, Duration::seconds(1));
  // Window 0: 1..100 ms.
  for (int i = 1; i <= 100; ++i)
    q.record(Time::from_seconds(0.5), Duration::millis(i));
  // Window 1: constant 7 ms.
  for (int i = 0; i < 10; ++i)
    q.record(Time::from_seconds(1.5), Duration::millis(7));
  q.flush();
  EXPECT_NEAR(q.series(50.0).value_at(0), 50.0, 1.5);
  EXPECT_NEAR(q.series(99.0).value_at(0), 99.0, 1.5);
  EXPECT_NEAR(q.series(50.0).value_at(1), 7.0, 0.01);
}

// Oracle: every window's value is the sorted copy of that window's
// samples read at each quantile's nearest rank. Window sizes run from
// empty through 1 and 2 to a few hundred; quantiles are queried out of
// ascending order and include 100.
TEST(QuantileTimeline, MatchesPerWindowSortOracle) {
  const std::vector<double> qs = {99.0, 50.0, 100.0, 0.5, 99.9};
  metrics::QuantileTimeline q(qs, Duration::millis(50));
  std::mt19937_64 rng(42);
  constexpr std::size_t kSizes[] = {0, 1, 2, 7, 40, 400};
  std::vector<std::vector<std::int64_t>> windows(300);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::size_t n = kSizes[rng() % 6];
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::int64_t>(rng() % 5000) * (rng() % 8 == 0 ? 600 : 1);
      windows[w].push_back(v);
      q.record(Time::origin() + Duration::millis(50) * static_cast<std::int64_t>(w) +
                   Duration::micros(static_cast<std::int64_t>(i)),
               Duration::micros(v));
    }
  }
  q.flush();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::vector<std::int64_t> sorted = windows[w];
    std::sort(sorted.begin(), sorted.end());
    for (double p : qs) {
      double expect = 0.0;
      if (!sorted.empty()) {
        const auto rank = static_cast<std::size_t>(
            p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
        expect = static_cast<double>(sorted[rank]) / 1000.0;
      }
      ASSERT_EQ(q.series(p).value_at(w), expect) << "window " << w << " p" << p;
    }
  }
}

TEST(QuantileTimeline, EmptyWindowStaysZero) {
  metrics::QuantileTimeline q({50.0}, Duration::seconds(1));
  q.record(Time::from_seconds(0.1), Duration::millis(5));
  q.record(Time::from_seconds(2.1), Duration::millis(9));  // skips window 1
  q.flush();
  EXPECT_NEAR(q.series(50.0).value_at(0), 5.0, 0.01);
  EXPECT_DOUBLE_EQ(q.series(50.0).value_at(1), 0.0);
  EXPECT_NEAR(q.series(50.0).value_at(2), 9.0, 0.01);
}

TEST(QuantileTimeline, UnknownQuantileThrows) {
  metrics::QuantileTimeline q({50.0}, Duration::seconds(1));
  EXPECT_THROW((void)q.series(99.0), std::out_of_range);
}

TEST(QuantileTimeline, FlushIsIdempotent) {
  metrics::QuantileTimeline q({50.0}, Duration::seconds(1));
  q.record(Time::from_seconds(0.1), Duration::millis(5));
  q.flush();
  q.flush();
  EXPECT_NEAR(q.series(50.0).value_at(0), 5.0, 0.01);
}

TEST(QuantileTimeline, CollectorP99SpikesDuringMillibottleneck) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.duration = Duration::seconds(12);
  auto sys = core::run_system(cfg);
  sys->latency().flush();
  const auto& p99 = sys->latency().latency_quantile_series(99.0);
  // Quiet early second vs the burst at ~6.5-7.5 s.
  EXPECT_LT(p99.value_at(1), 50.0);
  double spike = 0.0;
  for (std::size_t i = 6; i <= 11; ++i) spike = std::max(spike, p99.value_at(i));
  EXPECT_GT(spike, 500.0);
}

// --- validate_run ----------------------------------------------------------

TEST(Validation, QuietRunPasses) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 3000;
  cfg.duration = Duration::seconds(30);
  cfg.workload.measure_from = Time::from_seconds(5);
  auto sys = core::run_system(cfg);
  const auto report = core::validate_run(*sys);
  EXPECT_TRUE(report.all_ok) << report.to_string();
  EXPECT_GE(report.checks.size(), 5u);
}

TEST(Validation, BottleneckedRunStillConserves) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.workload.measure_from = Time::from_seconds(2);
  auto sys = core::run_system(cfg);
  const auto report = core::validate_run(*sys, 0.15);
  EXPECT_TRUE(report.all_ok) << report.to_string();
}

TEST(Validation, ReportFormatsChecks) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 500;
  cfg.duration = Duration::seconds(10);
  auto sys = core::run_system(cfg);
  const auto report = core::validate_run(*sys);
  const auto s = report.to_string();
  EXPECT_NE(s.find("closed-loop"), std::string::npos);
  EXPECT_NE(s.find("flow balance"), std::string::npos);
}

// --- export_run_csv --------------------------------------------------------

TEST(Export, WritesAllArtifacts) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 500;
  cfg.duration = Duration::seconds(5);
  auto sys = core::run_system(cfg);
  const std::string dir = ::testing::TempDir();
  const auto result = core::export_run_csv(*sys, dir);
  EXPECT_TRUE(result.ok);
  // series, histogram, vlrt, latency_q, manifest.
  ASSERT_EQ(result.files_written.size(), 5u);
  bool has_manifest = false;
  for (const auto& f : result.files_written)
    if (f.find("manifest.json") != std::string::npos) has_manifest = true;
  EXPECT_TRUE(has_manifest);
  // series.csv has a header with every sampler series.
  std::ifstream in(dir + "/series.csv");
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("apache.queue"), std::string::npos);
  EXPECT_NE(header.find("tomcat.cpu"), std::string::npos);
  for (const auto& f : result.files_written) std::remove(f.c_str());
}

TEST(Export, FailsOnMissingDirectory) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 100;
  cfg.duration = Duration::seconds(2);
  auto sys = core::run_system(cfg);
  const auto result = core::export_run_csv(*sys, "/no/such/dir/xyz");
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace ntier
