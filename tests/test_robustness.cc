// Seed-robustness: the paper's qualitative results must hold across
// random seeds, not just the default one.
#include <gtest/gtest.h>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"

namespace ntier::core {
namespace {

using sim::Duration;
using sim::Time;

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Seeded, Fig3UpstreamCtqoHolds) {
  auto cfg = scenarios::fig3_consolidation_sync();
  cfg.seed = GetParam();
  auto sys = run_system(cfg);
  // Drops dominated by the web tier; never at MySQL.
  EXPECT_GT(sys->web()->stats().dropped, 100u);
  EXPECT_EQ(sys->db()->stats().dropped, 0u);
  EXPECT_GT(sys->web()->stats().dropped, sys->app()->stats().dropped);
  const auto report = analyze_ctqo(*sys);
  EXPECT_GE(report.upstream_episodes, 3u);
  EXPECT_GT(sys->latency().vlrt_count(), 100u);
}

TEST_P(Seeded, Fig10AsyncStaysCleanUnderBursts) {
  auto cfg = scenarios::fig10_nx3_xtomcat();
  cfg.seed = GetParam();
  auto sys = run_system(cfg);
  EXPECT_EQ(summarize(*sys).total_drops, 0u);
  EXPECT_EQ(sys->latency().vlrt_count(), 0u);
}

TEST_P(Seeded, OperatingPointStableAtWl7000) {
  ExperimentConfig cfg;
  cfg.workload.sessions = 7000;
  cfg.duration = Duration::seconds(25);
  cfg.workload.measure_from = Time::from_seconds(5);
  cfg.seed = GetParam();
  auto sys = run_system(cfg);
  const double rps =
      sys->latency().throughput_rps(Time::from_seconds(5), sys->simulation().now());
  EXPECT_NEAR(rps, 990.0, 80.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(11u, 222u, 3333u, 44444u, 555555u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(Robustness, Fig12ShapeMonotone) {
  // Sync throughput declines monotonically with concurrency; async does
  // not collapse (stays within 5% of its own max).
  double prev_sync = 1e18;
  double async_max = 0.0, async_min = 1e18;
  for (std::size_t conc : {100u, 400u, 1600u}) {
    auto s = summarize(*run_system(scenarios::fig12_point(Architecture::kSync, conc)));
    EXPECT_LT(s.throughput_rps, prev_sync) << "sync should decline at " << conc;
    prev_sync = s.throughput_rps;
    auto a = summarize(*run_system(scenarios::fig12_point(Architecture::kNx3, conc)));
    async_max = std::max(async_max, a.throughput_rps);
    async_min = std::min(async_min, a.throughput_rps);
  }
  EXPECT_GT(async_min, 0.95 * async_max);
  // End-to-end factor of the collapse (paper: 1159/374 ~ 3.1x).
  auto s100 = summarize(*run_system(scenarios::fig12_point(Architecture::kSync, 100)));
  auto s1600 = summarize(*run_system(scenarios::fig12_point(Architecture::kSync, 1600)));
  EXPECT_GT(s100.throughput_rps / s1600.throughput_rps, 2.0);
}

TEST(Robustness, ChainWithStagedTier) {
  // The chain builder accepts staged tiers; a staged front absorbs a
  // burst that overflows the sync front.
  auto cfg = graph::parse_topology(
      "sessions 5000\n"
      "duration 25s\n"
      "node front kind=staged work=cpu:60us,down,cpu:40us\n"
      "node leaf  kind=sync threads=400 backlog=4000 work=cpu:500us\n"
      "edge front leaf\n"
      "freeze leaf first=8s period=60s pause=900ms\n");
  cfg.nodes[0].staged_cfg.ingress.queue_cap = 5000;
  auto sys = graph::run_graph(cfg);
  EXPECT_EQ(sys->server(0)->stats().dropped, 0u);
  EXPECT_GT(sys->clients().completed(), 10000u);
}

TEST(Robustness, ShedModeKeepsServerConserved) {
  auto cfg = scenarios::fig3_consolidation_sync();
  cfg.system.web_shed_on_overload = true;
  cfg.duration = Duration::seconds(15);
  auto sys = run_system(cfg);
  const auto& st = sys->web()->stats();
  EXPECT_EQ(st.accepted, st.completed + sys->web()->queued_requests());
  EXPECT_EQ(sys->clients().issued(),
            sys->clients().completed() + sys->clients().in_flight());
}

TEST(Robustness, TimeoutPlusDropsStillConserved) {
  auto cfg = scenarios::fig3_consolidation_sync();
  cfg.workload.client_timeout = Duration::seconds(4);
  cfg.duration = Duration::seconds(20);
  auto sys = run_system(cfg);
  const auto& c = sys->clients();
  EXPECT_EQ(c.issued(), c.completed() + c.in_flight());
  EXPECT_GT(c.timeouts(), 0u);
  EXPECT_LE(c.in_flight(), cfg.workload.sessions);
}

}  // namespace
}  // namespace ntier::core
