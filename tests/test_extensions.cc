// Integration tests of the extension studies: GC-pause and DVFS
// millibottleneck causes, the mixed-stack iff-claim, and the Fig 4
// static-request observation.
#include <gtest/gtest.h>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"

namespace ntier::core {
namespace {

TEST(Extensions, GcPausesCauseCtqoInSyncStack) {
  auto sys = run_system(scenarios::ext_gc_pause(Architecture::kSync));
  EXPECT_GT(sys->latency().vlrt_count(), 50u);
  ASSERT_NE(sys->gc_injector(), nullptr);
  EXPECT_GE(sys->gc_injector()->pause_times().size(), 3u);
  const auto report = analyze_ctqo(*sys);
  ASSERT_GE(report.episodes.size(), 1u);
  // Every episode traces back to the app tier's pauses.
  for (const auto& ep : report.episodes)
    EXPECT_EQ(ep.bottleneck_tier, index(Tier::kApp));
}

TEST(Extensions, GcPausesHarmlessInAsyncStack) {
  auto sys = run_system(scenarios::ext_gc_pause(Architecture::kNx3));
  EXPECT_EQ(sys->latency().vlrt_count(), 0u);
  EXPECT_EQ(summarize(*sys).total_drops, 0u);
  // The pauses still happened.
  EXPECT_GE(sys->gc_injector()->pause_times().size(), 3u);
}

TEST(Extensions, DvfsLagCausesCtqoInSyncStack) {
  auto sys = run_system(scenarios::ext_dvfs(Architecture::kSync));
  EXPECT_GT(summarize(*sys).total_drops, 5u);
  ASSERT_NE(sys->dvfs(), nullptr);
  EXPECT_GT(sys->dvfs()->throttled_seconds(), 10.0);
}

TEST(Extensions, DvfsLagHarmlessInAsyncStack) {
  auto sys = run_system(scenarios::ext_dvfs(Architecture::kNx3));
  EXPECT_EQ(summarize(*sys).total_drops, 0u);
  EXPECT_EQ(sys->latency().vlrt_count(), 0u);
}

TEST(Extensions, StaticRequestsAlsoSufferVlrt) {
  // Fig 4's observation: by t3, even static requests — served entirely
  // in Apache — queue behind the blocked dynamic ones and get dropped.
  auto cfg = scenarios::fig3_consolidation_sync();
  auto sys = run_system(cfg);
  const auto static_idx = sys->profile().index_of("Static");
  const auto& stats = sys->latency().class_stats(static_idx);
  EXPECT_GT(stats.completed, 1000u);
  EXPECT_GT(stats.vlrt, 10u);
  EXPECT_GT(stats.dropped, 10u);
}

TEST(Extensions, PerClassStatsSumToTotals) {
  auto cfg = scenarios::fig3_consolidation_sync();
  auto sys = run_system(cfg);
  std::uint64_t completed = 0, vlrt = 0;
  for (std::size_t i = 0; i < sys->profile().classes.size(); ++i) {
    completed += sys->latency().class_stats(i).completed;
    vlrt += sys->latency().class_stats(i).vlrt;
  }
  EXPECT_EQ(completed, sys->latency().completed());
  EXPECT_EQ(vlrt, sys->latency().vlrt_count());
}

// The iff-claim over all 8 sync/async combinations (§I): only the
// all-async combination is drop-free under an app-tier millibottleneck.
class StackCombo : public ::testing::TestWithParam<int> {};

TEST_P(StackCombo, CtqoFreeIffAllAsync) {
  const int mask = GetParam();
  const bool web = (mask & 4) != 0;
  const bool app = (mask & 2) != 0;
  const bool db = (mask & 1) != 0;
  auto kind = [](bool async) { return async ? "kind=async" : "kind=sync"; };
  auto sys = graph::run_graph(graph::parse_topology(
      std::string("sessions 7000\n"
                  "duration 25s\n"
                  "node web ") + kind(web) + " threads=150 work=cpu:60us,down,cpu:40us\n"
      "node app " + kind(app) + " threads=150 work=cpu:150us,down,cpu:600us\n"
      "node db  " + kind(db) + " threads=100 active=8 liteq=2000 work=cpu:400us\n"
      "edge web app\n"
      "edge app db\n"
      "freeze app first=8s period=12s pause=700ms\n"));
  if (web && app && db) {
    EXPECT_EQ(sys->total_drops(), 0u);
    EXPECT_EQ(sys->latency().vlrt_count(), 0u);
  } else {
    EXPECT_GT(sys->total_drops(), 0u);
    // Drops sit at the first tier below an unbounded source.
    const std::size_t expect_tier = !web ? 0 : (!app ? 1 : 2);
    EXPECT_GT(sys->server(expect_tier)->stats().dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, StackCombo, ::testing::Range(0, 8),
                         [](const auto& info) {
                           const int m = info.param;
                           std::string s;
                           s += (m & 4) ? 'A' : 'S';
                           s += (m & 2) ? 'A' : 'S';
                           s += (m & 1) ? 'A' : 'S';
                           return s;
                         });

}  // namespace
}  // namespace ntier::core
