// Tests of arbitrary-depth chains, built as chain-shaped service graphs
// (graph/topology.h): the paper's CTQO mechanics must hold for n > 3
// tiers.
#include <tuple>

#include <gtest/gtest.h>

#include "graph/graph_system.h"
#include "graph/topology.h"

namespace ntier::graph {
namespace {

using sim::Duration;
using sim::Time;

// Four tiers: front -> relay1 -> relay2 -> leaf; leaf CPU dominates.
// 5000 sessions offer ~714 req/s, the leaf runs at ~36 % CPU.
GraphConfig four_tier(bool all_async) {
  const std::string kind = all_async ? "kind=async" : "kind=sync";
  return parse_topology(
      "sessions 5000\n"
      "duration 30s\n"
      "node front  " + kind + " threads=150 work=cpu:50us,down,cpu:50us\n"
      "node relay1 " + kind + " threads=150 work=cpu:80us,down,cpu:80us\n"
      "node relay2 " + kind + " threads=150 work=cpu:80us,down,cpu:80us\n"
      "node leaf   " + kind + " threads=100 work=cpu:500us\n"
      "edge front relay1\n"
      "edge relay1 relay2\n"
      "edge relay2 leaf\n");
}

TEST(ChainSystem, BuildsArbitraryDepth) {
  GraphSystem sys(four_tier(false));
  ASSERT_TRUE(is_chain(sys.config()));
  EXPECT_EQ(sys.node_count(), 4u);
  EXPECT_EQ(sys.server(0)->name(), "front");
  EXPECT_EQ(sys.server(3)->name(), "leaf");
  EXPECT_EQ(sys.server(0)->downstream(), sys.server(1));
  EXPECT_EQ(sys.server(2)->downstream(), sys.server(3));
  EXPECT_EQ(sys.server(3)->downstream(), nullptr);
}

TEST(ChainSystem, QuietChainServesTraffic) {
  GraphSystem sys(four_tier(false));
  sys.run();
  EXPECT_GT(sys.clients().completed(), 10000u);
  EXPECT_EQ(sys.total_drops(), 0u);
  EXPECT_EQ(sys.latency().vlrt_count(), 0u);
}

TEST(ChainSystem, UpstreamCtqoCascadesThroughFourTiers) {
  auto cfg = four_tier(false);
  cfg.freeze_node = 3;  // millibottleneck in the leaf
  cfg.freeze.first = Time::from_seconds(8);
  cfg.freeze.period = Duration::seconds(12);
  cfg.freeze.pause = Duration::millis(900);
  GraphSystem sys(cfg);
  sys.run();
  // Drops surface at the front tier (the only tier facing an unbounded
  // source); every intermediate sync tier is bounded by its upstream's
  // thread pool.
  EXPECT_GT(sys.server(0)->stats().dropped, 20u);
  EXPECT_EQ(sys.server(1)->stats().dropped, 0u);
  EXPECT_EQ(sys.server(2)->stats().dropped, 0u);
  EXPECT_EQ(sys.server(3)->stats().dropped, 0u);
  const auto report = analyze_ctqo(sys);
  ASSERT_GE(report.episodes.size(), 1u);
  EXPECT_EQ(report.episodes[0].kind, core::CtqoEpisode::Kind::kUpstream);
  EXPECT_EQ(report.episodes[0].drop_tier, 0);
  EXPECT_EQ(report.episodes[0].bottleneck_tier, 3);
}

TEST(ChainSystem, QueueCascadeOrderMatchesDepth) {
  auto cfg = four_tier(false);
  cfg.freeze_node = 3;
  cfg.freeze.first = Time::from_seconds(8);
  cfg.freeze.period = Duration::seconds(100);  // single episode
  cfg.freeze.pause = Duration::millis(900);
  GraphSystem sys(cfg);
  sys.run();
  // Each tier's queue saturates later the further it is from the
  // bottleneck: leaf-adjacent first, then upward (upstream CTQO order).
  const auto t_relay2 = sys.sampler().series("relay2.queue").first_time_at_least(
      100.0, Time::from_seconds(8), Time::from_seconds(12));
  const auto t_relay1 = sys.sampler().series("relay1.queue").first_time_at_least(
      100.0, Time::from_seconds(8), Time::from_seconds(12));
  const auto t_front = sys.sampler().series("front.queue").first_time_at_least(
      100.0, Time::from_seconds(8), Time::from_seconds(12));
  ASSERT_NE(t_relay2, Time::max());
  ASSERT_NE(t_relay1, Time::max());
  ASSERT_NE(t_front, Time::max());
  EXPECT_LE(t_relay2, t_relay1);
  EXPECT_LE(t_relay1, t_front);
}

TEST(ChainSystem, AllAsyncChainAbsorbsMillibottleneck) {
  auto cfg = four_tier(true);
  cfg.freeze_node = 3;
  cfg.freeze.first = Time::from_seconds(8);
  cfg.freeze.period = Duration::seconds(12);
  cfg.freeze.pause = Duration::millis(900);
  GraphSystem sys(cfg);
  sys.run();
  EXPECT_EQ(sys.total_drops(), 0u);
  EXPECT_EQ(sys.latency().vlrt_count(), 0u);
  ASSERT_NE(sys.injector(), nullptr);
  EXPECT_GE(sys.injector()->pause_times().size(), 2u);
}

TEST(ChainSystem, SyncInflightBoundedByUpstreamThreads) {
  auto cfg = four_tier(false);
  cfg.freeze_node = 3;
  cfg.freeze.first = Time::from_seconds(5);
  cfg.freeze.period = Duration::seconds(10);
  cfg.freeze.pause = Duration::millis(900);
  GraphSystem sys(cfg);
  sys.run();
  // Tier k+1 never holds more than tier k's thread count (plus its own
  // processing) — the invariant that localizes drops at the front.
  EXPECT_LE(sys.sampler().series("relay1.queue").max_value(), 150.0 + 0.5);
  EXPECT_LE(sys.sampler().series("leaf.queue").max_value(), 150.0 + 0.5);
}

TEST(ChainSystem, ConservationPerTier) {
  auto cfg = four_tier(false);
  cfg.freeze_node = 3;
  cfg.freeze.first = Time::from_seconds(5);
  cfg.freeze.pause = Duration::millis(500);
  GraphSystem sys(cfg);
  sys.run();
  EXPECT_EQ(sys.clients().issued(),
            sys.clients().completed() + sys.clients().in_flight());
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    const auto& st = sys.server(i)->stats();
    EXPECT_EQ(st.accepted, st.completed + sys.server(i)->queued_requests())
        << sys.server(i)->name();
  }
}

TEST(ChainSystem, DiskTierWorks) {
  GraphSystem sys(parse_topology("sessions 1000\n"
                                 "duration 10s\n"
                                 "node front threads=200 work=cpu:50us,down,cpu:50us\n"
                                 "node db   threads=100 work=cpu:300us,disk:20us\n"
                                 "edge front db\n"));
  sys.run();
  ASSERT_NE(sys.disk_flat(1), nullptr);
  EXPECT_GT(sys.disk_flat(1)->ops_completed(), 1000u);
  EXPECT_TRUE(sys.sampler().has_series("db.disk.busy"));
  EXPECT_EQ(sys.total_drops(), 0u);
}

TEST(ChainSystem, TwoTierMinimalChain) {
  GraphSystem sys(parse_topology("sessions 1000\n"
                                 "duration 10s\n"
                                 "node front threads=150 work=cpu:50us,down,cpu:50us\n"
                                 "node back  threads=100 work=cpu:400us\n"
                                 "edge front back\n"));
  sys.run();
  EXPECT_GT(sys.clients().completed(), 1000u);
  EXPECT_EQ(sys.total_drops(), 0u);
}

TEST(ChainSystem, DeterministicForSeed) {
  auto run_once = [] {
    auto cfg = four_tier(false);
    cfg.freeze_node = 3;
    cfg.freeze.first = Time::from_seconds(5);
    cfg.freeze.pause = Duration::millis(800);
    cfg.duration = Duration::seconds(15);
    GraphSystem sys(cfg);
    sys.run();
    return std::tuple(sys.clients().completed(), sys.total_drops());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ntier::graph
