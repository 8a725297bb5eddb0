// Property-style parameterized sweeps over architectures and workloads
// (DESIGN.md §6 invariants).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"

namespace ntier::core {
namespace {

using sim::Duration;
using sim::Time;

// --- Invariant 5: no millibottleneck => no VLRT, any arch x workload ----

struct QuietCase {
  QuietCase(Architecture a, std::size_t s) : arch(a), sessions(s) {}
  Architecture arch;
  // gtest names each case after a byte dump of its param; spelling out
  // what would otherwise be padding keeps stack garbage out of the names.
  std::uint32_t zero = 0;
  std::size_t sessions;
};
static_assert(std::has_unique_object_representations_v<QuietCase>,
              "QuietCase must have no padding bytes");

class QuietSystem : public ::testing::TestWithParam<QuietCase> {};

TEST_P(QuietSystem, NoVlrtNoDrops) {
  const auto p = GetParam();
  ExperimentConfig cfg;
  cfg.system.arch = p.arch;
  cfg.workload.sessions = p.sessions;
  cfg.duration = Duration::seconds(20);
  cfg.seed = 7 + p.sessions;
  auto sys = run_system(cfg);
  EXPECT_EQ(sys->latency().vlrt_count(), 0u);
  EXPECT_EQ(sys->web()->stats().dropped, 0u);
  EXPECT_EQ(sys->app()->stats().dropped, 0u);
  EXPECT_EQ(sys->db()->stats().dropped, 0u);
  EXPECT_GT(sys->clients().completed(), p.sessions);
}

// Sync-app-tier systems are capped at WL 6000 (~64 % util): above that,
// purely stochastic arrival bursts occasionally peg the app tier for a
// couple of seconds — a *natural* millibottleneck that overflows
// MaxSysQDepth exactly as the paper predicts (we saw Apache hit 276 and
// drop at WL 7000 with no injected interference at all). The fully
// asynchronous stack is drop-free even at WL 8000 (83-85 % util) — the
// abstract's headline contrast.
INSTANTIATE_TEST_SUITE_P(
    ArchWorkloadGrid, QuietSystem,
    ::testing::Values(QuietCase{Architecture::kSync, 2000},
                      QuietCase{Architecture::kSync, 4000},
                      QuietCase{Architecture::kSync, 6000},
                      QuietCase{Architecture::kNx1, 4000},
                      QuietCase{Architecture::kNx1, 6000},
                      QuietCase{Architecture::kNx2, 4000},
                      QuietCase{Architecture::kNx2, 6000},
                      QuietCase{Architecture::kNx3, 4000},
                      QuietCase{Architecture::kNx3, 7000},
                      QuietCase{Architecture::kNx3, 8000}),
    [](const auto& info) {
      return std::string(info.param.arch == Architecture::kSync   ? "sync"
                         : info.param.arch == Architecture::kNx1  ? "nx1"
                         : info.param.arch == Architecture::kNx2  ? "nx2"
                                                                  : "nx3") +
             "_wl" + std::to_string(info.param.sessions);
    });

// --- Invariant 4: closed-loop law across workloads ----------------------

class ClosedLoop : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClosedLoop, ThroughputTracksSessions) {
  const std::size_t n = GetParam();
  ExperimentConfig cfg;
  cfg.workload.sessions = n;
  cfg.duration = Duration::seconds(30);
  cfg.workload.measure_from = Time::from_seconds(10);
  cfg.seed = n;
  auto sys = run_system(cfg);
  const double rps =
      sys->latency().throughput_rps(Time::from_seconds(10), sys->simulation().now());
  const double expected = static_cast<double>(n) / 7.0;
  EXPECT_NEAR(rps, expected, 0.08 * expected + 5.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ClosedLoop,
                         ::testing::Values(1000u, 2000u, 4000u, 6000u, 8000u),
                         [](const auto& info) {
                           return "wl" + std::to_string(info.param);
                         });

// --- Invariant 2: queue bounds under every bottleneck scenario -----------

class PaperScenario : public ::testing::TestWithParam<int> {
 public:
  static ExperimentConfig config(int id) {
    using namespace scenarios;
    switch (id) {
      case 0: return fig3_consolidation_sync();
      case 1: return fig5_logflush_sync();
      case 2: return fig7_nx1();
      case 3: return fig8_nx2_mysql();
      case 4: return fig9_nx2_xtomcat();
      case 5: return fig10_nx3_xtomcat();
      default: return fig11_nx3_logflush();
    }
  }
};

TEST_P(PaperScenario, QueuesRespectMaxSysQDepth) {
  auto cfg = PaperScenario::config(GetParam());
  cfg.duration = std::min(cfg.duration, Duration::seconds(30));
  auto sys = run_system(cfg);
  for (auto tier : {Tier::kWeb, Tier::kApp, Tier::kDb}) {
    const auto* srv = sys->tier(tier);
    const double peak = sys->sampler().series(srv->name() + ".queue").max_value();
    EXPECT_LE(peak, static_cast<double>(srv->max_sys_q_depth()))
        << srv->name() << " exceeded its admission bound";
  }
}

TEST_P(PaperScenario, UtilizationSamplesWithinRange) {
  auto cfg = PaperScenario::config(GetParam());
  cfg.duration = std::min(cfg.duration, Duration::seconds(30));
  auto sys = run_system(cfg);
  for (auto tier : {Tier::kWeb, Tier::kApp, Tier::kDb}) {
    const auto& name = sys->tier_vm(tier)->name();
    for (const char* suffix : {".cpu", ".demand", ".stall"}) {
      const auto& line = sys->sampler().series(name + suffix);
      EXPECT_GE(line.max_value(), 0.0);
      EXPECT_LE(line.max_value(), 100.5) << name << suffix;
    }
  }
}

TEST_P(PaperScenario, DropsAndOnlyDropsCauseVlrt) {
  // Invariant 7: a request dropped k times carries >= k RTOs of latency;
  // an undropped request never reaches the 3 s VLRT threshold (queueing
  // alone stays in the sub-3 s continuum).
  auto cfg = PaperScenario::config(GetParam());
  cfg.duration = std::min(cfg.duration, Duration::seconds(30));
  NTierSystem sys(cfg);
  std::uint64_t checked = 0;
  sys.clients().on_complete([&](const server::RequestPtr& r) {
    ++checked;
    if (r->total_drops > 0) {
      EXPECT_GE(r->latency(), Duration::seconds(3) * r->total_drops)
          << "request " << r->id << " with " << r->total_drops << " drops";
    } else {
      EXPECT_LT(r->latency(), Duration::seconds(3));
    }
  });
  sys.run();
  EXPECT_GT(checked, 1000u);
}

TEST_P(PaperScenario, ConservationHolds) {
  auto cfg = PaperScenario::config(GetParam());
  cfg.duration = std::min(cfg.duration, Duration::seconds(30));
  auto sys = run_system(cfg);
  const auto& c = sys->clients();
  EXPECT_EQ(c.issued(), c.completed() + c.in_flight());
  for (auto tier : {Tier::kWeb, Tier::kApp, Tier::kDb}) {
    const auto* srv = sys->tier(tier);
    EXPECT_EQ(srv->stats().accepted,
              srv->stats().completed + srv->queued_requests())
        << srv->name();
  }
}

std::string scenario_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"fig3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, PaperScenario, ::testing::Range(0, 7),
                         scenario_name);

// --- Invariant 3: sync chains bound downstream in-flight -----------------

class SyncChainBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyncChainBound, DbInflightNeverExceedsPool) {
  ExperimentConfig cfg;
  cfg.system.arch = Architecture::kSync;
  cfg.system.db_pool = GetParam();
  cfg.workload.sessions = 7000;
  cfg.duration = Duration::seconds(15);
  cfg.bottleneck.kind = MillibottleneckSpec::Kind::kConsolidationBatch;
  cfg.bottleneck.target = Tier::kDb;  // stress the DB tier itself
  cfg.bottleneck.batch.first_at = Time::from_seconds(3);
  auto sys = run_system(cfg);
  EXPECT_LE(sys->sampler().series("mysql.queue").max_value(),
            static_cast<double>(GetParam()) + 0.5);
  EXPECT_EQ(sys->db()->stats().dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, SyncChainBound, ::testing::Values(10u, 50u, 100u),
                         [](const auto& info) {
                           return "pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ntier::core
