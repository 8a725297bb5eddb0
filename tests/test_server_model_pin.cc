// Byte pins on what the three server models do with a request: the span
// trees of fully traced graph runs and each server's Stats counters.
// Each string is reduced to its (size, FNV-1a-64) fingerprint, so any
// change to a model's admission, queueing, step interpreter or
// shed/abort path fails here with both numbers in the message.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_system.h"
#include "graph/topology.h"
#include "helpers.h"
#include "server/sync_server.h"
#include "trace/chrome_trace.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;

using test::pin;
using test::span_counts;
using test::stats_line;

// The pins of one run: the span CSV first, then one per server (flat
// order).
std::vector<std::string> pins(const core::Testbed& sys) {
  std::vector<std::string> out{pin(trace::spans_csv(sys.tracer()->traces()))};
  for (std::size_t i = 0; i < sys.flat_count(); ++i)
    out.push_back(pin(stats_line(*sys.server_flat(i))));
  return out;
}

// A sync front (TCP backlog, blocking DB pool, CoDel dequeue sheds), a
// staged tier (ingress and continuation queues, adaptive-LIFO with
// stale sheds), an async tier (wait and resume queues, brownout) and a
// sync leaf behind a periodic freeze. Slow-node windows build the
// event-driven tiers' queues, and crash windows abort waiting work at
// the three front tiers. 200 ms minimum RTOs let the run recover from
// each refusal inside its 5 s.
constexpr const char* kModels = R"(graph pin_models
sessions 120
think 100ms
duration 5s
proto linux_modern
node front kind=sync threads=40 backlog=24 dbpool=30 work=cpu:200us,down,cpu:100us
node mid   kind=staged stage_threads=2 stage_queue=40 work=cpu:300us,down,cpu:200us
node app   kind=async active=2 work=cpu:300us,down,cpu:100us
node db    kind=sync threads=4 backlog=64 work=cpu:300us,disk:200us
edge front mid
edge mid app
edge app db
freeze db first=1s period=2s pause=400ms
)";

TEST(ServerModelPin, SyncStagedAsyncChain) {
  graph::GraphConfig cfg = graph::parse_topology(kModels);
  using policy::overload::Kind;
  cfg.nodes[0].overload.kind = Kind::kCoDel;
  cfg.nodes[0].overload.codel_target = Duration::millis(5);
  cfg.nodes[0].overload.codel_interval = Duration::millis(50);
  cfg.nodes[1].overload.kind = Kind::kAdaptiveLifo;
  cfg.nodes[1].overload.lifo_threshold = 4;
  cfg.nodes[1].overload.lifo_max_sojourn = Duration::millis(25);
  cfg.nodes[2].overload.kind = Kind::kBrownout;
  cfg.nodes[2].overload.degrade_above = 8;
  cfg.faults.slow_nodes.push_back({1, Time::from_seconds(2.0), Duration::millis(700), 0.05});
  cfg.faults.slow_nodes.push_back({2, Time::from_seconds(3.2), Duration::millis(700), 0.15});
  const auto abort = fault::CrashWindow::InFlight::kAbort;
  cfg.faults.crashes.push_back({0, Time::from_seconds(2.3), Duration::millis(60), abort});
  cfg.faults.crashes.push_back({1, Time::from_seconds(2.5), Duration::millis(60), abort});
  cfg.faults.crashes.push_back({2, Time::from_seconds(3.7), Duration::millis(60), abort});
  cfg.trace.mode = trace::TraceMode::kAll;
  auto sys = graph::run_graph(cfg);
  ASSERT_EQ(sys->flat_count(), 4u);

  // The run reaches every queue and every shed and abort path it pins.
  const auto spans = span_counts(sys->tracer()->traces());
  for (const char* key : {"accept_queue front", "pool_queue front:dbpool",
                          "pool_queue mid:ingress", "pool_queue mid:cont", "pool_queue app",
                          "overload_shed front", "overload_shed mid", "brownout app"})
    EXPECT_GT(spans.count(key), 0u) << key;
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GT(sys->server_flat(i)->stats().aborted, 0u) << sys->server_flat(i)->name();
  EXPECT_GT(sys->server_flat(0)->overload()->stats().shed_dequeue, 0u);
  EXPECT_GT(sys->server_flat(1)->overload()->stats().shed_dequeue, 0u);
  EXPECT_GT(sys->server_flat(2)->overload()->stats().degraded, 0u);

  EXPECT_EQ(pins(*sys), (std::vector<std::string>{
                            "4152063:c1d4e3ce05c4c361",
                            "38:bf1198ca496cc5be",
                            "35:e081ec5ddacbadbb",
                            "35:e9f022c0ff620519",
                            "31:2eb783aa1e3f66cb",
                        }));
}

// A sync front admitting its overflow on the SYN-cookie slow path, with
// an EDF backlog (lost client packets come back with earlier deadlines
// than the queue ahead of them) and a second process spawned once the
// thread pool stays exhausted.
constexpr const char* kSyncPaths = R"(graph pin_sync
sessions 150
think 50ms
duration 5s
proto syn_cookies
node front kind=sync threads=8 backlog=8 sched=edf work=cpu:250us,down,cpu:100us
node back  kind=sync threads=6 backlog=6 work=cpu:500us
edge front back
freeze back first=1s period=1500ms pause=300ms
)";

TEST(ServerModelPin, SyncCookiesEdfAndSpawn) {
  graph::GraphConfig cfg = graph::parse_topology(kSyncPaths);
  cfg.nodes[0].sync.max_processes = 2;
  cfg.nodes[0].sync.process_spawn_after = Duration::millis(200);
  cfg.workload.client_policy.deadline = Duration::seconds(10);
  cfg.faults.links.push_back({0, Time::from_seconds(1.0), Duration::millis(300), 0.3});
  cfg.trace.mode = trace::TraceMode::kAll;
  auto sys = graph::run_graph(cfg);
  ASSERT_EQ(sys->flat_count(), 2u);

  const auto spans = span_counts(sys->tracer()->traces());
  for (const char* key : {"accept_queue front", "service front:syncookie", "rto_gap client->front"})
    EXPECT_GT(spans.count(key), 0u) << key;
  const auto* front = dynamic_cast<const server::SyncServer*>(sys->server_flat(0));
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->process_count(), 2u);
  EXPECT_GT(front->accept_queue()->cookie_admits(), 0u);

  EXPECT_EQ(pins(*sys), (std::vector<std::string>{
                            "1399981:0da3b00df3d1caca",
                            "34:23ddf2c97f1f4858",
                            "33:5c06ff16e2b9f014",
                        }));
}

}  // namespace
}  // namespace ntier
