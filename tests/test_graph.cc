// Tests of the declarative service-graph engine (src/graph): topology
// parsing and validation, the shared workload wiring, the chain wiring
// path against pinned fingerprints, the parallel fan-out / fan-in
// barrier (verified through span trees), and the load-balancer policy
// menu on a replicated group.
#include "graph/graph_system.h"
#include "graph/topology.h"

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ntier::graph {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------------
// Parsing.

constexpr const char* kDiamondText = R"(
# Diamond: front fans out to catalog and ads; both call the shared db.
graph diamond
seed 42
duration 12s
sessions 1500
node front   kind=sync threads=150 work=cpu:60us,down,cpu:60us
node catalog kind=sync threads=80  work=cpu:150us,down,cpu:50us
node ads     kind=sync threads=80  work=cpu:100us,down,cpu:50us
node db      kind=sync threads=100 work=cpu:400us
edge front catalog
edge front ads
edge catalog db
edge ads db
)";

TEST(Topology, ParsesDiamondGrammar) {
  const GraphConfig cfg = parse_topology(kDiamondText);
  ASSERT_EQ(cfg.nodes.size(), 4u);
  EXPECT_EQ(cfg.name, "diamond");
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.duration, Duration::seconds(12));
  EXPECT_EQ(cfg.workload.sessions, 1500u);
  EXPECT_EQ(node_index(cfg, "front"), 0);
  EXPECT_EQ(node_index(cfg, "db"), 3);
  EXPECT_EQ(node_index(cfg, "nope"), -1);
  EXPECT_EQ(out_edges(cfg, 0), (std::vector<int>{1, 2}));
  EXPECT_EQ(out_edges(cfg, 3), std::vector<int>{});
  EXPECT_FALSE(is_chain(cfg));
  EXPECT_EQ(invalid_reason(cfg), "");
  EXPECT_EQ(cfg.nodes[0].sync.threads_per_process, 150u);
  ASSERT_EQ(cfg.nodes[0].work.size(), 3u);
  EXPECT_EQ(cfg.nodes[0].work[1].kind, server::WorkStep::Kind::kDownstream);
}

TEST(Topology, ParsesReplicationSchedulingAndDisk) {
  const GraphConfig cfg = parse_topology(
      "graph g\n"
      "node a kind=sync sched=edf threads=10 work=cpu:1ms,down\n"
      "node b kind=sync replicas=3 lb=p2c threads=5 work=cpu:2ms,disk:1ms\n"
      "edge a b\n");
  ASSERT_EQ(cfg.nodes.size(), 2u);
  EXPECT_EQ(cfg.nodes[0].sched, Sched::kEdf);
  EXPECT_EQ(cfg.nodes[1].replicas, 3u);
  EXPECT_EQ(cfg.nodes[1].lb, LbPolicy::kPowerOfTwo);
  EXPECT_TRUE(cfg.nodes[1].has_disk);  // disk step implies a device
  EXPECT_EQ(invalid_reason(cfg), "");
}

TEST(Topology, ChainShapedConfigIsDetected) {
  const GraphConfig cfg = parse_topology(
      "graph c\n"
      "node w kind=sync threads=10 work=cpu:1ms,down\n"
      "node d kind=sync threads=10 work=cpu:1ms\n"
      "edge w d\n");
  EXPECT_TRUE(is_chain(cfg));
  EXPECT_EQ(invalid_reason(cfg), "");
}

// True when parsing `text` throws std::invalid_argument naming `line`.
bool rejects_line(const std::string& text, int line) {
  try {
    parse_topology(text);
  } catch (const std::invalid_argument& e) {
    const std::string tag = "topology line " + std::to_string(line) + ":";
    return std::string(e.what()).find(tag) != std::string::npos;
  }
  return false;
}

TEST(Topology, SyntaxErrorsNameTheLine) {
  EXPECT_TRUE(rejects_line("node a kind=warp work=cpu:1ms\n", 1));
  EXPECT_TRUE(rejects_line("graph g\nnode a work=cpu:1parsec\n", 2));
  EXPECT_TRUE(rejects_line("graph g\nedge a\n", 2));
  // Numbers: no sign wrap-around, no trailing junk, no narrowing to int,
  // and a duration's number must be read whole.
  for (const char* attrs : {"threads=-1", "replicas=-1", "threads=150x",
                            "vcpus=4294967297", "work=cpu:1.2.3ms"}) {
    EXPECT_TRUE(rejects_line(std::string("graph g\nnode a work=cpu:1ms ") + attrs + "\n", 2))
        << attrs;
  }
  EXPECT_TRUE(rejects_line("node a work=cpu:1ms\nfreeze a replica=4294967296\n", 2));
  EXPECT_TRUE(rejects_line("graph g\nburst 2.5x 1s 4s\n", 2));
}

// ---------------------------------------------------------------------
// Validation rejections. Each case perturbs a well-formed graph one way
// and must be named in invalid_reason() / thrown by validate().

GraphConfig two_node() {
  return parse_topology(
      "graph g\n"
      "node a kind=sync threads=10 work=cpu:1ms,down\n"
      "node b kind=sync threads=10 work=cpu:1ms\n"
      "edge a b\n");
}

TEST(Validation, RejectsCycle) {
  auto cfg = two_node();
  cfg.nodes[1].work.push_back({server::WorkStep::Kind::kDownstream, Duration::zero()});
  cfg.edges.push_back({1, 0, ""});
  EXPECT_NE(invalid_reason(cfg), "");
  EXPECT_THROW(validate(cfg), std::invalid_argument);
}

TEST(Validation, RejectsDanglingEdge) {
  auto cfg = two_node();
  cfg.edges.push_back({1, 7, ""});
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsSelfEdgeAndDuplicateEdge) {
  auto cfg = two_node();
  cfg.edges.push_back({1, 1, ""});
  EXPECT_NE(invalid_reason(cfg), "");
  cfg = two_node();
  cfg.edges.push_back({0, 1, ""});
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsZeroReplicas) {
  auto cfg = two_node();
  cfg.nodes[1].replicas = 0;
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsReplicatedEntryNode) {
  auto cfg = two_node();
  cfg.nodes[0].replicas = 2;
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsDuplicateNodeNames) {
  auto cfg = two_node();
  cfg.nodes[1].name = "a";
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsEdfOnAsyncNode) {
  auto cfg = two_node();
  cfg.nodes[1].kind = NodeSpec::Kind::kAsync;
  cfg.nodes[1].sched = Sched::kEdf;
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsDownstreamStepWithoutOutEdges) {
  auto cfg = two_node();
  cfg.nodes[1].work.push_back({server::WorkStep::Kind::kDownstream, Duration::zero()});
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsOutEdgesWithoutDownstreamStep) {
  auto cfg = two_node();
  cfg.nodes[0].work = {{server::WorkStep::Kind::kCpu, Duration::millis(1)}};
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsUnreachableNode) {
  auto cfg = two_node();
  NodeSpec orphan;
  orphan.name = "orphan";
  orphan.work = {{server::WorkStep::Kind::kCpu, Duration::millis(1)}};
  cfg.nodes.push_back(orphan);
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsDiskStepWithoutDisk) {
  auto cfg = two_node();
  cfg.nodes[1].work.push_back({server::WorkStep::Kind::kDisk, Duration::millis(1)});
  cfg.nodes[1].has_disk = false;
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsFreezeNodeOutOfRange) {
  auto cfg = two_node();
  cfg.freeze_node = 5;
  EXPECT_NE(invalid_reason(cfg), "");
}

TEST(Validation, RejectsBadTraceConfig) {
  auto cfg = two_node();
  cfg.trace.mode = trace::TraceMode::kSampled;
  cfg.trace.sample_every_n = 0;  // 1-in-0 sampling would divide by zero
  EXPECT_NE(invalid_reason(cfg), "");
  EXPECT_THROW(run_graph(cfg), std::invalid_argument);

  cfg = two_node();
  cfg.trace.mode = trace::TraceMode::kAll;
  cfg.trace.max_traces = 0;
  EXPECT_NE(invalid_reason(cfg), "");

  cfg = two_node();
  cfg.trace.mode = trace::TraceMode::kVlrtOnly;
  cfg.trace.vlrt_threshold = Duration::zero();
  EXPECT_NE(invalid_reason(cfg), "");
}

// Graphs apply the 3-tier workload rules (core::invalid_reason). A
// negative client link would schedule deliveries in the past and report
// negative latencies.
TEST(Validation, RejectsBadWorkload) {
  struct Case {
    const char* field;
    void (*apply)(core::WorkloadConfig&);
  };
  const Case cases[] = {
      {"client_link", [](core::WorkloadConfig& w) { w.client_link = Duration::millis(-5); }},
      {"burst_index", [](core::WorkloadConfig& w) { w.burst_index = 0.5; }},
      {"client_timeout",
       [](core::WorkloadConfig& w) { w.client_timeout = Duration::seconds(-1); }},
  };
  for (const Case& c : cases) {
    auto cfg = two_node();
    cfg.workload.sessions = 50;
    cfg.duration = Duration::seconds(2);
    c.apply(cfg.workload);
    EXPECT_NE(invalid_reason(cfg).find(c.field), std::string::npos) << c.field;
    EXPECT_THROW(run_graph(cfg), std::invalid_argument) << c.field;
  }
}

// Zero think time is the saturation test (fig 12 runs it on the 3-tier
// system); graphs accept it too.
TEST(Validation, AcceptsZeroThinkSaturationTest) {
  auto cfg = two_node();
  cfg.workload.sessions = 50;
  cfg.workload.mean_think = Duration::zero();
  cfg.duration = Duration::seconds(2);
  EXPECT_EQ(invalid_reason(cfg), "");
  const auto sys = run_graph(cfg);
  EXPECT_GT(sys->clients().completed(), 0u);
}

// ---------------------------------------------------------------------
// Workload wiring shared with the 3-tier testbed: the RUBBoS Markov
// session model changes which classes the clients request.

TEST(GraphSystem, HonoursMarkovSessions) {
  auto class_counts = [](bool markov) {
    auto cfg = two_node();
    cfg.workload.sessions = 200;
    cfg.workload.mean_think = Duration::millis(500);
    cfg.workload.markov_sessions = markov;
    cfg.duration = Duration::seconds(20);
    const auto sys = run_graph(cfg);
    std::vector<std::uint64_t> counts;
    for (std::size_t c = 0; c < cfg.profile.classes.size(); ++c)
      counts.push_back(sys->latency().class_stats(c).completed);
    return counts;
  };
  const std::vector<std::uint64_t> independent = class_counts(false);
  EXPECT_GT(independent.at(0), 0u);
  EXPECT_NE(independent, class_counts(true));
}

// ---------------------------------------------------------------------
// Chain equivalence: a chain-shaped GraphConfig is wired with
// connect_downstream front to back, with no balancers and no extra RNG
// forks. The pinned fingerprints below (registry snapshot + run totals)
// were captured from the dedicated chain builder this path replaced, so
// any drift in the chain wiring, its telemetry names or its event
// schedule fails here. Sync, async and staged nodes each take the path.

GraphConfig graph_chain(const std::string& web_kind, const std::string& db_kind) {
  return parse_topology(
      "graph eq\n"
      "sessions 3000\n"
      "duration 12s\n"
      "node web kind=" + web_kind + " threads=150 work=cpu:60us,down,cpu:60us\n"
      "node db  kind=" + db_kind + " threads=100 work=cpu:500us,disk:2ms\n"
      "edge web db\n"
      "freeze db first=4s period=5s pause=900ms\n");
}

// Runs a chain-shaped config; returns its registry snapshot and totals.
std::string chain_fingerprint(GraphConfig cfg) {
  GraphSystem sys(std::move(cfg));
  EXPECT_TRUE(is_chain(sys.config()));
  sys.run();
  std::string out;
  char line[256];
  for (const auto& [name, value] : sys.registry().snapshot()) {
    std::snprintf(line, sizeof(line), "%s,%.10g\n", name.c_str(), value);
    out += line;
  }
  std::snprintf(line, sizeof(line), "totals,completed=%llu,vlrt=%llu,drops=%llu,events=%llu\n",
                static_cast<unsigned long long>(sys.clients().completed()),
                static_cast<unsigned long long>(sys.latency().vlrt_count()),
                static_cast<unsigned long long>(sys.total_drops()),
                static_cast<unsigned long long>(sys.simulation().events_executed()));
  out += line;
  return out;
}

TEST(ChainEquivalence, ByteIdenticalToChainSystem) {
  EXPECT_EQ(chain_fingerprint(graph_chain("sync", "sync")),
            "client.retransmits.total,217\n"
            "db.backlog,0\n"
            "db.busy_workers,19\n"
            "db.headroom,209\n"
            "sim.events.total,43014\n"
            "sim.heap_depth,3002\n"
            "web.backlog,0\n"
            "web.busy_workers,20\n"
            "web.headroom,258\n"
            "web.retransmits.total,0\n"
            "totals,completed=4726,vlrt=105,drops=217,events=43014\n");
}

TEST(ChainEquivalence, HoldsUnderTailPolicyAndFaults) {
  auto cfg = graph_chain("sync", "sync");
  cfg.tier_policy.retry.max_attempts = 2;
  cfg.tier_policy.attempt_timeout = Duration::millis(500);
  fault::LinkDegradeWindow win;
  win.hop = 1;
  win.at = Time::from_seconds(6);
  win.duration = Duration::millis(300);
  win.loss_prob = 0.5;
  cfg.faults.links.push_back(win);
  EXPECT_EQ(chain_fingerprint(std::move(cfg)),
            "client.retransmits.total,256\n"
            "db.backlog,0\n"
            "db.busy_workers,93\n"
            "db.headroom,135\n"
            "sim.events.total,48027\n"
            "sim.heap_depth,3273\n"
            "web.backlog,0\n"
            "web.breaker_state,0\n"
            "web.busy_workers,94\n"
            "web.headroom,184\n"
            "web.hedges.total,0\n"
            "web.retransmits.total,76\n"
            "web.retries.total,345\n"
            "totals,completed=4631,vlrt=148,drops=256,events=48027\n");
}

TEST(ChainEquivalence, AsyncChainMatchesPin) {
  EXPECT_EQ(chain_fingerprint(graph_chain("async", "async")),
            "client.retransmits.total,0\n"
            "db.backlog,0\n"
            "db.busy_workers,189\n"
            "db.headroom,65346\n"
            "sim.events.total,41752\n"
            "sim.heap_depth,3002\n"
            "web.backlog,0\n"
            "web.busy_workers,0\n"
            "web.headroom,65345\n"
            "web.retransmits.total,0\n"
            "totals,completed=4587,vlrt=0,drops=0,events=41752\n");
}

TEST(ChainEquivalence, StagedFrontMatchesPin) {
  EXPECT_EQ(chain_fingerprint(graph_chain("staged", "sync")),
            "client.retransmits.total,0\n"
            "db.backlog,0\n"
            "db.busy_workers,0\n"
            "db.headroom,228\n"
            "sim.events.total,42986\n"
            "sim.heap_depth,3002\n"
            "web.backlog,0\n"
            "web.busy_workers,0\n"
            "web.headroom,846\n"
            "web.retransmits.total,325\n"
            "totals,completed=4678,vlrt=155,drops=325,events=42986\n");
}

// ---------------------------------------------------------------------
// Fan-out / fan-in: a kDownstream step with several out-edges contacts
// every branch in parallel and resumes at the barrier when the last
// branch settles. Verified through the span trees of a traced run.

TEST(FanIn, BarrierJoinsParallelBranchesUnderTracing) {
  GraphConfig cfg = parse_topology(kDiamondText);
  cfg.duration = Duration::seconds(5);
  cfg.workload.sessions = 200;
  cfg.trace.mode = trace::TraceMode::kAll;
  GraphSystem sys(cfg);
  sys.run();
  EXPECT_GT(sys.clients().completed(), 100u);
  EXPECT_EQ(sys.total_drops(), 0u);
  ASSERT_NE(sys.tracer(), nullptr);
  ASSERT_GT(sys.tracer()->retained(), 0u);

  std::size_t checked = 0;
  for (const auto& tr : sys.tracer()->traces()) {
    if (!tr || tr->empty() || !tr->root().closed()) continue;
    // Find the two branch spans of the front tier's fan-out.
    const trace::Span* cat = nullptr;
    const trace::Span* ads = nullptr;
    for (const auto& s : tr->spans()) {
      if (s.kind != trace::SpanKind::kDownstream) continue;
      if (s.site == "front->catalog") cat = &s;
      if (s.site == "front->ads") ads = &s;
    }
    ASSERT_NE(cat, nullptr);
    ASSERT_NE(ads, nullptr);
    ASSERT_TRUE(cat->closed() && ads->closed());
    // Same parent, opened at the same instant (parallel, not serial)...
    EXPECT_EQ(cat->parent, ads->parent);
    EXPECT_EQ(cat->begin, ads->begin);
    // ...and the fan-in barrier holds the parent open until the LAST
    // branch settles.
    const sim::Time join = cat->end < ads->end ? ads->end : cat->end;
    const auto& parent = tr->spans()[cat->parent];
    EXPECT_TRUE(parent.closed());
    EXPECT_GE(parent.end, join);
    if (++checked >= 50) break;
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------
// Load-balancer menu on a replicated group: p2c (load-aware, samples
// queue depth per delivery attempt) must route around a frozen replica
// that blind random routing keeps hitting.

GraphConfig replicated(const char* lb) {
  std::string text =
      "graph lbtest\n"
      "sessions 2000\n"
      "duration 12s\n"
      "node front kind=sync threads=400 backlog=512 work=cpu:40us,down,cpu:40us\n"
      "node svc kind=sync replicas=3 lb=";
  text += lb;
  text +=
      " threads=50 work=cpu:2ms\n"
      "edge front svc\n"
      "freeze svc replica=0 first=2s period=3s pause=800ms\n";
  return parse_topology(text);
}

TEST(ReplicaGroup, PowerOfTwoChoicesRoutesAroundFrozenReplica) {
  GraphSystem random_sys(replicated("random"));
  random_sys.run();
  GraphSystem p2c_sys(replicated("p2c"));
  p2c_sys.run();
  ASSERT_NE(p2c_sys.group(1), nullptr);
  EXPECT_EQ(p2c_sys.group(1)->policy(), LbPolicy::kPowerOfTwo);
  EXPECT_EQ(p2c_sys.group(1)->size(), 3u);

  const double p99_random =
      random_sys.latency().histogram().percentile(99.0).to_millis();
  const double p99_p2c =
      p2c_sys.latency().histogram().percentile(99.0).to_millis();
  // Blind random keeps sending ~1/3 of traffic into the frozen replica's
  // queue; p2c compares two sampled queue depths per attempt and walks
  // around it. The gap is orders of magnitude, so 2x is a safe floor.
  EXPECT_GT(p99_random, 2.0 * p99_p2c);
  EXPECT_LE(p2c_sys.latency().vlrt_count(), random_sys.latency().vlrt_count());
}

TEST(ReplicaGroup, RoundRobinSpreadsLoadEvenly) {
  GraphConfig cfg = replicated("rr");
  cfg.freeze_node = -1;  // no freeze: all replicas equal
  GraphSystem sys(cfg);
  sys.run();
  const auto c0 = sys.server_flat(1)->stats().completed;
  const auto c1 = sys.server_flat(2)->stats().completed;
  const auto c2 = sys.server_flat(3)->stats().completed;
  EXPECT_GT(c0, 0u);
  // Round-robin alternates strictly, so replica counts differ by at most
  // the number of in-flight retransmission re-picks (tiny here).
  EXPECT_LE(c0 > c1 ? c0 - c1 : c1 - c0, 2u);
  EXPECT_LE(c1 > c2 ? c1 - c2 : c2 - c1, 2u);
}

}  // namespace
}  // namespace ntier::graph
