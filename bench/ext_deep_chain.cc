// Extension study: CTQO on deeper chains (the general "n" in n-tier).
//
// Sweeps chain depth 3..6 with the millibottleneck always in the leaf
// tier. In the all-RPC chain, upstream CTQO walks the whole chain and
// drops at the front regardless of depth — deeper chains only lengthen
// the cascade. The all-async chain absorbs the burst at every depth.
//
// The chains are built as graph-engine configs (src/graph): each one is
// chain-shaped, so GraphSystem wires it with connect_downstream front to
// back (the chain wiring path, docs/TOPOLOGY.md).
#include <cstdio>

#include "bench_util.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "metrics/table.h"

using namespace ntier;
using sim::Duration;
using sim::Time;

namespace {

graph::GraphConfig make_chain(std::size_t depth, bool all_async) {
  graph::GraphConfig cfg;
  cfg.name = (all_async ? "async-depth-" : "sync-depth-") + std::to_string(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    graph::NodeSpec node;
    node.name = (i == 0) ? "front" : (i + 1 == depth) ? "leaf" : "relay" + std::to_string(i);
    node.kind = all_async ? graph::NodeSpec::Kind::kAsync : graph::NodeSpec::Kind::kSync;
    node.sync.threads_per_process = (i + 1 == depth) ? 100 : 150;
    node.sync.max_processes = 1;
    if (i + 1 == depth) {
      node.work = {{server::WorkStep::Kind::kCpu, Duration::micros(500)}};
    } else {
      node.work = {{server::WorkStep::Kind::kCpu, Duration::micros(60)},
                   {server::WorkStep::Kind::kDownstream, Duration::zero()},
                   {server::WorkStep::Kind::kCpu, Duration::micros(60)}};
    }
    if (i > 0) cfg.edges.push_back({static_cast<int>(i) - 1, static_cast<int>(i), {}});
    cfg.nodes.push_back(std::move(node));
  }
  cfg.workload.sessions = 5000;
  cfg.duration = Duration::seconds(40);
  cfg.freeze_node = static_cast<int>(depth) - 1;
  cfg.freeze.first = Time::from_seconds(8);
  cfg.freeze.period = Duration::seconds(12);
  cfg.freeze.pause = Duration::millis(900);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_deep_chain");
  metrics::Table t({"depth", "stack", "front_drops", "other_drops", "vlrt",
                    "cascade"});
  for (std::size_t depth : {3u, 4u, 5u, 6u}) {
    for (bool all_async : {false, true}) {
      auto gcfg = make_chain(depth, all_async);
      gcfg.obs = tf.obs;
      graph::GraphSystem sys(std::move(gcfg));
      sys.run();
      std::uint64_t front = sys.server_flat(0)->stats().dropped;
      std::uint64_t other = sys.total_drops() - front;
      const auto report = core::analyze_ctqo(sys);
      std::string cascade = report.episodes.empty()
                                ? "none"
                                : report.episodes[0].to_string().substr(22, 40);
      t.add_row({std::to_string(depth), all_async ? "async" : "sync",
                 metrics::Table::num(front), metrics::Table::num(other),
                 metrics::Table::num(sys.latency().vlrt_count()), cascade});
      bench::finalize_incidents(sys);
      bench::maybe_dashboard(sys, tf);
      perf.add_events(sys.simulation().events_executed());
    }
  }
  std::puts("CTQO vs chain depth (millibottleneck in the leaf, 900 ms freeze):");
  std::puts(t.to_string().c_str());
  std::puts("expected: sync drops at the front at every depth; async never drops.");
  perf.print();
  return 0;
}
