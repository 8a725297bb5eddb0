// Extension study: CTQO beyond the chain — service-graph topologies.
//
// Three sections, all instances of the declarative graph engine
// (src/graph, docs/TOPOLOGY.md):
//   1. diamond DAG: a front fans out to two mid services in parallel,
//      both share one database. A leaf millibottleneck overflows the
//      database queue, the RPC waits hold workers in BOTH branches, and
//      upstream CTQO surfaces as front-tier drops — the chain mechanism
//      generalizes to fan-out/fan-in graphs.
//   2. deep chain: the same 6-deep chain as ext_deep_chain, but written
//      in the topology grammar; is_chain() routes it through the
//      connect_downstream chain wiring.
//   3. hedging crossover on a replicated group: three replicas behind a
//      power-of-two-choices balancer, one replica periodically frozen.
//      At low load a hedged duplicate (which re-picks the replica)
//      sidesteps the frozen copy and cuts p99; near saturation the
//      duplicates are pure extra load and hedging *raises* the tail —
//      the helps-then-hurts crossover of Poloczek & Ciucu (PAPERS.md).
//
// Output includes machine-readable "[graph] ..." lines collected by
// scripts/run_benches.py into BENCH_ntier.json (schema ntier.bench/5).
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "metrics/table.h"

using namespace ntier;
using sim::Duration;

namespace {

graph::GraphConfig diamond_config(bool quick) {
  auto cfg = graph::parse_topology(R"(
graph diamond
seed 42
sessions 3000
node front   kind=sync threads=150 work=cpu:60us,down,cpu:60us
node catalog kind=sync threads=120 work=cpu:80us,down,cpu:40us
node ads     kind=sync threads=120 work=cpu:80us,down,cpu:40us
node db      kind=sync threads=100 work=cpu:500us
edge front catalog
edge front ads
edge catalog db
edge ads db
freeze db first=8s period=12s pause=900ms
)");
  cfg.duration = quick ? Duration::seconds(16) : Duration::seconds(40);
  return cfg;
}

void run_diamond(const bench::BenchFlags& flags, bench::BenchPerf& perf) {
  auto cfg = diamond_config(flags.quick);
  cfg.trace = flags.config;
  cfg.obs = flags.obs;
  auto sys = graph::run_graph(cfg);

  metrics::Table t({"node", "drops", "queue_peak", "completed"});
  for (std::size_t f = 0; f < sys->flat_count(); ++f) {
    const auto& st = sys->server_flat(f)->stats();
    t.add_row({sys->server_flat(f)->name(), metrics::Table::num(st.dropped),
               std::to_string(sys->server_flat(f)->max_sys_q_depth()),
               metrics::Table::num(st.completed)});
  }
  std::puts("--- 1. diamond DAG (900 ms leaf freeze; drops walk both branches up) ---");
  std::puts(t.to_string().c_str());
  const auto report = graph::analyze_ctqo(*sys);
  if (!report.episodes.empty())
    std::puts(report.episodes[0].to_string().c_str());
  const char* verdict = report.episodes.empty()
                            ? "none"
                            : (report.episodes[0].kind ==
                                       core::CtqoEpisode::Kind::kUpstream
                                   ? "upstream"
                                   : "downstream");
  std::printf("[graph] section=diamond nodes=%zu front_drops=%llu db_drops=%llu "
              "vlrt=%llu verdict=%s\n",
              sys->flat_count(),
              static_cast<unsigned long long>(sys->server_flat(0)->stats().dropped),
              static_cast<unsigned long long>(
                  sys->server_flat(sys->flat_count() - 1)->stats().dropped),
              static_cast<unsigned long long>(sys->latency().vlrt_count()), verdict);
  bench::finalize_incidents(*sys);
  bench::maybe_dashboard(*sys, flags);
  bench::export_traces(*sys, flags);
  perf.add_events(sys->simulation().events_executed());
}

// --- 2. deep chain in the graph grammar -----------------------------------

void run_deep_chain(const bench::BenchFlags& flags, bench::BenchPerf& perf) {
  const std::size_t depth = flags.quick ? 4 : 6;
  std::string text = "graph graph-chain-" + std::to_string(depth) + "\nseed 42\nsessions 5000\n";
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string name =
        (i == 0) ? "front" : (i + 1 == depth) ? "leaf" : "relay" + std::to_string(i);
    if (i + 1 == depth) {
      text += "node " + name + " kind=sync threads=100 work=cpu:500us\n";
    } else {
      text += "node " + name + " kind=sync threads=150 work=cpu:60us,down,cpu:60us\n";
    }
  }
  for (std::size_t i = 0; i + 1 < depth; ++i) {
    const std::string a =
        (i == 0) ? "front" : "relay" + std::to_string(i);
    const std::string b =
        (i + 2 == depth) ? "leaf" : "relay" + std::to_string(i + 1);
    text += "edge " + a + " " + b + "\n";
  }
  text += "freeze leaf first=8s period=12s pause=900ms\n";
  auto cfg = graph::parse_topology(text);
  cfg.duration = flags.quick ? Duration::seconds(16) : Duration::seconds(40);
  cfg.obs = flags.obs;

  std::printf("--- 2. deep chain, depth %zu, via the topology grammar (is_chain=%d) ---\n",
              depth, graph::is_chain(cfg) ? 1 : 0);
  auto sys = graph::run_graph(cfg);
  const std::uint64_t front = sys->server_flat(0)->stats().dropped;
  const std::uint64_t other = sys->total_drops() - front;
  std::printf("front drops %llu, deeper-tier drops %llu, vlrt %llu — the cascade "
              "surfaces at the front at any depth\n",
              static_cast<unsigned long long>(front),
              static_cast<unsigned long long>(other),
              static_cast<unsigned long long>(sys->latency().vlrt_count()));
  std::printf("[graph] section=deep_chain depth=%zu is_chain=%d front_drops=%llu "
              "vlrt=%llu\n",
              depth, graph::is_chain(cfg) ? 1 : 0,
              static_cast<unsigned long long>(front),
              static_cast<unsigned long long>(sys->latency().vlrt_count()));
  bench::finalize_incidents(*sys);
  bench::maybe_dashboard(*sys, flags);
  perf.add_events(sys->simulation().events_executed());
}

// --- 3. hedging crossover on a replicated group ---------------------------

graph::GraphConfig replicated_config(std::size_t sessions, bool hedge, bool quick) {
  auto cfg = graph::parse_topology(R"(
graph replicated
seed 42
sessions 1
node front kind=sync threads=400 backlog=512 work=cpu:40us,down,cpu:40us
node svc   kind=sync replicas=3 lb=random threads=50 work=cpu:2ms
edge front svc
freeze svc replica=0 first=2s period=3s pause=800ms
)");
  cfg.name = std::string("replicated-") + (hedge ? "hedge" : "base") + "-" +
             std::to_string(sessions);
  cfg.workload.sessions = sessions;
  cfg.duration = quick ? Duration::seconds(12) : Duration::seconds(30);
  if (hedge) {
    cfg.tier_policy.hedge.enabled = true;
    cfg.tier_policy.hedge.percentile = 0.95;
    cfg.tier_policy.hedge.initial_delay = Duration::millis(20);
    cfg.tier_policy.hedge.max_hedges = 1;
  }
  return cfg;
}

void run_replicated(const bench::BenchFlags& flags, bench::BenchPerf& perf) {
  std::puts("--- 3. hedging on 3 p2c replicas, one periodically frozen ---");
  metrics::Table t({"sessions", "hedge", "p99_ms", "vlrt", "drops", "hedges"});
  const std::vector<std::size_t> loads =
      flags.quick ? std::vector<std::size_t>{2000, 9000}
                  : std::vector<std::size_t>{2000, 5000, 8000, 9500};
  for (std::size_t sessions : loads) {
    for (bool hedge : {false, true}) {
      auto cfg = replicated_config(sessions, hedge, flags.quick);
      cfg.obs = flags.obs;
      auto sys = graph::run_graph(cfg);
      bench::finalize_incidents(*sys);
      const double p99 = sys->latency().histogram().percentile(99.0).to_millis();
      std::uint64_t hedges = 0;
      if (const auto* g = sys->server_flat(0)->governor())
        hedges = g->stats().hedges;
      t.add_row({std::to_string(sessions), hedge ? "on" : "off",
                 metrics::Table::num(p99, 1), metrics::Table::num(sys->latency().vlrt_count()),
                 metrics::Table::num(sys->total_drops()), metrics::Table::num(hedges)});
      std::printf("[graph] section=hedging sessions=%zu hedge=%s p99_ms=%.3f "
                  "drops=%llu hedges=%llu\n",
                  sessions, hedge ? "on" : "off", p99,
                  static_cast<unsigned long long>(sys->total_drops()),
                  static_cast<unsigned long long>(hedges));
      perf.add_events(sys->simulation().events_executed());
    }
  }
  std::puts(t.to_string().c_str());
  std::puts("expected: hedging cuts p99 at low load (duplicates dodge the frozen "
            "replica) and inflates it near saturation (duplicates are extra load).");
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_bench_flags(argc, argv);
  if (flags.bad) return 2;
  bench::BenchPerf perf("ext_graph_topologies");
  run_diamond(flags, perf);
  run_deep_chain(flags, perf);
  run_replicated(flags, perf);
  perf.print();
  return 0;
}
