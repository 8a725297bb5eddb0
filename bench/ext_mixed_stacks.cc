// Extension study: the paper's "if (and only if)" claim.
//
// §I: "Under moderate resource utilization levels, the CTQO problem
// disappears completely if (and only if) all the servers are
// asynchronous." The paper evaluates the front-to-back replacement
// order (NX=1,2,3); here we run ALL 8 sync/async combinations of a
// 3-tier chain under the same app-tier millibottleneck and check that
// exactly one combination — all-async — is drop-free.
#include <cstdio>

#include "bench_util.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "metrics/table.h"

using namespace ntier;

namespace {

graph::GraphConfig combo(bool web_async, bool app_async, bool db_async) {
  auto kind = [](bool async) { return async ? "kind=async" : "kind=sync"; };
  const std::string name = std::string("mixed-") + (web_async ? "a" : "s") +
                           (app_async ? "a" : "s") + (db_async ? "a" : "s");
  // A sync db runs 100 threads; an async one models InnoDB: 8 threads of
  // concurrency in front of a 2000-deep wait queue. The millibottleneck
  // sits in the app tier (the paper's consolidation case).
  return graph::parse_topology(
      "graph " + name + "\n"
      "sessions 7000\n"
      "duration 40s\n"
      "node web " + kind(web_async) + " work=cpu:60us,down,cpu:40us\n"
      "node app " + kind(app_async) + " work=cpu:150us,down,cpu:600us\n"
      "node db  " + kind(db_async) + " threads=100 active=8 liteq=2000 work=cpu:400us\n"
      "edge web app\n"
      "edge app db\n"
      "freeze app first=8s period=12s pause=700ms\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_mixed_stacks");
  metrics::Table t({"web", "app", "db", "web_drops", "app_drops", "db_drops",
                    "vlrt", "ctqo_free"});
  for (int mask = 0; mask < 8; ++mask) {
    const bool web = (mask & 4) != 0;
    const bool app = (mask & 2) != 0;
    const bool db = (mask & 1) != 0;
    auto cfg = combo(web, app, db);
    cfg.obs = tf.obs;
    auto sys = graph::run_graph(cfg);
    t.add_row({web ? "async" : "sync", app ? "async" : "sync", db ? "async" : "sync",
               metrics::Table::num(sys->server(0)->stats().dropped),
               metrics::Table::num(sys->server(1)->stats().dropped),
               metrics::Table::num(sys->server(2)->stats().dropped),
               metrics::Table::num(sys->latency().vlrt_count()),
               sys->total_drops() == 0 ? "YES" : "no"});
    bench::finalize_incidents(*sys);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
  }
  std::puts("All 8 sync/async combinations under the same app-tier millibottleneck:");
  std::puts(t.to_string().c_str());
  std::puts("paper claim: CTQO disappears if and only if all servers are async.");
  perf.print();
  return 0;
}
