// Extension study: alternative designs around CTQO.
//
//  (A) SEDA-style staged servers (the events-vs-threads middle ground of
//      the paper's related work): bounded stage queues sit between
//      MaxSysQDepth (~10^2) and LiteQDepth (~10^4), shrinking but not
//      eliminating drops.
//  (B) Load shedding at the web tier: answer overload with an immediate
//      error instead of letting TCP drop — no VLRT, but explicit
//      failures the application must handle.
//  (C) Browser-style client timeouts: with a 10 s timeout the retrans-
//      mitted stragglers turn into user-visible failures.
#include <cstdio>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "metrics/table.h"
#include "server/sync_server.h"

using namespace ntier;
using sim::Duration;

namespace {

// The same 3-tier chain built from one server kind ("sync", "staged",
// or "async"); staged tiers keep the default 1000-slot stage queues.
graph::GraphConfig chain_of(const std::string& kind) {
  // The 1.5 s freeze (~1000 req/s) overflows the staged tier's
  // 1000-slot stage queue too, exposing the full bound gradient.
  return graph::parse_topology(
      "graph alt-" + kind + "\n"
      "sessions 7000\n"
      "duration 40s\n"
      "node web kind=" + kind + " work=cpu:60us,down,cpu:40us\n"
      "node app kind=" + kind + " work=cpu:150us,down,cpu:600us\n"
      "node db  kind=" + kind + " threads=100 work=cpu:400us\n"
      "edge web app\n"
      "edge app db\n"
      "freeze app first=8s period=12s pause=1500ms\n");
}

void part_a(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts("(A) sync vs SEDA-staged vs async under the same app millibottleneck");
  metrics::Table t({"architecture", "admission_bound", "drops", "vlrt", "p99.9_ms"});
  for (auto [kind, name] : {std::pair{"sync", "thread-per-request"},
                            std::pair{"staged", "SEDA staged (q=1000)"},
                            std::pair{"async", "event-driven"}}) {
    auto cfg = chain_of(kind);
    cfg.obs = tf.obs;
    auto sys = graph::run_graph(cfg);
    t.add_row({name, metrics::Table::num(std::uint64_t{sys->server(0)->max_sys_q_depth()}),
               metrics::Table::num(sys->total_drops()),
               metrics::Table::num(sys->latency().vlrt_count()),
               metrics::Table::num(sys->latency().histogram().percentile(99.9).to_millis(), 0)});
    bench::finalize_incidents(*sys);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
  }
  std::puts(t.to_string().c_str());
  std::puts(
      "drops shrink with the admission bound (278 -> 1016 -> unbounded). Note\n"
      "the event-driven row: zero drops, yet a >3 s tail remains — with a\n"
      "1.5 s freeze the *stored* requests pay pure queueing delay. Asynchrony\n"
      "removes the retransmission cliff, not the backlog itself.\n");
}

void part_b(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts("(B) web-tier load shedding vs TCP drop (Fig 3 scenario)");
  metrics::Table t({"policy", "drops", "shed", "failed_requests", "vlrt", "rps"});
  for (bool shed : {false, true}) {
    auto cfg = core::scenarios::fig3_consolidation_sync();
    cfg.name = shed ? "altb-shed" : "altb-drop";
    cfg.system.web_shed_on_overload = shed;
    cfg.obs = tf.obs;
    auto sys = core::run_system(cfg);
    auto s = core::summarize(*sys);
    auto* web = dynamic_cast<server::SyncServer*>(sys->web());
    t.add_row({shed ? "shed (fast 503)" : "drop (TCP retransmit)",
               metrics::Table::num(s.total_drops),
               metrics::Table::num(web != nullptr ? web->shed_count() : 0),
               metrics::Table::num(sys->clients().failed()),
               metrics::Table::num(s.latency.vlrt_count),
               metrics::Table::num(s.throughput_rps, 0)});
    bench::finalize_incidents(*sys);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
  }
  std::puts(t.to_string().c_str());
  std::puts("shedding converts multi-second VLRT into immediate failures.\n");
}

void part_c(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts("(C) browser timeouts over the dropping system (Fig 3 scenario)");
  metrics::Table t({"client_timeout", "vlrt", "timeouts", "failed", "p99.9_ms"});
  for (auto [timeout, label] : {std::pair{Duration::zero(), "none"},
                                std::pair{Duration::seconds(10), "10s"},
                                std::pair{Duration::seconds(3), "3s"}}) {
    auto cfg = core::scenarios::fig3_consolidation_sync();
    cfg.name = std::string("altc-timeout-") + label;
    cfg.workload.client_timeout = timeout;
    cfg.obs = tf.obs;
    auto sys = core::run_system(cfg);
    t.add_row({label, metrics::Table::num(sys->latency().vlrt_count()),
               metrics::Table::num(sys->clients().timeouts()),
               metrics::Table::num(sys->clients().failed()),
               metrics::Table::num(sys->latency().histogram().percentile(99.9).to_millis(), 0)});
    bench::finalize_incidents(*sys);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
  }
  std::puts(t.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_alternative_designs");
  part_a(tf, perf);
  part_b(tf, perf);
  part_c(tf, perf);
  perf.print();
  return 0;
}
