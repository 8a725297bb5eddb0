#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

#include "core/correlate.h"
#include "core/experiment.h"
#include "core/manifest.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "report/dashboard.h"
#include "stats.h"
#include "sweep/engine.h"

namespace perfbench {

namespace {

using namespace ntier;
using Clock = std::chrono::steady_clock;
using sim::Duration;
using sim::Time;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Runs fn inside span `name` and stores its wall milliseconds in `ms`.
template <class Fn>
void timed(SpanLog* spans, const char* name, double& ms, Fn fn) {
  Scope s(spans, name);
  const auto t0 = Clock::now();
  fn();
  ms = secs_since(t0) * 1e3;
}

void append(std::vector<std::string>& to, const std::vector<std::string>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// --- workload configs --------------------------------------------------------

// DeathStarBench-style fan-out: the front fans out to an async catalog
// (which calls the db) and to a 3-replica p2c service group whose replica
// 0 freezes for 800 ms every 3 s.
constexpr const char* kGraphHedgeTopology = R"(graph graph_hedge
sessions 4000
duration 120s
node front   kind=sync threads=400 backlog=512 work=cpu:40us,down,cpu:40us
node catalog kind=async work=cpu:80us,down,cpu:40us
node svc     kind=sync replicas=3 lb=p2c threads=50 work=cpu:1ms
node db      kind=sync threads=100 work=cpu:300us,disk:1ms
edge front catalog
edge front svc
edge catalog db
freeze svc replica=0 first=2s period=3s pause=800ms
)";

core::ExperimentConfig ntier_config(const std::string& name, std::uint64_t seed) {
  core::ExperimentConfig cfg;
  if (name == "sync_ctqo") {
    cfg = core::scenarios::fig1_multimodal(8000);
  } else {
    cfg = core::scenarios::fig11_nx3_logflush();
    cfg.duration = Duration::seconds(300);
  }
  cfg.seed = seed;
  return cfg;
}

// Hedge after the observed p95 (20 ms until warmed up, one copy) under a
// 2.5 s end-to-end deadline, on every inter-node hop.
void graph_hedge_policy(graph::GraphConfig& cfg) {
  cfg.tier_policy.hedge.enabled = true;
  cfg.tier_policy.hedge.percentile = 0.95;
  cfg.tier_policy.hedge.initial_delay = Duration::millis(20);
  cfg.tier_policy.hedge.max_hedges = 1;
  cfg.tier_policy.deadline = Duration::from_seconds(2.5);
}

constexpr std::size_t kSweepReplications = 3;
constexpr int kSweepRenders = 9;

// The bench/sweep_ctqo_surface grid: wl x backlog x NX over 16 s Fig 3
// runs; replication r of a point runs seed + r.
struct SweepSetup {
  sweep::Grid grid;
  sweep::ConfigBinder bind;
};

SweepSetup sweep_setup(std::uint64_t seed) {
  SweepSetup s;
  s.grid.add_axis("wl", {3000, 5000, 7000}).add_axis("backlog", {64, 128}).add_axis("nx", {0, 3});
  s.bind = [seed](const sweep::GridPoint& p) {
    auto cfg = core::scenarios::fig3_consolidation_sync();
    const auto wl = static_cast<std::size_t>(p.value(0));
    const auto backlog = static_cast<std::size_t>(p.value(1));
    const auto nx = static_cast<int>(p.value(2));
    cfg.workload.sessions = wl;
    cfg.system.backlog = backlog;
    cfg.system.arch = static_cast<core::Architecture>(nx);
    cfg.duration = Duration::seconds(16);
    cfg.name = "surface-wl" + std::to_string(wl) + "-q" + std::to_string(backlog) + "-nx" +
               std::to_string(nx);
    cfg.seed = seed;
    return cfg;
  };
  return s;
}

// --- public-accessor view of a built system ----------------------------------

struct SystemView {
  sim::Simulation* sim = nullptr;
  workload::ClientPool* clients = nullptr;
  const monitor::LatencyCollector* latency = nullptr;
  const monitor::Sampler* sampler = nullptr;
  std::vector<server::Server*> servers;
  std::vector<cpu::VmCpu*> vms;
  std::vector<const cpu::IoDevice*> disks;
};

SystemView view_of(core::NTierSystem& s) {
  SystemView v{&s.simulation(), &s.clients(), &s.latency(), &s.sampler(), {}, {}, {}};
  for (int t = 0; t < 3; ++t) {
    const auto tier = static_cast<core::Tier>(t);
    v.servers.push_back(s.tier(tier));
    v.vms.push_back(s.tier_vm(tier));
  }
  if (s.bursty_vm()) v.vms.push_back(s.bursty_vm());
  if (s.db_disk()) v.disks.push_back(s.db_disk());
  return v;
}

SystemView view_of(graph::GraphSystem& g) {
  SystemView v{&g.simulation(), &g.clients(), &g.latency(), &g.sampler(), {}, {}, {}};
  for (std::size_t i = 0; i < g.flat_count(); ++i) {
    v.servers.push_back(g.server_flat(i));
    v.vms.push_back(g.vm_flat(i));
    if (g.disk_flat(i)) v.disks.push_back(g.disk_flat(i));
  }
  return v;
}

// Calls fn(stats, governed) for the client transport and every server's
// downstream transport or fan-out routes; `governed` says whether the
// sender runs a tail policy.
template <class Fn>
void for_each_transport(const SystemView& v, Fn fn) {
  fn(v.clients->tx_stats(), v.clients->governor() != nullptr);
  for (server::Server* s : v.servers) {
    const bool governed = s->governor() != nullptr;
    if (auto* tx = s->downstream_transport()) fn(tx->stats(), governed);
    for (std::size_t i = 0; i < s->route_count(); ++i) fn(s->route_transport(i)->stats(), governed);
  }
}

template <class Fn>
void for_each_governor(const SystemView& v, Fn fn) {
  if (const auto* g = v.clients->governor()) fn(g->stats());
  for (server::Server* s : v.servers)
    if (const auto* g = s->governor()) fn(g->stats());
}

std::string queue_series(const server::Server* s) { return s->name() + ".queue"; }

struct EdgePeaks {
  std::size_t jobs = 0;    // largest VmCpu::active_jobs
  std::size_t queued = 0;  // largest Server::queued_requests
};

// Slice-edge sample: pending events plus the largest job and queue counts.
// Const reads only, so sampling never perturbs the run.
EdgePeaks note_edge(Counters& c, const SystemView& v) {
  EdgePeaks e;
  for (const cpu::VmCpu* vm : v.vms) e.jobs = std::max(e.jobs, vm->active_jobs());
  for (const server::Server* s : v.servers) e.queued = std::max(e.queued, s->queued_requests());
  c.pending_sum += static_cast<double>(v.sim->pending_events());
  ++c.pending_samples;
  c.jobs_peak = std::max(c.jobs_peak, e.jobs);
  c.queue_peak = std::max(c.queue_peak, e.queued);
  return e;
}

// End-of-run counters. busy_core_seconds() syncs the CPU integration, so
// this runs only after the last event and after every report call.
void read_counters(const SystemView& v, Counters& c) {
  c.events = v.sim->events_executed();
  c.issued = v.clients->issued();
  c.completed = v.clients->completed();
  c.failed = v.clients->failed();
  for (const server::Server* s : v.servers) {
    c.offered += s->stats().offered;
    c.accepted += s->stats().accepted;
    c.dropped += s->stats().dropped;
  }
  for_each_transport(v, [&c](const net::TxStats& st, bool governed) {
    c.sends += st.sent;
    c.delivered += st.delivered;
    c.retransmits += st.retransmits;
    if (governed) c.governed_sends += st.sent;
  });
  for_each_governor(v, [&c](const policy::PolicyStats& st) {
    c.hedges += st.hedges;
    c.hedge_wins += st.hedge_wins;
    c.retries += st.retries;
    c.deadline_cancels += st.deadline_cancels;
  });
  for (const cpu::IoDevice* d : v.disks) c.disk_ops += d->ops_completed();
  for (cpu::VmCpu* vm : v.vms) c.busy_core_s += vm->busy_core_seconds();
  c.vlrt = v.latency->vlrt_count();
  const std::string q = queue_series(v.servers.front());
  if (v.sampler->has_series(q)) c.sampler_ticks = v.sampler->series(q).window_count();
  c.series = v.sampler->registry().series_names().size();
  c.sim_seconds = v.sim->now().to_seconds();
}

std::uint64_t digest_of(const SystemView& v, const Counters& c) {
  Digest d;
  for (std::uint64_t x : {c.events, c.issued, c.completed, c.failed}) d.add(x);
  for (const server::Server* s : v.servers) {
    const auto& st = s->stats();
    for (std::uint64_t x : {st.offered, st.accepted, st.dropped, st.completed}) d.add(x);
  }
  for (std::uint64_t x : {c.retransmits, c.hedges, c.vlrt}) d.add(x);
  return d.value();
}

std::vector<TierView> tier_views(const SystemView& v) {
  std::vector<TierView> out;
  for (const server::Server* s : v.servers) {
    TierView t;
    t.name = s->name();
    t.accepted = s->stats().accepted;
    t.completed = s->stats().completed;
    t.queued = s->queued_requests();
    t.sync = s->accept_queue() != nullptr;
    const std::string q = queue_series(s);
    t.queue_peak = v.sampler->has_series(q) ? v.sampler->series(q).max_value() : 0.0;
    t.max_sys_q_depth = s->max_sys_q_depth();
    out.push_back(std::move(t));
  }
  return out;
}

// --- single-system workloads (NTierSystem, GraphSystem) ----------------------

std::unique_ptr<core::NTierSystem> build(const std::string& name, std::uint64_t seed,
                                         SpanLog* spans, Iteration& it) {
  Scope setup(spans, "setup");
  const auto t0 = Clock::now();
  core::ExperimentConfig cfg;
  {
    Scope s(spans, "config");
    cfg = ntier_config(name, seed);
  }
  {
    Scope s(spans, "validate");
    core::validate(cfg);
  }
  std::unique_ptr<core::NTierSystem> sys;
  timed(spans, "construct", it.phase_ms["core.build_ms"],
        [&] { sys = std::make_unique<core::NTierSystem>(cfg); });
  it.setup_s = secs_since(t0);
  return sys;
}

std::unique_ptr<graph::GraphSystem> build_graph(std::uint64_t seed, SpanLog* spans,
                                                Iteration& it) {
  Scope setup(spans, "setup");
  const auto t0 = Clock::now();
  graph::GraphConfig cfg;
  timed(spans, "parse", it.phase_ms["graph.parse_ms"],
        [&] { cfg = graph::parse_topology(kGraphHedgeTopology); });
  cfg.seed = seed;
  graph_hedge_policy(cfg);
  {
    Scope s(spans, "validate");
    graph::validate(cfg);
  }
  std::unique_ptr<graph::GraphSystem> sys;
  timed(spans, "construct", it.phase_ms["graph.build_ms"],
        [&] { sys = std::make_unique<graph::GraphSystem>(cfg); });
  it.setup_s = secs_since(t0);
  return sys;
}

// run_until one simulated second at a time, timing each slice. A traced
// run also reads the slice-edge counters after each slice.
template <class System>
void run_phase(System& sys, const SystemView& v, Duration duration, SpanLog* spans,
               Iteration& it) {
  Scope run(spans, "run");
  const auto t0 = Clock::now();
  const Time end = Time::origin() + duration;
  for (Time t = Time::origin(); t < end;) {
    t = std::min(t + Duration::seconds(1), end);
    Scope slice(spans, "slice");
    const std::uint64_t ev0 = v.sim->events_executed();
    const auto s0 = Clock::now();
    sys.run_until(t);
    const double ms = secs_since(s0) * 1e3;
    it.slices.push_back({ms, v.sim->events_executed() - ev0});
    if (spans == nullptr) continue;
    const EdgePeaks peaks = note_edge(it.counters, v);
    std::uint64_t drops = 0, retransmits = 0, hedges = 0;
    for (const server::Server* s : v.servers) drops += s->stats().dropped;
    for_each_transport(v, [&](const net::TxStats& st, bool) { retransmits += st.retransmits; });
    for_each_governor(v, [&](const policy::PolicyStats& st) { hedges += st.hedges; });
    slice.arg("events", static_cast<double>(v.sim->events_executed()));
    slice.arg("pending", static_cast<double>(v.sim->pending_events()));
    slice.arg("completed", static_cast<double>(v.clients->completed()));
    slice.arg("drops", static_cast<double>(drops));
    slice.arg("retransmits", static_cast<double>(retransmits));
    slice.arg("hedges", static_cast<double>(hedges));
    slice.arg("active_jobs_max", static_cast<double>(peaks.jobs));
    slice.arg("queued_max", static_cast<double>(peaks.queued));
  }
  it.run_s = secs_since(t0);
}

// Counters, digest and checks once the report calls are done.
void finish(const std::string& name, const SystemView& v, Verdict verdict, Iteration& it) {
  read_counters(v, it.counters);
  it.digest = digest_of(v, it.counters);
  verdict.hedges = it.counters.hedges;
  verdict.hedge_wins = it.counters.hedge_wins;
  append(it.failures, check_tiers(tier_views(v)));
  append(it.failures, check_verdict(name, verdict));
}

// In a traced run with a tier policy, keeps every client latency in
// completion order for the policy replay. A completion listener schedules
// no events, so the run is unchanged.
void record_latencies(workload::ClientPool& clients, SpanLog* spans, Iteration& it) {
  if (spans == nullptr || !it.tier_policy.any()) return;
  clients.on_complete([&it](const server::RequestPtr& r) {
    it.latency_sequence_us.push_back(r->latency().count_micros());
  });
}

Iteration run_ntier(const std::string& name, std::uint64_t seed, SpanLog* spans) {
  Iteration it;
  Scope root(spans, "request", name);
  auto sys = build(name, seed, spans, it);
  it.tier_policy = sys->config().tier_policy;
  record_latencies(sys->clients(), spans, it);
  const SystemView v = view_of(*sys);
  run_phase(*sys, v, sys->config().duration, spans, it);

  Verdict verdict;
  {
    Scope report(spans, "report");
    const auto t0 = Clock::now();
    core::ExperimentSummary summary;
    core::CorrelationReport corr;
    std::string manifest, html;
    timed(spans, "analyze", it.phase_ms["core.analyze_ms"],
          [&] { summary = core::summarize(*sys); });
    timed(spans, "correlate", it.phase_ms["core.correlate_ms"],
          [&] { corr = core::correlate(*sys); });
    timed(spans, "manifest", it.phase_ms["core.manifest_ms"],
          [&] { manifest = core::run_manifest_json(*sys, &summary.ctqo); });
    timed(spans, "dashboard", it.phase_ms["report.dashboard_ms"],
          [&] { html = report::render_dashboard(*sys, summary.ctqo, corr); });
    it.report_s = secs_since(t0);
    for (const char* k : {"core.analyze_ms", "core.correlate_ms", "core.manifest_ms",
                          "report.dashboard_ms"})
      it.report_parts_s.push_back(it.phase_ms[k] / 1e3);
    it.dashboard_kb = static_cast<double>(html.size()) / 1024.0;
    verdict.drops = summary.total_drops;
    verdict.upstream_episodes = summary.ctqo.upstream_episodes;
  }
  finish(name, v, verdict, it);
  return it;
}

Iteration run_graph_hedge(std::uint64_t seed, SpanLog* spans) {
  Iteration it;
  Scope root(spans, "request", "graph_hedge");
  auto sys = build_graph(seed, spans, it);
  it.tier_policy = sys->config().tier_policy;
  record_latencies(sys->clients(), spans, it);
  const SystemView v = view_of(*sys);
  run_phase(*sys, v, sys->config().duration, spans, it);

  Verdict verdict;
  {
    Scope report(spans, "report");
    const auto t0 = Clock::now();
    core::CtqoReport ctqo;
    core::CorrelationReport corr;
    std::string manifest, html;
    timed(spans, "analyze", it.phase_ms["graph.analyze_ms"],
          [&] { ctqo = graph::analyze_ctqo(*sys); });
    timed(spans, "correlate", it.phase_ms["graph.correlate_ms"],
          [&] { corr = graph::correlate(*sys); });
    timed(spans, "manifest", it.phase_ms["graph.manifest_ms"],
          [&] { manifest = graph::run_manifest_json(*sys, &ctqo); });
    timed(spans, "dashboard", it.phase_ms["report.dashboard_ms"],
          [&] { html = report::render_dashboard(*sys, ctqo, corr); });
    it.report_s = secs_since(t0);
    for (const char* k : {"graph.analyze_ms", "graph.correlate_ms", "graph.manifest_ms",
                          "report.dashboard_ms"})
      it.report_parts_s.push_back(it.phase_ms[k] / 1e3);
    it.dashboard_kb = static_cast<double>(html.size()) / 1024.0;
    verdict.drops = sys->total_drops();
    verdict.upstream_episodes = ctqo.upstream_episodes;
  }
  finish("graph_hedge", v, verdict, it);
  return it;
}

// --- sweep_surface -----------------------------------------------------------

SweepSetup build_sweep(std::uint64_t seed, SpanLog* spans, Iteration& it) {
  Scope setup(spans, "setup");
  const auto t0 = Clock::now();
  SweepSetup s = sweep_setup(seed);
  {
    Scope v(spans, "validate");
    for (const sweep::GridPoint& p : s.grid.points()) core::validate(s.bind(p));
  }
  it.setup_s = secs_since(t0);
  return s;
}

// What the run hook keeps from one (point, replication) run.
struct SweepRecord {
  Counters counters;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

Iteration run_surface(std::uint64_t seed, SpanLog* spans, std::size_t jobs) {
  Iteration it;
  Scope root(spans, "request", "sweep_surface");
  const SweepSetup setup = build_sweep(seed, spans, it);

  // Workers write only their own (point, replication) slot.
  std::vector<SweepRecord> records(setup.grid.size() * kSweepReplications);
  const sweep::RunHook hook = [&records](const sweep::GridPoint& p, std::size_t rep,
                                         core::NTierSystem& sys) {
    SweepRecord& r = records[p.index * kSweepReplications + rep];
    const SystemView v = view_of(sys);
    note_edge(r.counters, v);
    read_counters(v, r.counters);
    r.digest = digest_of(v, r.counters);
    for (const std::string& f : check_tiers(tier_views(v)))
      r.failures.push_back(sys.config().name + " rep " + std::to_string(rep) + ": " + f);
  };
  sweep::SweepOptions opt;
  opt.replications = kSweepReplications;
  opt.jobs = jobs;
  sweep::SweepResult result;
  {
    Scope run(spans, "run");
    const auto t0 = Clock::now();
    {
      Scope s(spans, "run_sweep");
      result = sweep::run_sweep(setup.grid, setup.bind, opt, hook);
    }
    it.run_s = secs_since(t0);
  }
  {
    // The renderers are pure functions of the result and take well under
    // a millisecond, so one run renders several times and keeps the
    // fastest.
    Scope report(spans, "report");
    std::vector<double> renders;
    for (int rep = 0; rep < kSweepRenders; ++rep) {
      const auto t0 = Clock::now();
      std::string csv, manifest, text;
      {
        Scope s(spans, "csv");
        csv = result.csv();
      }
      {
        Scope s(spans, "manifest");
        manifest = result.manifest_json();
      }
      {
        Scope s(spans, "to_string");
        text = result.to_string();
      }
      renders.push_back(secs_since(t0));
    }
    it.report_s = fastest(renders);
    it.report_parts_s.push_back(it.report_s);
    it.phase_ms["sweep.render_ms"] = it.report_s * 1e3;
  }
  it.sweep_runs = result.runs;
  Digest d;
  d.add(result.total_events);
  for (const SweepRecord& r : records) {
    it.counters.merge(r.counters);
    d.add(r.digest);
    append(it.failures, r.failures);
  }
  it.digest = d.value();
  Verdict verdict;
  for (const sweep::PointResult& p : result.points)
    if (p.point.value(2) == 3 && p.ctqo) ++verdict.nx3_ctqo_points;
  append(it.failures, check_verdict("sweep_surface", verdict));
  return it;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sync_ctqo", "async_logflush", "graph_hedge",
                                                 "sweep_surface"};
  return names;
}

void Counters::merge(const Counters& o) {
  for (auto [mine, theirs] : {std::pair{&events, o.events}, {&issued, o.issued},
                              {&completed, o.completed}, {&failed, o.failed},
                              {&offered, o.offered}, {&accepted, o.accepted},
                              {&dropped, o.dropped}, {&sends, o.sends},
                              {&delivered, o.delivered}, {&retransmits, o.retransmits},
                              {&governed_sends, o.governed_sends}, {&hedges, o.hedges},
                              {&hedge_wins, o.hedge_wins}, {&retries, o.retries},
                              {&deadline_cancels, o.deadline_cancels}, {&disk_ops, o.disk_ops},
                              {&vlrt, o.vlrt}, {&sampler_ticks, o.sampler_ticks},
                              {&pending_samples, o.pending_samples}})
    *mine += theirs;
  busy_core_s += o.busy_core_s;
  pending_sum += o.pending_sum;
  sim_seconds += o.sim_seconds;
  series = std::max(series, o.series);
  jobs_peak = std::max(jobs_peak, o.jobs_peak);
  queue_peak = std::max(queue_peak, o.queue_peak);
}

Iteration run_workload(const std::string& name, std::uint64_t seed, SpanLog* spans,
                       std::size_t sweep_jobs) {
  try {
    if (name == "sync_ctqo" || name == "async_logflush") return run_ntier(name, seed, spans);
    if (name == "graph_hedge") return run_graph_hedge(seed, spans);
    if (name == "sweep_surface") return run_surface(seed, spans, sweep_jobs);
    Iteration it;
    it.failures.push_back("unknown workload " + name);
    return it;
  } catch (const std::exception& e) {
    Iteration it;
    it.failures.push_back(std::string("exception: ") + e.what());
    return it;
  }
}

double setup_only(const std::string& name, std::uint64_t seed) {
  Iteration it;
  if (name == "graph_hedge") {
    auto sys = build_graph(seed, nullptr, it);
  } else if (name == "sweep_surface") {
    build_sweep(seed, nullptr, it);
  } else {
    auto sys = build(name, seed, nullptr, it);
  }
  return it.setup_s;
}

std::vector<std::string> check_tiers(const std::vector<TierView>& tiers) {
  std::vector<std::string> out;
  for (const TierView& t : tiers) {
    if (t.accepted != t.completed + t.queued)
      out.push_back(t.name + ": accepted " + std::to_string(t.accepted) + " != completed " +
                    std::to_string(t.completed) + " + queued " + std::to_string(t.queued));
    if (t.sync && t.queue_peak > static_cast<double>(t.max_sys_q_depth))
      out.push_back(t.name + ": queue peak " + number(t.queue_peak) + " > MaxSysQDepth " +
                    std::to_string(t.max_sys_q_depth));
  }
  return out;
}

std::vector<std::string> check_verdict(const std::string& workload, const Verdict& v) {
  std::vector<std::string> out;
  if (workload == "sync_ctqo") {
    if (v.drops == 0) out.push_back("sync_ctqo: no drops");
    if (v.upstream_episodes == 0) out.push_back("sync_ctqo: no upstream CTQO episode");
  } else if (workload == "async_logflush") {
    if (v.drops != 0) out.push_back("async_logflush: " + std::to_string(v.drops) + " drops");
  } else if (workload == "graph_hedge") {
    if (v.hedges == 0) out.push_back("graph_hedge: no hedges sent");
    if (v.hedge_wins > v.hedges) out.push_back("graph_hedge: hedge_wins > hedges");
  } else if (workload == "sweep_surface") {
    if (v.nx3_ctqo_points != 0)
      out.push_back("sweep_surface: " + std::to_string(v.nx3_ctqo_points) +
                    " NX=3 points past CTQO onset");
  }
  return out;
}

}  // namespace perfbench
