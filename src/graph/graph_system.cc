#include "graph/graph_system.h"

#include <cassert>
#include <utility>

#include "net/link.h"
#include "net/protocol.h"
#include "telemetry/publish.h"

namespace ntier::graph {

namespace {

// Every request class runs the node's declared steps verbatim.
std::function<server::Program(const server::RequestClassProfile&)> program_from(
    const std::vector<server::WorkStep>& steps) {
  return [steps](const server::RequestClassProfile&) {
    return server::Program(steps.begin(), steps.end());
  };
}

std::string replica_name(const NodeSpec& spec, std::size_t r) {
  if (spec.replicas == 1) return spec.name;
  return spec.name + "#" + std::to_string(r);
}

}  // namespace

GraphSystem::GraphSystem(GraphConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      registry_(cfg_.sample_window),
      sampler_(sim_, registry_, cfg_.sample_window) {
  assert(!cfg_.nodes.empty());
  const std::size_t n = cfg_.nodes.size();
  const bool chain = is_chain(cfg_);

  // Effective admission mode per node: the node's own SyncConfig unless
  // a graph-wide protocol (cfg_.admission) or an incoming edge's
  // `proto=` override says otherwise (validated consistent).
  std::vector<net::AdmissionMode> node_adm(n, cfg_.admission);
  std::vector<sim::Duration> node_cookie(n, cfg_.cookie_penalty);
  for (const EdgeSpec& e : cfg_.edges) {
    if (e.proto.empty()) continue;
    if (const auto p = net::ProtocolProfile::by_name(e.proto)) {
      node_adm[static_cast<std::size_t>(e.to)] = p->admission;
      node_cookie[static_cast<std::size_t>(e.to)] = p->cookie_penalty;
    }
  }

  // Components, node-major replica-minor (front to back for a chain).
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSpec& spec = cfg_.nodes[i];
    flat_base_.push_back(servers_.size());
    for (std::size_t r = 0; r < spec.replicas; ++r) {
      const std::string name = replica_name(spec, r);
      hosts_.push_back(
          std::make_unique<cpu::HostCpu>(sim_, static_cast<double>(spec.vcpus)));
      vms_.push_back(hosts_.back()->add_vm(name, spec.vcpus));
      if (spec.has_disk) {
        disks_.push_back(std::make_unique<cpu::IoDevice>(sim_, name + ".disk"));
      } else {
        disks_.push_back(nullptr);
      }
      std::unique_ptr<server::Server> srv;
      switch (spec.kind) {
        case NodeSpec::Kind::kStaged:
          srv = std::make_unique<server::StagedServer>(sim_, name, vms_.back(),
                                                       &cfg_.profile,
                                                       program_from(spec.work),
                                                       spec.staged_cfg);
          break;
        case NodeSpec::Kind::kAsync:
          srv = std::make_unique<server::AsyncServer>(sim_, name, vms_.back(),
                                                      &cfg_.profile,
                                                      program_from(spec.work),
                                                      spec.async_cfg);
          break;
        case NodeSpec::Kind::kSync: {
          server::SyncConfig sc = spec.sync;
          sc.edf = (spec.sched == Sched::kEdf);
          if (node_adm[i] != net::AdmissionMode::kTcpDrop) {
            sc.admission = node_adm[i];
            sc.cookie_penalty = node_cookie[i];
          }
          srv = std::make_unique<server::SyncServer>(sim_, name, vms_.back(),
                                                     &cfg_.profile,
                                                     program_from(spec.work), sc);
          break;
        }
      }
      if (disks_.back()) srv->attach_io(disks_.back().get());
      servers_.push_back(std::move(srv));
    }
  }

  // Wiring. The chain path: no balancers, no extra RNG forks,
  // connect_downstream in front-to-back order (artifacts pinned by the
  // ChainEquivalence tests).
  net::Link link{cfg_.link_latency};
  if (chain) {
    for (std::size_t i = 0; i + 1 < n; ++i)
      servers_[i]->connect_downstream(servers_[i + 1].get(), cfg_.tier_rto, link);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<server::Server*> members;
      for (std::size_t r = 0; r < cfg_.nodes[i].replicas; ++r)
        members.push_back(servers_[flat_index(i, r)].get());
      groups_.push_back(std::make_unique<ReplicaGroup>(
          std::move(members), cfg_.nodes[i].lb, rng_.fork(100 + i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < cfg_.nodes[i].replicas; ++r) {
        server::Server* from = servers_[flat_index(i, r)].get();
        // Edge-declaration order (matches out_edges()); a per-edge
        // `proto=` swaps the retransmission timers of that route.
        for (const EdgeSpec& e : cfg_.edges) {
          if (e.from != static_cast<int>(i)) continue;
          const std::size_t j = static_cast<std::size_t>(e.to);
          ReplicaGroup* g = groups_[j].get();
          net::RtoPolicy rto = cfg_.tier_rto;
          if (!e.proto.empty())
            if (const auto p = net::ProtocolProfile::by_name(e.proto)) rto = p->rto;
          from->add_route([g] { return g->pick(); }, rto, link,
                          cfg_.nodes[j].name);
        }
      }
    }
  }

  if (cfg_.tier_policy.any()) {
    for (std::size_t f = 0; f < servers_.size(); ++f)
      if (servers_[f]->downstream() != nullptr || servers_[f]->route_count() > 0)
        servers_[f]->enable_tail_policy(cfg_.tier_policy, rng_.fork(10 + f));
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < cfg_.nodes[i].replicas; ++r)
      servers_[flat_index(i, r)]->enable_overload_control(cfg_.nodes[i].overload);

  // Workload.
  const core::WorkloadConfig& w = cfg_.workload;
  if (w.burst_index > 1.0) {
    workload::BurstClock::Config bc;
    bc.burst_index = w.burst_index;
    bc.burst_dwell = w.burst_dwell;
    bc.normal_dwell = w.normal_dwell;
    burst_ = std::make_unique<workload::BurstClock>(sim_, rng_, bc);
  }
  if (cfg_.trace.mode != trace::TraceMode::kOff)
    tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);
  workload::ClientConfig cc;
  cc.sessions = w.sessions;
  cc.mean_think = w.mean_think;
  cc.rto = w.client_rto;
  cc.link = net::Link{w.client_link};
  cc.measure_from = w.measure_from;
  cc.timeout = w.client_timeout;
  cc.policy = w.client_policy;
  cc.tracer = tracer_.get();
  clients_ = std::make_unique<workload::ClientPool>(
      sim_, rng_.fork(1), &cfg_.profile, servers_[0].get(), cc, burst_.get());
  clients_->on_complete([this](const server::RequestPtr& r) {
    latency_.record(r);
    registry_.quantile("client.latency_ms").record(r->latency().to_millis());
  });

  if (cfg_.freeze_node >= 0) {
    assert(static_cast<std::size_t>(cfg_.freeze_node) < n);
    const NodeSpec& spec = cfg_.nodes[cfg_.freeze_node];
    for (std::size_t r = 0; r < spec.replicas; ++r) {
      if (cfg_.freeze_replica >= 0 && static_cast<std::size_t>(cfg_.freeze_replica) != r)
        continue;
      injectors_.push_back(std::make_unique<cpu::FreezeInjector>(
          sim_, vms_[flat_index(cfg_.freeze_node, r)], cfg_.freeze));
    }
  }

  for (std::size_t f = 0; f < servers_.size(); ++f) {
    sampler_.track_vm(vms_[f]->name(), vms_[f]);
    sampler_.track_server(servers_[f]->name(), servers_[f].get());
    if (disks_[f]) sampler_.track_io(disks_[f]->name(), disks_[f].get());
  }

  telemetry::publish_simulation(registry_, sim_);
  for (auto& srv : servers_) telemetry::publish_server(registry_, *srv);
  telemetry::publish_transport(registry_, "client", clients_->transport());
  for (auto& srv : servers_) {
    if (auto* t = srv->downstream_transport())
      telemetry::publish_transport(registry_, srv->name(), *t);
    for (std::size_t k = 0; k < srv->route_count(); ++k)
      telemetry::publish_transport(registry_, srv->name() + "->" + srv->route_label(k),
                                   *srv->route_transport(k));
  }
  if (const auto* g = clients_->governor()) telemetry::publish_governor(registry_, "client", *g);
  for (auto& srv : servers_) {
    if (const auto* g = srv->governor())
      telemetry::publish_governor(registry_, srv->name(), *g);
  }
  for (auto& srv : servers_) {
    if (const auto* c = srv->overload())
      telemetry::publish_overload(registry_, srv->name(), *c);
  }
  // SYN-cookie slow-path counter, only under that admission mode (the
  // default registry snapshot stays unchanged).
  for (auto& srv : servers_) {
    if (const auto* q = srv->accept_queue();
        q != nullptr && q->mode() == net::AdmissionMode::kSynCookies)
      telemetry::publish_accept_queue(registry_, srv->name(), *q);
  }

  if (!cfg_.faults.empty()) {
    fault::FaultTargets targets;
    for (auto& srv : servers_) targets.tiers.push_back(srv.get());
    for (auto& host : hosts_) targets.hosts.push_back(host.get());
    targets.hops.push_back(&clients_->transport());
    for (auto& srv : servers_) {
      if (auto* t = srv->downstream_transport()) targets.hops.push_back(t);
      for (std::size_t k = 0; k < srv->route_count(); ++k)
        targets.hops.push_back(srv->route_transport(k));
    }
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        sim_, rng_.fork(20), cfg_.faults, std::move(targets));
  }

  if (cfg_.obs.enabled) {
    obs_ = std::make_unique<obs::IncidentMonitor>(cfg_.obs);
    obs::Bindings b;
    b.sampler = &sampler_;
    b.registry = &registry_;
    b.vlrt = &latency_.vlrt_per_window();
    b.tracer = tracer_.get();
    b.run_name = cfg_.name;
    b.groups = core::detector_groups(collect_signals(*this));
    obs_->attach(std::move(b));
  }
}

void GraphSystem::run() { run_until(sim_.now() + cfg_.duration); }

void GraphSystem::run_until(sim::Time t) {
  if (!started_) {
    started_ = true;
    sampler_.start();
    clients_->start();
    if (fault_injector_) fault_injector_->arm();
  }
  sim_.run_until(t);
}

std::uint64_t GraphSystem::total_drops() const {
  std::uint64_t acc = 0;
  for (const auto& s : servers_) acc += s->stats().dropped;
  return acc;
}

core::CtqoReport analyze_ctqo(GraphSystem& sys, core::AnalyzerOptions opt) {
  std::vector<core::TierView> tiers;
  for (std::size_t f = 0; f < sys.flat_count(); ++f) {
    core::TierView v;
    v.server = sys.server_flat(f);
    v.vm_prefix = sys.vm_flat(f)->name();
    if (sys.disk_flat(f) != nullptr) v.disk_prefix = sys.disk_flat(f)->name();
    tiers.push_back(std::move(v));
  }
  return core::analyze_tiers(tiers, sys.sampler(), opt);
}

core::SignalSet collect_signals(const GraphSystem& sys) {
  core::SignalSet s;
  s.registry = &sys.registry();
  s.vlrt = &sys.latency().vlrt_per_window();
  s.window = sys.sampler().window();
  for (std::size_t f = 0; f < sys.flat_count(); ++f) {
    core::TierSignals ts;
    ts.name = sys.server_flat(f)->name();
    if (sys.disk_flat(f) != nullptr)
      ts.saturation.push_back(sys.disk_flat(f)->name() + ".busy");
    const std::string vm = sys.vm_flat(f)->name();
    ts.saturation.push_back(vm + ".demand");
    ts.saturation.push_back(vm + ".stall");
    ts.dropped = ts.name + ".dropped";
    ts.queue = ts.name + ".queue";
    s.tiers.push_back(std::move(ts));
  }
  return s;
}

core::CorrelationReport correlate(const GraphSystem& sys, core::CorrelateOptions opt) {
  return core::correlate_signals(collect_signals(sys), opt);
}

namespace {

core::ManifestRun manifest_run(const GraphSystem& sys) {
  core::ManifestRun run;
  run.kind = "graph";
  run.name = sys.config().name;
  run.seed = sys.config().seed;
  run.duration = sys.config().duration;
  run.sample_window = sys.config().sample_window;
  run.sessions = sys.config().workload.sessions;
  for (std::size_t f = 0; f < sys.flat_count(); ++f)
    run.tiers.push_back(sys.server_flat(f)->name());
  run.total_drops = sys.total_drops();
  run.events_executed = sys.simulation().events_executed();
  run.latency = &sys.latency();
  run.registry = &sys.registry();
  return run;
}

}  // namespace

std::string run_manifest_json(const GraphSystem& sys, const core::CtqoReport* ctqo,
                              const obs::IncidentSummary* incidents) {
  return core::run_manifest_json(manifest_run(sys), ctqo, incidents);
}

std::string write_manifest(const GraphSystem& sys, const std::string& dir,
                           const core::CtqoReport* ctqo,
                           const obs::IncidentSummary* incidents) {
  return core::write_manifest(manifest_run(sys), dir, ctqo, incidents);
}

std::unique_ptr<GraphSystem> run_graph(const GraphConfig& cfg) {
  validate(cfg);
  auto sys = std::make_unique<GraphSystem>(cfg);
  sys->run();
  return sys;
}

}  // namespace ntier::graph
