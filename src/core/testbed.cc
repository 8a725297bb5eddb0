#include "core/testbed.h"

#include <utility>

#include "core/correlate.h"
#include "telemetry/publish.h"

namespace ntier::core {

std::string invalid_run_name(const std::string& name) {
  if (name.find('/') != std::string::npos)
    return "the run name contains '/' (it names the run's output files)";
  return "";
}

Testbed::Testbed(RunInfo info)
    : rng_(info.seed),
      info_(std::move(info)),
      registry_(info_.sample_window),
      sampler_(sim_, registry_, info_.sample_window) {}

void Testbed::add_tier(server::Server* srv, cpu::HostCpu* host, cpu::VmCpu* vm,
                       cpu::IoDevice* disk) {
  tiers_.push_back({srv, host, vm, disk});
}

void Testbed::build_clients(const WorkloadConfig& w, const trace::TraceConfig& trace,
                            const server::AppProfile& profile) {
  if (trace.mode != trace::TraceMode::kOff) tracer_ = std::make_unique<trace::Tracer>(trace);
  if (w.burst_index > 1.0) {
    workload::BurstClock::Config bc;
    bc.burst_index = w.burst_index;
    bc.burst_dwell = w.burst_dwell;
    bc.normal_dwell = w.normal_dwell;
    burst_ = std::make_unique<workload::BurstClock>(sim_, rng_, bc);
  }
  workload::ClientConfig cc;
  cc.sessions = w.sessions;
  cc.mean_think = w.mean_think;
  cc.rto = w.client_rto;
  cc.link = net::Link{w.client_link};
  cc.measure_from = w.measure_from;
  cc.timeout = w.client_timeout;
  cc.policy = w.client_policy;
  cc.tracer = tracer_.get();
  if (w.markov_sessions) {
    session_model_ = std::make_unique<workload::SessionModel>(
        workload::SessionModel::rubbos_browse());
    cc.session_model = session_model_.get();
  }
  clients_ = std::make_unique<workload::ClientPool>(sim_, rng_.fork(1), &profile,
                                                    tiers_.front().server, cc, burst_.get());
  // The run-wide latency sketch is resolved once, here: a completion
  // records into it without a name lookup. A run that completes nothing
  // leaves it empty, and the dashboard skips an empty sketch.
  telemetry::GkQuantile* latency_ms = &registry_.quantile("client.latency_ms");
  clients_->on_complete([this, latency_ms](const server::RequestPtr& r) {
    latency_.record(r);
    latency_ms->record(r->latency().to_millis());
  });
}

void Testbed::build_monitoring() {
  for (const FlatTier& t : tiers_) {
    sampler_.track_vm(t.vm->name(), t.vm);
    sampler_.track_server(t.server->name(), t.server);
    if (t.disk != nullptr) sampler_.track_io(t.disk->name(), t.disk);
  }

  // Pull-probes: every layer publishes into the shared registry, sampled
  // at the Sampler tick (no events, no randomness — invariant 10).
  telemetry::publish_simulation(registry_, sim_);
  for (const FlatTier& t : tiers_) telemetry::publish_server(registry_, *t.server);
  telemetry::publish_transport(registry_, "client", clients_->transport());
  for (const FlatTier& t : tiers_) {
    server::Server& srv = *t.server;
    if (auto* tx = srv.downstream_transport())
      telemetry::publish_transport(registry_, srv.name(), *tx);
    for (std::size_t k = 0; k < srv.route_count(); ++k)
      telemetry::publish_transport(registry_, srv.name() + "->" + srv.route_label(k),
                                   *srv.route_transport(k));
  }
  if (const auto* g = clients_->governor()) telemetry::publish_governor(registry_, "client", *g);
  for (const FlatTier& t : tiers_) {
    if (const auto* g = t.server->governor())
      telemetry::publish_governor(registry_, t.server->name(), *g);
  }
  for (const FlatTier& t : tiers_) {
    if (const auto* c = t.server->overload())
      telemetry::publish_overload(registry_, t.server->name(), *c);
  }
  // SYN-cookie slow-path counter, only under that admission mode (the
  // default registry snapshot stays unchanged).
  for (const FlatTier& t : tiers_) {
    if (const auto* q = t.server->accept_queue();
        q != nullptr && q->mode() == net::AdmissionMode::kSynCookies)
      telemetry::publish_accept_queue(registry_, t.server->name(), *q);
  }
}

void Testbed::build_faults_and_obs(const fault::FaultPlan& plan, const obs::ObsConfig& obs) {
  if (!plan.empty()) {
    fault::FaultTargets targets;
    for (const FlatTier& t : tiers_) targets.tiers.push_back(t.server);
    for (const FlatTier& t : tiers_) targets.hosts.push_back(t.host);
    targets.hops.push_back(&clients_->transport());
    for (const FlatTier& t : tiers_) {
      if (auto* tx = t.server->downstream_transport()) targets.hops.push_back(tx);
      for (std::size_t k = 0; k < t.server->route_count(); ++k)
        targets.hops.push_back(t.server->route_transport(k));
    }
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(sim_, rng_.fork(20), plan, std::move(targets));
  }

  if (obs.enabled) {
    obs_ = std::make_unique<obs::IncidentMonitor>(obs);
    obs::Bindings b;
    b.sampler = &sampler_;
    b.registry = &registry_;
    b.vlrt = &latency_.vlrt_per_window();
    b.tracer = tracer_.get();
    b.run_name = info_.name;
    b.groups = detector_groups(collect_signals(*this));
    obs_->attach(std::move(b));
  }
}

void Testbed::run() { run_until(sim_.now() + info_.duration); }

void Testbed::run_until(sim::Time t) {
  if (!started_) {
    started_ = true;
    sampler_.start();
    clients_->start();
    if (fault_injector_) fault_injector_->arm();
  }
  sim_.run_until(t);
}

std::uint64_t Testbed::total_drops() const {
  std::uint64_t acc = 0;
  for (const FlatTier& t : tiers_) acc += t.server->stats().dropped;
  return acc;
}

}  // namespace ntier::core
