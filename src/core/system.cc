#include "core/system.h"

#include <cassert>

#include "core/correlate.h"
#include "server/tiers.h"
#include "telemetry/publish.h"

namespace ntier::core {

namespace st = server::tiers;

NTierSystem::NTierSystem(ExperimentConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      registry_(cfg_.sample_window),
      sampler_(sim_, registry_, cfg_.sample_window),
      latency_() {
  build_hosts();
  build_servers();
  build_workload();
  build_monitoring();
  build_faults();
  build_obs();
}

void NTierSystem::build_hosts() {
  hosts_[index(Tier::kWeb)] = std::make_unique<cpu::HostCpu>(sim_, 1.0);
  hosts_[index(Tier::kApp)] =
      std::make_unique<cpu::HostCpu>(sim_, static_cast<double>(cfg_.system.app_vcpus));
  hosts_[index(Tier::kDb)] = std::make_unique<cpu::HostCpu>(sim_, 1.0);

  const bool web_async = cfg_.system.arch != Architecture::kSync;
  const bool app_async = cfg_.system.arch == Architecture::kNx2 ||
                         cfg_.system.arch == Architecture::kNx3;
  const bool db_async = cfg_.system.arch == Architecture::kNx3;
  vms_[0] = hosts_[0]->add_vm(web_async ? "nginx" : "apache", 1);
  vms_[1] = hosts_[1]->add_vm(app_async ? "xtomcat" : "tomcat", cfg_.system.app_vcpus);
  vms_[2] = hosts_[2]->add_vm(db_async ? "xmysql" : "mysql", 1);

  // The consolidated SysBursty VM shares the target tier's host/core.
  const auto kind = cfg_.bottleneck.kind;
  if (kind == MillibottleneckSpec::Kind::kConsolidationBatch ||
      kind == MillibottleneckSpec::Kind::kConsolidationMmpp) {
    bursty_vm_ = hosts_[index(cfg_.bottleneck.target)]->add_vm(
        "sysbursty", 1, cfg_.bottleneck.interference_weight);
  }

  db_disk_ = std::make_unique<cpu::IoDevice>(sim_, "dbdisk");
}

void NTierSystem::build_servers() {
  const SystemConfig& s = cfg_.system;
  const auto* prof = &cfg_.profile;

  // Web tier.
  if (s.arch == Architecture::kSync) {
    auto web_cfg = st::apache_config();
    web_cfg.threads_per_process = s.web_threads;
    web_cfg.max_processes = s.web_processes;
    web_cfg.process_spawn_after = s.web_spawn_after;
    web_cfg.backlog = s.backlog;
    web_cfg.overhead = s.sync_overhead;
    web_cfg.shed_on_overload = s.web_shed_on_overload;
    web_cfg.admission = s.admission;
    web_cfg.cookie_penalty = s.cookie_penalty;
    servers_[0] = st::make_apache(sim_, vms_[0], prof, web_cfg);
  } else {
    auto web_cfg = st::nginx_config();
    web_cfg.lite_q_depth = s.lite_q_web;
    servers_[0] = st::make_nginx(sim_, vms_[0], prof, web_cfg);
  }

  // App tier.
  if (s.arch == Architecture::kSync || s.arch == Architecture::kNx1) {
    auto app_cfg = st::tomcat_config(s.app_threads);
    app_cfg.backlog = s.backlog;
    app_cfg.db_pool = s.db_pool;
    app_cfg.overhead = s.sync_overhead;
    app_cfg.admission = s.admission;
    app_cfg.cookie_penalty = s.cookie_penalty;
    servers_[1] = st::make_tomcat(sim_, vms_[1], prof, app_cfg);
  } else {
    auto app_cfg = st::xtomcat_config();
    app_cfg.lite_q_depth = s.lite_q_app;
    servers_[1] = st::make_xtomcat(sim_, vms_[1], prof, app_cfg);
  }

  // DB tier.
  if (s.arch != Architecture::kNx3) {
    auto db_cfg = st::mysql_config();
    db_cfg.threads_per_process = s.db_threads;
    db_cfg.backlog = s.backlog;
    db_cfg.overhead = s.sync_overhead;
    db_cfg.admission = s.admission;
    db_cfg.cookie_penalty = s.cookie_penalty;
    servers_[2] = st::make_mysql(sim_, vms_[2], prof, db_cfg);
  } else {
    auto db_cfg = st::xmysql_config();
    db_cfg.lite_q_depth = s.lite_q_db;
    db_cfg.max_active = s.db_async_threads;
    servers_[2] = st::make_xmysql(sim_, vms_[2], prof, db_cfg);
  }
  servers_[2]->attach_io(db_disk_.get());

  net::Link tier_link{s.link_latency};
  servers_[0]->connect_downstream(servers_[1].get(), s.tier_rto, tier_link);
  servers_[1]->connect_downstream(servers_[2].get(), s.tier_rto, tier_link);

  if (cfg_.tier_policy.any()) {
    // Distinct jitter streams per hop, decorrelated from the workload
    // streams (fork 1 = clients, 2 = interference).
    servers_[0]->enable_tail_policy(cfg_.tier_policy, rng_.fork(10));
    servers_[1]->enable_tail_policy(cfg_.tier_policy, rng_.fork(11));
  }
  // Per-tier overload control (no rng: the controllers are deterministic
  // state machines; enable_overload_control is a no-op for kNone).
  servers_[0]->enable_overload_control(cfg_.overload.web);
  servers_[1]->enable_overload_control(cfg_.overload.app);
  servers_[2]->enable_overload_control(cfg_.overload.db);
}

void NTierSystem::build_workload() {
  const WorkloadConfig& w = cfg_.workload;
  if (cfg_.trace.mode != trace::TraceMode::kOff)
    tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);
  if (w.burst_index > 1.0) {
    workload::BurstClock::Config bc;
    bc.burst_index = w.burst_index;
    bc.burst_dwell = w.burst_dwell;
    bc.normal_dwell = w.normal_dwell;
    client_burst_ = std::make_unique<workload::BurstClock>(sim_, rng_, bc);
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
  clients_ = std::make_unique<workload::ClientPool>(
      sim_, rng_.fork(1), &cfg_.profile, servers_[0].get(), cc, client_burst_.get());
  clients_->on_complete([this](const server::RequestPtr& r) {
    latency_.record(r);
    registry_.quantile("client.latency_ms").record(r->latency().to_millis());
  });

  switch (cfg_.bottleneck.kind) {
    case MillibottleneckSpec::Kind::kNone:
      break;
    case MillibottleneckSpec::Kind::kConsolidationBatch:
      interference_ = std::make_unique<workload::InterferenceLoad>(
          sim_, bursty_vm_, cfg_.bottleneck.batch);
      break;
    case MillibottleneckSpec::Kind::kConsolidationMmpp:
      interference_ = std::make_unique<workload::InterferenceLoad>(
          sim_, bursty_vm_, rng_.fork(2), cfg_.bottleneck.mmpp);
      break;
    case MillibottleneckSpec::Kind::kLogFlush:
      collectl_ = std::make_unique<monitor::Collectl>(sim_, db_disk_.get(),
                                                      cfg_.bottleneck.logflush);
      break;
    case MillibottleneckSpec::Kind::kGcPause:
      gc_ = std::make_unique<cpu::FreezeInjector>(
          sim_, vms_[index(cfg_.bottleneck.target)], cfg_.bottleneck.gc);
      break;
    case MillibottleneckSpec::Kind::kDvfs:
      dvfs_ = std::make_unique<cpu::DvfsGovernor>(
          sim_, *hosts_[index(cfg_.bottleneck.target)], cfg_.bottleneck.dvfs);
      break;
  }
}

void NTierSystem::build_monitoring() {
  for (int i = 0; i < 3; ++i) {
    sampler_.track_vm(vms_[i]->name(), vms_[i]);
    sampler_.track_server(servers_[i]->name(), servers_[i].get());
  }
  if (bursty_vm_ != nullptr) sampler_.track_vm("sysbursty", bursty_vm_);
  sampler_.track_io("dbdisk", db_disk_.get());

  // Pull-probes: every layer publishes into the shared registry, sampled
  // at the Sampler tick (no events, no randomness — invariant 10).
  telemetry::publish_simulation(registry_, sim_);
  for (auto& srv : servers_) telemetry::publish_server(registry_, *srv);
  telemetry::publish_transport(registry_, "client", clients_->transport());
  for (int i = 0; i < 2; ++i) {
    if (auto* t = servers_[i]->downstream_transport())
      telemetry::publish_transport(registry_, servers_[i]->name(), *t);
  }
  if (const auto* g = clients_->governor()) telemetry::publish_governor(registry_, "client", *g);
  for (int i = 0; i < 2; ++i) {
    if (const auto* g = servers_[i]->governor())
      telemetry::publish_governor(registry_, servers_[i]->name(), *g);
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
}

void NTierSystem::build_faults() {
  if (cfg_.faults.empty()) return;
  fault::FaultTargets targets;
  for (auto& srv : servers_) targets.tiers.push_back(srv.get());
  for (auto& host : hosts_) targets.hosts.push_back(host.get());
  targets.hops = {&clients_->transport(), servers_[0]->downstream_transport(),
                  servers_[1]->downstream_transport()};
  fault_injector_ = std::make_unique<fault::FaultInjector>(
      sim_, rng_.fork(20), cfg_.faults, std::move(targets));
}

void NTierSystem::build_obs() {
  if (!cfg_.obs.enabled) return;
  obs_ = std::make_unique<obs::IncidentMonitor>(cfg_.obs);
  obs::Bindings b;
  b.sampler = &sampler_;
  b.registry = &registry_;
  b.vlrt = &latency_.vlrt_per_window();
  b.tracer = tracer_.get();
  b.run_name = cfg_.name;
  b.groups = detector_groups(collect_signals(*this));
  obs_->attach(std::move(b));
}

void NTierSystem::run() { run_until(sim_.now() + cfg_.duration); }

void NTierSystem::run_until(sim::Time t) {
  if (!started_) {
    started_ = true;
    sampler_.start();
    clients_->start();
    if (fault_injector_) fault_injector_->arm();
  }
  sim_.run_until(t);
}

}  // namespace ntier::core
