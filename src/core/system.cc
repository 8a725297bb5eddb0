#include "core/system.h"

#include "server/tiers.h"

namespace ntier::core {

namespace st = server::tiers;

NTierSystem::NTierSystem(ExperimentConfig cfg)
    : Testbed(RunInfo{.kind = "ntier",
                      .name = cfg.name,
                      .arch = to_string(cfg.system.arch),
                      .seed = cfg.seed,
                      .duration = cfg.duration,
                      .sample_window = cfg.sample_window,
                      .sessions = cfg.workload.sessions}),
      cfg_(std::move(cfg)) {
  build_hosts();
  build_servers();
  build_clients(cfg_.workload, cfg_.trace, cfg_.profile);
  build_bottleneck();
  build_monitoring();
  // The co-located tenant is no tier; the sampler ticks it after the
  // tier VMs.
  if (bursty_vm_ != nullptr) sampler().track_vm("sysbursty", bursty_vm_);
  build_faults_and_obs(cfg_.faults, cfg_.obs);
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
    servers_[0] = st::make_nginx(sim_, vms_[0], prof);
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
    servers_[1] = st::make_xtomcat(sim_, vms_[1], prof);
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
    servers_[2] = st::make_xmysql(sim_, vms_[2], prof);
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

  for (int i = 0; i < 3; ++i)
    add_tier(servers_[i].get(), hosts_[i].get(), vms_[i],
             i == index(Tier::kDb) ? db_disk_.get() : nullptr);
}

void NTierSystem::build_bottleneck() {
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

}  // namespace ntier::core
