#include "core/config.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/testbed.h"

namespace ntier::core {

const char* to_string(Architecture a) {
  switch (a) {
    case Architecture::kSync: return "sync (Apache-Tomcat-MySQL)";
    case Architecture::kNx1: return "NX=1 (Nginx-Tomcat-MySQL)";
    case Architecture::kNx2: return "NX=2 (Nginx-XTomcat-MySQL)";
    case Architecture::kNx3: return "NX=3 (Nginx-XTomcat-XMySQL)";
  }
  return "?";
}

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& why) {
  throw std::invalid_argument("config '" + name + "': " + why);
}

}  // namespace

std::string invalid_reason(const WorkloadConfig& w) {
  if (w.sessions == 0) return "workload needs at least one session";
  if (w.mean_think < sim::Duration::zero())
    return "mean_think cannot be negative (zero = saturation test)";
  if (!(w.burst_index >= 1.0 && std::isfinite(w.burst_index)))
    return "burst_index must be a finite number >= 1.0 (below 1.0 is not a burst model)";
  if (w.client_link < sim::Duration::zero()) return "client_link latency cannot be negative";
  if (w.client_timeout < sim::Duration::zero()) return "client_timeout cannot be negative";
  if (w.client_timeout > sim::Duration::zero() && w.client_timeout < w.client_rto.rto(0))
    return "client_timeout shorter than one retransmission timeout: every dropped first "
           "packet would time out before TCP could retry";
  const std::string why = policy::invalid_reason(w.client_policy);
  if (!why.empty()) return "client_policy: " + why;
  return {};
}

void apply_app_recovery(policy::TailPolicy& t, const net::ProtocolProfile& p) {
  if (p.transport != net::TransportKind::kUdpAppTimeout) return;
  t.attempt_timeout = p.app_timeout;
  t.retry.max_attempts = p.app_attempts;
  t.retry.budget_ratio = p.app_retry_budget;
}

void apply_protocol(ExperimentConfig& cfg, const net::ProtocolProfile& p) {
  cfg.system.tier_rto = p.rto;
  cfg.system.admission = p.admission;
  cfg.system.cookie_penalty = p.cookie_penalty;
  cfg.workload.client_rto = p.rto;
  // Datagram recovery lives in the application: arm the PR 1 governors
  // on the client hop and every inter-tier hop with the profile's
  // timeout / attempt / budget knobs.
  apply_app_recovery(cfg.workload.client_policy, p);
  apply_app_recovery(cfg.tier_policy, p);
}

void validate(const ExperimentConfig& cfg) {
  const SystemConfig& s = cfg.system;

  const std::string name_why = invalid_run_name(cfg.name);
  if (!name_why.empty()) reject(cfg.name, name_why);
  if (cfg.duration <= sim::Duration::zero())
    reject(cfg.name, "duration must be positive");
  if (cfg.sample_window <= sim::Duration::zero())
    reject(cfg.name, "sample_window must be positive");

  if (s.web_threads == 0 || s.app_threads == 0 || s.db_threads == 0)
    reject(cfg.name, "thread pools must be non-empty (a zero-thread tier can never serve)");
  if (s.web_processes == 0) reject(cfg.name, "web_processes must be at least 1");
  if (s.backlog == 0)
    reject(cfg.name, "TCP backlog must be positive (MaxSysQDepth = threads + backlog)");
  if (s.app_vcpus <= 0) reject(cfg.name, "app_vcpus must be positive");
  if (s.link_latency < sim::Duration::zero())
    reject(cfg.name, "link_latency cannot be negative");
  if (s.web_spawn_after <= sim::Duration::zero())
    reject(cfg.name, "web_spawn_after must be positive");

  const std::string workload_why = invalid_reason(cfg.workload);
  if (!workload_why.empty()) reject(cfg.name, workload_why);

  if (cfg.bottleneck.interference_weight <= 0.0)
    reject(cfg.name, "interference_weight must be positive");

  const std::string tier_why = policy::invalid_reason(cfg.tier_policy);
  if (!tier_why.empty()) reject(cfg.name, "tier_policy: " + tier_why);

  const struct { const char* where; const policy::overload::OverloadPolicy& p; }
      overloads[] = {{"overload.web", cfg.overload.web},
                     {"overload.app", cfg.overload.app},
                     {"overload.db", cfg.overload.db}};
  for (const auto& [where, p] : overloads) {
    const std::string why = policy::overload::invalid_reason(p);
    if (!why.empty()) reject(cfg.name, std::string(where) + ": " + why);
  }

  const std::string trace_why = trace::invalid_reason(cfg.trace);
  if (!trace_why.empty()) reject(cfg.name, trace_why);

  const std::string fault_why = fault::invalid_reason(cfg.faults);
  if (!fault_why.empty()) reject(cfg.name, fault_why);
  for (const auto& c : cfg.faults.crashes)
    if (c.tier > 2) reject(cfg.name, "fault: crash tier index beyond the 3-tier system");
  for (const auto& l : cfg.faults.links)
    if (l.hop > 2)
      reject(cfg.name,
             "fault: link hop index beyond the 3-tier system "
             "(0=client->web, 1=web->app, 2=app->db)");
  for (const auto& sn : cfg.faults.slow_nodes)
    if (sn.tier > 2) reject(cfg.name, "fault: slow-node tier index beyond the 3-tier system");
}

}  // namespace ntier::core
