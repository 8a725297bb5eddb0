// Testbed: the run runtime every system builder shares.
//
// Owns the Simulation, the root RNG, the telemetry registry, the 50 ms
// sampler, the latency collector, the tracer, the client population, the
// fault injector and the incident monitor, plus the flat front-to-back
// list of built tiers (server, steady VM, optional disk). The paper's
// 3-tier core::NTierSystem and the service-graph graph::GraphSystem
// derive from it and add only their topology, so every report entry
// point (analyze_ctqo, correlate, run_manifest_json,
// report::render_dashboard) has one body that reads a Testbed.
//
// A builder's constructor creates its hosts and servers, registers each
// tier with add_tier(), then calls build_clients(), builds its own
// agents, and finishes with build_monitoring() and
// build_faults_and_obs(). That order fixes the RNG fork schedule
// (1 clients, 20 faults; the builder draws its own forks in between) and
// the initial-event sequence, which is what keeps every seeded artifact
// byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "cpu/host_core.h"
#include "cpu/io_device.h"
#include "fault/fault_injector.h"
#include "monitor/sampler.h"
#include "monitor/vlrt_tracker.h"
#include "obs/incident_monitor.h"
#include "server/server_base.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "trace/tracer.h"
#include "workload/client.h"

namespace ntier::core {

// What the run manifest and the dashboard print as the run's identity.
struct RunInfo {
  std::string kind;  // "ntier" or "graph"
  std::string name;
  std::string arch;  // manifest "arch" field, written only when non-empty
  std::uint64_t seed = 0;
  sim::Duration duration = sim::Duration::zero();
  sim::Duration sample_window = sim::Duration::zero();
  std::uint64_t sessions = 0;
};

// Why `name` cannot name a run, or "" when it can. The manifest,
// dashboard, incident report and CSV exports of a run are files named
// after it, so a '/' in the name would point them into a directory
// that does not exist. core::validate and graph::validate apply it.
std::string invalid_run_name(const std::string& name);

// The shared half of a built system; construct a builder, not this.
// Distinct instances share nothing (sweep replications run in parallel).
class Testbed {
 public:
  // Non-copyable: every component holds pointers into this Simulation.
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Runs info().duration past now (run) or to an instant (run_until).
  // The first call starts the sampler, the clients and the fault plan.
  void run();
  void run_until(sim::Time t);

  // The run's identity.
  const RunInfo& info() const { return info_; }

  // Built tiers, flat front to back (graphs: node-major, replica-minor).
  std::size_t flat_count() const { return tiers_.size(); }
  server::Server* server_flat(std::size_t i) { return tiers_.at(i).server; }
  const server::Server* server_flat(std::size_t i) const { return tiers_.at(i).server; }
  cpu::VmCpu* vm_flat(std::size_t i) { return tiers_.at(i).vm; }
  const cpu::VmCpu* vm_flat(std::size_t i) const { return tiers_.at(i).vm; }
  // The tier's disk; null when it has none.
  cpu::IoDevice* disk_flat(std::size_t i) { return tiers_.at(i).disk; }
  const cpu::IoDevice* disk_flat(std::size_t i) const { return tiers_.at(i).disk; }
  // Dropped packets summed over every tier's listen queue.
  std::uint64_t total_drops() const;

  // Clock, sampler, unified metric plane (telemetry/registry.h, schema
  // in docs/TELEMETRY.md), latency collector and client pool.
  sim::Simulation& simulation() { return sim_; }
  const sim::Simulation& simulation() const { return sim_; }
  monitor::Sampler& sampler() { return sampler_; }
  const monitor::Sampler& sampler() const { return sampler_; }
  telemetry::Registry& registry() { return registry_; }
  const telemetry::Registry& registry() const { return registry_; }
  monitor::LatencyCollector& latency() { return latency_; }
  const monitor::LatencyCollector& latency() const { return latency_; }
  workload::ClientPool& clients() { return *clients_; }
  const workload::ClientPool& clients() const { return *clients_; }
  // Bound fault schedule; null when the fault plan is empty.
  fault::FaultInjector* faults() { return fault_injector_.get(); }
  // Distributed-tracing collector; null when tracing is off.
  trace::Tracer* tracer() { return tracer_.get(); }
  const trace::Tracer* tracer() const { return tracer_.get(); }
  // Online incident detection + flight recorder; null when obs is
  // disabled (obs/incident_monitor.h).
  obs::IncidentMonitor* obs() { return obs_.get(); }
  const obs::IncidentMonitor* obs() const { return obs_.get(); }

 protected:
  // Seeds the root RNG and sizes the registry and sampler from `info`.
  explicit Testbed(RunInfo info);
  ~Testbed() = default;

  // Appends the next tier, front to back. `host` carries the tier's VM
  // and is the fault plan's slow-node target; `disk` may be null.
  void add_tier(server::Server* srv, cpu::HostCpu* host, cpu::VmCpu* vm,
                cpu::IoDevice* disk);

  // The tracer, the client burst clock, the RUBBoS session model when
  // w.markov_sessions is set, and the client pool (RNG fork 1) aimed at
  // the front tier. Call after every add_tier().
  void build_clients(const WorkloadConfig& w, const trace::TraceConfig& trace,
                     const server::AppProfile& profile);
  // Sampler tracks for every tier plus every layer's publish_* probe.
  void build_monitoring();
  // The fault plan bound to the tiers, hosts and hops (RNG fork 20),
  // then the incident monitor; each only when configured.
  void build_faults_and_obs(const fault::FaultPlan& plan, const obs::ObsConfig& obs);

  sim::Simulation sim_;
  sim::Rng rng_;

 private:
  struct FlatTier {
    server::Server* server;
    cpu::HostCpu* host;
    cpu::VmCpu* vm;
    cpu::IoDevice* disk;
  };

  RunInfo info_;
  telemetry::Registry registry_;
  std::vector<FlatTier> tiers_;
  std::unique_ptr<workload::BurstClock> burst_;
  std::unique_ptr<workload::SessionModel> session_model_;
  std::unique_ptr<workload::ClientPool> clients_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<trace::Tracer> tracer_;
  monitor::Sampler sampler_;
  monitor::LatencyCollector latency_;
  // Declared after every collector it reads so its (auto-finalizing)
  // destructor runs first.
  std::unique_ptr<obs::IncidentMonitor> obs_;
  bool started_ = false;
};

}  // namespace ntier::core
