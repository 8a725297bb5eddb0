// GraphSystem: a built service-graph experiment.
//
// Owns the simulation, one host/VM per replica, the servers, the
// replica-group balancers, clients, and monitors for one run of a
// GraphConfig. Construction wires everything; run() drives.
//
// Wiring takes one of two paths (docs/TOPOLOGY.md):
//  - chain-shaped configs (is_chain) use connect_downstream front to
//    back with no balancers and no extra RNG forks; the
//    ChainEquivalence tests pin these runs byte for byte;
//  - general DAGs build one shared ReplicaGroup per node and add one
//    fan-out Route per (sender replica, out-edge); a kDownstream step
//    then contacts every out-edge in parallel and the reply resumes at
//    the fan-in barrier. Replica picks re-run per delivery attempt
//    (retransmit / policy retry / hedge), which is what produces the
//    hedging helps-then-hurts crossover on a loaded replica group.
//
// Replica naming: an unreplicated node keeps its config name; replica r
// of a replicated node is "<name>#r" in telemetry and reports. Flat
// indices run node-major, replica-minor, front node first.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/manifest.h"
#include "cpu/dvfs.h"
#include "fault/fault_injector.h"
#include "cpu/host_core.h"
#include "cpu/io_device.h"
#include "graph/scheduler.h"
#include "graph/topology.h"
#include "monitor/sampler.h"
#include "monitor/vlrt_tracker.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "trace/tracer.h"
#include "workload/client.h"

namespace ntier::graph {

// A built graph: construction validates nothing (call validate() or use
// run_graph); non-copyable (components hold pointers into sim_).
class GraphSystem {
 public:
  // Builds the whole graph (hosts, replicas, balancers, routes, clients,
  // monitors) from cfg; call validate(cfg) first or use run_graph.
  explicit GraphSystem(GraphConfig cfg);
  GraphSystem(const GraphSystem&) = delete;
  GraphSystem& operator=(const GraphSystem&) = delete;

  // Runs to cfg.duration (run) or an arbitrary instant (run_until);
  // both start the workload on first call and may be resumed.
  void run();
  void run_until(sim::Time t);

  // The config the system was built from, and topology shape.
  const GraphConfig& config() const { return cfg_; }
  std::size_t node_count() const { return cfg_.nodes.size(); }
  std::size_t replica_count(std::size_t node) const { return cfg_.nodes.at(node).replicas; }
  // Total replicas across all nodes (= flat index space).
  std::size_t flat_count() const { return servers_.size(); }
  // Flat index of (node, replica): node-major, replica-minor.
  std::size_t flat_index(std::size_t node, std::size_t replica) const {
    return flat_base_.at(node) + replica;
  }

  // Per-replica component access, flat-indexed (front node first).
  server::Server* server_flat(std::size_t i) { return servers_.at(i).get(); }
  const server::Server* server_flat(std::size_t i) const { return servers_.at(i).get(); }
  server::Server* server(std::size_t node, std::size_t replica = 0) {
    return server_flat(flat_index(node, replica));
  }
  cpu::VmCpu* vm_flat(std::size_t i) { return vms_.at(i); }
  const cpu::VmCpu* vm_flat(std::size_t i) const { return vms_.at(i); }
  cpu::IoDevice* disk_flat(std::size_t i) { return disks_.at(i).get(); }
  const cpu::IoDevice* disk_flat(std::size_t i) const { return disks_.at(i).get(); }
  // The node's shared balancer; null on the chain wiring path
  // (chains have no balancers).
  ReplicaGroup* group(std::size_t node) {
    return groups_.empty() ? nullptr : groups_.at(node).get();
  }

  // Shared infrastructure: clock, sampler, telemetry, latency
  // collector, client pool, and the optional injectors/collectors.
  sim::Simulation& simulation() { return sim_; }
  const sim::Simulation& simulation() const { return sim_; }
  monitor::Sampler& sampler() { return sampler_; }
  const monitor::Sampler& sampler() const { return sampler_; }
  telemetry::Registry& registry() { return registry_; }
  const telemetry::Registry& registry() const { return registry_; }
  monitor::LatencyCollector& latency() { return latency_; }
  const monitor::LatencyCollector& latency() const { return latency_; }
  workload::ClientPool& clients() { return *clients_; }
  // First freeze injector (they all share one schedule); null when
  // cfg.freeze_node is -1.
  cpu::FreezeInjector* injector() {
    return injectors_.empty() ? nullptr : injectors_.front().get();
  }
  fault::FaultInjector* faults() { return fault_injector_.get(); }
  // Distributed-tracing collector; null when cfg.trace.mode is kOff.
  trace::Tracer* tracer() { return tracer_.get(); }
  const trace::Tracer* tracer() const { return tracer_.get(); }
  // Online incident detection; null when cfg.obs is disabled.
  obs::IncidentMonitor* obs() { return obs_.get(); }
  const obs::IncidentMonitor* obs() const { return obs_.get(); }

  // Dropped packets summed over every replica listen queue.
  std::uint64_t total_drops() const;

 private:
  GraphConfig cfg_;
  sim::Simulation sim_;
  sim::Rng rng_;
  telemetry::Registry registry_;
  std::vector<std::size_t> flat_base_;  // node -> first flat index
  std::vector<std::unique_ptr<cpu::HostCpu>> hosts_;
  std::vector<cpu::VmCpu*> vms_;
  std::vector<std::unique_ptr<cpu::IoDevice>> disks_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<std::unique_ptr<ReplicaGroup>> groups_;  // per node; empty for chains
  std::unique_ptr<workload::BurstClock> burst_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<workload::ClientPool> clients_;
  std::vector<std::unique_ptr<cpu::FreezeInjector>> injectors_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  monitor::Sampler sampler_;
  monitor::LatencyCollector latency_;
  // Declared after every collector it reads so its (auto-finalizing)
  // destructor runs first.
  std::unique_ptr<obs::IncidentMonitor> obs_;
  bool started_ = false;
};

// CTQO analysis over a graph (same episode semantics as the chain
// analyzer; tier indices are flat replica indices, front node first).
core::CtqoReport analyze_ctqo(GraphSystem& sys,
                              core::AnalyzerOptions opt = core::AnalyzerOptions());

// Correlation-engine entry points (core/correlate.h) over a graph run:
// the per-replica saturation/queue/drop series in flat order. Declared
// here rather than in core because the graph layer sits above core.
core::SignalSet collect_signals(const GraphSystem& sys);
core::CorrelationReport correlate(const GraphSystem& sys,
                                  core::CorrelateOptions opt = core::CorrelateOptions());

// The reproducibility sidecar (core/manifest.h) for a graph run, kind
// "graph", tiers = flattened replica names.
std::string run_manifest_json(const GraphSystem& sys,
                              const core::CtqoReport* ctqo = nullptr,
                              const obs::IncidentSummary* incidents = nullptr);
std::string write_manifest(const GraphSystem& sys, const std::string& dir,
                           const core::CtqoReport* ctqo = nullptr,
                           const obs::IncidentSummary* incidents = nullptr);

// Builds and runs cfg.duration after validating; the system stays alive
// for inspection (mirrors core::run_system for the 3-tier testbed).
std::unique_ptr<GraphSystem> run_graph(const GraphConfig& cfg);

}  // namespace ntier::graph
