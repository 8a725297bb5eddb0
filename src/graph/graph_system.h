// GraphSystem: a built service-graph experiment.
//
// Adds to the shared run runtime (core/testbed.h) one host/VM per
// replica, the servers, the replica-group balancers and the freeze
// injectors for one run of a GraphConfig. Construction wires
// everything; run() drives.
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

#include <memory>
#include <vector>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/manifest.h"
#include "core/testbed.h"
#include "cpu/dvfs.h"
#include "cpu/host_core.h"
#include "cpu/io_device.h"
#include "graph/scheduler.h"
#include "graph/topology.h"

namespace ntier::graph {

// A built graph: construction validates nothing (call validate() or use
// run_graph); non-copyable (components hold pointers into the
// Simulation). Flat tier i of the Testbed is flat replica i.
class GraphSystem : public core::Testbed {
 public:
  // Builds the whole graph (hosts, replicas, balancers, routes, clients,
  // monitors) from cfg; call validate(cfg) first or use run_graph.
  explicit GraphSystem(GraphConfig cfg);

  // The config the system was built from, and topology shape.
  const GraphConfig& config() const { return cfg_; }
  std::size_t node_count() const { return cfg_.nodes.size(); }
  std::size_t replica_count(std::size_t node) const { return cfg_.nodes.at(node).replicas; }
  // Flat index of (node, replica): node-major, replica-minor.
  std::size_t flat_index(std::size_t node, std::size_t replica) const {
    return flat_base_.at(node) + replica;
  }
  server::Server* server(std::size_t node, std::size_t replica = 0) {
    return server_flat(flat_index(node, replica));
  }
  // The node's shared balancer; null on the chain wiring path
  // (chains have no balancers).
  ReplicaGroup* group(std::size_t node) {
    return groups_.empty() ? nullptr : groups_.at(node).get();
  }
  // First freeze injector (they all share one schedule); null when
  // cfg.freeze_node is -1.
  cpu::FreezeInjector* injector() {
    return injectors_.empty() ? nullptr : injectors_.front().get();
  }

 private:
  GraphConfig cfg_;
  std::vector<std::size_t> flat_base_;  // node -> first flat index
  std::vector<std::unique_ptr<cpu::HostCpu>> hosts_;
  std::vector<std::unique_ptr<cpu::IoDevice>> disks_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::vector<std::unique_ptr<ReplicaGroup>> groups_;  // per node; empty for chains
  std::vector<std::unique_ptr<cpu::FreezeInjector>> injectors_;
};

// The report entry points take any core::Testbed; these names stay in
// graph:: because perfbench/src/workloads.cc calls them qualified.
using core::analyze_ctqo;
using core::correlate;
using core::run_manifest_json;

// Builds and runs cfg.duration after validating; the system stays alive
// for inspection (mirrors core::run_system for the 3-tier testbed).
std::unique_ptr<GraphSystem> run_graph(const GraphConfig& cfg);

}  // namespace ntier::graph
