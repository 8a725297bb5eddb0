// Declarative service-graph topologies: config model + text grammar.
//
// Describes any service DAG, the paper's tier chain included: nodes
// carry a server model (sync / async / staged), a work
// program, pool sizing, an optional disk, a replica count with a
// load-balancer policy, and a queue discipline; edges carry fan-out
// semantics — a node with several out-edges contacts ALL of them in
// parallel inside one kDownstream step and resumes at the fan-in
// barrier once the last branch settles.
//
// Two ways to build a GraphConfig: programmatically (fill the structs),
// or from the small text grammar accepted by parse_topology() and
// documented in docs/TOPOLOGY.md:
//
//   graph diamond
//   seed 42
//   duration 30s
//   sessions 120
//   think 200ms
//   proto linux_modern
//   node front kind=sync threads=60 backlog=64 work=cpu:500us,down,cpu:200us
//   node auth  kind=async work=cpu:800us
//   node data  kind=sync replicas=3 lb=p2c work=cpu:1ms,disk:2ms
//   edge front auth
//   edge front data proto=erpc
//
// `proto <name>` applies a named protocol profile (net/protocol.h,
// docs/PROTOCOLS.md) graph-wide; `edge a b proto=<name>` overrides the
// timers of one route and the receiving node's admission mode.
//
// Chain wiring: a chain-shaped config (every node one replica, edges
// exactly i -> i+1) is wired with connect_downstream front to back and
// draws no balancer RNG forks; the ChainEquivalence tests pin its
// artifacts byte for byte (docs/TOPOLOGY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "cpu/dvfs.h"
#include "fault/fault_injector.h"
#include "graph/scheduler.h"
#include "net/rto_policy.h"
#include "net/tcp_queue.h"
#include "policy/overload/overload.h"
#include "policy/tail_policy.h"
#include "server/app_profile.h"
#include "server/async_server.h"
#include "server/request.h"
#include "server/staged_server.h"
#include "server/sync_server.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace ntier::graph {

// One node of the service graph: server model, sizing, work program,
// replication, and scheduling knobs.
struct NodeSpec {
  std::string name;
  enum class Kind { kSync, kAsync, kStaged } kind = Kind::kSync;
  // Per-kind server configuration (only the active kind's is read).
  server::SyncConfig sync{};
  server::AsyncConfig async_cfg{};
  server::StagedConfig staged_cfg{};
  int vcpus = 1;
  // Replication: `replicas` copies behind one shared balancer applying
  // `lb` per delivery attempt. The entry node cannot be replicated.
  std::size_t replicas = 1;
  LbPolicy lb = LbPolicy::kPowerOfTwo;
  // Ingress queue discipline (EDF is sync-only; see scheduler.h).
  Sched sched = Sched::kFcfs;
  // The per-request work program. Every request class runs the same
  // steps; a kDownstream step fans out to ALL out-edges in parallel.
  std::vector<server::WorkStep> work;
  bool has_disk = false;  // attach an IoDevice for kDisk steps
  // Per-node overload control (applies to every replica).
  policy::overload::OverloadPolicy overload{};
};

// One directed edge: requests flow from `from`'s kDownstream step to
// `to` (indices into GraphConfig::nodes).
struct EdgeSpec {
  int from = 0;
  int to = 0;
  // Optional per-edge protocol profile (net/protocol.h) written as
  // `edge a b proto=erpc` in the grammar: overrides the retransmission
  // timers on this route and the *receiving* node's admission mode.
  // Empty = the graph-wide protocol. Every edge into one node must
  // agree on the receiver's admission mode (validated), and any
  // per-edge override takes the graph off the chain fast path.
  std::string proto;
};

// A whole graph experiment: topology plus the workload / fault / policy
// knobs shared with ExperimentConfig. Pure value; same config + seed =>
// same artifacts.
struct GraphConfig {
  // Run name, the node list (entry node FIRST — it faces the clients),
  // the edge list, and the request-class profile.
  std::string name = "graph";
  std::vector<NodeSpec> nodes;
  std::vector<EdgeSpec> edges;
  server::AppProfile profile = server::AppProfile::rubbos();
  // Load, inter-node networking, monitoring cadence, run length, seed.
  core::WorkloadConfig workload{};
  net::RtoPolicy tier_rto = net::RtoPolicy::fixed3s();
  sim::Duration link_latency = sim::Duration::micros(200);
  // Graph-wide protocol profile name ("" = the defaults below; set by
  // the grammar's `proto <name>` directive, which also rewrites
  // tier_rto, the client RTO, the admission fields, and — for
  // udp_apptimeout — the client/tier policy governors). Recorded so
  // tooling can tell which profile produced a run.
  std::string protocol;
  // Accept-queue overflow behaviour at sync nodes plus the SYN-cookie
  // slow-path CPU cost (net/tcp_queue.h); per-edge `proto=` overrides
  // the receiving node's mode.
  net::AdmissionMode admission = net::AdmissionMode::kTcpDrop;
  sim::Duration cookie_penalty = sim::Duration::zero();
  sim::Duration sample_window = sim::Duration::millis(50);
  sim::Duration duration = sim::Duration::seconds(30);
  std::uint64_t seed = 42;
  // Millibottleneck: periodic freeze of node `freeze_node` (-1 = none);
  // freeze_replica selects one replica (-1 = every replica freezes).
  int freeze_node = -1;
  int freeze_replica = -1;
  cpu::FreezeInjector::Config freeze{};
  // Tail-tolerance policy on every inter-node hop (see ExperimentConfig).
  policy::TailPolicy tier_policy{};
  // Deterministic fault schedule; tier indices address flattened
  // replicas (node-major, replica-minor), hop 0 is the client link.
  fault::FaultPlan faults{};
  // Distributed tracing (span trees across fan-out joins).
  trace::TraceConfig trace{};
  // Online incident detection + flight recorder (obs/incident_monitor.h);
  // the flight recorder engages only when tracing is enabled.
  obs::ObsConfig obs{};
};

// Node index by name; -1 when absent.
int node_index(const GraphConfig& cfg, const std::string& name);
// Out-edge destinations of `node`, in edge-declaration order.
std::vector<int> out_edges(const GraphConfig& cfg, int node);

// True when the graph is an unreplicated chain (edges exactly
// i -> i+1): such configs take the connect_downstream chain wiring.
bool is_chain(const GraphConfig& cfg);

// Why `cfg` is invalid, or "" when it is well-formed. Checks node/pool
// sanity, name uniqueness, edge validity, acyclicity (Kahn), entry and
// reachability constraints, work-program/edge agreement (a node has a
// kDownstream step iff it has out-edges), EDF-on-sync-only, the workload
// (core::invalid_reason, the same rules the 3-tier validate applies),
// and the policy/trace/fault/freeze knobs.
std::string invalid_reason(const GraphConfig& cfg);
// Throws std::invalid_argument with invalid_reason() when non-empty.
void validate(const GraphConfig& cfg);

// Parses the TOPOLOGY.md text grammar into a GraphConfig (syntax errors
// throw std::invalid_argument naming the offending line). The result is
// NOT auto-validated: callers compose further knobs programmatically,
// then validate()/run_graph() checks the finished config.
GraphConfig parse_topology(const std::string& text);

}  // namespace ntier::graph
