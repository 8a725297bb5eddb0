#include "graph/graph_system.h"

#include <cassert>
#include <utility>

#include "net/link.h"
#include "net/protocol.h"

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
    : Testbed(core::RunInfo{.kind = "graph",
                            .name = cfg.name,
                            .arch = "",
                            .seed = cfg.seed,
                            .duration = cfg.duration,
                            .sample_window = cfg.sample_window,
                            .sessions = cfg.workload.sessions}),
      cfg_(std::move(cfg)) {
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
      cpu::VmCpu* vm = hosts_.back()->add_vm(name, spec.vcpus);
      cpu::IoDevice* disk = nullptr;
      if (spec.has_disk) {
        disks_.push_back(std::make_unique<cpu::IoDevice>(sim_, name + ".disk"));
        disk = disks_.back().get();
      }
      std::unique_ptr<server::Server> srv;
      switch (spec.kind) {
        case NodeSpec::Kind::kStaged:
          srv = std::make_unique<server::StagedServer>(sim_, name, vm, &cfg_.profile,
                                                       program_from(spec.work),
                                                       spec.staged_cfg);
          break;
        case NodeSpec::Kind::kAsync:
          srv = std::make_unique<server::AsyncServer>(sim_, name, vm, &cfg_.profile,
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
          srv = std::make_unique<server::SyncServer>(sim_, name, vm, &cfg_.profile,
                                                     program_from(spec.work), sc);
          break;
        }
      }
      if (disk != nullptr) srv->attach_io(disk);
      add_tier(srv.get(), hosts_.back().get(), vm, disk);
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

  build_clients(cfg_.workload, cfg_.trace, cfg_.profile);

  if (cfg_.freeze_node >= 0) {
    assert(static_cast<std::size_t>(cfg_.freeze_node) < n);
    const NodeSpec& spec = cfg_.nodes[cfg_.freeze_node];
    for (std::size_t r = 0; r < spec.replicas; ++r) {
      if (cfg_.freeze_replica >= 0 && static_cast<std::size_t>(cfg_.freeze_replica) != r)
        continue;
      injectors_.push_back(std::make_unique<cpu::FreezeInjector>(
          sim_, vm_flat(flat_index(cfg_.freeze_node, r)), cfg_.freeze));
    }
  }

  build_monitoring();
  build_faults_and_obs(cfg_.faults, cfg_.obs);
}

std::unique_ptr<GraphSystem> run_graph(const GraphConfig& cfg) {
  validate(cfg);
  auto sys = std::make_unique<GraphSystem>(cfg);
  sys->run();
  return sys;
}

}  // namespace ntier::graph
