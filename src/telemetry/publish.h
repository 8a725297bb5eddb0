// Per-layer publish points: each helper registers the layer's statistics
// as pull-probes on the unified registry (registry.h). Header-only so the
// registry core stays dependent on sim/ and metrics/ alone; the system
// builders (core/system.cc, graph/graph_system.cc) include this and wire every
// layer at construction time.
//
// All probes are pure reads of state the layers already maintain —
// publishing draws no randomness and schedules no events (DESIGN.md
// invariant 10). Series names are documented in docs/TELEMETRY.md.
#pragma once

#include <string>

#include "net/tcp_queue.h"
#include "net/transport.h"
#include "policy/overload/overload.h"
#include "policy/tail_policy.h"
#include "server/server_base.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"

namespace ntier::telemetry {

// sim: engine throughput and future-event-list pressure.
//   sim.events     — events executed per second (cumulative probe)
//   sim.heap_depth — future-event-list size at each window edge
inline void publish_simulation(Registry& r, sim::Simulation& sim) {
  r.add_probe("sim.events", Registry::ProbeKind::kCumulative,
              [&sim] { return static_cast<double>(sim.events_executed()); });
  r.add_probe("sim.heap_depth", Registry::ProbeKind::kGauge,
              [&sim] { return static_cast<double>(sim.pending_events()); });
}

// server: occupancy and headroom against the paper's queue bounds.
//   <srv>.busy_workers — threads (sync) / active slots (async) in service
//   <srv>.backlog      — TCP accept-queue / lite-queue ingress depth
//   <srv>.headroom     — MaxSysQDepth (or LiteQDepth) minus requests in
//                        system: distance to the drop point
inline void publish_server(Registry& r, server::Server& s) {
  const std::string p = s.name();
  r.add_probe(p + ".busy_workers", Registry::ProbeKind::kGauge,
              [&s] { return static_cast<double>(s.busy_workers()); });
  r.add_probe(p + ".backlog", Registry::ProbeKind::kGauge,
              [&s] { return static_cast<double>(s.backlog_depth()); });
  r.add_probe(p + ".headroom", Registry::ProbeKind::kGauge, [&s] {
    const double cap = static_cast<double>(s.max_sys_q_depth());
    const double in = static_cast<double>(s.queued_requests());
    return cap > in ? cap - in : 0.0;
  });
}

// net: the sender side of one hop (client->web or tier->tier).
//   <sender>.retransmits — RTO retransmission attempts issued per second
inline void publish_transport(Registry& r, const std::string& sender, net::Transport& t) {
  r.add_probe(sender + ".retransmits", Registry::ProbeKind::kCumulative,
              [&t] { return static_cast<double>(t.stats().retransmits); });
}

// net admission: the SYN-cookie slow path of one accept queue.
//   <srv>.cookie_admits — overflow admissions taken via the stateless
//                         cookie path per second (tcp_queue.h)
// Registered only for non-default admission modes, so a kTcpDrop run's
// registry snapshot (and thus its manifest) is unchanged.
inline void publish_accept_queue(Registry& r, const std::string& srv,
                                 const net::TcpQueue& q) {
  r.add_probe(srv + ".cookie_admits", Registry::ProbeKind::kCumulative,
              [&q] { return static_cast<double>(q.cookie_admits()); });
}

// policy: the tail-tolerance governor of one hop.
//   <sender>.retries       — policy-layer re-sends per second
//   <sender>.hedges        — duplicate copies per second
//   <sender>.breaker_state — 0 closed, 1 half-open, 2 open
inline void publish_governor(Registry& r, const std::string& sender,
                             const policy::HopGovernor& g) {
  r.add_probe(sender + ".retries", Registry::ProbeKind::kCumulative,
              [&g] { return static_cast<double>(g.stats().retries); });
  r.add_probe(sender + ".hedges", Registry::ProbeKind::kCumulative,
              [&g] { return static_cast<double>(g.stats().hedges); });
  r.add_probe(sender + ".breaker_state", Registry::ProbeKind::kGauge, [&g] {
    const auto* b = g.breaker();
    if (b == nullptr) return 0.0;
    switch (b->state()) {
      case policy::CircuitBreaker::State::kClosed: return 0.0;
      case policy::CircuitBreaker::State::kHalfOpen: return 1.0;
      case policy::CircuitBreaker::State::kOpen: return 2.0;
    }
    return 0.0;
  });
}

// overload: one tier's admission controller (policy/overload/overload.h).
//   <srv>.ov_admitted      — offers admitted per second
//   <srv>.ov_shed          — sheds per second (admission + dequeue)
//   <srv>.ov_degraded      — brownout degradations per second
//   <srv>.ov_sojourn_p99_ms — p99 queue sojourn of served requests (ms)
// Registered only when a controller exists, so an overload-free run's
// registry snapshot (and thus its manifest) is unchanged.
inline void publish_overload(Registry& r, const std::string& srv,
                             const policy::overload::AdmissionController& c) {
  r.add_probe(srv + ".ov_admitted", Registry::ProbeKind::kCumulative,
              [&c] { return static_cast<double>(c.stats().admitted); });
  r.add_probe(srv + ".ov_shed", Registry::ProbeKind::kCumulative,
              [&c] { return static_cast<double>(c.stats().total_shed()); });
  r.add_probe(srv + ".ov_degraded", Registry::ProbeKind::kCumulative,
              [&c] { return static_cast<double>(c.stats().degraded); });
  r.add_probe(srv + ".ov_sojourn_p99_ms", Registry::ProbeKind::kGauge,
              [&c] { return c.sojourn_quantile(0.99).to_millis(); });
}

}  // namespace ntier::telemetry
