// Named network-protocol profiles: the protocol axis of the study.
//
// The paper's VLRT mechanism is pinned to one protocol stack (RHEL 6.3,
// fixed 3 s SYN retransmit, drop-on-overflow admission). A
// ProtocolProfile bundles everything that distinguishes one stack from
// another — the retransmission-timer schedule (RtoPolicy), the
// accept-queue overflow behaviour (AdmissionMode), the transport kind,
// and the app-level recovery knobs for datagram transports — so a whole
// experiment can switch stacks by name: core::apply_protocol() threads a
// profile through an ExperimentConfig, the graph grammar's `proto`
// directive (docs/TOPOLOGY.md) does it per graph or per edge, and
// bench/ext_protocol_matrix sweeps the matrix. docs/PROTOCOLS.md is the
// narrative companion: per-profile timer schedules, which real
// deployment each profile models, and the visible/hidden/absent CTQO
// taxonomy formalized by classify_ctqo() below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/rto_policy.h"
#include "net/tcp_queue.h"
#include "sim/time.h"

namespace ntier::net {

// How messages travel between tiers.
//
//   kTcp           — kernel TCP: the sender's stack retransmits refused
//                    or lost packets per RtoPolicy (the paper's model).
//   kUdpAppTimeout — fire-and-forget datagrams: the stack never
//                    retransmits (RtoPolicy::max_retries = 0, so a
//                    refused or lost attempt fails immediately);
//                    recovery belongs to the application — the PR 1
//                    policy governors retry with app_timeout /
//                    app_attempts / app_retry_budget.
//   kErpc          — kernel-bypass RPC (eRPC-style): no kernel queues to
//                    overflow (pair with AdmissionMode::kBypass); the
//                    client library retransmits at ~RTT timescales.
enum class TransportKind { kTcp, kUdpAppTimeout, kErpc };
const char* to_string(TransportKind k);

// One named protocol stack. A pure value: applying the same profile to
// the same config yields bit-identical runs (DESIGN.md invariant 9).
struct ProtocolProfile {
  std::string name = "fixed3s";
  TransportKind transport = TransportKind::kTcp;
  // Accept-queue overflow behaviour at every sync tier (tcp_queue.h).
  AdmissionMode admission = AdmissionMode::kTcpDrop;
  // Retransmission timers for every hop (client->web and tier->tier).
  RtoPolicy rto = RtoPolicy::fixed3s();
  // kSynCookies only: extra per-request CPU demand of the cookie slow
  // path (stateless SYN-ACK encode/decode + options reconstruction) —
  // the "accepted but slow" cost that replaces the drop.
  sim::Duration cookie_penalty = sim::Duration::zero();
  // kUdpAppTimeout only: per-attempt timeout, total attempts (including
  // the first), and the retry-budget ratio handed to the policy
  // governors (policy/tail_policy.h; 0 = unbudgeted).
  sim::Duration app_timeout = sim::Duration::zero();
  int app_attempts = 1;
  double app_retry_budget = 0.0;

  // --- the named matrix (schedules tabulated in rto_policy.h and
  // --- docs/PROTOCOLS.md) ------------------------------------------------
  // Repo seed default: fixed 3 s retransmit, drop on overflow.
  static ProtocolProfile fixed3s();
  // Paper testbed: RHEL 6.3 exponential 3/6/12 s, drop on overflow.
  static ProtocolProfile rhel6();
  // Modern Linux timers (TLP + 200 ms min RTO), still drop on overflow.
  static ProtocolProfile linux_modern();
  // Modern timers + SYN cookies: overflow is admitted via the stateless
  // slow path (cookie_penalty CPU) instead of dropped.
  static ProtocolProfile syn_cookies();
  // Datagram transport with app-level timeout/retry via the governors.
  static ProtocolProfile udp_apptimeout();
  // Kernel-bypass RPC: no kernel queues, client retransmit at RTT scale.
  static ProtocolProfile erpc();

  // Profile by name ("fixed3s", "rhel6", "linux_modern", "syn_cookies",
  // "udp_apptimeout", "erpc"); nullopt for unknown names.
  static std::optional<ProtocolProfile> by_name(std::string_view name);
  // Every profile name, in matrix order (for sweeps and usage strings).
  static std::vector<std::string> names();
};

// CTQO visibility taxonomy for one operating point (docs/PROTOCOLS.md):
//   kVisible — overflow events occurred AND the tail shows multi-second
//              modes (p999 at or beyond the visibility threshold): the
//              paper's phenomenon.
//   kHidden  — overflow events still occur but retransmission is cheap
//              enough that the tail stays below the threshold: CTQO is
//              present yet invisible to modes-in-seconds analysis.
//   kAbsent  — no overflow events at all: the mechanism is gone.
enum class CtqoVisibility { kVisible, kHidden, kAbsent };
const char* to_string(CtqoVisibility v);

// Classifies one operating point. `overflow_events` counts admission
// overflows however the stack surfaced them — kernel drops plus
// SYN-cookie slow-path admits (the server's Stats::dropped +
// TcpQueue::cookie_admits()).
// The default threshold sits below the 3 s RTO mode but above any
// sub-second inflation the modern schedules produce.
CtqoVisibility classify_ctqo(
    std::uint64_t overflow_events, sim::Duration p999,
    sim::Duration visible_threshold = sim::Duration::from_seconds(2.5));

}  // namespace ntier::net
