// Reliable delivery over an unreliable admission boundary.
//
// Transport::send models one logical message: after the link latency the
// receiver's admission function is attempted; a refusal is a dropped
// packet, and the transport re-attempts after RtoPolicy::rto(k) like the
// sender's TCP stack would. The accumulated retransmission delay is the
// entire VLRT mechanism of the paper — requests are never lost inside
// servers, only delayed by whole RTOs at admission.
#pragma once

#include "net/link.h"
#include "net/message.h"
#include "net/rto_policy.h"
#include "sim/simulation.h"

namespace ntier::net {

// Returns true when the receiver admits the message now.
using AttemptFn = TxAttemptFn;
// Invoked once per logical send, after final success or abandonment.
using ResultFn = TxResultFn;
// Trace observer at each refused/lost attempt that will be retried
// (see net/message.h for the contract).
using RetransmitFn = TxRetransmitObserver;

// One sender's reliable-delivery endpoint: a link plus the RTO loop.
class Transport {
 public:
  // Binds the transport to its simulation clock, timer schedule, and
  // link; all three persist for the transport's lifetime.
  Transport(sim::Simulation& sim, RtoPolicy rto, Link link)
      : sim_(sim), rto_(rto), link_(link) {}

  // Fire-and-track send. `attempt` is called after each link traversal;
  // `on_result` (optional) after delivery or failure; `on_retransmit`
  // (optional) at each drop that leads to a retransmission.
  void send(AttemptFn attempt, ResultFn on_result = {},
            RetransmitFn on_retransmit = {});

  // Lifetime counters, the active timer schedule, and the mutable link
  // (the fault injector degrades/restores it in place).
  const TxStats& stats() const { return stats_; }
  const RtoPolicy& rto_policy() const { return rto_; }
  Link& link() { return link_; }

 private:
  // Schedules the next delivery attempt `delay` from now: the sampled
  // link latency for the first attempt, RTO + link latency for each
  // retransmission.
  void attempt_at(MessagePtr p, sim::Duration delay);

  sim::Simulation& sim_;
  RtoPolicy rto_;
  Link link_;
  TxStats stats_;
};

}  // namespace ntier::net
