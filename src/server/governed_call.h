// The governed-call engine: the tail-policy state machine of one hop,
// shared by the client hop (workload::ClientPool) and every tier hop
// (Server::dispatch_downstream).
//
// A Call is one logical request over one hop. A GovernedHop is the
// sender side of a hop with a TailPolicy: it owns the hop's
// policy::HopGovernor and runs each call — the first attempt, the hedge
// copies, attempt timeouts, the shed/retry contract of docs/OVERLOAD.md
// (a shed error reply is a retryable failure that spends retry budget),
// retries with backoff under the budget, and the final failure. Each
// sender keeps only what differs: the client stamps the deadline, runs
// its browser-timeout and deadline-abandon timers and settles into the
// session loop; a tier refuses a call before the send through a
// zero-delay event and closes its downstream-wait span at the unwind.
//
// An attempt concludes exactly once for the breaker and the latency
// window (reply, transport give-up or attempt timeout). Hedge copies
// never retry or fail the call: the primary chain owns that decision,
// and a surviving copy may still win. A timed-out attempt stays in
// flight downstream (its work is not recalled); if it lands before the
// retry it still wins.
//
// Hot-path memory: calls and attempts are slab-pooled and every closure
// captures a 16-byte ref, so a governed call allocates nothing once the
// pools are warm (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/transport.h"
#include "policy/tail_policy.h"
#include "server/request.h"
#include "sim/inline_fn.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/slab_pool.h"

namespace ntier::server {

class Server;

// One logical request over one hop: where it goes, how it is traced,
// and whom it answers when it settles. Slab-pooled (make_call).
struct Call {
  RequestPtr req;
  // The hop's transport, and the destination of each attempt: `pick`
  // (a fan-out route's replica picker, consulted per attempt) when set,
  // else `to`.
  net::Transport* tx = nullptr;
  Server* to = nullptr;
  const std::function<Server*()>* pick = nullptr;
  // Tracing, for traced requests only: attempts, RTO gaps and policy
  // events nest under `span`; policy events are recorded at `site` and
  // RTO gaps at `gap_site` (a tier: both "tomcat->mysql"; the client:
  // "client" and "client->apache").
  std::uint64_t span = trace::kNoSpan;
  std::string site;
  std::string gap_site;
  // The sender's continuation, run once when the call settles.
  sim::EventFn then;
  bool done = false;  // settled: later replies and timers are stale
  int attempts = 1;   // primary attempts started (1 = the first send)

  // The destination of the next attempt.
  Server* destination() const { return pick != nullptr ? (*pick)() : to; }
};
using CallPtr = sim::PoolRef<Call>;

// A fresh call from this thread's pool.
CallPtr make_call();

// Records each RTO gap of `c`'s sends at its gap site; null for an
// untraced request, so the transport skips the call.
net::RetransmitFn gap_observer(const CallPtr& c);

// The sender side of one governed hop: its governor and the call state
// machine.
class GovernedHop {
 public:
  // Runs when a call settles: `failed` is true when it failed
  // (retries exhausted, budget empty, deadline passed, or fail()),
  // false when a reply settled it.
  using SettleFn = sim::InlineFn<void(Call&, bool failed)>;

  // `rng` feeds backoff jitter. Non-copyable: pending events hold its
  // address.
  GovernedHop(sim::Simulation& sim, sim::Rng rng, const policy::TailPolicy& p,
              SettleFn settle);
  GovernedHop(const GovernedHop&) = delete;
  GovernedHop& operator=(const GovernedHop&) = delete;

  // The hop's breaker, budget, latency window and counters.
  policy::HopGovernor& governor() { return gov_; }
  const policy::HopGovernor& governor() const { return gov_; }

  // Opens a call: earns retry budget, then refuses it when its deadline
  // has passed (a cancel) or the breaker is open (a reject). A refusal
  // is counted and traced, marks the request failed and the call done,
  // and leaves the settle to the sender. True when the call may start.
  bool admit(Call& c);
  // Sends the first attempt and schedules the hedge copies.
  void start(const CallPtr& c);
  // Fails `c` when it is still open and its deadline has passed,
  // counting and tracing the cancel. True when it did.
  bool expire(Call& c);
  // Settles `c` as failed: marks it done and its request failed, and
  // hands it to the sender.
  void fail(Call& c);

 private:
  struct Attempt;  // one send: its breaker conclusion and latency clock
  using AttemptPtr = sim::PoolRef<Attempt>;

  void send_attempt(const CallPtr& c, bool is_hedge);
  void on_reply(const AttemptPtr& a);
  // Counts a failed attempt for the breaker once; false when it was
  // already concluded.
  bool conclude_failed(Attempt& a);
  void retry_or_fail(const CallPtr& c);
  // Counts and traces a deadline cancel when `c`'s deadline has passed.
  bool past_deadline(Call& c);

  sim::Simulation& sim_;
  policy::HopGovernor gov_;
  SettleFn settle_;
};

}  // namespace ntier::server
