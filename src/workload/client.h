// Closed-loop client population (the RUBBoS load generator).
//
// N sessions each cycle through think -> request -> response. The
// closed-loop law X = N / (R + Z) pins the paper's operating points:
// think time 7 s puts WL 4000/7000/8000 at ~572/990/1103 req/s. Client
// packets refused by the web tier retransmit per the client RtoPolicy —
// these retransmissions ARE the paper's VLRT requests.
//
// An optional TailPolicy turns the naive browser into a tail-tolerant
// one: the request is stamped with an end-to-end deadline (propagated
// through every tier), failed or timed-out attempts are re-issued with
// backoff under a retry budget, duplicate (hedged) copies go out after a
// percentile delay, and a circuit breaker fast-fails while the front
// tier looks sick. The attempts, hedges, timeouts and retries run in the
// governed-call engine every tier hop shares (server/governed_call.h);
// the client adds only the deadline stamp, its browser-timeout and
// deadline-abandon timers, and the settle into the session loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/link.h"
#include "net/rto_policy.h"
#include "net/transport.h"
#include "policy/tail_policy.h"
#include "server/app_profile.h"
#include "server/request.h"
#include "server/server_base.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "trace/tracer.h"
#include "workload/burst_model.h"
#include "workload/session_model.h"

namespace ntier::workload {

struct ClientConfig {
  std::size_t sessions = 1000;
  sim::Duration mean_think = sim::Duration::seconds(7);
  net::RtoPolicy rto = net::RtoPolicy::rhel6();
  net::Link link{};
  // Completions before this instant are not reported (warm-up).
  sim::Time measure_from = sim::Time::origin();
  // Browser-style request timeout; zero disables. A timed-out request is
  // recorded as failed and the session moves on (the straggling response
  // is discarded when it eventually arrives).
  sim::Duration timeout = sim::Duration::zero();
  // Optional Markov page-navigation model (see workload/session_model.h);
  // null = independent draws from the profile weights.
  const SessionModel* session_model = nullptr;
  // Tail-tolerance policy applied at the client hop (deadline stamping,
  // retries, hedging, circuit breaking). Default: all disabled — the
  // naive browser of the paper.
  policy::TailPolicy policy{};
  // Distributed-tracing collector (owned by the experiment); null = no
  // span trees. The client opens the root span at issue, closes it at
  // settle, and hands the finished tree back via Tracer::finish.
  trace::Tracer* tracer = nullptr;
};

class ClientPool {
 public:
  using CompletionFn = std::function<void(const server::RequestPtr&)>;

  // `front` is the web tier; `burst` (optional) modulates think times.
  ClientPool(sim::Simulation& sim, sim::Rng rng, const server::AppProfile* profile,
             server::Server* front, ClientConfig cfg, BurstClock* burst = nullptr);

  // Begins all sessions (each with a randomized initial think phase).
  void start();

  // Registers a listener called for every measured completion (after
  // warm-up); listeners accumulate and run in registration order.
  void on_complete(CompletionFn fn) { listeners_.push_back(std::move(fn)); }

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t in_flight() const { return issued_ - completed_; }
  const net::TxStats& tx_stats() const { return transport_.stats(); }
  // The client's TCP stack toward the web tier (fault-injection target).
  net::Transport& transport() { return transport_; }
  // Policy runtime; null when no policy is configured.
  policy::HopGovernor* governor() { return governed_ ? &governed_->governor() : nullptr; }
  const policy::HopGovernor* governor() const {
    return governed_ ? &governed_->governor() : nullptr;
  }

 private:
  void session_think(std::size_t session);
  net::RetransmitFn retransmit_observer(const server::RequestPtr& req);
  void issue(std::size_t session);
  void issue_governed(std::size_t session, const server::RequestPtr& req);

  sim::Simulation& sim_;
  sim::Rng rng_;
  const server::AppProfile* profile_;
  server::Server* front_;
  ClientConfig cfg_;
  BurstClock* burst_;
  net::Transport transport_;
  std::unique_ptr<server::GovernedHop> governed_;

  void notify(const server::RequestPtr& r) {
    if (r->completed < cfg_.measure_from) return;
    for (auto& fn : listeners_) fn(r);
  }

  std::size_t pick_class(std::size_t session);
  void settle(std::size_t session, const server::RequestPtr& r);

  std::vector<CompletionFn> listeners_;
  std::vector<std::size_t> session_class_;  // Markov state per session
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace ntier::workload
