#include "workload/client.h"

namespace ntier::workload {

// Per-logical-request policy state. Slab-pooled so every policy closure
// captures a 16-byte ref; the request and session ride inside.
struct ClientPool::Flight {
  server::RequestPtr req;
  std::size_t session = 0;
  bool done = false;  // the logical request has been settled
  int attempts = 1;   // primary attempts issued (1 = the first)
};

// Per-attempt conclusion guard (breaker/latency accounting), pooled for
// the same closure-size reason as Flight.
struct ClientPool::Attempt {
  FlPtr fl;
  bool concluded = false;
  sim::Time sent_at{};
  bool is_hedge = false;
};

sim::SlabPool<ClientPool::Flight>& ClientPool::flight_pool() {
  thread_local sim::SlabPool<Flight> pool;
  return pool;
}

sim::SlabPool<ClientPool::Attempt>& ClientPool::attempt_pool() {
  thread_local sim::SlabPool<Attempt> pool;
  return pool;
}

ClientPool::ClientPool(sim::Simulation& sim, sim::Rng rng,
                       const server::AppProfile* profile, server::Server* front,
                       ClientConfig cfg, BurstClock* burst)
    : sim_(sim),
      rng_(rng),
      profile_(profile),
      front_(front),
      cfg_(cfg),
      burst_(burst),
      transport_(sim, cfg.rto, cfg.link) {
  if (cfg_.session_model != nullptr) {
    session_class_.resize(cfg_.sessions);
    for (auto& s : session_class_) s = profile_->pick(rng_);
  }
  if (cfg_.policy.any()) {
    // Dedicated jitter stream so policy randomness never perturbs the
    // think/class draws of a policy-free run with the same seed.
    governor_ = std::make_unique<policy::HopGovernor>(sim_, rng_.fork(0x7A11), cfg_.policy);
  }
}

void ClientPool::start() {
  for (std::size_t s = 0; s < cfg_.sessions; ++s) {
    // Exponential initial phase = the equilibrium residual of the
    // (exponential) think cycle, so the arrival process is stationary
    // from t=0 with no ramp-in overshoot.
    const auto phase = rng_.exp_duration(cfg_.mean_think);
    sim_.after(phase, [this, s] { issue(s); });
  }
}

void ClientPool::session_think(std::size_t session) {
  const auto think = draw_think(rng_, cfg_.mean_think, burst_);
  sim_.after(think, [this, session] { issue(session); });
}

std::size_t ClientPool::pick_class(std::size_t session) {
  if (cfg_.session_model == nullptr) return profile_->pick(rng_);
  std::size_t& state = session_class_[session];
  state = cfg_.session_model->next(state, rng_);
  return state;
}

// Finalizes one request exactly once (normal reply, timeout, or
// connection failure) and moves the session on.
void ClientPool::settle(std::size_t session, const server::RequestPtr& r) {
  r->completed = sim_.now();
  if (r->traced()) {
    server::trace_close(r, server::trace_root(r), sim_.now());
    cfg_.tracer->finish(r->spans, r->latency());
  }
  ++completed_;
  if (r->failed) ++failed_;
  notify(r);
  session_think(session);
}

// Trace observer for the client->web TCP stack; null for untraced
// requests so the transport skips the call entirely.
net::RetransmitFn ClientPool::retransmit_observer(const server::RequestPtr& req) {
  if (!req->traced()) return {};
  std::string site = "client->" + front_->name();
  std::uint64_t root = server::trace_root(req);
  return [req, site, root](sim::Time at, sim::Duration rto, int attempt) {
    req->spans->add(trace::SpanKind::kRtoGap, site, root, at, at + rto, attempt);
  };
}

void ClientPool::issue(std::size_t session) {
  server::RequestPtr req = server::make_request();
  req->id = next_id_++;
  req->class_index = pick_class(session);
  req->issued = sim_.now();
  ++issued_;
  if (cfg_.tracer) {
    req->spans = cfg_.tracer->begin(req->id);
    server::trace_open(req, trace::SpanKind::kRequest, "client", trace::kNoSpan,
                       sim_.now());
  }

  if (governor_) {
    issue_governed(session, req);
    return;
  }

  // First of {reply, timeout, connection-failure} wins; the guard lives
  // on the Request itself (Request::settled) so no heap cell is needed.
  server::Job job;
  job.req = req;
  job.parent_span = server::trace_root(req);
  job.reply = [this, session](const server::RequestPtr& r) {
    // Response travels the return link before the client sees it.
    sim_.after(transport_.link().sample(), [this, session, r] {
      if (r->settled) return;  // stale response after a timeout
      r->settled = true;
      settle(session, r);
    });
  };

  if (cfg_.timeout > sim::Duration::zero()) {
    sim_.after(cfg_.timeout, [this, session, req] {
      if (req->settled) return;
      req->settled = true;
      ++timeouts_;
      req->failed = true;
      settle(session, req);
    });
  }

  transport_.send(
      [front = front_, job]() { return front->offer(job); },
      [this, req, session](const net::TxOutcome& out) {
        req->total_drops += out.drops;
        if (!out.delivered) {
          // Connection never established: the user request fails.
          if (req->settled) return;
          req->settled = true;
          req->failed = true;
          settle(session, req);
        }
      },
      retransmit_observer(req));
}

void ClientPool::issue_governed(std::size_t session, const server::RequestPtr& req) {
  const policy::TailPolicy& pol = governor_->policy();
  governor_->on_request();
  if (pol.deadline > sim::Duration::zero()) req->deadline = sim_.now() + pol.deadline;

  FlPtr fl = flight_pool().make();
  fl->req = req;
  fl->session = session;

  if (!governor_->allow_send()) {
    // Breaker open: the request fails instantly, no packet is sent.
    req->failed = true;
    server::trace_instant(req, trace::SpanKind::kBreakerReject, "client",
                          server::trace_root(req), sim_.now());
    fl->done = true;
    settle(session, req);
    return;
  }

  if (cfg_.timeout > sim::Duration::zero()) {
    sim_.after(cfg_.timeout, [this, fl] {
      if (fl->done) return;
      fl->done = true;
      ++timeouts_;
      fl->req->failed = true;
      settle(fl->session, fl->req);
    });
  }
  if (req->has_deadline()) {
    // The deadline bounds the client's patience too: at expiry the
    // request is abandoned (every tier will also refuse to queue it).
    sim_.after(req->deadline - sim_.now(), [this, fl] {
      if (fl->done) return;
      fl->done = true;
      ++governor_->stats().deadline_cancels;
      fl->req->failed = true;
      fl->req->deadline_expired = true;
      server::trace_instant(fl->req, trace::SpanKind::kDeadlineCancel, "client",
                            server::trace_root(fl->req), sim_.now());
      settle(fl->session, fl->req);
    });
  }

  send_attempt(fl, /*is_hedge=*/false);

  if (pol.hedge.enabled) {
    const sim::Duration d = governor_->hedge_delay();
    for (int i = 1; i <= pol.hedge.max_hedges; ++i) {
      sim_.after(d * i, [this, fl, i] {
        if (fl->done) return;
        if (fl->req->has_deadline() && sim_.now() >= fl->req->deadline) return;
        ++fl->req->hedge_copies;
        ++governor_->stats().hedges;
        server::trace_instant(fl->req, trace::SpanKind::kHedge, "client",
                              server::trace_root(fl->req), sim_.now(), /*detail=*/i);
        send_attempt(fl, /*is_hedge=*/true);
      });
    }
  }
}

void ClientPool::send_attempt(const FlPtr& fl, bool is_hedge) {
  // Per-attempt conclusion guard for breaker/latency accounting.
  GaPtr ga = attempt_pool().make();
  ga->fl = fl;
  ga->sent_at = sim_.now();
  ga->is_hedge = is_hedge;

  server::Job job;
  job.req = fl->req;
  job.parent_span = server::trace_root(fl->req);
  job.reply = [this, ga](const server::RequestPtr& r) {
    sim_.after(transport_.link().sample(), [this, ga, r] {
      Flight& fl = *ga->fl;
      if (r->overload_shed && !fl.done) {
        // A tier shed this attempt with a retryable rejection: clear the
        // canned error and spend retry budget instead of settling.
        r->overload_shed = false;
        r->failed = false;
        if (!ga->concluded) {
          ga->concluded = true;
          governor_->on_outcome(false);
        }
        if (!ga->is_hedge) retry_or_fail(ga->fl);
        return;
      }
      if (!ga->concluded) {
        ga->concluded = true;
        governor_->on_outcome(!r->failed);
        if (!r->failed) governor_->record_latency(sim_.now() - ga->sent_at);
      }
      if (fl.done) return;  // stale/duplicate response
      fl.done = true;
      if (ga->is_hedge) ++governor_->stats().hedge_wins;
      settle(fl.session, r);
    });
  };

  transport_.send(
      [front = front_, job]() { return front->offer(job); },
      [this, ga](const net::TxOutcome& out) {
        ga->fl->req->total_drops += out.drops;
        if (out.delivered) return;
        if (ga->concluded) return;
        ga->concluded = true;
        governor_->on_outcome(false);
        if (!ga->is_hedge) retry_or_fail(ga->fl);
      },
      retransmit_observer(fl->req));

  const sim::Duration at = governor_->policy().attempt_timeout;
  if (!is_hedge && at > sim::Duration::zero()) {
    sim_.after(at, [this, ga] {
      if (ga->fl->done || ga->concluded) return;
      ga->concluded = true;
      governor_->on_outcome(false);
      retry_or_fail(ga->fl);
    });
  }
}

void ClientPool::retry_or_fail(const FlPtr& fl) {
  if (fl->done) return;
  const policy::RetryPolicy& rp = governor_->policy().retry;
  if (!rp.enabled() || fl->attempts >= rp.max_attempts) {
    settle_failed(fl);
    return;
  }
  if (fl->req->has_deadline() && sim_.now() >= fl->req->deadline) {
    ++governor_->stats().deadline_cancels;
    fl->req->deadline_expired = true;
    settle_failed(fl);
    return;
  }
  if (!governor_->try_retry_token()) {
    settle_failed(fl);
    return;
  }
  const sim::Duration backoff = governor_->next_backoff(fl->attempts);
  ++governor_->stats().retries;
  server::trace_add(fl->req, trace::SpanKind::kRetry, "client",
                    server::trace_root(fl->req), sim_.now(), sim_.now() + backoff,
                    /*detail=*/fl->attempts);
  sim_.after(backoff, [this, fl] {
    if (fl->done) return;
    if (fl->req->has_deadline() && sim_.now() >= fl->req->deadline) {
      ++governor_->stats().deadline_cancels;
      fl->req->deadline_expired = true;
      settle_failed(fl);
      return;
    }
    ++fl->attempts;
    ++fl->req->app_retries;
    send_attempt(fl, /*is_hedge=*/false);
  });
}

void ClientPool::settle_failed(const FlPtr& fl) {
  if (fl->done) return;
  fl->done = true;
  fl->req->failed = true;
  settle(fl->session, fl->req);
}

}  // namespace ntier::workload
