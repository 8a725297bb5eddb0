#include "workload/client.h"

namespace ntier::workload {

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
    governed_ = std::make_unique<server::GovernedHop>(
        sim_, rng_.fork(0x7A11), cfg_.policy, [](server::Call& c, bool) { c.then(); });
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

  if (governed_) {
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
  const policy::TailPolicy& pol = governed_->governor().policy();
  if (pol.deadline > sim::Duration::zero()) req->deadline = sim_.now() + pol.deadline;

  server::CallPtr c = server::make_call();
  c->req = req;
  c->then = [this, session, req] { settle(session, req); };
  c->tx = &transport_;
  c->to = front_;
  if (req->traced()) {
    c->span = server::trace_root(req);
    c->site = "client";
    c->gap_site = "client->" + front_->name();
  }
  if (!governed_->admit(*c)) {
    // Breaker open: the request fails instantly, no packet is sent.
    settle(session, req);
    return;
  }

  if (cfg_.timeout > sim::Duration::zero()) {
    sim_.after(cfg_.timeout, [this, c] {
      if (c->done) return;
      ++timeouts_;
      governed_->fail(*c);
    });
  }
  if (req->has_deadline()) {
    // The deadline bounds the client's patience too: at expiry the
    // request is abandoned (every tier will also refuse to queue it).
    sim_.after(req->deadline - sim_.now(), [this, c] { governed_->expire(*c); });
  }

  governed_->start(c);
}

}  // namespace ntier::workload
