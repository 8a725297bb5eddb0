#include "server/governed_call.h"

#include <utility>

#include "server/server_base.h"

namespace ntier::server {

struct GovernedHop::Attempt {
  CallPtr call;
  sim::Time sent_at{};
  bool concluded = false;  // already counted for the breaker
  bool is_hedge = false;
};

namespace {

sim::SlabPool<Call>& call_pool() {
  thread_local sim::SlabPool<Call> pool;
  return pool;
}

}  // namespace

CallPtr make_call() { return call_pool().make(); }

net::RetransmitFn gap_observer(const CallPtr& c) {
  if (!c->req->traced()) return {};
  // Each refused/lost attempt costs the sender one whole RTO before the
  // next attempt — the paper's 3 s mechanism, recorded verbatim.
  return [c](sim::Time at, sim::Duration rto, int attempt) {
    c->req->spans->add(trace::SpanKind::kRtoGap, c->gap_site, c->span, at, at + rto, attempt);
  };
}

GovernedHop::GovernedHop(sim::Simulation& sim, sim::Rng rng, const policy::TailPolicy& p,
                         SettleFn settle)
    : sim_(sim), gov_(sim, std::move(rng), p), settle_(std::move(settle)) {}

bool GovernedHop::admit(Call& c) {
  gov_.on_request();
  if (!past_deadline(c)) {
    if (gov_.allow_send()) return true;
    trace_instant(c.req, trace::SpanKind::kBreakerReject, c.site, c.span, sim_.now());
  }
  c.done = true;
  c.req->failed = true;
  return false;
}

void GovernedHop::start(const CallPtr& c) {
  send_attempt(c, /*is_hedge=*/false);
  const policy::HedgePolicy& h = gov_.policy().hedge;
  if (!h.enabled) return;
  // Hedge copies fire at multiples of the current percentile delay
  // (scheduled up front: deterministic, no self-referential timers).
  const sim::Duration d = gov_.hedge_delay();
  for (int i = 1; i <= h.max_hedges; ++i) {
    sim_.after(d * i, [this, c, i] {
      if (c->done) return;
      if (c->req->has_deadline() && sim_.now() >= c->req->deadline) return;
      ++c->req->hedge_copies;
      ++gov_.stats().hedges;
      trace_instant(c->req, trace::SpanKind::kHedge, c->site, c->span, sim_.now(), /*detail=*/i);
      send_attempt(c, /*is_hedge=*/true);
    });
  }
}

void GovernedHop::send_attempt(const CallPtr& c, bool is_hedge) {
  thread_local sim::SlabPool<Attempt> attempt_pool;
  AttemptPtr a = attempt_pool.make();
  a->call = c;
  a->sent_at = sim_.now();
  a->is_hedge = is_hedge;

  Job job;
  job.req = c->req;
  job.parent_span = c->span;
  // The receiver calls this at its completion instant; the return-path
  // link latency belongs to this (sending) side.
  job.reply = [this, a](const RequestPtr&) {
    sim_.after(a->call->tx->link().sample(), [this, a] { on_reply(a); });
  };
  c->tx->send([c, job = std::move(job)] { return c->destination()->offer(job); },
              [this, a](const net::TxOutcome& out) {
                a->call->req->total_drops += out.drops;
                // A delivered attempt concludes with its reply.
                if (out.delivered || !conclude_failed(*a) || a->is_hedge) return;
                retry_or_fail(a->call);
              },
              gap_observer(c));

  const sim::Duration at = gov_.policy().attempt_timeout;
  if (!is_hedge && at > sim::Duration::zero()) {
    sim_.after(at, [this, a] {
      if (a->call->done || !conclude_failed(*a)) return;
      retry_or_fail(a->call);
    });
  }
}

void GovernedHop::on_reply(const AttemptPtr& a) {
  Call& c = *a->call;
  if (c.req->overload_shed && !c.done) {
    // A shed: clear the canned error and consult the retry policy
    // instead of settling the call.
    c.req->overload_shed = false;
    c.req->failed = false;
    conclude_failed(*a);
    if (!a->is_hedge) retry_or_fail(a->call);
    return;
  }
  if (!a->concluded) {
    a->concluded = true;
    gov_.on_outcome(!c.req->failed);
    if (!c.req->failed) gov_.record_latency(sim_.now() - a->sent_at);
  }
  if (c.done) return;  // another copy already settled the call
  c.done = true;
  if (a->is_hedge) ++gov_.stats().hedge_wins;
  settle_(c, /*failed=*/false);
}

bool GovernedHop::conclude_failed(Attempt& a) {
  if (a.concluded) return false;
  a.concluded = true;
  gov_.on_outcome(false);
  return true;
}

void GovernedHop::retry_or_fail(const CallPtr& c) {
  if (c->done) return;
  const policy::RetryPolicy& rp = gov_.policy().retry;
  if (!rp.enabled() || c->attempts >= rp.max_attempts || past_deadline(*c) ||
      !gov_.try_retry_token()) {
    fail(*c);
    return;
  }
  const sim::Duration backoff = gov_.next_backoff(c->attempts);
  ++gov_.stats().retries;
  // The backoff interval itself is a trace span: idle wall-clock the
  // request spends between attempts, charged to the policy layer.
  trace_add(c->req, trace::SpanKind::kRetry, c->site, c->span, sim_.now(),
            sim_.now() + backoff, /*detail=*/c->attempts);
  sim_.after(backoff, [this, c] {
    if (c->done || expire(*c)) return;
    ++c->attempts;
    ++c->req->app_retries;
    send_attempt(c, /*is_hedge=*/false);
  });
}

bool GovernedHop::past_deadline(Call& c) {
  if (!c.req->has_deadline() || sim_.now() < c.req->deadline) return false;
  ++gov_.stats().deadline_cancels;
  c.req->deadline_expired = true;
  trace_instant(c.req, trace::SpanKind::kDeadlineCancel, c.site, c.span, sim_.now());
  return true;
}

bool GovernedHop::expire(Call& c) {
  if (c.done || !past_deadline(c)) return false;
  fail(c);
  return true;
}

void GovernedHop::fail(Call& c) {
  c.done = true;
  c.req->failed = true;
  settle_(c, /*failed=*/true);
}

}  // namespace ntier::server
