#include "server/server_base.h"

#include <cassert>
#include <utility>

namespace ntier::server {
namespace detail {

// Per-dispatch bookkeeping, shared by every attempt/hedge/timeout closure
// of one downstream call. Slab-pooled: closures capture a 16-byte ref.
struct DispatchState {
  RequestPtr req;
  sim::EventFn on_reply;
  bool settled = false;  // a reply (or permanent failure) already unwound
  int attempts = 1;      // primary attempts started (1 = the first send)
  int hedges = 0;        // duplicate copies issued
  // The hop this dispatch travels: the route's transport (fan-out) or
  // the legacy connect_downstream transport. `route` is null on the
  // legacy path; its pick() chooses the destination per attempt.
  net::Transport* tx = nullptr;
  Server::Route* route = nullptr;
  // Tracing: the downstream-wait span all attempts/gaps/policy events of
  // this dispatch nest under, and its site label ("tomcat->mysql") —
  // built only for traced requests.
  std::uint64_t ds_span = trace::kNoSpan;
  std::string site;

  // Closes the downstream-wait span and resumes the caller. Runs once
  // per dispatch (callers guard via `settled`).
  void unwind(sim::Time now) {
    trace_close(req, ds_span, now);
    on_reply();
  }
};

// Per-attempt policy state (conclusion guard + latency clock). Pooled so
// the governed path's reply/timeout/result closures stay within the
// InlineFn budget.
struct GovAttempt {
  sim::PoolRef<DispatchState> st;
  bool concluded = false;  // this attempt already counted for the breaker
  sim::Time sent_at{};
  bool is_hedge = false;
};

// Fan-in barrier of one fan-out dispatch: the caller's continuation
// fires when the last route settles. Pooled so per-route closures
// capture a 16-byte ref.
struct JoinState {
  int pending = 0;
  sim::EventFn on_reply;
};

}  // namespace detail

namespace {

using detail::DispatchState;
using detail::GovAttempt;
using detail::JoinState;

sim::SlabPool<DispatchState>& dispatch_pool() {
  thread_local sim::SlabPool<DispatchState> pool;
  return pool;
}

sim::SlabPool<GovAttempt>& attempt_pool() {
  thread_local sim::SlabPool<GovAttempt> pool;
  return pool;
}

sim::SlabPool<JoinState>& join_pool() {
  thread_local sim::SlabPool<JoinState> pool;
  return pool;
}

}  // namespace

Server::Server(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
               const AppProfile* profile,
               std::function<Program(const RequestClassProfile&)> program_fn)
    : sim_(sim), name_(std::move(name)), vm_(vm) {
  assert(profile != nullptr);
  programs_.reserve(profile->classes.size());
  for (const RequestClassProfile& c : profile->classes) programs_.push_back(program_fn(c));
}

sim::SlabPool<Server::Visit>& Server::visit_pool() {
  thread_local sim::SlabPool<Visit> pool;
  return pool;
}

void Server::connect_downstream(Server* next, net::RtoPolicy rto, net::Link link) {
  assert(routes_.empty() && "connect_downstream and add_route are exclusive");
  downstream_ = next;
  transport_ = std::make_unique<net::Transport>(sim_, rto, link);
}

void Server::add_route(std::function<Server*()> pick, net::RtoPolicy rto,
                       net::Link link, std::string label) {
  assert(downstream_ == nullptr && "connect_downstream and add_route are exclusive");
  assert(pick != nullptr);
  Route rt;
  rt.pick = std::move(pick);
  rt.transport = std::make_unique<net::Transport>(sim_, rto, link);
  rt.label = std::move(label);
  routes_.push_back(std::move(rt));
}

void Server::enable_tail_policy(const policy::TailPolicy& p, sim::Rng rng) {
  if (!p.any()) return;
  governor_ = std::make_unique<policy::HopGovernor>(sim_, std::move(rng), p);
}

void Server::enable_overload_control(const policy::overload::OverloadPolicy& p) {
  if (!p.any()) return;
  overload_ = std::make_unique<policy::overload::AdmissionController>(p);
}

bool Server::offer(Job job) {
  ++stats_.offered;
  if (down_) {
    // Crashed: the connection is refused. To the sender this is the same
    // unacked packet as a full accept queue — it retransmits per its RTO.
    ++stats_.refused_down;
    trace_instant(job.req, trace::SpanKind::kDrop, name_, job.parent_span,
                  sim_.now(), /*detail=*/1);
    note_drop();
    return false;
  }
  if (job.req->has_deadline() && sim_.now() >= job.req->deadline) {
    // Over budget: cancel instead of queueing. The packet is *accepted*
    // (returning true) so the sender does not retransmit cancelled work;
    // the failure reply unwinds the chain immediately.
    ++stats_.expired;
    job.req->failed = true;
    job.req->deadline_expired = true;
    trace_instant(job.req, trace::SpanKind::kDeadlineCancel, name_,
                  job.parent_span, sim_.now());
    auto jr = job_pool().make(std::move(job));
    sim_.after(sim::Duration::zero(), [jr] { jr->reply(jr->req); });
    return true;
  }
  if (overload_ != nullptr) {
    using Decision = policy::overload::AdmissionController::Decision;
    using ShedMode = policy::overload::OverloadPolicy::ShedMode;
    switch (overload_->on_offer(sim_.now(), in_system_)) {
      case Decision::kAdmit:
        break;
      case Decision::kDegrade:
        // Brownout: admit, but serve the cheap response — every tier
        // skips its downstream steps for a degraded request.
        if (!job.req->degraded) {
          job.req->degraded = true;
          trace_instant(job.req, trace::SpanKind::kBrownout, name_,
                        job.parent_span, sim_.now());
        }
        break;
      case Decision::kShed:
        if (overload_->policy().shed_mode == ShedMode::kTcpDrop) {
          // Paper baseline: refuse the packet like a full accept queue;
          // the sender's TCP stack retransmits per its RTO.
          trace_instant(job.req, trace::SpanKind::kOverloadShed, name_,
                        job.parent_span, sim_.now(), /*detail=*/1);
          note_drop();
          return false;
        }
        shed_job(std::move(job), /*accepted=*/false, /*detail=*/0);
        return true;
    }
  }
  return do_offer(std::move(job));
}

void Server::set_down(bool down, bool abort_queued_work) {
  down_ = down;
  if (down && abort_queued_work) abort_queued();
}

Server::VisitPtr Server::admit(Job job) {
  ++stats_.accepted;
  ++in_system_;
  VisitPtr v = visit_pool().make();
  v->prog = &programs_[job.req->class_index];
  v->job = std::move(job);
  v->hop = trace_open(v->job.req, trace::SpanKind::kHop, name_, v->job.parent_span,
                      sim_.now());
  return v;
}

void Server::run_program(const VisitPtr& v) {
  for (; v->pc < v->prog->size(); ++v->pc) {
    const WorkStep& step = (*v->prog)[v->pc];
    switch (step.kind) {
      case WorkStep::Kind::kCpu: {
        if (step.amount <= sim::Duration::zero()) continue;
        const sim::Duration demand = cpu_demand(step.amount);
        // The service span includes CPU-contention stall (demand vs wall
        // time inside VmCpu) — it measures occupancy, not pure work.
        const std::uint64_t sp = trace_open(v->job.req, trace::SpanKind::kService, name_,
                                            v->hop, sim_.now());
        vm_->submit(demand, [this, v, sp] { step_done(v, sp); });
        return;
      }
      case WorkStep::Kind::kDisk: {
        assert(io_ != nullptr && "kDisk step requires attach_io()");
        const std::uint64_t sp = trace_open(v->job.req, trace::SpanKind::kDisk, name_,
                                            v->hop, sim_.now());
        io_->submit_service(step.amount, [this, v, sp] { step_done(v, sp); });
        return;
      }
      case WorkStep::Kind::kDownstream:
        // Brownout: the degraded response skips the downstream chain.
        if (v->job.req->degraded) continue;
        on_downstream(v);
        return;
    }
  }
  note_reply();
  trace_close(v->job.req, v->hop, sim_.now());
  v->job.reply(v->job.req);
  on_finish(v);
}

void Server::step_done(const VisitPtr& v, std::uint64_t span) {
  trace_close(v->job.req, span, sim_.now());
  ++v->pc;
  run_program(v);
}

void Server::park(std::deque<VisitPtr>& q, VisitPtr v, trace::SpanKind kind,
                  const std::string& site) {
  v->wait = trace_open(v->job.req, kind, site, v->hop, sim_.now());
  v->enq = sim_.now();
  q.push_back(std::move(v));
}

Server::VisitPtr Server::take_waiting(std::deque<VisitPtr>& q, bool fresh) {
  auto next = policy::overload::pop_next(
      fresh ? overload() : nullptr, q, sim_.now(), [](const VisitPtr& v) { return v->enq; },
      [this](VisitPtr v) {
        trace_close(v->job.req, v->wait, sim_.now());
        trace_close(v->job.req, v->hop, sim_.now());
        shed_job(std::move(v->job), /*accepted=*/true, /*detail=*/2);
      });
  if (!next) return nullptr;
  trace_close((*next)->job.req, (*next)->wait, sim_.now());
  return std::move(*next);
}

void Server::abort_waiting(std::deque<VisitPtr>& q) {
  while (!q.empty()) {
    VisitPtr v = std::move(q.front());
    q.pop_front();
    trace_close(v->job.req, v->wait, sim_.now());
    trace_close(v->job.req, v->hop, sim_.now());
    ++stats_.aborted;
    v->job.req->failed = true;
    // The aborted job still gets a (failure) reply, preserving the
    // conservation invariant accepted == completed + in-system.
    note_reply();
    v->job.reply(v->job.req);
  }
}

bool Server::refuse(const Job& job) {
  note_drop();
  trace_instant(job.req, trace::SpanKind::kDrop, name_, job.parent_span, sim_.now(),
                /*detail=*/0);
  return false;
}

void Server::shed_job(Job job, bool accepted, int detail) {
  job.req->failed = true;
  job.req->overload_shed = true;
  trace_instant(job.req, trace::SpanKind::kOverloadShed, name_, job.parent_span,
                sim_.now(), detail);
  if (accepted) note_reply();
  // The canned rejection is produced without a worker but still crosses
  // the wire; reply off this stack frame after a token service cost.
  auto jr = job_pool().make(std::move(job));
  sim_.after(sim::Duration::micros(50), [jr] { jr->reply(jr->req); });
}

void Server::dispatch_downstream(const RequestPtr& req, std::uint64_t parent_span,
                                 sim::EventFn on_reply) {
  if (!routes_.empty()) {
    // Fan-out: contact every route in parallel. The caller's
    // continuation fires at the fan-in barrier, once the last route
    // settles — a failed route marks the request failed, but the
    // barrier still waits for every sibling before resuming.
    auto jn = join_pool().make();
    jn->pending = static_cast<int>(routes_.size());
    jn->on_reply = std::move(on_reply);
    for (Route& rt : routes_) {
      dispatch_via(&rt, req, parent_span, [jn] {
        if (--jn->pending == 0) jn->on_reply();
      });
    }
    return;
  }
  dispatch_via(nullptr, req, parent_span, std::move(on_reply));
}

void Server::dispatch_via(Route* route, const RequestPtr& req,
                          std::uint64_t parent_span, sim::EventFn on_reply) {
  assert(route != nullptr || (downstream_ != nullptr && transport_ != nullptr));

  // Tracing: one downstream-wait span covers this dispatch from first
  // send to unwind; RTO gaps and policy events nest under it, and the
  // downstream tier's hop span nests under it via Job::parent_span.
  StPtr st = dispatch_pool().make();
  st->req = req;
  st->on_reply = std::move(on_reply);
  st->tx = route != nullptr ? route->transport.get() : transport_.get();
  st->route = route;
  if (req->traced()) {
    st->site = name_ + "->" + (route != nullptr ? route->label : downstream_->name());
    st->ds_span = trace_open(req, trace::SpanKind::kDownstream, st->site,
                             parent_span, sim_.now());
  }

  if (!governor_) {
    // Plain path: single send, retransmission handled inside Transport.
    Job down;
    down.req = req;
    down.parent_span = st->ds_span;
    // The downstream tier calls this at its completion instant; the
    // return-path link latency belongs to this (sending) side.
    down.reply = [this, st](const RequestPtr&) {
      sim_.after(st->tx->link().sample(), [this, st] { st->unwind(sim_.now()); });
    };
    st->tx->send(
        [route, next = downstream_, down = std::move(down)](/*attempt*/) {
          return (route != nullptr ? route->pick() : next)->offer(down);
        },
        [this, st](const net::TxOutcome& out) {
          st->req->total_drops += out.drops;
          if (!out.delivered) {
            // Connection abandoned after max retries: fail the request and
            // unwind so upstream threads/clients are released.
            st->req->failed = true;
            ++stats_.failed;
            st->unwind(sim_.now());
          }
        },
        retransmit_observer(st));
    return;
  }

  const policy::TailPolicy& pol = governor_->policy();
  governor_->on_request();

  if (req->has_deadline() && sim_.now() >= req->deadline) {
    // Budget already spent before the hop: cancel without sending.
    ++governor_->stats().deadline_cancels;
    st->settled = true;
    req->failed = true;
    req->deadline_expired = true;
    ++stats_.failed;
    trace_instant(req, trace::SpanKind::kDeadlineCancel, st->site, st->ds_span,
                  sim_.now());
    sim_.after(sim::Duration::zero(), [this, st] { st->unwind(sim_.now()); });
    return;
  }
  if (!governor_->allow_send()) {
    // Breaker open: fast-fail instead of queueing onto a sick downstream.
    st->settled = true;
    req->failed = true;
    ++stats_.failed;
    trace_instant(req, trace::SpanKind::kBreakerReject, st->site, st->ds_span,
                  sim_.now());
    sim_.after(sim::Duration::zero(), [this, st] { st->unwind(sim_.now()); });
    return;
  }

  send_attempt(st, /*is_hedge=*/false);

  if (pol.hedge.enabled) {
    // Hedge copies fire at multiples of the current percentile delay
    // (scheduled up front: deterministic, no self-referential timers).
    const sim::Duration d = governor_->hedge_delay();
    for (int i = 1; i <= pol.hedge.max_hedges; ++i) {
      sim_.after(d * i, [this, st, i] {
        if (st->settled) return;
        if (st->req->has_deadline() && sim_.now() >= st->req->deadline) return;
        ++st->hedges;
        ++st->req->hedge_copies;
        ++governor_->stats().hedges;
        ++stats_.hedges_sent;
        trace_instant(st->req, trace::SpanKind::kHedge, st->site, st->ds_span,
                      sim_.now(), /*detail=*/i);
        send_attempt(st, /*is_hedge=*/true);
      });
    }
  }
}

net::RetransmitFn Server::retransmit_observer(const StPtr& st) {
  if (!st->req->traced()) return {};
  // Each refused/lost attempt costs the sender one whole RTO before the
  // next attempt — the paper's 3 s mechanism, recorded verbatim.
  return [st](sim::Time at, sim::Duration rto, int attempt) {
    st->req->spans->add(trace::SpanKind::kRtoGap, st->site, st->ds_span, at,
                        at + rto, attempt);
  };
}

void Server::send_attempt(const StPtr& st, bool is_hedge) {
  // Per-attempt conclusion guard: an attempt concludes exactly once for
  // breaker/latency accounting (timeout, transport failure, or reply).
  GaPtr ga = attempt_pool().make();
  ga->st = st;
  ga->sent_at = sim_.now();
  ga->is_hedge = is_hedge;

  Job down;
  down.req = st->req;
  down.parent_span = st->ds_span;
  down.reply = [this, ga](const RequestPtr&) {
    sim_.after(ga->st->tx->link().sample(), [this, ga] {
      DispatchState& st = *ga->st;
      if (st.req->overload_shed && !st.settled) {
        // The downstream tier shed this attempt with a retryable
        // rejection: clear the canned error and consult the retry policy
        // (spending retry budget) instead of settling the dispatch — the
        // shed/retry contract of docs/OVERLOAD.md.
        st.req->overload_shed = false;
        st.req->failed = false;
        if (!ga->concluded) {
          ga->concluded = true;
          governor_->on_outcome(false);
        }
        if (!ga->is_hedge) retry_or_fail(ga->st);
        return;
      }
      if (!ga->concluded) {
        ga->concluded = true;
        governor_->on_outcome(!st.req->failed);
        if (!st.req->failed) governor_->record_latency(sim_.now() - ga->sent_at);
      }
      if (st.settled) return;  // another copy already unwound
      st.settled = true;
      if (ga->is_hedge) ++governor_->stats().hedge_wins;
      st.unwind(sim_.now());
    });
  };

  st->tx->send(
      [route = st->route, next = downstream_, down = std::move(down)](/*attempt*/) {
        return (route != nullptr ? route->pick() : next)->offer(down);
      },
      [this, ga](const net::TxOutcome& out) {
        ga->st->req->total_drops += out.drops;
        if (out.delivered) return;  // conclusion arrives with the reply
        if (ga->concluded) return;  // attempt_timeout already took over
        ga->concluded = true;
        governor_->on_outcome(false);
        // Hedge copies never settle on failure — the primary chain owns
        // the retry/fail decision and a surviving copy may still win.
        if (!ga->is_hedge) retry_or_fail(ga->st);
      },
      retransmit_observer(st));

  const sim::Duration at = governor_->policy().attempt_timeout;
  if (!is_hedge && at > sim::Duration::zero()) {
    sim_.after(at, [this, ga] {
      if (ga->st->settled || ga->concluded) return;
      ga->concluded = true;
      governor_->on_outcome(false);
      // The timed-out attempt stays in flight downstream (its work is not
      // recalled); if it lands before the retry it still wins via `st`.
      retry_or_fail(ga->st);
    });
  }
}

void Server::retry_or_fail(const StPtr& st) {
  if (st->settled) return;
  const policy::RetryPolicy& rp = governor_->policy().retry;
  if (!rp.enabled() || st->attempts >= rp.max_attempts) {
    fail_dispatch(st);
    return;
  }
  if (st->req->has_deadline() && sim_.now() >= st->req->deadline) {
    ++governor_->stats().deadline_cancels;
    st->req->deadline_expired = true;
    trace_instant(st->req, trace::SpanKind::kDeadlineCancel, st->site,
                  st->ds_span, sim_.now());
    fail_dispatch(st);
    return;
  }
  if (!governor_->try_retry_token()) {
    fail_dispatch(st);
    return;
  }
  const sim::Duration backoff = governor_->next_backoff(st->attempts);
  ++governor_->stats().retries;
  ++stats_.ds_retries;
  // The backoff interval itself is a trace span: idle wall-clock the
  // request spends between attempts, charged to the policy layer.
  trace_add(st->req, trace::SpanKind::kRetry, st->site, st->ds_span, sim_.now(),
            sim_.now() + backoff, /*detail=*/st->attempts);
  sim_.after(backoff, [this, st] {
    if (st->settled) return;
    if (st->req->has_deadline() && sim_.now() >= st->req->deadline) {
      ++governor_->stats().deadline_cancels;
      st->req->deadline_expired = true;
      trace_instant(st->req, trace::SpanKind::kDeadlineCancel, st->site,
                    st->ds_span, sim_.now());
      fail_dispatch(st);
      return;
    }
    ++st->attempts;
    ++st->req->app_retries;
    send_attempt(st, /*is_hedge=*/false);
  });
}

void Server::fail_dispatch(const StPtr& st) {
  if (st->settled) return;
  st->settled = true;
  st->req->failed = true;
  ++stats_.failed;
  st->unwind(sim_.now());
}

}  // namespace ntier::server
