#include "server/server_base.h"

#include <cassert>
#include <utility>

namespace ntier::server {
namespace detail {

// Fan-in barrier of one fan-out dispatch: the caller's continuation
// fires when the last route settles. Pooled so per-route closures
// capture a 16-byte ref.
struct JoinState {
  int pending = 0;
  sim::EventFn on_reply;
};

}  // namespace detail

namespace {

using detail::JoinState;

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
  governed_ = std::make_unique<GovernedHop>(sim_, std::move(rng), p, [this](Call& c, bool failed) {
    if (failed) ++stats_.failed;
    unwind(c);
  });
}

void Server::enable_overload_control(const policy::overload::OverloadPolicy& p) {
  if (!p.any()) return;
  overload_ = std::make_unique<policy::overload::AdmissionController>(p);
}

bool Server::offer(const Job& job) {
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
    auto jr = job_pool().make(job);
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
        shed_job(job, /*accepted=*/false, /*detail=*/0);
        return true;
    }
  }
  return do_offer(job);
}

void Server::set_down(bool down, bool abort_queued_work) {
  down_ = down;
  if (down && abort_queued_work) abort_queued();
}

Server::VisitPtr Server::admit(const Job& job) {
  ++stats_.accepted;
  ++in_system_;
  VisitPtr v = visit_pool().make();
  v->prog = &programs_[job.req->class_index];
  v->job = job;
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
  CallPtr c = make_call();
  c->req = req;
  c->then = std::move(on_reply);
  c->tx = route != nullptr ? route->transport.get() : transport_.get();
  if (route != nullptr) {
    c->pick = &route->pick;
  } else {
    c->to = downstream_;
  }
  if (req->traced()) {
    c->site = name_ + "->" + (route != nullptr ? route->label : downstream_->name());
    c->gap_site = c->site;
    c->span = trace_open(req, trace::SpanKind::kDownstream, c->site, parent_span, sim_.now());
  }

  if (governed_) {
    if (governed_->admit(*c)) {
      governed_->start(c);
      return;
    }
    // Deadline spent before the hop, or the breaker is open: fail
    // without sending, off this stack frame.
    ++stats_.failed;
    sim_.after(sim::Duration::zero(), [this, c] { unwind(*c); });
    return;
  }

  // Plain path: single send, retransmission handled inside Transport.
  Job down;
  down.req = req;
  down.parent_span = c->span;
  // The downstream tier calls this at its completion instant; the
  // return-path link latency belongs to this (sending) side.
  down.reply = [this, c](const RequestPtr&) {
    sim_.after(c->tx->link().sample(), [this, c] { unwind(*c); });
  };
  c->tx->send([c, down = std::move(down)] { return c->destination()->offer(down); },
              [this, c](const net::TxOutcome& out) {
                c->req->total_drops += out.drops;
                if (!out.delivered) {
                  // Connection abandoned after max retries: fail the
                  // request and unwind so upstream threads/clients are
                  // released.
                  c->req->failed = true;
                  ++stats_.failed;
                  unwind(*c);
                }
              },
              gap_observer(c));
}

void Server::unwind(Call& c) {
  trace_close(c.req, c.span, sim_.now());
  c.then();
}

}  // namespace ntier::server
