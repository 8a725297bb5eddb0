#include "server/sync_server.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace ntier::server {

sim::SlabPool<SyncServer::Ctx>& SyncServer::ctx_pool() {
  thread_local sim::SlabPool<Ctx> pool;
  return pool;
}

SyncServer::SyncServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
                       const AppProfile* profile,
                       std::function<Program(const RequestClassProfile&)> program_fn,
                       SyncConfig cfg)
    : Server(sim, std::move(name), vm, profile, std::move(program_fn)),
      cfg_(cfg),
      site_dbpool_(name_ + ":dbpool"),
      site_cookie_(name_ + ":syncookie"),
      threads_(cfg.threads_per_process),
      accept_q_(cfg.backlog) {
  assert(cfg.threads_per_process > 0);
  accept_q_.set_mode(cfg_.admission);
  if (cfg_.db_pool > 0) pool_ = std::make_unique<ConnectionPool>(cfg_.db_pool);
  arm_gc(sim_, *vm_, cfg_.overhead, [this] { return busy_; });
}

bool SyncServer::do_offer(Job job) {
  note_offer();
  if (busy_ < threads_) {
    note_accept();
    const std::uint64_t hop = trace_open(job.req, trace::SpanKind::kHop, name_,
                                         job.parent_span, sim_.now());
    start(std::move(job), hop);
    return true;
  }
  const auto admit = accept_q_.try_admit(sim_.now());
  if (admit != net::TcpQueue::Admit::kDrop) {
    note_accept();
    Queued q;
    q.hop = trace_open(job.req, trace::SpanKind::kHop, name_, job.parent_span,
                       sim_.now());
    q.qspan = trace_open(job.req, trace::SpanKind::kAcceptQueue, name_, q.hop,
                         sim_.now());
    q.enq = sim_.now();
    q.cookie = (admit == net::TcpQueue::Admit::kCookie);
    q.job = std::move(job);
    backlog_q_.push_back(std::move(q));
    check_spawn();
    return true;
  }
  if (cfg_.shed_on_overload) {
    // Fail fast: a canned overload error costs no worker and no queue
    // slot; the sender sees an accepted-and-answered request.
    ++shed_;
    job.req->failed = true;
    trace_instant(job.req, trace::SpanKind::kDrop, name_, job.parent_span,
                  sim_.now(), /*detail=*/2);
    auto jr = job_pool().make(std::move(job));
    sim_.after(sim::Duration::micros(50), [jr] { jr->reply(jr->req); });
    check_spawn();
    return true;
  }
  note_drop();
  trace_instant(job.req, trace::SpanKind::kDrop, name_, job.parent_span,
                sim_.now(), /*detail=*/0);
  check_spawn();
  return false;
}

void SyncServer::start(Job job, std::uint64_t hop, bool cookie) {
  ++busy_;
  if (busy_ == threads_ && exhausted_since_ == sim::Time::max())
    exhausted_since_ = sim_.now();
  CtxPtr ctx = ctx_pool().make();
  ctx->prog = &program_for(*job.req);
  ctx->job = std::move(job);
  ctx->hop = hop;
  if (cookie && cfg_.cookie_penalty > sim::Duration::zero()) {
    // SYN-cookie slow path: the worker reconstructs the connection state
    // (cookie decode, option recovery) before the request program runs —
    // the "accepted but slow" cost that replaced the drop.
    const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kService,
                                        site_cookie_, ctx->hop, sim_.now());
    vm_->submit(cfg_.cookie_penalty, [this, ctx, sp] {
      trace_close(ctx->job.req, sp, sim_.now());
      run_step(ctx);
    });
    return;
  }
  run_step(ctx);
}

void SyncServer::start_queued(Queued q) {
  trace_close(q.job.req, q.qspan, sim_.now());
  start(std::move(q.job), q.hop, q.cookie);
}

void SyncServer::run_step(const CtxPtr& ctx) {
  if (ctx->pc >= ctx->prog->size()) {
    finish(ctx);
    return;
  }
  const WorkStep& step = (*ctx->prog)[ctx->pc];
  switch (step.kind) {
    case WorkStep::Kind::kCpu: {
      if (step.amount <= sim::Duration::zero()) {
        ++ctx->pc;
        run_step(ctx);
        return;
      }
      const auto demand = cfg_.overhead.inflate(step.amount, busy_);
      // The service span includes CPU-contention stall (demand vs wall
      // time inside VmCpu) — it measures occupancy, not pure work.
      const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kService,
                                          name_, ctx->hop, sim_.now());
      vm_->submit(demand, [this, ctx, sp] {
        trace_close(ctx->job.req, sp, sim_.now());
        ++ctx->pc;
        run_step(ctx);
      });
      return;
    }
    case WorkStep::Kind::kDisk: {
      assert(io_ != nullptr && "kDisk step requires attach_io()");
      const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kDisk,
                                          name_, ctx->hop, sim_.now());
      io_->submit_service(step.amount, [this, ctx, sp] {
        trace_close(ctx->job.req, sp, sim_.now());
        ++ctx->pc;
        run_step(ctx);
      });
      return;
    }
    case WorkStep::Kind::kDownstream: {
      if (ctx->job.req->degraded) {
        // Brownout: the degraded response skips the downstream chain.
        ++ctx->pc;
        run_step(ctx);
        return;
      }
      if (pool_) {
        // The worker thread blocks until a DB connection frees — this
        // wait is still *inside* the server (counted in queued_requests).
        ctx->sp = trace_open(ctx->job.req, trace::SpanKind::kPoolQueue,
                             site_dbpool_, ctx->hop, sim_.now());
        pool_->acquire([this, ctx] {
          trace_close(ctx->job.req, ctx->sp, sim_.now());
          ctx->sp = trace::kNoSpan;
          begin_downstream(ctx);
        });
      } else {
        begin_downstream(ctx);
      }
      return;
    }
  }
}

void SyncServer::begin_downstream(const CtxPtr& ctx) {
  dispatch_downstream(ctx->job.req, ctx->hop, [this, ctx] {
    if (pool_) pool_->release();
    ++ctx->pc;
    run_step(ctx);
  });
}

void SyncServer::finish(const CtxPtr& ctx) {
  note_reply();
  trace_close(ctx->job.req, ctx->hop, sim_.now());
  ctx->job.reply(ctx->job.req);
  worker_freed();
}

std::optional<SyncServer::Queued> SyncServer::take_from_backlog() {
  if (cfg_.edf && backlog_q_.size() > 1) {
    // EDF: rotate the earliest-deadline entry to the front so the FIFO
    // pop below (and the overload layer's sojourn accounting) serves
    // it. Time::max() (no deadline) naturally ranks last; strict <
    // keeps the FIFO order among equal deadlines.
    auto best = backlog_q_.begin();
    for (auto it = std::next(backlog_q_.begin()); it != backlog_q_.end(); ++it)
      if (it->job.req->deadline < best->job.req->deadline) best = it;
    if (best != backlog_q_.begin())
      std::rotate(backlog_q_.begin(), best, std::next(best));
  }
  return policy::overload::pop_next(
      overload(), backlog_q_, sim_.now(),
      [](const Queued& q) { return q.enq; },
      [this](Queued q) {
        accept_q_.pop();
        trace_close(q.job.req, q.qspan, sim_.now());
        trace_close(q.job.req, q.hop, sim_.now());
        shed_job(std::move(q.job), /*accepted=*/true, /*detail=*/2);
      });
}

void SyncServer::worker_freed() {
  --busy_;
  if (!backlog_q_.empty()) {
    if (auto next = take_from_backlog()) {
      accept_q_.pop();
      start_queued(std::move(*next));
    }
  }
  // The pool stays "exhausted" if the backlog immediately refilled the
  // freed worker; the timer only resets when capacity truly opened up.
  if (busy_ < threads_) exhausted_since_ = sim::Time::max();
}

void SyncServer::abort_queued() {
  while (!backlog_q_.empty()) {
    Queued q = std::move(backlog_q_.front());
    backlog_q_.pop_front();
    accept_q_.pop();
    trace_close(q.job.req, q.qspan, sim_.now());
    trace_close(q.job.req, q.hop, sim_.now());
    abort_job(std::move(q.job));
  }
  // Workers currently executing keep running (their state is lost to the
  // client anyway once the reply path refuses, but the simulation lets
  // them drain to keep CPU accounting simple).
}

void SyncServer::check_spawn() {
  if (processes_ >= cfg_.max_processes) return;
  if (exhausted_since_ == sim::Time::max()) return;
  if (sim_.now() - exhausted_since_ < cfg_.process_spawn_after) return;
  // Apache prefork: bring up another process worth of workers and let
  // them drain the backlog immediately.
  ++processes_;
  threads_ += cfg_.threads_per_process;
  exhausted_since_ = sim_.now();  // exhaustion timer restarts for the larger pool
  while (busy_ < threads_ && !backlog_q_.empty()) {
    auto next = take_from_backlog();
    if (!next) break;
    accept_q_.pop();
    start_queued(std::move(*next));
  }
}

}  // namespace ntier::server
