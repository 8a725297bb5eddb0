#include "server/async_server.h"

#include <cassert>

namespace ntier::server {

sim::SlabPool<AsyncServer::Ctx>& AsyncServer::ctx_pool() {
  thread_local sim::SlabPool<Ctx> pool;
  return pool;
}

AsyncServer::AsyncServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
                         const AppProfile* profile,
                         std::function<Program(const RequestClassProfile&)> program_fn,
                         AsyncConfig cfg)
    : Server(sim, std::move(name), vm, profile, std::move(program_fn)), cfg_(cfg) {
  assert(cfg.max_active > 0);
}

bool AsyncServer::do_offer(Job job) {
  note_offer();
  if (in_system_ >= cfg_.lite_q_depth) {
    note_drop();
    trace_instant(job.req, trace::SpanKind::kDrop, name_, job.parent_span,
                  sim_.now(), /*detail=*/0);
    return false;
  }
  note_accept();
  CtxPtr ctx = ctx_pool().make();
  ctx->prog = &program_for(*job.req);
  ctx->job = std::move(job);
  ctx->hop = trace_open(ctx->job.req, trace::SpanKind::kHop, name_,
                        ctx->job.parent_span, sim_.now());
  ctx->qspan = trace_open(ctx->job.req, trace::SpanKind::kPoolQueue, name_,
                          ctx->hop, sim_.now());
  ctx->enq = sim_.now();
  wait_q_.push_back(std::move(ctx));
  pump();
  return true;
}

void AsyncServer::abort_queued() {
  while (!wait_q_.empty()) {
    CtxPtr ctx = std::move(wait_q_.front());
    wait_q_.pop_front();
    trace_close(ctx->job.req, ctx->qspan, sim_.now());
    trace_close(ctx->job.req, ctx->hop, sim_.now());
    abort_job(std::move(ctx->job));
  }
}

void AsyncServer::pump() {
  while (active_ < cfg_.max_active && (!resume_q_.empty() || !wait_q_.empty())) {
    CtxPtr ctx;
    if (!resume_q_.empty()) {  // resumed work first (completions beat arrivals)
      ctx = std::move(resume_q_.front());
      resume_q_.pop_front();
    } else {
      // Fresh arrivals go through the overload queue discipline
      // (adaptive-LIFO pick, CoDel / stale-sojourn sheds); resumed work
      // is committed and is never shed here.
      auto next = policy::overload::pop_next(
          overload(), wait_q_, sim_.now(),
          [](const CtxPtr& c) { return c->enq; },
          [this](CtxPtr c) {
            trace_close(c->job.req, c->qspan, sim_.now());
            trace_close(c->job.req, c->hop, sim_.now());
            shed_job(std::move(c->job), /*accepted=*/true, /*detail=*/2);
          });
      if (!next) break;
      ctx = std::move(*next);
    }
    ++active_;
    trace_close(ctx->job.req, ctx->qspan, sim_.now());
    ctx->qspan = trace::kNoSpan;
    run_step(ctx);
  }
}

void AsyncServer::run_step(const CtxPtr& ctx) {
  if (ctx->pc >= ctx->prog->size()) {
    note_reply();
    trace_close(ctx->job.req, ctx->hop, sim_.now());
    ctx->job.reply(ctx->job.req);
    release_slot();
    pump();
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
      const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kService,
                                          name_, ctx->hop, sim_.now());
      vm_->submit(step.amount, [this, ctx, sp] {
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
      // Event-driven call: park the request, free the slot, continue via
      // the callback when the reply lands (Fig 14's eventHandler).
      release_slot();
      dispatch_downstream(ctx->job.req, ctx->hop, [this, ctx] {
        ++ctx->pc;
        // The reply landed but the event loop may be saturated: the wait
        // for an active slot is another run-queue span.
        ctx->qspan = trace_open(ctx->job.req, trace::SpanKind::kPoolQueue,
                                name_, ctx->hop, sim_.now());
        resume_q_.push_back(ctx);
        pump();
      });
      pump();
      return;
    }
  }
}

}  // namespace ntier::server
