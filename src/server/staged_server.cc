#include "server/staged_server.h"

#include <cassert>

namespace ntier::server {

sim::SlabPool<StagedServer::Ctx>& StagedServer::ctx_pool() {
  thread_local sim::SlabPool<Ctx> pool;
  return pool;
}

StagedServer::StagedServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
                           const AppProfile* profile,
                           std::function<Program(const RequestClassProfile&)> program_fn,
                           StagedConfig cfg)
    : Server(sim, std::move(name), vm, profile, std::move(program_fn)),
      cfg_(cfg),
      site_ingress_(name_ + ":ingress"),
      site_cont_(name_ + ":cont") {
  assert(cfg.ingress.threads > 0 && cfg.continuation.threads > 0);
}

bool StagedServer::do_offer(Job job) {
  note_offer();
  if (ingress_q_.size() >= cfg_.ingress.queue_cap) {
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
  ctx->qspan = trace_open(ctx->job.req, trace::SpanKind::kPoolQueue,
                          site_ingress_, ctx->hop, sim_.now());
  ctx->enq = sim_.now();
  ingress_q_.push_back(std::move(ctx));
  pump();
  return true;
}

void StagedServer::abort_queued() {
  while (!ingress_q_.empty()) {
    CtxPtr ctx = std::move(ingress_q_.front());
    ingress_q_.pop_front();
    trace_close(ctx->job.req, ctx->qspan, sim_.now());
    trace_close(ctx->job.req, ctx->hop, sim_.now());
    abort_job(std::move(ctx->job));
  }
}

void StagedServer::pump() {
  // Continuation stage first: completing in-flight work frees memory and
  // replies upstream (SEDA's output stages run ahead of accept stages).
  while (cont_active_ < cfg_.continuation.threads && !cont_q_.empty()) {
    CtxPtr ctx = std::move(cont_q_.front());
    cont_q_.pop_front();
    ++cont_active_;
    trace_close(ctx->job.req, ctx->qspan, sim_.now());
    ctx->qspan = trace::kNoSpan;
    run_step(ctx, /*continuation_stage=*/true);
  }
  while (ingress_active_ < cfg_.ingress.threads && !ingress_q_.empty()) {
    // Ingress (fresh arrivals) goes through the overload queue
    // discipline; continuation work above is committed, never shed.
    auto next = policy::overload::pop_next(
        overload(), ingress_q_, sim_.now(),
        [](const CtxPtr& c) { return c->enq; },
        [this](CtxPtr c) {
          trace_close(c->job.req, c->qspan, sim_.now());
          trace_close(c->job.req, c->hop, sim_.now());
          shed_job(std::move(c->job), /*accepted=*/true, /*detail=*/2);
        });
    if (!next) break;
    CtxPtr ctx = std::move(*next);
    ++ingress_active_;
    trace_close(ctx->job.req, ctx->qspan, sim_.now());
    ctx->qspan = trace::kNoSpan;
    run_step(ctx, /*continuation_stage=*/false);
  }
}

void StagedServer::run_step(const CtxPtr& ctx, bool continuation_stage) {
  if (ctx->pc >= ctx->prog->size()) {
    finish(ctx, continuation_stage);
    return;
  }
  const WorkStep& step = (*ctx->prog)[ctx->pc];
  switch (step.kind) {
    case WorkStep::Kind::kCpu: {
      if (step.amount <= sim::Duration::zero()) {
        ++ctx->pc;
        run_step(ctx, continuation_stage);
        return;
      }
      const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kService,
                                          name_, ctx->hop, sim_.now());
      vm_->submit(step.amount, [this, ctx, sp, continuation_stage] {
        trace_close(ctx->job.req, sp, sim_.now());
        ++ctx->pc;
        run_step(ctx, continuation_stage);
      });
      return;
    }
    case WorkStep::Kind::kDisk: {
      assert(io_ != nullptr && "kDisk step requires attach_io()");
      const std::uint64_t sp = trace_open(ctx->job.req, trace::SpanKind::kDisk,
                                          name_, ctx->hop, sim_.now());
      io_->submit_service(step.amount, [this, ctx, sp, continuation_stage] {
        trace_close(ctx->job.req, sp, sim_.now());
        ++ctx->pc;
        run_step(ctx, continuation_stage);
      });
      return;
    }
    case WorkStep::Kind::kDownstream: {
      if (ctx->job.req->degraded) {
        // Brownout: the degraded response skips the downstream chain
        // while keeping its stage slot (no work left to wait on).
        ++ctx->pc;
        run_step(ctx, continuation_stage);
        return;
      }
      // Release this stage's slot; the reply re-enters via the
      // continuation queue (unbounded: the request is already ours).
      if (continuation_stage) {
        --cont_active_;
      } else {
        --ingress_active_;
      }
      dispatch_downstream(ctx->job.req, ctx->hop, [this, ctx] {
        ++ctx->pc;
        ctx->qspan = trace_open(ctx->job.req, trace::SpanKind::kPoolQueue,
                                site_cont_, ctx->hop, sim_.now());
        cont_q_.push_back(ctx);
        pump();
      });
      pump();
      return;
    }
  }
}

void StagedServer::finish(const CtxPtr& ctx, bool continuation_stage) {
  note_reply();
  trace_close(ctx->job.req, ctx->hop, sim_.now());
  ctx->job.reply(ctx->job.req);
  if (continuation_stage) {
    --cont_active_;
  } else {
    --ingress_active_;
  }
  pump();
}

}  // namespace ntier::server
