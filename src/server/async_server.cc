#include "server/async_server.h"

#include <cassert>

namespace ntier::server {

AsyncServer::AsyncServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
                         const AppProfile* profile,
                         std::function<Program(const RequestClassProfile&)> program_fn,
                         AsyncConfig cfg)
    : Server(sim, std::move(name), vm, profile, std::move(program_fn)), cfg_(cfg) {
  assert(cfg.max_active > 0);
}

bool AsyncServer::do_offer(const Job& job) {
  if (queued_requests() >= cfg_.lite_q_depth) return refuse(job);
  park(wait_q_, admit(job), trace::SpanKind::kPoolQueue, name_);
  pump();
  return true;
}

void AsyncServer::pump() {
  while (active_ < cfg_.max_active) {
    // Resumed work first (completions beat arrivals); it is committed
    // and never shed, while fresh arrivals go through the overload
    // queue discipline.
    VisitPtr v = take_waiting(resume_q_, /*fresh=*/false);
    if (!v) v = take_waiting(wait_q_, /*fresh=*/true);
    if (!v) return;
    ++active_;
    run_program(v);
  }
}

void AsyncServer::on_downstream(const VisitPtr& v) {
  --active_;
  dispatch_downstream(v->job.req, v->hop, [this, v] {
    ++v->pc;
    // The reply landed but the event loop may be saturated: the wait
    // for an active slot is another run-queue span.
    park(resume_q_, v, trace::SpanKind::kPoolQueue, name_);
    pump();
  });
  pump();
}

}  // namespace ntier::server
