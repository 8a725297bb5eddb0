#include "server/staged_server.h"

#include <cassert>

namespace ntier::server {

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

bool StagedServer::do_offer(const Job& job) {
  if (ingress_q_.size() >= cfg_.ingress.queue_cap) return refuse(job);
  park(ingress_q_, admit(job), trace::SpanKind::kPoolQueue, site_ingress_);
  pump();
  return true;
}

void StagedServer::pump() {
  // Continuation stage first: completing in-flight work frees memory and
  // replies upstream (SEDA's output stages run ahead of accept stages).
  // It is committed and never shed; ingress (fresh arrivals) goes
  // through the overload queue discipline.
  while (cont_active_ < cfg_.continuation.threads) {
    VisitPtr v = take_waiting(cont_q_, /*fresh=*/false);
    if (!v) break;
    ++cont_active_;
    run_program(v);
  }
  while (ingress_active_ < cfg_.ingress.threads) {
    VisitPtr v = take_waiting(ingress_q_, /*fresh=*/true);
    if (!v) break;
    ++ingress_active_;
    run_program(v);
  }
}

void StagedServer::on_downstream(const VisitPtr& v) {
  release(*v);
  dispatch_downstream(v->job.req, v->hop, [this, v] {
    ++v->pc;
    v->cont = true;
    park(cont_q_, v, trace::SpanKind::kPoolQueue, site_cont_);
    pump();
  });
  pump();
}

}  // namespace ntier::server
