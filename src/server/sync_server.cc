#include "server/sync_server.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace ntier::server {

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

bool SyncServer::do_offer(const Job& job) {
  if (busy_ < threads_) {
    start(admit(job));
    return true;
  }
  const auto admit_as = accept_q_.try_admit(backlog_q_.size());
  if (admit_as != net::TcpQueue::Admit::kDrop) {
    VisitPtr v = admit(job);
    v->cookie = (admit_as == net::TcpQueue::Admit::kCookie);
    park(backlog_q_, std::move(v), trace::SpanKind::kAcceptQueue, name_);
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
    auto jr = job_pool().make(job);
    sim_.after(sim::Duration::micros(50), [jr] { jr->reply(jr->req); });
    check_spawn();
    return true;
  }
  refuse(job);
  check_spawn();
  return false;
}

void SyncServer::start(const VisitPtr& v) {
  ++busy_;
  if (busy_ == threads_ && exhausted_since_ == sim::Time::max())
    exhausted_since_ = sim_.now();
  if (v->cookie && cfg_.cookie_penalty > sim::Duration::zero()) {
    // SYN-cookie slow path: the worker reconstructs the connection state
    // (cookie decode, option recovery) before the request program runs —
    // the "accepted but slow" cost that replaced the drop.
    const std::uint64_t sp = trace_open(v->job.req, trace::SpanKind::kService,
                                        site_cookie_, v->hop, sim_.now());
    vm_->submit(cfg_.cookie_penalty, [this, v, sp] {
      trace_close(v->job.req, sp, sim_.now());
      run_program(v);
    });
    return;
  }
  run_program(v);
}

void SyncServer::on_downstream(const VisitPtr& v) {
  if (!pool_) {
    call_downstream(v);
    return;
  }
  // The worker thread blocks until a DB connection frees — this wait is
  // still *inside* the server (counted in queued_requests).
  v->wait = trace_open(v->job.req, trace::SpanKind::kPoolQueue, site_dbpool_, v->hop,
                       sim_.now());
  pool_->acquire([this, v] {
    trace_close(v->job.req, v->wait, sim_.now());
    call_downstream(v);
  });
}

void SyncServer::call_downstream(const VisitPtr& v) {
  dispatch_downstream(v->job.req, v->hop, [this, v] {
    if (pool_) pool_->release();
    ++v->pc;
    run_program(v);
  });
}

void SyncServer::on_finish(const VisitPtr&) {
  --busy_;
  if (VisitPtr next = take_backlog()) start(next);
  // The pool stays "exhausted" if the backlog immediately refilled the
  // freed worker; the timer only resets when capacity truly opened up.
  if (busy_ < threads_) exhausted_since_ = sim::Time::max();
}

Server::VisitPtr SyncServer::take_backlog() {
  if (cfg_.edf && backlog_q_.size() > 1) {
    // EDF: rotate the earliest-deadline entry to the front so the FIFO
    // pop (and the overload layer's sojourn accounting) serves it.
    // Time::max() (no deadline) naturally ranks last; strict < keeps
    // the FIFO order among equal deadlines.
    auto best = backlog_q_.begin();
    for (auto it = std::next(backlog_q_.begin()); it != backlog_q_.end(); ++it)
      if ((*it)->job.req->deadline < (*best)->job.req->deadline) best = it;
    if (best != backlog_q_.begin())
      std::rotate(backlog_q_.begin(), best, std::next(best));
  }
  return take_waiting(backlog_q_, /*fresh=*/true);
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
  while (busy_ < threads_) {
    VisitPtr next = take_backlog();
    if (!next) break;
    start(next);
  }
}

}  // namespace ntier::server
