// SyncServer: thread-per-request RPC server (Apache, Tomcat BIO, MySQL).
//
// A worker thread owns a request for its whole lifetime, *including*
// downstream RPC waits — the tight coupling the paper identifies as the
// CTQO enabler. Admission capacity is MaxSysQDepth = live threads + TCP
// backlog; beyond that packets drop. An optional process manager mimics
// Apache prefork: when every thread has been busy for a sustained
// period, another process (thread pool) is spawned, raising
// MaxSysQDepth (the 278 -> 428 second-level overflow in Fig 3(b)).
#pragma once

#include <deque>
#include <memory>

#include "cpu/thread_overhead.h"
#include "net/tcp_queue.h"
#include "server/connection_pool.h"
#include "server/server_base.h"

namespace ntier::server {

struct SyncConfig {
  std::size_t threads_per_process = 150;
  std::size_t max_processes = 1;
  // Spawn another process once the pool has been continuously exhausted
  // this long (only if max_processes allows).
  sim::Duration process_spawn_after = sim::Duration::seconds(2);
  std::size_t backlog = 128;  // TCP accept-queue capacity
  // Downstream connection pool size; 0 = unlimited (no pool).
  std::size_t db_pool = 0;
  cpu::ThreadOverheadModel overhead{};
  // Alternative design (§V-E adjacent): instead of letting TCP drop the
  // packet (3 s retransmit), reply with an immediate error ("503") when
  // MaxSysQDepth is full. Trades VLRT for explicit failures. Intended
  // for the client-facing tier.
  bool shed_on_overload = false;
  // Backlog dequeue discipline: false = FCFS (default, the paper's
  // accept queue), true = earliest-deadline-first — a freed worker
  // serves the queued request with the tightest absolute deadline;
  // requests without a deadline rank last, FIFO among equals. Graph
  // nodes select this with sched=edf (docs/TOPOLOGY.md).
  bool edf = false;
  // Accept-queue overflow behaviour (net/tcp_queue.h): kTcpDrop is the
  // paper's drop-and-retransmit kernel; kSynCookies admits the overflow
  // on the stateless slow path (costing `cookie_penalty` of extra CPU
  // per cookie-admitted request); kBypass never refuses (kernel-bypass
  // transports queue in userspace). Protocol profiles (net/protocol.h)
  // set both fields via core::apply_protocol or the graph grammar.
  net::AdmissionMode admission = net::AdmissionMode::kTcpDrop;
  sim::Duration cookie_penalty = sim::Duration::zero();
};

class SyncServer : public Server {
 public:
  SyncServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
             const AppProfile* profile,
             std::function<Program(const RequestClassProfile&)> program_fn,
             SyncConfig cfg);

  std::size_t busy_workers() const override { return busy_; }
  std::size_t backlog_depth() const override { return backlog_q_.size(); }
  std::size_t max_sys_q_depth() const override { return threads_ + accept_q_.capacity(); }
  std::size_t thread_count() const { return threads_; }
  std::size_t process_count() const { return processes_; }
  // Requests answered with an immediate overload error (shed mode).
  std::uint64_t shed_count() const { return shed_; }
  // Accept queue, for admission-mode telemetry (cookie_admits probe).
  const net::TcpQueue* accept_queue() const override { return &accept_q_; }
  ConnectionPool* pool() { return pool_ ? pool_.get() : nullptr; }
  const SyncConfig& config() const { return cfg_; }

 protected:
  bool do_offer(const Job& job) override;
  // Crash: the TCP backlog is lost with the process — every queued-but-
  // unstarted job is answered with a connection-reset failure.
  void abort_queued() override { abort_waiting(backlog_q_); }
  // Thread-overhead inflation of CPU demand with the busy worker count.
  sim::Duration cpu_demand(sim::Duration amount) const override {
    return cfg_.overhead.inflate(amount, busy_);
  }
  // The worker blocks for a DB connection (when pooled), then for the
  // downstream reply.
  void on_downstream(const VisitPtr& v) override;
  // The worker is freed and takes the next backlog entry.
  void on_finish(const VisitPtr& v) override;

 private:
  // Occupies a worker with `v` and runs its program (after the SYN-
  // cookie slow path, for a cookie admit).
  void start(const VisitPtr& v);
  void call_downstream(const VisitPtr& v);
  // Pops the next backlog entry: EDF picks the earliest deadline, then
  // the overload controller's discipline applies; null when none left.
  VisitPtr take_backlog();
  void check_spawn();

  SyncConfig cfg_;
  const std::string site_dbpool_;  // "<name>:dbpool" (built once)
  const std::string site_cookie_;  // "<name>:syncookie" (built once)
  std::size_t threads_;     // current total across processes
  std::size_t processes_ = 1;
  std::size_t busy_ = 0;
  net::TcpQueue accept_q_;
  std::deque<VisitPtr> backlog_q_;
  std::unique_ptr<ConnectionPool> pool_;
  sim::Time exhausted_since_ = sim::Time::max();
  std::uint64_t shed_ = 0;
};

}  // namespace ntier::server
