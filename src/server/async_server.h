// AsyncServer: event-driven server (Nginx, XTomcat, XMySQL/InnoDB).
//
// No thread is held across a downstream call: a request parks in the
// server while its query is outstanding, and a lightweight queue of
// LiteQDepth (65535 connections for Nginx/XTomcat, 2000 InnoDB wait
// slots for XMySQL) bounds admission — in practice never reached, so
// the server does not drop packets during millibottlenecks. The flip
// side reproduced here: after a freeze ends, all parked requests
// dispatch their downstream queries nearly at once (only the small
// `pre` CPU in front), flooding a synchronous downstream tier — the
// batch-release downstream CTQO of Fig 9.
#pragma once

#include <deque>
#include <memory>

#include "server/server_base.h"

namespace ntier::server {

struct AsyncConfig {
  // Admission bound (the paper's LiteQDepth).
  std::size_t lite_q_depth = 65535;
  // Concurrent requests allowed in a CPU/disk processing step. InnoDB
  // runs 8 worker threads; pure event loops are effectively unbounded
  // (set high).
  std::size_t max_active = 4096;
};

class AsyncServer : public Server {
 public:
  AsyncServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
              const AppProfile* profile,
              std::function<Program(const RequestClassProfile&)> program_fn,
              AsyncConfig cfg);

  std::size_t busy_workers() const override { return active_; }
  std::size_t backlog_depth() const override { return wait_q_.size() + resume_q_.size(); }
  std::size_t max_sys_q_depth() const override { return cfg_.lite_q_depth; }
  std::size_t lite_q_depth() const { return cfg_.lite_q_depth; }
  const AsyncConfig& config() const { return cfg_; }

 protected:
  bool do_offer(const Job& job) override;
  // Crash: parked-but-unstarted connections are reset with a failure
  // reply; work already in a processing step drains.
  void abort_queued() override { abort_waiting(wait_q_); }
  // Event-driven call: the request parks and frees its active slot; the
  // reply re-enters through the resume queue (Fig 14's eventHandler).
  void on_downstream(const VisitPtr& v) override;
  void on_finish(const VisitPtr&) override {
    --active_;
    pump();
  }

 private:
  // Starts waiting visits while an active slot is free.
  void pump();

  AsyncConfig cfg_;
  std::size_t active_ = 0;
  std::deque<VisitPtr> wait_q_;    // admitted, not yet started
  std::deque<VisitPtr> resume_q_;  // downstream reply arrived, continue
};

}  // namespace ntier::server
