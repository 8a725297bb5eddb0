// StagedServer: SEDA-style staged event-driven server.
//
// The paper's related work spans the events-vs-threads debate (SEDA
// [33], Capriccio-style threads [29]); SEDA is the classic middle point
// between our SyncServer and AsyncServer: request processing is split
// into stages, each with its own *bounded* event queue and a small
// thread pool, and downstream I/O never blocks a stage thread.
//
// Two stages model a tier: `ingress` runs the work up to the first
// downstream call; `continuation` runs everything after a downstream
// reply. Admission overflow at the ingress queue is a dropped packet
// (SEDA sheds at stage boundaries); continuation work — replies already
// inside the server — is never shed.
//
// Compared on the paper's millibottleneck scenarios, a staged tier sits
// between sync (MaxSysQDepth ~ 10^2) and async (LiteQDepth ~ 10^4-10^5):
// its bounded stage queue postpones CTQO roughly in proportion to the
// queue cap (bench/ext_seda).
#pragma once

#include <deque>
#include <memory>

#include "server/server_base.h"

namespace ntier::server {

struct StageConfig {
  std::size_t queue_cap = 1000;  // bounded event queue (admission bound)
  std::size_t threads = 16;      // stage thread pool
};

struct StagedConfig {
  StageConfig ingress{};
  StageConfig continuation{};
};

class StagedServer : public Server {
 public:
  StagedServer(sim::Simulation& sim, std::string name, cpu::VmCpu* vm,
               const AppProfile* profile,
               std::function<Program(const RequestClassProfile&)> program_fn,
               StagedConfig cfg);

  std::size_t busy_workers() const override { return ingress_active_ + cont_active_; }
  std::size_t backlog_depth() const override {
    return ingress_q_.size() + cont_q_.size();
  }
  std::size_t max_sys_q_depth() const override {
    return cfg_.ingress.queue_cap + cfg_.ingress.threads;
  }
  const StagedConfig& config() const { return cfg_; }

 protected:
  bool do_offer(const Job& job) override;
  // Crash: the bounded ingress queue is dropped with failure replies;
  // continuation work (already past a downstream round trip) drains.
  void abort_queued() override { abort_waiting(ingress_q_); }
  // Releases the stage thread; the reply re-enters through the
  // continuation queue (unbounded: the request is already ours).
  void on_downstream(const VisitPtr& v) override;
  void on_finish(const VisitPtr& v) override {
    release(*v);
    pump();
  }

 private:
  // Starts waiting visits while their stage has a free thread,
  // continuation stage first.
  void pump();
  void release(const Visit& v) { --(v.cont ? cont_active_ : ingress_active_); }

  StagedConfig cfg_;
  const std::string site_ingress_;  // "<name>:ingress" (built once)
  const std::string site_cont_;     // "<name>:cont" (built once)
  std::deque<VisitPtr> ingress_q_;
  std::deque<VisitPtr> cont_q_;
  std::size_t ingress_active_ = 0;
  std::size_t cont_active_ = 0;
};

}  // namespace ntier::server
