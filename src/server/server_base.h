// Server: common machinery for every tier server model.
//
// A server admits Jobs (offer); admission can fail — that is a dropped
// packet, the central event of the paper. Each server runs on a VmCpu,
// may own an IoDevice for its disk steps, and may have one downstream
// server reached through a retransmitting Transport (the RPC chain) —
// or, for graph topologies (src/graph), a set of fan-out Routes, each
// with its own transport and a per-attempt replica picker; a
// kDownstream step then contacts every route in parallel and resumes
// at the fan-in barrier.
//
// Three cross-cutting layers hang off this base:
//  - the fault gate (set_down): a crashed server refuses every packet
//    (counted as drops -> sender retransmits) and can abort queued work;
//  - the tail-tolerance policy layer (enable_tail_policy): deadline
//    enforcement at admission, and on the downstream hop a GovernedHop
//    (server/governed_call.h, the engine the client hop shares) that
//    runs attempts, hedges, attempt timeouts and retries; a call it
//    refuses before the send (deadline cancel, breaker reject) unwinds
//    here through a zero-delay event — note that with a policy enabled
//    a "failed" request can be a breaker fast-fail or a deadline
//    cancel, not only an exhausted retransmission;
//  - the tracing layer (trace/span.h): when a request carries a span
//    tree, every admission records a hop span under the sender-provided
//    Job::parent_span, dispatch_downstream records the downstream-wait
//    span plus RTO-gap and policy-event child spans, and the concrete
//    server models add queue-wait and service spans. Untraced requests
//    skip all of it (null-pointer test per site), and tracing schedules
//    no events and draws no randomness — a traced run is event-for-event
//    identical to an untraced one at the same seed.
//
// One interpreter runs every model. A request's pass through a server
// is a slab-pooled Visit (job, program counter, open spans), and
// run_program executes its CPU and disk steps and sends the reply. The
// models differ only in admission and slot accounting: SyncServer's
// worker keeps its thread across the downstream call, while
// AsyncServer and StagedServer park the visit and resume it from a
// queue. Each model plugs in through three hooks (cpu_demand,
// on_downstream, on_finish) and keeps its waiting queues as deques of
// visits, using admit, park, take_waiting and abort_waiting.
//
// Hot-path memory: visits, downstream calls (server::Call) and fan-in
// barriers are slab-pooled and every callback is an InlineFn, so a
// steady-state request costs no allocations here while the waiting
// queues stay empty (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/host_core.h"
#include "cpu/io_device.h"
#include "net/link.h"
#include "net/rto_policy.h"
#include "net/tcp_queue.h"
#include "net/transport.h"
#include "policy/overload/overload.h"
#include "policy/tail_policy.h"
#include "server/app_profile.h"
#include "server/governed_call.h"
#include "server/request.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace ntier::server {

namespace detail {
struct JoinState;  // fan-out barrier bookkeeping (slab-pooled)
}  // namespace detail

class Server {
 public:
  struct Stats {
    std::uint64_t offered = 0;    // admission attempts (incl. retransmits)
    std::uint64_t accepted = 0;   // jobs admitted
    std::uint64_t dropped = 0;    // admission refusals (dropped packets)
    std::uint64_t completed = 0;  // jobs replied
    // Downstream dispatches that settled as failures: retransmission
    // exhausted, or (policy layer) breaker fast-fail / deadline cancel /
    // retry budget exhausted.
    std::uint64_t failed = 0;
    // --- resilience layer ---
    std::uint64_t refused_down = 0;  // packets refused while crashed
    std::uint64_t expired = 0;       // cancelled at admission: deadline passed
    std::uint64_t aborted = 0;       // queued work reset by a crash
  };

  // `program_fn` maps a request class to this tier's work program.
  Server(sim::Simulation& sim, std::string name, cpu::VmCpu* vm, const AppProfile* profile,
         std::function<Program(const RequestClassProfile&)> program_fn);
  virtual ~Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Attempts to admit one job. Returns false when the packet is dropped
  // (sender will retransmit per its RtoPolicy). Applies the crash gate
  // and deadline cancellation before the model-specific admission.
  bool offer(const Job& job);

  // Wires the downstream hop of the RPC/async chain.
  void connect_downstream(Server* next, net::RtoPolicy rto, net::Link link);

  // --- fan-out routes (graph topologies; src/graph) -----------------------
  // One fan-out edge of a service graph: `pick` selects the destination
  // server for each delivery attempt — replica load balancing re-picks
  // on every retransmit, policy retry, and hedge copy — over the
  // route's own retransmitting Transport. `label` names the edge in
  // trace spans ("front->db").
  struct Route {
    std::function<Server*()> pick;
    std::unique_ptr<net::Transport> transport;
    std::string label;
  };

  // Adds one fan-out route. A server with routes dispatches every
  // kDownstream step to ALL routes in parallel and resumes at the
  // fan-in barrier once the last route settles (a failed route marks
  // the request failed but the barrier still waits for every sibling).
  // Mutually exclusive with connect_downstream, which remains the
  // single-downstream fast path used by chain topologies — a server
  // with no routes runs the exact pre-graph dispatch code.
  void add_route(std::function<Server*()> pick, net::RtoPolicy rto, net::Link link,
                 std::string label);
  std::size_t route_count() const { return routes_.size(); }
  // Route access for telemetry/fault wiring (index < route_count()).
  net::Transport* route_transport(std::size_t i) { return routes_.at(i).transport.get(); }
  const std::string& route_label(std::size_t i) const { return routes_.at(i).label; }
  // Attaches a disk for kDisk steps (DB tier, collectl flush target).
  void attach_io(cpu::IoDevice* dev) { io_ = dev; }

  // --- fault gate (driven by fault::FaultInjector) ------------------------
  // A down server refuses every connection; with abort_queued, work that
  // was admitted but not yet started is answered with a connection-reset
  // failure at crash time (in-flight work lost), otherwise it drains.
  void set_down(bool down, bool abort_queued_work = false);
  bool is_down() const { return down_; }

  // --- tail-tolerance policy for the downstream hop -----------------------
  // `rng` feeds backoff jitter; fork it from the experiment master seed.
  void enable_tail_policy(const policy::TailPolicy& p, sim::Rng rng);
  policy::HopGovernor* governor() { return governed_ ? &governed_->governor() : nullptr; }
  const policy::HopGovernor* governor() const {
    return governed_ ? &governed_->governor() : nullptr;
  }

  // --- overload control (admission + queue management) --------------------
  // Installs an AdmissionController consulted in offer() (queue cap,
  // token bucket, brownout) and at the model's dequeue sites (CoDel,
  // adaptive-LIFO). No-op for a kNone policy: the run stays event-
  // identical to a build without the overload layer.
  void enable_overload_control(const policy::overload::OverloadPolicy& p);
  policy::overload::AdmissionController* overload() {
    return overload_ ? overload_.get() : nullptr;
  }
  const policy::overload::AdmissionController* overload() const {
    return overload_ ? overload_.get() : nullptr;
  }

  // --- observability -----------------------------------------------------
  const std::string& name() const { return name_; }
  cpu::VmCpu* vm() const { return vm_; }
  cpu::IoDevice* io() const { return io_; }
  const Stats& stats() const { return stats_; }
  // Total requests inside this server (the paper's "queued requests"
  // per-tier series; bounded by MaxSysQDepth for sync servers).
  std::size_t queued_requests() const { return in_system_; }
  virtual std::size_t busy_workers() const = 0;
  virtual std::size_t backlog_depth() const = 0;
  // Current admission capacity: thread pool + TCP backlog for sync
  // servers (the paper's MaxSysQDepth), LiteQDepth for async ones.
  virtual std::size_t max_sys_q_depth() const = 0;
  // Timestamps of every admission drop at this server.
  const std::vector<sim::Time>& drop_times() const { return drop_times_; }
  // The kernel accept queue, when this server model has one (sync
  // servers); null for async/staged models. Used by the telemetry layer
  // to publish the SYN-cookie slow-path counter for non-drop admission
  // modes (net/tcp_queue.h) without perturbing default runs.
  virtual const net::TcpQueue* accept_queue() const { return nullptr; }
  net::Transport* downstream_transport() { return transport_ ? transport_.get() : nullptr; }
  Server* downstream() const { return downstream_; }

 protected:
  // One request's pass through this server: the admitted job, its
  // per-class program and program counter, and its open trace spans.
  // Slab-pooled; waiting queues and event closures hold a 16-byte ref.
  struct Visit {
    Job job;
    const Program* prog = nullptr;
    std::size_t pc = 0;
    std::uint64_t hop = trace::kNoSpan;   // this server's visit span
    std::uint64_t wait = trace::kNoSpan;  // open queue or pool wait span
    sim::Time enq{};      // queue entry time (overload sojourn accounting)
    bool cookie = false;  // sync: admitted on the SYN-cookie slow path
    bool cont = false;    // staged: holds a continuation-stage thread
  };
  using VisitPtr = sim::PoolRef<Visit>;

  // Model-specific admission (thread pool, lite queue, staged ingress).
  virtual bool do_offer(const Job& job) = 0;
  // Crash hook: abort_waiting on the model's queue of unstarted work.
  virtual void abort_queued() = 0;

  // --- the interpreter's hooks ---------------------------------------------
  // The CPU demand of a kCpu step of `amount` (SyncServer inflates it
  // with its per-thread overhead).
  virtual sim::Duration cpu_demand(sim::Duration amount) const { return amount; }
  // A kDownstream step of a request that is not degraded: dispatch it,
  // then resume with ++pc and run_program.
  virtual void on_downstream(const VisitPtr& v) = 0;
  // After the reply: frees the visit's slot.
  virtual void on_finish(const VisitPtr& v) = 0;

  // Counts the admission and opens the visit's hop span. The visit
  // holds the request's one copy of the offered job.
  VisitPtr admit(const Job& job);
  // Runs the program from v->pc: kCpu and kDisk steps, kDownstream via
  // on_downstream (skipped for a brownout-degraded request), then the
  // reply and on_finish.
  void run_program(const VisitPtr& v);
  // Appends `v` to a waiting queue, opening its wait span.
  void park(std::deque<VisitPtr>& q, VisitPtr v, trace::SpanKind kind, const std::string& site);
  // Pops the next visit and closes its wait span; null when none is
  // left. A `fresh` queue of unstarted arrivals goes through the
  // overload controller's discipline (adaptive-LIFO picks, CoDel and
  // stale sheds); resumed work is committed and leaves FIFO.
  VisitPtr take_waiting(std::deque<VisitPtr>& q, bool fresh);
  // Answers every visit on `q` with a connection-reset failure (a crash
  // loses work that has not started).
  void abort_waiting(std::deque<VisitPtr>& q);
  // Refuses the offered packet: counts and traces the drop; returns false.
  bool refuse(const Job& job);

  // Sends the request downstream with retransmission-on-drop; `on_reply`
  // fires after the downstream tier replies (return-link latency
  // included). On permanent failure the request is marked failed and
  // `on_reply` still fires so the chain unwinds. When a tail policy is
  // enabled this also applies deadline fast-fail, breaker fast-fail,
  // retries with backoff, and hedged duplicates (first reply wins).
  // `parent_span` is the caller's hop span (trace::kNoSpan when the
  // request is untraced): the downstream-wait span, RTO gaps, and policy
  // events recorded here nest under it, and the downstream tier's hop
  // nests under the downstream-wait span via Job::parent_span.
  void dispatch_downstream(const RequestPtr& req, std::uint64_t parent_span,
                           sim::EventFn on_reply);

  sim::Simulation& sim_;
  std::string name_;
  cpu::VmCpu* vm_;

 private:
  void note_drop() {
    ++stats_.dropped;
    drop_times_.push_back(sim_.now());
  }
  void note_reply() { ++stats_.completed; --in_system_; }
  // Answers `job` with a retryable overload rejection: marks it
  // failed + overload_shed and replies after a tiny fixed service cost
  // (an error page is cheap but still crosses the wire). `accepted` says
  // whether the job was already admitted (dequeue-time shed), so the
  // accepted == completed + in-system invariant holds either way.
  // `detail` distinguishes the shed site in the trace (0 = admission,
  // 2 = dequeue).
  void shed_job(Job job, bool accepted, int detail);
  // Completes a CPU or disk step: closes its span and runs on.
  void step_done(const VisitPtr& v, std::uint64_t span);
  static sim::SlabPool<Visit>& visit_pool();

  cpu::IoDevice* io_ = nullptr;
  std::vector<Program> programs_;  // one per request class, built once

  Server* downstream_ = nullptr;
  std::unique_ptr<net::Transport> transport_;
  std::vector<Route> routes_;
  std::unique_ptr<GovernedHop> governed_;
  std::unique_ptr<policy::overload::AdmissionController> overload_;
  bool down_ = false;

  Stats stats_;
  std::size_t in_system_ = 0;
  std::vector<sim::Time> drop_times_;

  // One route's worth of dispatch (route == nullptr: the legacy single
  // connect_downstream hop). All policy/trace machinery is shared.
  void dispatch_via(Route* route, const RequestPtr& req, std::uint64_t parent_span,
                    sim::EventFn on_reply);
  // Closes the call's downstream-wait span and resumes the caller.
  void unwind(Call& c);
};

}  // namespace ntier::server
