// Experiment configuration: everything needed to reproduce a paper run.
//
// An ExperimentConfig is a pure value; the same config + seed always
// yields bit-identical artifacts (DESIGN.md invariant 9).
#pragma once

#include <cstdint>
#include <string>

#include "cpu/dvfs.h"
#include "cpu/thread_overhead.h"
#include "fault/fault_plan.h"
#include "monitor/collectl.h"
#include "net/protocol.h"
#include "net/rto_policy.h"
#include "obs/incident_monitor.h"
#include "policy/overload/overload.h"
#include "policy/tail_policy.h"
#include "server/app_profile.h"
#include "sim/time.h"
#include "trace/tracer.h"
#include "workload/sysbursty.h"

namespace ntier::core {

// NX = number of asynchronous servers, replaced front to back (paper §V).
enum class Architecture {
  kSync,  // NX=0: Apache - Tomcat  - MySQL
  kNx1,   // NX=1: Nginx  - Tomcat  - MySQL
  kNx2,   // NX=2: Nginx  - XTomcat - MySQL
  kNx3,   // NX=3: Nginx  - XTomcat - XMySQL
};
const char* to_string(Architecture a);

// The 3-tier testbed's tier positions, and their array index.
enum class Tier : int { kWeb = 0, kApp = 1, kDb = 2 };
constexpr int index(Tier t) { return static_cast<int>(t); }

// Where the millibottleneck comes from.
struct MillibottleneckSpec {
  enum class Kind {
    kNone,
    kConsolidationBatch,  // §V-B: fixed batches on a co-located VM
    kConsolidationMmpp,   // §IV-A: burst-index-100 tenant
    kLogFlush,            // §IV-B: collectl flush on the DB disk
    kGcPause,             // ref [32]: periodic JVM stop-the-world pauses
    kDvfs,                // ref [31]: slow frequency-governor ramp-up
  };
  Kind kind = Kind::kNone;
  Tier target = Tier::kApp;  // which tier's host the bursty VM shares
  // Scheduler weight of the bursty VM. The paper observes the bursty
  // tenant grabbing essentially the whole core ("requires 100% of CPU
  // during bursts", §IV-A), stopping the steady server "for a short
  // time"; a high weight reproduces that near-complete starvation in
  // our fluid fair-share model (bench/ablation_qdepth sweeps it).
  double interference_weight = 20.0;
  workload::InterferenceLoad::BatchConfig batch{};
  workload::InterferenceLoad::MmppConfig mmpp{};
  monitor::Collectl::Config logflush{};
  cpu::FreezeInjector::Config gc{};     // kGcPause, on `target`'s VM
  cpu::DvfsGovernor::Config dvfs{};     // kDvfs, on `target`'s host
};

// The server side: architecture, pool/queue sizing, hardware, and
// inter-tier networking (paper §III testbed parameters).
struct SystemConfig {
  // Which NX architecture to build.
  Architecture arch = Architecture::kSync;
  // Thread pools (sync tiers) — paper defaults.
  std::size_t web_threads = 150;
  std::size_t web_processes = 2;  // Apache prefork limit
  // Sustained pool exhaustion before prefork spawns another process.
  sim::Duration web_spawn_after = sim::Duration::from_seconds(1.5);
  std::size_t app_threads = 150;  // 165 in the NX=1 experiments
  std::size_t db_threads = 100;
  std::size_t backlog = 128;
  std::size_t db_pool = 50;  // Tomcat JDBC pool
  // Async bounds.
  std::size_t lite_q_web = 65535;
  std::size_t lite_q_app = 65535;
  std::size_t lite_q_db = 2000;  // InnoDB wait queue
  std::size_t db_async_threads = 8;
  // Hardware.
  int app_vcpus = 1;  // 4 in the log-flush experiments
  // Inter-tier networking. Fixed 3 s retransmission spacing reproduces
  // the paper's 3/6/9 s latency modes (k drops => ~3k s); rhel6() gives
  // strict exponential backoff instead (modes at 3/9 s per hop).
  net::RtoPolicy tier_rto = net::RtoPolicy::fixed3s();
  sim::Duration link_latency = sim::Duration::micros(200);
  // Accept-queue overflow behaviour at every sync tier, and the cookie
  // slow-path CPU cost when admission = kSynCookies (net/tcp_queue.h).
  // Defaults to the paper's drop-and-retransmit kernel; set via
  // apply_protocol() below for the named profiles.
  net::AdmissionMode admission = net::AdmissionMode::kTcpDrop;
  sim::Duration cookie_penalty = sim::Duration::zero();
  // Fig 12 concurrency-overhead model, applied to sync tiers.
  cpu::ThreadOverheadModel sync_overhead{};
  // Alternative design: web tier replies with an immediate overload
  // error instead of letting TCP drop (sync web tier only).
  bool web_shed_on_overload = false;
};

// The client side: session count, think/burst behaviour, client-hop
// networking, and the measurement window.
struct WorkloadConfig {
  // SysBursty/SysSteady load shape (paper §II-A defaults).
  std::size_t sessions = 7000;
  sim::Duration mean_think = sim::Duration::seconds(7);
  double burst_index = 1.0;  // SysSteady's own client burstiness
  sim::Duration burst_dwell = sim::Duration::millis(800);
  sim::Duration normal_dwell = sim::Duration::seconds(14);
  net::RtoPolicy client_rto = net::RtoPolicy::fixed3s();
  sim::Duration client_link = sim::Duration::micros(300);
  sim::Time measure_from = sim::Time::from_seconds(0.0);
  // Browser-style timeout (0 = none).
  sim::Duration client_timeout = sim::Duration::zero();
  // Navigate pages via the RUBBoS Markov session model instead of
  // independent class draws.
  bool markov_sessions = false;
  // Tail-tolerance policy applied at the client hop: stamps the
  // end-to-end deadline, drives client retries/hedges/breaker. Default:
  // all disabled (the paper's naive browser).
  policy::TailPolicy client_policy{};
};

// Why `w` cannot drive a run, or "" when it can: no sessions, negative
// think time (zero is the saturation test), a burst index below 1,
// negative client link latency or timeout, a timeout shorter than the
// first retransmission timeout, or an invalid client policy. Both
// core::validate and graph::validate apply it.
std::string invalid_reason(const WorkloadConfig& w);

// Per-tier overload control (policy/overload/overload.h): admission
// policy + queue discipline for each of the three tiers. Default all
// kNone — no controller is constructed and the run is event-identical
// to a build without the overload layer.
struct OverloadConfig {
  policy::overload::OverloadPolicy web{};
  policy::overload::OverloadPolicy app{};
  policy::overload::OverloadPolicy db{};

  // True when any tier has a policy other than kNone.
  bool any() const { return web.any() || app.any() || db.any(); }
};

// One complete run: system + workload + millibottleneck + run length.
// The sweep engine's ConfigBinder produces one of these per grid point.
struct ExperimentConfig {
  // Run name (artifact prefix) and the component configs above.
  std::string name = "experiment";
  SystemConfig system{};
  WorkloadConfig workload{};
  MillibottleneckSpec bottleneck{};
  server::AppProfile profile = server::AppProfile::rubbos();
  sim::Duration duration = sim::Duration::seconds(60);
  sim::Duration sample_window = sim::Duration::millis(50);
  std::uint64_t seed = 42;
  // Tail-tolerance policy applied on every inter-tier hop (web->app,
  // app->db): deadline-aware dispatch, downstream retries, hedging,
  // per-downstream circuit breaker. Default: all disabled.
  policy::TailPolicy tier_policy{};
  // Per-tier overload control (admission + queue management). Default:
  // all kNone (the paper's uncontrolled baseline).
  OverloadConfig overload{};
  // Deterministic fault schedule (crashes, link degradation, slow
  // nodes); empty = no faults. Replayed bit-identically from the seed.
  fault::FaultPlan faults{};
  // Distributed tracing (trace/tracer.h): which requests carry span
  // trees and which finished trees are retained. Default kOff — no
  // request allocates a tree and the run is bit-identical to a build
  // without the trace layer.
  trace::TraceConfig trace{};
  // Online observability (obs/incident_monitor.h): incident detectors
  // evaluated on the sampler tick plus the always-on flight recorder.
  // Default disabled; enabling it never perturbs the simulation
  // (DESIGN.md invariant 10).
  obs::ObsConfig obs{};
};

// Rejects nonsensical configurations (zero-sized pools, negative
// durations, a client timeout shorter than one retransmission timeout,
// invalid policies or fault windows) with a descriptive
// std::invalid_argument. run_system() calls this first, so every
// experiment fails fast instead of silently simulating garbage.
void validate(const ExperimentConfig& cfg);

// Arms one hop governor with a datagram profile's app-level recovery
// knobs — attempt_timeout, retry.max_attempts, retry.budget_ratio are
// overwritten from the profile; everything else is preserved. No-op for
// non-datagram profiles. apply_protocol() and the graph grammar's
// `proto` directive both route through this.
void apply_app_recovery(policy::TailPolicy& t, const net::ProtocolProfile& p);

// Threads a named protocol profile (net/protocol.h, docs/PROTOCOLS.md)
// through the whole experiment: retransmission timers on the client and
// inter-tier hops, accept-queue admission semantics at the sync tiers,
// and — for udp_apptimeout — the app-level timeout/retry knobs on the
// client and tier policy governors (attempt_timeout, max_attempts,
// budget_ratio are overwritten; other policy fields are preserved).
// Applying the default profile (fixed3s) is a no-op: the run stays
// byte-identical to one that never called this.
void apply_protocol(ExperimentConfig& cfg, const net::ProtocolProfile& p);

// MaxSysQDepth arithmetic of paper §III: thread pool + TCP backlog.
constexpr std::size_t max_sys_q_depth(std::size_t threads, std::size_t backlog) {
  return threads + backlog;
}

}  // namespace ntier::core
