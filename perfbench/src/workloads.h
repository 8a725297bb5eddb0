// The four benchmark workloads, driven only through the simulator's
// public API (core::scenarios, core::NTierSystem, graph::parse_topology /
// GraphSystem, sweep::run_sweep, core::summarize / correlate,
// report::render_dashboard), plus the run checks and the layer counters
// read from public accessors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "policy/tail_policy.h"
#include "spans.h"

namespace perfbench {

// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Layer counters of one finished run (summed over the sweep's runs).
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t issued = 0, completed = 0, failed = 0;      // client pool
  std::uint64_t offered = 0, accepted = 0, dropped = 0;     // summed over servers
  std::uint64_t sends = 0, delivered = 0, retransmits = 0;  // summed over transports
  std::uint64_t governed_sends = 0;  // sends on hops whose sender has a tail policy
  std::uint64_t hedges = 0, hedge_wins = 0, retries = 0, deadline_cancels = 0;
  std::uint64_t disk_ops = 0;
  std::uint64_t vlrt = 0;
  double busy_core_s = 0.0;  // simulated core-seconds over every VM
  std::uint64_t sampler_ticks = 0;
  std::uint64_t series = 0;
  std::size_t jobs_peak = 0;   // largest VmCpu::active_jobs seen
  std::size_t queue_peak = 0;  // largest Server::queued_requests seen
  double pending_sum = 0.0;    // pending_events() summed over samples
  std::uint64_t pending_samples = 0;
  double sim_seconds = 0.0;    // simulated time covered

  // Adds `o` into this: counts and times sum, peaks take the maximum.
  void merge(const Counters& o);
};

// One host-time sample per simulated second of a sliced run.
struct Slice {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
};

// Everything one workload run produced.
struct Iteration {
  double setup_s = 0.0;   // config to runnable system
  double run_s = 0.0;     // wall time of the run phase
  double report_s = 0.0;  // post-run calls, rendered in memory
  std::vector<double> report_parts_s;      // each report call, in call order
  std::map<std::string, double> phase_ms;  // per-layer call timings
  double dashboard_kb = 0.0;
  std::uint64_t sweep_runs = 0;
  Counters counters;
  std::uint64_t digest = 0;
  std::vector<Slice> slices;  // one per simulated second; empty for the sweep
  ntier::policy::TailPolicy tier_policy;  // the workload's inter-tier policy
  // Client latencies (us) in completion order, kept by traced runs with a
  // tier policy: the policy replay feeds them to a governor in order.
  std::vector<std::int64_t> latency_sequence_us;
  std::vector<std::string> failures;     // checks broken; empty = passed
};

// sweep_surface's worker count.
constexpr std::size_t kSweepJobs = 2;

// Runs workload `name` once from `seed`, advancing one simulated second
// at a time. With a span log the run is traced: spans wrap every layer
// call and counters are read at each slice edge. `sweep_jobs` is the
// worker count of sweep_surface.
// Never throws: an exception is recorded as a failure of the run.
Iteration run_workload(const std::string& name, std::uint64_t seed, SpanLog* spans,
                       std::size_t sweep_jobs = kSweepJobs);

// Seconds to take workload `name` from config to a runnable system
// without running it (extra set-up samples).
double setup_only(const std::string& name, std::uint64_t seed);

// --- checks (pure, so the tests can break them on purpose) ---------------

// One tier at the end of a run.
struct TierView {
  std::string name;
  std::uint64_t accepted = 0, completed = 0, queued = 0;
  bool sync = false;          // has a kernel accept queue
  double queue_peak = 0.0;    // max of the <tier>.queue series
  std::size_t max_sys_q_depth = 0;
};
// Conservation (accepted == completed + queued, DESIGN §6 inv. 1) on
// every tier, and queue peak <= MaxSysQDepth on sync tiers (inv. 2).
std::vector<std::string> check_tiers(const std::vector<TierView>& tiers);

// What the paper verdict of each workload reads.
struct Verdict {
  std::uint64_t drops = 0;
  std::uint64_t upstream_episodes = 0;
  std::uint64_t hedges = 0, hedge_wins = 0;
  std::uint64_t nx3_ctqo_points = 0;  // sweep points at NX=3 past CTQO onset
};
// sync_ctqo: drops and >= 1 upstream episode; async_logflush: no drops;
// graph_hedge: hedges sent and hedge_wins <= hedges; sweep_surface: no
// NX=3 point past the CTQO onset (inv. 6).
std::vector<std::string> check_verdict(const std::string& workload, const Verdict& v);

}  // namespace perfbench
