// Layer replays: time one layer's public functions in isolation, at the
// operating point a workload run measured, so a share of the run's wall
// time can be charged to that layer from outside the program.
#pragma once

#include <cstdint>
#include <vector>

#include "policy/tail_policy.h"
#include "stats.h"

namespace perfbench {

// Host ns per event of sim::Simulation::after/run_until with
// `p.timers` self-re-arming timers at exponential delays of mean
// `p.mean_delay_us` (the workload's pending-event count and Little's-law
// delay).
double replay_engine_ns_per_event(const EngineReplayParams& p, std::uint64_t seed);

// Host ns per completed job of cpu::VmCpu::submit in a closed loop of
// `jobs` jobs on one single-vCPU VM of a one-core host. With `shared`, a
// weight-20 VM running one closed-loop job of its own shares the core
// (the consolidation path); otherwise the VM has the host to itself.
double replay_cpu_ns_per_job(std::size_t jobs, bool shared, std::uint64_t seed);

// Host ns per governed dispatch of policy::HopGovernor::record_latency
// followed by hedge_delay, for a governor built from `policy`, fed the
// run's own latencies in completion order. Order matters: the estimator
// sorts a copy of its ring per call, and neighbouring latencies of a run
// are alike, which makes that sort cheaper than on shuffled data.
double replay_policy_ns_per_dispatch(const ntier::policy::TailPolicy& policy,
                                     const std::vector<std::int64_t>& latency_sequence_us,
                                     std::uint64_t seed);

}  // namespace perfbench
