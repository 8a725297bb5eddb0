#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "cpu/host_core.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace perfbench {

namespace {

using ntier::sim::Duration;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

Duration exp_micros(ntier::sim::Rng& rng, double mean_us) {
  return Duration::micros(std::max<std::int64_t>(1, std::llround(rng.exponential(mean_us))));
}

// Runs `sim` until `n` more events have executed, in run_until steps of
// about a thousand events each.
void run_events(ntier::sim::Simulation& sim, std::uint64_t n, Duration step) {
  const std::uint64_t target = sim.events_executed() + n;
  while (sim.events_executed() < target) sim.run_until(sim.now() + step);
}

struct TimerCtx {
  ntier::sim::Simulation* sim;
  ntier::sim::Rng* rng;
  double mean_us;
};

// One timer: fires, then re-arms itself after a fresh exponential delay.
struct Rearm {
  TimerCtx* c;
  void operator()() const { c->sim->after(exp_micros(*c->rng, c->mean_us), Rearm{c}); }
};

struct JobCtx {
  ntier::cpu::VmCpu* vm;
  ntier::sim::Rng* rng;
  std::uint64_t* done;
};

// One closed-loop CPU job: on completion it counts and resubmits.
struct Resubmit {
  JobCtx* c;
  void operator()() const {
    ++*c->done;
    c->vm->submit(exp_micros(*c->rng, 1000.0), Resubmit{c});
  }
};

volatile std::int64_t g_sink = 0;

}  // namespace

double replay_engine_ns_per_event(const EngineReplayParams& p, std::uint64_t seed) {
  ntier::sim::Simulation sim;
  ntier::sim::Rng rng(seed);
  TimerCtx ctx{&sim, &rng, p.mean_delay_us};
  for (std::size_t i = 0; i < p.timers; ++i)
    sim.after(exp_micros(rng, p.mean_delay_us), Rearm{&ctx});
  const double per_us = static_cast<double>(p.timers) / p.mean_delay_us;
  const Duration step = Duration::micros(
      std::max<std::int64_t>(1, std::llround(1000.0 / std::max(per_us, 1e-9))));
  constexpr std::uint64_t kEvents = 400'000;
  run_events(sim, kEvents / 2, step);  // fill the wheel before timing
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t before = sim.events_executed();
    const auto t0 = Clock::now();
    run_events(sim, kEvents, step);
    ns.push_back(ns_since(t0) / static_cast<double>(sim.events_executed() - before));
  }
  return median(ns);
}

double replay_cpu_ns_per_job(std::size_t jobs, bool shared, std::uint64_t seed) {
  ntier::sim::Simulation sim;
  ntier::sim::Rng rng(seed);
  ntier::cpu::HostCpu host(sim, 1.0);
  std::uint64_t done = 0;
  JobCtx vm{host.add_vm("replay", 1, 1.0), &rng, &done};
  JobCtx noisy{shared ? host.add_vm("noisy", 1, 20.0) : nullptr, &rng, &done};
  for (std::size_t i = 0; i < std::max<std::size_t>(jobs, 1); ++i)
    vm.vm->submit(exp_micros(rng, 1000.0), Resubmit{&vm});
  if (noisy.vm) noisy.vm->submit(exp_micros(rng, 1000.0), Resubmit{&noisy});
  constexpr std::uint64_t kJobs = 100'000;
  const Duration step = Duration::millis(100);
  auto run_jobs = [&](std::uint64_t n) {
    const std::uint64_t target = done + n;
    while (done < target) sim.run_until(sim.now() + step);
  };
  run_jobs(kJobs / 4);
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t before = done;
    const auto t0 = Clock::now();
    run_jobs(kJobs);
    ns.push_back(ns_since(t0) / static_cast<double>(done - before));
  }
  return median(ns);
}

double replay_policy_ns_per_dispatch(const ntier::policy::TailPolicy& policy,
                                     const std::vector<std::int64_t>& latency_sequence_us,
                                     std::uint64_t seed) {
  if (latency_sequence_us.empty()) return 0.0;
  ntier::sim::Simulation sim;
  ntier::policy::HopGovernor gov(sim, ntier::sim::Rng(seed), policy);
  std::size_t next = 0;
  auto draw = [&] {
    const Duration d = Duration::micros(latency_sequence_us[next]);
    next = (next + 1) % latency_sequence_us.size();
    return d;
  };
  for (int i = 0; i < 256; ++i) gov.record_latency(draw());
  constexpr int kDispatches = 10'000;
  std::vector<Duration> lat(kDispatches);
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    for (auto& d : lat) d = draw();
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (const Duration d : lat) {
      gov.record_latency(d);
      sink += gov.hedge_delay().count_micros();
    }
    ns.push_back(ns_since(t0) / kDispatches);
    g_sink = g_sink + sink;
  }
  return median(ns);
}

}  // namespace perfbench
