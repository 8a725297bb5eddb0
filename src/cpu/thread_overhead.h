// Concurrency-overhead model for thread-per-request servers (Fig 12).
//
// The paper's §V-E shows the 2000-thread "RPC purist" alternative
// collapsing from 1159 req/s at concurrency 100 to 374 req/s at 1600,
// attributing it to context-switch/scheduling overhead and JVM GC cost
// that grow with the live thread count. We model that as (a) a per-job
// demand inflation linear in the number of concurrently busy threads and
// (b) optional periodic GC pauses whose length grows with thread count.
#pragma once

#include <cstddef>
#include <functional>

#include "sim/simulation.h"

namespace ntier::cpu {

class VmCpu;

// Per-server overhead parameters: demand inflation and GC pauses, both
// growing with the number of busy threads. All zero = no overhead.
struct ThreadOverheadModel {
  // Effective demand multiplier: 1 + alpha_per_thread * busy_threads.
  // alpha ~ 1.3e-3 reproduces the Fig 12 sync collapse.
  double alpha_per_thread = 0.0;

  // GC: every `gc_interval` (if > 0) the VM freezes for
  // gc_base + gc_per_thread * busy_threads.
  sim::Duration gc_interval = sim::Duration::zero();
  sim::Duration gc_base = sim::Duration::zero();
  sim::Duration gc_per_thread = sim::Duration::zero();

  // The demand multiplier at `busy_threads`; inflate() applies it to a
  // demand (unchanged when alpha is 0), and gc_pause() is the pause
  // length at that thread count.
  double inflation(std::size_t busy_threads) const {
    return 1.0 + alpha_per_thread * static_cast<double>(busy_threads);
  }
  sim::Duration inflate(sim::Duration demand, std::size_t busy_threads) const {
    if (alpha_per_thread == 0.0) return demand;
    return demand * inflation(busy_threads);
  }
  sim::Duration gc_pause(std::size_t busy_threads) const {
    return gc_base + gc_per_thread * static_cast<std::int64_t>(busy_threads);
  }
};

// Arms the periodic GC pause against a VM. No-op if gc_interval == 0.
// `busy_threads` is sampled through the callback at each GC tick.
void arm_gc(sim::Simulation& sim, VmCpu& vm, const ThreadOverheadModel& model,
            std::function<std::size_t()> busy_threads);

}  // namespace ntier::cpu
