// Hierarchical processor-sharing CPU model: host -> VMs -> jobs.
//
// This substitutes for the paper's ESXi host with consolidated VMs
// (DESIGN.md §2). A HostCpu owns `n_cores` of capacity; each VmCpu on it
// has a weight and a vCPU count. Capacity is divided by weighted
// water-filling among VMs with runnable jobs (a VM can use at most
// min(#jobs, #vcpus) cores); within a VM, runnable jobs share the
// allocation equally (classic PS). This reproduces the paper's
// consolidation mechanics: when SysBursty-MySQL bursts, the fair-share
// allocation of SysSteady-Tomcat collapses to ~50% of the shared core,
// its service rate drops below its demand, and queues build — a CPU
// millibottleneck.
//
// Completion bookkeeping uses the attained-service trick: per VM we keep
// a scalar A(t) that advances at rate alloc/n_jobs; a job arriving when
// the accumulator is A with demand d completes when A reaches A + d, so
// a min-heap of completion targets gives O(log n) arrivals/departures.
//
// Job storage keeps callbacks out of the heap: the heap holds 24-byte
// {target, seq, slot} PODs, and each job's callback is built straight
// into its slot of a per-VM array and moved exactly once, out of the
// slot just before it runs (docs/PERFORMANCE.md, "CPU job storage").
// The one completion event per host is re-armed in place with
// Simulation::retime.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace ntier::cpu {

// Completion callback. Same inline type as the event queue's EventFn so
// submit() can forward a caller's closure without re-wrapping it.
using JobDoneFn = sim::EventFn;

class HostCpu;

// One VM's virtual CPU(s). Created via HostCpu::add_vm; pointer-stable.
class VmCpu {
 public:
  // The VM's name and its maximum parallelism in vCPUs.
  const std::string& name() const { return name_; }
  int vcpus() const { return vcpus_; }

  // Submits a CPU job; `done` (any callable a JobDoneFn can hold) fires
  // when `demand` of CPU time has been served under the sharing policy,
  // built straight into its job slot. Zero/negative demands complete on
  // the next event-loop tick.
  template <class F>
  void submit(sim::Duration demand, F&& done);

  // Freezes the vCPU (no progress, still accumulates "wanting" time)
  // until now+d. Extends an existing freeze if longer. Models I/O-wait
  // stalls and GC pauses.
  void freeze_for(sim::Duration d);
  bool frozen() const;

  // Jobs submitted and not yet completed.
  std::size_t active_jobs() const { return heap_.size(); }

  // --- accounting (cumulative; monitors diff successive reads). The
  // getters sync integration up to now() first, so sampling windows are
  // exact even when no CPU event fell on the window edge. ---
  // Core-seconds actually consumed.
  double busy_core_seconds();
  // Seconds during which >= 1 job was present (guest-visible "CPU busy
  // or runnable": this is what pegs at 100% during a millibottleneck).
  double demand_seconds();
  // Seconds frozen while jobs were present (guest-visible I/O wait).
  double stalled_seconds();

 private:
  friend class HostCpu;
  VmCpu(HostCpu& host, std::string name, int vcpus, double weight)
      : host_(host), name_(std::move(name)), vcpus_(vcpus), weight_(weight) {}

  // One pending job: a POD heap entry, so sifting never touches the
  // callback waiting in fns_[slot].
  struct Job {
    double target;  // attained-service level at which this job completes
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct LaterTarget {
    bool operator()(const Job& a, const Job& b) const {
      if (a.target != b.target) return a.target > b.target;
      return a.seq > b.seq;
    }
  };

  // Takes a free callback slot (growing fns_ when none is free) and
  // pushes the job's heap entry; the caller stores the callback.
  std::uint32_t add_job(sim::Duration demand);

  HostCpu& host_;
  std::string name_;
  int vcpus_;
  double weight_;

  std::vector<Job> heap_;                  // min-heap on (target, seq)
  std::vector<JobDoneFn> fns_;             // callbacks, by Job::slot
  std::vector<std::uint32_t> free_slots_;  // empty fns_ slots, LIFO
  double attained_ = 0.0;   // seconds of per-job service delivered
  double alloc_ = 0.0;      // current allocation, in cores
  sim::Time frozen_until_{};

  double busy_core_s_ = 0.0;
  double want_s_ = 0.0;
  double stalled_s_ = 0.0;
};

// One physical host: `n_cores` of capacity shared by its VMs, and the
// single completion event that serves all of them.
class HostCpu {
 public:
  // n_cores > 0; fractional capacities allowed (e.g. capped VMs).
  HostCpu(sim::Simulation& sim, double n_cores);
  HostCpu(const HostCpu&) = delete;
  HostCpu& operator=(const HostCpu&) = delete;

  // Adds a VM with `vcpus` maximum parallelism and a fair-share weight.
  // The returned pointer is owned by the host and lives as long as it.
  VmCpu* add_vm(std::string name, int vcpus = 1, double weight = 1.0);

  // Current capacity, the VMs in add order, and the simulation.
  double n_cores() const { return n_cores_; }
  const std::vector<std::unique_ptr<VmCpu>>& vms() const { return vms_; }
  sim::Simulation& simulation() { return sim_; }

  // Changes the host's capacity (DVFS frequency scaling: capacity =
  // cores x relative frequency). Running jobs keep their attained
  // service; rates change from now on.
  void set_capacity(double n_cores);

  // Total core-seconds consumed by all VMs up to now (governor input).
  double total_busy_core_seconds();

 private:
  friend class VmCpu;

  // Brings accounting and attained-service up to sim.now().
  void advance();
  // Recomputes allocations and re-arms the next completion event.
  void reschedule();
  void on_completion_event();
  static bool runnable(const VmCpu& vm, sim::Time now);

  sim::Simulation& sim_;
  double n_cores_;
  std::vector<std::unique_ptr<VmCpu>> vms_;
  sim::Time last_advance_{};
  sim::EventHandle pending_;
  std::uint64_t next_seq_ = 0;
  // A job that completed in this event; its callback still sits in its
  // slot until the moment it runs.
  struct Finished {
    VmCpu* vm;
    std::uint32_t slot;
  };
  // Scratch buffers reused across calls (steady state allocates nothing).
  std::vector<VmCpu*> open_scratch_;
  std::vector<Finished> done_scratch_;
};

template <class F>
void VmCpu::submit(sim::Duration demand, F&& done) {
  host_.advance();
  if (demand <= sim::Duration::zero()) {
    host_.sim_.after(sim::Duration::zero(), std::forward<F>(done));
    return;
  }
  fns_[add_job(demand)] = std::forward<F>(done);
  host_.reschedule();
}

}  // namespace ntier::cpu
