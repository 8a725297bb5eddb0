// DVFS governor model — the CPU-power-management millibottleneck cause
// of Wang et al., "Lightning in the cloud" (TRIOS'14), cited by the
// paper as reference [31].
//
// An ondemand-style governor samples host utilization every interval and
// steps the frequency up or down. The millibottleneck mechanism: under
// moderate load the governor settles at a low frequency; when a workload
// burst arrives, capacity stays low for one or more governor intervals
// — a sub-second capacity deficit that fills queues exactly like the
// consolidation bursts, triggering CTQO in an RPC-coupled chain.
#pragma once

#include <vector>

#include "cpu/host_core.h"
#include "sim/simulation.h"

namespace ntier::cpu {

// Ondemand-style frequency governor over one host: every `interval` it
// compares the host's utilization with the thresholds and steps the
// frequency, scaling the host's capacity through set_capacity.
class DvfsGovernor {
 public:
  // Frequency range, step and decision rule; frequencies are relative
  // to the host's nominal capacity.
  struct Config {
    double min_freq = 0.4;   // relative to nominal
    double max_freq = 1.0;
    double step = 0.2;       // frequency change per decision
    double up_threshold = 0.8;    // utilization (of current capacity)
    double down_threshold = 0.35;
    sim::Duration interval = sim::Duration::millis(500);
    double start_freq = 1.0;
  };

  // Governs `host`, whose configured capacity is taken as the nominal
  // (max-frequency) capacity. The governor owns the host's set_capacity.
  DvfsGovernor(sim::Simulation& sim, HostCpu& host, Config cfg);
  DvfsGovernor(sim::Simulation& sim, HostCpu& host);

  // Current relative frequency (1.0 = nominal capacity).
  double frequency() const { return freq_; }

  // One governor decision that changed the frequency, and when.
  struct FreqChange {
    sim::Time at;
    double freq;
  };
  const std::vector<FreqChange>& history() const { return history_; }
  // Seconds spent below max frequency (for reports).
  double throttled_seconds() const;

 private:
  void tick();
  void apply(double freq);

  sim::Simulation& sim_;
  HostCpu& host_;
  Config cfg_;
  double nominal_;
  double freq_;
  double last_busy_ = 0.0;
  std::vector<FreqChange> history_;
};

// Periodic stop-the-world pauses on one VM — the JVM garbage-collection
// millibottleneck cause (paper reference [32]). Also usable for any
// "server frozen for D every P" study.
class FreezeInjector {
 public:
  // When the first pause starts, how often pauses repeat, and how long
  // each one freezes the VM.
  struct Config {
    sim::Time first = sim::Time::from_seconds(10.0);
    sim::Duration period = sim::Duration::seconds(10);
    sim::Duration pause = sim::Duration::millis(400);
  };

  // Arms the first pause at cfg.first; each pause arms the next.
  FreezeInjector(sim::Simulation& sim, VmCpu* vm, Config cfg);

  // Start times of every pause fired so far.
  const std::vector<sim::Time>& pause_times() const { return pauses_; }

 private:
  void fire();

  sim::Simulation& sim_;
  VmCpu* vm_;
  Config cfg_;
  std::vector<sim::Time> pauses_;
};

}  // namespace ntier::cpu
