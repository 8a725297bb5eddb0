// FIFO storage device model.
//
// Substitutes for the paper's 7200rpm SATA local disk. Operations are
// serviced in order at a fixed bandwidth (plus per-op seek latency); a
// large sequential write — collectl's 30 s log flush — occupies the
// device for hundreds of ms, starving the DB tier's small I/Os. That is
// the I/O millibottleneck of paper §IV-B / Fig 5 and Fig 11.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/simulation.h"

namespace ntier::cpu {

// One FIFO disk: operations queue behind each other and each occupies
// the device for its service time.
class IoDevice {
 public:
  // Bandwidth and per-operation latency of the device.
  struct Config {
    double bytes_per_second = 50.0 * 1024 * 1024;  // sequential bandwidth
    sim::Duration per_op_latency = sim::Duration::micros(100);
  };

  // An idle device named `name` (the default Config without one).
  IoDevice(sim::Simulation& sim, std::string name, Config cfg);
  IoDevice(sim::Simulation& sim, std::string name);

  // The device name the monitors report it under.
  const std::string& name() const { return name_; }

  // Submits an operation of `bytes`; `done` fires at completion.
  void submit(std::uint64_t bytes, sim::EventFn done);
  // Submits an op with an explicit service time.
  void submit_service(sim::Duration service, sim::EventFn done);

  // Ops submitted but not completed (including the one in service).
  std::size_t queue_depth() const { return in_flight_; }

  // Cumulative busy time as of `t` (t <= now): monitors diff successive
  // reads to get per-window utilization ("I/O wait" in Fig 5(a)).
  double busy_seconds_until(sim::Time t) const;

  // Lifetime totals: operations completed and bytes submitted.
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t bytes_written() const { return bytes_total_; }

 private:
  sim::Simulation& sim_;
  std::string name_;
  Config cfg_;

  sim::Time free_at_{};          // device is busy until this time
  sim::Time period_start_{};     // start of the current busy period
  double busy_before_period_ = 0.0;
  std::size_t in_flight_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t bytes_total_ = 0;
};

}  // namespace ntier::cpu
