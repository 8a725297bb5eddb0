#include "monitor/collectl.h"

namespace ntier::monitor {

Collectl::Collectl(sim::Simulation& sim, cpu::IoDevice* target, Config cfg)
    : sim_(sim), target_(target), cfg_(cfg) {
  sim_.at(cfg_.first_flush, [this] { flush(); });
}

Collectl::Collectl(sim::Simulation& sim, cpu::IoDevice* target)
    : Collectl(sim, target, Config()) {}

void Collectl::flush() {
  flushes_.push_back(sim_.now());
  target_->submit(cfg_.bytes_per_flush, [this] { ++done_; });
  sim_.after(cfg_.flush_period, [this] { flush(); });
}

sim::Duration Collectl::flush_occupancy() const {
  // Transfer time at the device's sequential bandwidth; the device adds
  // its per-op latency on top.
  return sim::Duration::from_seconds(static_cast<double>(cfg_.bytes_per_flush) /
                                     (50.0 * 1024 * 1024));
}

}  // namespace ntier::monitor
