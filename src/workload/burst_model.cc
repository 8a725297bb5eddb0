#include "workload/burst_model.h"

namespace ntier::workload {

BurstClock::BurstClock(sim::Simulation& sim, sim::Rng& rng, Config cfg)
    : sim_(sim), rng_(rng), cfg_(cfg) {
  if (cfg_.burst_index > 1.0) schedule_flip();
}

void BurstClock::schedule_flip() {
  const sim::Duration dwell =
      rng_.exp_duration(bursting_ ? cfg_.burst_dwell : cfg_.normal_dwell);
  sim_.after(dwell, [this] {
    bursting_ = !bursting_;
    if (bursting_) burst_starts_.push_back(sim_.now());
    schedule_flip();
  });
}

sim::Duration draw_think(sim::Rng& rng, sim::Duration mean, const BurstClock* clock) {
  const double scale = clock ? clock->think_scale() : 1.0;
  return rng.exp_duration(mean * scale);
}

}  // namespace ntier::workload
