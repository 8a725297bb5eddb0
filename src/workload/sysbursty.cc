#include "workload/sysbursty.h"

namespace ntier::workload {

InterferenceLoad::InterferenceLoad(sim::Simulation& sim, cpu::VmCpu* vm, BatchConfig cfg)
    : sim_(sim), vm_(vm), batch_(cfg), batch_mode_(true), rng_(1) {
  sim_.at(batch_.first_at, [this] { fire_batch(); });
}

InterferenceLoad::InterferenceLoad(sim::Simulation& sim, cpu::VmCpu* vm, sim::Rng rng,
                                   MmppConfig cfg)
    : sim_(sim), vm_(vm), mmpp_(cfg), batch_mode_(false), rng_(rng) {
  clock_ = std::make_unique<BurstClock>(sim, rng_, cfg.burst);
  for (std::size_t c = 0; c < mmpp_.clients; ++c) client_think(c);
}

void InterferenceLoad::fire_batch() {
  marks_.push_back(sim_.now());
  for (std::size_t i = 0; i < batch_.batch_size; ++i) {
    ++jobs_;
    vm_->submit(batch_.demand_per_job, [this] { ++done_; });
  }
  sim_.after(batch_.period, [this] { fire_batch(); });
}

void InterferenceLoad::client_think(std::size_t idx) {
  // Think times shrink by the burst index while the shared clock is in
  // its burst state; the loop stays closed so the backlog on the bursty
  // VM is bounded by the client population.
  const auto think = draw_think(rng_, mmpp_.mean_think, clock_.get());
  sim_.after(think, [this, idx] {
    ++jobs_;
    vm_->submit(mmpp_.demand_per_job, [this, idx] {
      ++done_;
      client_think(idx);
    });
  });
}

}  // namespace ntier::workload
