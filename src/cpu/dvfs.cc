#include "cpu/dvfs.h"

#include <algorithm>

namespace ntier::cpu {

DvfsGovernor::DvfsGovernor(sim::Simulation& sim, HostCpu& host, Config cfg)
    : sim_(sim), host_(host), cfg_(cfg), nominal_(host.n_cores()), freq_(cfg.start_freq) {
  apply(freq_);
  last_busy_ = host_.total_busy_core_seconds();
  sim_.after(cfg_.interval, [this] { tick(); });
}

DvfsGovernor::DvfsGovernor(sim::Simulation& sim, HostCpu& host)
    : DvfsGovernor(sim, host, Config()) {}

void DvfsGovernor::apply(double freq) {
  freq_ = std::clamp(freq, cfg_.min_freq, cfg_.max_freq);
  host_.set_capacity(nominal_ * freq_);
  history_.push_back(FreqChange{sim_.now(), freq_});
}

void DvfsGovernor::tick() {
  const double busy = host_.total_busy_core_seconds();
  const double used = busy - last_busy_;
  last_busy_ = busy;
  // Utilization relative to what the current frequency could deliver.
  const double avail = nominal_ * freq_ * cfg_.interval.to_seconds();
  const double util = avail > 0 ? used / avail : 0.0;
  if (util > cfg_.up_threshold && freq_ < cfg_.max_freq) {
    apply(freq_ + cfg_.step);
  } else if (util < cfg_.down_threshold && freq_ > cfg_.min_freq) {
    apply(freq_ - cfg_.step);
  }
  sim_.after(cfg_.interval, [this] { tick(); });
}

double DvfsGovernor::throttled_seconds() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    if (history_[i].freq >= cfg_.max_freq) continue;
    const sim::Time end =
        (i + 1 < history_.size()) ? history_[i + 1].at : sim_.now();
    acc += (end - history_[i].at).to_seconds();
  }
  return acc;
}

FreezeInjector::FreezeInjector(sim::Simulation& sim, VmCpu* vm, Config cfg)
    : sim_(sim), vm_(vm), cfg_(cfg) {
  sim_.at(cfg_.first, [this] { fire(); });
}

void FreezeInjector::fire() {
  pauses_.push_back(sim_.now());
  vm_->freeze_for(cfg_.pause);
  sim_.after(cfg_.period, [this] { fire(); });
}

}  // namespace ntier::cpu
