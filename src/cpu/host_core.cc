#include "cpu/host_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ntier::cpu {
namespace {
// Slack when matching attained service against completion targets;
// absorbs the sub-nanosecond error from rounding event times to µs.
constexpr double kTargetEps = 1e-9;
}  // namespace

HostCpu::HostCpu(sim::Simulation& sim, double n_cores) : sim_(sim), n_cores_(n_cores) {
  assert(n_cores > 0.0);
  last_advance_ = sim.now();
}

VmCpu* HostCpu::add_vm(std::string name, int vcpus, double weight) {
  assert(vcpus >= 1);
  assert(weight > 0.0);
  advance();
  vms_.push_back(std::unique_ptr<VmCpu>(new VmCpu(*this, std::move(name), vcpus, weight)));
  reschedule();
  return vms_.back().get();
}

bool HostCpu::runnable(const VmCpu& vm, sim::Time now) {
  return !vm.heap_.empty() && vm.frozen_until_ < now + sim::Duration::micros(1);
}

void HostCpu::advance() {
  const sim::Time now = sim_.now();
  if (now <= last_advance_) { last_advance_ = now; return; }
  const double dt = (now - last_advance_).to_seconds();
  for (auto& vmp : vms_) {
    VmCpu& vm = *vmp;
    if (!vm.heap_.empty()) {
      vm.want_s_ += dt;
      // Freeze boundaries always coincide with events (freeze_for arms a
      // wake-up at expiry), so the interval is frozen either fully or
      // not at all.
      if (vm.frozen_until_ >= now && vm.alloc_ == 0.0) vm.stalled_s_ += dt;
      if (vm.alloc_ > 0.0) {
        vm.busy_core_s_ += vm.alloc_ * dt;
        vm.attained_ += vm.alloc_ * dt / static_cast<double>(vm.heap_.size());
      }
    }
    // Note: alloc_ was computed for a fixed job set; heap_ only mutates
    // via submit/completion which advance() first, so the set is
    // constant over [last_advance_, now].
  }
  last_advance_ = now;
}

void HostCpu::reschedule() {
  const sim::Time now = sim_.now();
  // Weighted water-filling of n_cores_ across runnable VMs.
  std::vector<VmCpu*>& open = open_scratch_;
  open.clear();
  for (auto& vmp : vms_) {
    vmp->alloc_ = 0.0;
    if (runnable(*vmp, now)) open.push_back(vmp.get());
  }
  double remaining = n_cores_;
  while (!open.empty() && remaining > 1e-12) {
    double total_w = 0.0;
    for (auto* vm : open) total_w += vm->weight_;
    bool closed_any = false;
    for (auto it = open.begin(); it != open.end();) {
      VmCpu* vm = *it;
      const double want =
          std::min<double>(static_cast<double>(vm->heap_.size()), vm->vcpus_);
      const double share = remaining * vm->weight_ / total_w;
      if (want <= share + 1e-12) {
        vm->alloc_ = want;
        remaining -= want;
        it = open.erase(it);
        closed_any = true;
      } else {
        ++it;
      }
    }
    if (!closed_any) {
      double total_w2 = 0.0;
      for (auto* vm : open) total_w2 += vm->weight_;
      for (auto* vm : open) vm->alloc_ = remaining * vm->weight_ / total_w2;
      break;
    }
  }

  // Earliest completion across VMs.
  sim::Time best = sim::Time::max();
  for (auto& vmp : vms_) {
    VmCpu& vm = *vmp;
    if (vm.heap_.empty() || vm.alloc_ <= 0.0) continue;
    const double gap = std::max(0.0, vm.heap_.front().target - vm.attained_);
    const double dt_s = gap * static_cast<double>(vm.heap_.size()) / vm.alloc_;
    // Round up to the next µs so attained >= target at the event.
    const auto dt = sim::Duration::micros(
        static_cast<std::int64_t>(std::ceil(dt_s * 1e6 - 1e-9)));
    const sim::Time t = now + std::max(dt, sim::Duration::zero());
    best = std::min(best, t);
  }
  // Re-arm the one completion event. retime keeps the order a cancel
  // plus a push would give; it declines when the event already fired
  // or sits in the draining tick's batch.
  if (best == sim::Time::max()) {
    pending_.cancel();
  } else if (!sim_.retime(pending_, best)) {
    pending_.cancel();
    pending_ = sim_.at(best, [this] { on_completion_event(); });
  }
}

void HostCpu::on_completion_event() {
  advance();
  std::vector<Finished>& done = done_scratch_;
  done.clear();
  for (auto& vmp : vms_) {
    VmCpu& vm = *vmp;
    while (!vm.heap_.empty() && vm.heap_.front().target <= vm.attained_ + kTargetEps) {
      std::pop_heap(vm.heap_.begin(), vm.heap_.end(), VmCpu::LaterTarget{});
      done.push_back({&vm, vm.heap_.back().slot});
      vm.heap_.pop_back();
    }
  }
  reschedule();
  // Each callback leaves its slot, and the slot is freed, before it
  // runs: a callback that submits to the same VM, even one that grows
  // fns_, cannot disturb it or a finished job still waiting to run.
  for (const Finished& f : done) {
    JobDoneFn fn = std::move(f.vm->fns_[f.slot]);
    f.vm->free_slots_.push_back(f.slot);
    fn();
  }
}

std::uint32_t VmCpu::add_job(sim::Duration demand) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.push_back(Job{attained_ + demand.to_seconds(), host_.next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), LaterTarget{});
  return slot;
}

void VmCpu::freeze_for(sim::Duration d) {
  host_.advance();
  const sim::Time until = host_.sim_.now() + d;
  if (until > frozen_until_) {
    frozen_until_ = until;
    host_.sim_.at(until, [this] {
      host_.advance();
      host_.reschedule();
    });
  }
  host_.reschedule();
}

bool VmCpu::frozen() const {
  return frozen_until_ >= host_.sim_.now() + sim::Duration::micros(1);
}

void HostCpu::set_capacity(double n_cores) {
  assert(n_cores > 0.0);
  advance();
  n_cores_ = n_cores;
  reschedule();
}

double HostCpu::total_busy_core_seconds() {
  advance();
  double acc = 0.0;
  for (const auto& vm : vms_) acc += vm->busy_core_s_;
  return acc;
}

double VmCpu::busy_core_seconds() {
  host_.advance();
  return busy_core_s_;
}

double VmCpu::demand_seconds() {
  host_.advance();
  return want_s_;
}

double VmCpu::stalled_seconds() {
  host_.advance();
  return stalled_s_;
}

}  // namespace ntier::cpu
