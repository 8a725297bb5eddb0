#include "monitor/sampler.h"

#include <cassert>
#include <stdexcept>

namespace ntier::monitor {

Sampler::Sampler(sim::Simulation& sim, telemetry::Registry& registry, sim::Duration window)
    : sim_(sim), window_(window), registry_(&registry) {
  assert(registry.window() == window);
}

Sampler::Sampler(sim::Simulation& sim, sim::Duration window)
    : sim_(sim),
      window_(window),
      owned_registry_(std::make_unique<telemetry::Registry>(window)),
      registry_(owned_registry_.get()) {}

metrics::Timeline& Sampler::line(std::string_view name) { return registry_->series(name); }

void Sampler::track_vm(const std::string& prefix, cpu::VmCpu* vm) {
  VmTrack t;
  t.vm = vm;
  t.cpu = registry_->intern_series(prefix + ".cpu");
  t.demand = registry_->intern_series(prefix + ".demand");
  t.stall = registry_->intern_series(prefix + ".stall");
  vms_.push_back(t);
}

void Sampler::track_server(const std::string& prefix, server::Server* srv) {
  ServerTrack t;
  t.srv = srv;
  t.queue = registry_->intern_series(prefix + ".queue");
  t.offered = registry_->intern_series(prefix + ".offered");
  t.completed = registry_->intern_series(prefix + ".completed");
  t.dropped = registry_->intern_series(prefix + ".dropped");
  servers_.push_back(t);
}

void Sampler::track_io(const std::string& prefix, cpu::IoDevice* dev) {
  IoTrack t;
  t.dev = dev;
  t.busy = registry_->intern_series(prefix + ".busy");
  ios_.push_back(t);
}

void Sampler::add_tick_hook(std::function<void(sim::Time)> hook) {
  hooks_.push_back(std::move(hook));
}

void Sampler::start() {
  if (started_) return;
  started_ = true;
  sim_.after(window_, [this] { tick(); });
}

void Sampler::tick() {
  const sim::Time now = sim_.now();
  // The sample summarizes the window that just ended: stamp it at the
  // window's start so series indices align with wall time.
  const sim::Time wstart = now - window_;
  const double win_s = window_.to_seconds();

  for (auto& t : vms_) {
    const double busy = t.vm->busy_core_seconds();
    const double want = t.vm->demand_seconds();
    const double stall = t.vm->stalled_seconds();
    registry_->at(t.cpu).set(wstart, 100.0 * (busy - t.last_busy) / win_s / t.vm->vcpus());
    registry_->at(t.demand).set(wstart, 100.0 * (want - t.last_want) / win_s);
    registry_->at(t.stall).set(wstart, 100.0 * (stall - t.last_stall) / win_s);
    t.last_busy = busy;
    t.last_want = want;
    t.last_stall = stall;
  }
  for (auto& t : servers_) {
    registry_->at(t.queue).set(wstart, static_cast<double>(t.srv->queued_requests()));
    const std::uint64_t off = t.srv->stats().offered;
    const std::uint64_t comp = t.srv->stats().completed;
    const std::uint64_t drop = t.srv->stats().dropped;
    registry_->at(t.offered).set(wstart, static_cast<double>(off - t.last_offered) / win_s);
    registry_->at(t.completed)
        .set(wstart, static_cast<double>(comp - t.last_completed) / win_s);
    registry_->at(t.dropped).set(wstart, static_cast<double>(drop - t.last_dropped));
    t.last_offered = off;
    t.last_completed = comp;
    t.last_dropped = drop;
  }
  for (auto& t : ios_) {
    const double busy = t.dev->busy_seconds_until(now);
    registry_->at(t.busy).set(wstart, 100.0 * (busy - t.last_busy) / win_s);
    t.last_busy = busy;
  }
  // Materialize every registered pull-probe for this window (sim.events,
  // headroom, retransmit rates, ... — see telemetry/publish.h).
  registry_->sample(wstart, win_s);
  // Tick hooks (online detectors) run inside this event, after the
  // window is fully materialized — they add no events of their own.
  for (const auto& hook : hooks_) hook(wstart);
  sim_.after(window_, [this] { tick(); });
}

const metrics::Timeline& Sampler::series(std::string_view name) const {
  const metrics::Timeline* tl = registry_->find_series(name);
  if (tl == nullptr)
    throw std::out_of_range("Sampler: unknown series " + std::string(name));
  return *tl;
}

bool Sampler::has_series(std::string_view name) const { return registry_->has_series(name); }

const std::vector<std::string_view>& Sampler::series_names() const {
  return registry_->series_names();
}

std::vector<sim::Time> Sampler::saturated_windows(const std::string& vm_prefix,
                                                  double threshold_pct) const {
  return series(vm_prefix + ".demand").windows_at_least(threshold_pct);
}

}  // namespace ntier::monitor
