#include "fault/fault_injector.h"

#include <algorithm>
#include <cassert>

#include "sim/format.h"

namespace ntier::fault {

namespace {

// One (target, [at, end)) extent, for the overlap scan below.
struct Extent {
  int target;
  sim::Time at;
  sim::Time end;
};

// Two windows of the same kind on the same target must not overlap: the
// injector applies "latest settings win" within a window, so overlap
// would make the replayed timeline depend on schedule order rather than
// the plan. Touching windows (one ends exactly where the next starts)
// are fine. Returns the reason, or "" when disjoint.
std::string overlap_reason(std::vector<Extent> ws, const char* what) {
  std::sort(ws.begin(), ws.end(), [](const Extent& a, const Extent& b) {
    return a.target != b.target ? a.target < b.target : a.at < b.at;
  });
  for (std::size_t i = 1; i < ws.size(); ++i) {
    const Extent& prev = ws[i - 1];
    const Extent& next = ws[i];
    if (prev.target == next.target && next.at < prev.end) {
      std::string why;
      sim::appendf(why,
                   "fault: overlapping %s windows on target %d "
                   "([%.3fs, %.3fs) vs one starting at %.3fs)",
                   what, prev.target, prev.at.to_seconds(), prev.end.to_seconds(),
                   next.at.to_seconds());
      return why;
    }
  }
  return {};
}

}  // namespace

std::string invalid_reason(const FaultPlan& plan) {
  for (const auto& c : plan.crashes) {
    if (c.tier < 0) return "fault: crash window targets a negative tier index";
    if (c.down_for <= sim::Duration::zero())
      return "fault: crash window with non-positive down_for (a crash must last)";
  }
  for (const auto& l : plan.links) {
    if (l.hop < 0) return "fault: link window targets a negative hop index";
    if (l.duration <= sim::Duration::zero())
      return "fault: link degradation window with non-positive duration";
    if (l.loss_prob < 0.0 || l.loss_prob > 1.0)
      return "fault: link loss probability must be within [0, 1]";
    if (l.extra_latency < sim::Duration::zero())
      return "fault: link extra latency cannot be negative";
    if (l.loss_prob == 0.0 && l.extra_latency == sim::Duration::zero())
      return "fault: link degradation window degrades nothing "
             "(zero loss and zero extra latency)";
  }
  for (const auto& s : plan.slow_nodes) {
    if (s.tier < 0) return "fault: slow-node window targets a negative tier index";
    if (s.duration <= sim::Duration::zero())
      return "fault: slow-node window with non-positive duration";
    if (s.speed_factor <= 0.0 || s.speed_factor > 1.0)
      return "fault: slow-node speed_factor must be in (0, 1] "
             "(0 would halt the host forever; use a crash window instead)";
  }

  std::vector<Extent> ws;
  for (const auto& c : plan.crashes) ws.push_back({c.tier, c.at, c.at + c.down_for});
  std::string why = overlap_reason(std::move(ws), "crash");
  if (!why.empty()) return why;
  ws.clear();
  for (const auto& l : plan.links) ws.push_back({l.hop, l.at, l.at + l.duration});
  why = overlap_reason(std::move(ws), "link-degrade");
  if (!why.empty()) return why;
  ws.clear();
  for (const auto& s : plan.slow_nodes) ws.push_back({s.tier, s.at, s.at + s.duration});
  return overlap_reason(std::move(ws), "slow-node");
}

FaultInjector::FaultInjector(sim::Simulation& sim, sim::Rng rng, FaultPlan plan,
                             FaultTargets targets)
    : sim_(sim), rng_(std::move(rng)), plan_(std::move(plan)), targets_(std::move(targets)) {
  for ([[maybe_unused]] const auto& c : plan_.crashes)
    assert(c.tier >= 0 && static_cast<std::size_t>(c.tier) < targets_.tiers.size());
  for ([[maybe_unused]] const auto& l : plan_.links)
    assert(l.hop >= 0 && static_cast<std::size_t>(l.hop) < targets_.hops.size());
  for ([[maybe_unused]] const auto& s : plan_.slow_nodes)
    assert(s.tier >= 0 && static_cast<std::size_t>(s.tier) < targets_.hosts.size());
  base_capacity_.resize(targets_.hosts.size(), 0.0);
  down_depth_.assign(targets_.tiers.size(), 0);
  degraded_depth_.assign(targets_.hops.size(), 0);
  slow_depth_.assign(targets_.hosts.size(), 0);
}

void FaultInjector::arm() {
  assert(!armed_ && "FaultInjector::arm is one-shot");
  armed_ = true;

  for (const auto& c : plan_.crashes) {
    sim_.at(c.at, [this, c] {
      ++counters_.crashes;
      if (++down_depth_[c.tier] == 1) {
        targets_.tiers[c.tier]->set_down(true,
                                         c.in_flight == CrashWindow::InFlight::kAbort);
      }
    });
    sim_.at(c.at + c.down_for, [this, c] {
      ++counters_.restarts;
      if (--down_depth_[c.tier] == 0) targets_.tiers[c.tier]->set_down(false);
    });
  }

  for (const auto& l : plan_.links) {
    sim_.at(l.at, [this, l] {
      ++counters_.link_windows;
      // Overlapping windows on one hop: the latest settings win; the hop
      // restores when the last window ends.
      ++degraded_depth_[l.hop];
      targets_.hops[l.hop]->link().degrade(l.loss_prob, l.extra_latency, &rng_);
    });
    sim_.at(l.at + l.duration, [this, l] {
      if (--degraded_depth_[l.hop] == 0) targets_.hops[l.hop]->link().restore();
    });
  }

  for (const auto& s : plan_.slow_nodes) {
    sim_.at(s.at, [this, s] {
      ++counters_.slow_windows;
      cpu::HostCpu* host = targets_.hosts[s.tier];
      if (++slow_depth_[s.tier] == 1) base_capacity_[s.tier] = host->n_cores();
      // Overlapping slow windows compose as the most recent factor of
      // the original capacity (not multiplicative stacking).
      host->set_capacity(base_capacity_[s.tier] * s.speed_factor);
    });
    sim_.at(s.at + s.duration, [this, s] {
      if (--slow_depth_[s.tier] == 0)
        targets_.hosts[s.tier]->set_capacity(base_capacity_[s.tier]);
    });
  }
}

}  // namespace ntier::fault
