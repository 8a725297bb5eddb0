// Simulation: the clock plus scheduling facade every model component uses.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace ntier::sim {

// One discrete-event world: a monotonic clock and its event queue.
// Distinct Simulation instances share nothing, so independent runs can
// execute on separate threads (the sweep engine relies on this).
class Simulation {
 public:
  // Non-copyable: events capture pointers into this world.
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated instant (starts at Time::origin()).
  Time now() const { return now_; }

  // Schedules fn at an absolute instant (>= now()). The queue places
  // every event by its instant alone: a zero-delay event joins the
  // currently draining tick, a timer lands in its wheel level.
  EventHandle at(Time when, EventFn fn) {
    assert(when >= now_);
    return queue_.push(when, std::move(fn));
  }

  // Schedules fn after a non-negative delay.
  EventHandle after(Duration delay, EventFn fn) {
    assert(delay >= Duration::zero());
    return queue_.push(now_ + delay, std::move(fn));
  }

  // Runs events until the clock would pass `deadline`, one whole tick
  // batch at a time (every event at one instant drains in a single
  // pass). The clock ends at exactly `deadline` (events at the deadline
  // itself do run).
  void run_until(Time deadline);

  // Runs until no live events remain (use with closed models only).
  void run_all();

  // Events executed so far; useful for microbenchmarks and loop guards.
  std::uint64_t events_executed() const { return executed_; }

  // Exact number of live future events — the "queue depth" gauge the
  // telemetry registry samples. Counts every pending event wherever it
  // resides (wheel slot or tick batch); cancelled events leave the
  // count immediately.
  std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  Time now_ = Time::origin();
  std::uint64_t executed_ = 0;
};

}  // namespace ntier::sim
