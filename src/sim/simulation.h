// Simulation: the clock plus scheduling facade every model component uses.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

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

  // Schedules fn at an absolute instant (>= now()). `fn` is any
  // callable an EventFn can hold, built straight into its event slot.
  // The queue places every event by its instant alone: a zero-delay
  // event joins the currently draining tick, a timer lands in its wheel
  // level.
  template <class F>
  EventHandle at(Time when, F&& fn) {
    assert(when >= now_);
    return queue_.push(when, std::forward<F>(fn));
  }

  // Schedules fn after a non-negative delay.
  template <class F>
  EventHandle after(Duration delay, F&& fn) {
    assert(delay >= Duration::zero());
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  // Moves the pending event `h` to `when` (>= now()) with a fresh
  // sequence number, keeping its callback and handle: the run order is
  // that of h.cancel() plus a push of the same callback at `when`.
  // Returns false, changing nothing, when the event has fired, was
  // cancelled, or sits in the batch of the tick being drained; the
  // caller then cancels and pushes (EventQueue::retime).
  bool retime(const EventHandle& h, Time when) {
    assert(when >= now_);
    return queue_.retime(h, when);
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
