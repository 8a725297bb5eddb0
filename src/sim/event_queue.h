// Cancellable future-event list for the discrete-event engine.
//
// A *hierarchical timing wheel* holds every pending event: eight levels
// of 256 slots at 1 µs base resolution cover all 2^64 µs, so every
// non-negative Time has a slot, and insert and cancel are O(1) — a
// free-slot pop plus an intrusive doubly-linked-list splice, no
// sifting. Execution is *batched per tick*: all events due at one
// `(when)` instant sit in one level-0 slot, are gathered into a scratch
// batch, sorted by sequence number, and drained in a single pass,
// amortizing dispatch and keeping the hot arrays in cache
// (docs/PERFORMANCE.md has the hierarchy parameters and the measured
// before/after table; bench/micro_engine.cc has the wheel cases).
//
// Slot storage is struct-of-arrays: the 40-byte bookkeeping records
// (`Meta`: seq/when/generation/position/wheel links) live in one array
// and the 64-byte inline callbacks in fixed chunks beside it, so wheel
// splices, cancels and retimes never touch callback bytes — only
// execution does. A callback is built straight into its slot and runs
// there: chunks never move, so it is never relocated. Handles are plain
// {queue, slot, generation} triples; schedule/cancel touch no allocator
// at all (tests/test_hotpath.cc proves insert/cancel/cascade are
// allocation-free on a warmed queue).
//
// Callbacks are sim::InlineFn (src/sim/inline_fn.h): captures live
// inline in the slot, never on the heap, and oversized captures fail to
// compile.
//
// Determinism: live events run in strict (when, seq) order — a total
// order. An event is in exactly one of two places: a wheel slot or the
// tick batch. Within a tick the gathered batch is sorted by seq (wheel
// slots are unordered: a cascaded far event may carry a smaller seq
// than a directly-pushed near one), and events pushed *at the draining
// tick* append to the live batch with monotonically larger seqs, so the
// run order is identical to a (when, seq) priority queue's
// (tests/test_wheel.cc checks this against a priority-queue oracle over
// randomized push/cancel/retime/advance schedules). A retime takes a
// fresh seq, so it orders exactly like a cancel plus a push.
//
// Contract: `when` must not precede the wheel's current tick (`place`
// asserts it). run_next_tick moves that tick only to the instant it
// reports in `now`, or — entering a coarse slot's window — to a window
// start no later than its deadline. So a caller whose clock, like
// Simulation's, moves to each reported instant and, once a call runs
// nothing, to the deadline, may push at any instant not before its
// clock (Simulation::at asserts `when >= now()`).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace ntier::sim {

// An event's callback. Must be invocable exactly once. Captures beyond
// kInlineFnCapacity bytes are a compile error — pool bigger state and
// capture a PoolRef instead (see docs/PERFORMANCE.md).
using EventFn = InlineFn<void()>;

class EventQueue;

// Handle to a scheduled event: a POD {queue, slot, generation} triple
// (no shared state, no allocation). Safe to cancel after the event has
// fired or been cancelled (generation mismatch makes it a no-op), but —
// unlike the pre-PR-5 handle — must not be used after the owning
// EventQueue is destroyed. Every in-tree holder (HostCpu, IoDevice,
// Sampler, timers) is torn down before its Simulation, so this contract
// change is invisible to the models.
class EventHandle {
 public:
  // Default-constructed handles are empty: pending() is false, cancel()
  // is a no-op. Real handles come from EventQueue::push.
  EventHandle() = default;
  // True if the event has neither fired nor been cancelled.
  bool pending() const;
  // Prevents a pending event from firing: O(1) wherever it resides (a
  // wheel splice, or a generation bump a batched entry is skipped by).
  // Idempotent; a no-op after the event fires.
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : owner_(q), slot_(slot), gen_(gen) {}
  EventQueue* owner_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

// The future-event list: an 8-level timing wheel with per-tick batch
// execution. Single-threaded; all complexity bounds are in the number
// of *live* (pending) events — cancelled entries are unlinked (wheel)
// or generation-skipped (batch) and never accumulate. The slot table
// and batch arrays grow amortized to the high-water mark and are then
// reused forever, so a warmed-up queue performs no allocations.
class EventQueue {
 public:
  // Non-copyable (handles index into this queue's slot table by
  // address/index).
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues fn to run at `when` (at or after the wheel's current tick;
  // see the contract above): O(1). Events at equal times fire in
  // scheduling order. `fn` is any callable an EventFn can hold; it is
  // built straight into its slot (an EventFn argument moves in once).
  template <class F>
  EventHandle push(Time when, F&& fn) {
    const std::uint32_t slot = schedule(when);
    fn_at(slot) = std::forward<F>(fn);
    return EventHandle{this, slot, meta_[slot].gen};
  }

  // Moves a pending event to `when` (at or after the wheel's current
  // tick) under a fresh sequence number: it then runs exactly where a
  // cancel plus a push of the same callback would run it, but keeps its
  // slot, its callback and its handle. Returns false and changes
  // nothing when `h` is no longer pending or its event sits in the tick
  // batch (gathered for the draining tick); the caller then cancels and
  // pushes instead. O(1).
  bool retime(const EventHandle& h, Time when);

  // The tick driver Simulation::run_until uses: finds the earliest
  // tick, runs nothing if it lies past `deadline`, otherwise advances
  // `now` to it and drains the whole tick, returning the count executed
  // (0 when nothing is due by the deadline). Events the tick pushes at
  // its own instant join the pass in seq order. Singleton ticks — one
  // event due, the overwhelmingly common case in closed-loop workloads
  // — skip batch formation and the seq sort entirely and run the lone
  // callback straight out of its level-0 slot.
  std::size_t run_next_tick(Time deadline, Time& now);

  // True when no live events remain. O(1).
  bool empty() const { return live_ == 0; }
  // Exact number of live (pending, uncancelled) events, in the wheel or
  // the tick batch. O(1).
  std::size_t size() const { return live_; }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Wheel geometry: kLevels levels of kSlots slots; level l spans
  // 2^(kSlotBits*(l+1)) µs at 2^(kSlotBits*l) µs per slot. With 8-bit
  // levels the finest slot is exactly one 1 µs tick — a level-0 slot
  // holds events of a single instant — and eight levels cover every
  // bit of a Time.
  static constexpr int kSlotBits = 8;
  static constexpr int kLevels = 8;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;

  // Callbacks live in fixed chunks of kFnChunk, so growing the table
  // never relocates one, not even the callback that is running.
  static constexpr int kFnChunkBits = 8;
  static constexpr std::uint32_t kFnChunk = 1u << kFnChunkBits;

  // Where a live slot currently resides (drives the cancel path).
  enum Where : std::uint8_t { kLocFree = 0, kLocWheel, kLocBatch };

  // Per-slot bookkeeping (SoA twin of the callback chunks). `gen`
  // increments when the event fires or is cancelled, invalidating
  // outstanding handles; `pos` is the packed level<<kSlotBits|slot of a
  // wheel resident;
  // `prev`/`next` thread the intrusive wheel list, with `next` doubling
  // as the free-list link.
  struct Meta {
    std::uint64_t seq = 0;
    Time when;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint8_t where = kLocFree;
  };

  // One gathered event awaiting execution this tick; `gen` makes
  // entries self-invalidating under cancel (lazy skip, no compaction).
  struct BatchEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // Digit of absolute time t at wheel level l (its slot index there).
  static std::uint32_t digit(std::int64_t t, int l) {
    return static_cast<std::uint32_t>(t >> (kSlotBits * l)) & (kSlots - 1);
  }

  // Takes a slot for a new event at `when`, stamps the next sequence
  // number and enqueues it; the caller stores the callback.
  std::uint32_t schedule(Time when);
  // Enqueues a live slot by its stamped instant: into the draining
  // batch when due at the tick being drained, otherwise into the wheel.
  void enqueue(std::uint32_t slot);

  // Slot allocation (free-list pop or table growth) and retirement
  // (generation bump + free-list push, retiring outstanding handles).
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  // Retires a slot and runs its callback in place, then frees the slot:
  // the callback may push new events and grow the tables, but neither
  // moves it nor reuses its slot while it runs.
  void run_slot(std::uint32_t slot);

  // The callback stored for `slot`.
  EventFn& fn_at(std::uint32_t slot) {
    return fn_chunks_[slot >> kFnChunkBits][slot & (kFnChunk - 1)];
  }

  // The packed level<<kSlotBits|slot where an event due at `when`
  // belongs: the level of the highest bit in which `when` differs from
  // the current tick (level 0 when due at it).
  std::uint32_t wheel_pos(std::int64_t when) const;
  // Links a live slot into its wheel_pos(when) list.
  void place(std::uint32_t slot, std::int64_t when);

  // Wheel list maintenance: O(1) splice in/out plus occupancy-bitmap
  // upkeep.
  void wheel_link(std::uint32_t slot, int level, std::uint32_t idx);
  void wheel_unlink(std::uint32_t slot);
  // Lowest occupied slot index at `level`; kSlots when it is empty.
  std::uint32_t first_occupied(int level) const;

  // Redistributes one coarse slot's events one step toward their exact
  // tick (called while entering the slot's window; members due exactly
  // at the new current tick land in its level-0 slot).
  void cascade(int level, std::uint32_t idx);
  // Advances the wheel's current tick to t, cascading every newly
  // entered slot level by level.
  void advance_to(std::int64_t t);

  // The earliest wheel instant when it is due by `deadline`, otherwise
  // some instant past the deadline that no event precedes. Cascades the
  // first occupied coarse slot at its window start — always at or
  // before its earliest event — until the front event sits in level 0,
  // where the occupancy bitmap alone yields its exact time; a window
  // that opens after the deadline is never entered, so the current
  // tick never passes the caller's clock. Amortized O(1): each event
  // cascades at most kLevels-1 times over its lifetime.
  std::int64_t settle(std::int64_t deadline);

  std::vector<Meta> meta_;  // SoA bookkeeping, by slot
  // SoA callbacks: slot s lives at fn_at(s), in chunk s / kFnChunk.
  std::vector<std::unique_ptr<EventFn[]>> fn_chunks_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // Wheel state: intrusive list heads, occupancy bitmaps, and the
  // current tick (the instant the queue last drained or advanced to;
  // every wheel resident is due at or after it).
  std::uint32_t wheel_head_[kLevels][kSlots];
  std::uint64_t wheel_bits_[kLevels][kSlots / 64];
  std::int64_t cur_ = 0;

  // The tick batch: entries due at cur_, sorted by seq. While it drains,
  // same-instant pushes append to it.
  std::vector<BatchEntry> batch_;
  bool draining_ = false;
};

// Liveness = the queue still exists and the slot generation matches
// (firing or cancelling bumps it, retiring every outstanding handle).
inline bool EventHandle::pending() const {
  return owner_ != nullptr && owner_->meta_[slot_].gen == gen_;
}

}  // namespace ntier::sim
