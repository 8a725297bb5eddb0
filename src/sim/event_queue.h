// Cancellable future-event list for the discrete-event engine.
//
// A *hierarchical timing wheel* front-end absorbs the homogeneous timer
// mass (think times, RTO ladders, 50 ms sampler ticks, TLP probes):
// four levels of 256 slots at 1 µs base resolution cover ~71.6 minutes
// of simulated future, so insert and cancel are O(1) — a free-slot pop
// plus an intrusive doubly-linked-list splice, no sifting. Events
// beyond the wheel horizon (or scheduled at/before the wheel's current
// tick) fall back to the pre-existing *indexed 4-ary min-heap*, which
// keeps O(log n) insert/erase for far or irregular events. Execution is
// *batched per tick*: all events due at one `(when)` instant — wheel
// slot plus any same-instant heap events — are gathered into a scratch
// batch, sorted by sequence number, and drained in a single pass,
// amortizing dispatch and keeping the hot arrays in cache
// (docs/PERFORMANCE.md has the hierarchy parameters and the measured
// before/after table; bench/micro_engine.cc has the wheel-vs-heap
// cases).
//
// Slot storage is struct-of-arrays: the 24-byte POD heap entries, the
// 40-byte bookkeeping records (`Meta`: seq/when/generation/position/
// wheel links), and the 64-byte inline callbacks live in three parallel
// arrays, so heap sifts, wheel splices, and cancels never touch
// callback bytes — only execution does. Handles are plain
// {queue, slot, generation} triples; schedule/cancel touch no allocator
// at all (tests/test_hotpath.cc proves insert/cancel/cascade are
// allocation-free on a warmed queue).
//
// Callbacks are sim::InlineFn (src/sim/inline_fn.h): captures live
// inline in the slot, never on the heap, and oversized captures fail to
// compile.
//
// Determinism: live events pop in strict (when, seq) order — a total
// order. Within a tick the gathered batch is sorted by seq (wheel slots
// are unordered: a cascaded far event may carry a smaller seq than a
// directly-pushed near one), and events pushed *at the draining tick*
// append to the live batch with monotonically larger seqs, so the pop
// sequence is identical to the heap-only and priority-queue
// implementations for any program that never observes dead entries
// (tests/test_wheel.cc checks this against a priority-queue oracle over
// randomized push/cancel/advance schedules).
//
// Contract: pushing an event earlier than the tick a *batched* driver
// (run_tick / run_next_tick) is currently draining is not supported
// (the Simulation facade asserts `when >= now()`, which is strictly
// stronger). Outside a batched drain the raw queue API is fully
// general: pushes at or before the wheel's current tick route to the
// heap, and pop_and_run single-steps the exact global minimum, so even
// pushes into the already-executed past fire in (when, seq) order (the
// priority-queue-oracle property tests exercise exactly this).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
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
  // Prevents a pending event from firing: O(1) for wheel-resident and
  // batched events, O(log n) indexed erase for heap-resident ones.
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

// The future-event list: timing-wheel front-end, 4-ary-heap overflow,
// per-tick batch execution. Single-threaded; all complexity bounds are
// in the number of *live* (pending) events — cancelled entries are
// unlinked (wheel), erased (heap), or generation-skipped (batch) and
// never accumulate. The slot table, heap, and batch arrays grow
// amortized to the high-water mark and are then reused forever, so a
// warmed-up queue performs no allocations.
class EventQueue {
 public:
  // Non-copyable (handles and entries index into this queue's slot
  // table by address/index).
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues fn to run at `when`: O(1) for events within the wheel
  // horizon (~71.6 min), O(log n) heap insert beyond it. Events at
  // equal times fire in scheduling order. Takes the callback by rvalue
  // so it moves exactly once, straight into its slot.
  EventHandle push(Time when, EventFn&& fn);

  // Exact time of the earliest live event; Time::max() when empty.
  // Correct across the batch/wheel/heap split — an event resident in a
  // coarse wheel slot surfaces its exact time before any cascade.
  // Amortized O(1): the wheel's minimum is cached and recomputed (a
  // 4×4-word bitmap scan plus at most one slot-list walk) only after a
  // gather, cascade, or minimum-removing cancel.
  Time next_time() const;

  // Pops and runs the earliest live event — the exact (when, seq)
  // global minimum. Returns false if none exists. Single-stepping
  // variant of run_tick for tests and microbenches; never gathers a
  // batch, so pushes at or before already-executed ticks (legal
  // through the raw queue API) interleave in correct order.
  bool pop_and_run();

  // Gathers and runs *all* events due at the earliest instant. Events
  // the batch pushes at the same instant join the pass (in seq order);
  // returns the number of events executed (0 when the queue is empty).
  std::size_t run_tick();

  // Fused per-tick driver for Simulation::run_until: computes the
  // earliest tick once, runs nothing if it lies past `deadline`,
  // otherwise advances `now` to it and drains the whole tick,
  // returning the count executed. Singleton ticks — one wheel event
  // due and no same-instant heap event, the overwhelmingly common case
  // in closed-loop workloads — skip batch formation and the seq sort
  // entirely and run the lone callback straight out of its level-0
  // slot.
  std::size_t run_next_tick(Time deadline, Time& now);

  // True when no live events remain. O(1).
  bool empty() const { return live_ == 0; }
  // Exact number of live (pending, uncancelled) events, wherever they
  // reside (batch, wheel slots, or heap). O(1).
  std::size_t size() const { return live_; }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // Sentinel for "no event" in µs comparisons; equals Time::max().
  static constexpr std::int64_t kNoEvent =
      std::numeric_limits<std::int64_t>::max();

  // Wheel geometry: kLevels levels of kSlots slots; level l spans
  // 2^(kSlotBits*(l+1)) µs at 2^(kSlotBits*l) µs per slot. With 8-bit
  // levels the finest slot is exactly one 1 µs tick — a level-0 slot
  // holds events of a single instant — and the horizon is 2^32 µs.
  static constexpr int kSlotBits = 8;
  static constexpr int kLevels = 4;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kSlotMask = kSlots - 1;

  // Where a live slot currently resides (drives the cancel path).
  enum Where : std::uint8_t { kLocFree = 0, kLocHeap, kLocWheel, kLocBatch };

  // 24-byte POD heap entry: sifts are plain assignments, no callback
  // moves. `slot` indexes the SoA slot arrays.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Per-slot bookkeeping (SoA twin of fns_). `gen` increments when the
  // event fires or is cancelled, invalidating outstanding handles;
  // `pos` is the heap index (kLocHeap) or packed level<<kSlotBits|slot
  // (kLocWheel); `prev`/`next` thread the intrusive wheel list, with
  // `next` doubling as the free-list link.
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

  // True when a must fire strictly before b: the (when, seq) total order.
  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Digit of absolute time t at wheel level l (its slot index there).
  static std::uint32_t digit(std::int64_t t, int l) {
    return static_cast<std::uint32_t>(t >> (kSlotBits * l)) & kSlotMask;
  }

  // Slot allocation (free-list pop or table growth) and retirement
  // (generation bump + free-list push, retiring outstanding handles).
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);

  // Routes a live slot to its residence: wheel level by highest
  // differing bit vs. the current tick, heap when past/at the current
  // tick or beyond the horizon.
  void place(std::uint32_t slot, Time when);

  // Wheel list maintenance: O(1) splice in/out plus occupancy-bitmap
  // upkeep.
  void wheel_link(std::uint32_t slot, int level, std::uint32_t idx);
  void wheel_unlink(std::uint32_t slot);

  // Redistributes one coarse slot's events one step toward their exact
  // tick (called while entering the slot's window; members due exactly
  // at the new current tick land in its level-0 slot).
  void cascade(int level, std::uint32_t idx);
  // Advances the wheel's current tick to t, cascading every newly
  // entered slot level by level.
  void advance_to(std::int64_t t);

  // Exact earliest event time in the wheel (kNoEvent when none):
  // bitmap scan per level, min-`when` walk of the first occupied
  // coarse slot. Read-only — used by the const next_time() path.
  std::int64_t wheel_next_scan() const;
  // Cached wheel_next_scan; recomputed only when marked dirty.
  std::int64_t wheel_next() const;
  // Mutating twin for the hot tick driver: instead of walking a coarse
  // slot's (unordered) list for its minimum, cascades the first
  // occupied slot at its window start — always at or before its
  // earliest event, so cur_ never passes a wheel resident — until the
  // wheel's front event sits in level 0, where the occupancy bitmap
  // alone yields the exact time. Amortized O(1): each event cascades
  // at most kLevels-1 times over its lifetime either way.
  std::int64_t wheel_settle_next();

  // Gathers everything due at the earliest instant (wheel slot + heap
  // prefix) into the seq-sorted batch. False when the queue is empty.
  bool form_batch();
  // form_batch's gathering half, for callers that already computed the
  // tick time `t` and the heap/wheel minima (kNoEvent when absent).
  void gather_batch(std::int64_t t, std::int64_t th, std::int64_t tw);
  // Executes batch_[batch_pos_] if live; advances the cursor either way.
  // Returns true when an event actually ran.
  bool run_batch_entry();

  // Heap maintenance; every move keeps Meta::pos in sync.
  void heap_place(const Entry& e, std::size_t i);
  void sift_up(Entry e, std::size_t i);
  void sift_down(Entry e, std::size_t i);
  // Invalidates the slot and removes the entry at heap index `pos`.
  void heap_erase(std::size_t pos);
  // Moves the heap root into the batch (no execution, no callback move).
  void heap_pop_root_to_batch();

  std::vector<Entry> heap_;   // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<Meta> meta_;    // SoA bookkeeping, parallel to fns_
  std::vector<EventFn> fns_;  // SoA callbacks, parallel to meta_
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // Wheel state: intrusive list heads, occupancy bitmaps, resident
  // count, the current tick (the instant the queue last drained or
  // advanced to), and the cached earliest-wheel-event time.
  std::uint32_t wheel_head_[kLevels][kSlots];
  std::uint64_t wheel_bits_[kLevels][kSlots / 64];
  std::size_t wheel_count_ = 0;
  std::int64_t cur_ = 0;
  mutable std::int64_t wheel_next_cache_ = kNoEvent;
  mutable bool wheel_dirty_ = false;

  // The tick batch: entries due at batch_time_, sorted by seq;
  // batch_pos_ is the drain cursor, batch_live_ the count of
  // still-pending (unexecuted, uncancelled) entries — the batch is
  // active while batch_live_ > 0, and same-instant pushes append to it.
  std::vector<BatchEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::size_t batch_live_ = 0;
  Time batch_time_;
};

// Liveness = the queue still exists and the slot generation matches
// (firing or cancelling bumps it, retiring every outstanding handle).
inline bool EventHandle::pending() const {
  return owner_ != nullptr && owner_->meta_[slot_].gen == gen_;
}

}  // namespace ntier::sim
