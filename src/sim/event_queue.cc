#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace ntier::sim {

EventQueue::EventQueue() {
  for (auto& level : wheel_head_)
    for (auto& head : level) head = kNil;
  for (auto& level : wheel_bits_)
    for (auto& word : level) word = 0;
}

// O(1) wherever the event resides: a wheel resident is spliced out, a
// batched one is skipped by its drain once the generation moves on.
void EventHandle::cancel() {
  if (!pending()) return;
  EventQueue& q = *owner_;
  if (q.meta_[slot_].where == EventQueue::kLocWheel) q.wheel_unlink(slot_);
  q.fn_at(slot_).reset();
  q.free_slot(slot_);
  --q.live_;
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].next;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(meta_.size());
  meta_.emplace_back();
  if ((slot & (kFnChunk - 1)) == 0) fn_chunks_.push_back(std::make_unique<EventFn[]>(kFnChunk));
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Meta& m = meta_[slot];
  ++m.gen;  // invalidate outstanding handles
  m.where = kLocFree;
  m.next = free_head_;
  free_head_ = slot;
}

void EventQueue::run_slot(std::uint32_t slot) {
  // Retire the handle first, as a cancel would: the event is no longer
  // pending while its callback runs.
  ++meta_[slot].gen;
  meta_[slot].where = kLocFree;
  --live_;
  EventFn& fn = fn_at(slot);
  fn();
  fn.reset();
  // The callback may have grown meta_: index it afresh.
  meta_[slot].next = free_head_;
  free_head_ = slot;
}

void EventQueue::wheel_link(std::uint32_t slot, int level, std::uint32_t idx) {
  Meta& m = meta_[slot];
  m.where = kLocWheel;
  m.pos = (static_cast<std::uint32_t>(level) << kSlotBits) | idx;
  m.prev = kNil;
  m.next = wheel_head_[level][idx];
  if (m.next != kNil) meta_[m.next].prev = slot;
  wheel_head_[level][idx] = slot;
  wheel_bits_[level][idx >> 6] |= 1ull << (idx & 63);
}

void EventQueue::wheel_unlink(std::uint32_t slot) {
  Meta& m = meta_[slot];
  const int level = static_cast<int>(m.pos >> kSlotBits);
  const std::uint32_t idx = m.pos & (kSlots - 1);
  if (m.prev != kNil)
    meta_[m.prev].next = m.next;
  else
    wheel_head_[level][idx] = m.next;
  if (m.next != kNil) meta_[m.next].prev = m.prev;
  if (wheel_head_[level][idx] == kNil)
    wheel_bits_[level][idx >> 6] &= ~(1ull << (idx & 63));
}

std::uint32_t EventQueue::first_occupied(int level) const {
  // Every resident is due at or after cur_, so no occupied slot lies
  // behind cur_'s digit: the scan starts at its word, and the lowest
  // set bit from there is the earliest slot.
  for (std::uint32_t word = digit(cur_, level) >> 6; word < kSlots / 64; ++word)
    if (const std::uint64_t bits = wheel_bits_[level][word])
      return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
  return kSlots;
}

std::uint32_t EventQueue::wheel_pos(std::int64_t when) const {
  assert(when >= cur_ && "push behind the wheel's current tick");
  // Level = position of the highest bit in which `when` differs from
  // the current tick: the finest level whose slot for `when` has not
  // yet been passed (`| 1`: an event due at cur_ itself is level 0).
  const std::uint64_t x =
      (static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(cur_)) | 1;
  const int level = (63 - std::countl_zero(x)) / kSlotBits;
  return (static_cast<std::uint32_t>(level) << kSlotBits) | digit(when, level);
}

void EventQueue::place(std::uint32_t slot, std::int64_t when) {
  const std::uint32_t pos = wheel_pos(when);
  wheel_link(slot, static_cast<int>(pos >> kSlotBits), pos & (kSlots - 1));
}

std::uint32_t EventQueue::schedule(Time when) {
  const std::uint32_t slot = alloc_slot();
  Meta& m = meta_[slot];
  m.seq = next_seq_++;
  m.when = when;
  ++live_;
  enqueue(slot);
  return slot;
}

void EventQueue::enqueue(std::uint32_t slot) {
  Meta& m = meta_[slot];
  if (draining_ && m.when.count_micros() == cur_) {
    // Same instant as the draining batch: join it. next_seq_ is
    // monotone, so appending keeps the batch sorted by seq.
    m.where = kLocBatch;
    batch_.push_back({m.seq, slot, m.gen});
  } else {
    place(slot, m.when.count_micros());
  }
}

bool EventQueue::retime(const EventHandle& h, Time when) {
  assert(h.owner_ == nullptr || h.owner_ == this);
  if (!h.pending()) return false;
  Meta& m = meta_[h.slot_];
  // A batched entry cannot leave the batch; a wheel resident is
  // re-enqueued like a fresh push, seq included.
  if (m.where != kLocWheel) return false;
  m.seq = next_seq_++;
  m.when = when;
  // Slot lists are unordered, so a resident whose new instant maps to
  // the slot it occupies stays linked there. No resident sits in the
  // draining tick's own level-0 slot (its events were gathered into the
  // batch), so a retime to the draining tick always reaches enqueue.
  if (wheel_pos(when.count_micros()) == m.pos) return true;
  wheel_unlink(h.slot_);
  enqueue(h.slot_);
  return true;
}

void EventQueue::cascade(int level, std::uint32_t idx) {
  std::uint32_t slot = wheel_head_[level][idx];
  wheel_head_[level][idx] = kNil;
  wheel_bits_[level][idx >> 6] &= ~(1ull << (idx & 63));
  while (slot != kNil) {
    const std::uint32_t next = meta_[slot].next;
    place(slot, meta_[slot].when.count_micros());
    slot = next;
  }
}

void EventQueue::advance_to(std::int64_t t) {
  const std::int64_t old = cur_;
  cur_ = t;  // first, so cascaded events re-place relative to t
  for (int l = kLevels - 1; l >= 1; --l) {
    if ((t >> (kSlotBits * l)) != (old >> (kSlotBits * l)))
      cascade(l, digit(t, l));
  }
}

std::int64_t EventQueue::settle(std::int64_t deadline) {
  for (int l = 0; l < kLevels; ++l) {
    const std::uint32_t idx = first_occupied(l);
    if (idx == kSlots) continue;
    // Any level-l event precedes every level-(l+1) one, and the first
    // occupied slot at the lowest occupied level holds the front event.
    // Its members share every bit above level l with cur_: at level 0
    // that makes the slot index alone the exact instant, and a coarse
    // slot's window opens at any member's time with the lower bits
    // cleared.
    if (l == 0) return (cur_ & ~std::int64_t{kSlots - 1}) | idx;
    const std::int64_t start = meta_[wheel_head_[l][idx]].when.count_micros() &
                               -(std::int64_t{1} << (kSlotBits * l));
    if (start > deadline) return start;
    advance_to(start);
    l = -1;  // the slot cascaded to finer levels: rescan from level 0
  }
  assert(false && "live events but an empty wheel");
  return deadline;
}

std::size_t EventQueue::run_next_tick(Time deadline, Time& now) {
  if (live_ == 0) return 0;
  const std::int64_t t = settle(deadline.count_micros());
  if (t > deadline.count_micros()) return 0;
  // t lies in cur_'s level-0 window, so entering it cascades nothing,
  // and the level-0 slot for t holds exactly the events due at t.
  now = Time::from_micros(t);
  cur_ = t;
  const std::uint32_t idx = digit(t, 0);
  std::uint32_t slot = wheel_head_[0][idx];
  wheel_head_[0][idx] = kNil;
  wheel_bits_[0][idx >> 6] &= ~(1ull << (idx & 63));
  if (meta_[slot].next == kNil) {
    // Singleton tick: run the lone callback straight out of its slot —
    // no batch, no seq sort. Same-instant pushes made by the callback
    // land in this slot again and run on the very next call, still in
    // seq order.
    run_slot(slot);
    return 1;
  }
  batch_.clear();
  for (; slot != kNil; slot = meta_[slot].next) {
    Meta& m = meta_[slot];
    assert(m.when.count_micros() == t);
    m.where = kLocBatch;
    batch_.push_back({m.seq, slot, m.gen});
  }
  // Restore the (when, seq) total order: wheel slots are unordered (a
  // cascaded far event may carry a smaller seq than a directly-pushed
  // near one).
  std::sort(batch_.begin(), batch_.end(),
            [](const BatchEntry& a, const BatchEntry& b) {
              return a.seq < b.seq;
            });
  draining_ = true;
  std::size_t ran = 0;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const BatchEntry e = batch_[i];
    if (meta_[e.slot].gen != e.gen) continue;  // cancelled after gathering
    run_slot(e.slot);
    ++ran;
  }
  draining_ = false;
  return ran;
}

}  // namespace ntier::sim
