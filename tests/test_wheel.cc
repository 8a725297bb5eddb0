// Property tests for the hierarchical timing wheel: the EventQueue must
// be observationally identical to a (when, seq) priority queue no
// matter how events distribute across wheel levels and the per-tick
// batch. The randomized schedules here deliberately mix same-tick
// bursts, far-future pushes that cascade through every level, slice
// edges that stop short of the next event, cancels and retimes at every
// level, and cancel- and retime-after-fire no-ops, and check size() and
// the instant run_next_tick reports at every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace {

using ntier::sim::Duration;
using ntier::sim::EventHandle;
using ntier::sim::EventQueue;
using ntier::sim::Rng;
using ntier::sim::Time;

// Reference model: a lazy-deletion priority queue popping strictly in
// (when, seq) order — the order the pre-wheel implementations used and
// the determinism invariant the wheel must preserve.
class Oracle {
 public:
  std::shared_ptr<bool> push(std::int64_t when, std::uint64_t id) {
    auto dead = std::make_shared<bool>(false);
    heap_.push(Entry{when, next_seq_++, id, dead});
    ++live_;
    return dead;
  }

  void cancel(const std::shared_ptr<bool>& dead) {
    if (*dead) return;
    *dead = true;
    --live_;
  }

  // Exact earliest live instant; INT64_MAX when empty.
  std::int64_t next_time() {
    skip_dead();
    return heap_.empty() ? std::numeric_limits<std::int64_t>::max()
                         : heap_.top().when;
  }

  // Pops every live entry at the earliest instant, in seq order.
  std::vector<std::uint64_t> pop_tick(std::int64_t* when_out) {
    std::vector<std::uint64_t> ids;
    skip_dead();
    if (heap_.empty()) return ids;
    *when_out = heap_.top().when;
    while (!heap_.empty() && heap_.top().when == *when_out) {
      if (!*heap_.top().dead) {
        *heap_.top().dead = true;  // fired: outstanding handles go stale
        ids.push_back(heap_.top().id);
        --live_;
      }
      heap_.pop();
    }
    return ids;
  }

  std::size_t live() const { return live_; }

 private:
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    std::uint64_t id;
    std::shared_ptr<bool> dead;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void skip_dead() {
    while (!heap_.empty() && *heap_.top().dead) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

TEST(WheelProperty, MatchesPriorityQueueOracleAcrossLevels) {
  // Random op mix whose delay menu hits every wheel level (0..7) and the
  // exact level boundaries. Draining goes through run_next_tick — the
  // driver the Simulation uses — and time only moves forward, as under
  // the Simulation facade: to each tick run, and to the deadline of a
  // slice once nothing more is due by it.
  EventQueue q;
  Oracle oracle;
  Rng rng(0x5eed);
  std::vector<EventHandle> handles;
  std::vector<std::shared_ptr<bool>> oracle_handles;
  std::vector<std::uint64_t> ids;  // the callback id behind each handle
  std::vector<std::uint64_t> fired;
  std::int64_t now = 0;
  std::uint64_t next_id = 0;

  static constexpr std::int64_t kDelays[] = {
      0,         1,          3,          200,        255,
      256,       257,        4096,       65535,      65536,
      65537,     1 << 20,    1ll << 24,  (1ll << 24) + 5,
      1ll << 31, 1ll << 33,  1ll << 40,  1ll << 47,
      1ll << 52, 1ll << 56,  (1ll << 61) + 3};
  // A tick or a slice moves the clock at most kMaxStep, so over 30000
  // steps it stays below 2^62 and now + the largest delay cannot
  // overflow.
  static constexpr std::int64_t kMaxStep = 1ll << 47;

  // Runs the next tick due by `deadline` on both queues and checks the
  // events, their order, and the instant the queue reports; with nothing
  // due, checks that the call runs nothing and leaves the clock alone.
  // Returns whether a tick ran.
  const auto tick = [&](std::int64_t deadline) {
    std::vector<std::uint64_t> want;
    std::int64_t owhen = now;
    if (oracle.next_time() <= deadline) want = oracle.pop_tick(&owhen);
    Time qnow = Time::from_micros(now);
    fired.clear();
    EXPECT_EQ(q.run_next_tick(Time::from_micros(deadline), qnow),
              want.size());
    EXPECT_EQ(fired, want);
    EXPECT_EQ(qnow.count_micros(), owhen);
    now = owhen;
    return !want.empty();
  };

  for (int step = 0; step < 30000 && !HasFailure(); ++step) {
    const std::uint64_t op = rng.next_u64() % 13;
    if (op < 6) {  // push (same-tick duplicates arise from delay 0/1)
      const std::int64_t when =
          now + kDelays[rng.next_u64() % std::size(kDelays)];
      const std::uint64_t id = next_id++;
      handles.push_back(q.push(Time::from_micros(when), [id, &fired] {
        fired.push_back(id);
      }));
      oracle_handles.push_back(oracle.push(when, id));
      ids.push_back(id);
    } else if (op < 8 && !handles.empty()) {  // cancel a random handle
      const std::size_t i = rng.next_u64() % handles.size();
      ASSERT_EQ(handles[i].pending(), !*oracle_handles[i]);
      handles[i].cancel();
      oracle.cancel(oracle_handles[i]);
      // Idempotent, and a no-op after the event fired.
      handles[i].cancel();
      EXPECT_FALSE(handles[i].pending());
    } else if (op >= 11 && !handles.empty()) {
      // Retime a random handle. Its oracle is cancel + push of the same
      // id: the event keeps its callback but takes a fresh seq. Between
      // ticks no event sits in a batch, so retime succeeds exactly when
      // the event is still pending.
      const std::size_t i = rng.next_u64() % handles.size();
      const std::int64_t when =
          now + kDelays[rng.next_u64() % std::size(kDelays)];
      const bool live = !*oracle_handles[i];
      ASSERT_EQ(q.retime(handles[i], Time::from_micros(when)), live);
      if (live) {
        oracle.cancel(oracle_handles[i]);
        oracle_handles[i] = oracle.push(when, ids[i]);
      }
      EXPECT_EQ(handles[i].pending(), live);
    } else if (op < 11) {
      ASSERT_EQ(q.size(), oracle.live());
      ASSERT_EQ(q.empty(), oracle.live() == 0);
      // One tick (op 8, 9) or a slice as Simulation::run_until runs it
      // (op 10): every tick due by the deadline, then a call whose
      // deadline lies strictly before the next instant, which must run
      // nothing. Once nothing is due, the clock moves to the deadline,
      // and later pushes start from there.
      const std::int64_t step =
          op < 10 ? kMaxStep
                  : std::min(kDelays[rng.next_u64() % std::size(kDelays)],
                             kMaxStep);
      const std::int64_t deadline = now + step;
      bool ran = tick(deadline);
      while (ran && op == 10) ran = tick(deadline);
      if (!ran) now = deadline;
    }
  }

  // Drain both to empty and compare the complete remaining pop order.
  while (!HasFailure() && tick(std::numeric_limits<std::int64_t>::max())) {
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(oracle.live(), 0u);
}

TEST(WheelTick, SameInstantPushJoinsTheDrainingBatch) {
  // An event that schedules more work at its own instant sees that
  // work run in the same run_next_tick pass, after every previously
  // scheduled same-instant event (seq order).
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::from_micros(1000);
  q.push(t, [&q, &fired, t] {
    fired.push_back(1);
    q.push(t, [&fired] { fired.push_back(3); });
  });
  q.push(t, [&fired] { fired.push_back(2); });
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelTick, MixedResidenciesMergeInSeqOrder) {
  // One instant reached two ways: far pushes that cascade down every
  // level into the tick's level-0 slot (pushed first, so smallest seq),
  // and direct pushes made once the queue stands in the same 256 µs
  // window. The drain must interleave them by seq even though the wheel
  // slot itself is unordered.
  EventQueue q;
  std::vector<int> fired;
  const std::int64_t t = (1ll << 24) + 12345;  // level-3 away from 0
  q.push(Time::from_micros(t), [&fired] { fired.push_back(0); });
  q.push(Time::from_micros(t), [&fired] { fired.push_back(1); });
  // Burn a tick just before t: reaching it cascades the pair down to
  // t's level-0 slot.
  q.push(Time::from_micros(t - 5), [&fired] { fired.push_back(-1); });
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(now.count_micros(), t - 5);
  // Now push more events at t straight into that level-0 slot.
  q.push(Time::from_micros(t), [&fired] { fired.push_back(2); });
  q.push(Time::from_micros(t), [&fired] { fired.push_back(3); });
  fired.clear();
  EXPECT_EQ(q.run_next_tick(Time::from_micros(t - 1), now), 0u);
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 4u);
  EXPECT_EQ(now.count_micros(), t);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WheelSize, CountsEveryResidenceExactly) {
  // size() across wheel levels, and the earliest instant exact before
  // any cascade: a deadline just short of it runs nothing, even after
  // the minimum is cancelled and the front event sits in a coarse slot.
  EventQueue q;
  int ran = 0;
  const auto noop = [&ran] { ++ran; };

  EventHandle near = q.push(Time::from_micros(7), noop);        // level 0
  EventHandle mid = q.push(Time::from_micros(70'000), noop);    // level 2
  EventHandle far = q.push(Time::from_micros(1ll << 33), noop); // level 4
  EXPECT_EQ(q.size(), 3u);
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::from_micros(6), now), 0u);
  EXPECT_EQ(now, Time::origin());

  // Cancelling the minimum re-exposes the coarse-slot time.
  near.cancel();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.run_next_tick(Time::from_micros(69'999), now), 0u);
  EXPECT_EQ(now, Time::origin());

  // A cancel at a coarser level is also exact and immediate.
  far.cancel();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(mid.pending());

  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(now.count_micros(), 70'000);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(mid.pending());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 0u);
}

TEST(WheelCancel, CancelDuringDrainSkipsBatchedEntry) {
  // Cancelling a same-tick sibling from inside a running event must
  // suppress it even though it was already gathered into the batch.
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::from_micros(50);
  EventHandle doomed;
  q.push(t, [&doomed, &fired] {
    fired.push_back(1);
    doomed.cancel();
  });
  doomed = q.push(t, [&fired] { fired.push_back(2); });
  q.push(t, [&fired] { fired.push_back(3); });
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(WheelRetime, BatchedEntryDeclinesAndTheCallerPushes) {
  // An event gathered into the draining batch cannot leave it: retime
  // declines and changes nothing, and the caller cancels and pushes
  // instead, the fallback HostCpu::reschedule takes.
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::from_micros(50);
  EventHandle moved;
  q.push(t, [&] {
    fired.push_back(1);
    EXPECT_FALSE(q.retime(moved, t + Duration::micros(5)));
    EXPECT_TRUE(moved.pending());
    moved.cancel();
    moved = q.push(t + Duration::micros(5), [&fired] { fired.push_back(2); });
  });
  moved = q.push(t, [&fired] { fired.push_back(-1); });
  q.push(t, [&fired] { fired.push_back(3); });
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(now, t + Duration::micros(5));
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelRetime, RetimeToTheDrainingTickJoinsTheBatch) {
  // A wheel resident retimed to the instant being drained takes a fresh
  // seq, so it joins the batch behind everything already due there:
  // where a cancel plus a same-instant push would run it.
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::from_micros(300);
  EventHandle later = q.push(t + Duration::millis(70), [&fired] { fired.push_back(9); });
  q.push(t, [&] {
    fired.push_back(1);
    EXPECT_TRUE(q.retime(later, t));
    EXPECT_TRUE(later.pending());
  });
  q.push(t, [&fired] { fired.push_back(2); });
  Time now;
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 3u);
  EXPECT_EQ(now, t);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 9}));
  EXPECT_FALSE(later.pending());
  EXPECT_TRUE(q.empty());

  // A lone event runs off the singleton path, with no batch: a retime
  // to its instant lands in the level-0 slot and runs on the next call,
  // at the same instant.
  const Time u = t + Duration::micros(10);
  EventHandle again = q.push(u + Duration::millis(1), [&fired] { fired.push_back(10); });
  q.push(u, [&] {
    fired.push_back(4);
    EXPECT_TRUE(q.retime(again, u));
  });
  fired.clear();
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(now, u);
  EXPECT_EQ(fired, (std::vector<int>{4, 10}));
  EXPECT_TRUE(q.empty());
}

}  // namespace
