#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace ntier::sim {
namespace {

Time at(double s) { return Time::from_seconds(s); }

// Runs every pending event through the tick driver; returns the count.
std::size_t drain(EventQueue& q) {
  Time now;
  std::size_t ran = 0;
  while (const std::size_t n = q.run_next_tick(Time::max(), now)) ran += n;
  return ran;
}

TEST(EventQueue, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  Time now = at(5);
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 0u);
  EXPECT_EQ(now, at(5));
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at(3), [&] { order.push_back(3); });
  q.push(at(1), [&] { order.push_back(1); });
  q.push(at(2), [&] { order.push_back(2); });
  EXPECT_EQ(drain(q), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(at(1), [&order, i] { order.push_back(i); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(at(1), [] {});
  q.push(at(2), [] {});
  h.cancel();
  Time now;
  EXPECT_EQ(q.run_next_tick(at(1.5), now), 0u);
  EXPECT_EQ(now, Time::origin());
  EXPECT_EQ(q.run_next_tick(Time::max(), now), 1u);
  EXPECT_EQ(now, at(2));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at(1), [&] { ++fired; });
  h.cancel();
  EXPECT_EQ(drain(q), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at(1), [&] { ++fired; });
  EXPECT_EQ(drain(q), 1u);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandlePendingLifecycle) {
  EventQueue q;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  auto h = q.push(at(1), [] {});
  EXPECT_TRUE(h.pending());
  drain(q);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, EventsCanPushEvents) {
  EventQueue q;
  std::vector<int> order;
  q.push(at(1), [&] {
    order.push_back(1);
    q.push(at(2), [&] { order.push_back(2); });
  });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelledEntriesDoNotBlockEmpty) {
  EventQueue q;
  auto h1 = q.push(at(1), [] {});
  auto h2 = q.push(at(2), [] {});
  h1.cancel();
  h2.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleaved) {
  EventQueue q;
  std::vector<Time> fired;
  for (int i = 100; i > 0; --i)
    q.push(Time::from_micros(i * 7 % 101), [&fired, i] { fired.push_back(Time::from_micros(i * 7 % 101)); });
  drain(q);
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

}  // namespace
}  // namespace ntier::sim
