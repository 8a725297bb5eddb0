#include <gtest/gtest.h>

#include <vector>

#include "net/link.h"
#include "net/message.h"
#include "net/rto_policy.h"
#include "net/tcp_queue.h"
#include "net/transport.h"
#include "sim/simulation.h"

namespace ntier::net {
namespace {

using sim::Duration;
using sim::Simulation;
using sim::Time;

// --- RtoPolicy -----------------------------------------------------------

TEST(RtoPolicy, FixedSchedule) {
  const auto p = RtoPolicy::fixed3s();
  EXPECT_EQ(p.rto(0), Duration::seconds(3));
  EXPECT_EQ(p.rto(1), Duration::seconds(3));
  EXPECT_EQ(p.rto(5), Duration::seconds(3));
}

TEST(RtoPolicy, Rhel6ExponentialSchedule) {
  const auto p = RtoPolicy::rhel6();
  EXPECT_EQ(p.rto(0), Duration::seconds(3));
  EXPECT_EQ(p.rto(1), Duration::seconds(6));
  EXPECT_EQ(p.rto(2), Duration::seconds(12));
}

TEST(RtoPolicy, NegativeRetryClamps) {
  EXPECT_EQ(RtoPolicy::rhel6().rto(-3), Duration::seconds(3));
}

TEST(RtoPolicy, CustomMultiplier) {
  RtoPolicy p;
  p.initial = Duration::seconds(1);
  p.multiplier = 3.0;
  EXPECT_EQ(p.rto(2), Duration::seconds(9));
}

// --- MessageIdGen --------------------------------------------------------

TEST(MessageIdGen, Monotonic) {
  MessageIdGen gen;
  const auto a = gen.next();
  const auto b = gen.next();
  EXPECT_LT(a, b);
}

// --- Link ----------------------------------------------------------------

TEST(Link, FixedLatency) {
  Link l{Duration::micros(250)};
  EXPECT_EQ(l.sample(), Duration::micros(250));
  EXPECT_EQ(l.base_latency(), Duration::micros(250));
}

TEST(Link, JitterWithinBounds) {
  sim::Rng rng(1);
  Link l{Duration::micros(100), Duration::micros(50), rng};
  for (int i = 0; i < 1000; ++i) {
    const auto s = l.sample();
    EXPECT_GE(s, Duration::micros(100));
    EXPECT_LE(s, Duration::micros(150));  // rounding can land on the edge
  }
}

// --- TcpQueue ------------------------------------------------------------

TEST(TcpQueue, AdmitsUpToCapacity) {
  TcpQueue q(2);
  EXPECT_EQ(q.try_admit(0), TcpQueue::Admit::kSlot);
  EXPECT_EQ(q.try_admit(1), TcpQueue::Admit::kSlot);
  EXPECT_EQ(q.try_admit(2), TcpQueue::Admit::kDrop);
  EXPECT_EQ(q.capacity(), 2u);
}

TEST(TcpQueue, PopMakesRoom) {
  // A worker taking the waiting request frees the backlog slot.
  TcpQueue q(1);
  EXPECT_EQ(q.try_admit(1), TcpQueue::Admit::kDrop);
  EXPECT_EQ(q.try_admit(0), TcpQueue::Admit::kSlot);
}

// --- Transport -----------------------------------------------------------

struct Receiver {
  int accept_after_attempts = 0;  // refuse this many attempts first
  int attempts = 0;
  bool offer() {
    ++attempts;
    return attempts > accept_after_attempts;
  }
};

TEST(Transport, DeliversAfterLinkLatency) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::fixed3s(), Link{Duration::micros(500)});
  Receiver r;
  double delivered_at = -1;
  TxOutcome out;
  tx.send([&] {
    delivered_at = sim.now().to_seconds();
    return r.offer();
  },
          [&](const TxOutcome& o) { out = o; });
  sim.run_all();
  EXPECT_NEAR(delivered_at, 0.0005, 1e-9);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.drops, 0);
  EXPECT_EQ(out.retrans_delay, Duration::zero());
  EXPECT_EQ(tx.stats().delivered, 1u);
}

TEST(Transport, RetransmitsAfterRto) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::fixed3s(), Link{Duration::micros(0)});
  Receiver r{1};  // first attempt refused
  double delivered_at = -1;
  TxOutcome out;
  tx.send([&] {
    const bool ok = r.offer();
    if (ok) delivered_at = sim.now().to_seconds();
    return ok;
  },
          [&](const TxOutcome& o) { out = o; });
  sim.run_all();
  EXPECT_NEAR(delivered_at, 3.0, 1e-6);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.drops, 1);
  EXPECT_EQ(out.retrans_delay, Duration::seconds(3));
  EXPECT_EQ(tx.stats().drops, 1u);
  EXPECT_EQ(tx.stats().retransmits, 1u);
}

TEST(Transport, ExponentialBackoffTiming) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::rhel6(), Link{Duration::micros(0)});
  Receiver r{2};  // two refusals -> delivered at 3 + 6 = 9 s
  double delivered_at = -1;
  tx.send([&] {
    const bool ok = r.offer();
    if (ok) delivered_at = sim.now().to_seconds();
    return ok;
  });
  sim.run_all();
  EXPECT_NEAR(delivered_at, 9.0, 1e-6);
}

TEST(Transport, FixedBackoffTiming) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::fixed3s(), Link{Duration::micros(0)});
  Receiver r{3};  // three refusals -> delivered at 9 s
  double delivered_at = -1;
  tx.send([&] {
    const bool ok = r.offer();
    if (ok) delivered_at = sim.now().to_seconds();
    return ok;
  });
  sim.run_all();
  EXPECT_NEAR(delivered_at, 9.0, 1e-6);
}

TEST(Transport, GivesUpAfterMaxRetries) {
  Simulation sim;
  RtoPolicy p = RtoPolicy::fixed3s();
  p.max_retries = 2;
  Transport tx(sim, p, Link{Duration::micros(0)});
  Receiver r{100};  // never accepts
  TxOutcome out;
  tx.send([&] { return r.offer(); }, [&](const TxOutcome& o) { out = o; });
  sim.run_all();
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(r.attempts, 3);  // initial + 2 retries
  EXPECT_EQ(tx.stats().failed, 1u);
  EXPECT_EQ(tx.stats().delivered, 0u);
}

TEST(Transport, StatsAcrossManySends) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::fixed3s(), Link{Duration::micros(10)});
  int ok = 0;
  for (int i = 0; i < 10; ++i)
    tx.send([] { return true; }, [&](const TxOutcome& o) { ok += o.delivered; });
  sim.run_all();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(tx.stats().sent, 10u);
  EXPECT_EQ(tx.stats().delivered, 10u);
  EXPECT_EQ(tx.stats().drops, 0u);
}

TEST(Transport, ResultOptional) {
  Simulation sim;
  Transport tx(sim, RtoPolicy::fixed3s(), Link{});
  bool delivered = false;
  tx.send([&] {
    delivered = true;
    return true;
  });
  sim.run_all();
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace ntier::net
