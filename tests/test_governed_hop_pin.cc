// Byte pins on the governed hops: what a tail policy (attempt timeouts,
// retries under a budget, hedges, a circuit breaker and deadlines) does
// to the client hop and to every tier hop. Each run is fully traced and
// reduced to (size, FNV-1a-64) fingerprints of the span CSV, each
// server's Stats line, each governor's PolicyStats line and the
// client's counts, so any change to when an attempt, hedge, retry,
// timeout or settle happens fails here with both numbers in the message.
// One run drives a chain hop (connect_downstream), the other fan-out
// routes with a replica group; each first asserts that it reaches every
// path it pins, on the client and on the tier side.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_system.h"
#include "graph/topology.h"
#include "helpers.h"
#include "trace/chrome_trace.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;
using trace::SpanKind;

using test::pin;
using test::stats_line;

// One governor's PolicyStats counters as a text line.
std::string policy_line(const policy::HopGovernor& g) {
  const policy::PolicyStats& st = g.stats();
  std::string out;
  for (const std::uint64_t v : {st.retries, st.retries_suppressed, st.hedges, st.hedge_wins,
                                st.breaker_rejects, st.breaker_opens, st.deadline_cancels}) {
    out += std::to_string(v);
    out += ' ';
  }
  return out;
}

// The pins of one run: the span CSV, each server's Stats line (flat
// order), the client governor's and each tier governor's PolicyStats
// line, and the client's issued/completed/failed/timeouts counts.
std::vector<std::string> pins(const core::Testbed& sys) {
  std::vector<std::string> out{pin(trace::spans_csv(sys.tracer()->traces()))};
  for (std::size_t i = 0; i < sys.flat_count(); ++i)
    out.push_back(pin(stats_line(*sys.server_flat(i))));
  out.push_back(pin(policy_line(*sys.clients().governor())));
  for (std::size_t i = 0; i < sys.flat_count(); ++i)
    if (const auto* g = sys.server_flat(i)->governor()) out.push_back(pin(policy_line(*g)));
  const workload::ClientPool& c = sys.clients();
  out.push_back(pin(std::to_string(c.issued()) + ' ' + std::to_string(c.completed()) + ' ' +
                    std::to_string(c.failed()) + ' ' + std::to_string(c.timeouts())));
  return out;
}

// Every tier governor's counters summed.
policy::PolicyStats tier_policy_stats(const core::Testbed& sys) {
  policy::PolicyStats sum;
  for (std::size_t i = 0; i < sys.flat_count(); ++i) {
    const auto* g = sys.server_flat(i)->governor();
    if (g == nullptr) continue;
    sum.retries += g->stats().retries;
    sum.retries_suppressed += g->stats().retries_suppressed;
    sum.hedges += g->stats().hedges;
    sum.hedge_wins += g->stats().hedge_wins;
    sum.breaker_rejects += g->stats().breaker_rejects;
    sum.deadline_cancels += g->stats().deadline_cancels;
  }
  return sum;
}

// Sends the tier hops abandoned after their last retransmission.
std::uint64_t tier_give_ups(core::Testbed& sys) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < sys.flat_count(); ++i) {
    server::Server* s = sys.server_flat(i);
    if (auto* tx = s->downstream_transport()) n += tx->stats().failed;
    for (std::size_t k = 0; k < s->route_count(); ++k) n += s->route_transport(k)->stats().failed;
  }
  return n;
}

// True when some first retry at `site` begins exactly `timeout` after
// its parent span opened. The parent (the client's root span, or a
// tier's downstream-wait span) opens when the first attempt is sent, so
// that retry followed an attempt timeout.
bool retried_after_timeout(const trace::TraceList& traces, const std::string& site,
                           Duration timeout) {
  for (const auto& tr : traces)
    for (const auto& s : tr->spans())
      if (s.kind == SpanKind::kRetry && s.site == site && s.detail == 1 &&
          s.begin - tr->spans()[s.parent].begin == timeout)
        return true;
  return false;
}

// True when some retry at `site` begins less than 2 ms after a shed at
// `shed_site` in the same trace: the canned error reply was retried.
bool retried_after_shed(const trace::TraceList& traces, const std::string& site,
                        const std::string& shed_site) {
  for (const auto& tr : traces)
    for (const auto& shed : tr->spans())
      if (shed.kind == SpanKind::kOverloadShed && shed.site == shed_site)
        for (const auto& r : tr->spans())
          if (r.kind == SpanKind::kRetry && r.site == site && r.begin > shed.begin &&
              r.begin - shed.begin < Duration::millis(2))
            return true;
  return false;
}

// Deadline cancels at the tier hop `site`: {before the first send,
// later}. A cancel before the send is an instant at the opening of its
// downstream-wait span; a later one comes at a retry.
std::pair<int, int> cancels(const trace::TraceList& traces, const std::string& site) {
  std::pair<int, int> n{0, 0};
  for (const auto& tr : traces)
    for (const auto& s : tr->spans())
      if (s.kind == SpanKind::kDeadlineCancel && s.site == site)
        ++(s.begin == tr->spans()[s.parent].begin ? n.first : n.second);
  return n;
}

// Attempt timeouts, a small retry budget, one hedge, a quick breaker
// and an end-to-end deadline; `at` is the attempt timeout.
policy::TailPolicy governed(Duration at, Duration deadline) {
  policy::TailPolicy p;
  p.deadline = deadline;
  p.attempt_timeout = at;
  p.retry.max_attempts = 3;
  p.retry.base_backoff = Duration::millis(5);
  p.retry.max_backoff = Duration::millis(200);
  p.retry.budget_ratio = 0.2;
  p.retry.budget_capacity = 3.0;
  p.hedge.enabled = true;
  p.hedge.initial_delay = Duration::millis(30);
  p.hedge.warmup_samples = 32;
  p.breaker.enabled = true;
  p.breaker.failure_threshold = 0.4;
  p.breaker.min_samples = 10;
  p.breaker.window = Duration::millis(500);
  p.breaker.open_for = Duration::millis(100);
  return p;
}

// Short retransmission ladders, so a crashed receiver makes the sender
// give up inside the crash window.
net::RtoPolicy short_rto() {
  net::RtoPolicy r = net::RtoPolicy::fixed3s();
  r.initial = Duration::millis(40);
  r.backoff = net::RtoPolicy::Backoff::kFixed;
  r.max_retries = 2;
  return r;
}

// A sync front and a sync back wired as a chain (connect_downstream).
// Both shed above a queue cap with an error reply, the back freezes
// periodically, a crash window at each node makes its sender give up,
// and a slow-node window at the front holds admitted requests past
// their deadline before they are sent on. The browser timeout is
// shorter than the deadline, so the client abandons by timeout; the
// front still cancels work past the deadline.
constexpr const char* kChain = R"(graph pin_chain
sessions 120
think 100ms
duration 5s
node front kind=sync threads=16 backlog=16 work=cpu:300us,down,cpu:100us
node back  kind=sync threads=6 backlog=16 work=cpu:1ms
edge front back
freeze back first=1s period=1500ms pause=300ms
)";

TEST(GovernedHopPin, ChainHop) {
  graph::GraphConfig cfg = graph::parse_topology(kChain);
  cfg.workload.client_policy = governed(Duration::millis(60), Duration::millis(400));
  cfg.workload.client_timeout = Duration::millis(150);
  cfg.workload.client_rto = short_rto();
  cfg.tier_policy = governed(Duration::millis(40), Duration::zero());
  cfg.tier_rto = short_rto();
  using policy::overload::Kind;
  cfg.nodes[0].overload.kind = Kind::kQueueCap;
  cfg.nodes[0].overload.queue_cap = 24;
  cfg.nodes[1].overload.kind = Kind::kQueueCap;
  cfg.nodes[1].overload.queue_cap = 12;
  cfg.faults.crashes.push_back({0, Time::from_seconds(2.0), Duration::millis(300)});
  cfg.faults.crashes.push_back({1, Time::from_seconds(3.3), Duration::millis(300)});
  cfg.faults.slow_nodes.push_back({0, Time::from_seconds(4.0), Duration::millis(400), 0.005});
  cfg.trace.mode = trace::TraceMode::kAll;
  auto sys = graph::run_graph(cfg);
  ASSERT_EQ(sys->flat_count(), 2u);
  ASSERT_NE(sys->server_flat(0)->downstream(), nullptr);

  // Client and tier each retry after an attempt timeout and after a
  // shed, run out of retry budget, hedge and win with a hedge, reject
  // at the breaker and give up on a transport; the front cancels at the
  // deadline before a send and at a retry; the client times out.
  const auto& traces = sys->tracer()->traces();
  EXPECT_TRUE(retried_after_timeout(traces, "client", Duration::millis(60)));
  EXPECT_TRUE(retried_after_timeout(traces, "front->back", Duration::millis(40)));
  EXPECT_TRUE(retried_after_shed(traces, "client", "front"));
  EXPECT_TRUE(retried_after_shed(traces, "front->back", "back"));
  const policy::PolicyStats tier = tier_policy_stats(*sys);
  const policy::PolicyStats& client = sys->clients().governor()->stats();
  for (const policy::PolicyStats* st : {&client, &tier}) {
    EXPECT_GT(st->retries_suppressed, 0u);
    EXPECT_GT(st->hedges, 0u);
    EXPECT_GT(st->hedge_wins, 0u);
    EXPECT_GT(st->breaker_rejects, 0u);
  }
  EXPECT_GT(sys->clients().tx_stats().failed, 0u);
  EXPECT_GT(tier_give_ups(*sys), 0u);
  const auto [before_send, at_retry] = cancels(traces, "front->back");
  EXPECT_GT(before_send, 0);
  EXPECT_GT(at_retry, 0);
  EXPECT_GT(sys->clients().timeouts(), 0u);

  EXPECT_EQ(pins(*sys), (std::vector<std::string>{
                            "1633960:f73331adf826df7d",
                            "44:60ebd77221cb063b",
                            "37:49c5f619b29b9939",
                            "26:af6548770bfb442e",
                            "22:23eba3764289fe6d",
                            "17:ea14a1e55b6609d7",
                        }));
}

// A sync front fanning out to a three-replica sync service behind a
// power-of-two balancer (one replica freezes periodically) and to an
// async store. The front and the service replicas shed above a queue
// cap, crash windows at the front and at a service replica make their
// senders give up, and the front runs slow for a while. No browser
// timeout: the client abandons at the deadline.
constexpr const char* kFanOut = R"(graph pin_fanout
sessions 120
think 100ms
duration 5s
node front kind=sync threads=24 backlog=24 work=cpu:200us,down,cpu:100us
node svc   kind=sync replicas=3 lb=p2c threads=4 backlog=8 work=cpu:800us
node store kind=async work=cpu:300us
edge front svc
edge front store
freeze svc replica=0 first=1s period=1500ms pause=300ms
)";

TEST(GovernedHopPin, FanOutRoutes) {
  graph::GraphConfig cfg = graph::parse_topology(kFanOut);
  cfg.workload.client_policy = governed(Duration::millis(80), Duration::millis(200));
  cfg.workload.client_rto = short_rto();
  cfg.tier_policy = governed(Duration::millis(50), Duration::zero());
  cfg.tier_policy.retry.budget_ratio = 0.05;
  cfg.tier_policy.breaker.failure_threshold = 0.15;
  cfg.tier_rto = short_rto();
  using policy::overload::Kind;
  cfg.nodes[0].overload.kind = Kind::kQueueCap;
  cfg.nodes[0].overload.queue_cap = 30;
  cfg.nodes[1].overload.kind = Kind::kQueueCap;
  cfg.nodes[1].overload.queue_cap = 3;
  cfg.faults.crashes.push_back({0, Time::from_seconds(2.0), Duration::millis(300)});
  cfg.faults.crashes.push_back({2, Time::from_seconds(3.3), Duration::millis(300)});
  cfg.faults.slow_nodes.push_back({0, Time::from_seconds(4.0), Duration::millis(400), 0.005});
  cfg.trace.mode = trace::TraceMode::kAll;
  auto sys = graph::run_graph(cfg);
  ASSERT_EQ(sys->flat_count(), 5u);
  ASSERT_EQ(sys->server_flat(0)->route_count(), 2u);

  // The same paths through routes whose replica picker chooses per
  // attempt; the front cancels at a retry, and the client abandons at
  // the deadline.
  const auto& traces = sys->tracer()->traces();
  EXPECT_TRUE(retried_after_timeout(traces, "client", Duration::millis(80)));
  EXPECT_TRUE(retried_after_timeout(traces, "front->svc", Duration::millis(50)));
  EXPECT_TRUE(retried_after_shed(traces, "client", "front"));
  EXPECT_TRUE(retried_after_shed(traces, "front->svc", "svc#0") ||
              retried_after_shed(traces, "front->svc", "svc#1") ||
              retried_after_shed(traces, "front->svc", "svc#2"));
  const policy::PolicyStats tier = tier_policy_stats(*sys);
  const policy::PolicyStats& client = sys->clients().governor()->stats();
  for (const policy::PolicyStats* st : {&client, &tier}) {
    EXPECT_GT(st->retries_suppressed, 0u);
    EXPECT_GT(st->hedges, 0u);
    EXPECT_GT(st->hedge_wins, 0u);
    EXPECT_GT(st->breaker_rejects, 0u);
    EXPECT_GT(st->deadline_cancels, 0u);
  }
  EXPECT_GT(sys->clients().tx_stats().failed, 0u);
  EXPECT_GT(tier_give_ups(*sys), 0u);
  EXPECT_GT(cancels(traces, "front->svc").second, 0);

  EXPECT_EQ(pins(*sys), (std::vector<std::string>{
                            "2254201:622308e077058b24",
                            "42:c76d02356bf2900b",
                            "34:6cb838e8411a6db4",
                            "38:468ff9b6238904f4",
                            "31:795edf77cad6c51f",
                            "34:66b51e111132148e",
                            "24:a66149da7655e0c2",
                            "21:0536420da786621f",
                            "16:784f0be708d96c33",
                        }));
}

}  // namespace
}  // namespace ntier
