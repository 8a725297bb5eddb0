// Tests of the protocol matrix (net/protocol.h + the plumbing through
// core::apply_protocol and the graph grammar): closed-form RTO
// schedules per profile, admission-mode semantics of the accept queue,
// the SYN-cookie accepted-but-slow path, UDP app-timeout recovery via
// the policy governors, the visible/hidden/absent classifier, and the
// byte-identity contract that applying the default profile changes
// nothing.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "net/rto_policy.h"
#include "net/tcp_queue.h"

namespace ntier::net {
namespace {

using sim::Duration;
using sim::Time;

// --- RtoPolicy schedules -------------------------------------------------

TEST(ProtocolRto, LinuxModernSchedule) {
  const auto p = RtoPolicy::linux_modern();
  EXPECT_EQ(p.rto(0), Duration::millis(10));  // tail-loss probe
  EXPECT_EQ(p.rto(1), Duration::millis(200));
  EXPECT_EQ(p.rto(2), Duration::millis(400));
  EXPECT_EQ(p.rto(3), Duration::millis(800));
  EXPECT_EQ(p.rto(4), Duration::millis(1600));
  EXPECT_EQ(p.rto(5), Duration::millis(3200));
  EXPECT_EQ(p.max_retries, 6);
}

TEST(ProtocolRto, MaxRtoCapsTheLadder) {
  RtoPolicy p;
  p.initial = Duration::seconds(1);
  p.multiplier = 2.0;
  p.max_rto = Duration::seconds(4);
  EXPECT_EQ(p.rto(0), Duration::seconds(1));
  EXPECT_EQ(p.rto(2), Duration::seconds(4));   // 4 s, exactly at the cap
  EXPECT_EQ(p.rto(10), Duration::seconds(4));  // 1024 s clipped to 4 s
}

TEST(ProtocolRto, ErpcFixedRttScale) {
  const auto p = RtoPolicy::erpc();
  EXPECT_EQ(p.rto(0), Duration::millis(2));
  EXPECT_EQ(p.rto(63), Duration::millis(2));
  EXPECT_EQ(p.max_retries, 64);
}

TEST(ProtocolRto, TlpNegativeRetryClampsToProbe) {
  EXPECT_EQ(RtoPolicy::linux_modern().rto(-5), Duration::millis(10));
}

TEST(ProtocolRto, LegacySchedulesUnchanged) {
  // The seed profiles predate tlp/max_rto; both fields must stay inert.
  EXPECT_EQ(RtoPolicy::fixed3s().rto(4), Duration::seconds(3));
  EXPECT_EQ(RtoPolicy::rhel6().rto(2), Duration::seconds(12));
  EXPECT_EQ(RtoPolicy::rhel6().tlp, Duration::zero());
  EXPECT_EQ(RtoPolicy::rhel6().max_rto, Duration::zero());
}

// --- ProtocolProfile -----------------------------------------------------

TEST(ProtocolProfile, ByNameRoundTripsEveryProfile) {
  const auto all = ProtocolProfile::names();
  EXPECT_EQ(all.size(), 6u);
  for (const auto& n : all) {
    const auto p = ProtocolProfile::by_name(n);
    ASSERT_TRUE(p.has_value()) << n;
    EXPECT_EQ(p->name, n);
  }
  EXPECT_FALSE(ProtocolProfile::by_name("rhel7").has_value());
  EXPECT_FALSE(ProtocolProfile::by_name("").has_value());
}

TEST(ProtocolProfile, ProfileSemantics) {
  const auto cookies = ProtocolProfile::syn_cookies();
  EXPECT_EQ(cookies.admission, AdmissionMode::kSynCookies);
  EXPECT_GT(cookies.cookie_penalty, Duration::zero());

  const auto udp = ProtocolProfile::udp_apptimeout();
  EXPECT_EQ(udp.transport, TransportKind::kUdpAppTimeout);
  EXPECT_EQ(udp.rto.max_retries, 0);  // the stack never retransmits
  EXPECT_GT(udp.app_attempts, 1);
  EXPECT_GT(udp.app_timeout, Duration::zero());

  const auto erpc = ProtocolProfile::erpc();
  EXPECT_EQ(erpc.transport, TransportKind::kErpc);
  EXPECT_EQ(erpc.admission, AdmissionMode::kBypass);
}

TEST(ProtocolProfile, DefaultEqualsFixed3s) {
  // A default-constructed profile IS the seed stack, so applying
  // fixed3s() can never change a default config.
  const ProtocolProfile d;
  const auto f = ProtocolProfile::fixed3s();
  EXPECT_EQ(d.name, f.name);
  EXPECT_EQ(d.admission, f.admission);
  EXPECT_EQ(d.rto.initial, f.rto.initial);
  EXPECT_EQ(d.cookie_penalty, f.cookie_penalty);
}

// --- classify_ctqo -------------------------------------------------------

TEST(ClassifyCtqo, Taxonomy) {
  const auto s = [](double x) { return Duration::from_seconds(x); };
  EXPECT_EQ(classify_ctqo(0, s(9.0)), CtqoVisibility::kAbsent);
  EXPECT_EQ(classify_ctqo(0, s(0.0)), CtqoVisibility::kAbsent);
  EXPECT_EQ(classify_ctqo(100, s(3.1)), CtqoVisibility::kVisible);
  EXPECT_EQ(classify_ctqo(100, s(2.5)), CtqoVisibility::kVisible);  // at bar
  EXPECT_EQ(classify_ctqo(100, s(0.4)), CtqoVisibility::kHidden);
  // Custom threshold.
  EXPECT_EQ(classify_ctqo(1, s(1.0), s(0.5)), CtqoVisibility::kVisible);
}

TEST(ClassifyCtqo, ToStrings) {
  EXPECT_STREQ(to_string(CtqoVisibility::kVisible), "visible");
  EXPECT_STREQ(to_string(CtqoVisibility::kHidden), "hidden");
  EXPECT_STREQ(to_string(CtqoVisibility::kAbsent), "absent");
  EXPECT_STREQ(to_string(AdmissionMode::kTcpDrop), "tcp_drop");
  EXPECT_STREQ(to_string(AdmissionMode::kSynCookies), "syn_cookies");
  EXPECT_STREQ(to_string(AdmissionMode::kBypass), "bypass");
  EXPECT_STREQ(to_string(TransportKind::kUdpAppTimeout), "udp_apptimeout");
}

// --- TcpQueue admission modes --------------------------------------------

TEST(TcpQueueAdmission, SynCookiesOverflowAdmitsInsteadOfDropping) {
  TcpQueue q(1);
  q.set_mode(AdmissionMode::kSynCookies);
  EXPECT_EQ(q.try_admit(0), TcpQueue::Admit::kSlot);
  EXPECT_EQ(q.try_admit(1), TcpQueue::Admit::kCookie);
  EXPECT_EQ(q.try_admit(2), TcpQueue::Admit::kCookie);  // beyond capacity, by design
  EXPECT_EQ(q.cookie_admits(), 2u);
}

TEST(TcpQueueAdmission, BypassNeverRefuses) {
  TcpQueue q(0);
  q.set_mode(AdmissionMode::kBypass);
  for (std::size_t depth = 0; depth < 5; ++depth)
    EXPECT_EQ(q.try_admit(depth), TcpQueue::Admit::kSlot);
  EXPECT_EQ(q.cookie_admits(), 0u);
}

TEST(TcpQueueAdmission, DefaultModeIsSeedBehaviour) {
  TcpQueue q(1);
  EXPECT_EQ(q.mode(), AdmissionMode::kTcpDrop);
  EXPECT_EQ(q.try_admit(0), TcpQueue::Admit::kSlot);
  EXPECT_EQ(q.try_admit(1), TcpQueue::Admit::kDrop);
  EXPECT_EQ(q.cookie_admits(), 0u);
}

}  // namespace
}  // namespace ntier::net

namespace ntier::core {
namespace {

using sim::Duration;
using sim::Time;

// The Fig 3 millibottleneck shortened for test runtime: well past the
// CTQO onset, so the kTcpDrop baseline reliably drops.
ExperimentConfig overloaded(const net::ProtocolProfile& p) {
  auto cfg = scenarios::fig3_consolidation_sync();
  cfg.duration = Duration::seconds(12);
  apply_protocol(cfg, p);
  return cfg;
}

TEST(ApplyProtocol, Fixed3sIsByteIdenticalNoOp) {
  auto run_events = [](bool apply) {
    ExperimentConfig cfg;
    cfg.workload.sessions = 800;
    cfg.duration = Duration::seconds(5);
    if (apply) apply_protocol(cfg, net::ProtocolProfile::fixed3s());
    auto sys = run_system(cfg);
    const auto s = summarize(*sys);
    return std::tuple(sys->simulation().events_executed(), s.throughput_rps,
                      s.latency.count, s.total_drops);
  };
  EXPECT_EQ(run_events(false), run_events(true));
}

TEST(ApplyProtocol, SynCookiesConvertsDropsIntoSlowAdmits) {
  auto base = run_system(overloaded(net::ProtocolProfile::fixed3s()));
  const auto bs = summarize(*base);
  ASSERT_GT(bs.total_drops, 0u);  // the baseline phenomenon is present

  auto sys = run_system(overloaded(net::ProtocolProfile::syn_cookies()));
  const auto s = summarize(*sys);
  EXPECT_EQ(s.total_drops, 0u);  // overflow became admits, not drops
  std::uint64_t cookies = 0;
  for (auto* srv : {base->web(), base->app(), base->db()}) (void)srv;
  for (auto* srv : {sys->web(), sys->app(), sys->db()})
    if (const auto* q = srv->accept_queue()) cookies += q->cookie_admits();
  EXPECT_GT(cookies, 0u);
  // No drop -> no 3 s retransmit modes: the tail collapses vs baseline.
  EXPECT_LT(s.latency.p999.to_seconds(), bs.latency.p999.to_seconds());
}

TEST(ApplyProtocol, UdpAppTimeoutRecoversViaGovernors) {
  auto base = run_system(overloaded(net::ProtocolProfile::fixed3s()));
  const auto bs = summarize(*base);
  auto sys = run_system(overloaded(net::ProtocolProfile::udp_apptimeout()));
  const auto s = summarize(*sys);
  // The stack abandons every refused attempt immediately...
  EXPECT_GT(s.retransmit_exhausted, 0u);
  // ...and the app-level governors re-send it.
  EXPECT_GT(s.client_retries, 0u);
  EXPECT_GT(s.latency.count, 1000u);
  // App-level 200 ms timers instead of 3 s kernel timers: what remains
  // of the tail is bottleneck queueing, not retransmission stacking.
  EXPECT_LT(s.latency.p999.to_seconds(), bs.latency.p999.to_seconds());
}

TEST(ApplyProtocol, ErpcBypassEliminatesOverflow) {
  auto sys = run_system(overloaded(net::ProtocolProfile::erpc()));
  const auto s = summarize(*sys);
  EXPECT_EQ(s.total_drops, 0u);
  EXPECT_EQ(s.retransmit_exhausted, 0u);
  EXPECT_EQ(net::classify_ctqo(s.total_drops, s.latency.p999),
            net::CtqoVisibility::kAbsent);
}

TEST(ApplyProtocol, LinuxModernHidesCtqo) {
  auto sys = run_system(overloaded(net::ProtocolProfile::linux_modern()));
  const auto s = summarize(*sys);
  // Drops still happen (the cause is untouched)...
  EXPECT_GT(s.total_drops, 0u);
  // ...but sub-second recovery keeps the tail under the visibility bar.
  EXPECT_EQ(net::classify_ctqo(s.total_drops, s.latency.p999),
            net::CtqoVisibility::kHidden);
}

}  // namespace
}  // namespace ntier::core

namespace ntier::graph {
namespace {

using sim::Duration;

constexpr const char* kChainText = R"(
graph proto-chain
seed 7
duration 6s
sessions 900
node front kind=sync threads=150 work=cpu:60us,down,cpu:60us
node mid   kind=sync threads=80  work=cpu:150us,down,cpu:50us
node back  kind=sync threads=100 work=cpu:400us
edge front mid
edge mid back
)";

TEST(GraphProtocol, ProtoDirectiveParses) {
  auto cfg = parse_topology(std::string(kChainText) + "proto syn_cookies\n");
  EXPECT_EQ(cfg.protocol, "syn_cookies");
  EXPECT_EQ(cfg.admission, net::AdmissionMode::kSynCookies);
  EXPECT_GT(cfg.cookie_penalty, Duration::zero());
  EXPECT_TRUE(invalid_reason(cfg).empty());
}

TEST(GraphProtocol, UnknownProtoRejected) {
  EXPECT_THROW(parse_topology(std::string(kChainText) + "proto tcp_vegas\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_topology(std::string(kChainText) + "edge front back proto=nope\n"),
      std::invalid_argument);
}

TEST(GraphProtocol, PerEdgeProtoParsesAndLeavesChainPath) {
  // linux_modern keeps the receiver's admission mode at tcp_drop, so
  // the override is valid on a chain edge — but it still forces the
  // general per-route transport path off the chain fast path.
  auto cfg = parse_topology(
      "graph edgeproto\nsessions 500\nduration 4s\n"
      "node front kind=sync threads=150 work=cpu:60us,down,cpu:60us\n"
      "node back  kind=sync threads=100 work=cpu:400us\n"
      "edge front back proto=linux_modern\n");
  ASSERT_EQ(cfg.edges.size(), 1u);
  EXPECT_EQ(cfg.edges[0].proto, "linux_modern");
  EXPECT_TRUE(invalid_reason(cfg).empty());
  EXPECT_FALSE(is_chain(cfg));  // per-edge protocols force general routing
}

TEST(GraphProtocol, ConflictingAdmissionIntoOneNodeRejected) {
  // back receives an erpc (bypass) edge and a default tcp_drop edge.
  auto cfg = parse_topology(kChainText);
  EdgeSpec extra{0, 2, {}};
  extra.proto = "erpc";
  cfg.edges.push_back(extra);
  const auto why = invalid_reason(cfg);
  EXPECT_NE(why.find("conflicting admission"), std::string::npos) << why;
}

TEST(GraphProtocol, ProtoFixed3sIsByteIdenticalNoOp) {
  auto run_events = [](const std::string& extra) {
    auto cfg = parse_topology(std::string(kChainText) + extra);
    GraphSystem sys(std::move(cfg));
    sys.run();
    return std::tuple(sys.simulation().events_executed(),
                      sys.latency().completed());
  };
  EXPECT_EQ(run_events(""), run_events("proto fixed3s\n"));
}

TEST(GraphProtocol, GraphWideProtoChangesBehaviour) {
  auto run_drops = [](const std::string& extra) {
    // A periodic freeze of the back node makes the accept queues
    // overflow: the classic millibottleneck drop site.
    auto cfg = parse_topology(std::string(kChainText) +
                              "freeze back first=1s period=2s pause=900ms\n" +
                              extra);
    cfg.workload.sessions = 3000;
    GraphSystem sys(std::move(cfg));
    sys.run();
    std::uint64_t drops = 0, cookies = 0;
    for (std::size_t i = 0; i < sys.flat_count(); ++i) {
      drops += sys.server_flat(i)->stats().dropped;
      if (const auto* q = sys.server_flat(i)->accept_queue())
        cookies += q->cookie_admits();
    }
    return std::pair(drops, cookies);
  };
  const auto base = run_drops("");
  const auto cookies = run_drops("proto syn_cookies\n");
  EXPECT_GT(base.first, 0u);      // tcp_drop baseline drops
  EXPECT_EQ(cookies.first, 0u);   // cookies never drop...
  EXPECT_GT(cookies.second, 0u);  // ...they admit on the slow path
}

}  // namespace
}  // namespace ntier::graph
