// Tests for the Markov session model, client timeouts, span-tree
// per-hop breakdown, and the load-shedding admission alternative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenarios.h"
#include "helpers.h"
#include "server/sync_server.h"
#include "trace/critical_path.h"
#include "trace/tracer.h"
#include "workload/client.h"
#include "workload/session_model.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;

// --- SessionModel ----------------------------------------------------------

TEST(SessionModel, StationaryMatchesRubbosWeights) {
  const auto model = workload::SessionModel::rubbos_browse();
  const auto pi = model.stationary();
  ASSERT_EQ(pi.size(), 3u);
  EXPECT_NEAR(pi[0], 0.15, 0.01);
  EXPECT_NEAR(pi[1], 0.55, 0.01);
  EXPECT_NEAR(pi[2], 0.30, 0.01);
}

TEST(SessionModel, EmpiricalWalkMatchesStationary) {
  const auto model = workload::SessionModel::rubbos_browse();
  sim::Rng rng(5);
  std::vector<int> counts(3, 0);
  std::size_t state = 1;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    state = model.next(state, rng);
    ++counts[state];
  }
  const auto pi = model.stationary();
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR(counts[c] / double(n), pi[c], 0.01) << "class " << c;
}

TEST(SessionModel, DeterministicNextDistribution) {
  workload::SessionModel model({{1.0, 0.0}, {0.0, 1.0}});  // absorbing
  sim::Rng rng(1);
  EXPECT_EQ(model.next(0, rng), 0u);
  EXPECT_EQ(model.next(1, rng), 1u);
}

TEST(SessionModel, SystemLevelMixMatchesStationary) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 2000;
  cfg.workload.markov_sessions = true;
  cfg.duration = Duration::seconds(40);
  auto sys = core::run_system(cfg);
  const auto& lat = sys->latency();
  const double total = static_cast<double>(lat.completed());
  ASSERT_GT(total, 5000);
  EXPECT_NEAR(lat.class_stats(0).completed / total, 0.15, 0.03);
  EXPECT_NEAR(lat.class_stats(1).completed / total, 0.55, 0.03);
  EXPECT_NEAR(lat.class_stats(2).completed / total, 0.30, 0.03);
}

// --- client timeout --------------------------------------------------------

TEST(ClientTimeout, TimesOutSlowRequestsAndMovesOn) {
  sim::Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("web");
  auto profile = test::one_class_profile();
  // Server so slow every request overruns the 100 ms timeout.
  server::SyncServer srv(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::millis(400));
      },
      server::SyncConfig{.threads_per_process = 1});
  workload::ClientConfig cc;
  cc.sessions = 1;
  cc.mean_think = Duration::millis(10);
  cc.timeout = Duration::millis(100);
  workload::ClientPool clients(sim, sim::Rng(3), &profile, &srv, cc);
  clients.start();
  sim.run_until(Time::from_seconds(3));
  EXPECT_GT(clients.timeouts(), 2u);
  EXPECT_EQ(clients.timeouts(), clients.failed());
  // The session kept going after each timeout (many re-issues despite
  // every request overrunning the timeout).
  EXPECT_GT(clients.issued(), 10u);
  EXPECT_EQ(clients.issued(), clients.completed() + clients.in_flight());
}

TEST(ClientTimeout, StaleResponseDiscarded) {
  // The server's late reply after a timeout must not double-complete.
  sim::Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("web");
  auto profile = test::one_class_profile();
  server::SyncServer srv(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::millis(200));
      },
      server::SyncConfig{.threads_per_process = 1});
  workload::ClientConfig cc;
  cc.sessions = 1;
  cc.mean_think = Duration::seconds(10);  // one request per window
  cc.timeout = Duration::millis(50);
  workload::ClientPool clients(sim, sim::Rng(4), &profile, &srv, cc);
  int notified = 0;
  clients.on_complete([&](const server::RequestPtr&) { ++notified; });
  clients.start();
  sim.run_until(Time::from_seconds(5));
  EXPECT_EQ(clients.completed(), static_cast<std::uint64_t>(notified));
  EXPECT_EQ(clients.issued(), clients.completed() + clients.in_flight());
}

TEST(ClientTimeout, NoTimeoutsWhenFast) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 1000;
  cfg.workload.client_timeout = Duration::seconds(10);
  cfg.duration = Duration::seconds(10);
  auto sys = core::run_system(cfg);
  EXPECT_EQ(sys->clients().timeouts(), 0u);
}

// --- span-tree micro analysis ----------------------------------------------

TEST(TraceStore, SeparatesAnomalousFromNormal) {
  trace::Tracer tracer(trace::TraceConfig{.mode = trace::TraceMode::kVlrtOnly});
  std::uint64_t id = 0;
  auto finish = [&](double lat_s) {
    const auto t = tracer.begin(++id);
    ASSERT_TRUE(t);
    const std::uint64_t root =
        t->open(trace::SpanKind::kRequest, "client", trace::kNoSpan, Time::origin());
    t->close(root, Time::from_seconds(lat_s));
    tracer.finish(t, Duration::from_seconds(lat_s));
  };
  finish(0.01);  // normal: discarded at completion
  finish(3.5);   // VLRT: retained
  finish(0.02);
  finish(3.0);   // exactly at the VLRT line: retained
  EXPECT_EQ(tracer.begun(), 4u);
  EXPECT_EQ(tracer.retained(), 2u);
  EXPECT_EQ(tracer.discarded(), 2u);
  ASSERT_EQ(tracer.traces().size(), 2u);
  EXPECT_EQ(tracer.traces()[0]->total(), Duration::millis(3500));
  EXPECT_EQ(tracer.traces()[1]->total(), Duration::seconds(3));
}

// One tier's hop spans across a population: total, longest and count.
struct HopAgg {
  Duration sum;
  Duration max;
  std::int64_t n = 0;
  Duration mean() const { return sum / n; }
};

TEST(TraceAnalysis, BreaksDownPerTier) {
  core::ExperimentConfig cfg = core::scenarios::fig3_consolidation_sync();
  cfg.trace.mode = trace::TraceMode::kAll;
  cfg.duration = Duration::seconds(12);
  auto sys = core::run_system(cfg);

  // The CTQO signature splits the population: a VLRT request waited out
  // a retransmission timeout somewhere, a normal one never did.
  std::vector<const trace::RequestTrace*> normal, vlrt;
  for (const auto& t : sys->tracer()->traces()) {
    const auto& spans = t->spans();
    const bool rto = std::any_of(spans.begin(), spans.end(), [](const trace::Span& s) {
      return s.kind == trace::SpanKind::kRtoGap;
    });
    (rto ? vlrt : normal).push_back(t.get());
  }

  ASSERT_FALSE(normal.empty());
  Duration outside;  // critical-path time outside every hop
  std::vector<std::string> order;
  std::map<std::string, HopAgg> hops;
  for (const auto* t : normal) {
    outside += trace::critical_path(*t).by_kind(trace::SpanKind::kRequest);
    for (const auto& s : t->spans()) {
      if (s.kind != trace::SpanKind::kHop) continue;
      auto [it, fresh] = hops.try_emplace(s.site);
      if (fresh) order.push_back(s.site);
      it->second.sum += s.duration();
      it->second.max = std::max(it->second.max, s.duration());
      ++it->second.n;
    }
  }
  const auto n_normal = static_cast<std::int64_t>(normal.size());
  EXPECT_LT(outside / n_normal, Duration::millis(5));
  ASSERT_EQ(order, (std::vector<std::string>{"apache", "tomcat", "mysql"}));
  // Nesting: an outer tier's hop contains the inner ones (per request;
  // apache's *mean* can sit below tomcat's because static requests pull
  // it down, so compare tomcat/mysql means and the maxima).
  EXPECT_GE(hops["tomcat"].mean(), hops["mysql"].mean());
  EXPECT_GE(hops["apache"].max, hops["tomcat"].max);

  ASSERT_GT(vlrt.size(), 10u);
  Duration rto;
  for (const auto* t : vlrt) rto += trace::critical_path(*t).by_kind(trace::SpanKind::kRtoGap);
  // The VLRT population's latency lives OUTSIDE the tiers (RTO waits).
  EXPECT_GT(rto / static_cast<std::int64_t>(vlrt.size()), Duration::seconds(2));
}

TEST(TraceAnalysis, SkipsUntracedRequests) {
  // A request still in flight: its root never closed, so there is no
  // end-to-end latency to attribute yet.
  trace::RequestTrace t(1);
  const std::uint64_t root =
      t.open(trace::SpanKind::kRequest, "client", trace::kNoSpan, Time::origin());
  t.add(trace::SpanKind::kHop, "apache", root, Time::from_seconds(0.001),
        Time::from_seconds(0.002));
  const auto out = trace::critical_path(t);
  EXPECT_EQ(out.total, Duration::zero());
  EXPECT_TRUE(out.items.empty());
}

// --- load shedding ----------------------------------------------------------

TEST(LoadShedding, TradesVlrtForFastFailures) {
  auto base = core::scenarios::fig3_consolidation_sync();
  base.duration = Duration::seconds(15);

  auto drop_cfg = base;
  auto sys_drop = core::run_system(drop_cfg);

  auto shed_cfg = base;
  shed_cfg.system.web_shed_on_overload = true;
  auto sys_shed = core::run_system(shed_cfg);

  // Shedding: no TCP drops at the web tier, failures instead, VLRT gone.
  auto* web = dynamic_cast<server::SyncServer*>(sys_shed->web());
  ASSERT_NE(web, nullptr);
  EXPECT_GT(web->shed_count(), 50u);
  EXPECT_EQ(sys_shed->web()->stats().dropped, 0u);
  EXPECT_GT(sys_shed->clients().failed(), 50u);
  EXPECT_LT(sys_shed->latency().vlrt_count(), sys_drop->latency().vlrt_count() / 5);

  // The dropping system has VLRT but (near) zero explicit failures.
  EXPECT_GT(sys_drop->latency().vlrt_count(), 100u);
  EXPECT_EQ(sys_drop->clients().failed(), 0u);
}

}  // namespace
}  // namespace ntier
