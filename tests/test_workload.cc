#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.h"
#include "metrics/summary.h"
#include "server/sync_server.h"
#include "trace/tracer.h"
#include "workload/burst_model.h"
#include "workload/client.h"
#include "workload/request_mix.h"
#include "workload/sysbursty.h"

namespace ntier::workload {
namespace {

using sim::Duration;
using sim::Simulation;
using sim::Time;

// --- BurstClock ----------------------------------------------------------

TEST(BurstClock, IndexOneNeverBursts) {
  Simulation sim;
  sim::Rng rng(1);
  BurstClock clock(sim, rng, BurstClock::Config{});
  sim.run_until(Time::from_seconds(100));
  EXPECT_FALSE(clock.bursting());
  EXPECT_TRUE(clock.burst_starts().empty());
  EXPECT_DOUBLE_EQ(clock.think_scale(), 1.0);
}

TEST(BurstClock, TogglesAndRecordsStarts) {
  Simulation sim;
  sim::Rng rng(2);
  BurstClock::Config cfg;
  cfg.burst_index = 100.0;
  cfg.burst_dwell = Duration::millis(500);
  cfg.normal_dwell = Duration::seconds(5);
  BurstClock clock(sim, rng, cfg);
  sim.run_until(Time::from_seconds(120));
  EXPECT_GT(clock.burst_starts().size(), 5u);
}

TEST(BurstClock, ThinkScaleDuringBurst) {
  Simulation sim;
  sim::Rng rng(3);
  BurstClock::Config cfg;
  cfg.burst_index = 50.0;
  cfg.burst_dwell = Duration::seconds(1000);  // stays in burst once entered
  cfg.normal_dwell = Duration::millis(1);
  BurstClock clock(sim, rng, cfg);
  sim.run_until(Time::from_seconds(1));
  EXPECT_TRUE(clock.bursting());
  EXPECT_DOUBLE_EQ(clock.think_scale(), 1.0 / 50.0);
}

TEST(DrawThink, HonorsClockScale) {
  Simulation sim;
  sim::Rng rng(4);
  BurstClock::Config cfg;
  cfg.burst_index = 100.0;
  cfg.burst_dwell = Duration::seconds(1000);
  cfg.normal_dwell = Duration::millis(1);
  BurstClock clock(sim, rng, cfg);
  sim.run_until(Time::from_seconds(1));
  ASSERT_TRUE(clock.bursting());
  double acc = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    acc += draw_think(rng, Duration::seconds(7), &clock).to_seconds();
  EXPECT_NEAR(acc / n, 0.07, 0.01);
}

TEST(DrawThink, NullClockIsPlainExponential) {
  sim::Rng rng(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    acc += draw_think(rng, Duration::seconds(7), nullptr).to_seconds();
  EXPECT_NEAR(acc / n, 7.0, 0.15);
}

TEST(BurstClock, RaisesArrivalDispersion) {
  // Arrivals generated under a bursty clock must have higher SCV than
  // exponential arrivals at the same mean rate.
  Simulation sim;
  sim::Rng rng(6);
  BurstClock::Config cfg;
  cfg.burst_index = 100.0;
  cfg.burst_dwell = Duration::millis(500);
  cfg.normal_dwell = Duration::seconds(5);
  BurstClock clock(sim, rng, cfg);
  metrics::DispersionIndex bursty;
  std::function<void()> arrive = [&] {
    bursty.add_arrival(sim.now());
    sim.after(draw_think(rng, Duration::millis(100), &clock), arrive);
  };
  sim.after(Duration::millis(1), arrive);
  sim.run_until(Time::from_seconds(300));
  EXPECT_GT(bursty.scv(), 3.0);
}

// --- InterferenceLoad ----------------------------------------------------

TEST(InterferenceLoad, BatchScheduleAndMarks) {
  Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("bursty");
  InterferenceLoad::BatchConfig cfg;
  cfg.first_at = Time::from_seconds(2);
  cfg.period = Duration::seconds(5);
  cfg.batch_size = 10;
  cfg.demand_per_job = Duration::micros(100);
  InterferenceLoad load(sim, vm, cfg);
  sim.run_until(Time::from_seconds(13));
  ASSERT_EQ(load.burst_marks().size(), 3u);  // 2, 7, 12
  EXPECT_EQ(load.burst_marks()[0], Time::from_seconds(2));
  EXPECT_EQ(load.burst_marks()[2], Time::from_seconds(12));
  EXPECT_EQ(load.jobs_submitted(), 30u);
  EXPECT_EQ(load.jobs_completed(), 30u);
}

TEST(InterferenceLoad, BatchSaturatesVm) {
  Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("bursty");
  InterferenceLoad::BatchConfig cfg;
  cfg.first_at = Time::from_seconds(1);
  cfg.period = Duration::seconds(100);
  cfg.batch_size = 400;
  cfg.demand_per_job = Duration::micros(1500);  // 0.6 s of work
  InterferenceLoad load(sim, vm, cfg);
  sim.run_until(Time::from_seconds(2));
  EXPECT_NEAR(vm->busy_core_seconds(), 0.6, 1e-3);
}

TEST(InterferenceLoad, MmppClosedLoopBaseRate) {
  Simulation sim;
  cpu::HostCpu host(sim, 10.0);
  auto* vm = host.add_vm("bursty", 10);
  InterferenceLoad::MmppConfig cfg;
  cfg.clients = 350;
  cfg.mean_think = Duration::seconds(7);
  cfg.demand_per_job = Duration::micros(10);
  cfg.burst.burst_index = 1.0;  // no bursts: plain closed loop
  InterferenceLoad load(sim, vm, sim::Rng(7), cfg);
  sim.run_until(Time::from_seconds(100));
  EXPECT_NEAR(load.jobs_submitted() / 100.0, 50.0, 5.0);  // N/Z = 350/7
}

TEST(InterferenceLoad, MmppBacklogBoundedByClients) {
  // Closed loop: even while the VM is saturated, at most `clients` jobs
  // are in flight — the property that bounds the millibottleneck length.
  Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("bursty");
  InterferenceLoad::MmppConfig cfg;
  cfg.clients = 50;
  cfg.mean_think = Duration::millis(1);  // hammer the core
  cfg.demand_per_job = Duration::millis(10);
  cfg.burst.burst_index = 1.0;
  InterferenceLoad load(sim, vm, sim::Rng(8), cfg);
  sim.run_until(Time::from_seconds(2));
  EXPECT_LE(vm->active_jobs(), 50u);
  EXPECT_GE(vm->active_jobs(), 40u);
}

// --- ClientPool ----------------------------------------------------------

struct EchoServerFixture {
  Simulation sim;
  cpu::HostCpu host{sim, 4.0};
  cpu::VmCpu* vm = host.add_vm("web", 4);
  server::AppProfile profile = test::one_class_profile();
  std::unique_ptr<server::SyncServer> srv = std::make_unique<server::SyncServer>(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::micros(100));
      },
      server::SyncConfig{.threads_per_process = 1000, .backlog = 1000});
};

TEST(ClientPool, ClosedLoopLawThroughput) {
  EchoServerFixture f;
  ClientConfig cc;
  cc.sessions = 700;
  cc.mean_think = Duration::seconds(7);
  ClientPool clients(f.sim, sim::Rng(8), &f.profile, f.srv.get(), cc);
  clients.start();
  f.sim.run_until(Time::from_seconds(120));
  // X = N/(R+Z) ~ 700/7.0 = 100 req/s.
  const double rate = clients.completed() / 120.0;
  EXPECT_NEAR(rate, 100.0, 6.0);
}

TEST(ClientPool, ConservationInvariant) {
  EchoServerFixture f;
  ClientConfig cc;
  cc.sessions = 100;
  cc.mean_think = Duration::millis(100);
  ClientPool clients(f.sim, sim::Rng(9), &f.profile, f.srv.get(), cc);
  clients.start();
  f.sim.run_until(Time::from_seconds(10));
  EXPECT_EQ(clients.issued(), clients.completed() + clients.in_flight());
  EXPECT_LE(clients.in_flight(), cc.sessions);
  EXPECT_EQ(clients.failed(), 0u);
}

TEST(ClientPool, OnCompleteSeesLatency) {
  EchoServerFixture f;
  ClientConfig cc;
  cc.sessions = 10;
  cc.mean_think = Duration::millis(50);
  ClientPool clients(f.sim, sim::Rng(10), &f.profile, f.srv.get(), cc);
  int n = 0;
  clients.on_complete([&](const server::RequestPtr& r) {
    ++n;
    EXPECT_GT(r->latency(), Duration::zero());
    EXPECT_LT(r->latency(), Duration::seconds(1));
  });
  clients.start();
  f.sim.run_until(Time::from_seconds(5));
  EXPECT_GT(n, 100);
}

TEST(ClientPool, MeasureFromSkipsWarmup) {
  EchoServerFixture f;
  ClientConfig cc;
  cc.sessions = 10;
  cc.mean_think = Duration::millis(50);
  cc.measure_from = Time::from_seconds(100);  // beyond the run
  ClientPool clients(f.sim, sim::Rng(11), &f.profile, f.srv.get(), cc);
  int n = 0;
  clients.on_complete([&](const server::RequestPtr&) { ++n; });
  clients.start();
  f.sim.run_until(Time::from_seconds(5));
  EXPECT_EQ(n, 0);
  EXPECT_GT(clients.completed(), 0u);
}

TEST(ClientPool, TracingStampsHops) {
  EchoServerFixture f;
  trace::Tracer tracer(trace::TraceConfig{.mode = trace::TraceMode::kAll});
  ClientConfig cc;
  cc.sessions = 1;
  cc.mean_think = Duration::millis(10);
  cc.tracer = &tracer;
  ClientPool clients(f.sim, sim::Rng(12), &f.profile, f.srv.get(), cc);
  server::RequestPtr seen;
  clients.on_complete([&](const server::RequestPtr& r) { if (!seen) seen = r; });
  clients.start();
  f.sim.run_until(Time::from_seconds(2));
  ASSERT_TRUE(seen);
  ASSERT_TRUE(seen->traced());
  const trace::Span& root = seen->spans->root();
  EXPECT_EQ(root.kind, trace::SpanKind::kRequest);
  EXPECT_EQ(root.site, "client");
  EXPECT_TRUE(root.closed());
  EXPECT_EQ(root.begin, seen->issued);
  EXPECT_EQ(root.end, seen->completed);
  const auto& spans = seen->spans->spans();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [&](const trace::Span& s) {
    return s.parent == root.id && s.kind == trace::SpanKind::kHop;
  }));
}

// --- request_mix predictions --------------------------------------------

TEST(RequestMix, PredictMatchesPaperOperatingPoints) {
  const auto profile = server::AppProfile::rubbos();
  const auto wl4000 = predict(profile, 4000, Duration::seconds(7));
  const auto wl7000 = predict(profile, 7000, Duration::seconds(7));
  const auto wl8000 = predict(profile, 8000, Duration::seconds(7));
  EXPECT_NEAR(wl4000.throughput_rps, 572.0, 15.0);   // paper: 572
  EXPECT_NEAR(wl7000.throughput_rps, 990.0, 25.0);   // paper: 990
  EXPECT_NEAR(wl8000.throughput_rps, 1103.0, 40.0);  // paper: 1103
  // The app tier is the "highest average CPU" tier of Fig 1.
  EXPECT_NEAR(wl4000.app_util, 0.43, 0.06);  // paper: 43%
  EXPECT_NEAR(wl7000.app_util, 0.75, 0.08);  // paper: 75%
  EXPECT_NEAR(wl8000.app_util, 0.85, 0.09);  // paper: 85%
  EXPECT_GT(wl7000.app_util, wl7000.db_util);
  EXPECT_GT(wl7000.db_util, wl7000.web_util);
}

TEST(RequestMix, MeanTierDemands) {
  const auto profile = server::AppProfile::rubbos();
  EXPECT_NEAR(mean_web_cpu(profile).to_seconds(), 0.15 * 50e-6 + 0.85 * 100e-6, 2e-6);
  EXPECT_NEAR(mean_db_cpu(profile).to_seconds(), 0.55 * 350e-6 + 0.30 * 600e-6, 2e-6);
}

}  // namespace
}  // namespace ntier::workload
