// Tests of the resilience layer: tail-tolerance policies (deadlines,
// retries, hedging, circuit breaking) and deterministic fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenarios.h"
#include "helpers.h"
#include "net/link.h"
#include "net/rto_policy.h"
#include "policy/tail_policy.h"
#include "server/async_server.h"
#include "server/staged_server.h"
#include "server/sync_server.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Simulation;
using sim::Time;

// --- policy value types ----------------------------------------------------

TEST(RetryPolicy, ExponentialBackoffIsCappedAtMax) {
  policy::RetryPolicy p;
  p.max_attempts = 6;
  p.base_backoff = Duration::millis(100);
  p.max_backoff = Duration::millis(500);
  p.decorrelated_jitter = false;
  sim::Rng rng(1);
  EXPECT_EQ(p.backoff(1, Duration::zero(), rng), Duration::millis(100));
  EXPECT_EQ(p.backoff(2, Duration::millis(100), rng), Duration::millis(200));
  EXPECT_EQ(p.backoff(4, Duration::millis(400), rng), Duration::millis(500));  // capped
}

TEST(RetryPolicy, DecorrelatedJitterStaysInsideEnvelope) {
  policy::RetryPolicy p;
  p.max_attempts = 6;
  p.base_backoff = Duration::millis(50);
  p.max_backoff = Duration::seconds(2);
  p.decorrelated_jitter = true;
  sim::Rng rng(7);
  Duration prev = p.base_backoff;
  for (int attempt = 1; attempt <= 20; ++attempt) {
    const Duration b = p.backoff(attempt, prev, rng);
    EXPECT_GE(b, p.base_backoff);
    EXPECT_LE(b, std::max(p.max_backoff, prev * 3));
    EXPECT_LE(b, p.max_backoff);
    prev = b;
  }
}

TEST(RetryBudget, TokensGateRetries) {
  policy::RetryBudget budget(/*ratio=*/0.5, /*capacity=*/2.0);
  // Fresh bucket is full: two retries are affordable, the third is not.
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  // Two new requests earn one token back.
  budget.on_request();
  budget.on_request();
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
}

TEST(LatencyEstimator, TracksWindowQuantiles) {
  policy::LatencyEstimator est(100);
  EXPECT_EQ(est.quantile(0.95), Duration::zero());
  for (int i = 1; i <= 100; ++i) est.record(Duration::millis(i));
  EXPECT_EQ(est.count(), 100u);
  EXPECT_GE(est.quantile(0.95), Duration::millis(94));
  EXPECT_LE(est.quantile(0.95), Duration::millis(97));
  EXPECT_EQ(est.quantile(1.0), Duration::millis(100));
}

// The incremental sorted window against sort-a-copy of the last
// `capacity` values, after every record. The values come from a small
// range, so duplicates are common, and the first `capacity` records
// cover windows that are not yet full.
TEST(LatencyEstimator, MatchesSortedCopyOfTheWindow) {
  for (const std::size_t capacity : {0u, 1u, 2u, 7u, 256u}) {
    policy::LatencyEstimator est(capacity);
    const std::size_t window = std::max<std::size_t>(capacity, 1);  // 0 becomes 1
    std::deque<Duration> last;
    sim::Rng rng(capacity + 1);
    for (int i = 0; i < 3000; ++i) {
      const Duration d = Duration::micros(static_cast<std::int64_t>(rng.next_u64() % 12));
      est.record(d);
      last.push_back(d);
      if (last.size() > window) last.pop_front();
      std::vector<Duration> sorted(last.begin(), last.end());
      std::sort(sorted.begin(), sorted.end());
      for (const double q : {0.0, 0.5, 0.95, 0.999, 1.0}) {
        const std::size_t idx = std::min(
            sorted.size() - 1, static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
        ASSERT_EQ(est.quantile(q), sorted[idx])
            << "capacity " << capacity << ", record " << i << ", q " << q;
      }
    }
  }
}

// --- circuit breaker state machine -----------------------------------------

policy::BreakerPolicy tight_breaker() {
  policy::BreakerPolicy p;
  p.enabled = true;
  p.failure_threshold = 0.5;
  p.min_samples = 4;
  p.window = Duration::seconds(1);
  p.open_for = Duration::seconds(2);
  p.half_open_probes = 1;
  return p;
}

TEST(CircuitBreaker, OpensAtFailureThresholdAndFastFails) {
  Simulation sim;
  policy::CircuitBreaker br(sim, tight_breaker());
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kClosed);
  br.record_success();
  br.record_success();
  br.record_failure();
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kClosed);  // 1/3 < 0.5
  br.record_failure();  // 2/4 >= 0.5 with min_samples met -> open
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 1u);
  EXPECT_FALSE(br.allow());
  EXPECT_EQ(br.rejects(), 1u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  Simulation sim;
  policy::CircuitBreaker br(sim, tight_breaker());
  for (int i = 0; i < 4; ++i) br.record_failure();
  ASSERT_EQ(br.state(), policy::CircuitBreaker::State::kOpen);
  sim.after(Duration::seconds(2), [] {});
  sim.run_all();
  EXPECT_TRUE(br.allow());  // the single half-open probe slot
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(br.allow());  // second concurrent send still rejected
  br.record_success();
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow());
}

TEST(CircuitBreaker, HalfOpenProbeReopensOnFailure) {
  Simulation sim;
  policy::CircuitBreaker br(sim, tight_breaker());
  for (int i = 0; i < 4; ++i) br.record_failure();
  sim.after(Duration::seconds(2), [] {});
  sim.run_all();
  EXPECT_TRUE(br.allow());
  br.record_failure();
  EXPECT_EQ(br.state(), policy::CircuitBreaker::State::kOpen);
  EXPECT_EQ(br.opens(), 2u);
  EXPECT_FALSE(br.allow());
}

// --- deadline admission at a tier ------------------------------------------

struct ServerFixture {
  Simulation sim;
  cpu::HostCpu host{sim, 1.0};
  cpu::VmCpu* vm = host.add_vm("srv");
  server::AppProfile profile = test::one_class_profile();
  test::ReplySink sink{sim};

  std::unique_ptr<server::SyncServer> make() {
    server::SyncConfig cfg;
    cfg.threads_per_process = 2;
    auto prog = test::cpu_only(Duration::millis(10));
    return std::make_unique<server::SyncServer>(
        sim, "srv", vm, &profile,
        [prog](const server::RequestClassProfile&) { return prog; }, cfg);
  }
};

TEST(DeadlineAdmission, ExpiredRequestIsRefusedWithoutQueueing) {
  ServerFixture f;
  auto srv = f.make();
  auto job = f.sink.job(1);
  job.req->deadline = Time::from_seconds(0.0);  // already due
  f.sim.after(Duration::millis(5), [&] {
    // Accepted at the TCP level (no retransmit storm for cancelled work)
    // but never queued: it comes back immediately as a failure.
    EXPECT_TRUE(srv->offer(std::move(job)));
  });
  f.sim.run_all();
  ASSERT_EQ(f.sink.replies.size(), 1u);
  EXPECT_TRUE(f.sink.replies[0].second < Time::from_seconds(0.006));
  EXPECT_EQ(srv->stats().expired, 1u);
  EXPECT_EQ(srv->stats().accepted, 0u);
  EXPECT_EQ(srv->stats().completed, 0u);
}

TEST(DeadlineAdmission, FutureDeadlineProceedsNormally) {
  ServerFixture f;
  auto srv = f.make();
  auto job = f.sink.job(2);
  job.req->deadline = Time::from_seconds(1.0);
  EXPECT_TRUE(srv->offer(std::move(job)));
  f.sim.run_all();
  ASSERT_EQ(f.sink.replies.size(), 1u);
  EXPECT_EQ(srv->stats().expired, 0u);
  EXPECT_EQ(srv->stats().completed, 1u);
  EXPECT_FALSE(f.sink.replies.empty());
}

// --- crash windows at a tier -----------------------------------------------

TEST(CrashWindow, DownServerRefusesAndAbortsQueuedWork) {
  ServerFixture f;
  auto srv = f.make();
  // Two jobs on workers, one queued in the backlog.
  EXPECT_TRUE(srv->offer(f.sink.job(1)));
  EXPECT_TRUE(srv->offer(f.sink.job(2)));
  EXPECT_TRUE(srv->offer(f.sink.job(3)));
  srv->set_down(true, /*abort_queued_work=*/true);
  EXPECT_EQ(srv->stats().aborted, 1u);  // the backlog entry
  EXPECT_FALSE(srv->offer(f.sink.job(4)));  // refused at the door
  EXPECT_EQ(srv->stats().refused_down, 1u);
  srv->set_down(false);
  EXPECT_TRUE(srv->offer(f.sink.job(5)));
  f.sim.run_all();
  // 1,2 ran; 3 aborted (failed reply); 4 refused (no reply); 5 ran.
  EXPECT_EQ(f.sink.replies.size(), 4u);
  // Aborts count into completed so accepted == completed + in-system holds.
  EXPECT_EQ(srv->stats().completed, 4u);
  EXPECT_EQ(srv->stats().accepted, 4u);
}

// ServerFixture plus a sync leaf on its own host (4 workers, 1 ms of
// CPU per request) behind a front server of model S whose program is
// cpu 2 ms -> downstream -> cpu 2 ms.
struct LeafFixture : ServerFixture {
  cpu::HostCpu leaf_host{sim, 1.0};
  server::SyncServer leaf{sim, "leaf", leaf_host.add_vm("leaf"), &profile,
                          [](const server::RequestClassProfile&) {
                            return test::cpu_only(Duration::millis(1));
                          },
                          server::SyncConfig{.threads_per_process = 4}};

  template <class S, class Cfg>
  std::unique_ptr<S> make_front(Cfg cfg) {
    auto front = std::make_unique<S>(
        sim, "srv", vm, &profile,
        [](const server::RequestClassProfile&) {
          return test::cpu_down_cpu(Duration::millis(2), Duration::millis(2));
        },
        cfg);
    front->connect_downstream(&leaf, net::RtoPolicy::fixed3s(), net::Link{Duration::zero()});
    return front;
  }
};

// The event-driven models abort only work that has not started: an
// async server resets its wait queue, while the request holding the
// active slot and the one whose downstream reply already landed drain.
TEST(CrashWindow, AsyncServerResetsUnstartedWorkWhileActiveAndResumedWorkDrains) {
  LeafFixture f;
  server::AsyncConfig cfg;
  cfg.max_active = 1;
  auto srv = f.make_front<server::AsyncServer>(cfg);
  for (std::uint64_t id = 1; id <= 3; ++id) EXPECT_TRUE(srv->offer(f.sink.job(id)));
  // 3.5 ms: job 1 came back from downstream and waits to resume, job 2
  // holds the active slot, job 3 has not started.
  f.sim.run_until(Time::from_seconds(0.0035));
  EXPECT_EQ(srv->busy_workers(), 1u);
  EXPECT_EQ(srv->backlog_depth(), 2u);
  srv->set_down(true, /*abort_queued_work=*/true);
  EXPECT_EQ(srv->stats().aborted, 1u);
  EXPECT_EQ(srv->backlog_depth(), 1u);
  EXPECT_EQ(srv->stats().accepted, srv->stats().completed + srv->queued_requests());
  ASSERT_EQ(f.sink.replies.size(), 1u);
  EXPECT_EQ(f.sink.replies[0].first, 3u);  // reset at crash time
  f.sim.run_all();
  ASSERT_EQ(f.sink.replies.size(), 3u);
  EXPECT_EQ(f.sink.replies[1].first, 1u);
  EXPECT_EQ(f.sink.replies[2].first, 2u);
  EXPECT_EQ(srv->stats().completed, 3u);
  EXPECT_EQ(srv->stats().accepted, srv->stats().completed + srv->queued_requests());
}

// A staged server resets its ingress queue; work in either stage and
// replies waiting for a continuation thread drain.
TEST(CrashWindow, StagedServerResetsIngressWhileContinuationDrains) {
  LeafFixture f;
  server::StagedConfig cfg;
  cfg.ingress.threads = 2;
  cfg.continuation.threads = 1;
  auto srv = f.make_front<server::StagedServer>(cfg);
  for (std::uint64_t id = 1; id <= 6; ++id) EXPECT_TRUE(srv->offer(f.sink.job(id)));
  // 6.5 ms: jobs 3 and 4 run ingress, job 1 runs its continuation, job
  // 2's reply waits for the continuation thread, jobs 5 and 6 wait at
  // ingress.
  f.sim.run_until(Time::from_seconds(0.0065));
  EXPECT_EQ(srv->busy_workers(), 3u);
  EXPECT_EQ(srv->backlog_depth(), 3u);
  srv->set_down(true, /*abort_queued_work=*/true);
  EXPECT_EQ(srv->stats().aborted, 2u);
  EXPECT_EQ(srv->backlog_depth(), 1u);
  EXPECT_EQ(srv->stats().accepted, srv->stats().completed + srv->queued_requests());
  ASSERT_EQ(f.sink.replies.size(), 2u);
  EXPECT_EQ(f.sink.replies[0].first, 5u);
  EXPECT_EQ(f.sink.replies[1].first, 6u);
  f.sim.run_all();
  EXPECT_EQ(f.sink.replies.size(), 6u);
  EXPECT_EQ(srv->stats().completed, 6u);
  EXPECT_EQ(srv->stats().accepted, srv->stats().completed + srv->queued_requests());
}

// --- system-level: the breaker under a slow-node window --------------------

// A long slow-node window on the DB drives the app tier's breaker
// through the full state cycle: closed -> open (attempt timeouts),
// open -> half-open -> open again (the probe launched mid-window still
// fails), and finally half-open -> closed once the window clears. A
// reopen can only happen via a failed half-open probe, so opens >= 2
// proves the half-open -> open edge; ending closed proves the
// half-open -> closed edge.
TEST(CircuitBreaker, SlowNodeWindowDrivesHalfOpenTransitions) {
  core::ExperimentConfig cfg;
  cfg.name = "breaker-slow-db";
  cfg.workload.sessions = 2000;
  cfg.duration = Duration::seconds(22);
  policy::TailPolicy p;
  p.attempt_timeout = Duration::millis(400);
  p.retry.max_attempts = 2;
  p.retry.base_backoff = Duration::millis(50);
  p.retry.max_backoff = Duration::millis(50);
  p.retry.decorrelated_jitter = false;
  p.breaker.enabled = true;
  p.breaker.failure_threshold = 0.5;
  p.breaker.min_samples = 10;
  p.breaker.window = Duration::seconds(1);
  p.breaker.open_for = Duration::seconds(2);
  cfg.tier_policy = p;
  fault::SlowNodeWindow s;
  s.tier = 2;  // the DB host crawls at 2% speed
  s.at = Time::from_seconds(8.0);
  s.duration = Duration::seconds(6);
  s.speed_factor = 0.02;
  cfg.faults.slow_nodes.push_back(s);

  auto sys = core::run_system(cfg);
  const auto* g = sys->app()->governor();
  ASSERT_NE(g, nullptr);
  const auto* br = g->breaker();
  ASSERT_NE(br, nullptr);
  EXPECT_GE(br->opens(), 2u);  // reopened from half-open at least once
  EXPECT_EQ(br->state(), policy::CircuitBreaker::State::kClosed);  // recovered
  EXPECT_GT(g->stats().breaker_rejects, 0u);  // fast-fails while open
}

// --- system-level: fault plan replay ---------------------------------------

TEST(FaultInjection, ScheduleFiresAndDisturbsTheRun) {
  auto cfg = core::scenarios::ext_fault_injection(core::Architecture::kSync);
  auto sys = core::run_system(cfg);
  const auto& fc = sys->faults()->counters();
  EXPECT_EQ(fc.crashes, 1u);
  EXPECT_EQ(fc.restarts, 1u);
  EXPECT_EQ(fc.link_windows, 1u);
  EXPECT_EQ(fc.slow_windows, 1u);
  auto s = core::summarize(*sys);
  // The DB crash refuses packets at the door -> drops + VLRT tail.
  EXPECT_GT(s.total_drops, 0u);
  EXPECT_GT(s.latency.vlrt_count, 0u);
  EXPECT_GT(sys->db()->stats().refused_down, 0u);
}

TEST(FaultInjection, SameSeedReplaysBitIdentically) {
  auto cfg = core::scenarios::ext_fault_injection(core::Architecture::kSync);
  cfg.duration = Duration::seconds(20);  // covers the crash window
  auto a = core::run_system(cfg);
  auto b = core::run_system(cfg);
  EXPECT_EQ(core::summarize(*a).to_string(), core::summarize(*b).to_string());
}

// --- system-level: the policy layer under a millibottleneck ----------------

TEST(TailPolicy, RetryBudgetCapsAmplification) {
  auto naive_cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kNaiveRetry);
  auto budget_cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kBudgetedRetry);
  naive_cfg.duration = budget_cfg.duration = Duration::seconds(18);
  auto naive_sys = core::run_system(naive_cfg);
  auto budget_sys = core::run_system(budget_cfg);
  auto naive = core::summarize(*naive_sys);
  auto budget = core::summarize(*budget_sys);
  // Unbudgeted retries amplify the overflow; the budget caps retry load.
  EXPECT_GT(naive.client_retries, 4 * budget.client_retries);
  EXPECT_GT(naive.total_drops, 2 * budget.total_drops);
  EXPECT_GT(budget_sys->clients().governor()->stats().retries_suppressed, 0u);
}

TEST(TailPolicy, NaiveRetriesStormNearSaturation) {
  auto cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kNaiveRetry);
  auto base_cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kNone);
  auto sys = core::run_system(cfg);
  auto base_sys = core::run_system(base_cfg);
  auto s = core::summarize(*sys);
  auto base = core::summarize(*base_sys);
  EXPECT_GT(s.latency.vlrt_count, base.latency.vlrt_count);  // retries made it WORSE
  EXPECT_GT(s.total_drops, 5 * base.total_drops);
  EXPECT_GT(s.ctqo.retry_storm_episodes, 0u);  // and the analyzer says why
}

TEST(TailPolicy, DeadlinePropagationBoundsTheTail) {
  auto cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kDeadline);
  cfg.duration = Duration::seconds(18);
  cfg.tier_policy = cfg.workload.client_policy;  // tiers enforce it too
  auto sys = core::run_system(cfg);
  auto s = core::summarize(*sys);
  EXPECT_GT(s.deadline_cancels, 0u);
  // Nothing outlives the 2.5 s budget (3 s would mean an RTO slipped by).
  EXPECT_LE(s.latency.max.to_millis(), 2600.0);
  EXPECT_EQ(s.latency.vlrt_count, 0u);
}

TEST(TailPolicy, HedgingRescuesLossyLinkTailWithoutDrops) {
  auto none = core::summarize(*core::run_system(core::scenarios::ext_lossy_link(
      core::Architecture::kNx3, core::scenarios::TailPolicyChoice::kNone)));
  auto dh = core::summarize(*core::run_system(core::scenarios::ext_lossy_link(
      core::Architecture::kNx3, core::scenarios::TailPolicyChoice::kDeadlineHedge)));
  EXPECT_GT(none.latency.vlrt_count, 0u);    // baseline tail sits at the RTO
  EXPECT_EQ(none.total_drops, 0u);           // ...with zero server-side drops
  EXPECT_EQ(dh.total_drops, 0u);             // hedging adds none either
  EXPECT_LT(dh.latency.p999, none.latency.p999);
  EXPECT_EQ(dh.latency.vlrt_count, 0u);
  EXPECT_GT(dh.client_hedges, 0u);
}

TEST(TailPolicy, PolicyRunsReplayBitIdentically) {
  auto cfg = core::scenarios::ext_tail_tolerance(
      core::Architecture::kSync, core::scenarios::TailPolicyChoice::kFull);
  cfg.duration = Duration::seconds(15);
  auto a = core::run_system(cfg);
  auto b = core::run_system(cfg);
  EXPECT_EQ(core::summarize(*a).to_string(), core::summarize(*b).to_string());
}

// --- validate() rejects nonsense with context ------------------------------

TEST(Validate, RejectsBadConfigsDescriptively) {
  auto good = core::scenarios::fig3_consolidation_sync();
  EXPECT_NO_THROW(core::validate(good));

  auto bad = good;
  bad.system.backlog = 0;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.workload.client_policy.retry.max_attempts = 0;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.workload.client_policy.hedge.enabled = true;
  bad.workload.client_policy.hedge.percentile = 1.5;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  // NaN compares false both ways, so every range check must be written
  // as a negated in-range test.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = good;
  bad.workload.client_policy.hedge.enabled = true;
  bad.workload.client_policy.hedge.percentile = nan;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.workload.client_policy.breaker.enabled = true;
  bad.workload.client_policy.breaker.failure_threshold = nan;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.workload.client_policy.retry.budget_ratio = nan;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.workload.client_policy.retry.budget_ratio = 0.1;
  bad.workload.client_policy.retry.budget_capacity = nan;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  fault::LinkDegradeWindow w;
  w.hop = 0;
  w.at = Time::from_seconds(1.0);
  w.loss_prob = 1.5;  // not a probability
  bad.faults.links.push_back(w);
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  bad.trace.mode = trace::TraceMode::kSampled;
  bad.trace.sample_every_n = 0;
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  fault::CrashWindow c;
  c.tier = 7;  // beyond the 3-tier system
  c.at = Time::from_seconds(1.0);
  bad.faults.crashes.push_back(c);
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  try {
    core::validate(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crash tier"), std::string::npos);
  }
}

// A run's output files are named after it, so a '/' in the name would
// write no manifest and no dashboard; validate refuses it by name, and
// so every sweep point is checked too.
TEST(Validate, RejectsASlashInTheRunName) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.name = "a/b";
  try {
    core::validate(cfg);
    FAIL() << "a run named a/b passed validation";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'a/b'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'/'"), std::string::npos) << e.what();
  }
  cfg.name = "a-b.c";
  EXPECT_NO_THROW(core::validate(cfg));
}

TEST(Validate, RejectsZeroLengthFaultWindows) {
  const auto good = core::scenarios::fig3_consolidation_sync();

  auto bad = good;
  fault::CrashWindow c;
  c.tier = 1;
  c.at = Time::from_seconds(5.0);
  c.down_for = Duration::zero();
  bad.faults.crashes.push_back(c);
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  fault::SlowNodeWindow s;
  s.tier = 1;
  s.at = Time::from_seconds(5.0);
  s.duration = Duration::zero();
  s.speed_factor = 0.5;
  bad.faults.slow_nodes.push_back(s);
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  bad = good;
  fault::LinkDegradeWindow l;
  l.hop = 1;
  l.at = Time::from_seconds(5.0);
  l.duration = Duration::zero();
  l.loss_prob = 0.5;
  bad.faults.links.push_back(l);
  EXPECT_THROW(core::validate(bad), std::invalid_argument);
}

TEST(Validate, RejectsOverlappingFaultWindowsOnTheSameTarget) {
  const auto good = core::scenarios::fig3_consolidation_sync();

  fault::CrashWindow a;
  a.tier = 2;
  a.at = Time::from_seconds(5.0);
  a.down_for = Duration::seconds(2);  // occupies [5, 7)
  fault::CrashWindow b = a;
  b.at = Time::from_seconds(6.0);  // starts inside a's window

  auto bad = good;
  bad.faults.crashes = {a, b};
  try {
    core::validate(bad);
    FAIL() << "expected invalid_argument for overlapping crash windows";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping crash"), std::string::npos);
  }

  // The scan sorts, so declaration order must not matter.
  bad.faults.crashes = {b, a};
  EXPECT_THROW(core::validate(bad), std::invalid_argument);

  // Back-to-back windows ([5,7) then [7,...)) are legal.
  auto ok = good;
  b.at = Time::from_seconds(7.0);
  ok.faults.crashes = {a, b};
  EXPECT_NO_THROW(core::validate(ok));

  // Concurrent windows on *different* targets are legal.
  ok = good;
  b.at = Time::from_seconds(6.0);
  b.tier = 1;
  ok.faults.crashes = {a, b};
  EXPECT_NO_THROW(core::validate(ok));

  // Same rule for slow-node windows...
  bad = good;
  fault::SlowNodeWindow s;
  s.tier = 1;
  s.at = Time::from_seconds(10.0);
  s.duration = Duration::seconds(4);
  s.speed_factor = 0.5;
  auto s2 = s;
  s2.at = Time::from_seconds(12.0);
  bad.faults.slow_nodes = {s, s2};
  try {
    core::validate(bad);
    FAIL() << "expected invalid_argument for overlapping slow-node windows";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping slow-node"), std::string::npos);
  }

  // ...and for link-degrade windows on the same hop.
  bad = good;
  fault::LinkDegradeWindow l;
  l.hop = 0;
  l.at = Time::from_seconds(3.0);
  l.duration = Duration::seconds(3);
  l.loss_prob = 0.2;
  auto l2 = l;
  l2.at = Time::from_seconds(4.0);
  bad.faults.links = {l, l2};
  try {
    core::validate(bad);
    FAIL() << "expected invalid_argument for overlapping link windows";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping link-degrade"), std::string::npos);
  }
}

}  // namespace
}  // namespace ntier
