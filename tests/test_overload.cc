// Tests of the overload-control layer: admission policies, the CoDel /
// adaptive-LIFO queue-management control laws, the pop_next dequeue
// discipline, the shed->retry contract at system level, and the
// metastability verdict engine.
#include <gtest/gtest.h>

#include <deque>
#include <limits>

#include "core/experiment.h"
#include "core/metastability.h"
#include "core/scenarios.h"
#include "policy/overload/overload.h"
#include "sim/time.h"

namespace ntier {
namespace {

using policy::overload::AdmissionController;
using policy::overload::Kind;
using policy::overload::OverloadPolicy;
using Decision = AdmissionController::Decision;
using sim::Duration;
using sim::Time;

// --- policy validation -----------------------------------------------------

TEST(OverloadPolicy, InvalidReasonCatchesNonsense) {
  OverloadPolicy p;  // kNone is always fine
  EXPECT_TRUE(policy::overload::invalid_reason(p).empty());

  p.kind = Kind::kQueueCap;
  p.queue_cap = 0;
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());

  p = OverloadPolicy{};
  p.kind = Kind::kTokenBucket;
  p.bucket_rate = -1.0;
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());
  p.bucket_rate = 100.0;
  p.bucket_burst = 0.5;  // can never hold a whole token
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());
  // NaN compares false both ways; the checks must still reject it.
  p.bucket_burst = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());
  p.bucket_burst = 100.0;
  p.bucket_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());

  p = OverloadPolicy{};
  p.kind = Kind::kCoDel;
  p.codel_target = Duration::zero();
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());

  p = OverloadPolicy{};
  p.kind = Kind::kAdaptiveLifo;
  p.lifo_threshold = 0;
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());

  p = OverloadPolicy{};
  p.kind = Kind::kBrownout;
  p.degrade_above = 32;
  p.brownout_cap = 16;  // sheds before it ever degrades
  EXPECT_FALSE(policy::overload::invalid_reason(p).empty());
}

TEST(OverloadPolicy, ConfigValidationRejectsBadTierPolicies) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.overload.app.kind = Kind::kQueueCap;
  cfg.overload.app.queue_cap = 0;
  EXPECT_THROW(core::validate(cfg), std::invalid_argument);
}

// --- admission-time policies -----------------------------------------------

TEST(QueueCap, ShedsOnceInSystemReachesCap) {
  OverloadPolicy p;
  p.kind = Kind::kQueueCap;
  p.queue_cap = 4;
  AdmissionController c(p);
  const Time t = Time::from_seconds(1.0);
  EXPECT_EQ(c.on_offer(t, 3), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(t, 4), Decision::kShed);
  EXPECT_EQ(c.on_offer(t, 400), Decision::kShed);
  EXPECT_EQ(c.stats().admitted, 1u);
  EXPECT_EQ(c.stats().shed_admission, 2u);
  EXPECT_EQ(c.stats().total_shed(), 2u);
}

TEST(TokenBucket, RefillsDeterministicallyAndCapsAtBurst) {
  OverloadPolicy p;
  p.kind = Kind::kTokenBucket;
  p.bucket_rate = 10.0;  // tokens per second
  p.bucket_burst = 2.0;
  AdmissionController c(p);
  // Starts full: two admits, then dry.
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.0), 0), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.0), 0), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.0), 0), Decision::kShed);
  // 50 ms earns half a token: still dry.
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.05), 0), Decision::kShed);
  // Another 100 ms brings it to 1.5: one admit, then dry again.
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.15), 0), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(Time::from_seconds(0.15), 0), Decision::kShed);
  // A long idle stretch refills to the burst cap, not beyond.
  EXPECT_EQ(c.on_offer(Time::from_seconds(10.0), 0), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(Time::from_seconds(10.0), 0), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(Time::from_seconds(10.0), 0), Decision::kShed);
  EXPECT_EQ(c.stats().admitted, 5u);
  EXPECT_EQ(c.stats().shed_admission, 4u);
}

TEST(Brownout, DegradesUnderPressureShedsAtTheCap) {
  OverloadPolicy p;
  p.kind = Kind::kBrownout;
  p.degrade_above = 4;
  p.brownout_cap = 8;
  AdmissionController c(p);
  const Time t = Time::from_seconds(1.0);
  EXPECT_EQ(c.on_offer(t, 3), Decision::kAdmit);
  EXPECT_EQ(c.on_offer(t, 4), Decision::kDegrade);
  EXPECT_EQ(c.on_offer(t, 7), Decision::kDegrade);
  EXPECT_EQ(c.on_offer(t, 8), Decision::kShed);
  // Degraded offers count as admitted (they enter the system).
  EXPECT_EQ(c.stats().admitted, 3u);
  EXPECT_EQ(c.stats().degraded, 2u);
  EXPECT_EQ(c.stats().shed_admission, 1u);
}

// --- dequeue-time control laws ---------------------------------------------

TEST(CoDel, ShedsOnlyAfterSojournStaysAboveTargetForAnInterval) {
  OverloadPolicy p;
  p.kind = Kind::kCoDel;
  p.codel_target = Duration::millis(10);
  p.codel_interval = Duration::millis(100);
  AdmissionController c(p);
  const Duration high = Duration::millis(20);
  // Healthy sojourns never shed.
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.0), Duration::millis(1)));
  // First above-target observation arms the interval; still served.
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.0), high));
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.05), high));
  // Above target for a full interval: enter the dropping state.
  EXPECT_TRUE(c.shed_on_dequeue(Time::from_seconds(0.1), high));
  // Next drop is scheduled one interval out (drop_count = 1).
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.15), high));
  EXPECT_TRUE(c.shed_on_dequeue(Time::from_seconds(0.2), high));
  EXPECT_EQ(c.stats().shed_dequeue, 2u);
  // A below-target sojourn exits the dropping state entirely.
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.25), Duration::millis(1)));
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.26), high));  // re-arming
  EXPECT_EQ(c.stats().shed_dequeue, 2u);
}

TEST(CoDel, DropScheduleTightensBySqrtLaw) {
  OverloadPolicy p;
  p.kind = Kind::kCoDel;
  p.codel_target = Duration::millis(10);
  p.codel_interval = Duration::millis(100);
  AdmissionController c(p);
  const Duration high = Duration::millis(50);
  // Arm and enter dropping at t = 0.1.
  EXPECT_FALSE(c.shed_on_dequeue(Time::from_seconds(0.0), high));
  EXPECT_TRUE(c.shed_on_dequeue(Time::from_seconds(0.1), high));
  // Walk forward in 10 ms steps for one second; count sheds. The
  // inverse-sqrt gap (100, 70.7, 57.7, 50 ms, ...) must yield strictly
  // more drops than a fixed one-per-interval law would (10 in 1 s).
  std::uint64_t before = c.stats().shed_dequeue;
  for (int i = 11; i <= 110; ++i)
    c.shed_on_dequeue(Time::from_seconds(0.01 * i), high);
  const std::uint64_t drops = c.stats().shed_dequeue - before;
  EXPECT_GT(drops, 10u);
  EXPECT_LT(drops, 100u);  // but nowhere near shed-everything
}

struct Entry {
  int id = 0;
  Time enq;
};

TEST(AdaptiveLifo, FifoWhenShallowNewestFirstWhenDeep) {
  OverloadPolicy p;
  p.kind = Kind::kAdaptiveLifo;
  p.lifo_threshold = 3;
  p.lifo_max_sojourn = Duration::seconds(1);
  AdmissionController c(p);
  const Time now = Time::from_seconds(0.5);
  int shed_ids = 0;
  auto enq = [](const Entry& e) { return e.enq; };
  auto shed = [&](Entry e) { shed_ids += e.id; };

  std::deque<Entry> q = {{1, Time::from_seconds(0.1)}, {2, Time::from_seconds(0.2)}};
  // Below threshold: plain FIFO.
  auto got = policy::overload::pop_next(&c, q, now, enq, shed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 1);
  EXPECT_EQ(c.stats().lifo_picks, 0u);

  // At threshold: newest-first.
  q = {{1, Time::from_seconds(0.1)},
       {2, Time::from_seconds(0.2)},
       {3, Time::from_seconds(0.3)}};
  got = policy::overload::pop_next(&c, q, now, enq, shed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 3);
  EXPECT_EQ(c.stats().lifo_picks, 1u);
  EXPECT_EQ(shed_ids, 0);  // nothing stale yet
}

TEST(AdaptiveLifo, StaleEntriesAreShedAtDequeue) {
  OverloadPolicy p;
  p.kind = Kind::kAdaptiveLifo;
  p.lifo_threshold = 10;  // stay FIFO; isolate the age gate
  p.lifo_max_sojourn = Duration::millis(500);
  AdmissionController c(p);
  const Time now = Time::from_seconds(2.0);
  std::vector<int> shed_ids;
  auto enq = [](const Entry& e) { return e.enq; };
  auto shed = [&](Entry e) { shed_ids.push_back(e.id); };

  // 1 and 2 have sat for >= 500 ms (dead senders); 3 is fresh.
  std::deque<Entry> q = {{1, Time::from_seconds(0.1)},
                         {2, Time::from_seconds(1.5)},
                         {3, Time::from_seconds(1.8)}};
  auto got = policy::overload::pop_next(&c, q, now, enq, shed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 3);
  EXPECT_EQ(shed_ids, (std::vector<int>{1, 2}));
  EXPECT_EQ(c.stats().shed_dequeue, 2u);

  // A queue of nothing but stale work drains to empty.
  q = {{4, Time::from_seconds(0.2)}};
  got = policy::overload::pop_next(&c, q, now, enq, shed);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(q.empty());
}

TEST(PopNext, NullControllerIsPlainFifo) {
  const Time now = Time::from_seconds(9.0);
  auto enq = [](const Entry& e) { return e.enq; };
  auto shed = [](Entry) { FAIL() << "nothing may be shed without a controller"; };
  std::deque<Entry> q = {{1, Time::from_seconds(0.0)}, {2, Time::from_seconds(0.1)}};
  auto got = policy::overload::pop_next<std::deque<Entry>>(nullptr, q, now, enq, shed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 1);
  std::deque<Entry> empty;
  EXPECT_FALSE(
      policy::overload::pop_next<std::deque<Entry>>(nullptr, empty, now, enq, shed)
          .has_value());
}

// --- system level: wiring, shed->retry contract, determinism ---------------

TEST(OverloadSystem, DisabledByDefaultBuildsNoControllerAndNoProbes) {
  auto cfg = core::scenarios::ext_overload_control(core::scenarios::OverloadChoice::kNone);
  cfg.duration = Duration::seconds(2);
  cfg.workload.sessions = 200;
  cfg.faults = fault::FaultPlan{};
  auto sys = core::run_system(cfg);
  EXPECT_EQ(sys->web()->overload(), nullptr);
  EXPECT_EQ(sys->app()->overload(), nullptr);
  EXPECT_FALSE(sys->registry().has_series("apache.ov_shed"));
  EXPECT_FALSE(sys->registry().has_series("tomcat.ov_admitted"));
}

TEST(OverloadSystem, ShedsBecomeRetryableFailuresUpstream) {
  // Tiny queue cap at the web tier at the scenario's WL 8000 (past the
  // paper's saturation point, so >10 requests in system is routine):
  // sheds are certain even without any fault.
  auto cfg = core::scenarios::ext_overload_control(core::scenarios::OverloadChoice::kQueueCap);
  cfg.duration = Duration::seconds(6);
  cfg.faults = fault::FaultPlan{};
  cfg.overload.app = policy::overload::OverloadPolicy{};  // web only
  cfg.overload.web.queue_cap = 10;
  auto sys = core::run_system(cfg);
  const auto* c = sys->web()->overload();
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->stats().shed_admission, 0u);
  auto s = core::summarize(*sys);
  // Every shed is concluded as a failed attempt by the client governor
  // and routed through retry_or_fail: retries happen, and with only 4
  // attempts against a persistent cap some requests fail outright.
  EXPECT_GT(s.client_retries, 0u);
  EXPECT_GT(s.failed_requests, 0u);
  // Telemetry probes exist and saw the sheds.
  ASSERT_TRUE(sys->registry().has_series("apache.ov_shed"));
  EXPECT_EQ(sys->registry().has_series("mysql.ov_shed"), false);  // db has no policy
}

namespace {
// mysql-completed per tomcat-completed: the mean DB queries actually
// issued per app-tier request (RUBBoS issues several per dynamic
// request, so the healthy ratio is well above 1).
double db_per_app(const core::ExperimentSummary& s) {
  double app = 0.0, db = 0.0;
  for (const auto& t : s.tiers) {
    if (t.server == "tomcat") app = static_cast<double>(t.completed);
    if (t.server == "mysql") db = static_cast<double>(t.completed);
  }
  EXPECT_GT(app, 0.0);
  return db / app;
}
}  // namespace

TEST(OverloadSystem, BrownoutSkipsDownstreamWork) {
  auto cfg = core::scenarios::ext_overload_control(core::scenarios::OverloadChoice::kBrownout);
  cfg.duration = Duration::seconds(6);
  cfg.faults = fault::FaultPlan{};
  cfg.overload.web = policy::overload::OverloadPolicy{};  // app only
  cfg.overload.app.degrade_above = 5;
  cfg.overload.app.brownout_cap = 0;
  auto sys = core::run_system(cfg);
  const auto* c = sys->app()->overload();
  ASSERT_NE(c, nullptr);
  ASSERT_GT(c->stats().degraded, 0u);
  const double browned = db_per_app(core::summarize(*sys));

  // Same run with no overload control: every dynamic request runs its
  // full DB-query fan-out, so it issues strictly more DB work per
  // app-tier request than the brownout run, where degraded requests
  // skip the app->db hop entirely.
  cfg.overload.app = policy::overload::OverloadPolicy{};
  auto base = core::run_system(cfg);
  const double healthy = db_per_app(core::summarize(*base));
  EXPECT_LT(browned, healthy);
}

TEST(OverloadSystem, ControlledRunsReplayBitIdentically) {
  auto cfg = core::scenarios::ext_overload_control(core::scenarios::OverloadChoice::kCoDel);
  cfg.duration = Duration::seconds(16);
  cfg.workload.sessions = 2000;
  auto a = core::run_system(cfg);
  auto b = core::run_system(cfg);
  EXPECT_EQ(core::summarize(*a).to_string(), core::summarize(*b).to_string());
}

// --- the metastability verdict engine --------------------------------------

TEST(Metastability, QuietRunIsJudgedRecoveredImmediately) {
  // No fault at all: every "post-fault" window looks exactly like the
  // baseline, so the verdict must be kRecovered with a near-zero TTR.
  auto cfg = core::scenarios::ext_overload_control(core::scenarios::OverloadChoice::kNone);
  cfg.workload.sessions = 500;
  cfg.workload.client_policy = policy::TailPolicy{};
  cfg.faults = fault::FaultPlan{};
  cfg.duration = Duration::seconds(14);
  auto sys = core::run_system(cfg);
  core::RecoveryOptions opt;
  opt.fault_start = Time::from_seconds(6.0);
  opt.fault_clear = Time::from_seconds(7.0);
  opt.horizon = Duration::seconds(6);
  auto v = core::classify_recovery({"apache", "tomcat", "mysql"}, sys->sampler(), opt);
  EXPECT_EQ(v.regime, core::Regime::kRecovered);
  ASSERT_EQ(v.tiers.size(), 3u);
  for (const auto& t : v.tiers) {
    EXPECT_TRUE(t.recovered) << t.name;
    EXPECT_GT(t.pre_goodput, 0.0) << t.name;
  }
  EXPECT_LE(v.time_to_recovery, Duration::seconds(1));
  // Healthy closed-loop: offered tracks completed.
  EXPECT_LT(v.storm_amplification, 1.2);
}

}  // namespace
}  // namespace ntier
