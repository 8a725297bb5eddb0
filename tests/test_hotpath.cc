// Hot-path memory tests: SlabPool reuse/generation semantics, InlineFn
// inline storage, and the headline zero-allocation guarantee — a warmed
// closed-loop client/server system executes steady-state events without
// touching the global allocator, and neither do the policy layer's
// latency windows, a warmed shared CPU host, or the latency sketch
// beyond its growth (docs/PERFORMANCE.md).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cpu/host_core.h"
#include "helpers.h"
#include "net/rto_policy.h"
#include "policy/overload/overload.h"
#include "policy/tail_policy.h"
#include "server/request.h"
#include "server/sync_server.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"
#include "sim/slab_pool.h"
#include "telemetry/metric.h"
#include "workload/client.h"

// Global operator new/delete counting hooks. They are process-wide, but
// each gtest case runs in its own ctest process, and every other test in
// this binary only pays two relaxed increments per allocation.
namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }
std::uint64_t deletes() { return g_deletes.load(std::memory_order_relaxed); }

void* counted_alloc_nothrow(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_alloc(std::size_t n) {
  if (void* p = counted_alloc_nothrow(n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// Every replaceable form must be covered, or a library allocation can
// pair one allocator's new with the other's delete (stable_sort's
// temporary buffer uses the nothrow form; ASan flags the mismatch).
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t& t) noexcept {
  return operator new(n, al, t);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;

// --- SlabPool unit behaviour ---------------------------------------------

TEST(SlabPool, ReuseOrderIsDeterministicLifo) {
  sim::SlabPool<int> pool;
  auto a = pool.make(1);
  auto b = pool.make(2);
  auto c = pool.make(3);
  int* pa = a.get();
  int* pb = b.get();
  int* pc = c.get();
  EXPECT_EQ(pool.live(), 3u);
  a.reset();
  b.reset();
  c.reset();
  EXPECT_EQ(pool.live(), 0u);
  // LIFO: the most recently released slot is handed out first.
  auto r1 = pool.make(4);
  auto r2 = pool.make(5);
  auto r3 = pool.make(6);
  EXPECT_EQ(r1.get(), pc);
  EXPECT_EQ(r2.get(), pb);
  EXPECT_EQ(r3.get(), pa);
}

TEST(SlabPool, CopyRetainsAndLastResetReleases) {
  sim::SlabPool<int> pool;
  auto a = pool.make(42);
  EXPECT_EQ(a.use_count(), 1u);
  auto b = a;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.get(), b.get());
  a.reset();
  EXPECT_EQ(pool.live(), 1u);  // b still owns the slot
  EXPECT_EQ(*b, 42);
  b.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, MoveStealsWithoutTouchingTheRefcount) {
  sim::SlabPool<int> pool;
  auto a = pool.make(7);
  auto b = std::move(a);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(*b, 7);
}

TEST(SlabPool, GenerationCheckCatchesStaleHandles) {
  sim::SlabPool<int> pool;
  auto a = pool.make(1);
  sim::PoolHandle<int> h(a);
  EXPECT_FALSE(h.stale());
  EXPECT_EQ(*h.get(), 1);
  a.reset();  // slot released: the generation bumps
  EXPECT_TRUE(h.stale());
  // Recycling the slot must not resurrect the old handle.
  auto b = pool.make(2);
  EXPECT_TRUE(h.stale());
  EXPECT_DEBUG_DEATH((void)h.get(), "stale");
  b.reset();
}

TEST(SlabPool, WarmedPoolServesMakeReleaseCyclesWithoutAllocating) {
  sim::SlabPool<int> pool;
  (void)pool.make(0);  // grows the first slab
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();
  for (int i = 0; i < 10000; ++i) {
    auto r = pool.make(i);
    auto copy = r;
    copy.reset();
    r.reset();
  }
  EXPECT_EQ(news() - n0, 0u);
  EXPECT_EQ(deletes() - d0, 0u);
}

// --- InlineFn ------------------------------------------------------------

TEST(InlineFn, StoresCallablesInlineAndNeverAllocates) {
  const std::uint64_t n0 = news();
  int hits = 0;
  sim::InlineFn<void()> f([&hits] { ++hits; });
  f();
  sim::InlineFn<void()> g = std::move(f);
  g();
  sim::InlineFn<void()> h = g;  // copyable (the event-queue heap copies)
  h();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(news() - n0, 0u);
}

TEST(InlineFn, CapacityFitsTheDocumentedCaptureBudget) {
  // The uniform EventFn budget: a pooled ref (16 B) + this (8 B) + a
  // small index still fits; the type itself stays two pointers wide
  // beyond its buffer.
  static_assert(sim::kInlineFnCapacity == 48);
  static_assert(sizeof(sim::EventFn) == sim::kInlineFnCapacity + 2 * sizeof(void*));
}

// --- The headline guarantee ----------------------------------------------

// A closed-loop client population over a one-tier (NX=0) sync server:
// after warm-up, executing >= 10k events allocates exactly nothing —
// requests, transport messages, contexts, and event closures all come
// from warmed slab pools and inline buffers.
TEST(HotPath, SteadyStateEventsDoZeroAllocations) {
  sim::Simulation sim;
  cpu::HostCpu host(sim, 4.0);
  cpu::VmCpu* vm = host.add_vm("web", 4);
  server::AppProfile profile = test::one_class_profile();

  server::SyncConfig scfg;
  scfg.threads_per_process = 64;
  server::SyncServer front(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::micros(100));
      },
      scfg);

  workload::ClientConfig ccfg;
  ccfg.sessions = 32;
  ccfg.mean_think = Duration::millis(1);
  workload::ClientPool clients(sim, sim::Rng(1234), &profile, &front, ccfg);
  clients.start();

  // Warm-up: pools grow to the run's high-water mark, the event heap and
  // scratch vectors reach steady capacity.
  sim.run_until(Time::from_seconds(2.0));
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();

  sim.run_until(Time::from_seconds(2.5));

  const std::uint64_t measured = sim.events_executed() - warm_events;
  EXPECT_GE(measured, 10000u);
  EXPECT_GT(clients.completed(), 0u);
  EXPECT_EQ(news() - n0, 0u) << "steady-state events allocated";
  EXPECT_EQ(deletes() - d0, 0u) << "steady-state events freed";
}

// The governed hops join the guarantee: a client with an attempt
// timeout, retries and a hedge over two sync tiers whose hop runs the
// same policy. One request in a hundred needs 3 ms at the back tier, so
// both hops keep timing attempts out, retrying and hedging while the
// thread pools never queue. Per-call and per-attempt state comes from
// warmed slab pools and every policy closure fits its InlineFn budget,
// so none of it touches the allocator.
TEST(HotPath, GovernedHopsDoZeroAllocations) {
  sim::Simulation sim;
  cpu::HostCpu host(sim, 8.0);
  cpu::VmCpu* web_vm = host.add_vm("web", 4);
  cpu::VmCpu* app_vm = host.add_vm("app", 4);
  server::AppProfile profile = test::one_class_profile();
  server::RequestClassProfile slow = profile.classes[0];
  slow.name = "slow";
  slow.weight = 0.01;
  slow.db_cpu = Duration::millis(3);
  profile.classes.push_back(slow);

  server::SyncConfig scfg;
  scfg.threads_per_process = 512;
  server::SyncServer back(
      sim, "app", app_vm, &profile,
      [](const server::RequestClassProfile& c) { return test::cpu_only(c.db_cpu); }, scfg);
  server::SyncServer front(
      sim, "web", web_vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_down_cpu(Duration::micros(100), Duration::micros(50));
      },
      scfg);
  front.connect_downstream(&back, net::RtoPolicy::rhel6(), net::Link{});

  policy::TailPolicy tp;
  tp.attempt_timeout = Duration::millis(2);
  tp.retry.max_attempts = 3;
  tp.retry.base_backoff = Duration::micros(200);
  tp.retry.max_backoff = Duration::millis(2);
  tp.hedge.enabled = true;
  tp.hedge.initial_delay = Duration::millis(1);
  tp.hedge.min_delay = Duration::micros(500);
  tp.hedge.warmup_samples = 16;
  front.enable_tail_policy(tp, sim::Rng(77));

  workload::ClientConfig ccfg;
  ccfg.sessions = 16;
  ccfg.mean_think = Duration::millis(5);
  ccfg.policy = tp;
  workload::ClientPool clients(sim, sim::Rng(1234), &profile, &front, ccfg);
  clients.start();

  // Warm-up: 4 s, because the event engine's same-tick batch scratch
  // still reaches a new high-water mark after 2 s of this mix.
  sim.run_until(Time::from_seconds(4.0));
  const std::uint64_t warm_events = sim.events_executed();
  const policy::PolicyStats warm_client = clients.governor()->stats();
  const policy::PolicyStats warm_tier = front.governor()->stats();
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();

  sim.run_until(Time::from_seconds(5.0));

  const std::uint64_t measured = sim.events_executed() - warm_events;
  EXPECT_GE(measured, 10000u);
  EXPECT_GT(clients.completed(), 0u);
  // The measured second retries and hedges on both hops.
  EXPECT_GT(clients.governor()->stats().retries, warm_client.retries);
  EXPECT_GT(clients.governor()->stats().hedges, warm_client.hedges);
  EXPECT_GT(front.governor()->stats().retries, warm_tier.retries);
  EXPECT_GT(front.governor()->stats().hedges, warm_tier.hedges);
  EXPECT_EQ(news() - n0, 0u) << "governed hops allocated";
  EXPECT_EQ(deletes() - d0, 0u) << "governed hops freed";
}

// The policy windows join the guarantee: a hedging governor decides a
// hedge delay on every governed dispatch, and an overload controller
// feeds its sojourn window on every dequeue. Both windows reserve their
// storage at construction; recording and reading a quantile afterwards
// touch no allocator, whether the window is filling or full.
TEST(HotPath, PolicyWindowsRecordAndDecideWithoutAllocating) {
  sim::Simulation sim;
  policy::TailPolicy tp;
  tp.hedge.enabled = true;
  policy::HopGovernor gov(sim, sim::Rng(3), tp);
  policy::overload::OverloadPolicy op;
  op.kind = policy::overload::Kind::kCoDel;
  policy::overload::AdmissionController ctl(op);
  sim::Rng rng(11);

  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();
  std::int64_t sum_us = 0;
  for (int i = 0; i < 20000; ++i) {
    const Duration d = Duration::micros(static_cast<std::int64_t>(rng.next_u64() % 50'000));
    gov.record_latency(d);
    sum_us += gov.hedge_delay().count_micros();
    ctl.record_sojourn(d);
    sum_us += ctl.sojourn_quantile(0.99).count_micros();
  }

  EXPECT_GT(sum_us, 0);
  EXPECT_EQ(news() - n0, 0u) << "policy windows allocated";
  EXPECT_EQ(deletes() - d0, 0u) << "policy windows freed";
}

// One closed-loop CPU job of the shared-host case below: its callback
// captures a PoolRef to this record, as a server's CPU step captures its
// visit, and resubmits from inside the completion.
struct CpuLoop {
  cpu::VmCpu* vm;
  sim::Rng* rng;
  std::uint64_t* done;
};

void resubmit(const sim::PoolRef<CpuLoop>& j) {
  ++*j->done;
  j->vm->submit(Duration::micros(1 + static_cast<std::int64_t>(j->rng->next_u64() % 2000)),
                [j] { resubmit(j); });
}

// The CPU model joins the guarantee on a shared host: weights 1 and 20,
// with 120 jobs on the weight-1 VM and one on the other. Job entries,
// callback slots, the free-slot list and the completion scratch reach
// their high-water marks during warm-up; afterwards submits,
// completions and the re-armed completion event touch no allocator.
TEST(HotPath, WarmedSharedHostRunsJobsWithoutAllocating) {
  thread_local sim::SlabPool<CpuLoop> pool;
  sim::Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  cpu::VmCpu* steady = host.add_vm("steady", 2, 1.0);
  cpu::VmCpu* noisy = host.add_vm("noisy", 1, 20.0);
  sim::Rng rng(42);
  std::uint64_t done = 0;
  for (int i = 0; i < 120; ++i) resubmit(pool.make(CpuLoop{steady, &rng, &done}));
  resubmit(pool.make(CpuLoop{noisy, &rng, &done}));
  EXPECT_GT(steady->active_jobs(), 100u);

  sim.run_until(Time::from_seconds(4.0));
  const std::uint64_t warm_done = done;
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();

  sim.run_until(Time::from_seconds(5.0));
  const std::uint64_t allocs = news() - n0;
  const std::uint64_t frees = deletes() - d0;

  EXPECT_GT(done - warm_done, 900u);
  EXPECT_EQ(steady->active_jobs(), 120u);
  EXPECT_EQ(allocs, 0u) << "warmed shared host allocated";
  EXPECT_EQ(frees, 0u) << "warmed shared host freed";
}

// The run-wide latency sketch records every completion. A warmed
// GkQuantile compacts in place, so 20k more records allocate only when
// its tuple vector outgrows its capacity, at most a few geometric steps.
TEST(HotPath, WarmedQuantileSketchCompactsInPlace) {
  telemetry::GkQuantile q;
  sim::Rng rng(5);
  const auto sample = [&rng] {
    return static_cast<double>(rng.next_u64() % 10'000) / 10.0;
  };
  for (int i = 0; i < 20'000; ++i) q.record(sample());
  const std::size_t tuples = q.tuple_count();
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();

  for (int i = 0; i < 20'000; ++i) q.record(sample());
  const std::uint64_t allocs = news() - n0;
  const std::uint64_t frees = deletes() - d0;

  EXPECT_EQ(q.count(), 40'000u);
  EXPECT_LE(allocs, 2u) << "sketch allocated beyond its growth (" << tuples << " -> "
                        << q.tuple_count() << " tuples)";
  EXPECT_EQ(frees, allocs);
}

TEST(HotPath, WarmedWheelSchedulesCancelsAndCascadesWithoutAllocating) {
  // The timing-wheel guarantee behind the engine's zero-allocation
  // claim: on a warmed queue, wheel insert and cancel at levels 0-4,
  // coarse-slot cascades, and per-tick batch execution — including the
  // multi-event seq sort — touch no allocator. The wheel's slot heads
  // and bitmaps are fixed in-object; the slot table and batch scratch
  // reach their high-water marks during warm-up and are then reused
  // forever.
  sim::EventQueue q;
  sim::Rng rng(7);
  std::uint64_t ran = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(8192);  // above the net high-water mark of the churn
  Time now;

  // Delays spanning wheel levels 0 through 4, so pushes, cancels and
  // cascades reach every one of those levels while warm.
  static constexpr std::int64_t kDelays[] = {1,          40,        300,
                                             70'000,     1 << 22,   1ll << 30,
                                             (1ll << 32) + 3};

  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 64; ++i) {
        const Duration delay =
            Duration::micros(kDelays[rng.next_u64() % std::size(kDelays)]);
        handles.push_back(q.push(now + delay, [&ran] { ++ran; }));
      }
      // Cancel a third of the pushes, wherever they sit in the wheel.
      for (int i = 0; i < 21 && !handles.empty(); ++i) {
        const std::size_t j = rng.next_u64() % handles.size();
        handles[j].cancel();
        handles[j] = handles.back();
        handles.pop_back();
      }
      // Drain a few ticks: the settle step cascades across slot and
      // level boundaries as the clock jumps by the random deltas above.
      for (int i = 0; i < 40; ++i) q.run_next_tick(Time::max(), now);
    }
  };

  churn(64);  // warm-up: grow slot table and batch scratch
  const std::uint64_t n0 = news();
  const std::uint64_t d0 = deletes();
  const std::uint64_t ran0 = ran;

  churn(64);  // measured: identical op mix on warmed storage

  EXPECT_GT(ran - ran0, 1000u);
  EXPECT_EQ(news() - n0, 0u) << "warmed wheel allocated";
  EXPECT_EQ(deletes() - d0, 0u) << "warmed wheel freed";
}

}  // namespace
}  // namespace ntier
