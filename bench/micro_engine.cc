// google-benchmark microbenchmarks of the simulation substrates: these
// bound how much simulated time per wall-second the harness sustains.
//
// Every case runs the live engine through the tick driver the
// Simulation uses. WheelCancelHeavy runs the processor-sharing core's
// reschedule pattern (cancel the pending completion event, push a new
// one); WheelDense runs the homogeneous self-rescheduling timer mass the
// timing wheel was built for (think times, RTOs, sampler ticks);
// FarTimer pins far timers that sit at level 4 and cascade through
// every finer level. scripts/run_benches.py records their absolute
// rates into BENCH_ntier.json; EXPERIMENTS.md keeps the numbers of the
// retired queue generations they replaced.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cpu/host_core.h"
#include "metrics/histogram.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace {

using namespace ntier;
using sim::Duration;

// Cancel-heavy churn: 256 standing "timers" that are constantly
// rescheduled (cancel + re-push) up to 1 s ahead of the clock, with one
// tick run every eighth op — how every tier server's next-completion
// event behaves under load.
void BM_WheelCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> slots(256);
    sim::Rng rng(7);
    sim::Time now{};
    for (int i = 0; i < n; ++i) {
      auto& slot = slots[rng.next_u64() % 256];
      slot.cancel();
      slot = q.push(now + Duration::micros(1 + static_cast<std::int64_t>(
                                                   rng.next_u64() % 1000000)),
                    [] {});
      if (i % 8 == 0) q.run_next_tick(sim::Time::max(), now);
    }
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WheelCancelHeavy)->Arg(100000);

// A self-rescheduling timer: each firing re-arms itself a small random
// delay ahead, like think-time clocks, retransmission timers, and
// sampler ticks do. Small enough (32 bytes) to stay inside the
// queue's inline callback storage — no allocation per event.
struct DenseTimer {
  sim::EventQueue* q;
  sim::Rng* rng;
  int* remaining;
  std::int64_t when;
  void operator()() {
    if (--*remaining <= 0) return;
    when += 1 + static_cast<std::int64_t>(rng->next_u64() % 250);
    q->push(sim::Time::from_micros(when),
            DenseTimer{q, rng, remaining, when});
  }
};

// Dense homogeneous timer mass: 256 standing timers re-arming at
// level-0 distances. This is the wheel's design load — every push
// lands O(1) in a near slot — and the workload behind the engine's
// events-per-second headline.
void BM_WheelDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    sim::Rng rng(11);
    int remaining = n;
    for (int i = 0; i < 256; ++i) {
      const std::int64_t when =
          1 + static_cast<std::int64_t>(rng.next_u64() % 250);
      q.push(sim::Time::from_micros(when),
             DenseTimer{&q, &rng, &remaining, when});
    }
    sim::Time now{};
    while (q.run_next_tick(sim::Time::max(), now) > 0) {
    }
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WheelDense)->Arg(1000000);

// Far, irregular timers 2^33..2^34 us out: all of them sit at wheel
// level 4 and cascade through every finer level before they run, so
// this pins the cost of the far path rather than the level-0 fast path.
void BM_FarTimer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(13);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i)
      q.push(sim::Time::from_micros(
                 (1ll << 33) +
                 static_cast<std::int64_t>(rng.next_u64() % (1ll << 32))),
             [] {});
    sim::Time now{};
    while (q.run_next_tick(sim::Time::max(), now) > 0) {
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FarTimer)->Arg(100000);

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i)
      q.push(sim::Time::from_micros(static_cast<std::int64_t>(rng.next_u64() % 1000000)),
             [] {});
    sim::Time now{};
    while (q.run_next_tick(sim::Time::max(), now) > 0) {
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(100000);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i)
      handles.push_back(q.push(sim::Time::from_micros(i), [] {}));
    for (auto& h : handles) h.cancel();
    benchmark::DoNotOptimize(q.empty());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancellation);

void BM_PsCoreChurn(benchmark::State& state) {
  // Continuous submit/complete churn on a shared core with two VMs —
  // the hot path of every tier server.
  for (auto _ : state) {
    sim::Simulation sim;
    cpu::HostCpu host(sim, 1.0);
    auto* a = host.add_vm("a");
    auto* b = host.add_vm("b");
    sim::Rng rng(2);
    int completed = 0;
    for (int i = 0; i < 2000; ++i) {
      auto* vm = (i % 2 != 0) ? b : a;
      sim.after(Duration::micros(static_cast<std::int64_t>(rng.next_u64() % 10000)),
                [vm, &completed, &rng] {
                  vm->submit(Duration::micros(5 + static_cast<std::int64_t>(
                                                      rng.next_u64() % 200)),
                             [&completed] { ++completed; });
                });
    }
    sim.run_all();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PsCoreChurn);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::LinearHistogram h(Duration::millis(100), Duration::seconds(30));
  sim::Rng rng(3);
  for (auto _ : state) {
    h.record(Duration::micros(static_cast<std::int64_t>(rng.next_u64() % 10'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(4);
  double acc = 0;
  for (auto _ : state) acc += rng.exponential(1.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

}  // namespace

BENCHMARK_MAIN();
