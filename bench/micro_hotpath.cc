// Hot-path allocation microbenchmarks of the zero-allocation engine
// (docs/PERFORMANCE.md).
//
// HotPath_PooledInline drives a closed-loop request cycle — issue ->
// admit -> service -> reply -> think, four scheduled closures per cycle —
// through the live engine: slab-pooled requests and server contexts
// (sim/slab_pool.h) and InlineFn events (sim/inline_fn.h), so the warmed
// steady state performs zero allocations per event — the property
// tests/test_hotpath.cc asserts exactly. RequestChurn_Pooled isolates
// the request lifecycle.
//
// scripts/run_benches.py records the pooled events/sec rate into
// BENCH_ntier.json; with --baseline it fails when the rate drops more
// than 25% below the committed one. EXPERIMENTS.md keeps the numbers of
// the pre-pooling substrate this replaced.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "sim/simulation.h"
#include "sim/slab_pool.h"

namespace {

using namespace ntier;
using sim::Duration;

// The request payload a client issues and a server settles.
struct BenchRequest {
  std::uint64_t id = 0;
  sim::Time issued;
  sim::Time completed;
  bool failed = false;
};
using ReqPtr = sim::PoolRef<BenchRequest>;

constexpr int kSessions = 64;
constexpr int kCycles = 200;  // request cycles per session per iteration

// Per-admission server context, as every tier server keeps (program
// counter + the in-flight request), in a slab slot.
struct BenchCtx {
  ReqPtr req;
  std::size_t pc = 0;
};
using CtxPtr = sim::PoolRef<BenchCtx>;

// Closed-loop driver. Every closure captures {this, handle, s} = 32
// bytes, inside InlineFn's inline storage.
struct ClosedLoop {
  sim::Simulation& sim;
  sim::SlabPool<BenchRequest>& req_pool;
  sim::SlabPool<BenchCtx>& ctx_pool;
  std::array<int, kSessions> cycles_left{};
  std::uint64_t next_id = 1;
  std::uint64_t settled = 0;

  void start() {
    for (std::size_t s = 0; s < kSessions; ++s) {
      cycles_left[s] = kCycles;
      // Staggered phases so timestamps interleave like a real run.
      sim.after(Duration::micros(13 * (s + 1)), [this, s] { issue(s); });
    }
  }
  void issue(std::size_t s) {
    ReqPtr req = req_pool.make();
    req->id = next_id++;
    req->issued = sim.now();
    sim.after(Duration::micros(200), [this, req, s] { admit(req, s); });
  }
  void admit(const ReqPtr& req, std::size_t s) {
    CtxPtr ctx = ctx_pool.make();
    ctx->req = req;
    sim.after(Duration::micros(100), [this, ctx, s] { complete(ctx, s); });
  }
  void complete(const CtxPtr& ctx, std::size_t s) {
    ++ctx->pc;
    sim.after(Duration::micros(200), [this, ctx, s] { settle(ctx, s); });
  }
  void settle(const CtxPtr& ctx, std::size_t s) {
    ctx->req->completed = sim.now();
    ++settled;
    benchmark::DoNotOptimize(ctx->req->completed);
    if (--cycles_left[s] > 0)
      sim.after(Duration::micros(700), [this, s] { issue(s); });
  }
};

void BM_HotPath_PooledInline(benchmark::State& state) {
  // The pools outlive the iterations: after the first one they are
  // warmed to the loop's high-water mark and stay allocation-free — the
  // state every long simulation reaches.
  sim::SlabPool<BenchRequest> pool;
  sim::SlabPool<BenchCtx> ctx_pool;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    ClosedLoop loop{sim, pool, ctx_pool};
    loop.start();
    sim.run_all();
    events += sim.events_executed();
    benchmark::DoNotOptimize(loop.settled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_HotPath_PooledInline);

// Request lifecycle alone (no event queue): warmed LIFO slot recycling.
void BM_RequestChurn_Pooled(benchmark::State& state) {
  sim::SlabPool<BenchRequest> pool;
  std::uint64_t id = 0;
  for (auto _ : state) {
    auto r = pool.make();
    r->id = ++id;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestChurn_Pooled);

}  // namespace

BENCHMARK_MAIN();
