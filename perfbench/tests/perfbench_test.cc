// Unit tests of the benchmark's own arithmetic: derived ratios, the tail
// percentile, the Little's-law replay parameters, span self time, and the
// failure accounting that keeps every metric printing when a run fails.
#include <gtest/gtest.h>

#include <set>

#include "results.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "missing metric " << name;
  return -1.0;
}

TEST(Stats, RatioIsZeroOverZero) {
  EXPECT_EQ(ratio(6.0, 3.0), 2.0);
  EXPECT_EQ(ratio(5.0, 0.0), 0.0);
}

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, FastestPartsFromDifferentRepetitions) {
  EXPECT_EQ(fastest({3.0, 1.0, 2.0}), 1.0);
  EXPECT_EQ(fastest({}), 0.0);
  // Part 0 is fastest in the second repetition, part 1 in the first; the
  // short row (a repetition that stopped early) takes no part.
  EXPECT_EQ(sum_of_fastest_parts({{3.0, 1.0, 2.0}, {1.0, 4.0, 2.0}, {0.5}}), 4.0);
  EXPECT_EQ(sum_of_fastest_parts({}), 0.0);
  // Contention that slows every repetition somewhere leaves it unchanged.
  EXPECT_EQ(sum_of_fastest_parts({{1.0, 9.0}, {9.0, 1.0}}), 2.0);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 300; i >= 1; --i) v.push_back(i);
  const Tail t = tail_percentile(v);
  EXPECT_EQ(t.value, 290.0);  // 291..300 lie beyond it
  EXPECT_NEAR(t.percentile, 100.0 * 290 / 300, 1e-12);
  EXPECT_EQ(t.count, 300u);
  std::size_t beyond = 0;
  for (double x : v) beyond += x > t.value ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
}

TEST(Stats, TailWithElevenAndWithTooFewSamples) {
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  const Tail t = tail_percentile(eleven);
  EXPECT_EQ(t.value, 1.0);
  EXPECT_NEAR(t.percentile, 100.0 / 11, 1e-12);

  const Tail few = tail_percentile({5.0, 9.0, 7.0});
  EXPECT_EQ(few.value, 9.0);  // no percentile qualifies: the maximum, flagged 100
  EXPECT_EQ(few.percentile, 100.0);
  EXPECT_EQ(few.count, 3u);
}

TEST(Stats, LittlesLawReplayParameters) {
  // 9000 pending at 15000 events per simulated second: each event waits
  // L / lambda = 0.6 s on average.
  const EngineReplayParams p = little_law(9000.0, 300.0, 4.5e6);
  EXPECT_EQ(p.timers, 9000u);
  EXPECT_NEAR(p.mean_delay_us, 600000.0, 1e-6);
  // Degenerate inputs still give a runnable replay.
  const EngineReplayParams z = little_law(0.0, 0.0, 0.0);
  EXPECT_EQ(z.timers, 1u);
  EXPECT_GE(z.mean_delay_us, 1.0);
}

TEST(Stats, DigestIsOrderSensitive) {
  Digest a, b, c;
  a.add(1);
  a.add(2);
  b.add(1);
  b.add(2);
  c.add(2);
  c.add(1);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(hex64(0xabcull), "0000000000000abc");
}

TEST(Stats, NumberKeepsAllDigits) {
  EXPECT_EQ(number(0.1), "0.1");
  EXPECT_EQ(std::stod(number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(number(1.0 / 0.0), "0");
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  const std::size_t root = log.begin("request", "w");
  const std::size_t child = log.begin("run");
  const std::size_t leaf = log.begin("slice");
  log.end(leaf);
  log.end(child);
  log.end(root);
  double total = 0.0;
  for (const auto& [name, ms] : log.self_ms()) {
    EXPECT_GE(ms, 0.0) << name;
    total += ms;
  }
  EXPECT_NEAR(total, log.ms(root), 1e-9);  // self times partition the root
  EXPECT_EQ(log.spans()[leaf].parent, static_cast<std::int64_t>(child));
  const std::string json = log.chrome_json();
  EXPECT_NE(json.find("\"cat\": \"request\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": -1"), std::string::npos);
}

TEST(Spans, ClosingAnOuterSpanClosesInnerOnes) {
  SpanLog log;
  const std::size_t root = log.begin("request");
  const std::size_t inner = log.begin("setup");
  log.end(root);
  EXPECT_GE(log.spans()[inner].end_ns, 0);
  EXPECT_EQ(log.begin("request"), 2u);
  EXPECT_EQ(log.spans()[2].tid, 1);
}

TEST(Checks, ConservationAndQueueBound) {
  TierView ok{"apache", 100, 90, 10, true, 278.0, 278};
  EXPECT_TRUE(check_tiers({ok}).empty());
  TierView leak = ok;
  leak.completed = 89;
  EXPECT_EQ(check_tiers({leak}).size(), 1u);
  TierView over = ok;
  over.queue_peak = 279.0;
  EXPECT_EQ(check_tiers({over}).size(), 1u);
  over.sync = false;  // async tiers have no MaxSysQDepth bound here
  EXPECT_TRUE(check_tiers({over}).empty());
}

TEST(Checks, PaperVerdicts) {
  Verdict v;
  EXPECT_EQ(check_verdict("sync_ctqo", v).size(), 2u);
  v.drops = 5;
  v.upstream_episodes = 1;
  EXPECT_TRUE(check_verdict("sync_ctqo", v).empty());
  EXPECT_EQ(check_verdict("async_logflush", v).size(), 1u);
  EXPECT_EQ(check_verdict("graph_hedge", v).size(), 1u);  // no hedges sent
  v.hedges = 3;
  v.hedge_wins = 4;
  EXPECT_EQ(check_verdict("graph_hedge", v).size(), 1u);
  v.hedge_wins = 3;
  EXPECT_TRUE(check_verdict("graph_hedge", v).empty());
  v.nx3_ctqo_points = 1;
  EXPECT_EQ(check_verdict("sweep_surface", v).size(), 1u);
}

Iteration run_with(double run_s, std::uint64_t completed, std::uint64_t digest) {
  Iteration it;
  it.setup_s = 0.001;
  it.run_s = run_s;
  it.report_s = 0.05;
  it.report_parts_s = {0.02, 0.03};
  it.counters.completed = completed;
  it.digest = digest;
  return it;
}

TEST(Accounting, FailedRunIsCountedAndEveryMetricStillPrints) {
  std::vector<Iteration> runs = {run_with(1.0, 1000, 7), run_with(2.0, 1000, 7),
                                 run_with(4.0, 1000, 7)};
  runs[0].failures.push_back("apache: accepted 3 != completed 1 + queued 1");
  std::vector<Iteration*> all = {&runs[0], &runs[1], &runs[2]};
  check_digests(all, std::nullopt);
  EXPECT_EQ(count_failed(all), 1u);

  const auto m = end_to_end(runs, {0.003, 0.002}, 20.0);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(value_of(m, "requests_per_s"), 1000.0);  // the fastest run, though it failed
  EXPECT_EQ(value_of(m, "setup_s"), 0.002);  // the set-up-only samples
  EXPECT_DOUBLE_EQ(value_of(m, "report_s"), 0.05);
  runs[0].digest = 0;  // a run that threw has no parts to compare
  EXPECT_EQ(value_of(end_to_end(runs, {0.003}, 20.0), "requests_per_s"), 500.0);
  EXPECT_EQ(value_of(m, "peak_rss_mb"), 20.0);
  const std::string line = result_line(false, 3, 1, m);
  EXPECT_EQ(line.rfind("{\"correct\": false, \"attempted\": 3, \"failed\": 1,", 0), 0u);
  for (const char* name : {"requests_per_s", "setup_s", "report_s", "peak_rss_mb"})
    EXPECT_NE(line.find(name), std::string::npos) << name;
}

TEST(EndToEnd, EachSimulatedSecondAtItsFastest) {
  std::vector<Iteration> runs = {run_with(0.005, 600, 7), run_with(0.005, 600, 7)};
  runs[0].slices = {{1.0, 10}, {4.0, 10}};  // ms
  runs[1].slices = {{3.0, 10}, {1.5, 10}};
  runs[1].report_parts_s = {0.01, 0.04};
  const auto m = end_to_end(runs, {}, 1.0);
  EXPECT_DOUBLE_EQ(value_of(m, "requests_per_s"), 600 / 0.0025);
  EXPECT_DOUBLE_EQ(value_of(m, "report_s"), 0.04);
}

TEST(Accounting, DigestMismatchesFailTheRun) {
  std::vector<Iteration> runs = {run_with(1.0, 1, 7), run_with(1.0, 1, 8)};
  std::vector<Iteration*> all = {&runs[0], &runs[1]};
  check_digests(all, std::nullopt);
  EXPECT_TRUE(runs[0].failures.empty());
  EXPECT_EQ(runs[1].failures.size(), 1u);

  std::vector<Iteration> ref = {run_with(1.0, 1, 7)};
  check_digests({&ref[0]}, 9);  // reference digest of the default seed
  EXPECT_EQ(ref[0].failures.size(), 1u);
}

TEST(PerLayer, DerivedRatios) {
  LayerInputs in;
  Iteration t = run_with(3.0, 1000, 1);
  Counters& c = t.counters;
  c.events = 20000;
  c.sends = 900;
  c.retransmits = 100;
  c.delivered = 800;
  c.offered = 4000;
  c.accepted = 3000;
  c.hedges = 40;
  c.hedge_wins = 10;
  c.governed_sends = 2000;
  c.disk_ops = 500;
  c.pending_sum = 300.0;
  c.pending_samples = 3;
  t.slices = {{2.0, 100}, {4.0, 100}};
  in.traced = {t};
  in.untraced = {run_with(2.0, 1000, 1)};
  in.replays.engine_ns_per_event = 50.0;
  in.replays.policy_ns_per_dispatch = 1000.0;
  const auto m = per_layer(in);

  std::set<std::string> names;
  for (const Metric& x : m) EXPECT_TRUE(names.insert(x.name).second) << x.name;
  EXPECT_EQ(m.size(), 55u);
  EXPECT_EQ(value_of(m, "sim.events_per_request"), 20.0);
  EXPECT_EQ(value_of(m, "sim.events_per_s"), 10000.0);  // untraced run wall: 2 s
  EXPECT_EQ(value_of(m, "sim.ns_per_event"), 1e5);
  EXPECT_EQ(value_of(m, "sim.pending_mean"), 100.0);
  EXPECT_DOUBLE_EQ(value_of(m, "sim.engine_share"), 20000 * 50e-9 / 2.0);
  EXPECT_DOUBLE_EQ(value_of(m, "policy.share"), 2000 * 1000e-9 / 2.0);
  EXPECT_EQ(value_of(m, "net.delivery_ratio"), 0.8);
  EXPECT_EQ(value_of(m, "server.admit_ratio"), 0.75);
  EXPECT_EQ(value_of(m, "server.hops_per_request"), 3.0);
  EXPECT_EQ(value_of(m, "policy.hedge_win_ratio"), 0.25);
  EXPECT_EQ(value_of(m, "io.ops_per_request"), 0.5);
  EXPECT_EQ(value_of(m, "run.slices"), 2.0);
  EXPECT_EQ(value_of(m, "run.slice_ms_p50"), 3.0);
  EXPECT_EQ(value_of(m, "run.slice_ms_tail"), 4.0);  // too few slices: the maximum
  EXPECT_EQ(value_of(m, "run.slice_ns_per_event_tail"), 40000.0);
  EXPECT_NEAR(value_of(m, "bench.trace_overhead"), (3.051 / 2.051) - 1.0, 1e-12);
}

}  // namespace
}  // namespace perfbench
