// Tests of the per-request tracing layer: span-tree well-formedness,
// RTO-gap attribution, critical-path exactness, sampling modes, and the
// determinism / non-perturbation guarantees (DESIGN.md invariant 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;
using trace::RequestTrace;
using trace::SpanKind;

// --- RequestTrace / Tracer unit behavior -----------------------------------

TEST(RequestTrace, IdsAreAllocationOrderAndCloseIsIdempotent) {
  RequestTrace t(7);
  const auto root = t.open(SpanKind::kRequest, "client", trace::kNoSpan,
                           Time::from_seconds(0.0));
  const auto hop =
      t.open(SpanKind::kHop, "apache", root, Time::from_seconds(0.001));
  EXPECT_EQ(root, 0u);
  EXPECT_EQ(hop, 1u);
  EXPECT_EQ(t.spans()[hop].parent, root);
  t.close(hop, Time::from_seconds(0.005));
  t.close(hop, Time::from_seconds(9.0));  // ignored: already closed
  EXPECT_EQ(t.spans()[hop].end, Time::from_seconds(0.005));
  t.close(root, Time::from_seconds(0.006));
  EXPECT_EQ(t.total(), Duration::millis(6));
  const auto drop = t.instant(SpanKind::kDrop, "mysql", hop,
                              Time::from_seconds(0.002), /*detail=*/0);
  EXPECT_TRUE(t.spans()[drop].closed());
  EXPECT_EQ(t.spans()[drop].duration(), Duration::zero());
}

TEST(Tracer, OffModeTracesNothing) {
  trace::Tracer tracer({.mode = trace::TraceMode::kOff});
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin(1), nullptr);
  EXPECT_EQ(tracer.begun(), 0u);
}

TEST(Tracer, SampledModeIsDeterministicOneInN) {
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kSampled;
  cfg.sample_every_n = 10;
  trace::Tracer tracer(cfg);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const auto t = tracer.begin(id);
    EXPECT_EQ(t != nullptr, id % 10 == 1) << "id " << id;
  }
  EXPECT_EQ(tracer.begun(), 4u);
}

TEST(Tracer, MaxTracesCapDropsButCounts) {
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kAll;
  cfg.max_traces = 2;
  trace::Tracer tracer(cfg);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto t = tracer.begin(id);
    ASSERT_NE(t, nullptr);
    t->open(SpanKind::kRequest, "client", trace::kNoSpan, Time::from_seconds(0));
    t->close(0, Time::from_seconds(1));
    tracer.finish(t, Duration::seconds(1));
  }
  EXPECT_EQ(tracer.retained(), 2u);
  EXPECT_EQ(tracer.dropped_by_cap(), 3u);
}

TEST(CriticalPath, ChargesEveryMicrosecondExactlyOnce) {
  RequestTrace t(1);
  const auto root =
      t.open(SpanKind::kRequest, "client", trace::kNoSpan, Time::from_micros(0));
  const auto hop = t.open(SpanKind::kHop, "apache", root, Time::from_micros(10));
  t.add(SpanKind::kService, "apache", hop, Time::from_micros(20),
        Time::from_micros(50));
  // Overlapping sibling (hedge-style): overlap is charged to the earlier
  // span, the later one takes over after it ends.
  t.add(SpanKind::kDisk, "apache", hop, Time::from_micros(40),
        Time::from_micros(70));
  t.close(hop, Time::from_micros(90));
  t.close(root, Time::from_micros(100));

  const auto cp = trace::critical_path(t);
  EXPECT_EQ(cp.total, Duration::micros(100));
  Duration sum = Duration::zero();
  for (const auto& item : cp.items) sum = sum + item.time;
  EXPECT_EQ(sum, cp.total);  // exact, not approximate
  EXPECT_EQ(cp.by_kind(SpanKind::kService), Duration::micros(30));  // 20..50
  EXPECT_EQ(cp.by_kind(SpanKind::kDisk), Duration::micros(20));     // 50..70
  EXPECT_EQ(cp.by_kind(SpanKind::kHop),
            Duration::micros(10 + 20));  // 10..20 and 70..90
  EXPECT_EQ(cp.by_kind(SpanKind::kRequest),
            Duration::micros(10 + 10));  // 0..10 and 90..100
}

// --- full-system runs -------------------------------------------------------

// Fig 3 consolidation scenario cut to one burst + recovery: still drives
// CTQO at the web tier (drops, RTO gaps, VLRTs) but runs in ~1 s.
core::ExperimentConfig traced_fig3(trace::TraceMode mode) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.duration = Duration::seconds(12);
  cfg.trace.mode = mode;
  return cfg;
}

// One shared kAll run for the read-only assertions below.
core::NTierSystem& all_run() {
  static const std::unique_ptr<core::NTierSystem> sys =
      core::run_system(traced_fig3(trace::TraceMode::kAll));
  return *sys;
}

TEST(TraceSystem, SpanTreesAreWellFormedAcrossThreeTiers) {
  const auto& sys = all_run();
  ASSERT_NE(sys.tracer(), nullptr);
  ASSERT_GT(sys.tracer()->retained(), 0u);
  bool saw_three_tier_chain = false;
  for (const auto& t : sys.tracer()->traces()) {
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->empty());
    const auto& spans = t->spans();
    EXPECT_EQ(spans.front().kind, SpanKind::kRequest);
    EXPECT_EQ(spans.front().parent, trace::kNoSpan);
    EXPECT_TRUE(spans.front().closed());  // finished requests only
    std::set<std::string> hops;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      EXPECT_EQ(s.id, i);
      if (i == 0) continue;
      ASSERT_LT(s.parent, i) << "parents precede children";
      EXPECT_GE(s.begin, spans.front().begin);
      if (s.closed()) {
        EXPECT_GE(s.end, s.begin);
      }
      if (s.kind == SpanKind::kHop) hops.insert(s.site);
    }
    if (hops.count("apache") && hops.count("tomcat") && hops.count("mysql"))
      saw_three_tier_chain = true;
  }
  EXPECT_TRUE(saw_three_tier_chain);
}

TEST(TraceSystem, RtoGapSpansMatchTheRetransmissionSpacing) {
  const auto& sys = all_run();
  // fig 3 uses the paper's fixed 3 s retransmission spacing, so every
  // recorded RTO gap must be exactly one 3 s wait, numbered from 1.
  std::size_t gaps = 0;
  for (const auto& t : sys.tracer()->traces()) {
    for (const auto& s : t->spans()) {
      if (s.kind != SpanKind::kRtoGap) continue;
      ++gaps;
      EXPECT_EQ(s.duration(), Duration::seconds(3));
      EXPECT_GE(s.detail, 1);  // retransmission attempt number
    }
  }
  EXPECT_GT(gaps, 0u) << "the consolidation burst must cause drops";
}

TEST(TraceSystem, CriticalPathSumEqualsEndToEndLatency) {
  const auto& sys = all_run();
  for (const auto& t : sys.tracer()->traces()) {
    const auto cp = trace::critical_path(*t);
    EXPECT_EQ(cp.total, t->total());
    Duration sum = Duration::zero();
    for (const auto& item : cp.items) sum = sum + item.time;
    EXPECT_EQ(sum, cp.total) << "request " << t->request_id();
  }
}

TEST(TraceSystem, VlrtAttributionNamesTheDropTier) {
  auto& sys = all_run();
  const auto report = core::analyze_ctqo(sys);
  const auto table = core::attribute_vlrt(sys.tracer()->traces(), report);
  ASSERT_FALSE(table.rows.empty());
  for (const auto& row : table.rows) {
    EXPECT_GE(row.latency, Duration::seconds(3));
    // The paper's signature: a VLRT is retransmission wait, not work.
    EXPECT_EQ(row.dominant.kind, SpanKind::kRtoGap);
    EXPECT_GE(row.rto_share, 0.9);
    EXPECT_FALSE(row.drop_tier.empty());
  }
}

TEST(TraceSystem, VlrtOnlySamplingKeepsNonVlrtOut) {
  const auto sys = core::run_system(traced_fig3(trace::TraceMode::kVlrtOnly));
  ASSERT_NE(sys->tracer(), nullptr);
  const auto& tracer = *sys->tracer();
  ASSERT_GT(tracer.retained(), 0u);
  for (const auto& t : tracer.traces())
    EXPECT_GE(t->total(), tracer.config().vlrt_threshold);
  // Most traffic is sub-second; tail sampling must discard it.
  EXPECT_GT(tracer.discarded(), 0u);
  EXPECT_LT(tracer.retained(), tracer.begun());
}

TEST(TraceSystem, SameSeedRunsEmitByteIdenticalExports) {
  const auto a = core::run_system(traced_fig3(trace::TraceMode::kVlrtOnly));
  const auto b = core::run_system(traced_fig3(trace::TraceMode::kVlrtOnly));
  EXPECT_EQ(trace::chrome_trace_json(a->tracer()->traces()),
            trace::chrome_trace_json(b->tracer()->traces()));
  EXPECT_EQ(trace::spans_csv(a->tracer()->traces()),
            trace::spans_csv(b->tracer()->traces()));
}

// Topology names have no length limit: two 250-character nodes make a
// downstream site of 502 characters, and its records pass the exporters'
// 512-byte format buffer.
TEST(TraceSystem, ExportsKeepRecordsLongerThanTheFormatBuffer) {
  const std::string a(250, 'a'), b(250, 'b');
  graph::GraphConfig cfg = graph::parse_topology("graph long_names\n"
                                                 "sessions 4\n"
                                                 "think 100ms\n"
                                                 "duration 1s\n"
                                                 "node " + a + " kind=sync threads=4 "
                                                 "work=cpu:100us,down,cpu:100us\n"
                                                 "node " + b + " kind=sync threads=4 "
                                                 "work=cpu:100us\n"
                                                 "edge " + a + " " + b + "\n");
  cfg.trace.mode = trace::TraceMode::kAll;
  const auto sys = graph::run_graph(cfg);
  ASSERT_GT(sys->tracer()->retained(), 0u);

  const std::string json = trace::chrome_trace_json(sys->tracer()->traces());
  const std::string site = a + "->" + b;
  EXPECT_NE(json.find("{\"name\":\"downstream " + site + "\",\"cat\":\"downstream\""),
            std::string::npos);
  // Every record sits on its own line and ends with "}}", before the comma
  // that opens the next one.
  std::size_t records = 0;
  for (std::size_t at = json.find("\n{"); at != std::string::npos;
       at = json.find("\n{", at + 1)) {
    std::size_t end = json.find('\n', at + 1);
    ASSERT_NE(end, std::string::npos);
    if (json[end - 1] == ',') --end;
    EXPECT_EQ(json.compare(end - 2, 2, "}}"), 0) << "..." << json.substr(end - 40, 40);
    ++records;
  }
  EXPECT_GT(records, 0u);

  const std::string csv = trace::spans_csv(sys->tracer()->traces());
  EXPECT_NE(csv.find(",downstream," + site + ","), std::string::npos);
  std::size_t rows = 0;
  for (std::size_t at = csv.find('\n') + 1; at < csv.size(); ++rows) {
    const std::size_t eol = csv.find('\n', at);
    ASSERT_NE(eol, std::string::npos);
    const std::string row = csv.substr(at, eol - at);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 9) << row;
    at = eol + 1;
  }
  EXPECT_GT(rows, 0u);
}

TEST(TraceSystem, TracingDoesNotPerturbTheSimulation) {
  auto off = traced_fig3(trace::TraceMode::kOff);
  auto sys_off = core::run_system(off);
  auto& sys_all = all_run();  // same config, tracing on
  // Tracing schedules no events and draws no randomness, so every
  // latency artifact must be identical with it on or off.
  EXPECT_EQ(sys_off->latency().completed(), sys_all.latency().completed());
  EXPECT_EQ(sys_off->latency().vlrt_count(), sys_all.latency().vlrt_count());
  EXPECT_EQ(sys_off->latency().dropped_request_count(),
            sys_all.latency().dropped_request_count());
  EXPECT_EQ(core::summarize(*sys_off).to_string(),
            core::summarize(sys_all).to_string());
}

}  // namespace
}  // namespace ntier
