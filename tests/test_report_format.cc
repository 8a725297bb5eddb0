// Report text formatting: report::put_fixed2 against
// std::snprintf("%.2f") over random values, exact and near ties, the
// chart coordinates of real run lengths and every fallback; names longer
// than any fixed buffer, whole in every text formatter and in a rendered
// page; and the JSON string rules of every manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/metastability.h"
#include "core/report.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "obs/incident_monitor.h"
#include "report/dashboard.h"
#include "report/fixed2.h"
#include "sim/format.h"
#include "sweep/engine.h"

namespace ntier {
namespace {

using report::kFixed2Size;
using report::put_fixed2;

// Counts mismatches against printf and reports the first few; the
// returned end must point at the NUL after exactly printf's text.
class Oracle {
 public:
  void check(double v) {
    ++checked_;
    char want[kFixed2Size];
    const int n = std::snprintf(want, sizeof want, "%.2f", v);
    char got[kFixed2Size];
    const char* end = put_fixed2(got, v);
    if (end - got == n && *end == '\0' && std::strcmp(got, want) == 0) return;
    if (++mismatches_ <= 5)
      ADD_FAILURE() << std::hexfloat << v << std::defaultfloat << ": put_fixed2 wrote '" << got
                    << "' (" << end - got << " chars), printf '" << want << "'";
  }
  // v and its two neighbours on each side.
  void check_around(double v) {
    double lo = v, hi = v;
    check(v);
    for (int k = 0; k < 2; ++k) {
      lo = std::nextafter(lo, -1.0);
      hi = std::nextafter(hi, 2e12);
      if (lo >= 0.0) check(lo);
      check(hi);
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(Fixed2, MatchesPrintfOnUniformDoubles) {
  Oracle o;
  std::mt19937_64 rng(2017);
  for (int i = 0; i < 2'000'000; ++i)
    o.check(std::ldexp(static_cast<double>(rng() >> 11), -53) * 1000.0);
  // Random bit patterns below 1e12: subnormals up to the largest values
  // the fast path takes, where v * 100.0 is off the exact product by up
  // to 2^-7.
  while (o.checked() < 3'000'000) {
    double v;
    const std::uint64_t bits = rng() >> 1;
    std::memcpy(&v, &bits, sizeof v);
    if (v < 1e12) o.check(v);
  }
  EXPECT_EQ(o.mismatches(), 0u);
}

// k/8 for odd k is an exact binary tie (printf rounds it to even); k/200
// is a decimal tie that binary cannot hold, so the double sits just
// above or below it. Both runs also cover the top of the fast path.
TEST(Fixed2, MatchesPrintfOnTies) {
  Oracle o;
  for (std::int64_t k = 0; k < 800'000; ++k) o.check(static_cast<double>(k) / 8.0);
  for (std::int64_t k = 8'000'000'000'000 - 100'000; k < 8'000'000'000'000; ++k)
    o.check(static_cast<double>(k) / 8.0);
  for (std::int64_t k = 0; k < 400'000; ++k) o.check_around(static_cast<double>(k) / 200.0);
  for (const std::int64_t base : {20'000'000'000LL, 200'000'000'000'000LL - 20'000LL})
    for (std::int64_t k = base; k < base + 20'000; ++k)
      o.check_around(static_cast<double>(k) / 200.0);
  EXPECT_EQ(o.mismatches(), 0u);
}

// The chart geometry of src/report/dashboard.cc: 900 wide, margins
// 52/56 left/right and 16/24 top/bottom, 50 ms windows plotted at their
// centres. At 24, 40 and 120 s every x lands on a decimal near-tie (the
// step is 1.65, 0.99 and 0.33 plot units); at 300 s none does.
TEST(Fixed2, MatchesPrintfOnChartCoordinates) {
  constexpr double kW = 900, kML = 52, kMR = 56, kMT = 16, kMB = 24;
  constexpr double kWindow = 0.05;
  Oracle o;
  for (const double duration : {24.0, 40.0, 120.0, 300.0}) {
    const auto windows = static_cast<std::size_t>(duration / kWindow);
    std::size_t near_ties = 0;
    for (std::size_t i = 0; i < windows; ++i) {
      const double t = (static_cast<double>(i) + 0.5) * kWindow;
      const double x = kML + (t / duration) * (kW - kML - kMR);
      const double hundredths = x * 100.0;
      if (std::fabs(hundredths - std::floor(hundredths) - 0.5) < 1e-6) ++near_ties;
      o.check(x);
    }
    EXPECT_EQ(near_ties, duration == 300.0 ? 0 : windows) << duration << " s";
  }
  for (const double h : {130.0, 150.0, 180.0}) {
    const double ph = h - kMT - kMB;
    for (const double ymax : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
                              2000.0, 5000.0}) {
      for (int k = 0; k <= 4000; ++k) {
        const double v = ymax * k / 4000.0 + (k % 7) * 0.001;
        const double f = v / ymax;
        o.check(kMT + (1.0 - std::min(f, 1.0)) * ph);
      }
      for (int n = 0; n <= 2000; ++n) {  // integer counts: queue lengths, drops
        const double f = n / ymax;
        o.check(kMT + (1.0 - std::min(f, 1.0)) * ph);
      }
    }
  }
  EXPECT_EQ(o.mismatches(), 0u);
}

TEST(Fixed2, FallsBackToPrintfOutsideTheFastPath) {
  Oracle o;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {-0.0, -0.001, -0.005, -1.0, -123.456, 1e12, 1e12 + 0.005, 1e13, 1e300,
                         DBL_MAX, -DBL_MAX, inf, -inf, nan, -nan, DBL_TRUE_MIN, DBL_MIN,
                         999999999999.995, std::nextafter(1e12, 0.0)})
    o.check(v);
  EXPECT_EQ(o.mismatches(), 0u);

  char buf[kFixed2Size];
  put_fixed2(buf, -0.0);
  EXPECT_STREQ(buf, "-0.00");  // printf keeps the sign of -0.0
  EXPECT_EQ(put_fixed2(buf, -DBL_MAX) - buf, static_cast<std::ptrdiff_t>(kFixed2Size - 1));
}

// A 2 s run of one sync node that keeps its single vCPU saturated.
std::unique_ptr<graph::GraphSystem> one_node_run(const std::string& graph_name,
                                                 const std::string& node, bool obs = false) {
  graph::GraphConfig cfg = graph::parse_topology("sessions 20\n"
                                                 "think 100ms\n"
                                                 "duration 2s\n"
                                                 "node " +
                                                 node + " kind=sync threads=8 work=cpu:10ms\n");
  cfg.name = graph_name;
  cfg.obs.enabled = obs;
  return graph::run_graph(cfg);
}

// One formatted piece longer than the render's 512-byte buffer: every
// '&' of the run name becomes "&amp;" in the <h1> line.
TEST(Dashboard, PiecesLongerThanTheFormatBufferAreWhole) {
  auto sys = one_node_run("g" + std::string(130, '&'), "front");
  const std::string page = report::render_dashboard(*sys, graph::analyze_ctqo(*sys),
                                                    graph::correlate(*sys));
  std::string heading = "<h1>ntier-ctqo run: g";
  for (int i = 0; i < 130; ++i) heading += "&amp;";
  heading += "</h1>\n<p class='meta'>seed ";
  EXPECT_NE(page.find(heading), std::string::npos);
}

// Topology names have no length limit, and a downstream site joins two
// of them; each formatter below once cut such a name at its buffer.
const std::string kLong = "svc-" + std::string(296, 'a');
const std::string kOther = "svc-" + std::string(296, 'b');

TEST(LongNames, CriticalPathKeepsEverySite) {
  trace::CriticalPath cp;
  cp.request_id = 7;
  cp.total = sim::Duration::millis(10);
  cp.items = {{trace::SpanKind::kService, kLong, sim::Duration::millis(6), 0.6},
              {trace::SpanKind::kRtoGap, "web->db", sim::Duration::millis(3), 0.3},
              {trace::SpanKind::kDisk, kOther, sim::Duration::millis(1), 0.1}};
  EXPECT_EQ(cp.to_string(), "request 7, latency 10.0 ms: 6.0 ms service at " + kLong +
                                " (60.0%), 3.0 ms rto_gap at web->db (30.0%), 1.0 ms disk at " +
                                kOther + " (10.0%)");
}

TEST(LongNames, CtqoEpisodeKeepsBothTiers) {
  core::CtqoEpisode e;
  e.start = sim::Time::origin() + sim::Duration::seconds(1);
  e.end = sim::Time::origin() + sim::Duration::seconds(2);
  e.drops = 5;
  e.drop_tier_name = kLong;
  e.bottleneck_found = true;
  e.bottleneck_name = kOther;
  e.bottleneck_at = sim::Time::origin() + sim::Duration::millis(1500);
  e.kind = core::CtqoEpisode::Kind::kUpstream;
  EXPECT_EQ(e.to_string(), "[   1.00s -    2.00s] 5 drops at " + kLong +
                               "; millibottleneck at " + kOther + " (1.50s) -> upstream CTQO");
}

TEST(LongNames, VlrtAttributionRowKeepsTheDominantSite) {
  core::VlrtAttributionRow row;
  row.request_id = 7;
  row.latency = sim::Duration::millis(3200);
  row.dominant = {trace::SpanKind::kRtoGap, kLong, sim::Duration::millis(3000), 0.9375};
  row.rto_time = sim::Duration::millis(3000);
  row.rto_share = 0.9375;
  row.drop_tier = "db";
  row.episode = 0;
  EXPECT_EQ(row.to_string(), "req        7     3200.0 ms  dominant rto_gap at " + kLong +
                                 " 3000.0 ms (93.8%)  rto 3000.0 ms (93.8%)  drop tier db "
                                 "(episode 0)");
}

TEST(LongNames, RecoveryVerdictKeepsTierNames) {
  core::TierRecovery t;
  t.name = kLong;
  t.recovered = true;
  t.recovered_at = sim::Time::origin() + sim::Duration::millis(12500);
  t.pre_queue_peak = 10.0;
  t.post_queue_peak = 20.0;
  t.amplification = 1.5;
  const std::string tier_line = "  " + kLong +
                                " recovered at t=12.50s  (pre peak 10.0, post peak 20.0, "
                                "amplification 1.50x)";
  EXPECT_EQ(t.to_string(), tier_line);
  core::TierRecovery stuck = t;
  stuck.recovered = false;
  EXPECT_EQ(stuck.to_string(), "  " + kLong +
                                   " NOT recovered        (pre peak 10.0, post peak 20.0, "
                                   "amplification 1.50x)");

  core::MetastabilityVerdict v;
  v.regime = core::Regime::kRecovered;
  v.tiers = {t};
  v.time_to_recovery = sim::Duration::millis(2500);
  v.storm_amplification = 1.5;
  v.worst_tier = kLong;
  EXPECT_EQ(v.to_string(), "verdict: RECOVERED  time-to-recovery 2.50s  amplification 1.50x "
                           "(slowest tier: " +
                               kLong + ")\n" + tier_line);
}

TEST(LongNames, RunSummaryAndBannerKeepTheRunName) {
  core::ExperimentSummary s;
  s.name = kLong;
  s.throughput_rps = 100.0;
  s.duration_s = 60.0;
  s.highest_mean_util_pct = 50.0;
  s.total_drops = 3;
  const std::string text = s.to_string();
  EXPECT_TRUE(text.starts_with(kLong + ": 100.0 req/s over 60s, highest avg CPU 50%, drops=3, "
                                       "failed=0\n  latency: " +
                               s.latency.to_string() + "\n"))
      << text;

  core::ExperimentConfig cfg;
  cfg.name = kLong + kOther;  // longer than the banner's 512 bytes on its own
  const std::string banner = core::config_banner(cfg);
  EXPECT_TRUE(banner.starts_with("=== " + cfg.name + " ===\narch=")) << banner;
  EXPECT_TRUE(banner.ends_with(", backlog=128, db_pool=50\n")) << banner;
}

TEST(LongNames, GridPointLabelKeepsAxisNames) {
  const std::vector<sweep::Axis> axes = {{kLong, {1.5}}, {"nx", {3}}};
  EXPECT_EQ((sweep::GridPoint{0, {1.5, 3}}.label(axes)), kLong + "=1.5 nx=3");
}

TEST(LongNames, IncidentLinesKeepTheDetectorName) {
  auto sys = one_node_run("long-incident", kLong, /*obs=*/true);
  const obs::IncidentMonitor* om = sys->obs();
  ASSERT_NE(om, nullptr);
  ASSERT_FALSE(om->incidents().empty());
  const std::string text = om->to_string();
  const std::string head = "  [critical] sat:" + kLong + ".demand (" +
                           obs::to_string(obs::DetectorKind::kThreshold) + ") fired ";
  const std::size_t at = text.find(head);
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  EXPECT_NE(line.find(" peak "), std::string::npos) << line;
}

// The manifests' string rule is chrome_trace_json's: `"`, `\`, newline
// and tab escaped, every other byte below 0x20 as \u00XX.
TEST(JsonStrings, EscapeQuotesBackslashesAndControlBytes) {
  std::string out;
  sim::append_json_string(out, std::string("q\"b\\n\nt\tz\0c\x01\x1f\x7f\x80", 15));
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\nt\\tz\\u0000c\\u0001\\u001f\x7f\x80\"");
}

TEST(JsonStrings, ManifestsEscapeControlBytesInNames) {
  const std::string name = "a\tb\x01";
  auto sys = one_node_run(name, "front");
  EXPECT_NE(core::run_manifest_json(*sys).find("\"name\": \"a\\tb\\u0001\""), std::string::npos);

  sweep::SweepResult r;
  r.axes = {{name, {1}}};
  EXPECT_NE(r.manifest_json().find("{\"name\": \"a\\tb\\u0001\", \"values\": [1]}"),
            std::string::npos);
}

}  // namespace
}  // namespace ntier
