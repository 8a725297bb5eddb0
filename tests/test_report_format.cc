// The dashboard's number and text formatting: report::put_fixed2 against
// std::snprintf("%.2f") over random values, exact and near ties, the
// chart coordinates of real run lengths and every fallback; and a
// rendered page whose pieces pass the 512-byte format buffer.
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
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "report/dashboard.h"
#include "report/fixed2.h"

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

// One formatted piece longer than the render's 512-byte buffer: every
// '&' of the run name becomes "&amp;" in the <h1> line.
TEST(Dashboard, PiecesLongerThanTheFormatBufferAreWhole) {
  const std::string name = "g" + std::string(130, '&');
  auto sys = graph::run_graph(graph::parse_topology("graph " + name +
                                                    "\n"
                                                    "sessions 20\n"
                                                    "think 100ms\n"
                                                    "duration 2s\n"
                                                    "node front kind=sync threads=8 "
                                                    "work=cpu:200us\n"));
  const std::string page = report::render_dashboard(*sys, graph::analyze_ctqo(*sys),
                                                    graph::correlate(*sys));
  std::string heading = "<h1>ntier-ctqo run: g";
  for (int i = 0; i < 130; ++i) heading += "&amp;";
  heading += "</h1>\n<p class='meta'>seed ";
  EXPECT_NE(page.find(heading), std::string::npos);
}

}  // namespace
}  // namespace ntier
