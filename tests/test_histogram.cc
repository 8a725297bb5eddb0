#include "metrics/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace ntier::metrics {
namespace {

using sim::Duration;

LinearHistogram make() {
  return LinearHistogram(Duration::millis(100), Duration::seconds(30));
}

TEST(Histogram, EmptyState) {
  auto h = make();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.percentile(50), Duration::zero());
  EXPECT_EQ(h.mean(), Duration::zero());
  EXPECT_TRUE(h.modes(1).empty());
}

TEST(Histogram, BinPlacement) {
  auto h = make();
  h.record(Duration::millis(50));    // bin 0
  h.record(Duration::millis(100));   // bin 1 (lower edge inclusive)
  h.record(Duration::millis(199));   // bin 1
  h.record(Duration::millis(250));   // bin 2
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 2u);
  EXPECT_EQ(h.count_in_bin(2), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OverflowSaturates) {
  auto h = make();
  h.record(Duration::seconds(1000));
  EXPECT_EQ(h.count_in_bin(h.bin_count() - 1), 1u);
}

TEST(Histogram, NegativeClampsToZeroBin) {
  auto h = make();
  h.record(Duration::millis(-5));
  EXPECT_EQ(h.count_in_bin(0), 1u);
}

TEST(Histogram, RecordN) {
  auto h = make();
  h.record_n(Duration::millis(10), 7);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.count_in_bin(0), 7u);
  h.record_n(Duration::millis(10), 0);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, PercentilesExact) {
  auto h = make();
  for (int i = 1; i <= 100; ++i) h.record(Duration::millis(i));
  EXPECT_EQ(h.percentile(0).to_millis(), 1.0);
  EXPECT_EQ(h.percentile(100).to_millis(), 100.0);
  EXPECT_NEAR(h.percentile(50).to_millis(), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(99).to_millis(), 99.0, 1.0);
  EXPECT_EQ(h.min().to_millis(), 1.0);
  EXPECT_EQ(h.max().to_millis(), 100.0);
}

TEST(Histogram, PercentileAfterInterleavedInserts) {
  auto h = make();
  h.record(Duration::millis(300));
  EXPECT_EQ(h.percentile(100).to_millis(), 300.0);
  h.record(Duration::millis(100));  // forgets the placed ranks
  EXPECT_EQ(h.percentile(0).to_millis(), 100.0);
}

// Oracle: the value a sorted copy of everything recorded holds at the
// nearest rank of p, for random query orders with repeats, the extremes,
// and record() calls between queries.
TEST(Histogram, PercentileMatchesSortedCopyOracle) {
  std::mt19937_64 rng(20170605);
  const std::vector<double> fixed = {0.0, 100.0, 50.0, 99.0, 99.9, 0.0, 100.0, 50.0};
  for (std::size_t size : {0u, 1u, 2u, 100000u}) {
    auto h = make();
    std::vector<std::int64_t> recorded;
    // A multi-modal sample with many ties: a body near 15 ms and modes at
    // 3/6/9 s, some values negative.
    constexpr std::int64_t kModesUs[] = {0, 3000000, 6000000, 9000000};
    auto record = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        recorded.push_back(kModesUs[rng() % 4] + static_cast<std::int64_t>(rng() % 40000) - 5000);
        h.record(Duration::micros(recorded.back()));
      }
    };
    record(size);
    for (int round = 0; round < 4; ++round) {
      std::vector<std::int64_t> sorted = recorded;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> queries = fixed;
      for (int i = 0; i < 24; ++i)
        queries.push_back(std::uniform_real_distribution<double>(-5.0, 105.0)(rng));
      std::shuffle(queries.begin(), queries.end(), rng);
      for (double p : queries) {
        if (sorted.empty()) {
          EXPECT_EQ(h.percentile(p), Duration::zero());
          continue;
        }
        const double clamped = std::clamp(p, 0.0, 100.0);
        const auto rank = static_cast<std::size_t>(
            clamped / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
        ASSERT_EQ(h.percentile(p).count_micros(), sorted[rank])
            << "size " << sorted.size() << " p " << p << " round " << round;
      }
      EXPECT_EQ(h.min().count_micros(), sorted.empty() ? 0 : sorted.front());
      EXPECT_EQ(h.max().count_micros(), sorted.empty() ? 0 : sorted.back());
      record(1 + rng() % 3);  // new values between query rounds
    }
  }
}

TEST(Histogram, Mean) {
  auto h = make();
  h.record(Duration::millis(100));
  h.record(Duration::millis(300));
  EXPECT_EQ(h.mean().to_millis(), 200.0);
}

TEST(Histogram, CountAtLeast) {
  auto h = make();
  for (int i = 0; i < 10; ++i) h.record(Duration::millis(5));
  h.record(Duration::seconds(3));
  h.record(Duration::seconds(6));
  EXPECT_EQ(h.count_at_least(Duration::seconds(3)), 2u);
  EXPECT_EQ(h.count_at_least(Duration::seconds(7)), 0u);
}

TEST(Histogram, MultiModalDetection) {
  // The Fig 1 pattern: mass near 0, clusters at 3, 6, 9 s.
  auto h = make();
  h.record_n(Duration::millis(5), 10000);
  h.record_n(Duration::millis(3050), 300);
  h.record_n(Duration::millis(6050), 60);
  h.record_n(Duration::millis(9050), 12);
  const auto modes = h.modes(5);
  ASSERT_EQ(modes.size(), 4u);
  EXPECT_NEAR(modes[0].to_seconds(), 0.05, 0.11);
  EXPECT_NEAR(modes[1].to_seconds(), 3.05, 0.2);
  EXPECT_NEAR(modes[2].to_seconds(), 6.05, 0.2);
  EXPECT_NEAR(modes[3].to_seconds(), 9.05, 0.2);
}

TEST(Histogram, ModesRespectThreshold) {
  auto h = make();
  h.record_n(Duration::millis(5), 100);
  h.record_n(Duration::millis(3050), 2);  // below threshold
  EXPECT_EQ(h.modes(5).size(), 1u);
}

TEST(Histogram, TableListsNonEmptyBins) {
  auto h = make();
  h.record_n(Duration::millis(50), 3);
  h.record_n(Duration::millis(3050), 1);
  const std::string t = h.to_table();
  EXPECT_NE(t.find("0.0 100.0 3"), std::string::npos);
  EXPECT_NE(t.find("3000.0 3100.0 1"), std::string::npos);
}

TEST(Histogram, BinEdges) {
  auto h = make();
  EXPECT_EQ(h.bin_lower(0), Duration::zero());
  EXPECT_EQ(h.bin_lower(3), Duration::millis(300));
  EXPECT_EQ(h.bin_width(), Duration::millis(100));
}

}  // namespace
}  // namespace ntier::metrics
