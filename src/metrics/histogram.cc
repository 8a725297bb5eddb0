#include "metrics/histogram.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

#include "metrics/rank_select.h"
#include "sim/format.h"

namespace ntier::metrics {

LinearHistogram::LinearHistogram(sim::Duration bin_width, sim::Duration max_value)
    : bin_width_(bin_width) {
  assert(bin_width.count_micros() > 0);
  assert(max_value >= bin_width);
  const auto n = static_cast<std::size_t>(
      (max_value.count_micros() + bin_width.count_micros() - 1) / bin_width.count_micros());
  bins_.assign(n + 1, 0);  // +1 saturating overflow bin
}

void LinearHistogram::record(sim::Duration value) { record_n(value, 1); }

void LinearHistogram::record_n(sim::Duration value, std::uint64_t n) {
  if (n == 0) return;
  auto idx = static_cast<std::size_t>(
      std::max<std::int64_t>(0, value.count_micros()) / bin_width_.count_micros());
  if (idx >= bins_.size()) idx = bins_.size() - 1;
  bins_[idx] += n;
  for (std::uint64_t i = 0; i < n; ++i) raw_us_.push_back(value.count_micros());
  placed_.clear();
  total_ += n;
  sum_us_ += static_cast<std::int64_t>(n) * value.count_micros();
}

sim::Duration LinearHistogram::percentile(double p) const {
  if (raw_us_.empty()) return sim::Duration::zero();
  return sim::Duration::micros(
      select_rank(raw_us_, placed_, percentile_rank(p, raw_us_.size())));
}

sim::Duration LinearHistogram::min() const { return percentile(0.0); }
sim::Duration LinearHistogram::max() const { return percentile(100.0); }

sim::Duration LinearHistogram::mean() const {
  if (total_ == 0) return sim::Duration::zero();
  return sim::Duration::micros(sum_us_ / static_cast<std::int64_t>(total_));
}

std::uint64_t LinearHistogram::count_at_least(sim::Duration threshold) const {
  std::uint64_t n = 0;
  for (auto v : raw_us_)
    if (v >= threshold.count_micros()) ++n;
  return n;
}

std::vector<sim::Duration> LinearHistogram::modes(std::uint64_t min_count) const {
  // Contiguous regions of bins with count >= min_count form clusters;
  // each cluster's peak bin is a mode. Picks out the paper's RTO modes
  // (0/3/6/9 s) cleanly because the inter-mode bins are near-empty.
  const std::size_t n = bins_.size();
  std::vector<sim::Duration> out;
  std::size_t i = 0;
  while (i < n) {
    if (bins_[i] < min_count) { ++i; continue; }
    std::size_t best = i;
    std::size_t j = i;
    while (j < n && bins_[j] >= min_count) {
      if (bins_[j] > bins_[best]) best = j;
      ++j;
    }
    out.push_back(bin_lower(best) + bin_width_ / 2);
    i = j;
  }
  return out;
}

std::string LinearHistogram::to_table() const {
  std::string out = "lower_ms upper_ms count\n";
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    sim::appendf(out, "%.1f %.1f %" PRIu64 "\n", bin_lower(i).to_millis(),
                 (bin_lower(i) + bin_width_).to_millis(), bins_[i]);
  }
  return out;
}

}  // namespace ntier::metrics
