// Latency histograms for the Fig 1-style multi-modal analysis.
//
// Two shapes are needed by the paper's artifacts:
//  * LinearHistogram — fixed-width bins over [0, max), used for the
//    "frequency by response time" semi-log plots (Fig 1, 100 ms bins).
//  * Recorded percentiles/modes on the same data. Percentiles are exact:
//    the raw sample is kept and each queried rank is placed by
//    metrics::select_rank (an incremental quickselect, no sort and no
//    copy); record() forgets the placed ranks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ntier::metrics {

class LinearHistogram {
 public:
  // bin_width > 0; values >= max_value land in a saturating last bin.
  LinearHistogram(sim::Duration bin_width, sim::Duration max_value);

  void record(sim::Duration value);
  void record_n(sim::Duration value, std::uint64_t n);

  std::uint64_t total() const { return total_; }
  std::uint64_t count_in_bin(std::size_t i) const { return bins_.at(i); }
  std::size_t bin_count() const { return bins_.size(); }
  sim::Duration bin_width() const { return bin_width_; }
  // Lower edge of bin i.
  sim::Duration bin_lower(std::size_t i) const { return bin_width_ * static_cast<std::int64_t>(i); }

  // Exact quantile over the recorded sample: the raw value at the nearest
  // rank of p in [0, 100] as a sorted copy would hold it. Reorders the raw
  // list in place (see select_rank), so the first query after record()
  // costs one linear pass and later ones only their bracket.
  sim::Duration percentile(double p) const;
  sim::Duration min() const;
  sim::Duration max() const;
  sim::Duration mean() const;

  // Count of samples with value >= threshold (e.g. VLRT >= 3 s).
  std::uint64_t count_at_least(sim::Duration threshold) const;

  // Local maxima of the smoothed bin counts whose height is at least
  // `min_count`. Returns the bin-center durations, ascending. This is how
  // tests and benches verify the 0/3/6/9 s modes of Fig 1.
  std::vector<sim::Duration> modes(std::uint64_t min_count) const;

  // One line per non-empty bin: "lower_ms upper_ms count". Matches the
  // series of the paper's Fig 1 frequency plots.
  std::string to_table() const;

 private:
  sim::Duration bin_width_;
  std::vector<std::uint64_t> bins_;
  // Raw sample for exact percentiles; percentile() permutes it and keeps
  // the ranks it has placed (ascending) in placed_.
  mutable std::vector<std::int64_t> raw_us_;
  mutable std::vector<std::size_t> placed_;
  std::uint64_t total_ = 0;
  std::int64_t sum_us_ = 0;
};

}  // namespace ntier::metrics
