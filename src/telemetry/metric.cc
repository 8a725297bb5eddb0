#include "telemetry/metric.h"

#include <algorithm>
#include <cmath>

namespace ntier::telemetry {

GkQuantile::GkQuantile(double eps) : eps_(eps), merged_eps_(eps) {
  if (eps_ <= 0.0 || eps_ >= 1.0) {
    eps_ = 0.005;
    merged_eps_ = eps_;
  }
}

void GkQuantile::record(double x) {
  // Insert a new tuple (x, 1, delta) keeping tuples_ sorted by value.
  auto it = std::upper_bound(tuples_.begin(), tuples_.end(), x,
                             [](double a, const Tuple& t) { return a < t.v; });
  std::uint64_t delta = 0;
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insert: inherit the local uncertainty bound floor(2*eps*n).
    const double band = 2.0 * eps_ * static_cast<double>(count_);
    delta = band > 1.0 ? static_cast<std::uint64_t>(band) - 1 : 0;
  }
  tuples_.insert(it, Tuple{x, 1, delta});
  ++count_;
  if (++since_compress_ >= static_cast<std::uint64_t>(1.0 / (2.0 * eps_)) + 1) {
    compress();
    since_compress_ = 0;
  }
}

void GkQuantile::compress() {
  if (tuples_.size() < 3) return;
  const double band = 2.0 * eps_ * static_cast<double>(count_);
  const std::uint64_t cap = band > 0.0 ? static_cast<std::uint64_t>(band) : 0;
  // Merge tuple i into its right neighbor when the combined coverage
  // stays within the uncertainty budget. Never touch the extremes: they
  // pin the min/max exactly. Compacts in place: the kept tuples slide
  // down to `kept`, which never passes i, so the fold still reads every
  // tuple (and its right neighbour) before anything overwrites it.
  std::size_t kept = 1;
  for (std::size_t i = 1; i + 1 < tuples_.size(); ++i) {
    const Tuple& t = tuples_[i];
    const Tuple& next = tuples_[i + 1];
    if (t.g + next.g + next.delta <= cap) {
      // Fold t into next by carrying its coverage forward.
      tuples_[i + 1].g += t.g;
    } else {
      tuples_[kept++] = t;
    }
  }
  tuples_[kept++] = tuples_.back();
  tuples_.resize(kept);
}

double GkQuantile::quantile(double q) const {
  if (tuples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Canonical GK query: answer with the predecessor of the first tuple
  // whose max-rank overshoots the target by more than the slack.
  const double target = q * static_cast<double>(count_);
  const double slack = std::max(1.0, merged_eps_ * static_cast<double>(count_));
  std::uint64_t min_rank = 0;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    min_rank += tuples_[i].g;
    if (static_cast<double>(min_rank + tuples_[i].delta) > target + slack)
      return i == 0 ? tuples_.front().v : tuples_[i - 1].v;
  }
  return tuples_.back().v;
}

void GkQuantile::merge(const GkQuantile& other) {
  if (other.tuples_.empty()) return;
  if (tuples_.empty()) {
    *this = other;
    return;
  }
  // Merge-sort the tuple lists; g and delta carry over unchanged (the
  // classic mergeable-summary construction: rank intervals add).
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(), other.tuples_.end(),
             std::back_inserter(merged),
             [](const Tuple& a, const Tuple& b) { return a.v < b.v; });
  tuples_ = std::move(merged);
  count_ += other.count_;
  merged_eps_ += other.merged_eps_;
  compress();
}

}  // namespace ntier::telemetry
