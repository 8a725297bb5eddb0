#include "metrics/summary.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "sim/format.h"

namespace ntier::metrics {

void Running::add(double x) {
  ++n_;
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double Running::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Running::stddev() const { return std::sqrt(variance()); }

void DispersionIndex::add_arrival(sim::Time t) {
  if (has_last_) inter_.add((t - last_).to_seconds());
  last_ = t;
  has_last_ = true;
}

double DispersionIndex::scv() const {
  const double m = inter_.mean();
  if (m <= 0.0) return 0.0;
  return inter_.variance() / (m * m);
}

std::string LatencyDigest::to_string() const {
  std::string out;
  sim::appendf(out,
               "n=%" PRIu64 " mean=%.1fms p50=%.1fms p99=%.1fms p99.9=%.1fms max=%.1fms"
               " vlrt=%" PRIu64,
               count, mean.to_millis(), p50.to_millis(), p99.to_millis(), p999.to_millis(),
               max.to_millis(), vlrt_count);
  return out;
}

}  // namespace ntier::metrics
