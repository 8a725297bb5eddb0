// Fixed-window time series — the substrate for every timeline plot in the
// paper (CPU util, queued requests, and VLRT counts per 50 ms window).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ntier::metrics {

// A series of double samples over equal windows starting at origin.
class Timeline {
 public:
  Timeline(std::string name, sim::Duration window);

  const std::string& name() const { return name_; }
  sim::Duration window() const { return window_; }

  // Adds `value` into the window containing `t` (sum aggregation).
  void add(sim::Time t, double value);
  // Overwrites the window containing `t` (gauge semantics).
  void set(sim::Time t, double value);
  // Record max within the window containing `t`.
  void max_in(sim::Time t, double value);

  std::size_t window_count() const { return values_.size(); }
  // Every recorded window's value, window 0 first (window_count() long).
  const std::vector<double>& values() const { return values_; }
  double value_at(std::size_t i) const { return i < values_.size() ? values_[i] : 0.0; }
  double value_at_time(sim::Time t) const { return value_at(index_of(t)); }
  sim::Time window_start(std::size_t i) const {
    return sim::Time::origin() + window_ * static_cast<std::int64_t>(i);
  }

  double max_value() const;
  double mean_over(sim::Time from, sim::Time to) const;
  // Max value over windows intersecting [from, to); 0 when empty.
  double max_over(sim::Time from, sim::Time to) const;
  // Earliest window start in [from, to) whose value >= threshold, or
  // Time::max() if none — used by the CTQO analyzer to order queue growth
  // across tiers.
  sim::Time first_time_at_least(double threshold, sim::Time from, sim::Time to) const;
  // All window starts with value >= threshold (e.g. millibottleneck marks).
  std::vector<sim::Time> windows_at_least(double threshold) const;

  // "t_s value" rows, skipping trailing zeros; step > 1 downsamples.
  std::string to_table(std::size_t step = 1) const;

 private:
  std::size_t index_of(sim::Time t) const {
    return static_cast<std::size_t>(t.count_micros() / window_.count_micros());
  }
  void ensure(std::size_t i);

  std::string name_;
  sim::Duration window_;
  std::vector<double> values_;
};

}  // namespace ntier::metrics
