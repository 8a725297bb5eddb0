// Per-window latency quantiles: the "p99 over time" view that makes
// millibottlenecks visible as latency spikes even when no packet drops.
//
// Samples are buffered per window and reduced when the window closes
// (exact quantiles per window, each rank placed by select_rank rather
// than a sort; memory is bounded by one window's completions).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/timeline.h"
#include "sim/time.h"

namespace ntier::metrics {

class QuantileTimeline {
 public:
  // `quantiles` in (0,100], e.g. {50, 99}. One Timeline per quantile.
  QuantileTimeline(std::vector<double> quantiles, sim::Duration window);

  void record(sim::Time at, sim::Duration value);

  // Finalizes any open window (call once after the run). Idempotent.
  void flush();

  // True when no window is open, i.e. the series are safe to read.
  bool flushed() const { return !open_; }

  // Timeline of quantile q (must be one of the configured values); values
  // are milliseconds. Contract: call flush() first — a debug build
  // asserts on a pre-flush read, which would silently drop the final
  // partial window.
  const Timeline& series(double q) const;
  const std::vector<double>& quantiles() const { return qs_; }

 private:
  void close_window();
  std::size_t window_index(sim::Time t) const {
    return static_cast<std::size_t>(t.count_micros() / window_.count_micros());
  }

  std::vector<double> qs_;
  sim::Duration window_;
  std::vector<Timeline> lines_;
  std::vector<std::int64_t> buffer_us_;
  std::vector<std::size_t> placed_;  // select_rank's placed ranks in buffer_us_
  std::size_t current_window_ = 0;
  bool open_ = false;
};

}  // namespace ntier::metrics
