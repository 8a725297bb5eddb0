#include "metrics/quantile_timeline.h"

#include <cassert>
#include <stdexcept>

#include "metrics/rank_select.h"
#include "sim/format.h"

namespace ntier::metrics {

QuantileTimeline::QuantileTimeline(std::vector<double> quantiles, sim::Duration window)
    : qs_(std::move(quantiles)), window_(window) {
  assert(!qs_.empty());
  for (double q : qs_) {
    assert(q > 0.0 && q <= 100.0);
    std::string name;
    sim::appendf(name, "p%g_ms", q);
    lines_.emplace_back(std::move(name), window_);
  }
}

void QuantileTimeline::record(sim::Time at, sim::Duration value) {
  const std::size_t w = window_index(at);
  if (open_ && w != current_window_) close_window();
  if (!open_) {
    current_window_ = w;
    open_ = true;
  }
  // Out-of-order samples from an earlier window fold into the current
  // one; completions are near-ordered so the distortion is negligible.
  buffer_us_.push_back(value.count_micros());
}

void QuantileTimeline::close_window() {
  if (!open_ || buffer_us_.empty()) {
    buffer_us_.clear();
    open_ = false;
    return;
  }
  const sim::Time wstart =
      sim::Time::origin() + window_ * static_cast<std::int64_t>(current_window_);
  for (std::size_t i = 0; i < qs_.size(); ++i) {
    const std::size_t rank = percentile_rank(qs_[i], buffer_us_.size());
    lines_[i].set(wstart,
                  static_cast<double>(select_rank(buffer_us_, placed_, rank)) / 1000.0);
  }
  buffer_us_.clear();
  placed_.clear();
  open_ = false;
}

void QuantileTimeline::flush() { close_window(); }

const Timeline& QuantileTimeline::series(double q) const {
  // Reading with a window still open means the caller forgot flush():
  // the final partial window would silently be missing from the series
  // (the PR-3 API change every caller was audited against).
  assert(!open_ && "QuantileTimeline::series() read before flush()");
  for (std::size_t i = 0; i < qs_.size(); ++i)
    if (qs_[i] == q) return lines_[i];
  throw std::out_of_range("QuantileTimeline: quantile not configured");
}

}  // namespace ntier::metrics
