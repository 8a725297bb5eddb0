#include "metrics/timeline.h"

#include <algorithm>
#include <cassert>

#include "sim/format.h"

namespace ntier::metrics {

Timeline::Timeline(std::string name, sim::Duration window)
    : name_(std::move(name)), window_(window) {
  assert(window.count_micros() > 0);
}

void Timeline::ensure(std::size_t i) {
  if (i >= values_.size()) values_.resize(i + 1, 0.0);
}

void Timeline::add(sim::Time t, double value) {
  const auto i = index_of(t);
  ensure(i);
  values_[i] += value;
}

void Timeline::set(sim::Time t, double value) {
  const auto i = index_of(t);
  ensure(i);
  values_[i] = value;
}

void Timeline::max_in(sim::Time t, double value) {
  const auto i = index_of(t);
  ensure(i);
  values_[i] = std::max(values_[i], value);
}

double Timeline::max_value() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, v);
  return m;
}

double Timeline::mean_over(sim::Time from, sim::Time to) const {
  if (to <= from || values_.empty()) return 0.0;
  std::size_t lo = index_of(from);
  std::size_t hi = std::min(index_of(to - sim::Duration::micros(1)) + 1, values_.size());
  if (lo >= hi) return 0.0;
  double acc = 0.0;
  for (std::size_t i = lo; i < hi; ++i) acc += values_[i];
  return acc / static_cast<double>(hi - lo);
}

double Timeline::max_over(sim::Time from, sim::Time to) const {
  if (to <= from || values_.empty()) return 0.0;
  std::size_t lo = index_of(from);
  std::size_t hi = std::min(index_of(to - sim::Duration::micros(1)) + 1, values_.size());
  double m = 0.0;
  for (std::size_t i = lo; i < hi; ++i) m = std::max(m, values_[i]);
  return m;
}

sim::Time Timeline::first_time_at_least(double threshold, sim::Time from, sim::Time to) const {
  std::size_t lo = index_of(from);
  for (std::size_t i = lo; i < values_.size(); ++i) {
    if (window_start(i) >= to) break;
    if (values_[i] >= threshold) return window_start(i);
  }
  return sim::Time::max();
}

std::vector<sim::Time> Timeline::windows_at_least(double threshold) const {
  std::vector<sim::Time> out;
  for (std::size_t i = 0; i < values_.size(); ++i)
    if (values_[i] >= threshold) out.push_back(window_start(i));
  return out;
}

std::string Timeline::to_table(std::size_t step) const {
  if (step == 0) step = 1;
  std::size_t last = values_.size();
  while (last > 0 && values_[last - 1] == 0.0) --last;
  std::string out = "t_s " + name_ + "\n";
  for (std::size_t i = 0; i < last; i += step)
    sim::appendf(out, "%.2f %.3f\n", window_start(i).to_seconds(), values_[i]);
  return out;
}

}  // namespace ntier::metrics
