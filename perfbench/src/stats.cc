#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double sum_of_fastest_parts(const std::vector<std::vector<double>>& rows) {
  std::size_t n = 0;
  for (const auto& r : rows) n = std::max(n, r.size());
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  bool any = false;
  for (const auto& r : rows) {
    if (r.size() != n) continue;
    any = true;
    for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], r[i]);
  }
  double sum = 0.0;
  for (double b : best) sum += b;
  return any ? sum : 0.0;
}

Tail tail_percentile(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

EngineReplayParams little_law(double pending_mean, double sim_seconds, double events) {
  EngineReplayParams p;
  p.timers = static_cast<std::size_t>(std::max(1.0, std::round(pending_mean)));
  const double lambda = ratio(events, sim_seconds);  // events per simulated second
  p.mean_delay_us = std::max(1.0, ratio(pending_mean, lambda) * 1e6);
  return p;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
