#include "metrics/rank_select.h"

#include <algorithm>
#include <cassert>

namespace ntier::metrics {

std::size_t percentile_rank(double p, std::size_t n) {
  assert(n > 0);
  const double clamped = std::clamp(p, 0.0, 100.0);
  return static_cast<std::size_t>(clamped / 100.0 * static_cast<double>(n - 1) + 0.5);
}

std::int64_t select_rank(std::vector<std::int64_t>& v, std::vector<std::size_t>& placed,
                         std::size_t rank) {
  assert(rank < v.size());
  const auto next = std::lower_bound(placed.begin(), placed.end(), rank);
  if (next != placed.end() && *next == rank) return v[rank];
  // Everything in [lo, hi) lies between the placed neighbours, so it is
  // exactly the sorted sample's ranks lo..hi-1 in some order.
  const std::size_t lo = next == placed.begin() ? 0 : *(next - 1) + 1;
  const std::size_t hi = next == placed.end() ? v.size() : *next;
  const auto first = v.begin();
  std::nth_element(first + static_cast<std::ptrdiff_t>(lo),
                   first + static_cast<std::ptrdiff_t>(rank),
                   first + static_cast<std::ptrdiff_t>(hi));
  placed.insert(next, rank);
  return v[rank];
}

}  // namespace ntier::metrics
