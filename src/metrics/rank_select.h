// Exact order statistics of an unsorted sample, without sorting it.
//
// Both exact-percentile users (LinearHistogram over a whole run,
// QuantileTimeline per window) read a handful of ranks from a large
// buffer. select_rank places one rank at a time with std::nth_element,
// confined to the bracket between the nearest ranks already placed, so a
// run's p50/p99/p99.9/max costs a few linear passes instead of a full
// sort, and the answers are the values a sorted copy holds at those
// ranks, for any query order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ntier::metrics {

// Nearest rank of percentile p (clamped to [0, 100]) in an ascending
// sample of n >= 1 values: p / 100 * (n - 1), rounded half up.
std::size_t percentile_rank(double p, std::size_t n);

// Returns the value v[rank] holds once v is sorted ascending; rank < v.size().
//
// `placed` lists, ascending, the ranks already in sorted position: each
// such v[r] is >= everything before it and <= everything after it. The
// call runs std::nth_element over the open bracket between the placed
// ranks around `rank` (a no-op when `rank` is placed), which keeps every
// placed rank's property, and then records `rank`. Any other change to v
// invalidates `placed`: clear it.
std::int64_t select_rank(std::vector<std::int64_t>& v, std::vector<std::size_t>& placed,
                         std::size_t rank);

}  // namespace ntier::metrics
