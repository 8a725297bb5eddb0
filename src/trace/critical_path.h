// CriticalPath: attribute every microsecond of a request to a cause.
//
// Walks a RequestTrace span tree and partitions the root interval
// (client send -> client receive) into non-overlapping segments, each
// charged to the deepest span covering that instant. The result answers
// the paper's micro-level question mechanically: a VLRT request shows
// "2997 ms rto_gap at apache->tomcat, 41 ms pool_queue at tomcat,
// 12 ms service at mysql", i.e. the 3 seconds are the retransmission
// wait in front of the overflowing tier, not service anywhere.
//
// Attribution rules:
//  - children are swept in begin-time order; an instant covered by two
//    overlapping siblings (hedged duplicates) is charged to the earlier
//    one for the overlap, then the later one takes over — every instant
//    is charged exactly once, so the segment sum equals the end-to-end
//    latency EXACTLY (integral µs arithmetic, no rounding);
//  - a span that never closed (request abandoned mid-flight) is clamped
//    to its parent's end;
//  - zero-length marker spans (drops, policy events) get no time.
//
// Units: all durations are simulated time; `share` fields are fractions
// of the root duration in [0, 1].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/span.h"

namespace ntier::trace {

// One request's latency partitioned into (kind, site) buckets.
struct CriticalPath {
  // One (kind, site) bucket of attributed time, e.g. ("rto_gap",
  // "apache->tomcat"). Sorted by time, largest first.
  struct Item {
    SpanKind kind = SpanKind::kRequest;
    std::string site;
    sim::Duration time;
    double share = 0.0;  // time / total
  };

  // The attributed request, its end-to-end latency, and the buckets.
  std::uint64_t request_id = 0;
  sim::Duration total;       // root span duration == sum of all items
  std::vector<Item> items;

  // Total attributed to one kind across all sites (e.g. all RTO gaps).
  sim::Duration by_kind(SpanKind k) const;
  // Largest bucket; valid only when !items.empty().
  const Item& dominant() const { return items.front(); }
  // "latency 3050.2 ms: 2997.0 ms rto_gap at apache->tomcat (98.3%), ..."
  std::string to_string() const;
};

// Computes the attribution for one request. The root must be closed
// (completed request); traces without a closed root return total = 0
// and no items.
CriticalPath critical_path(const RequestTrace& trace);

}  // namespace ntier::trace
