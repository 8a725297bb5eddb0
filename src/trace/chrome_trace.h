// Trace export: Chrome trace_event JSON and a compact span CSV.
//
// The JSON is the Chrome/Perfetto `trace_event` format (JSON-object
// flavor: {"traceEvents": [...], "displayTimeUnit": "ms"}). Open the
// file in chrome://tracing or https://ui.perfetto.dev to scrub through
// requests visually. Mapping:
//   - pid 1, process name "ntier" (one simulated system per file);
//   - tid = request id — each request renders as its own track, so a
//     VLRT request's 3 s rto_gap bar is visible at a glance;
//   - spans with duration -> complete events (ph "X", ts/dur in µs);
//   - zero-length markers (drops, hedges, cancels) -> instant events
//     (ph "i", thread scope);
//   - span id / parent id / detail are preserved under "args" so the
//     tree can be rebuilt from the file.
// `ts` is simulated microseconds since the run origin. Output depends
// only on recorded spans — same seed, byte-identical file.
//
// The CSV is one row per span (schema documented in docs/METRICS.md)
// for spreadsheet/pandas post-processing without a JSON parser.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/span.h"

namespace ntier::trace {

// Retained span trees in completion order (Tracer::traces()).
using TraceList = std::vector<TracePtr>;

// Chrome trace_event JSON for all retained traces.
std::string chrome_trace_json(const TraceList& traces);

// "request_id,span_id,parent_id,kind,site,begin_us,end_us,duration_us,
//  detail,closed" rows, one per span.
std::string spans_csv(const TraceList& traces);

}  // namespace ntier::trace
