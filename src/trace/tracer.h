// Tracer: per-run trace collection with bounded-memory sampling.
//
// Decides which requests get a span tree and which finished trees are
// retained for analysis/export. Three sampling modes keep memory bounded
// at production request counts:
//   kAll      — every request is traced and retained (tests, short runs);
//   kVlrtOnly — every request records spans in flight, but at completion
//               only VLRT requests (latency >= vlrt_threshold) are kept;
//               memory is bounded by the in-flight population plus the
//               (rare) VLRT set — the standard tail-sampling trade;
//   kSampled  — deterministic head sampling: request ids where
//               id % sample_every_n == 1 are traced (no RNG draw, so
//               enabling tracing never perturbs the simulation).
//
// `max_traces` hard-caps retention in every mode; once reached, further
// finished traces are dropped (counted in dropped_by_cap()) — the run
// keeps going, the export just notes the truncation.
//
// All counters are monotonic over one run. Units: `vlrt_threshold` is a
// simulated duration (default the paper's 3 s VLRT line).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"
#include "trace/span.h"

namespace ntier::trace {

// Which requests record spans and which finished trees are kept.
enum class TraceMode : std::uint8_t {
  kOff,       // no request carries a span tree (zero overhead)
  kAll,       // trace and retain everything
  kVlrtOnly,  // trace in flight, retain only VLRT completions
  kSampled,   // deterministic 1-in-N head sampling
};

// Lowercase mode name ("off", "all", "vlrt", "sampled").
const char* to_string(TraceMode m);

// Sampling mode and retention bounds of one run's Tracer.
struct TraceConfig {
  TraceMode mode = TraceMode::kOff;
  // kSampled: trace ids with id % sample_every_n == 1 (ids start at 1,
  // so the first request of a run is always in the sample).
  std::uint64_t sample_every_n = 100;
  // kVlrtOnly retention line (the paper's VLRT definition).
  sim::Duration vlrt_threshold = sim::Duration::seconds(3);
  // Hard cap on retained traces across all modes.
  std::size_t max_traces = 200000;
};

// Human-readable reason a trace config is invalid; empty when fine.
// Used by core::validate() and graph::validate().
std::string invalid_reason(const TraceConfig& cfg);

// One run's trace collector (see the file comment).
class Tracer {
 public:
  // A collector with no traces yet; `cfg` must pass invalid_reason().
  explicit Tracer(TraceConfig cfg) : cfg_(cfg) {}

  // The sampling configuration; enabled() is false in kOff mode.
  const TraceConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.mode != TraceMode::kOff; }

  // Called at request issue: returns a fresh span tree for the request,
  // or null when this request is not sampled.
  TracePtr begin(std::uint64_t request_id);

  // Called at request completion (the root span must be closed by the
  // caller first). Retains or discards per the sampling mode.
  void finish(const TracePtr& trace, sim::Duration latency);

  // Observer invoked once per finished span tree, BEFORE the retention
  // decision — so trees the sampling mode would discard are seen too.
  // The obs flight recorder rides here; hooks must not schedule events
  // or draw randomness (the tracing layer's zero-perturbation contract
  // extends to them).
  void set_finish_hook(std::function<void(const TracePtr&, sim::Duration)> hook) {
    finish_hook_ = std::move(hook);
  }

  // Retained traces, in completion order (deterministic per seed).
  const std::vector<TracePtr>& traces() const {
    return traces_;
  }

  // Trees handed out by begin(); trees kept; kVlrtOnly completions
  // below the threshold; finished trees lost to max_traces.
  std::uint64_t begun() const { return begun_; }
  std::uint64_t retained() const { return traces_.size(); }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t dropped_by_cap() const { return dropped_by_cap_; }

 private:
  TraceConfig cfg_;
  std::function<void(const TracePtr&, sim::Duration)> finish_hook_;
  std::vector<TracePtr> traces_;
  std::uint64_t begun_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t dropped_by_cap_ = 0;
};

}  // namespace ntier::trace
