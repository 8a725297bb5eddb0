#include "trace/tracer.h"

namespace ntier::trace {

const char* to_string(TraceMode m) {
  switch (m) {
    case TraceMode::kOff: return "off";
    case TraceMode::kAll: return "all";
    case TraceMode::kVlrtOnly: return "vlrt";
    case TraceMode::kSampled: return "sampled";
  }
  return "?";
}

std::string invalid_reason(const TraceConfig& cfg) {
  if (cfg.mode == TraceMode::kSampled && cfg.sample_every_n == 0)
    return "trace: sample_every_n must be positive in sampled mode";
  if (cfg.mode != TraceMode::kOff && cfg.max_traces == 0)
    return "trace: max_traces must be positive when tracing is on";
  if (cfg.mode == TraceMode::kVlrtOnly && cfg.vlrt_threshold <= sim::Duration::zero())
    return "trace: vlrt_threshold must be positive in vlrt-only mode";
  return {};
}

TracePtr Tracer::begin(std::uint64_t request_id) {
  switch (cfg_.mode) {
    case TraceMode::kOff:
      return nullptr;
    case TraceMode::kSampled:
      if (request_id % cfg_.sample_every_n != 1 % cfg_.sample_every_n)
        return nullptr;
      break;
    case TraceMode::kAll:
    case TraceMode::kVlrtOnly:
      break;
  }
  ++begun_;
  return trace_pool().make(request_id);
}

void Tracer::finish(const TracePtr& trace,
                    sim::Duration latency) {
  if (!trace) return;
  if (finish_hook_) finish_hook_(trace, latency);
  if (cfg_.mode == TraceMode::kVlrtOnly && latency < cfg_.vlrt_threshold) {
    ++discarded_;
    return;
  }
  if (traces_.size() >= cfg_.max_traces) {
    ++dropped_by_cap_;
    return;
  }
  traces_.push_back(trace);
}

}  // namespace ntier::trace
