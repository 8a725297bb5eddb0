// Host-time spans recorded by the benchmark around each call it makes
// into a simulator layer. Spans nest by a stack discipline (a span's
// parent is the innermost span open when it began), stay in memory, and
// are written once at exit as Chrome trace_event JSON in the subset
// scripts/validate_chrome_trace.py accepts: each workload run is one
// root span of category "request" with its own tid.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    int tid = 0;               // root ordinal: one per workload run
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    std::vector<std::pair<std::string, double>> args;
  };

  SpanLog() : origin_(Clock::now()) {}

  // Opens a span under the innermost open one. With nothing open it is a
  // root ("request") span and starts a new tid labelled `label`.
  std::size_t begin(std::string name, const std::string& label = "");
  // Closes span `id` and any span still open inside it.
  void end(std::size_t id);
  // Attaches a numeric argument (slice counters) to span `id`.
  void arg(std::size_t id, std::string key, double value);

  const std::vector<Span>& spans() const { return spans_; }
  // Wall milliseconds of span `id`.
  double ms(std::size_t id) const;
  // Self time per span name in ms: each span's duration minus the part
  // its direct children cover, summed over spans of that name, in order
  // of first appearance.
  std::vector<std::pair<std::string, double>> self_ms() const;
  // The whole log as a Chrome trace_event document.
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<std::string> labels_;  // per tid
};

// RAII span: begins on construction and ends on destruction. A null log
// makes it a no-op, so untraced runs share the traced code path.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, const std::string& label = "")
      : log_(log), id_(log ? log->begin(std::move(name), label) : 0) {}
  ~Scope() {
    if (log_) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void arg(std::string key, double value) {
    if (log_) log_->arg(id_, std::move(key), value);
  }

 private:
  SpanLog* log_;
  std::size_t id_;
};

}  // namespace perfbench
