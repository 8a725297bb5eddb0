#include "spans.h"

#include "stats.h"

namespace perfbench {

std::size_t SpanLog::begin(std::string name, const std::string& label) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  if (open_.empty()) {
    s.tid = static_cast<int>(labels_.size());
    labels_.push_back(label.empty() ? s.name : label);
  } else {
    s.parent = static_cast<std::int64_t>(open_.back());
    s.tid = spans_[open_.back()].tid;
  }
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  // Closing an outer span closes anything still open inside it.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = now;
    if (top == id) break;
  }
}

void SpanLog::arg(std::size_t id, std::string key, double value) {
  spans_.at(id).args.emplace_back(std::move(key), value);
}

double SpanLog::ms(std::size_t id) const {
  const Span& s = spans_.at(id);
  return s.end_ns < 0 ? 0.0 : static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::vector<std::pair<std::string, double>> SpanLog::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += ms(i);
    if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= ms(i);
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = out.begin();
    while (it != out.end() && it->first != spans_[i].name) ++it;
    if (it == out.end()) out.emplace_back(spans_[i].name, self[i]);
    else it->second += self[i];
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t t = 0; t < labels_.size(); ++t) {
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(t) + ", \"args\": {\"name\": \"" + labels_[t] + "\"}},\n";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    out += "{\"name\": \"" + s.name + "\", \"cat\": \"" +
           (s.parent < 0 ? "request" : "bench") + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(s.tid) + ", \"ts\": " + std::to_string(s.start_ns / 1000) +
           ", \"dur\": " + std::to_string((end - s.start_ns) / 1000) +
           ", \"args\": {\"span\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"detail\": 0";
    for (const auto& [k, v] : s.args) out += ", \"" + k + "\": " + number(v);
    out += "}}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
