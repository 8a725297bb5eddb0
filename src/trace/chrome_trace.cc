#include "trace/chrome_trace.h"

#include <cinttypes>

#include "sim/format.h"

namespace ntier::trace {

std::string chrome_trace_json(const TraceList& traces) {
  std::string out;
  out.reserve(256 + traces.size() * 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ntier\"}}";
  for (const auto& t : traces) {
    if (!t || t->empty()) continue;
    const std::uint64_t rid = t->request_id();
    sim::appendf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"request %" PRIu64 "\"}}",
                 rid, rid);
    for (const Span& s : t->spans()) {
      std::string name;
      sim::append_json_string(name, std::string(to_string(s.kind)) + " " + s.site);
      const std::int64_t ts = s.begin.count_micros();
      const std::int64_t dur = s.duration().count_micros();
      if (s.closed() && dur > 0) {
        sim::appendf(out,
                     ",\n{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
                     ",\"dur\":%" PRId64 ",\"pid\":1,\"tid\":%" PRIu64
                     ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRId64
                     ",\"detail\":%d}}",
                     name.c_str(), to_string(s.kind), ts, dur, rid, s.id,
                     s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent),
                     s.detail);
      } else {
        sim::appendf(out,
                     ",\n{\"name\":%s,\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%" PRId64
                     ",\"s\":\"t\",\"pid\":1,\"tid\":%" PRIu64
                     ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRId64
                     ",\"detail\":%d,\"closed\":%s}}",
                     name.c_str(), to_string(s.kind), ts, rid, s.id,
                     s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent),
                     s.detail, s.closed() ? "true" : "false");
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string spans_csv(const TraceList& traces) {
  std::string out =
      "request_id,span_id,parent_id,kind,site,begin_us,end_us,duration_us,"
      "detail,closed\n";
  for (const auto& t : traces) {
    if (!t) continue;
    for (const Span& s : t->spans()) {
      sim::appendf(out,
                   "%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%s,%s,%" PRId64 ",%" PRId64
                   ",%" PRId64 ",%d,%d\n",
                   t->request_id(), s.id,
                   s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent),
                   to_string(s.kind), s.site.c_str(), s.begin.count_micros(),
                   s.end.count_micros(), s.duration().count_micros(), s.detail,
                   s.closed() ? 1 : 0);
    }
  }
  return out;
}

}  // namespace ntier::trace
