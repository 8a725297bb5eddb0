#include "trace/chrome_trace.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace ntier::trace {

namespace {

// Minimal JSON string escaping (site names are ASCII identifiers, but a
// correct file must escape quotes/backslashes/control bytes anyway).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < static_cast<int>(sizeof buf)) {
    out += buf;
  } else {  // longer than the buffer: format again at full length
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n));
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
  }
  va_end(again);
}

}  // namespace

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
    append(out,
           ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"request %" PRIu64 "\"}}",
           rid, rid);
    for (const Span& s : t->spans()) {
      const std::string name =
          std::string(to_string(s.kind)) + " " + json_escape(s.site);
      const std::int64_t ts = s.begin.count_micros();
      const std::int64_t dur = s.duration().count_micros();
      if (s.closed() && dur > 0) {
        append(out,
               ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
               ",\"dur\":%" PRId64 ",\"pid\":1,\"tid\":%" PRIu64
               ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRId64
               ",\"detail\":%d}}",
               name.c_str(), to_string(s.kind), ts, dur, rid, s.id,
               s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent),
               s.detail);
      } else {
        append(out,
               ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%" PRId64
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
      append(out,
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
