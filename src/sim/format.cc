#include "sim/format.h"

#include <cstdarg>
#include <cstdio>

namespace ntier::sim {

void appendf(std::string& out, const char* fmt, ...) {
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

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          appendf(out, "\\u%04x", static_cast<unsigned>(c));
        else
          out += c;
    }
  }
  out += '"';
}

}  // namespace ntier::sim
