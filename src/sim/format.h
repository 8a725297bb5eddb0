// Text formatting for every report, manifest and export: printf-style
// appends with no length limit, and JSON string literals.
#pragma once

#include <string>
#include <string_view>

namespace ntier::sim {

// Appends the text std::printf(fmt, ...) writes to `out`, whole at any
// length: a piece shorter than 512 bytes is formatted on the stack, a
// longer one is formatted again straight into `out`.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

// Appends `s` as a quoted JSON string: `"`, `\`, newline and tab get
// their two-character escapes, and every other byte below 0x20 is
// written as \u00XX. Bytes from 0x20 up pass through unchanged.
void append_json_string(std::string& out, std::string_view s);

}  // namespace ntier::sim
