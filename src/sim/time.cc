#include "sim/time.h"

#include <cinttypes>

#include "sim/format.h"

namespace ntier::sim {

std::string to_string(Duration d) {
  const std::int64_t us = d.count_micros();
  std::string out;
  if (us % 1'000'000 == 0)
    appendf(out, "%" PRId64 "s", us / 1'000'000);
  else if (us % 1000 == 0)
    appendf(out, "%" PRId64 "ms", us / 1000);
  else
    appendf(out, "%" PRId64 "us", us);
  return out;
}

std::string to_string(Time t) {
  std::string out;
  appendf(out, "%.3fs", t.to_seconds());
  return out;
}

}  // namespace ntier::sim
