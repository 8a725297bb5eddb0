#include "metrics/csv.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "sim/format.h"

namespace ntier::metrics {

std::string timelines_to_csv(const std::vector<const Timeline*>& series) {
  if (series.empty()) return "t_s\n";
  std::string out = "t_s";
  std::size_t max_windows = 0;
  for (const auto* s : series) {
    assert(s->window() == series.front()->window() &&
           "merged CSV requires equal windows");
    out += "," + s->name();
    max_windows = std::max(max_windows, s->window_count());
  }
  out += "\n";
  for (std::size_t i = 0; i < max_windows; ++i) {
    sim::appendf(out, "%.3f", series.front()->window_start(i).to_seconds());
    for (const auto* s : series) sim::appendf(out, ",%.4f", s->value_at(i));
    out += "\n";
  }
  return out;
}

std::string histogram_to_csv(const LinearHistogram& hist) {
  std::string out = "lower_ms,upper_ms,count\n";
  std::size_t last = hist.bin_count();
  while (last > 0 && hist.count_in_bin(last - 1) == 0) --last;
  for (std::size_t i = 0; i < last; ++i)
    sim::appendf(out, "%.1f,%.1f,%" PRIu64 "\n", hist.bin_lower(i).to_millis(),
                 (hist.bin_lower(i) + hist.bin_width()).to_millis(), hist.count_in_bin(i));
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace ntier::metrics
