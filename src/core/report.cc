#include "core/report.h"

#include <algorithm>
#include <cinttypes>

#include "metrics/table.h"
#include "sim/format.h"

namespace ntier::core {

std::string timeline_panel(const monitor::Sampler& sampler,
                           const std::vector<std::string>& series, sim::Time until,
                           sim::Duration step) {
  std::vector<std::string> headers{"t_s"};
  for (const auto& s : series) headers.push_back(s);
  metrics::Table table(headers);

  const sim::Duration win = sampler.window();
  const auto per_row = static_cast<std::size_t>(
      std::max<std::int64_t>(1, step.count_micros() / win.count_micros()));

  const auto rows = static_cast<std::size_t>(until.count_micros() / step.count_micros());
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    const sim::Time t0 = sim::Time::origin() + step * static_cast<std::int64_t>(r);
    cells.push_back(metrics::Table::num(t0.to_seconds(), 2));
    for (const auto& name : series) {
      const auto& line = sampler.series(name);
      double peak = 0.0;
      for (std::size_t k = 0; k < per_row; ++k) {
        const sim::Time t = t0 + win * static_cast<std::int64_t>(k);
        if (t >= until) break;
        peak = std::max(peak, line.value_at_time(t));
      }
      cells.push_back(metrics::Table::num(peak, 1));
    }
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

std::string histogram_panel(const monitor::LatencyCollector& collector) {
  std::string out = "response-time frequency (bin=" +
                    sim::to_string(collector.histogram().bin_width()) + ")\n";
  out += collector.histogram().to_table();
  const auto modes = collector.histogram().modes(3);
  out += "modes:";
  for (auto m : modes) sim::appendf(out, " %.2fs", m.to_seconds());
  out += "\n";
  return out;
}

std::string vlrt_panel(const monitor::LatencyCollector& collector) {
  std::string out = "# VLRT requests (>=" +
                    sim::to_string(collector.vlrt_threshold()) + ") per " +
                    sim::to_string(collector.vlrt_per_window().window()) + " window\n";
  out += collector.vlrt_per_window().to_table();
  return out;
}

std::string config_banner(const ExperimentConfig& cfg) {
  std::string out;
  sim::appendf(out,
               "=== %s ===\narch=%s WL=%zu think=%.1fs duration=%.0fs seed=%" PRIu64 "\n"
               "web=%zu threads x%zu proc, app=%zu threads (%d vcpu), db=%zu threads, "
               "backlog=%zu, db_pool=%zu\n",
               cfg.name.c_str(), to_string(cfg.system.arch), cfg.workload.sessions,
               cfg.workload.mean_think.to_seconds(), cfg.duration.to_seconds(), cfg.seed,
               cfg.system.web_threads, cfg.system.web_processes, cfg.system.app_threads,
               cfg.system.app_vcpus, cfg.system.db_threads, cfg.system.backlog,
               cfg.system.db_pool);
  return out;
}

}  // namespace ntier::core
