#include "sweep/engine.h"

#include <atomic>
#include <cinttypes>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/config.h"
#include "core/system.h"
#include "metrics/table.h"
#include "sim/format.h"

namespace ntier::sweep {

namespace {

double vlrt_fraction_of(const core::ExperimentSummary& s) {
  return s.latency.count > 0
             ? static_cast<double>(s.latency.vlrt_count) /
                   static_cast<double>(s.latency.count)
             : 0.0;
}

// Collects one reduced sample per replication via `get`.
template <typename Fn>
Interval reduce(const std::vector<ReplicationResult>& reps, Fn get) {
  std::vector<double> xs;
  xs.reserve(reps.size());
  for (const auto& r : reps) xs.push_back(get(r));
  return t_interval(xs);
}

}  // namespace

SweepResult run_sweep(const Grid& grid, const ConfigBinder& bind,
                      const SweepOptions& opt, const RunHook& hook) {
  if (!bind) throw std::invalid_argument("sweep: null config binder");
  if (opt.replications < 1)
    throw std::invalid_argument("sweep: replications must be >= 1");
  if (opt.jobs < 1) throw std::invalid_argument("sweep: jobs must be >= 1");

  const std::vector<GridPoint> points = grid.points();
  if (points.empty()) throw std::invalid_argument("sweep: empty grid");
  const std::size_t R = opt.replications;

  // Bind and validate every point's config up front, on this thread:
  // workers then only copy a config and bump its seed, so a bad config
  // fails fast instead of inside the pool.
  std::vector<core::ExperimentConfig> configs;
  configs.reserve(points.size());
  for (const GridPoint& p : points) {
    core::ExperimentConfig cfg = bind(p);
    core::validate(cfg);
    configs.push_back(std::move(cfg));
  }

  // One slot per (point, replication): slot k = point k/R, replication
  // k%R. Workers write only their own slot, so artifact content never
  // depends on scheduling or the worker count.
  const std::size_t total = points.size() * R;
  std::vector<ReplicationResult> slots(total);
  std::vector<std::string> errors(total);
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= total) return;
      const std::size_t pi = k / R;
      const std::size_t r = k % R;
      try {
        core::ExperimentConfig cfg = configs[pi];
        cfg.seed += r;  // replication r == solo run with seed base+r
        auto sys = core::run_system(cfg);
        ReplicationResult& out = slots[k];
        out.seed = cfg.seed;
        out.events = sys->simulation().events_executed();
        out.summary = core::summarize(*sys);
        out.registry = sys->registry().snapshot();
        if (hook) hook(points[pi], r, *sys);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    }
  };

  const std::size_t nworkers = opt.jobs < total ? opt.jobs : total;
  if (nworkers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t i = 0; i < nworkers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (std::size_t k = 0; k < total; ++k)
    if (!errors[k].empty())
      throw std::runtime_error("sweep run " + configs[k / R].name +
                               " replication " + std::to_string(k % R) +
                               " failed: " + errors[k]);

  // ---- sequential reduction (identical for any worker count) -----------
  SweepResult result;
  result.axes = grid.axes();
  result.replications = R;
  result.runs = total;
  result.points.reserve(points.size());
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    PointResult pr;
    pr.point = points[pi];
    pr.name = configs[pi].name;
    pr.base_seed = configs[pi].seed;
    pr.reps.assign(slots.begin() + static_cast<std::ptrdiff_t>(pi * R),
                   slots.begin() + static_cast<std::ptrdiff_t>((pi + 1) * R));

    pr.throughput_rps =
        reduce(pr.reps, [](const auto& r) { return r.summary.throughput_rps; });
    pr.latency_mean_ms =
        reduce(pr.reps, [](const auto& r) { return r.summary.latency.mean.to_millis(); });
    pr.p99_ms =
        reduce(pr.reps, [](const auto& r) { return r.summary.latency.p99.to_millis(); });
    pr.p999_ms =
        reduce(pr.reps, [](const auto& r) { return r.summary.latency.p999.to_millis(); });
    pr.vlrt_fraction =
        reduce(pr.reps, [](const auto& r) { return vlrt_fraction_of(r.summary); });
    pr.drops = reduce(pr.reps, [](const auto& r) {
      return static_cast<double>(r.summary.total_drops);
    });
    pr.episodes = reduce(pr.reps, [](const auto& r) {
      return static_cast<double>(r.summary.ctqo.episodes.size());
    });
    pr.upstream_episodes = reduce(pr.reps, [](const auto& r) {
      return static_cast<double>(r.summary.ctqo.upstream_episodes);
    });
    pr.downstream_episodes = reduce(pr.reps, [](const auto& r) {
      return static_cast<double>(r.summary.ctqo.downstream_episodes);
    });
    pr.completed_mean = reduce(pr.reps, [](const auto& r) {
      return static_cast<double>(r.summary.latency.count);
    }).mean;

    std::size_t with_ctqo = 0;
    for (const auto& r : pr.reps)
      if (!r.summary.ctqo.episodes.empty()) ++with_ctqo;
    pr.ctqo = 2 * with_ctqo >= R;

    // Merge the per-run registries: sum each scalar across replications.
    std::map<std::string, double> merged;
    for (const auto& r : pr.reps) {
      for (const auto& [name, value] : r.registry) merged[name] += value;
      result.total_events += r.events;
    }
    pr.registry_totals.assign(merged.begin(), merged.end());
    result.points.push_back(std::move(pr));
  }

  // ---- CTQO onset along axis 0, per slice of the remaining axes --------
  std::map<std::vector<double>, std::size_t> slice_rank;  // -> onsets index
  for (const PointResult& pr : result.points) {
    std::vector<double> slice(pr.point.values.begin() + 1, pr.point.values.end());
    auto it = slice_rank.find(slice);
    if (it == slice_rank.end()) {
      CtqoOnset o;
      o.slice = slice;
      std::vector<Axis> rest(result.axes.begin() + 1, result.axes.end());
      GridPoint sp;
      sp.values = slice;
      o.slice_label = rest.empty() ? std::string() : sp.label(rest);
      it = slice_rank.emplace(std::move(slice), result.onsets.size()).first;
      result.onsets.push_back(std::move(o));
    }
    CtqoOnset& o = result.onsets[it->second];
    // Axis 0 is slowest in row-major order, so points of one slice are
    // visited in axis-0 insertion order: the first ctqo hit is the onset.
    if (!o.found && pr.ctqo) {
      o.found = true;
      o.onset_value = pr.point.value(0);
    }
  }

  return result;
}

std::string SweepResult::csv() const {
  std::string out;
  for (const Axis& a : axes) out += a.name + ",";
  out +=
      "name,replications,completed_mean,throughput_rps_mean,"
      "throughput_rps_ci95,latency_mean_ms,latency_mean_ci95,p99_ms,p99_ci95,"
      "p999_ms,p999_ci95,vlrt_fraction,vlrt_fraction_ci95,drops_mean,"
      "drops_ci95,ctqo_episodes_mean,ctqo_upstream_mean,ctqo_downstream_mean,"
      "ctqo\n";
  for (const PointResult& p : points) {
    for (double v : p.point.values) sim::appendf(out, "%.10g,", v);
    out += p.name;
    sim::appendf(out,
                 ",%zu,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,"
                 "%.10g,%.10g,%.10g,%.10g,%d\n",
                 replications, p.completed_mean, p.throughput_rps.mean,
                 p.throughput_rps.half_width, p.latency_mean_ms.mean,
                 p.latency_mean_ms.half_width, p.p99_ms.mean, p.p99_ms.half_width,
                 p.p999_ms.mean, p.p999_ms.half_width, p.vlrt_fraction.mean,
                 p.vlrt_fraction.half_width, p.drops.mean, p.drops.half_width,
                 p.episodes.mean, p.upstream_episodes.mean, p.downstream_episodes.mean,
                 p.ctqo ? 1 : 0);
  }
  return out;
}

std::string SweepResult::manifest_json() const {
  std::string out = "{\n  \"schema\": \"ntier.sweep-manifest/1\",\n  \"axes\": [";
  for (std::size_t i = 0; i < axes.size(); ++i) {
    out += i ? ", " : "";
    out += "{\"name\": ";
    sim::append_json_string(out, axes[i].name);
    out += ", \"values\": [";
    for (std::size_t j = 0; j < axes[i].values.size(); ++j)
      sim::appendf(out, j ? ", %.10g" : "%.10g", axes[i].values[j]);
    out += "]}";
  }
  sim::appendf(out,
               "],\n  \"replications\": %zu,\n  \"runs\": %" PRIu64
               ",\n  \"total_events\": %" PRIu64 ",\n  \"points\": [",
               replications, runs, total_events);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    sim::append_json_string(out, p.name);
    out += ", \"values\": [";
    for (std::size_t j = 0; j < p.point.values.size(); ++j)
      sim::appendf(out, j ? ", %.10g" : "%.10g", p.point.values[j]);
    sim::appendf(out,
                 "], \"base_seed\": %" PRIu64 ", \"ctqo\": %s"
                 ", \"throughput_rps\": [%.10g, %.10g], \"p99_ms\": [%.10g, %.10g]"
                 ", \"p999_ms\": [%.10g, %.10g], \"vlrt_fraction\": [%.10g, %.10g]"
                 ", \"drops_mean\": %.10g, \"episodes_mean\": %.10g, \"registry_totals\": {",
                 p.base_seed, p.ctqo ? "true" : "false", p.throughput_rps.mean,
                 p.throughput_rps.half_width, p.p99_ms.mean, p.p99_ms.half_width,
                 p.p999_ms.mean, p.p999_ms.half_width, p.vlrt_fraction.mean,
                 p.vlrt_fraction.half_width, p.drops.mean, p.episodes.mean);
    for (std::size_t j = 0; j < p.registry_totals.size(); ++j) {
      out += j ? ", " : "";
      sim::append_json_string(out, p.registry_totals[j].first);
      sim::appendf(out, ": %.10g", p.registry_totals[j].second);
    }
    out += "}}";
  }
  out += "\n  ],\n  \"ctqo_onsets\": [";
  for (std::size_t i = 0; i < onsets.size(); ++i) {
    out += i ? ", " : "";
    out += "{\"slice\": ";
    sim::append_json_string(out, onsets[i].slice_label);
    out += ", \"onset\": ";
    if (onsets[i].found)
      sim::appendf(out, "%.10g}", onsets[i].onset_value);
    else
      out += "null}";
  }
  out += "]\n}\n";
  return out;
}

std::string SweepResult::to_string() const {
  std::vector<std::string> header;
  for (const Axis& a : axes) header.push_back(a.name);
  header.insert(header.end(),
                {"thpt_rps", "ci95", "p99_ms", "ci95", "p999_ms", "ci95",
                 "vlrt_frac", "drops", "episodes", "ctqo"});
  metrics::Table table(header);
  for (const PointResult& p : points) {
    std::vector<std::string> row;
    for (double v : p.point.values) row.push_back(metrics::Table::num(v, 0));
    row.push_back(metrics::Table::num(p.throughput_rps.mean, 1));
    row.push_back(metrics::Table::num(p.throughput_rps.half_width, 1));
    row.push_back(metrics::Table::num(p.p99_ms.mean, 1));
    row.push_back(metrics::Table::num(p.p99_ms.half_width, 1));
    row.push_back(metrics::Table::num(p.p999_ms.mean, 1));
    row.push_back(metrics::Table::num(p.p999_ms.half_width, 1));
    row.push_back(metrics::Table::num(p.vlrt_fraction.mean, 4));
    row.push_back(metrics::Table::num(p.drops.mean, 1));
    row.push_back(metrics::Table::num(p.episodes.mean, 1));
    row.push_back(p.ctqo ? "yes" : "no");
    table.add_row(row);
  }
  std::string out = table.to_string();
  for (const CtqoOnset& o : onsets) {
    out += "CTQO onset";
    if (!o.slice_label.empty()) out += " [" + o.slice_label + "]";
    if (o.found)
      sim::appendf(out, ": %s = %.10g", axes[0].name.c_str(), o.onset_value);
    else
      out += ": none in the swept range";
    out += "\n";
  }
  return out;
}

}  // namespace ntier::sweep
