#include "results.h"

#include "stats.h"

namespace perfbench {

namespace {

template <class Fn>
double median_of(const std::vector<Iteration>& runs, Fn fn) {
  std::vector<double> v;
  for (const Iteration& it : runs) v.push_back(fn(it));
  return median(std::move(v));
}

double median_phase(const std::vector<Iteration>& runs, const std::string& key) {
  return median_of(runs, [&key](const Iteration& it) {
    const auto f = it.phase_ms.find(key);
    return f == it.phase_ms.end() ? 0.0 : f->second;
  });
}

double wall_s(const Iteration& it) { return it.setup_s + it.run_s + it.report_s; }

double self_ms(const LayerInputs& in, const std::string& name) {
  for (const auto& [n, ms] : in.self_ms)
    if (n == name) return ratio(ms, static_cast<double>(in.traced.size()));
  return 0.0;
}

}  // namespace

void check_digests(const std::vector<Iteration*>& runs, std::optional<std::uint64_t> expected) {
  std::optional<std::uint64_t> first;
  for (Iteration* it : runs) {
    if (it->digest == 0) continue;  // threw before a digest existed, so already failed
    if (!first) first = it->digest;
    if (it->digest != *first)
      it->failures.push_back("digest " + hex64(it->digest) + " != first run's " + hex64(*first));
    if (expected && it->digest != *expected)
      it->failures.push_back("digest " + hex64(it->digest) + " != reference " + hex64(*expected));
  }
}

std::uint64_t count_failed(const std::vector<Iteration*>& runs) {
  std::uint64_t n = 0;
  for (const Iteration* it : runs) n += it->failures.empty() ? 0 : 1;
  return n;
}

std::vector<Metric> end_to_end(const std::vector<Iteration>& runs,
                               const std::vector<double>& setup_s, double peak_rss_mb) {
  // Every run of one seed repeats the same simulated seconds (the sweep:
  // the same run_sweep) and the same report calls. A run that threw has
  // no digest and no parts to compare.
  std::vector<std::vector<double>> run_parts, report_parts;
  double completed = 0.0;
  for (const Iteration& it : runs) {
    if (it.digest == 0) continue;
    std::vector<double> parts;
    for (const Slice& s : it.slices) parts.push_back(s.wall_ms / 1e3);
    if (parts.empty()) parts.push_back(it.run_s);
    run_parts.push_back(std::move(parts));
    report_parts.push_back(it.report_parts_s);
    completed = static_cast<double>(it.counters.completed);
  }
  return {
      {"requests_per_s", ratio(completed, sum_of_fastest_parts(run_parts)), "req/s"},
      {"setup_s", fastest(setup_s), "s"},
      {"report_s", sum_of_fastest_parts(report_parts), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const LayerInputs& in) {
  static const Iteration kNone;
  const Iteration& first = in.traced.empty() ? kNone : in.traced.front();
  const Counters& c = first.counters;
  const auto run_s = [](const Iteration& it) { return it.run_s; };
  const double run_wall = in.untraced.empty() ? median_of(in.traced, run_s)
                                              : median_of(in.untraced, run_s);
  const auto events = static_cast<double>(c.events);
  const auto completed = static_cast<double>(c.completed);

  std::vector<double> slice_ms, slice_ns_per_event;
  for (const Iteration& it : in.traced) {
    for (const Slice& s : it.slices) {
      slice_ms.push_back(s.wall_ms);
      if (s.events > 0)
        slice_ns_per_event.push_back(s.wall_ms * 1e6 / static_cast<double>(s.events));
    }
  }
  const Tail ms_tail = tail_percentile(slice_ms);
  const double overhead =
      in.traced.empty() || in.untraced.empty()
          ? 0.0
          : ratio(median_of(in.traced, wall_s), median_of(in.untraced, wall_s)) - 1.0;
  const Replays& r = in.replays;

  return {
      {"sim.events", events, "count"},
      {"sim.events_per_request", ratio(events, completed), "events/req"},
      {"sim.events_per_s", ratio(events, run_wall), "1/s"},
      {"sim.ns_per_event", ratio(run_wall * 1e9, events), "ns"},
      {"sim.pending_mean", ratio(c.pending_sum, static_cast<double>(c.pending_samples)), "count"},
      {"sim.replay_ns_per_event", r.engine_ns_per_event, "ns"},
      {"sim.engine_share", ratio(events * r.engine_ns_per_event * 1e-9, run_wall), "ratio"},
      {"run.slices", static_cast<double>(ms_tail.count), "count"},
      {"run.slice_ms_p50", median(slice_ms), "ms"},
      {"run.slice_ms_tail", ms_tail.value, "ms"},
      {"run.slice_tail_pct", ms_tail.percentile, "%"},
      {"run.slice_ns_per_event_tail", tail_percentile(slice_ns_per_event).value, "ns"},
      {"cpu.busy_core_s", c.busy_core_s, "sim_core_s"},
      {"cpu.jobs_peak", static_cast<double>(c.jobs_peak), "count"},
      {"cpu.replay_ns_per_job_shared", r.cpu_shared_ns_per_job, "ns"},
      {"cpu.replay_ns_per_job_dedicated", r.cpu_dedicated_ns_per_job, "ns"},
      {"io.ops_per_request", ratio(static_cast<double>(c.disk_ops), completed), "ops/req"},
      {"net.sends", static_cast<double>(c.sends), "count"},
      {"net.retransmits", static_cast<double>(c.retransmits), "count"},
      {"net.drops", static_cast<double>(c.dropped), "count"},
      {"net.delivery_ratio",
       ratio(static_cast<double>(c.delivered), static_cast<double>(c.sends + c.retransmits)),
       "ratio"},
      {"server.hops_per_request", ratio(static_cast<double>(c.accepted), completed), "hops/req"},
      {"server.admit_ratio",
       ratio(static_cast<double>(c.accepted), static_cast<double>(c.offered)), "ratio"},
      {"server.queue_peak", static_cast<double>(c.queue_peak), "count"},
      {"workload.issued", static_cast<double>(c.issued), "count"},
      {"workload.completed", completed, "count"},
      {"workload.failed", static_cast<double>(c.failed), "count"},
      {"policy.hedges", static_cast<double>(c.hedges), "count"},
      {"policy.retries", static_cast<double>(c.retries), "count"},
      {"policy.deadline_cancels", static_cast<double>(c.deadline_cancels), "count"},
      {"policy.hedge_win_ratio",
       ratio(static_cast<double>(c.hedge_wins), static_cast<double>(c.hedges)), "ratio"},
      {"policy.replay_ns_per_dispatch", r.policy_ns_per_dispatch, "ns"},
      {"policy.share",
       ratio(static_cast<double>(c.governed_sends) * r.policy_ns_per_dispatch * 1e-9, run_wall),
       "ratio"},
      {"monitor.sampler_ticks", static_cast<double>(c.sampler_ticks), "count"},
      {"telemetry.series", static_cast<double>(c.series), "count"},
      {"core.build_ms", median_phase(in.traced, "core.build_ms"), "ms"},
      {"core.analyze_ms", median_phase(in.traced, "core.analyze_ms"), "ms"},
      {"core.correlate_ms", median_phase(in.traced, "core.correlate_ms"), "ms"},
      {"core.manifest_ms", median_phase(in.traced, "core.manifest_ms"), "ms"},
      {"graph.parse_ms", median_phase(in.traced, "graph.parse_ms"), "ms"},
      {"graph.build_ms", median_phase(in.traced, "graph.build_ms"), "ms"},
      {"graph.analyze_ms", median_phase(in.traced, "graph.analyze_ms"), "ms"},
      {"graph.correlate_ms", median_phase(in.traced, "graph.correlate_ms"), "ms"},
      {"graph.manifest_ms", median_phase(in.traced, "graph.manifest_ms"), "ms"},
      {"report.dashboard_ms", median_phase(in.traced, "report.dashboard_ms"), "ms"},
      {"report.dashboard_kb", first.dashboard_kb, "KB"},
      {"sweep.runs", static_cast<double>(first.sweep_runs), "count"},
      {"sweep.runs_per_s", ratio(static_cast<double>(first.sweep_runs), run_wall), "1/s"},
      {"sweep.render_ms", median_phase(in.traced, "sweep.render_ms"), "ms"},
      {"sweep.scaling", in.sweep_scaling, "ratio"},
      {"bench.trace_overhead", overhead, "ratio"},
      {"self.request_ms", self_ms(in, "request"), "ms"},
      {"self.setup_ms", self_ms(in, "setup"), "ms"},
      {"self.run_ms", self_ms(in, "run"), "ms"},
      {"self.report_ms", self_ms(in, "report"), "ms"},
  };
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
