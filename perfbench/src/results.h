// Turns workload runs into the benchmark's metrics: failure accounting,
// the end-to-end metrics of untraced runs, the per-layer metrics of a
// traced run, and the JSON result line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Every run must reproduce the first run's digest and, when given, the
// reference digest; a run that does not gets a failure appended.
void check_digests(const std::vector<Iteration*>& runs, std::optional<std::uint64_t> expected);

// Runs with at least one failure.
std::uint64_t count_failed(const std::vector<Iteration*>& runs);

// requests_per_s: completions over the run phase with each simulated
// second at its fastest over the runs (the sweep: the fastest run_sweep);
// report_s: each report call at its fastest, summed; setup_s: the fastest
// set-up-only sample. Runs that failed a check still contribute, so every
// metric prints.
std::vector<Metric> end_to_end(const std::vector<Iteration>& runs,
                               const std::vector<double>& setup_s, double peak_rss_mb);

// Host ns measured by the layer replays (0 = the layer has no replay on
// this workload).
struct Replays {
  double engine_ns_per_event = 0.0;
  double cpu_shared_ns_per_job = 0.0;
  double cpu_dedicated_ns_per_job = 0.0;
  double policy_ns_per_dispatch = 0.0;
};

struct LayerInputs {
  std::vector<Iteration> traced;    // sliced runs with spans
  std::vector<Iteration> untraced;  // plain runs of the same process
  Replays replays;
  double sweep_scaling = 0.0;       // wall(1) / (jobs * wall(jobs)); sweep only
  std::vector<std::pair<std::string, double>> self_ms;  // summed over traced runs
};

// Every per-layer metric, in BENCHMARK.json order; a layer that does not
// run on the workload reads 0.
std::vector<Metric> per_layer(const LayerInputs& in);

// The last line of the benchmark's output.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
