// ntier_perfbench: simulated work per wall second on one named workload.
//
//   ntier_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out DIR] [--expect-digest HEX]
//
// --trace 0 repeats the workload closed-loop (the next run starts when the
// previous one ends) for S seconds and prints the end-to-end metrics.
// --trace 1 alternates untraced and traced runs for S seconds, then runs
// the layer replays, writes DIR/NAME.trace.json and prints the per-layer
// metrics. Either way the last stdout line is the JSON result; every run
// is checked and a run that breaks a check counts as failed.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "replay.h"
#include "results.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupPerRun = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  std::optional<std::uint64_t> expect_digest;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, &end, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, &end);
    else if (k == "--trace") a.trace = std::strtoul(v, &end, 10) == 1;
    else if (k == "--out") a.out = v;
    else if (k == "--expect-digest") a.expect_digest = std::strtoull(v, &end, 16);
    else return false;
    if (end && *end != '\0') return false;
  }
  if (argc % 2 == 0 || a.seconds <= 0.0) return false;
  for (const std::string& w : workload_names())
    if (w == a.workload) return true;
  return false;
}

// Peak resident set of this process image. VmHWM is read first because
// ru_maxrss also carries the high-water mark of the image that exec'd
// us (a Python parent's footprint after vfork + exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // both are in KiB
}

// Measurement window of --seconds from construction. Another loop turn
// fits when one as long as the last turn still ends inside the window, so
// a run ends near --seconds instead of up to one turn past it.
class Window {
 public:
  explicit Window(double seconds) : seconds_(seconds) {}
  bool another_turn_fits() {
    const double now = std::chrono::duration<double>(Clock::now() - start_).count();
    const double turn = now - last_;
    last_ = now;
    return now + turn <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  double last_ = 0.0;
};

void print_run(const char* kind, std::size_t i, const Iteration& it) {
  std::printf("[run] %s #%zu setup_ms=%.3f run_s=%.3f report_ms=%.1f completed=%llu "
              "events=%llu digest=%s%s\n",
              kind, i, it.setup_s * 1e3, it.run_s, it.report_s * 1e3,
              static_cast<unsigned long long>(it.counters.completed),
              static_cast<unsigned long long>(it.counters.events), hex64(it.digest).c_str(),
              it.failures.empty() ? "" : " FAILED");
  for (const std::string& f : it.failures) std::printf("  check failed: %s\n", f.c_str());
}

void print_metrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("[metric] workload=%s %s=%s %s\n", workload.c_str(), m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
}

int run_untraced(const Args& a) {
  Window window(a.seconds);
  // The first run fills the thread-local pools and the allocator; it is
  // checked and counted like every run but left out of the timings.
  Iteration warmup = run_workload(a.workload, a.seed, nullptr);
  print_run("warm-up", 0, warmup);
  std::vector<Iteration> runs;
  std::vector<double> setup;
  do {
    // Set-up samples are spread over the whole measurement, like the runs,
    // so a burst of host contention cannot cover all of them. The first
    // build after a run re-fills the caches the run evicted and is dropped.
    setup_only(a.workload, a.seed);
    for (int i = 0; i < kSetupPerRun; ++i) setup.push_back(setup_only(a.workload, a.seed));
    runs.push_back(run_workload(a.workload, a.seed, nullptr));
    print_run("untraced", runs.size(), runs.back());
  } while (window.another_turn_fits());

  std::vector<Iteration*> all = {&warmup};
  for (Iteration& it : runs) all.push_back(&it);
  check_digests(all, a.expect_digest);
  const std::uint64_t failed = count_failed(all);
  const auto metrics = end_to_end(runs, setup, peak_rss_mb());
  print_metrics(a.workload, metrics);
  std::printf("[runs] workload=%s attempted=%zu failed=%llu digest=%s\n", a.workload.c_str(),
              all.size(), static_cast<unsigned long long>(failed), hex64(warmup.digest).c_str());
  std::puts(result_line(failed == 0, all.size(), failed, metrics).c_str());
  return 0;
}

int run_traced(const Args& a) {
  Window window(a.seconds);
  SpanLog spans;
  LayerInputs in;
  do {
    in.untraced.push_back(run_workload(a.workload, a.seed, nullptr));
    print_run("untraced", in.untraced.size(), in.untraced.back());
    in.traced.push_back(run_workload(a.workload, a.seed, &spans));
    print_run("traced", in.traced.size(), in.traced.back());
  } while (window.another_turn_fits());

  // sweep.scaling needs the same sweep on one worker; its artifacts (and
  // so its digest) must not depend on the worker count.
  std::vector<Iteration> serial;
  if (a.workload == "sweep_surface") {
    serial.push_back(run_workload(a.workload, a.seed, nullptr, 1));
    print_run("untraced jobs=1", 1, serial.back());
    std::vector<double> walls;
    for (const Iteration& it : in.untraced) walls.push_back(it.run_s);
    in.sweep_scaling = ratio(serial.back().run_s, static_cast<double>(kSweepJobs) * median(walls));
  }

  std::vector<Iteration*> all;
  for (auto* v : {&in.untraced, &in.traced, &serial})
    for (Iteration& it : *v) all.push_back(&it);
  check_digests(all, a.expect_digest);
  const std::uint64_t failed = count_failed(all);

  // Layer replays at the operating point the first traced run measured.
  const Counters& c = in.traced.front().counters;
  const EngineReplayParams p =
      little_law(ratio(c.pending_sum, static_cast<double>(c.pending_samples)), c.sim_seconds,
                 static_cast<double>(c.events));
  in.replays.engine_ns_per_event = replay_engine_ns_per_event(p, a.seed);
  in.replays.cpu_shared_ns_per_job = replay_cpu_ns_per_job(c.jobs_peak, true, a.seed);
  in.replays.cpu_dedicated_ns_per_job = replay_cpu_ns_per_job(c.jobs_peak, false, a.seed);
  const Iteration& first = in.traced.front();
  if (first.tier_policy.any())
    in.replays.policy_ns_per_dispatch =
        replay_policy_ns_per_dispatch(first.tier_policy, first.latency_sequence_us, a.seed);
  std::printf("[replay] engine timers=%zu mean_delay_us=%.1f ns/event=%.1f; cpu jobs=%zu "
              "ns/job shared=%.1f dedicated=%.1f; policy ns/dispatch=%.1f\n",
              p.timers, p.mean_delay_us, in.replays.engine_ns_per_event, c.jobs_peak,
              in.replays.cpu_shared_ns_per_job, in.replays.cpu_dedicated_ns_per_job,
              in.replays.policy_ns_per_dispatch);

  in.self_ms = spans.self_ms();
  std::printf("[self] span self time over %zu traced runs:\n", in.traced.size());
  for (const auto& [name, ms] : in.self_ms)
    std::printf("  %-12s %12.3f ms\n", name.c_str(), ms);

  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  const std::string path = a.out + "/" + a.workload + ".trace.json";
  std::ofstream f(path);
  f << spans.chrome_json();
  f.close();
  const bool wrote = static_cast<bool>(f);
  std::printf("[trace] wrote %s (%zu spans)%s\n", path.c_str(), spans.spans().size(),
              wrote ? "" : " FAILED");

  const auto metrics = per_layer(in);
  print_metrics(a.workload, metrics);
  std::printf("[runs] workload=%s attempted=%zu failed=%llu digest=%s\n", a.workload.c_str(),
              all.size(), static_cast<unsigned long long>(failed),
              hex64(in.traced.front().digest).c_str());
  std::puts(result_line(failed == 0 && wrote, all.size(), failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload sync_ctqo|async_logflush|graph_hedge|sweep_surface "
                 "--seed N --seconds S --trace 0|1 [--out DIR] [--expect-digest HEX]\n",
                 argc > 0 ? argv[0] : "ntier_perfbench");
    return 2;
  }
  return a.trace ? run_traced(a) : run_untraced(a);
}
