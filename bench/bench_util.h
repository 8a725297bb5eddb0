// Shared rendering for the per-figure bench binaries: each binary runs a
// canned scenario and prints the series the corresponding paper figure
// plots, plus the summary rows the paper quotes in its captions.
//
// Every figure binary accepts the shared bench flags:
//   --trace=all|vlrt|1inN|off   sampling mode (N an integer, e.g. 1in100)
//   --trace-out=DIR             trace artifact directory (default trace_out/)
//   --dashboard=DIR             write <DIR>/<name>.dashboard.html per run
//   --incidents=DIR             enable the online incident detectors +
//                               flight recorder (src/obs); incident
//                               artifacts land in DIR
//   --flight-window=SEC         retroactive capture half-window (default 5)
//   --proto=NAME                apply a named protocol profile
//                               (net/protocol.h, docs/PROTOCOLS.md) to the
//                               scenario before running; default keeps the
//                               scenario's own stack (fixed3s). Honored by
//                               every fig* binary; the study benches
//                               (ablation/ext/sweep) own their protocol
//                               axis and ignore it.
// Sweep-capable benches (bench/sweep_ctqo_surface) additionally accept
//   --replications=R            seed-replications per grid point (default 3)
//   --jobs=J                    worker threads; artifacts are J-invariant
//   --sweep-out=DIR             reduced CSV + sweep manifest directory
//   --quick                     shrunken grid for CI smoke runs
// With tracing on, the run writes <DIR>/<name>.trace.json (Chrome
// trace_event format — load in chrome://tracing or ui.perfetto.dev) and
// <DIR>/<name>.trace_spans.csv, then prints the per-VLRT critical-path
// attribution table (docs/TRACING.md). With --dashboard, each run also
// renders the single-file HTML dashboard (report/dashboard.h) with the
// CTQO episodes and the correlation engine's verdict inlined.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/manifest.h"
#include "core/report.h"
#include "core/scenarios.h"
#include "core/testbed.h"
#include "metrics/csv.h"
#include "obs/incident_monitor.h"
#include "report/dashboard.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"

namespace ntier::bench {

struct BenchFlags {
  trace::TraceConfig config;        // mode kOff unless --trace given
  std::string out_dir = "trace_out";
  std::string dashboard_dir;        // empty = no dashboard
  obs::ObsConfig obs;               // enabled iff --incidents given
  // Sweep controls (sweep-capable benches only; sweep/engine.h):
  std::size_t replications = 3;     // --replications=R seed-replications/point
  std::size_t jobs = 1;             // --jobs=J worker threads (artifact-invariant)
  std::string sweep_out = "sweep_out";  // --sweep-out=DIR for CSV + manifest
  bool quick = false;               // --quick: shrunken grid for smoke runs
  std::string proto;                // --proto=NAME protocol profile ("" = default)
  bool bad = false;                 // an unparsable flag was seen
};

// Parses --trace= / --trace-out= / --dashboard= / --replications= /
// --jobs= / --sweep-out= / --quick from argv; prints usage on a bad flag.
inline BenchFlags parse_bench_flags(int argc, char** argv) {
  BenchFlags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--replications=", 0) == 0) {
      const long r = std::strtol(arg.c_str() + 15, nullptr, 10);
      if (r >= 1) f.replications = static_cast<std::size_t>(r);
      else f.bad = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const long j = std::strtol(arg.c_str() + 7, nullptr, 10);
      if (j >= 1) f.jobs = static_cast<std::size_t>(j);
      else f.bad = true;
    } else if (arg.rfind("--sweep-out=", 0) == 0) {
      f.sweep_out = arg.substr(12);
      if (f.sweep_out.empty()) f.bad = true;
    } else if (arg == "--quick") {
      f.quick = true;
    } else if (arg.rfind("--proto=", 0) == 0) {
      f.proto = arg.substr(8);
      if (f.proto.empty() || !net::ProtocolProfile::by_name(f.proto)) f.bad = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      f.out_dir = arg.substr(12);
      if (f.out_dir.empty()) f.bad = true;
    } else if (arg.rfind("--dashboard=", 0) == 0) {
      f.dashboard_dir = arg.substr(12);
      if (f.dashboard_dir.empty()) f.bad = true;
    } else if (arg.rfind("--incidents=", 0) == 0) {
      f.obs.out_dir = arg.substr(12);
      if (f.obs.out_dir.empty()) f.bad = true;
      else f.obs.enabled = true;
    } else if (arg.rfind("--flight-window=", 0) == 0) {
      const double w = std::strtod(arg.c_str() + 16, nullptr);
      if (w > 0.0) f.obs.flight.window = sim::Duration::from_seconds(w);
      else f.bad = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      const std::string mode = arg.substr(8);
      if (mode == "off") {
        f.config.mode = trace::TraceMode::kOff;
      } else if (mode == "all") {
        f.config.mode = trace::TraceMode::kAll;
      } else if (mode == "vlrt") {
        f.config.mode = trace::TraceMode::kVlrtOnly;
      } else if (mode.rfind("1in", 0) == 0) {
        const long n = std::strtol(mode.c_str() + 3, nullptr, 10);
        if (n >= 1) {
          f.config.mode = trace::TraceMode::kSampled;
          f.config.sample_every_n = static_cast<std::uint64_t>(n);
        } else {
          f.bad = true;
        }
      } else {
        f.bad = true;
      }
    } else {
      f.bad = true;
    }
  }
  if (f.bad) {
    std::fprintf(stderr,
                 "usage: %s [--trace=all|vlrt|1inN|off] [--trace-out=DIR] "
                 "[--dashboard=DIR] [--incidents=DIR] [--flight-window=SEC] "
                 "[--proto=NAME] [--replications=R] [--jobs=J] "
                 "[--sweep-out=DIR] [--quick]\n",
                 argc > 0 ? argv[0] : "fig");
  }
  return f;
}

// Applies --proto=NAME to a scenario config and prints a banner line so
// the output records which stack produced it. No-op (and no output)
// without the flag, keeping default bench output byte-identical.
inline void apply_proto_flag(core::ExperimentConfig& cfg, const BenchFlags& flags) {
  if (flags.proto.empty()) return;
  const auto p = net::ProtocolProfile::by_name(flags.proto);
  if (!p) return;  // parse_bench_flags already flagged it
  core::apply_protocol(cfg, *p);
  std::printf("protocol profile: %s (rto0=%.0fms admission=%s)\n", p->name.c_str(),
              p->rto.rto(0).to_millis(), net::to_string(p->admission));
}

// Wall-clock + engine-throughput accounting for one bench binary. The
// wall clock lives only in the bench harness — simulated runs never read
// it — so determinism of the artifacts is untouched; the [perf] line is
// the one intentionally run-varying output (scripts/run_benches.py
// collects it into BENCH_ntier.json).
class BenchPerf {
 public:
  explicit BenchPerf(std::string bench)
      : bench_(std::move(bench)), t0_(std::chrono::steady_clock::now()) {}
  void add_events(std::uint64_t n) { events_ += n; }
  void print() const {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    std::printf("[perf] bench=%s events=%llu wall_s=%.3f events_per_s=%.0f\n",
                bench_.c_str(), static_cast<unsigned long long>(events_), wall,
                wall > 0.0 ? static_cast<double>(events_) / wall : 0.0);
  }

 private:
  std::string bench_;
  std::uint64_t events_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

// Closes the incident monitor's books after a run — pending retroactive
// flight dump plus <name>.incident.json — and prints its report to
// stdout. Call right after run(), before maybe_dashboard. No-op when
// --incidents was not given.
inline void finalize_incidents(core::Testbed& sys) {
  obs::IncidentMonitor* om = sys.obs();
  if (om == nullptr) return;
  om->finalize(sys.simulation().now());
  const std::string report = om->to_string();
  if (!report.empty()) std::fputs(report.c_str(), stdout);
}

// The incident summary pointer manifests expect: non-null only when at
// least one incident fired (quiet runs keep byte-identical manifests).
inline const obs::IncidentSummary* incidents_for_manifest(
    const obs::IncidentMonitor* om, obs::IncidentSummary& storage) {
  if (om == nullptr) return nullptr;
  storage = om->summary();
  return storage.count > 0 ? &storage : nullptr;
}

// Writes <dir>/<name>.dashboard.html when --dashboard was given: the
// whole run (histogram, tier timelines, VLRT strip, CTQO episodes, and
// the correlation engine's causal-chain ranking) in one self-contained
// file, plus the <name>.manifest.json sidecar. Byte-identical for a
// fixed seed. With --incidents, fired incidents ride along into both
// (markers/table in the dashboard, the "incidents" manifest block).
inline void maybe_dashboard(const core::Testbed& sys, const BenchFlags& flags) {
  if (flags.dashboard_dir.empty()) return;
  const auto ctqo = core::analyze_ctqo(sys);
  const auto corr = core::correlate(sys);
  obs::IncidentSummary inc;
  const std::string path = report::write_dashboard(sys, ctqo, corr, flags.dashboard_dir,
                                                   sys.info().name, sys.obs());
  core::write_manifest(sys, flags.dashboard_dir, &ctqo,
                       incidents_for_manifest(sys.obs(), inc));
  std::printf("wrote %s (%s)\n", path.c_str(), core::to_string(corr.propagation));
}

// Post-run trace artifacts: writes the Chrome JSON + span CSV and prints
// the per-VLRT attribution against the run's CTQO episodes. No-op when
// tracing was off.
inline void export_traces(const core::Testbed& sys, const BenchFlags& flags) {
  const trace::Tracer* tracer = sys.tracer();
  if (tracer == nullptr) return;
  std::error_code ec;
  std::filesystem::create_directories(flags.out_dir, ec);
  const std::string base = flags.out_dir + "/" + sys.info().name;
  const std::string json_path = base + ".trace.json";
  const std::string csv_path = base + ".trace_spans.csv";
  const bool ok =
      metrics::write_file(json_path, trace::chrome_trace_json(tracer->traces())) &&
      metrics::write_file(csv_path, trace::spans_csv(tracer->traces()));

  std::printf("--- tracing (%s) ---\n", trace::to_string(tracer->config().mode));
  std::printf("requests traced %llu, retained %llu, discarded %llu%s\n",
              static_cast<unsigned long long>(tracer->begun()),
              static_cast<unsigned long long>(tracer->retained()),
              static_cast<unsigned long long>(tracer->discarded()),
              tracer->dropped_by_cap() > 0 ? " (retention cap hit)" : "");
  if (ok) {
    std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  } else {
    std::printf("FAILED writing trace artifacts under %s\n", flags.out_dir.c_str());
  }

  const auto table = core::attribute_vlrt(tracer->traces(), core::analyze_ctqo(sys),
                                          tracer->config().vlrt_threshold);
  std::puts(table.to_string().c_str());

  // A few full critical paths, so the figure's headline number ("~3 s of
  // RTO at the drop tier") is visible without opening the JSON.
  std::size_t shown = 0;
  for (const auto& tr : tracer->traces()) {
    if (!tr || tr->empty() || !tr->root().closed()) continue;
    if (tr->total() < tracer->config().vlrt_threshold) continue;
    std::puts(trace::critical_path(*tr).to_string().c_str());
    if (++shown >= 3) break;
  }
}

// Runs cfg and prints the standard three-panel figure layout:
//   (a) CPU demand of the named VMs (the millibottleneck evidence),
//   (b) queued requests per tier against their MaxSysQDepth,
//   (c) VLRT requests per 50 ms window,
// followed by the experiment summary and CTQO classification.
inline std::unique_ptr<core::NTierSystem> run_figure(
    const core::ExperimentConfig& cfg, const std::vector<std::string>& cpu_series,
    sim::Duration row_step = sim::Duration::seconds(1)) {
  std::puts(core::config_banner(cfg).c_str());
  auto sys = core::run_system(cfg);
  const sim::Time until = sys->simulation().now();

  std::puts("--- (a) CPU demand %, peak per row ---");
  std::puts(core::timeline_panel(sys->sampler(), cpu_series, until, row_step).c_str());

  std::printf("--- (b) queued requests per tier (MaxSysQDepth: %s=%zu %s=%zu %s=%zu) ---\n",
              sys->web()->name().c_str(), sys->web()->max_sys_q_depth(),
              sys->app()->name().c_str(), sys->app()->max_sys_q_depth(),
              sys->db()->name().c_str(), sys->db()->max_sys_q_depth());
  std::puts(core::timeline_panel(sys->sampler(),
                                 {sys->web()->name() + ".queue",
                                  sys->app()->name() + ".queue",
                                  sys->db()->name() + ".queue"},
                                 until, row_step)
                .c_str());

  std::puts("--- (c) VLRT requests per 50 ms window ---");
  std::puts(core::vlrt_panel(sys->latency()).c_str());

  auto summary = core::summarize(*sys);
  std::puts(summary.to_string().c_str());
  return sys;
}

}  // namespace ntier::bench
