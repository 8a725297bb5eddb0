// IncidentMonitor: online detection + retroactive capture for one run.
//
// Owns the detector suite (obs/detector.h) and the flight recorder
// (obs/flight_recorder.h) and wires both into a running system without
// touching the event stream:
//   - detection piggybacks on the existing 50 ms Sampler tick via
//     Sampler::add_tick_hook — each tick the monitor reads the window
//     value of every bound series (pure Timeline reads) and steps the
//     detectors;
//   - capture piggybacks on Tracer::set_finish_hook — every finished
//     span tree is offered to the ring, whatever the sampling mode.
// Neither hook schedules events, reads the clock beyond the tick's own
// timestamp, or draws randomness, so a run with the monitor enabled is
// event- and artifact-byte-identical to one without (DESIGN.md
// invariant 10 — enforced by tests/test_obs.cc).
//
// Incident lifecycle: a detector fire opens an Incident; the first fire
// of the run freezes the flight recorder and schedules a retroactive
// dump of [T-W, T+W] around the fire time T, written as soon as the
// simulation clock passes T+W (or at finalize() if the run ends first).
// finalize() also writes `<name>.incident.json` — the incident log,
// flight-recorder stats, and the retro-window slices of every bound
// series (the dump therefore contains the causal drop episode, not just
// its VLRT aftermath). File writes happen from within the tick but
// touch only the host filesystem, never the simulation.
//
// Layering: obs sits between monitor/trace and core — core builds an
// IncidentMonitor per system (config.obs), adapts its collect_signals()
// output into SeriesGroups, and report/bench surface the results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metrics/timeline.h"
#include "monitor/sampler.h"
#include "obs/detector.h"
#include "obs/flight_recorder.h"
#include "sim/time.h"
#include "trace/tracer.h"

namespace ntier::obs {

// Per-run observability configuration (carried on the system configs as
// `cfg.obs`; bench --incidents=/--flight-window= flags fill it).
struct ObsConfig {
  bool enabled = false;
  // Detector bindings; empty selects default_suite() over the system's
  // per-tier signals plus the VLRT burn-rate detector.
  std::vector<DetectorSpec> detectors;
  FlightRecorderConfig flight{};
  // Directory for incident artifacts (<name>.incident.json + flight
  // dumps); empty keeps everything in memory only.
  std::string out_dir;
  // Retroactive flight dumps per run (the first fire triggers one; 0
  // disables dumping while keeping detection).
  int max_dumps = 1;
  // Per-window VLRT count the default suite's burn-rate detector
  // tolerates before the window counts as "bad" (0: any VLRT burns).
  double vlrt_slo_count = 0.0;
};

// Non-owning pointers to the run's collectors; all must outlive the
// monitor. `tracer` may be null (tracing off): detection and timeline
// capture still run, only span capture is skipped.
struct Bindings {
  monitor::Sampler* sampler = nullptr;       // required
  telemetry::Registry* registry = nullptr;   // required
  const metrics::Timeline* vlrt = nullptr;   // kVlrtSeries binding
  trace::Tracer* tracer = nullptr;           // optional
  std::string run_name;                      // artifact file prefix
  std::vector<SeriesGroup> groups;           // for default_suite()
};

// Manifest-facing rollup (mirrors the ctqo_storm block pattern: the
// manifest emits it only when count > 0).
struct IncidentSummary {
  std::uint64_t count = 0;       // incidents fired
  std::uint64_t open = 0;        // never cleared by run end
  double first_fire_s = -1.0;    // seconds; -1 when none fired
  // Fired-incident count per detector name, name-sorted.
  std::vector<std::pair<std::string, std::uint64_t>> by_detector;
};

// The per-run monitor: detector suite + flight recorder + artifacts.
class IncidentMonitor {
 public:
  // Built from the run's cfg.obs; inert until attach() installs hooks.
  explicit IncidentMonitor(ObsConfig cfg);
  // Auto-finalizes (writing pending artifacts) if finalize() never ran.
  ~IncidentMonitor();

  // Non-copyable: owns hook registrations and the recorder ring.
  IncidentMonitor(const IncidentMonitor&) = delete;
  IncidentMonitor& operator=(const IncidentMonitor&) = delete;

  // Resolves detector bindings against the registry and installs the
  // sampler/tracer hooks. Call once, before the run starts.
  void attach(Bindings b);

  // The configuration this monitor was built from.
  const ObsConfig& config() const { return cfg_; }
  // All incidents in fire order (open ones have cleared == false).
  const std::vector<Incident>& incidents() const { return incidents_; }
  // Null when no tracer was bound (or obs built detection-only).
  const FlightRecorder* recorder() const { return recorder_.get(); }

  // Closes the books at simulated `end`: performs a still-pending
  // retroactive dump and writes <name>.incident.json when out_dir is
  // set. Idempotent; benches call it right after the run.
  void finalize(sim::Time end);
  bool finalized() const { return finalized_; }

  // Manifest-facing rollup of the incident log (see IncidentSummary).
  IncidentSummary summary() const;
  // The retroactive window [from, to) actually captured; valid iff
  // have_dump_window() (at least one incident fired).
  bool have_dump_window() const { return have_window_; }
  sim::Time dump_from() const { return dump_from_; }
  sim::Time dump_to() const { return dump_to_; }
  // Span trees captured in the retro window at dump time.
  std::size_t dumped_traces() const { return dumped_traces_; }
  // Paths written so far (flight dumps + incident.json).
  const std::vector<std::string>& written_files() const { return written_; }

  // Human-readable report for bench stdout (incidents, flight stats,
  // written paths); "" when nothing fired and nothing was written.
  std::string to_string() const;

 private:
  // One spec bound to its timeline (null = series absent in this run;
  // the detector then sees a constant 0 and stays quiet).
  struct Bound {
    Detector det;
    const metrics::Timeline* tl = nullptr;
    int open_incident = -1;  // index into incidents_, -1 when idle
    explicit Bound(DetectorSpec s) : det(std::move(s)) {}
  };

  void on_tick(sim::Time wstart);
  void trigger_capture(sim::Time fired_at);
  void do_dump(sim::Time at);
  void write_incident_json(sim::Time end);

  ObsConfig cfg_;
  Bindings b_;
  bool attached_ = false;
  bool finalized_ = false;
  sim::Duration window_ = sim::Duration::millis(50);
  std::vector<Bound> bound_;
  std::vector<Incident> incidents_;
  std::unique_ptr<FlightRecorder> recorder_;

  bool capture_pending_ = false;
  bool have_window_ = false;
  int dumps_done_ = 0;
  sim::Time trigger_;
  sim::Time dump_from_;
  sim::Time dump_to_;
  std::size_t dumped_traces_ = 0;
  sim::Time last_tick_end_;
  std::vector<std::string> written_;
};

}  // namespace ntier::obs
