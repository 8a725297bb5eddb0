#include "core/manifest.h"

#include <cinttypes>
#include <filesystem>

#include "core/ctqo_analyzer.h"
#include "metrics/csv.h"
#include "sim/format.h"

namespace ntier::core {

namespace {

// The tail after the run identity: optional storm/incident blocks, the
// run totals, and the registry's scalar snapshot. Keys are emitted in a
// fixed order (snapshot() is name-sorted), keeping the manifest
// byte-deterministic.
void append_tail(std::string& out, const Testbed& sys, const CtqoReport* ctqo,
                 const obs::IncidentSummary* incidents) {
  const monitor::LatencyCollector& lat = sys.latency();
  // Storm aggregates ride along only when the analyzer flagged storms,
  // so storm-free manifests stay byte-identical to pre-report ones.
  if (ctqo != nullptr && ctqo->retry_storm_episodes > 0) {
    sim::appendf(out,
                 "  \"ctqo_storm\": {\n    \"episodes\": %" PRIu64
                 ",\n    \"longest_storm_s\": %.10g"
                 ",\n    \"peak_retry_amplification\": %.10g\n  },\n",
                 ctqo->retry_storm_episodes, ctqo->longest_storm.to_seconds(),
                 ctqo->peak_retry_amplification);
  }
  // Same pattern for online incidents: the block appears only when at
  // least one detector fired, so incident-free manifests stay
  // byte-identical to pre-obs ones.
  if (incidents != nullptr && incidents->count > 0) {
    sim::appendf(out,
                 "  \"incidents\": {\n    \"count\": %" PRIu64 ",\n    \"open\": %" PRIu64
                 ",\n    \"first_fire_s\": %.10g,\n    \"by_detector\": {",
                 incidents->count, incidents->open, incidents->first_fire_s);
    bool first_det = true;
    for (const auto& [name, count] : incidents->by_detector) {
      out += first_det ? "\n      " : ",\n      ";
      first_det = false;
      sim::append_json_string(out, name);
      sim::appendf(out, ": %" PRIu64, count);
    }
    out += "\n    }\n  },\n";
  }
  sim::appendf(out,
               "  \"totals\": {\n    \"completed\": %" PRIu64 ",\n    \"vlrt\": %" PRIu64
               ",\n    \"dropped_requests\": %" PRIu64 ",\n    \"failed\": %" PRIu64
               ",\n    \"dropped_packets\": %" PRIu64 ",\n    \"events_executed\": %" PRIu64
               "\n  },\n  \"registry\": {",
               lat.completed(), lat.vlrt_count(), lat.dropped_request_count(), lat.failed_count(),
               sys.total_drops(), sys.simulation().events_executed());
  bool first = true;
  for (const auto& [name, value] : sys.registry().snapshot()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    sim::append_json_string(out, name);
    sim::appendf(out, ": %.10g", value);
  }
  out += "\n  }\n}\n";
}

}  // namespace

std::string run_manifest_json(const Testbed& sys, const CtqoReport* ctqo,
                              const obs::IncidentSummary* incidents) {
  const RunInfo& run = sys.info();
  std::string out = "{\n  \"schema\": \"ntier.run-manifest/1\",\n  \"kind\": ";
  sim::append_json_string(out, run.kind);
  out += ",\n  \"name\": ";
  sim::append_json_string(out, run.name);
  if (!run.arch.empty()) {
    out += ",\n  \"arch\": ";
    sim::append_json_string(out, run.arch);
  }
  sim::appendf(out,
               ",\n  \"seed\": %" PRIu64 ",\n  \"duration_s\": %.10g"
               ",\n  \"sample_window_ms\": %.10g,\n  \"sessions\": %" PRIu64
               ",\n  \"tiers\": [",
               run.seed, run.duration.to_seconds(), run.sample_window.to_millis(), run.sessions);
  for (std::size_t i = 0; i < sys.flat_count(); ++i) {
    if (i > 0) out += ", ";
    sim::append_json_string(out, sys.server_flat(i)->name());
  }
  out += "],\n";
  append_tail(out, sys, ctqo, incidents);
  return out;
}

std::string write_manifest(const Testbed& sys, const std::string& dir,
                           const CtqoReport* ctqo, const obs::IncidentSummary* incidents) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + sys.info().name + ".manifest.json";
  return metrics::write_file(path, run_manifest_json(sys, ctqo, incidents)) ? path
                                                                             : std::string();
}

}  // namespace ntier::core
