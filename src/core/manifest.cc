#include "core/manifest.h"

#include <cstdio>
#include <filesystem>

#include "core/ctqo_analyzer.h"
#include "metrics/csv.h"

namespace ntier::core {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

// Shared tail: totals from the latency collector + the registry's
// scalar snapshot. Keys are emitted in a fixed order (snapshot() is
// name-sorted), keeping the manifest byte-deterministic.
void append_common(std::string& out, const monitor::LatencyCollector& lat,
                   std::uint64_t total_drops, std::uint64_t events,
                   const telemetry::Registry& reg,
                   const CtqoReport* ctqo,
                   const obs::IncidentSummary* incidents) {
  // Storm aggregates ride along only when the analyzer flagged storms,
  // so storm-free manifests stay byte-identical to pre-report ones.
  if (ctqo != nullptr && ctqo->retry_storm_episodes > 0) {
    out += "  \"ctqo_storm\": {\n    \"episodes\": ";
    append_u64(out, ctqo->retry_storm_episodes);
    out += ",\n    \"longest_storm_s\": ";
    append_num(out, ctqo->longest_storm.to_seconds());
    out += ",\n    \"peak_retry_amplification\": ";
    append_num(out, ctqo->peak_retry_amplification);
    out += "\n  },\n";
  }
  // Same pattern for online incidents: the block appears only when at
  // least one detector fired, so incident-free manifests stay
  // byte-identical to pre-obs ones.
  if (incidents != nullptr && incidents->count > 0) {
    out += "  \"incidents\": {\n    \"count\": ";
    append_u64(out, incidents->count);
    out += ",\n    \"open\": ";
    append_u64(out, incidents->open);
    out += ",\n    \"first_fire_s\": ";
    append_num(out, incidents->first_fire_s);
    out += ",\n    \"by_detector\": {";
    bool first_det = true;
    for (const auto& [name, count] : incidents->by_detector) {
      out += first_det ? "\n      " : ",\n      ";
      first_det = false;
      append_escaped(out, name);
      out += ": ";
      append_u64(out, count);
    }
    out += "\n    }\n  },\n";
  }
  out += "  \"totals\": {\n    \"completed\": ";
  append_u64(out, lat.completed());
  out += ",\n    \"vlrt\": ";
  append_u64(out, lat.vlrt_count());
  out += ",\n    \"dropped_requests\": ";
  append_u64(out, lat.dropped_request_count());
  out += ",\n    \"failed\": ";
  append_u64(out, lat.failed_count());
  out += ",\n    \"dropped_packets\": ";
  append_u64(out, total_drops);
  out += ",\n    \"events_executed\": ";
  append_u64(out, events);
  out += "\n  },\n  \"registry\": {";
  bool first = true;
  for (const auto& [name, value] : reg.snapshot()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, name);
    out += ": ";
    append_num(out, value);
  }
  out += "\n  }\n}\n";
}

std::string write_to(const std::string& json, const std::string& dir,
                     const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name + ".manifest.json";
  return metrics::write_file(path, json) ? path : std::string();
}

ManifestRun manifest_run(const NTierSystem& sys) {
  const auto& cfg = sys.config();
  ManifestRun run;
  run.kind = "ntier";
  run.name = cfg.name;
  run.arch = to_string(cfg.system.arch);
  run.seed = cfg.seed;
  run.duration = cfg.duration;
  run.sample_window = cfg.sample_window;
  run.sessions = cfg.workload.sessions;
  for (Tier t : {Tier::kWeb, Tier::kApp, Tier::kDb}) {
    run.tiers.push_back(sys.tier(t)->name());
    run.total_drops += sys.tier(t)->stats().dropped;
  }
  run.events_executed = sys.simulation().events_executed();
  run.latency = &sys.latency();
  run.registry = &sys.registry();
  return run;
}

}  // namespace

std::string run_manifest_json(const NTierSystem& sys, const CtqoReport* ctqo,
                              const obs::IncidentSummary* incidents) {
  return run_manifest_json(manifest_run(sys), ctqo, incidents);
}

std::string run_manifest_json(const ManifestRun& run, const CtqoReport* ctqo,
                              const obs::IncidentSummary* incidents) {
  std::string out = "{\n  \"schema\": \"ntier.run-manifest/1\",\n  \"kind\": ";
  append_escaped(out, run.kind);
  out += ",\n  \"name\": ";
  append_escaped(out, run.name);
  if (!run.arch.empty()) {
    out += ",\n  \"arch\": ";
    append_escaped(out, run.arch);
  }
  out += ",\n  \"seed\": ";
  append_u64(out, run.seed);
  out += ",\n  \"duration_s\": ";
  append_num(out, run.duration.to_seconds());
  out += ",\n  \"sample_window_ms\": ";
  append_num(out, run.sample_window.to_millis());
  out += ",\n  \"sessions\": ";
  append_u64(out, run.sessions);
  out += ",\n  \"tiers\": [";
  for (std::size_t i = 0; i < run.tiers.size(); ++i) {
    if (i > 0) out += ", ";
    append_escaped(out, run.tiers[i]);
  }
  out += "],\n";
  append_common(out, *run.latency, run.total_drops, run.events_executed,
                *run.registry, ctqo, incidents);
  return out;
}

std::string write_manifest(const NTierSystem& sys, const std::string& dir,
                           const CtqoReport* ctqo, const obs::IncidentSummary* incidents) {
  return write_manifest(manifest_run(sys), dir, ctqo, incidents);
}

std::string write_manifest(const ManifestRun& run, const std::string& dir,
                           const CtqoReport* ctqo, const obs::IncidentSummary* incidents) {
  return write_to(run_manifest_json(run, ctqo, incidents), dir, run.name);
}

}  // namespace ntier::core
