// Run manifest: the reproducibility sidecar written next to every
// exported artifact (CSV bundles, dashboards).
//
// One small JSON object answering "what run produced this file?": the
// scenario name, seed, duration, sampling window, stack shape, and the
// telemetry registry's full scalar snapshot (every counter, gauge, and
// probe total). Deterministic — same config + seed yields a
// byte-identical manifest, so sidecars diff cleanly across runs.
#pragma once

#include <string>

#include "core/system.h"

namespace ntier::core {

struct CtqoReport;

// Renders the manifest for a finished 3-tier run (kind "ntier", with
// the architecture in "arch"). When a CTQO report is supplied and it
// detected retry storms, a "ctqo_storm" block (episode count, longest
// storm, peak retry amplification) is included; storm-free runs emit
// byte-identical manifests either way.
// When an obs incident summary with count > 0 is supplied, an
// "incidents" block (count, open, first-fire time, per-detector
// breakdown) rides along the same way — incident-free runs (or callers
// not passing a summary) emit byte-identical manifests.
std::string run_manifest_json(const NTierSystem& sys,
                              const CtqoReport* ctqo = nullptr,
                              const obs::IncidentSummary* incidents = nullptr);

// Generic manifest entry every system shape renders through (the
// service-graph engine lives above core in the layer stack and fills
// one too): callers fill the run identity plus non-owning pointers to
// the collectors. `tiers` lists server names front to back (flattened
// replicas for graphs).
struct ManifestRun {
  std::string kind;  // "ntier" or "graph"
  std::string name;
  std::string arch;  // written after "name" only when non-empty
  std::uint64_t seed = 0;
  sim::Duration duration = sim::Duration::zero();
  sim::Duration sample_window = sim::Duration::zero();
  std::uint64_t sessions = 0;
  std::vector<std::string> tiers;
  std::uint64_t total_drops = 0;
  std::uint64_t events_executed = 0;
  const monitor::LatencyCollector* latency = nullptr;  // required
  const telemetry::Registry* registry = nullptr;       // required
};
std::string run_manifest_json(const ManifestRun& run, const CtqoReport* ctqo = nullptr,
                              const obs::IncidentSummary* incidents = nullptr);

// Writes <dir>/<name>.manifest.json (creating dir if needed); returns
// the path, or "" on write failure.
std::string write_manifest(const NTierSystem& sys, const std::string& dir,
                           const CtqoReport* ctqo = nullptr,
                           const obs::IncidentSummary* incidents = nullptr);
std::string write_manifest(const ManifestRun& run, const std::string& dir,
                           const CtqoReport* ctqo = nullptr,
                           const obs::IncidentSummary* incidents = nullptr);

}  // namespace ntier::core
