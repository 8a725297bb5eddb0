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

#include "core/testbed.h"

namespace ntier::core {

struct CtqoReport;

// Renders the manifest for a finished run: the RunInfo identity (kind
// "ntier" with the architecture in "arch", or kind "graph"), the flat
// tier names front to back, the run totals and the registry snapshot.
// When a CTQO report is supplied and it detected retry storms, a
// "ctqo_storm" block (episode count, longest storm, peak retry
// amplification) is included; storm-free runs emit byte-identical
// manifests either way.
// When an obs incident summary with count > 0 is supplied, an
// "incidents" block (count, open, first-fire time, per-detector
// breakdown) rides along the same way — incident-free runs (or callers
// not passing a summary) emit byte-identical manifests.
std::string run_manifest_json(const Testbed& sys, const CtqoReport* ctqo = nullptr,
                              const obs::IncidentSummary* incidents = nullptr);

// Writes <dir>/<name>.manifest.json (creating dir if needed); returns
// the path, or "" on write failure.
std::string write_manifest(const Testbed& sys, const std::string& dir,
                           const CtqoReport* ctqo = nullptr,
                           const obs::IncidentSummary* incidents = nullptr);

}  // namespace ntier::core
