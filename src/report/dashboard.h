// Single-file HTML run dashboard (inline SVG, no external assets).
#pragma once

#include <string>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"

namespace ntier::core {
class NTierSystem;
}  // namespace ntier::core

namespace ntier::graph {
class GraphSystem;
}  // namespace ntier::graph

namespace ntier::obs {
class IncidentMonitor;
}  // namespace ntier::obs

namespace ntier::report {

// Renders the full run dashboard as one self-contained HTML document:
// latency histogram, per-tier saturation and queue timelines with CTQO
// episode shading, the VLRT strip, the ranked correlation table, and the
// registry counter snapshot. Deterministic: same run, same bytes.
//
// When an IncidentMonitor with at least one fired incident is supplied,
// the dashboard additionally shows incident fire-time markers on the
// panels, an incident table, and a machine-readable
// `<script type="application/json" id="incident-data">` island (series
// names JS-escaped). Passing null — or a monitor that never fired —
// yields bytes identical to the incident-free dashboard.
std::string render_dashboard(const core::NTierSystem& sys, const core::CtqoReport& ctqo,
                             const core::CorrelationReport& corr,
                             const obs::IncidentMonitor* om = nullptr);
std::string render_dashboard(const graph::GraphSystem& sys, const core::CtqoReport& ctqo,
                             const core::CorrelationReport& corr,
                             const obs::IncidentMonitor* om = nullptr);

// Renders and writes `<dir>/<name>.dashboard.html`; returns the path.
std::string write_dashboard(const core::NTierSystem& sys, const core::CtqoReport& ctqo,
                            const core::CorrelationReport& corr, const std::string& dir,
                            const std::string& name,
                            const obs::IncidentMonitor* om = nullptr);
std::string write_dashboard(const graph::GraphSystem& sys, const core::CtqoReport& ctqo,
                            const core::CorrelationReport& corr, const std::string& dir,
                            const std::string& name,
                            const obs::IncidentMonitor* om = nullptr);

}  // namespace ntier::report
