// Automated millibottleneck -> VLRT correlation engine.
//
// The paper's diagnosis (Figs 3, 5, 7-9) was done by hand: overlay the
// 50 ms resource timelines, the per-tier queue/drop series, and the VLRT
// windows, then eyeball which saturation spike lines up with which drop
// burst and which VLRT cluster 3 s later. This module automates that
// reasoning from the telemetry registry's timelines alone — it is given
// no scenario knowledge (which figure, which bottleneck was injected),
// only the per-tier series names and the VLRT series.
//
// Method: lagged Pearson cross-correlation over the shared 50 ms window
// grid. For every candidate saturation series S (VM demand/stall, disk
// busy) and every tier D that dropped packets, the engine scores the
// two-link causal chain
//
//     S  --fill lag-->  D.dropped  --RTO lag-->  VLRT per window
//
// where the first link captures queue fill (saturation precedes the
// overflow by roughly the time the queues take to fill, sub-second) and
// the second captures the paper's signature: a dropped SYN/packet
// surfaces as a client VLRT one retransmission timeout (~3 s) after the
// drop. A chain's score is the weaker of its two link correlations, so
// a spuriously co-moving series that cannot explain the drops (or drops
// that cannot explain the VLRTs) ranks low. The top chain names the
// bottleneck device and the RTO-link lag is the headline "saturation
// causes VLRT at ~3 s" number.
//
// The engine also classifies queue-depth propagation direction the same
// way the paper distinguishes its architectures: drops concentrated
// *above* the bottleneck tier mean the overflow pushed back through
// RPC waits (upstream CTQO, fully synchronous stacks), drops at or
// *below* it mean an asynchronous upstream flooded it (downstream
// CTQO), and no drops at all means the chain absorbed the burst
// (fully asynchronous stacks). Drops that no chain above min_link_r
// explains are named but classified absent: there is no evidence of
// where the pressure came from.
//
// Determinism: lag sweeps ascend and only a strictly greater r replaces
// the incumbent, candidate enumeration order is fixed (front-to-back
// tiers, disk before VM series), and no randomness is drawn — the same
// run yields byte-identical reports.
#pragma once

#include <string>
#include <vector>

#include "metrics/timeline.h"
#include "obs/detector.h"
#include "sim/time.h"
#include "telemetry/registry.h"

namespace ntier::core {

class Testbed;

// One lag-swept correlation: source leads target by `lag_windows`.
struct LagCorrelation {
  std::string source;
  std::string target;
  int lag_windows = 0;
  double lag_seconds = 0.0;
  double r = 0.0;  // Pearson coefficient at the best (strictly max) lag
  std::string to_string() const;
};

// A scored saturation -> drops -> VLRT chain.
struct CausalChain {
  int bottleneck_tier = -1;       // tier owning the saturation series
  std::string saturation_series;  // e.g. "dbdisk.busy", "tomcat.demand"
  int drop_tier = -1;
  std::string drop_series;  // e.g. "apache.dropped"
  LagCorrelation fill;      // saturation -> drops (queue-fill lag)
  LagCorrelation rto;       // drops -> VLRT (the ~3 s retransmission lag)
  double score = 0.0;       // min(fill.r, rto.r)
  std::string to_string() const;
};

// Which way queue pressure travelled (kAbsent = no CTQO evidence).
enum class Propagation { kUpstream, kDownstream, kAbsent };
const char* to_string(Propagation p);

// The correlation engine's full answer over one run's telemetry.
struct CorrelationReport {
  // Chains whose score reaches min_link_r, best first (score desc;
  // enumeration order breaks ties).
  std::vector<CausalChain> chains;
  // Every candidate series correlated directly against VLRT, r desc —
  // the "ranked pairs" table a human would scan for spurious matches.
  std::vector<LagCorrelation> direct;

  // Conclusion: drawn from the dominant drop tier (most drops) and the
  // best surviving chain (an entry of `chains`) explaining it. With no
  // drops, or drops that no surviving chain explains, propagation is
  // kAbsent and bottleneck_tier stays -1; the drop tier is still named.
  Propagation propagation = Propagation::kAbsent;
  int drop_tier = -1;
  std::string drop_tier_name;
  int bottleneck_tier = -1;
  std::string bottleneck_series;  // saturation series of that chain

  // Supporting evidence: when each tier's queue first reached half its
  // run maximum (seconds; -1 when the queue never grew). Upstream CTQO
  // shows back-to-front onset, downstream shows front-to-back.
  std::vector<std::pair<std::string, double>> queue_onsets;

  // Multi-line human-readable rendering.
  std::string to_string() const;
};

// What the engine reads: registry series names per tier plus the VLRT
// series. Tier order is front (client-facing) to back.
struct TierSignals {
  std::string name;                     // server/tier name ("apache")
  std::vector<std::string> saturation;  // candidate series, disk first
  std::string dropped;                  // "<name>.dropped"
  std::string queue;                    // "<name>.queue"
};
// The bundle of series the correlator reads: one registry, the VLRT
// timeline, and the per-tier signal names.
struct SignalSet {
  // Non-owning; both must outlive the correlate() call.
  const telemetry::Registry* registry = nullptr;
  const metrics::Timeline* vlrt = nullptr;  // 50 ms VLRT counts
  std::vector<TierSignals> tiers;
  sim::Duration window = sim::Duration::millis(50);
};

// Tuning knobs for the lag-correlation search.
struct CorrelateOptions {
  // Saturation candidates are correlated as 0/1 pegged-window indicators
  // (value >= this %), the paper's millibottleneck definition — raw
  // utilization co-moves with the *consequences* of backpressure and
  // would misattribute the bottleneck.
  double saturation_pct = 99.0;
  // Queue-fill link sweep bound: saturation may lead drops by up to this
  // many windows (2 s at 50 ms).
  int max_fill_lag_windows = 40;
  // RTO link sweep bound: drops may lead VLRTs by up to this many
  // windows (5 s covers the 3 s RTO plus residual queueing).
  int max_rto_lag_windows = 100;
  // Chains whose weaker link falls below this are noise and are pruned.
  double min_link_r = 0.05;
};

// Signal extraction (no analysis): names every per-tier saturation/queue/
// drop series a built system publishes, in flat tier order.
SignalSet collect_signals(const Testbed& sys);

// Adapts a SignalSet into the obs detector suite's per-tier series
// groups — the same series the offline engine correlates are what the
// online detectors (obs/detector.h default_suite) watch, which is what
// makes online-vs-offline precision/recall scoring apples-to-apples.
std::vector<obs::SeriesGroup> detector_groups(const SignalSet& s);

// The engine proper. Pure function of the signals: reads timelines,
// schedules nothing, draws no randomness (DESIGN.md invariant 10).
CorrelationReport correlate_signals(const SignalSet& s,
                                    CorrelateOptions opt = CorrelateOptions());

// Convenience wrapper: correlate_signals(collect_signals(sys)).
CorrelationReport correlate(const Testbed& sys, CorrelateOptions opt = CorrelateOptions());

}  // namespace ntier::core
