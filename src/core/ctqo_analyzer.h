// CTQO analyzer: micro-level event analysis of a finished run.
//
// Implements the paper's diagnostic reasoning: cluster dropped packets
// into episodes, find the millibottleneck (a VM whose demand or stall
// pegged at ~100% just before/during the drops — or a saturated disk),
// and classify the episode —
//   upstream CTQO:   drops at a tier *above* the bottleneck tier
//                    (queue overflow pushed back through RPC waits);
//   downstream CTQO: drops at or *below* the bottleneck tier (an async
//                    upstream flooded it, or it overflowed locally).
//
// On top of the paper's classification, the analyzer flags *retry
// storms*: episode chains where the offered rate at the drop tier (TCP
// retransmits + policy-layer retries) stays above the drain rate for
// several RTOs — the metastable regime where retries stop being a
// tail-latency cure and become the amplifier that sustains the CTQO.
//
// Works on the paper's 3-tier NTierSystem and, through the generic
// tier-view entry point, on service graphs of any depth
// (graph::analyze_ctqo, chain-shaped graphs included).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "monitor/sampler.h"
#include "server/server_base.h"
#include "trace/critical_path.h"

namespace ntier::core {

class NTierSystem;

// One drop cluster with its attributed millibottleneck: where packets
// were lost, which tier was saturated just before, and which way the
// queue pressure travelled.
struct CtqoEpisode {
  // Episode extent and the tier that dropped.
  sim::Time start;  // first drop of the cluster
  sim::Time end;    // last drop of the cluster
  int drop_tier = 0;
  std::string drop_tier_name;
  std::uint64_t drops = 0;
  bool bottleneck_found = false;
  int bottleneck_tier = 0;
  std::string bottleneck_name;
  sim::Time bottleneck_at;  // first saturated window near the episode
  enum class Kind { kUpstream, kDownstream, kUnknown } kind = Kind::kUnknown;
  // Retry-storm classification (orthogonal to Kind): this episode is part
  // of a sustained chain where offered load at the drop tier exceeded its
  // drain rate — queue growth kept alive by retransmission/retry
  // feedback rather than by the original burst.
  bool retry_storm = false;
  // Mean offered / mean completed at the drop tier over the storm chain
  // (only meaningful when retry_storm is set).
  double storm_amplification = 0.0;
  // Extent of the storm chain this episode belongs to (first drop of the
  // chain to its last), and the worst offered/drain ratio seen in any
  // one-second slice of the chain — the storm's peak intensity, which a
  // long tail of mild overload would otherwise average away. Only
  // meaningful when retry_storm is set; all episodes of one chain share
  // the same values.
  sim::Duration storm_duration = sim::Duration::zero();
  double storm_peak_amplification = 0.0;
  std::string to_string() const;
};

// All episodes of one run plus the headline counters.
struct CtqoReport {
  // Episodes in start order; counters aggregate their classifications.
  std::vector<CtqoEpisode> episodes;
  std::uint64_t total_drops = 0;
  std::uint64_t upstream_episodes = 0;
  std::uint64_t downstream_episodes = 0;
  std::uint64_t retry_storm_episodes = 0;
  // Storm aggregates across every chain of the run (zero when no storm):
  // duration of the longest chain and the worst one-second peak
  // amplification anywhere. Surfaced in the run manifest.
  sim::Duration longest_storm = sim::Duration::zero();
  double peak_retry_amplification = 0.0;
  std::string to_string() const;
};

// Episode clustering and bottleneck-attribution thresholds.
struct AnalyzerOptions {
  // Drops separated by more than this belong to different episodes.
  sim::Duration episode_gap = sim::Duration::seconds(2);
  // Demand/stall/disk-busy % that counts as a millibottleneck.
  double saturation_pct = 99.0;
  // How far before the first drop to look for the bottleneck.
  sim::Duration lookback = sim::Duration::seconds(2);
  // --- retry-storm detection -------------------------------------------
  // Episodes at the same tier closer than this are chained into one
  // storm candidate. Must exceed episode_gap: a fixed 3 s RTO spaces
  // retransmission waves ~3 s apart, which would otherwise split a
  // single storm into separate episodes.
  sim::Duration storm_merge_gap = sim::Duration::from_seconds(3.5);
  // A chain shorter than this is an ordinary millibottleneck transient,
  // not a storm (several RTOs must have passed without recovery).
  sim::Duration storm_min_duration = sim::Duration::seconds(5);
  // Offered-rate / drain-rate ratio above which the chain is metastable.
  double storm_amplification = 1.5;
};

// One analyzable tier: its server, the steady VM's sampler prefix, and
// (optionally) the sampler prefix of an attached disk ("" = none).
struct TierView {
  server::Server* server = nullptr;
  std::string vm_prefix;
  std::string disk_prefix;
};

// Generic entry point over an ordered front-to-back tier list.
CtqoReport analyze_tiers(const std::vector<TierView>& tiers,
                         const monitor::Sampler& sampler,
                         AnalyzerOptions opt = AnalyzerOptions());

// Convenience for the paper's 3-tier system.
CtqoReport analyze_ctqo(NTierSystem& sys, AnalyzerOptions opt = AnalyzerOptions());

// --- per-VLRT attribution (closes the loop: VLRT -> episode -> tier) ----
//
// For each retained trace above the VLRT line, the critical path names
// where the request's seconds went; when the dominant cost is an RTO
// retransmission gap, the gap's receiver tier is the dropping tier and
// the gap's start instant (== the drop instant) is matched against the
// drop episodes above. The table is the paper's Fig 2/3 narrative, one
// row per request: "this 3.2 s request spent 3.0 s retransmitting into
// mysql during episode 0".
struct VlrtAttributionRow {
  std::uint64_t request_id = 0;
  sim::Duration latency;           // end-to-end (root span duration)
  trace::CriticalPath::Item dominant;  // largest critical-path bucket
  sim::Duration rto_time;          // total rto_gap time across all hops
  double rto_share = 0.0;          // rto_time / latency
  // Receiver side of the largest rto_gap hop ("mysql" from
  // "tomcat->mysql"); empty when the request lost no time to RTO gaps.
  std::string drop_tier;
  // Index into CtqoReport::episodes containing the first retransmission
  // at that tier; -1 when unmatched (e.g. drops outside every episode
  // window, or no RTO involvement at all).
  int episode = -1;
  std::string to_string() const;
};

// The attribution rows for every traced VLRT request of a run.
struct VlrtAttributionTable {
  std::vector<VlrtAttributionRow> rows;  // completion order
  std::string to_string() const;         // header + rows + tier summary
};

// Builds the table from the retained traces and the episode report.
VlrtAttributionTable attribute_vlrt(
    const std::vector<trace::TracePtr>& traces,
    const CtqoReport& report,
    sim::Duration vlrt_threshold = sim::Duration::seconds(3));

}  // namespace ntier::core
