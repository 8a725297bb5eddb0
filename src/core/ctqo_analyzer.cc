#include "core/ctqo_analyzer.h"

#include <algorithm>
#include <cinttypes>

#include "core/testbed.h"
#include "sim/format.h"

namespace ntier::core {

namespace {

struct DropEvent {
  sim::Time at;
  int tier;
};

}  // namespace

std::string CtqoEpisode::to_string() const {
  const char* k = kind == Kind::kUpstream     ? "upstream CTQO"
                  : kind == Kind::kDownstream ? "downstream CTQO"
                                              : "unclassified";
  std::string out;
  sim::appendf(out, "[%7.2fs - %7.2fs] %" PRIu64 " drops at %s; ", start.to_seconds(),
               end.to_seconds(), drops, drop_tier_name.c_str());
  if (bottleneck_found)
    sim::appendf(out, "millibottleneck at %s (%.2fs) -> ", bottleneck_name.c_str(),
                 bottleneck_at.to_seconds());
  out += k;
  if (retry_storm)
    sim::appendf(out, " [RETRY STORM: offered %.2fx drain, %.1fs, peak %.2fx]",
                 storm_amplification, storm_duration.to_seconds(), storm_peak_amplification);
  return out;
}

std::string CtqoReport::to_string() const {
  std::string out;
  sim::appendf(out,
               "CTQO report: %" PRIu64 " dropped packets, %zu episodes (%" PRIu64
               " upstream, %" PRIu64 " downstream, %" PRIu64 " in retry storms)\n",
               total_drops, episodes.size(), upstream_episodes, downstream_episodes,
               retry_storm_episodes);
  if (retry_storm_episodes > 0)
    sim::appendf(out, "  longest storm %.1fs, peak retry amplification %.2fx\n",
                 longest_storm.to_seconds(), peak_retry_amplification);
  for (const auto& e : episodes) out += "  " + e.to_string() + "\n";
  return out;
}

CtqoReport analyze_ctqo(const Testbed& sys, AnalyzerOptions opt) {
  CtqoReport report;
  const std::size_t n = sys.flat_count();
  const monitor::Sampler& sampler = sys.sampler();

  // Gather all admission drops, tagged by tier index.
  std::vector<DropEvent> events;
  for (std::size_t t = 0; t < n; ++t) {
    for (sim::Time at : sys.server_flat(t)->drop_times())
      events.push_back({at, static_cast<int>(t)});
  }
  report.total_drops = events.size();
  if (events.empty()) return report;
  std::sort(events.begin(), events.end(),
            [](const DropEvent& a, const DropEvent& b) { return a.at < b.at; });

  // Cluster into episodes by time gap.
  std::vector<std::pair<std::size_t, std::size_t>> clusters;  // [first, last]
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= events.size(); ++i) {
    if (i == events.size() || events[i].at - events[i - 1].at > opt.episode_gap) {
      clusters.emplace_back(begin, i - 1);
      begin = i;
    }
  }

  for (auto [lo, hi] : clusters) {
    CtqoEpisode ep;
    ep.start = events[lo].at;
    ep.end = events[hi].at;
    ep.drops = hi - lo + 1;
    // Dominant drop tier of the cluster.
    std::vector<std::uint64_t> per_tier(n, 0);
    for (std::size_t i = lo; i <= hi; ++i) ++per_tier[events[i].tier];
    int best = 0;
    for (std::size_t t = 1; t < n; ++t)
      if (per_tier[t] > per_tier[best]) best = static_cast<int>(t);
    ep.drop_tier = best;
    ep.drop_tier_name = sys.server_flat(best)->name();

    // Millibottleneck: earliest tier whose VM demand or stall — or whose
    // disk — saturated in [start - lookback, end].
    const sim::Time from =
        ep.start.count_micros() > opt.lookback.count_micros()
            ? ep.start - opt.lookback
            : sim::Time::origin();
    sim::Time best_at = sim::Time::max();
    for (std::size_t t = 0; t < n; ++t) {
      const std::string& vm = sys.vm_flat(t)->name();
      sim::Time at = sampler.series(vm + ".demand")
                         .first_time_at_least(opt.saturation_pct, from, ep.end);
      at = std::min(at, sampler.series(vm + ".stall")
                            .first_time_at_least(opt.saturation_pct, from, ep.end));
      if (const cpu::IoDevice* disk = sys.disk_flat(t)) {
        at = std::min(at, sampler.series(disk->name() + ".busy")
                              .first_time_at_least(opt.saturation_pct, from, ep.end));
      }
      if (at < best_at) {
        best_at = at;
        ep.bottleneck_tier = static_cast<int>(t);
        ep.bottleneck_name = vm;
      }
    }
    if (best_at != sim::Time::max()) {
      ep.bottleneck_found = true;
      ep.bottleneck_at = best_at;
      ep.kind = ep.drop_tier < ep.bottleneck_tier ? CtqoEpisode::Kind::kUpstream
                                                  : CtqoEpisode::Kind::kDownstream;
      if (ep.kind == CtqoEpisode::Kind::kUpstream) ++report.upstream_episodes;
      if (ep.kind == CtqoEpisode::Kind::kDownstream) ++report.downstream_episodes;
    }
    report.episodes.push_back(ep);
  }

  // --- retry-storm pass ----------------------------------------------------
  // Chain consecutive episodes at the same drop tier whose gaps fit within
  // storm_merge_gap (a fixed 3 s RTO spaces retransmission waves just past
  // the 2 s episode_gap, splitting one storm across several episodes). A
  // chain is a storm when it lasted storm_min_duration and the tier's
  // offered rate (retransmits + retries included) exceeded its drain rate
  // by storm_amplification on average — arrivals outpacing departures for
  // multiple RTOs is the metastable signature.
  auto& eps = report.episodes;
  std::size_t chain_begin = 0;
  for (std::size_t i = 1; i <= eps.size(); ++i) {
    const bool chain_ends =
        i == eps.size() || eps[i].drop_tier != eps[chain_begin].drop_tier ||
        eps[i].start - eps[i - 1].end > opt.storm_merge_gap;
    if (!chain_ends) continue;
    const sim::Time cstart = eps[chain_begin].start;
    const sim::Time cend = eps[i - 1].end;
    const std::string prefix = sys.server_flat(eps[chain_begin].drop_tier)->name();
    if (cend - cstart >= opt.storm_min_duration &&
        sampler.has_series(prefix + ".offered") &&
        sampler.has_series(prefix + ".completed")) {
      const double offered = sampler.series(prefix + ".offered").mean_over(cstart, cend);
      const double drained = sampler.series(prefix + ".completed").mean_over(cstart, cend);
      const double amp = drained > 0.0 ? offered / drained
                                       : (offered > 0.0 ? opt.storm_amplification : 0.0);
      if (amp >= opt.storm_amplification) {
        // Peak intensity: worst offered/drain ratio over any one-second
        // slice of the chain (the chain mean hides how hard the worst
        // retransmission wave hit).
        const auto& off_tl = sampler.series(prefix + ".offered");
        const auto& cmp_tl = sampler.series(prefix + ".completed");
        const sim::Duration slice = sim::Duration::seconds(1);
        double peak = amp;
        for (sim::Time t = cstart; t < cend; t = t + slice) {
          const sim::Time t1 = std::min(t + slice, cend);
          const double o = off_tl.mean_over(t, t1);
          const double c = cmp_tl.mean_over(t, t1);
          if (c > 0.0 && o / c > peak) peak = o / c;
        }
        const sim::Duration dur = cend - cstart;
        for (std::size_t j = chain_begin; j < i; ++j) {
          eps[j].retry_storm = true;
          eps[j].storm_amplification = amp;
          eps[j].storm_duration = dur;
          eps[j].storm_peak_amplification = peak;
          ++report.retry_storm_episodes;
        }
        report.longest_storm = std::max(report.longest_storm, dur);
        report.peak_retry_amplification =
            std::max(report.peak_retry_amplification, peak);
      }
    }
    chain_begin = i;
  }
  return report;
}

std::string VlrtAttributionRow::to_string() const {
  std::string out;
  sim::appendf(out,
               "req %8" PRIu64 "  %9.1f ms  dominant %s at %s %.1f ms (%4.1f%%)  "
               "rto %.1f ms (%4.1f%%)",
               request_id, latency.to_millis(), trace::to_string(dominant.kind),
               dominant.site.c_str(), dominant.time.to_millis(), dominant.share * 100.0,
               rto_time.to_millis(), rto_share * 100.0);
  if (!drop_tier.empty()) {
    out += "  drop tier " + drop_tier;
    if (episode >= 0)
      sim::appendf(out, " (episode %d)", episode);
    else
      out += " (no episode matched)";
  }
  return out;
}

std::string VlrtAttributionTable::to_string() const {
  std::string out = "VLRT attribution (" + std::to_string(rows.size()) + " requests)\n";
  for (const auto& r : rows) out += "  " + r.to_string() + "\n";
  // Tier summary: how many VLRTs each dropping tier accounts for.
  std::vector<std::pair<std::string, std::size_t>> per_tier;
  for (const auto& r : rows) {
    const std::string key = r.drop_tier.empty() ? "(no rto)" : r.drop_tier;
    auto it = std::find_if(per_tier.begin(), per_tier.end(),
                           [&](const auto& p) { return p.first == key; });
    if (it == per_tier.end()) per_tier.emplace_back(key, 1);
    else ++it->second;
  }
  for (const auto& [tier, n] : per_tier)
    out += "  " + std::to_string(n) + " VLRT at " + tier + "\n";
  return out;
}

VlrtAttributionTable attribute_vlrt(
    const std::vector<trace::TracePtr>& traces,
    const CtqoReport& report, sim::Duration vlrt_threshold) {
  VlrtAttributionTable table;
  for (const auto& tr : traces) {
    if (!tr || tr->empty() || !tr->root().closed()) continue;
    if (tr->total() < vlrt_threshold) continue;

    const trace::CriticalPath cp = trace::critical_path(*tr);
    VlrtAttributionRow row;
    row.request_id = tr->request_id();
    row.latency = cp.total;
    if (!cp.items.empty()) row.dominant = cp.dominant();
    row.rto_time = cp.by_kind(trace::SpanKind::kRtoGap);
    if (cp.total > sim::Duration::zero())
      row.rto_share = static_cast<double>(row.rto_time.count_micros()) /
                      static_cast<double>(cp.total.count_micros());

    // Largest rto_gap bucket names the hop whose receiver dropped.
    const trace::CriticalPath::Item* rto_item = nullptr;
    for (const auto& item : cp.items) {
      if (item.kind == trace::SpanKind::kRtoGap) { rto_item = &item; break; }
    }
    if (rto_item != nullptr) {
      const auto arrow = rto_item->site.find("->");
      row.drop_tier = arrow == std::string::npos
                          ? rto_item->site
                          : rto_item->site.substr(arrow + 2);
      // The first retransmission at that hop begins AT the drop instant,
      // so it falls inside the episode that clustered the drop.
      sim::Time first_gap = sim::Time::max();
      for (const auto& s : tr->spans()) {
        if (s.kind == trace::SpanKind::kRtoGap && s.site == rto_item->site &&
            s.begin < first_gap) {
          first_gap = s.begin;
        }
      }
      for (std::size_t e = 0; e < report.episodes.size(); ++e) {
        const auto& ep = report.episodes[e];
        if (ep.drop_tier_name == row.drop_tier && first_gap >= ep.start &&
            first_gap <= ep.end) {
          row.episode = static_cast<int>(e);
          break;
        }
      }
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

}  // namespace ntier::core
