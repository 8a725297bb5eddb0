// Unified telemetry registry: the one metric plane every layer
// publishes into.
//
// Before this registry existed the instruments were scattered — the
// Sampler kept its own timeline map, servers kept Stats structs,
// transports kept TxStats, governors kept PolicyStats — and every
// consumer (CTQO analyzer, exports, figure benches) stitched them
// together by hand. The registry gives them one namespace:
//
//   * quantile(name) — streaming GK latency summaries (metric.h);
//   * series(name)   — fixed-window metrics::Timeline (the 50 ms plane
//                      the paper's figures and the correlation engine
//                      consume; monitor::Sampler stores its lines here);
//   * add_probe(...) — pull-model publishing: a layer registers a
//                      closure over its own cumulative or instantaneous
//                      statistic, and sample() materializes one window
//                      per tick into the matching series.
//
// Series names are interned: intern_series() resolves a name to a
// stable index handle once, at wiring time, and every later update
// through the handle is plain array indexing — the periodic sample()
// tick touches no strings and no maps. The name map survives only for
// wiring and export-time resolution (find_series, snapshot,
// series_names).
//
// Non-perturbation guarantee (DESIGN.md invariant 10): the registry
// schedules no events and draws no randomness. Probes are pure reads;
// sample() runs inside the Sampler tick that exists in every run
// anyway. A run with every publish point live is event-identical — and
// therefore latency/drop bit-identical — to the same seed without them.
// docs/TELEMETRY.md documents the full schema and every publish point.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/timeline.h"
#include "sim/time.h"
#include "telemetry/metric.h"

namespace ntier::telemetry {

// Sentinel index of a default-constructed (invalid) metric handle.
inline constexpr std::uint32_t kNoMetric = 0xffffffffu;

// Stable index of an interned Timeline series; resolves via
// Registry::at() with no string or map work. Trivially copyable, 4 bytes.
struct SeriesHandle {
  std::uint32_t idx = kNoMetric;
  bool valid() const { return idx != kNoMetric; }
};

class Registry {
 public:
  explicit Registry(sim::Duration window = sim::Duration::millis(50));
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  sim::Duration window() const { return window_; }

  // --- interning (create-or-get; handles stay valid for the registry's
  // life and index in O(1) with no string work) --------------------------
  SeriesHandle intern_series(std::string_view name);

  // --- handle resolution (hot path: plain array indexing) ---------------
  metrics::Timeline& at(SeriesHandle h) { return series_store_[h.idx]; }
  const metrics::Timeline& at(SeriesHandle h) const { return series_store_[h.idx]; }

  // --- create-or-get by name (references are stable for the registry's
  // life; prefer interning a handle outside one-shot wiring code) --------
  GkQuantile& quantile(std::string_view name, double eps = 0.005);
  metrics::Timeline& series(std::string_view name) { return at(intern_series(name)); }

  // --- probes -------------------------------------------------------------
  // kCumulative: fn() is a monotonically non-decreasing total; sample()
  //   writes the per-second rate over each window into series `name`.
  // kGauge: fn() is an instantaneous level; sample() writes it verbatim.
  enum class ProbeKind { kCumulative, kGauge };
  void add_probe(std::string_view name, ProbeKind kind, std::function<double()> fn);

  // Materializes one window for every probe (called by the Sampler tick;
  // `wstart` is the window's start stamp, `window_seconds` its width).
  // Touches no strings and no maps: probes hold interned handles.
  void sample(sim::Time wstart, double window_seconds);

  // --- read access --------------------------------------------------------
  bool has_series(std::string_view name) const;
  const metrics::Timeline* find_series(std::string_view name) const;
  const GkQuantile* find_quantile(std::string_view name) const;
  // Series names, sorted; cached between interns so repeated exports do
  // not rebuild them. Views point at registry-owned storage.
  const std::vector<std::string_view>& series_names() const;

  // Flat name->value view of every probe total, name-sorted — the
  // manifest/dashboard "counter totals" block. Cumulative probes appear
  // as "<name>.total" and read fn() now; gauge probes report the
  // current level under their own name. When two probes share a name
  // the later one wins.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  struct Probe {
    SeriesHandle series;
    ProbeKind kind;
    std::function<double()> fn;
    double last = 0.0;
  };
  // Name -> store index, heterogeneous lookup (string_view probes the
  // map without materializing a std::string).
  using NameIndex = std::map<std::string, std::uint32_t, std::less<>>;

  // The series name an interned handle was registered under (map keys
  // are node-stable, so the view outlives any rehash/regrow).
  std::string_view series_name(SeriesHandle h) const { return series_keys_[h.idx]; }

  sim::Duration window_;
  // The series store is a deque: push_back never moves existing
  // elements, so series() references and handle indices stay valid.
  std::deque<metrics::Timeline> series_store_;
  NameIndex series_ix_;
  std::vector<std::string_view> series_keys_;  // store index -> name
  std::map<std::string, GkQuantile, std::less<>> quantiles_;
  std::vector<Probe> probes_;
  // Sorted-name cache, invalidated on intern (cold: exports only).
  mutable std::vector<std::string_view> series_names_cache_;
  mutable bool series_names_dirty_ = true;
};

}  // namespace ntier::telemetry
