#include "telemetry/registry.h"

#include <algorithm>

namespace ntier::telemetry {

Registry::Registry(sim::Duration window) : window_(window) {}

SeriesHandle Registry::intern_series(std::string_view name) {
  auto it = series_ix_.find(name);
  if (it == series_ix_.end()) {
    const auto idx = static_cast<std::uint32_t>(series_store_.size());
    series_store_.emplace_back(std::string(name), window_);
    it = series_ix_.emplace(std::string(name), idx).first;
    series_keys_.push_back(it->first);  // map keys are node-stable
    series_names_dirty_ = true;
  }
  return SeriesHandle{it->second};
}

GkQuantile& Registry::quantile(std::string_view name, double eps) {
  auto it = quantiles_.find(name);
  if (it == quantiles_.end())
    it = quantiles_.emplace(std::string(name), GkQuantile(eps)).first;
  return it->second;
}

void Registry::add_probe(std::string_view name, ProbeKind kind,
                         std::function<double()> fn) {
  // The series exists even before the first sample; the probe keeps the
  // interned handle so every tick is an array index, not a map lookup.
  const SeriesHandle h = intern_series(name);
  double initial = kind == ProbeKind::kCumulative ? fn() : 0.0;
  probes_.push_back(Probe{h, kind, std::move(fn), initial});
}

void Registry::sample(sim::Time wstart, double window_seconds) {
  for (auto& p : probes_) {
    const double cur = p.fn();
    if (p.kind == ProbeKind::kCumulative) {
      at(p.series).set(wstart, (cur - p.last) / window_seconds);
      p.last = cur;
    } else {
      at(p.series).set(wstart, cur);
    }
  }
}

bool Registry::has_series(std::string_view name) const {
  return series_ix_.count(name) > 0;
}

const metrics::Timeline* Registry::find_series(std::string_view name) const {
  auto it = series_ix_.find(name);
  return it == series_ix_.end() ? nullptr : &series_store_[it->second];
}

const GkQuantile* Registry::find_quantile(std::string_view name) const {
  auto it = quantiles_.find(name);
  return it == quantiles_.end() ? nullptr : &it->second;
}

const std::vector<std::string_view>& Registry::series_names() const {
  if (series_names_dirty_) {
    series_names_cache_.clear();
    series_names_cache_.reserve(series_ix_.size());
    for (const auto& [k, v] : series_ix_) series_names_cache_.push_back(k);
    series_names_dirty_ = false;
  }
  return series_names_cache_;
}

std::vector<std::pair<std::string, double>> Registry::snapshot() const {
  // Probes in registration order; a stable sort plus a keep-last
  // dedupe lets the later of two same-named probes win.
  std::vector<std::pair<std::string, double>> flat;
  flat.reserve(probes_.size());
  for (const auto& p : probes_) {
    std::string name(series_name(p.series));
    if (p.kind == ProbeKind::kCumulative) name += ".total";
    flat.emplace_back(std::move(name), p.fn());
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::string, double>> out;
  out.reserve(flat.size());
  for (auto& kv : flat) {
    if (!out.empty() && out.back().first == kv.first)
      out.back().second = kv.second;  // later publisher wins
    else
      out.push_back(std::move(kv));
  }
  return out;
}

}  // namespace ntier::telemetry
