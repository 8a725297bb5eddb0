// The streaming quantile primitive of the unified telemetry registry
// (totals and levels are probes; see registry.h).
//
// GkQuantile is a Greenwald–Khanna streaming quantile summary with a
// provable rank guarantee: after n observations, quantile(q) returns a
// value whose rank in the sorted sample lies within eps*n of q*n, using
// O((1/eps)*log(eps*n)) space instead of the raw sample. Unlike P², the
// bound is distribution-free, which matters here: latency samples are
// multi-modal (peaks at 0/3/6/9 s), exactly the shape that defeats
// curve-fitting estimators. tests/test_telemetry.cc validates the bound
// against the exact metrics::LinearHistogram percentiles.
//
// Everything is plain memory arithmetic: recording draws no randomness
// and schedules no simulation events, so an instrumented run is
// event-identical to an uninstrumented one (DESIGN.md invariant 10).
#pragma once

#include <cstdint>
#include <vector>

namespace ntier::telemetry {

// Greenwald–Khanna epsilon-approximate quantile summary (SIGMOD'01).
// Mergeable: merge(a, b) holds eps_a + eps_b; repeated self-merges
// therefore degrade the bound, which merged_eps() tracks.
class GkQuantile {
 public:
  explicit GkQuantile(double eps = 0.005);

  void record(double x);

  // Any q in [0, 1]. Returns a sample value whose rank is within
  // merged_eps()*count() of q*count(); 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double eps() const { return eps_; }
  // Effective error bound after merges (eps sums across merged inputs).
  double merged_eps() const { return merged_eps_; }
  std::size_t tuple_count() const { return tuples_.size(); }

  // Absorbs another summary; the result answers queries over the union
  // within merged_eps() = this->merged_eps() + other.merged_eps().
  void merge(const GkQuantile& other);

 private:
  // One GK tuple: value v covering g ranks, with rank uncertainty delta.
  // min-rank(i) = sum of g up to i; max-rank(i) = min-rank(i) + delta_i.
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t delta;
  };

  void compress();

  double eps_;
  double merged_eps_;
  std::uint64_t count_ = 0;
  std::uint64_t since_compress_ = 0;
  std::vector<Tuple> tuples_;  // sorted by v
};

}  // namespace ntier::telemetry
