// Pure helpers shared by the benchmark binary: order statistics, the
// derived ratios, the Little's-law replay parameters, the run digest and
// number formatting for the result line. No simulator types here, so the
// unit tests exercise them directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count); 0 when
// empty.
double median(std::vector<double> v);

// Smallest value of `v`; 0 when empty. Contention from other work on the
// host only ever adds time, so the fastest of many repetitions estimates
// the uncontended time, where a median moves with how much of the
// measurement a contended period covered.
double fastest(const std::vector<double>& v);

// Each row is one repetition of the same sequence of timed parts (the
// simulated seconds of a run, the calls of a report). Returns the sum over
// positions of the fastest part at that position: the sequence as an
// uncontended host would run it, from contention-free moments far shorter
// than a whole repetition. Only rows as long as the longest take part; 0
// when there are none.
double sum_of_fastest_parts(const std::vector<std::vector<double>>& rows);

// The highest percentile of `v` that still has at least `beyond` samples
// strictly above its rank: value = sorted[n - 1 - beyond], percentile =
// 100 * (n - beyond) / n. With n <= beyond no percentile qualifies; the
// maximum is returned with percentile 100 so the caller still prints a
// value (count says how little it rests on).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;  // samples the tail was taken over
};
Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10);

// a / b, or 0 when b is 0 (a layer that did not run has nothing to divide).
double ratio(double a, double b);

// Parameters of the engine replay: as many self-re-arming timers as the
// run's mean pending-event count, each re-armed after an exponential
// delay whose mean follows Little's law, W = L / lambda with
// lambda = events / simulated seconds.
struct EngineReplayParams {
  std::size_t timers = 1;
  double mean_delay_us = 1.0;
};
EngineReplayParams little_law(double pending_mean, double sim_seconds, double events);

// 64-bit FNV-1a over a sequence of integers: the run digest every
// repetition of one (workload, seed) must reproduce exactly.
class Digest {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// 16 lowercase hex digits: how digests are written and compared as text.
std::string hex64(std::uint64_t v);

// Shortest decimal text that reads back as exactly `v` (all digits kept,
// nothing rounded away); non-finite values print as 0.
std::string number(double v);

}  // namespace perfbench
