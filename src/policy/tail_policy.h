// Tail-tolerance policies: deadlines, retries, hedging, circuit breaking.
//
// The paper's §V-E only evaluates two naive CTQO countermeasures (bigger
// pools/buffers, shedding). This module supplies the modern tail-tolerance
// toolkit — per-request deadlines with cross-tier propagation, retry
// policies with exponential backoff + decorrelated jitter + a retry
// budget, hedged requests after a percentile delay, and a per-downstream
// circuit breaker — so experiments can measure when each mechanism tames
// the millibottleneck tail and when it *amplifies* it (retry storms near
// saturation; cf. Sriraman et al. and Poloczek & Ciucu in PAPERS.md).
//
// Everything here is a pure value or a deterministic state machine; all
// randomness (jitter) comes from an injected sim::Rng so runs replay
// bit-identically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::policy {

// --- retries ---------------------------------------------------------------

struct RetryPolicy {
  // Total delivery attempts for one logical request (1 = never retry).
  int max_attempts = 1;
  sim::Duration base_backoff = sim::Duration::millis(50);
  sim::Duration max_backoff = sim::Duration::seconds(5);
  // Decorrelated jitter (uniform in [base, 3*prev]) instead of plain
  // exponential doubling; avoids synchronized retry waves.
  bool decorrelated_jitter = true;
  // Retry budget: each first attempt earns `budget_ratio` tokens, each
  // retry spends one; an empty bucket suppresses the retry. 0 disables
  // budgeting (unlimited retries up to max_attempts — the naive mode).
  double budget_ratio = 0.0;
  double budget_capacity = 50.0;

  // True when a failed attempt may be retried at all, and when retries
  // spend from a budget.
  bool enabled() const { return max_attempts > 1; }
  bool budgeted() const { return budget_ratio > 0.0; }
  // Backoff before retry number `attempt` (1-based first retry); `prev`
  // is the previous backoff (decorrelated jitter feeds on it).
  sim::Duration backoff(int attempt, sim::Duration prev, sim::Rng& rng) const;
};

// Token bucket shared by every logical request on one hop.
class RetryBudget {
 public:
  // A full bucket of `capacity` tokens, refilled by `ratio` per request
  // (ratio 0 = unbudgeted).
  RetryBudget(double ratio, double capacity)
      : ratio_(ratio), capacity_(capacity), tokens_(capacity) {}

  // Earns `ratio` tokens for a new logical request, up to the capacity.
  void on_request() {
    if (ratio_ <= 0.0) return;
    tokens_ = std::min(capacity_, tokens_ + ratio_);
  }
  // Returns false when the budget is exhausted (retry suppressed).
  bool try_spend() {
    if (ratio_ <= 0.0) return true;  // unbudgeted
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }
  double tokens() const { return tokens_; }

 private:
  double ratio_;
  double capacity_;
  double tokens_;
};

// --- hedging ---------------------------------------------------------------

struct HedgePolicy {
  bool enabled = false;
  // Hedge once the attempt has outlived this percentile of recently
  // observed hop latencies ("request reissue after the 95th percentile").
  double percentile = 0.95;
  // Delay used until `warmup_samples` latencies have been observed.
  sim::Duration initial_delay = sim::Duration::millis(500);
  sim::Duration min_delay = sim::Duration::millis(10);
  std::size_t warmup_samples = 64;
  int max_hedges = 1;  // extra copies per logical request
};

// Exact sliding-window quantile estimator over the last `capacity`
// latencies. A ring holds the window in arrival order and a sorted copy
// holds the same values ascending, both reserved to capacity at
// construction, so nothing is allocated after it. `record` erases one
// instance of the evicted value from the sorted copy and inserts the new
// one, each shifting up to `capacity` entries; `quantile` is an index
// into the sorted copy. Equal durations are interchangeable, so the
// result is the one a sort of the window would give.
class LatencyEstimator {
 public:
  // A window of the last `capacity` latencies (0 is taken as 1).
  explicit LatencyEstimator(std::size_t capacity = 256);
  void record(sim::Duration d);
  std::size_t count() const { return total_; }
  // Quantile q in [0,1] over the window; zero when empty.
  sim::Duration quantile(double q) const;

 private:
  std::vector<sim::Duration> ring_;
  std::vector<sim::Duration> sorted_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
};

// --- circuit breaking ------------------------------------------------------

struct BreakerPolicy {
  bool enabled = false;
  // Open when the failure rate over an evaluation window reaches this.
  double failure_threshold = 0.5;
  // Outcomes needed before the window is evaluated.
  std::uint32_t min_samples = 20;
  sim::Duration window = sim::Duration::seconds(1);
  // How long an open breaker rejects before probing (half-open).
  sim::Duration open_for = sim::Duration::seconds(2);
  int half_open_probes = 1;
};

// Closed -> Open (failure rate) -> Half-open (after open_for) -> Closed
// (probe success) or back to Open (probe failure).
class CircuitBreaker {
 public:
  // Closed: sends pass; open: sends are rejected; half-open: a few
  // probe sends decide between the two.
  enum class State { kClosed, kOpen, kHalfOpen };

  // A closed breaker reading `sim`'s clock for its windows.
  CircuitBreaker(sim::Simulation& sim, BreakerPolicy p) : sim_(sim), p_(p) {}

  // Gate consulted before each send; may transition kOpen -> kHalfOpen.
  // A true return in half-open state claims one probe slot.
  bool allow();
  void record_success();
  void record_failure();

  // The current state, and how often the breaker opened and rejected.
  State state() const { return state_; }
  std::uint64_t opens() const { return opens_; }
  std::uint64_t rejects() const { return rejects_; }

 private:
  void evaluate();
  void reset_window();

  sim::Simulation& sim_;
  BreakerPolicy p_;
  State state_ = State::kClosed;
  std::uint32_t window_successes_ = 0;
  std::uint32_t window_failures_ = 0;
  sim::Time window_start_{};
  sim::Time opened_at_{};
  int probes_in_flight_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t rejects_ = 0;
};

// --- the aggregate policy for one hop --------------------------------------

struct TailPolicy {
  // End-to-end budget stamped onto the request when it enters the system
  // (zero = no deadline). Propagates to every downstream tier via
  // Request::deadline; an over-budget request is cancelled, not queued.
  sim::Duration deadline = sim::Duration::zero();
  // Per-attempt timeout: the sender gives up on an attempt (and consults
  // the retry policy) after this long without a reply. Zero = react only
  // to explicit failure signals (connection failure, downstream error).
  sim::Duration attempt_timeout = sim::Duration::zero();
  RetryPolicy retry{};
  HedgePolicy hedge{};
  BreakerPolicy breaker{};

  // True when any mechanism is on (the hop then gets a HopGovernor).
  bool any() const {
    return deadline > sim::Duration::zero() || attempt_timeout > sim::Duration::zero() ||
           retry.enabled() || hedge.enabled || breaker.enabled;
  }
};

// What one hop's governor did, counted over the run.
struct PolicyStats {
  std::uint64_t retries = 0;             // re-sent attempts
  std::uint64_t retries_suppressed = 0;  // retry wanted but budget empty
  std::uint64_t hedges = 0;              // duplicate copies sent
  std::uint64_t hedge_wins = 0;          // hedged copy answered first
  std::uint64_t breaker_rejects = 0;     // fast-failed while open
  std::uint64_t breaker_opens = 0;
  std::uint64_t deadline_cancels = 0;    // cancelled before/instead of sending
};

// Per-hop runtime for one TailPolicy: breaker + budget + latency window.
// Owned by the sender side of a hop: the server::GovernedHop engine of a
// tier server or of the client pool (server/governed_call.h).
class HopGovernor {
 public:
  // `rng` feeds backoff jitter; the breaker reads `sim`'s clock.
  HopGovernor(sim::Simulation& sim, sim::Rng rng, TailPolicy p);

  // The policy, the counters, and the breaker (null when disabled).
  const TailPolicy& policy() const { return p_; }
  PolicyStats& stats() { return stats_; }
  const PolicyStats& stats() const { return stats_; }
  CircuitBreaker* breaker() { return breaker_ ? &*breaker_ : nullptr; }
  const CircuitBreaker* breaker() const { return breaker_ ? &*breaker_ : nullptr; }

  // Breaker gate; counts rejects. True when the send may proceed.
  bool allow_send();
  // Feeds breaker state; call once per concluded attempt.
  void on_outcome(bool success);
  // Record an observed reply latency (feeds the hedge estimator). A
  // no-op unless hedging is on: hedge_delay is the estimator's only
  // reader, and a record costs a shift of the sorted window.
  void record_latency(sim::Duration d);
  // Current hedge trigger delay (percentile of observed latencies once
  // warmed up, initial_delay before that).
  sim::Duration hedge_delay() const;
  // Earn budget for a new logical request.
  void on_request() { budget_.on_request(); }
  // Spend a retry token; counts suppressions.
  bool try_retry_token();
  // Backoff before retry `attempt`, remembering it for decorrelation.
  sim::Duration next_backoff(int attempt);

 private:
  sim::Simulation& sim_;
  sim::Rng rng_;
  TailPolicy p_;
  PolicyStats stats_;
  RetryBudget budget_;
  LatencyEstimator estimator_;
  std::optional<CircuitBreaker> breaker_;
  sim::Duration last_backoff_{};
};

// Human-readable reason a policy is invalid; empty when fine. Used by
// core::validate() to reject nonsensical configs with context.
std::string invalid_reason(const TailPolicy& p);

}  // namespace ntier::policy
