#include "policy/tail_policy.h"

#include <cmath>

namespace ntier::policy {

sim::Duration RetryPolicy::backoff(int attempt, sim::Duration prev,
                                   sim::Rng& rng) const {
  if (attempt < 1) attempt = 1;
  sim::Duration d;
  if (decorrelated_jitter) {
    // AWS-style decorrelated jitter: uniform in [base, 3 * prev], where
    // prev starts at base. Spreads retry waves instead of synchronizing
    // them at base * 2^k.
    const double lo = base_backoff.to_seconds();
    const double hi =
        std::max(lo, 3.0 * (prev > sim::Duration::zero() ? prev : base_backoff).to_seconds());
    d = sim::Duration::from_seconds(rng.uniform(lo, hi));
  } else {
    d = base_backoff * std::pow(2.0, static_cast<double>(attempt - 1));
  }
  return std::min(d, max_backoff);
}

LatencyEstimator::LatencyEstimator(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

void LatencyEstimator::record(sim::Duration d) {
  if (ring_.size() < capacity_) {
    ring_.push_back(d);
  } else {
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), ring_[next_]));
    ring_[next_] = d;
    next_ = (next_ + 1) % capacity_;
  }
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), d), d);
  ++total_;
}

sim::Duration LatencyEstimator::quantile(double q) const {
  if (sorted_.empty()) return sim::Duration::zero();
  q = std::min(std::max(q, 0.0), 1.0);
  const std::size_t idx = std::min(
      sorted_.size() - 1, static_cast<std::size_t>(q * static_cast<double>(sorted_.size())));
  return sorted_[idx];
}

bool CircuitBreaker::allow() {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (sim_.now() - opened_at_ >= p_.open_for) {
        state_ = State::kHalfOpen;
        probes_in_flight_ = 0;
      } else {
        ++rejects_;
        return false;
      }
      [[fallthrough]];
    case State::kHalfOpen:
      if (probes_in_flight_ < p_.half_open_probes) {
        ++probes_in_flight_;
        return true;
      }
      ++rejects_;
      return false;
  }
  return true;
}

void CircuitBreaker::record_success() {
  if (state_ == State::kHalfOpen) {
    // A successful probe closes the circuit.
    state_ = State::kClosed;
    reset_window();
    return;
  }
  ++window_successes_;
  evaluate();
}

void CircuitBreaker::record_failure() {
  if (state_ == State::kHalfOpen) {
    // A failed probe re-opens immediately.
    state_ = State::kOpen;
    opened_at_ = sim_.now();
    ++opens_;
    return;
  }
  if (state_ == State::kOpen) return;  // stragglers from before the trip
  ++window_failures_;
  evaluate();
}

void CircuitBreaker::evaluate() {
  const std::uint32_t n = window_successes_ + window_failures_;
  if (n >= p_.min_samples &&
      static_cast<double>(window_failures_) / n >= p_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_ = sim_.now();
    ++opens_;
    reset_window();
    return;
  }
  // Age out old outcomes so a brief bad patch long ago cannot trip the
  // breaker much later.
  if (sim_.now() - window_start_ >= p_.window) reset_window();
}

void CircuitBreaker::reset_window() {
  window_successes_ = 0;
  window_failures_ = 0;
  window_start_ = sim_.now();
}

HopGovernor::HopGovernor(sim::Simulation& sim, sim::Rng rng, TailPolicy p)
    : sim_(sim),
      rng_(rng),
      p_(p),
      budget_(p.retry.budget_ratio, p.retry.budget_capacity) {
  if (p_.breaker.enabled) breaker_.emplace(sim_, p_.breaker);
}

bool HopGovernor::allow_send() {
  if (!breaker_) return true;
  if (breaker_->allow()) return true;
  ++stats_.breaker_rejects;
  return false;
}

void HopGovernor::on_outcome(bool success) {
  if (!breaker_) return;
  const std::uint64_t opens_before = breaker_->opens();
  if (success) {
    breaker_->record_success();
  } else {
    breaker_->record_failure();
  }
  stats_.breaker_opens += breaker_->opens() - opens_before;
}

void HopGovernor::record_latency(sim::Duration d) {
  if (p_.hedge.enabled) estimator_.record(d);
}

sim::Duration HopGovernor::hedge_delay() const {
  const HedgePolicy& h = p_.hedge;
  if (estimator_.count() < h.warmup_samples) return h.initial_delay;
  return std::max(h.min_delay, estimator_.quantile(h.percentile));
}

bool HopGovernor::try_retry_token() {
  if (budget_.try_spend()) return true;
  ++stats_.retries_suppressed;
  return false;
}

sim::Duration HopGovernor::next_backoff(int attempt) {
  last_backoff_ = p_.retry.backoff(attempt, last_backoff_, rng_);
  return last_backoff_;
}

std::string invalid_reason(const TailPolicy& p) {
  if (p.deadline < sim::Duration::zero()) return "deadline is negative";
  if (p.attempt_timeout < sim::Duration::zero()) return "attempt_timeout is negative";
  if (p.retry.max_attempts < 1) return "retry.max_attempts < 1 (need at least the first attempt)";
  if (p.retry.enabled() && p.retry.base_backoff < sim::Duration::zero())
    return "retry.base_backoff is negative";
  if (p.retry.enabled() && p.retry.max_backoff < p.retry.base_backoff)
    return "retry.max_backoff < retry.base_backoff";
  if (!(p.retry.budget_ratio >= 0.0)) return "retry.budget_ratio is negative";
  if (p.retry.budgeted() && !(p.retry.budget_capacity >= 1.0))
    return "retry.budget_capacity < 1 can never afford a retry";
  if (p.hedge.enabled) {
    if (p.hedge.initial_delay <= sim::Duration::zero())
      return "hedge delay of zero would duplicate every request immediately";
    if (!(p.hedge.percentile > 0.0 && p.hedge.percentile < 1.0))
      return "hedge.percentile must be in (0,1)";
    if (p.hedge.max_hedges < 1) return "hedge enabled with max_hedges < 1";
  }
  if (p.breaker.enabled) {
    if (!(p.breaker.failure_threshold > 0.0 && p.breaker.failure_threshold <= 1.0))
      return "breaker.failure_threshold must be in (0,1]";
    if (p.breaker.min_samples == 0) return "breaker.min_samples must be >= 1";
    if (p.breaker.open_for <= sim::Duration::zero()) return "breaker.open_for must be positive";
    if (p.breaker.half_open_probes < 1) return "breaker.half_open_probes must be >= 1";
  }
  return "";
}

}  // namespace ntier::policy
