#include "policy/overload/overload.h"

#include <algorithm>
#include <cmath>

namespace ntier::policy::overload {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kQueueCap: return "queue-cap";
    case Kind::kTokenBucket: return "token-bucket";
    case Kind::kCoDel: return "codel";
    case Kind::kAdaptiveLifo: return "adaptive-lifo";
    case Kind::kBrownout: return "brownout";
  }
  return "?";
}

std::string invalid_reason(const OverloadPolicy& p) {
  switch (p.kind) {
    case Kind::kNone:
      return {};
    case Kind::kQueueCap:
      if (p.queue_cap == 0)
        return "overload: queue_cap of zero would shed every request";
      return {};
    case Kind::kTokenBucket:
      if (!(p.bucket_rate > 0.0))
        return "overload: token bucket needs a positive refill rate";
      if (!(p.bucket_burst >= 1.0))
        return "overload: token bucket burst below one token can never admit";
      return {};
    case Kind::kCoDel:
      if (p.codel_target <= sim::Duration::zero())
        return "overload: CoDel sojourn target must be positive";
      if (p.codel_interval <= sim::Duration::zero())
        return "overload: CoDel control interval must be positive";
      return {};
    case Kind::kAdaptiveLifo:
      if (p.lifo_threshold == 0)
        return "overload: adaptive-LIFO threshold of zero is plain LIFO; "
               "set at least 1 so an empty queue stays FIFO";
      if (p.lifo_max_sojourn < sim::Duration::zero())
        return "overload: adaptive-LIFO max sojourn cannot be negative";
      return {};
    case Kind::kBrownout:
      if (p.degrade_above == 0)
        return "overload: brownout degrade_above of zero degrades every request";
      if (p.brownout_cap != 0 && p.brownout_cap < p.degrade_above)
        return "overload: brownout_cap below degrade_above sheds before degrading";
      return {};
  }
  return {};
}

AdmissionController::AdmissionController(OverloadPolicy p)
    : p_(p), tokens_(p.bucket_burst) {}

AdmissionController::Decision AdmissionController::on_offer(sim::Time now,
                                                            std::size_t in_system) {
  switch (p_.kind) {
    case Kind::kNone:
      break;
    case Kind::kQueueCap:
      if (in_system >= p_.queue_cap) {
        ++stats_.shed_admission;
        return Decision::kShed;
      }
      break;
    case Kind::kTokenBucket: {
      // Lazy refill: deterministic function of elapsed simulated time.
      const double dt = (now - bucket_at_).to_seconds();
      tokens_ = std::min(p_.bucket_burst, tokens_ + p_.bucket_rate * dt);
      bucket_at_ = now;
      if (tokens_ < 1.0) {
        ++stats_.shed_admission;
        return Decision::kShed;
      }
      tokens_ -= 1.0;
      break;
    }
    case Kind::kCoDel:
    case Kind::kAdaptiveLifo:
      // Queue-management policies act at dequeue, not admission.
      break;
    case Kind::kBrownout:
      if (p_.brownout_cap != 0 && in_system >= p_.brownout_cap) {
        ++stats_.shed_admission;
        return Decision::kShed;
      }
      if (in_system >= p_.degrade_above) {
        ++stats_.admitted;
        ++stats_.degraded;
        return Decision::kDegrade;
      }
      break;
  }
  ++stats_.admitted;
  return Decision::kAdmit;
}

bool AdmissionController::use_lifo(std::size_t backlog_depth) const {
  return p_.kind == Kind::kAdaptiveLifo && backlog_depth >= p_.lifo_threshold;
}

sim::Duration AdmissionController::codel_gap() const {
  return p_.codel_interval *
         (1.0 / std::sqrt(static_cast<double>(std::max<std::uint32_t>(drop_count_, 1))));
}

bool AdmissionController::shed_on_dequeue(sim::Time now, sim::Duration sojourn) {
  if (p_.kind == Kind::kAdaptiveLifo) {
    // LIFO alone would let stale work sit forever; entries whose sender
    // has certainly given up are shed so the queue holds only live work.
    if (p_.lifo_max_sojourn > sim::Duration::zero() &&
        sojourn >= p_.lifo_max_sojourn) {
      ++stats_.shed_dequeue;
      return true;
    }
    return false;
  }
  if (p_.kind != Kind::kCoDel) return false;

  if (sojourn < p_.codel_target) {
    // Below target: leave the dropping state, forget the first-above mark.
    first_above_ = sim::Time::max();
    dropping_ = false;
    return false;
  }
  if (first_above_ == sim::Time::max()) {
    // First sojourn above target: arm the interval timer, serve this one.
    first_above_ = now + p_.codel_interval;
    return false;
  }
  if (!dropping_) {
    if (now < first_above_) return false;
    // Sojourn stayed above target for a whole interval: enter dropping
    // state. Resume from the previous drop rate if we left it recently
    // (within 8 intervals), else restart gently at one drop per interval.
    dropping_ = true;
    drop_count_ = (drop_count_ > 2 && now - drop_next_ < p_.codel_interval * 8)
                      ? drop_count_ - 2
                      : 1;
    drop_next_ = now + codel_gap();
    ++stats_.shed_dequeue;
    return true;
  }
  // Overload regime (the request-queue adaptation): while dropping, an
  // entry that has already outwaited a whole control interval is dead
  // weight — its sender's timeout is closer than its service would be —
  // so it is shed immediately, off-schedule. This bounds the standing
  // sojourn near the interval under persistent overload, where the
  // inverse-sqrt schedule alone could not keep up with arrivals.
  if (sojourn >= p_.codel_interval) {
    ++stats_.shed_dequeue;
    return true;
  }
  if (now >= drop_next_) {
    // Still above target at the scheduled instant: shed and tighten the
    // schedule (interval / sqrt(count) — the inverse-sqrt control law).
    ++drop_count_;
    drop_next_ = drop_next_ + codel_gap();
    ++stats_.shed_dequeue;
    return true;
  }
  return false;
}

}  // namespace ntier::policy::overload
