// Per-tier overload control: admission policies and queue management.
//
// The paper's §V-E asks what *server-side* designs tame CTQO; PR 1's
// tail-tolerance layer answered only the client side, and its naive-retry
// configuration showed how unshed overload turns a transient
// millibottleneck into a metastable retry storm. This module supplies the
// server side: an AdmissionController owned by a tier server, consulted
// at admission (offer) and at dequeue, with one policy active per tier:
//
//   kQueueCap     — hard bound on requests in system, shed the excess
//                   (the paper's baseline, made explicit instead of
//                   relying on the TCP backlog drop);
//   kTokenBucket  — rate-limit admissions to a provisioned throughput,
//                   absorbing bursts up to the bucket depth;
//   kCoDel        — sojourn-time shedding: once queue *wait* stays above
//                   a target for an interval, shed at dequeue on the
//                   inverse-sqrt control-law schedule; while dropping,
//                   entries that already outwaited a whole interval are
//                   shed off-schedule (CoDel adapted from packet queues
//                   to request queues, where senders time out);
//   kAdaptiveLifo — FIFO while healthy, newest-first under backlog (the
//                   Facebook adaptive-LIFO design): fresh requests, whose
//                   senders are still waiting, are served before stale
//                   ones whose senders have long timed out; entries older
//                   than a max sojourn are shed so dead work drains;
//   kBrownout     — serve a cheap degraded response instead of the full
//                   downstream chain while the queue is deep (the
//                   request is marked Request::degraded and every tier
//                   skips its kDownstream steps for it).
//
// Shed/retry contract (docs/OVERLOAD.md): a shed with ShedMode::kErrorReply
// is a *retryable* rejection — the shedding tier replies immediately with
// Request::overload_shed set, the upstream governed sender (the
// server::GovernedHop engine, server or client side) concludes the
// attempt as a failure and retries it, spending retry budget. ShedMode::
// kTcpDrop instead refuses the packet like a full accept queue (sender
// retransmits per RTO) — the paper-baseline behaviour.
//
// Everything here is a deterministic state machine: no randomness, no
// scheduled events, so an all-kNone configuration is byte-identical to a
// build without this layer (DESIGN.md invariant 9).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "policy/tail_policy.h"
#include "sim/time.h"

namespace ntier::policy::overload {

enum class Kind : std::uint8_t {
  kNone,
  kQueueCap,
  kTokenBucket,
  kCoDel,
  kAdaptiveLifo,
  kBrownout,
};
const char* to_string(Kind k);

// The policy for one tier. Pure value; lives inside core configs.
struct OverloadPolicy {
  Kind kind = Kind::kNone;

  // How a shed leaves the building: an immediate canned error reply the
  // upstream policy layer treats as retryable (default), or a refused
  // packet the sender's TCP stack retransmits (paper baseline).
  enum class ShedMode : std::uint8_t { kErrorReply, kTcpDrop };
  ShedMode shed_mode = ShedMode::kErrorReply;

  // kQueueCap: shed when requests in system would exceed this.
  std::size_t queue_cap = 128;

  // kTokenBucket: sustained admissions/s and burst capacity.
  double bucket_rate = 1000.0;
  double bucket_burst = 100.0;

  // kCoDel: sojourn target and initial control interval.
  sim::Duration codel_target = sim::Duration::millis(20);
  sim::Duration codel_interval = sim::Duration::millis(100);

  // kAdaptiveLifo: backlog depth that flips dequeue order to
  // newest-first, and the sojourn beyond which a stale entry is shed at
  // dequeue instead of served (zero = never shed, serve arbitrarily
  // stale work).
  std::size_t lifo_threshold = 16;
  sim::Duration lifo_max_sojourn = sim::Duration::seconds(1);

  // kBrownout: degrade once requests in system reach degrade_above;
  // additionally shed above brownout_cap (0 = rely on the server's own
  // admission bound).
  std::size_t degrade_above = 32;
  std::size_t brownout_cap = 0;

  bool any() const { return kind != Kind::kNone; }
};

// Human-readable reason a policy is invalid; empty when fine. Used by
// core::validate().
std::string invalid_reason(const OverloadPolicy& p);

struct OverloadStats {
  std::uint64_t admitted = 0;        // offers that passed the controller
  std::uint64_t shed_admission = 0;  // rejected at offer time
  std::uint64_t shed_dequeue = 0;    // shed at dequeue (CoDel / stale LIFO)
  std::uint64_t degraded = 0;        // marked for the brownout response
  std::uint64_t lifo_picks = 0;      // dequeues taken newest-first

  std::uint64_t total_shed() const { return shed_admission + shed_dequeue; }
};

// Per-tier runtime for one OverloadPolicy. Owned by the server; consulted
// inline on the admission and dequeue paths (no events, no rng).
class AdmissionController {
 public:
  explicit AdmissionController(OverloadPolicy p);

  enum class Decision : std::uint8_t { kAdmit, kShed, kDegrade };

  const OverloadPolicy& policy() const { return p_; }
  OverloadStats& stats() { return stats_; }
  const OverloadStats& stats() const { return stats_; }

  // Admission-time decision for one offered job, given the requests
  // currently in the system. Counts admitted/shed/degraded.
  Decision on_offer(sim::Time now, std::size_t in_system);

  // Queue-management hooks, called by the server's dequeue sites
  // (usually through pop_next below).
  //
  // True when the backlog is deep enough that adaptive-LIFO serves
  // newest-first.
  bool use_lifo(std::size_t backlog_depth) const;
  // CoDel control law / stale-LIFO age gate: true = shed this entry
  // instead of serving it. Counts shed_dequeue.
  bool shed_on_dequeue(sim::Time now, sim::Duration sojourn);
  // Feed the sojourn window for an entry that was actually served.
  void record_sojourn(sim::Duration sojourn) { sojourn_.record(sojourn); }
  // Sojourn quantile over the recent window (telemetry probe; zero until
  // the first dequeue).
  sim::Duration sojourn_quantile(double q) const { return sojourn_.quantile(q); }

 private:
  OverloadPolicy p_;
  OverloadStats stats_;
  LatencyEstimator sojourn_;

  // Token-bucket state (refilled lazily at each decision).
  double tokens_;
  sim::Time bucket_at_{};

  // CoDel state (Nichols & Jacobson's control law, adapted: decisions
  // happen at request dequeue instead of packet dequeue).
  sim::Time first_above_ = sim::Time::max();
  sim::Time drop_next_{};
  bool dropping_ = false;
  std::uint32_t drop_count_ = 0;

  sim::Duration codel_gap() const;  // interval / sqrt(drop_count_)
};

// Applies the controller's queue discipline to one dequeue from a
// deque-like backlog: adaptive-LIFO picks the back, CoDel/stale-LIFO
// sheds entries via `shed(entry)` until one survives. `enq(e)` returns
// the entry's enqueue instant. Null controller = plain FIFO. Returns
// nullopt when the queue ran dry (possibly after shedding everything).
template <class Queue, class EnqFn, class ShedFn>
std::optional<typename Queue::value_type> pop_next(AdmissionController* ctl,
                                                   Queue& q, sim::Time now,
                                                   EnqFn enq, ShedFn shed) {
  while (!q.empty()) {
    typename Queue::value_type e;
    if (ctl != nullptr && ctl->use_lifo(q.size())) {
      ++ctl->stats().lifo_picks;
      e = std::move(q.back());
      q.pop_back();
    } else {
      e = std::move(q.front());
      q.pop_front();
    }
    const sim::Duration sojourn = now - enq(e);
    if (ctl != nullptr && ctl->shed_on_dequeue(now, sojourn)) {
      shed(std::move(e));
      continue;
    }
    if (ctl != nullptr) ctl->record_sojourn(sojourn);
    return e;
  }
  return std::nullopt;
}

}  // namespace ntier::policy::overload
