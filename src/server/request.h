// Requests and their trace context.
//
// A Request is created by a client, traverses the tier chain, and flows
// back. Per the paper's methodology, "all the messages exchanged between
// servers are timestamped": a sampled request carries a span tree
// (trace/span.h) that records every admission, queue wait, service
// step, drop and reply, so experiments can do micro-level event analysis.
//
// Requests are slab-pooled (sim/slab_pool.h): RequestPtr is an
// intrusively refcounted PoolRef, so the steady-state issue/settle cycle
// reuses warmed slots instead of hitting the allocator once per request
// (shared_ptr cost one object + one control block each). Stale handles
// are caught by the pool's generation check in debug builds. The pool is
// thread-local: one simulation runs on one thread (the sweep engine's
// worker model), and thread_local storage outlives every stack-owned
// experiment, so refs can never dangle past their pool.
#pragma once

#include <cstdint>
#include <string>

#include "sim/inline_fn.h"
#include "sim/slab_pool.h"
#include "sim/time.h"
#include "trace/span.h"

namespace ntier::server {

struct Request {
  std::uint64_t id = 0;
  std::size_t class_index = 0;  // into AppProfile::classes
  sim::Time issued;             // client send time
  sim::Time completed;          // client receive time (set by client)
  int total_drops = 0;          // packet drops suffered across all hops
  bool failed = false;          // abandoned after max retransmissions
  // Client-side first-winner guard: set when the issuing client settles
  // the request (reply, timeout, or connection failure) so later
  // stragglers are discarded. Lives here rather than in a per-request
  // heap cell so the ungoverned client path stays allocation-free.
  bool settled = false;

  // --- tail-tolerance metadata (see policy/tail_policy.h) ---------------
  // Absolute completion budget, propagated across every tier: a server
  // admitting the request after this instant cancels it instead of
  // queueing it. Time::max() = no deadline.
  sim::Time deadline = sim::Time::max();
  bool deadline_expired = false;  // cancelled because the budget ran out
  int app_retries = 0;            // policy-layer re-sends (not TCP retransmits)
  int hedge_copies = 0;           // duplicate copies issued by hedging

  bool has_deadline() const { return deadline != sim::Time::max(); }

  // --- overload-control metadata (see policy/overload/overload.h) -------
  // Set (together with `failed`) by a tier that shed this request with an
  // immediate error reply. The upstream governed sender treats the reply
  // as a *retryable* rejection: it clears both flags and routes the
  // attempt through its retry policy (spending retry budget) instead of
  // settling the request.
  bool overload_shed = false;
  // Brownout: a tier under pressure marked the request for the cheap
  // degraded response; every tier skips its kDownstream steps for it.
  bool degraded = false;

  // --- distributed-tracing span tree (see trace/span.h) ------------------
  // Null unless the run's Tracer sampled this request. The tree is the
  // trace context: it travels with the request across every tier, and
  // each layer hangs its spans under the parent span id carried by the
  // Job that delivered the request (W3C-style propagation, in-process).
  trace::TracePtr spans;

  bool traced() const { return spans != nullptr; }

  sim::Duration latency() const { return completed - issued; }
};

using RequestPtr = sim::PoolRef<Request>;

// Thread-local slab pool backing make_request(); exposed so tests and
// benches can inspect occupancy / pre-warm it.
inline sim::SlabPool<Request>& request_pool() {
  thread_local sim::SlabPool<Request> pool;
  return pool;
}

// Creates a fresh (value-initialized) pooled Request. Allocates only
// while the pool grows to the run's in-flight high-water mark.
inline RequestPtr make_request() { return request_pool().make(); }

// One unit of work offered to a server: the request plus the way back.
// `reply` is invoked by the serving tier when its work (including all
// downstream work) finishes; the *sender* embeds any return-path latency
// inside the callback.
struct Job {
  // Reply callbacks capture at most a few handles; 48 inline bytes.
  using ReplyFn = sim::InlineFn<void(const RequestPtr&)>;

  RequestPtr req;
  ReplyFn reply;
  // Trace-context propagation: the sender's span this hop nests under
  // (the client's root span, or the sender's downstream-wait span).
  // trace::kNoSpan when the request is untraced.
  std::uint64_t parent_span = trace::kNoSpan;
};

// Pool for Jobs whose reply must be deferred through the event queue
// (deadline cancels, load-shed errors): a whole Job exceeds the EventFn
// inline budget, so the event captures a 16-byte ref instead.
inline sim::SlabPool<Job>& job_pool() {
  thread_local sim::SlabPool<Job> pool;
  return pool;
}

// No-op-safe span helpers: every instrumentation site goes through
// these, so untraced requests pay one pointer test and nothing else
// (site strings are copied only when the request is traced).
inline std::uint64_t trace_open(const RequestPtr& r, trace::SpanKind k,
                                const std::string& site, std::uint64_t parent,
                                sim::Time begin, int detail = 0) {
  if (!r->traced()) return trace::kNoSpan;
  return r->spans->open(k, site, parent, begin, detail);
}
inline void trace_close(const RequestPtr& r, std::uint64_t id, sim::Time end) {
  if (r->traced()) r->spans->close(id, end);
}
inline void trace_add(const RequestPtr& r, trace::SpanKind k,
                      const std::string& site, std::uint64_t parent,
                      sim::Time begin, sim::Time end, int detail = 0) {
  if (r->traced()) r->spans->add(k, site, parent, begin, end, detail);
}
inline void trace_instant(const RequestPtr& r, trace::SpanKind k,
                          const std::string& site, std::uint64_t parent,
                          sim::Time at, int detail = 0) {
  if (r->traced()) r->spans->instant(k, site, parent, at, detail);
}
// The request's root span id (the client opens it first), or kNoSpan.
inline std::uint64_t trace_root(const RequestPtr& r) {
  return (r->traced() && !r->spans->empty()) ? r->spans->root().id
                                             : trace::kNoSpan;
}

}  // namespace ntier::server
