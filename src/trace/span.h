// Per-request distributed-tracing spans.
//
// A RequestTrace is the span tree of ONE logical request as it crosses
// the tier chain: a root span for the whole client-visible lifetime, one
// hop span per server visit, and nested child spans for everything time
// can be spent on — accept-backlog wait, run-queue/pool wait, CPU and
// disk service, downstream-call wait, RTO retransmission gaps, and
// tail-policy events (retry backoff, hedges, deadline cancels, breaker
// rejections). The tree is what the paper's manual micro-level event
// analysis reconstructs by aligning per-tier timestamps; here every
// span is recorded in-line at µs resolution, so `critical_path.h` can
// answer "where did this request's 3 seconds go" mechanically.
//
// Units: all span boundaries are simulated `sim::Time` instants
// (integral microseconds since the simulation origin). A span that was
// opened but never closed (request abandoned mid-flight, or still in
// the system when the run ends) reports `closed() == false`; analyzers
// clamp such spans to the enclosing span's end.
//
// Layering: this library depends only on `sim/` — servers, transports,
// and clients record into it, and `core/` analyzes it, without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/slab_pool.h"
#include "sim/time.h"

namespace ntier::trace {

// Sentinel parent for root spans / "not traced" span handles.
inline constexpr std::uint64_t kNoSpan = ~0ull;

// What a slice of a request's lifetime was spent on.
enum class SpanKind : std::uint8_t {
  kRequest,        // root: client send -> client receive
  kHop,            // one server visit: admission -> reply
  kAcceptQueue,    // waiting in a TCP accept backlog (sync tiers)
  kPoolQueue,      // waiting for a worker/stage slot or a connection pool
  kService,        // CPU work step executing on the tier's VM
  kDisk,           // disk work step on the tier's IoDevice
  kDownstream,     // waiting on the downstream tier (dispatch -> reply)
  kRtoGap,         // TCP retransmission wait after a dropped/lost packet
  kRetry,          // policy-layer retry backoff wait
  kHedge,          // instant: a hedged duplicate was sent
  kDeadlineCancel, // instant: the end-to-end deadline expired here
  kBreakerReject,  // instant: circuit breaker fast-failed the send
  kDrop,           // instant: an admission refusal (the dropped packet)
  kOverloadShed,   // instant: the overload controller shed the request
  kBrownout,       // instant: admitted for the degraded (brownout) response
};

// Stable lowercase name ("rto_gap", "service", ...) used in exports.
const char* to_string(SpanKind k);

// One slice of a request's lifetime: a node of its span tree.
struct Span {
  std::uint64_t id = kNoSpan;      // index into RequestTrace::spans()
  std::uint64_t parent = kNoSpan;  // kNoSpan for the root span
  SpanKind kind = SpanKind::kRequest;
  // Where the time was spent: a tier name ("tomcat"), a hop
  // ("tomcat->mysql" for downstream/RTO spans), or "client".
  std::string site;
  sim::Time begin;                 // open instant (µs, simulated)
  sim::Time end;                   // close instant; valid iff closed()
  // Kind-specific small integer: retransmission/retry attempt number
  // for kRtoGap/kRetry, drop reason for kDrop (0 = queue overflow,
  // 1 = refused while crashed, 2 = load-shed), else 0.
  int detail = 0;
  bool closed_ = false;

  // True once the span has an end instant.
  bool closed() const { return closed_; }
  // Duration of a closed span; zero for instants and unclosed spans.
  sim::Duration duration() const {
    return closed_ ? end - begin : sim::Duration::zero();
  }
};

// Append-only span tree for one request. Span ids are allocation order
// (parents always precede children), which makes same-seed runs emit
// byte-identical exports.
class RequestTrace {
 public:
  // An empty tree for the request with this id (the client opens the
  // root span next).
  explicit RequestTrace(std::uint64_t request_id) : request_id_(request_id) {}

  // Id of the traced request (server::Request::id).
  std::uint64_t request_id() const { return request_id_; }

  // Opens a span; returns its id (pass to close()). `parent` may be
  // kNoSpan only for the root.
  std::uint64_t open(SpanKind kind, std::string site, std::uint64_t parent,
                     sim::Time begin, int detail = 0);
  // Closes an open span at `end`; idempotent (later closes are ignored)
  // so first-reply-wins races cannot corrupt the tree.
  void close(std::uint64_t id, sim::Time end);
  // Records a closed span in one call (begin and end already known).
  std::uint64_t add(SpanKind kind, std::string site, std::uint64_t parent,
                    sim::Time begin, sim::Time end, int detail = 0);
  // Records a zero-length marker span (policy events, drops).
  std::uint64_t instant(SpanKind kind, std::string site, std::uint64_t parent,
                        sim::Time at, int detail = 0);

  // Every span, indexed by id (allocation order); true when none yet.
  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  // The root (first-opened) span. Undefined when empty().
  const Span& root() const { return spans_.front(); }
  // Root duration if the root is closed, else zero.
  sim::Duration total() const { return root().duration(); }

 private:
  std::uint64_t request_id_;
  std::vector<Span> spans_;
};

// Span trees are slab-pooled (the per-request object is recycled; span
// storage itself still grows with the tree — tracing explicitly costs
// memory). TracePtr replaces the former shared_ptr<RequestTrace>.
using TracePtr = sim::PoolRef<RequestTrace>;

// Thread-local pool behind Tracer::begin; exposed for tests.
inline sim::SlabPool<RequestTrace>& trace_pool() {
  thread_local sim::SlabPool<RequestTrace> pool;
  return pool;
}

}  // namespace ntier::trace
