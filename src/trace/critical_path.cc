#include "trace/critical_path.h"

#include <algorithm>
#include <cinttypes>
#include <map>

#include "sim/format.h"

namespace ntier::trace {

namespace {

struct Walker {
  const std::vector<Span>& spans;
  std::vector<std::vector<std::uint64_t>> children;
  // Accumulated self-time per (kind, site).
  std::map<std::pair<SpanKind, std::string>, sim::Duration> buckets;

  explicit Walker(const RequestTrace& t) : spans(t.spans()) {
    children.resize(spans.size());
    for (const Span& s : spans)
      if (s.parent != kNoSpan) children[s.parent].push_back(s.id);
    // Allocation order is open order; sweep wants begin order. Stable
    // sort keeps same-instant siblings in open order for determinism.
    for (auto& kids : children)
      std::stable_sort(kids.begin(), kids.end(),
                       [this](std::uint64_t a, std::uint64_t b) {
                         return spans[a].begin < spans[b].begin;
                       });
  }

  void charge(const Span& s, sim::Time a, sim::Time b) {
    if (b <= a) return;
    buckets[{s.kind, s.site}] += b - a;
  }

  // Attributes [a, b) among `s` and its descendants.
  void attribute(const Span& s, sim::Time a, sim::Time b) {
    sim::Time cursor = a;
    for (std::uint64_t cid : children[s.id]) {
      const Span& c = spans[cid];
      // Unclosed child: the request left it dangling; clamp to parent.
      const sim::Time cend = c.closed() ? c.end : b;
      const sim::Time from = std::max(c.begin, cursor);
      const sim::Time to = std::min(cend, b);
      if (to <= from) continue;
      charge(s, cursor, from);  // parent self-time before this child
      attribute(c, from, to);
      cursor = to;
    }
    charge(s, cursor, b);  // parent self-time after the last child
  }
};

}  // namespace

CriticalPath critical_path(const RequestTrace& trace) {
  CriticalPath out;
  out.request_id = trace.request_id();
  if (trace.empty() || !trace.root().closed()) return out;
  const Span& root = trace.root();
  out.total = root.duration();

  Walker w(trace);
  w.attribute(root, root.begin, root.end);

  for (const auto& [key, time] : w.buckets) {
    if (time <= sim::Duration::zero()) continue;
    CriticalPath::Item item;
    item.kind = key.first;
    item.site = key.second;
    item.time = time;
    item.share = out.total > sim::Duration::zero() ? time / out.total : 0.0;
    out.items.push_back(std::move(item));
  }
  std::stable_sort(out.items.begin(), out.items.end(),
                   [](const auto& a, const auto& b) { return a.time > b.time; });
  return out;
}

sim::Duration CriticalPath::by_kind(SpanKind k) const {
  sim::Duration sum;
  for (const Item& i : items)
    if (i.kind == k) sum += i.time;
  return sum;
}

std::string CriticalPath::to_string() const {
  std::string out;
  sim::appendf(out, "request %" PRIu64 ", latency %.1f ms:", request_id, total.to_millis());
  for (const Item& i : items)
    sim::appendf(out, " %.1f ms %s at %s (%.1f%%),", i.time.to_millis(), trace::to_string(i.kind),
                 i.site.c_str(), i.share * 100.0);
  if (!items.empty()) out.pop_back();  // trailing comma
  return out;
}

}  // namespace ntier::trace
