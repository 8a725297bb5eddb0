// Micro-level event analysis: the paper's methodology applied to one
// run. Traces every request of the Fig 3 scenario as a span tree,
// prints the tree of one normal and one VLRT request, then the mean
// critical-path time per span kind for each population, followed by
// the automatic CTQO classification.
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "trace/critical_path.h"

namespace {

using namespace ntier;

// One span per line, indented by depth; times relative to the root.
void print_tree(const trace::RequestTrace& t) {
  const auto& spans = t.spans();
  std::vector<std::vector<std::uint64_t>> kids(spans.size());
  for (const auto& s : spans)
    if (s.parent != trace::kNoSpan) kids[s.parent].push_back(s.id);
  const sim::Time t0 = t.root().begin;
  auto walk = [&](auto& self, std::uint64_t id, int depth) -> void {
    const trace::Span& s = spans[id];
    std::printf("  %10.3f ms %10.3f ms  %*s%s %s\n", (s.begin - t0).to_millis(),
                s.duration().to_millis(), 2 * depth, "", trace::to_string(s.kind),
                s.site.c_str());
    for (std::uint64_t c : kids[id]) self(self, c, depth + 1);
  };
  std::printf("  %13s %13s  span\n", "start", "duration");
  walk(walk, t.root().id, 0);
}

void dump(const char* title, const trace::RequestTrace* t) {
  if (t == nullptr) {
    std::printf("%s: none observed\n\n", title);
    return;
  }
  std::printf("%s: request %llu, latency %.1f ms\n", title,
              static_cast<unsigned long long>(t->request_id()), t->total().to_millis());
  print_tree(*t);
  std::puts("");
}

// Mean critical-path time per span kind over a population. Every line
// carries the population tag, so a log grep can pick one group's row.
void breakdown(const char* tag, const std::vector<const trace::RequestTrace*>& pop) {
  std::map<trace::SpanKind, sim::Duration> by_kind;
  sim::Duration total;
  for (const auto* t : pop) {
    const trace::CriticalPath cp = trace::critical_path(*t);
    total += cp.total;
    for (const auto& item : cp.items) by_kind[item.kind] += item.time;
  }
  const auto n = static_cast<std::int64_t>(pop.size());
  std::printf("%s population: %lld requests, mean latency %.3f ms\n", tag,
              static_cast<long long>(n), n > 0 ? (total / n).to_millis() : 0.0);
  for (const auto& [kind, time] : by_kind)
    std::printf("  %-6s %-14s %10.3f ms  %5.1f%%\n", tag, trace::to_string(kind),
                (time / n).to_millis(), 100.0 * (time / total));
  std::puts("");
}

}  // namespace

int main() {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.name = "microanalysis";
  cfg.trace.mode = trace::TraceMode::kAll;
  cfg.duration = sim::Duration::seconds(15);
  auto sys = core::run_system(cfg);

  // The CTQO signature splits the population: a VLRT request waited out
  // a TCP retransmission timeout (an rto_gap span) somewhere on its path.
  std::vector<const trace::RequestTrace*> normal, vlrt;
  const trace::RequestTrace* normal_example = nullptr;
  for (const auto& t : sys->tracer()->traces()) {
    bool rto = false;
    for (const auto& s : t->spans()) rto = rto || s.kind == trace::SpanKind::kRtoGap;
    (rto ? vlrt : normal).push_back(t.get());
    if (!rto && normal_example == nullptr && t->total() > sim::Duration::millis(2))
      normal_example = t.get();
  }

  std::puts("=== micro-level event analysis (paper §IV methodology) ===\n");
  dump("normal request", normal_example);
  dump("VLRT request", vlrt.empty() ? nullptr : vlrt.front());

  std::puts("mean critical-path time per span kind (the VLRT population's");
  std::puts("latency lives in the rto_gap waits *outside* every hop — the");
  std::puts("CTQO signature):\n");
  breakdown("normal", normal);
  breakdown("vlrt", vlrt);

  std::puts("automatic classification of every drop episode:");
  std::puts(core::analyze_ctqo(*sys).to_string().c_str());
  return 0;
}
