// Byte pins on the rendered reports of one 3-tier run and one service
// graph run: the run manifest, the HTML dashboard, and the summary /
// correlation text. Each string is reduced to its (size, FNV-1a-64)
// fingerprint, so any change to the report path, the telemetry it reads
// or the run itself fails here with both numbers in the message.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/correlate.h"
#include "core/experiment.h"
#include "core/manifest.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "report/dashboard.h"

namespace ntier {
namespace {

using sim::Duration;

// "<size>:<fnv1a64 hex>" of a rendered report.
std::string pin(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%zu:%016llx", s.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(ReportPin, NTierLogFlush) {
  auto cfg = core::scenarios::fig5_logflush_sync();
  cfg.duration = Duration::seconds(45);
  cfg.obs.enabled = true;  // out_dir empty: detection only, no files
  auto sys = core::run_system(cfg);
  ASSERT_NE(sys->obs(), nullptr);
  sys->obs()->finalize(sys->simulation().now());
  const obs::IncidentSummary incidents = sys->obs()->summary();
  ASSERT_GT(incidents.count, 0u);

  const core::ExperimentSummary summary = core::summarize(*sys);
  const core::CorrelationReport corr = core::correlate(*sys);
  EXPECT_EQ(pin(core::run_manifest_json(*sys, &summary.ctqo, &incidents)),
            "1129:e8ada8db23be8392");
  EXPECT_EQ(pin(report::render_dashboard(*sys, summary.ctqo, corr, sys->obs())),
            "108057:519409ca93d5b182");
  EXPECT_EQ(pin(summary.to_string()), "646:a2312f5bdb72a612");
}

// Fan-out with a replicated p2c group whose replica 0 freezes: takes the
// balancer wiring path, not the chain path.
constexpr const char* kFanOut = R"(graph pin_fanout
sessions 2000
think 1s
duration 15s
node front   kind=sync threads=150 backlog=64 work=cpu:60us,down,cpu:40us
node catalog kind=async work=cpu:120us,down,cpu:40us
node svc     kind=sync replicas=3 lb=p2c threads=20 backlog=16 work=cpu:1300us
node db      kind=sync threads=60 work=cpu:300us,disk:200us
edge front catalog
edge front svc
edge catalog db
freeze svc replica=0 first=3s period=4s pause=900ms
)";

TEST(ReportPin, GraphFanOut) {
  auto sys = graph::run_graph(graph::parse_topology(kFanOut));
  ASSERT_FALSE(graph::is_chain(sys->config()));
  const core::CtqoReport ctqo = graph::analyze_ctqo(*sys);
  const core::CorrelationReport corr = graph::correlate(*sys);
  EXPECT_EQ(pin(graph::run_manifest_json(*sys, &ctqo)), "1109:d0f3fb55f7e51bed");
  EXPECT_EQ(pin(report::render_dashboard(*sys, ctqo, corr)),
            "82263:3aecbc6d38d0b802");
  EXPECT_EQ(pin(corr.to_string()), "2370:92c41576386b3bef");
}

}  // namespace
}  // namespace ntier
