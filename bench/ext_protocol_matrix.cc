// Protocol matrix: does the VLRT response-time tail survive a protocol
// upgrade, or does it just *hide*? The paper's CTQO chain ends in RHEL6
// TCP's 3 s SYN-retransmit minimum; this bench re-runs the Fig 3
// consolidation millibottleneck under every net::ProtocolProfile
// (docs/PROTOCOLS.md) × workload × NX level and classifies each point:
//
//   visible  -- kernel-level overflow AND multi-second p999 (the paper's
//               phenomenon: drops resolved by multi-second timers)
//   hidden   -- overflow still happens, but sub-second recovery timers
//               (linux_modern / udp_apptimeout) keep p999 under the
//               multi-second bar; the *cause* is intact, the *symptom*
//               shrank below the SLO radar
//   absent   -- no overflow at all (erpc bypass: nothing to retransmit)
//
// Emits machine-readable "[proto]" lines for scripts/run_benches.py
// (schema ntier.bench/7) and hard-asserts the headline result: at the
// same operating point, fixed3s is *visible*, linux_modern is *hidden*
// (drops nonzero, tail sub-second), and erpc is *absent*.
//
// Flags (bench_util.h): --replications=R --jobs=J --sweep-out=DIR
// [--quick]. --quick shrinks the grid to the 3-profile assertion column
// for CI smoke runs.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "net/protocol.h"
#include "sim/format.h"
#include "sweep/engine.h"

namespace {

// Overflow events of one reduced point: kernel drops plus SYN-cookie
// "accepted-but-slow" admissions (both are accept-queue saturation; the
// cookie path just converts the drop into inflated service time).
double overflow_mean(const ntier::sweep::PointResult& pt,
                     std::size_t replications) {
  double cookie_total = 0.0;
  for (const auto& [name, value] : pt.registry_totals) {
    // Cumulative probes snapshot as "<srv>.cookie_admits.total".
    if (name.find(".cookie_admits") != std::string::npos) cookie_total += value;
  }
  const double reps = replications ? static_cast<double>(replications) : 1.0;
  return pt.drops.mean + cookie_total / reps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ntier;
  const auto flags = bench::parse_bench_flags(argc, argv);
  if (flags.bad) return 2;
  bench::BenchPerf perf("ext_protocol_matrix");

  // Axis 0 indexes this table; the quick grid keeps exactly the three
  // profiles the headline assertion needs.
  const std::vector<std::string> protos =
      flags.quick ? std::vector<std::string>{"fixed3s", "linux_modern", "erpc"}
                  : net::ProtocolProfile::names();

  sweep::Grid grid;
  std::vector<double> proto_idx;
  for (std::size_t i = 0; i < protos.size(); ++i)
    proto_idx.push_back(static_cast<double>(i));
  if (flags.quick) {
    grid.add_axis("proto", proto_idx).add_axis("wl", {7000}).add_axis("nx", {0});
  } else {
    grid.add_axis("proto", proto_idx)
        .add_axis("wl", {5000, 7000})
        .add_axis("nx", {0, 3});
  }

  // Each point is the Fig 3 consolidation millibottleneck with the
  // profile applied on top; replication r of a point runs seed 42 + r.
  auto bind = [&flags, &protos](const sweep::GridPoint& p) {
    auto cfg = core::scenarios::fig3_consolidation_sync();
    cfg.obs = flags.obs;
    cfg.obs.out_dir.clear();
    cfg.obs.max_dumps = 0;
    const auto& proto = protos[static_cast<std::size_t>(p.value(0))];
    const auto wl = static_cast<std::size_t>(p.value(1));
    const auto nx = static_cast<int>(p.value(2));
    cfg.workload.sessions = wl;
    cfg.system.arch = static_cast<core::Architecture>(nx);
    cfg.duration = sim::Duration::seconds(16);
    const auto profile = net::ProtocolProfile::by_name(proto);
    core::apply_protocol(cfg, *profile);
    cfg.name.clear();
    sim::appendf(cfg.name, "proto-matrix-%s-wl%zu-nx%d", proto.c_str(), wl, nx);
    return cfg;
  };

  sweep::SweepOptions opt;
  opt.replications = flags.replications;
  opt.jobs = flags.jobs;

  const auto result = sweep::run_sweep(grid, bind, opt);

  std::printf("protocol matrix: %zu points x %zu replications (Fig 3 "
              "millibottleneck, 16 s runs)\n",
              result.points.size(), result.replications);
  std::puts(result.to_string().c_str());

  // Classify every point and remember the verdict at the headline
  // operating point (wl=7000, nx=0) per profile.
  std::map<std::string, net::CtqoVisibility> headline;
  for (const auto& pt : result.points) {
    const auto& proto = protos[static_cast<std::size_t>(pt.point.value(0))];
    const auto wl = static_cast<std::size_t>(pt.point.value(1));
    const auto nx = static_cast<int>(pt.point.value(2));
    const double overflow = overflow_mean(pt, result.replications);
    const auto p999 = sim::Duration::from_seconds(pt.p999_ms.mean / 1000.0);
    const auto verdict = net::classify_ctqo(
        static_cast<std::uint64_t>(std::llround(overflow)), p999);
    std::printf(
        "[proto] section=matrix proto=%s wl=%zu nx=%d drops=%.1f "
        "overflow=%.1f p999_ms=%.1f verdict=%s\n",
        proto.c_str(), wl, nx, pt.drops.mean, overflow, pt.p999_ms.mean,
        net::to_string(verdict));
    if (wl == 7000 && nx == 0) headline[proto] = verdict;
  }

  // The headline result this bench exists to demonstrate: same load,
  // same millibottleneck, three different fates for the tail.
  bool ok = true;
  auto expect = [&](const char* proto, net::CtqoVisibility want) {
    const auto it = headline.find(proto);
    const bool pass = it != headline.end() && it->second == want;
    std::printf("[proto] section=verdict proto=%s expect=%s pass=%d\n", proto,
                net::to_string(want), pass ? 1 : 0);
    ok = ok && pass;
  };
  expect("fixed3s", net::CtqoVisibility::kVisible);
  expect("linux_modern", net::CtqoVisibility::kHidden);
  expect("erpc", net::CtqoVisibility::kAbsent);

  std::error_code ec;
  std::filesystem::create_directories(flags.sweep_out, ec);
  const std::string csv_path = flags.sweep_out + "/protocol_matrix.csv";
  const std::string man_path = flags.sweep_out + "/protocol_matrix.sweep.json";
  const bool wrote = metrics::write_file(csv_path, result.csv()) &&
                     metrics::write_file(man_path, result.manifest_json());
  if (wrote) {
    std::printf("wrote %s and %s\n", csv_path.c_str(), man_path.c_str());
  } else {
    std::printf("FAILED writing sweep artifacts under %s\n",
                flags.sweep_out.c_str());
  }

  perf.add_events(result.total_events);
  perf.print();
  return (ok && wrote) ? 0 : 1;
}
