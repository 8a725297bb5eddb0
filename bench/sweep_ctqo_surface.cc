// CTQO onset as a *surface*, not a point: the paper's Fig 3 experiment
// swept over workload intensity (λ) × MaxSysQDepth (TCP backlog) × NX
// level, with R seed-replications per grid point reduced to means with
// 95 % Student-t confidence intervals (sweep/engine.h). Where every
// single-run figure shows one configuration crossing into CTQO, this
// bench maps the onset frontier: the smallest workload at which drop
// episodes appear, per (backlog, NX) slice — and shows NX=3 never
// crossing it anywhere in the range.
//
// Flags (bench_util.h): --replications=R --jobs=J --sweep-out=DIR
// [--dashboard=DIR] [--quick]. The reduced CSV and sweep manifest are
// byte-identical for every J (the determinism contract of
// docs/SWEEPS.md); --quick shrinks the grid to 2×1×2 for smoke runs.
#include <cstdio>

#include "bench_util.h"
#include "sim/format.h"
#include "sweep/engine.h"

int main(int argc, char** argv) {
  using namespace ntier;
  const auto flags = bench::parse_bench_flags(argc, argv);
  if (flags.bad) return 2;
  bench::BenchPerf perf("sweep_ctqo_surface");

  sweep::Grid grid;
  if (flags.quick) {
    grid.add_axis("wl", {3000, 7000})
        .add_axis("backlog", {128})
        .add_axis("nx", {0, 3});
  } else {
    grid.add_axis("wl", {3000, 5000, 7000})
        .add_axis("backlog", {64, 128})
        .add_axis("nx", {0, 3});
  }

  // Each point is the Fig 3 consolidation millibottleneck with the
  // axes applied; replication r of a point runs seed 42 + r.
  auto bind = [&flags](const sweep::GridPoint& p) {
    auto cfg = core::scenarios::fig3_consolidation_sync();
    // Detection-only under the sweep: replications share one run name,
    // so file-writing from worker threads would race. Incidents still
    // reach the rep-0 dashboard + manifest via maybe_dashboard.
    cfg.obs = flags.obs;
    cfg.obs.out_dir.clear();
    cfg.obs.max_dumps = 0;
    const auto wl = static_cast<std::size_t>(p.value(0));
    const auto backlog = static_cast<std::size_t>(p.value(1));
    const auto nx = static_cast<int>(p.value(2));
    cfg.workload.sessions = wl;
    cfg.system.backlog = backlog;
    cfg.system.arch = static_cast<core::Architecture>(nx);
    cfg.duration = sim::Duration::seconds(16);
    cfg.name.clear();
    sim::appendf(cfg.name, "ctqo-surface-wl%zu-q%zu-nx%d", wl, backlog, nx);
    return cfg;
  };

  sweep::SweepOptions opt;
  opt.replications = flags.replications;
  opt.jobs = flags.jobs;

  // Replication 0 of each point optionally renders the standard run
  // dashboard; distinct runs write distinct files, so the hook is safe
  // under the worker pool.
  sweep::RunHook hook;
  if (!flags.dashboard_dir.empty()) {
    hook = [&flags](const sweep::GridPoint&, std::size_t rep,
                    core::NTierSystem& sys) {
      if (rep == 0) bench::maybe_dashboard(sys, flags);
    };
  }

  const auto result = sweep::run_sweep(grid, bind, opt, hook);

  std::printf("CTQO onset surface: %zu points x %zu replications (Fig 3 "
              "millibottleneck, 16 s runs)\n",
              result.points.size(), result.replications);
  std::puts(result.to_string().c_str());

  std::error_code ec;
  std::filesystem::create_directories(flags.sweep_out, ec);
  const std::string csv_path = flags.sweep_out + "/ctqo_surface.csv";
  const std::string man_path = flags.sweep_out + "/ctqo_surface.sweep.json";
  const bool ok = metrics::write_file(csv_path, result.csv()) &&
                  metrics::write_file(man_path, result.manifest_json());
  if (ok) {
    std::printf("wrote %s and %s\n", csv_path.c_str(), man_path.c_str());
  } else {
    std::printf("FAILED writing sweep artifacts under %s\n",
                flags.sweep_out.c_str());
  }

  perf.add_events(result.total_events);
  perf.print();
  return ok ? 0 : 1;
}
