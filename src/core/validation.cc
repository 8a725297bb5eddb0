#include "core/validation.h"

#include <cmath>

#include "sim/format.h"

namespace ntier::core {

namespace {

ValidationCheck ratio_check(std::string name, double expected, double measured,
                            double rel_tol) {
  ValidationCheck c;
  c.name = std::move(name);
  c.expected = expected;
  c.measured = measured;
  c.rel_error = expected != 0.0 ? std::abs(measured - expected) / std::abs(expected)
                                : std::abs(measured);
  c.ok = c.rel_error <= rel_tol;
  return c;
}

ValidationCheck exact_check(std::string name, double expected, double measured) {
  ValidationCheck c;
  c.name = std::move(name);
  c.expected = expected;
  c.measured = measured;
  c.rel_error = std::abs(measured - expected);
  c.ok = c.rel_error < 0.5;  // integers
  return c;
}

}  // namespace

ValidationReport validate_run(NTierSystem& sys, double rel_tol) {
  ValidationReport report;
  const auto& cfg = sys.config();
  const sim::Time now = sys.simulation().now();
  const sim::Time from = cfg.workload.measure_from;
  const double horizon_s = (now - from).to_seconds();

  const double X = sys.latency().throughput_rps(from, now);
  const double R = sys.latency().histogram().mean().to_seconds();
  const double Z = cfg.workload.mean_think.to_seconds();
  const double N = static_cast<double>(cfg.workload.sessions);

  if (horizon_s > 1.0 && X > 0.0) {
    // Closed-loop law: X = N / (R + Z).
    report.checks.push_back(
        ratio_check("closed-loop X = N/(R+Z)", N / (R + Z), X, rel_tol));
    // Little's law at the web tier: time-averaged in-system population
    // equals X times the server-side residence time (response time minus
    // the client-side link round trip). Only meaningful without dropped
    // packets: RTO waits happen *outside* the tier, so X*R deliberately
    // overestimates the in-tier population in CTQO runs — that gap is
    // the paper's phenomenon, not a simulator error.
    const std::uint64_t drops = sys.web()->stats().dropped +
                                sys.app()->stats().dropped +
                                sys.db()->stats().dropped;
    if (drops == 0) {
      const double r_server =
          std::max(0.0, R - 2.0 * cfg.workload.client_link.to_seconds());
      const double mean_in_web =
          sys.sampler().series(sys.web()->name() + ".queue").mean_over(from, now);
      ValidationCheck little = ratio_check("Little mean(web.queue) = X*R_server",
                                           X * r_server, mean_in_web, rel_tol * 2.5);
      // Absolute slack for near-empty systems (gauge quantization).
      if (!little.ok && std::abs(little.measured - little.expected) < 0.5)
        little.ok = true;
      report.checks.push_back(little);
    }
  }

  for (auto tier : {Tier::kWeb, Tier::kApp, Tier::kDb}) {
    const auto* srv = sys.tier(tier);
    report.checks.push_back(exact_check(
        srv->name() + " flow balance",
        static_cast<double>(srv->stats().accepted),
        static_cast<double>(srv->stats().completed + srv->queued_requests())));
  }

  // Client conservation.
  report.checks.push_back(exact_check(
      "client conservation",
      static_cast<double>(sys.clients().issued()),
      static_cast<double>(sys.clients().completed() + sys.clients().in_flight())));

  for (const auto& c : report.checks) report.all_ok = report.all_ok && c.ok;
  return report;
}

std::string ValidationReport::to_string() const {
  std::string out = all_ok ? "validation: OK\n" : "validation: FAILED\n";
  for (const auto& c : checks)
    sim::appendf(out, "  [%s] %-36s expected=%.2f measured=%.2f err=%.3f\n",
                 c.ok ? "ok" : "FAIL", c.name.c_str(), c.expected, c.measured, c.rel_error);
  return out;
}

}  // namespace ntier::core
