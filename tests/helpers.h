// Shared scaffolding for server-layer tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/host_core.h"
#include "server/app_profile.h"
#include "server/request.h"
#include "server/server_base.h"
#include "sim/simulation.h"
#include "trace/chrome_trace.h"

namespace ntier::test {

// One-class profile whose per-tier programs are supplied directly by the
// test through custom program functions.
inline server::AppProfile one_class_profile() {
  server::AppProfile p;
  server::RequestClassProfile c;
  c.name = "only";
  c.weight = 1.0;
  c.web_pre = sim::Duration::micros(100);
  c.app_pre = sim::Duration::micros(100);
  c.app_post = sim::Duration::micros(100);
  c.db_queries = 1;
  c.db_cpu = sim::Duration::micros(100);
  p.classes.push_back(c);
  return p;
}

inline server::RequestPtr make_request(sim::Time now, std::uint64_t id = 1) {
  auto r = server::make_request();
  r->id = id;
  r->issued = now;
  r->class_index = 0;
  return r;
}

// Collects replies with their times.
struct ReplySink {
  std::vector<std::pair<std::uint64_t, sim::Time>> replies;
  sim::Simulation* sim;
  explicit ReplySink(sim::Simulation& s) : sim(&s) {}
  server::Job job(std::uint64_t id = 1) {
    server::Job j;
    j.req = make_request(sim->now(), id);
    j.reply = [this](const server::RequestPtr& r) {
      replies.emplace_back(r->id, sim->now());
    };
    return j;
  }
};

// A program of a single CPU step.
inline server::Program cpu_only(sim::Duration d) {
  return {server::WorkStep{server::WorkStep::Kind::kCpu, d}};
}

// cpu -> downstream -> cpu.
inline server::Program cpu_down_cpu(sim::Duration pre, sim::Duration post) {
  return {server::WorkStep{server::WorkStep::Kind::kCpu, pre},
          server::WorkStep{server::WorkStep::Kind::kDownstream, sim::Duration::zero()},
          server::WorkStep{server::WorkStep::Kind::kCpu, post}};
}

// "<size>:<fnv1a64 hex>" of a rendered string: the byte pins of the
// ReportPin and ServerModelPin tests.
inline std::string pin(const std::string& s) {
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

// One server's name and Stats counters as a text line, ending with its
// governor's downstream retries and hedges (0 and 0 without a policy).
inline std::string stats_line(const server::Server& s) {
  const server::Server::Stats& st = s.stats();
  const policy::HopGovernor* g = s.governor();
  std::string out = s.name();
  for (const std::uint64_t v : {st.offered, st.accepted, st.dropped, st.completed, st.failed,
                                st.refused_down, st.expired, st.aborted,
                                g != nullptr ? g->stats().retries : 0,
                                g != nullptr ? g->stats().hedges : 0}) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

// Spans per "<kind> <site>" over every retained trace.
inline std::map<std::string, std::size_t> span_counts(const trace::TraceList& traces) {
  std::map<std::string, std::size_t> n;
  for (const auto& tr : traces)
    for (const auto& s : tr->spans()) ++n[std::string(trace::to_string(s.kind)) + " " + s.site];
  return n;
}

}  // namespace ntier::test
