#include "graph/topology.h"

#include "core/testbed.h"
#include "net/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace ntier::graph {

namespace {

// A finite decimal number that spans all of `s` (stod alone stops at the
// first character it cannot use, so "1.2.3" would read as 1.2, and it
// accepts "nan" and "inf").
bool parse_double(const std::string& s, double& out) {
  std::size_t used = 0;
  try {
    out = std::stod(s, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == s.size() && std::isfinite(out);
}

// "60us" / "2ms" / "1.5s" -> Duration (integral microseconds).
bool parse_duration_tok(const std::string& s, sim::Duration& out) {
  std::size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.'))
    ++i;
  if (i == 0 || i == s.size()) return false;
  double value = 0.0;
  if (!parse_double(s.substr(0, i), value)) return false;
  const std::string unit = s.substr(i);
  double scale_us = 0.0;
  if (unit == "us") scale_us = 1.0;
  else if (unit == "ms") scale_us = 1e3;
  else if (unit == "s") scale_us = 1e6;
  else return false;
  out = sim::Duration::micros(static_cast<std::int64_t>(std::llround(value * scale_us)));
  return true;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream in(line);
  std::string t;
  while (in >> t) toks.push_back(t);
  return toks;
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  return parts;
}

[[noreturn]] void fail(int lineno, const std::string& why) {
  throw std::invalid_argument("topology line " + std::to_string(lineno) + ": " + why);
}

std::vector<server::WorkStep> parse_work(const std::string& spec, int lineno) {
  std::vector<server::WorkStep> steps;
  for (const std::string& tok : split_on(spec, ',')) {
    if (tok == "down") {
      steps.push_back({server::WorkStep::Kind::kDownstream, sim::Duration::zero()});
      continue;
    }
    const auto colon = tok.find(':');
    if (colon == std::string::npos) fail(lineno, "bad work step '" + tok + "'");
    const std::string kind = tok.substr(0, colon);
    sim::Duration amount;
    if (!parse_duration_tok(tok.substr(colon + 1), amount))
      fail(lineno, "bad duration in work step '" + tok + "'");
    if (kind == "cpu") {
      steps.push_back({server::WorkStep::Kind::kCpu, amount});
    } else if (kind == "disk") {
      steps.push_back({server::WorkStep::Kind::kDisk, amount});
    } else {
      fail(lineno, "unknown work step kind '" + kind + "'");
    }
  }
  return steps;
}

// Digits only, all of `s`, in range: stoull would wrap a leading '-' to
// 2^64-1 and ignore trailing junk.
std::uint64_t parse_u64(const std::string& s, int lineno, const std::string& what) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) fail(lineno, "bad " + what + " '" + s + "'");
  return v;
}

// parse_u64 for int fields, rejecting what a cast would wrap.
int parse_int(const std::string& s, int lineno, const std::string& what) {
  const std::uint64_t v = parse_u64(s, lineno, what);
  if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    fail(lineno, "bad " + what + " '" + s + "'");
  return static_cast<int>(v);
}

NodeSpec parse_node(const std::vector<std::string>& toks, int lineno) {
  if (toks.size() < 2) fail(lineno, "node needs a name");
  NodeSpec spec;
  spec.name = toks[1];
  bool have_work = false;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    const std::string& attr = toks[i];
    const auto eq = attr.find('=');
    if (eq == std::string::npos) {
      if (attr == "disk") {
        spec.has_disk = true;
        continue;
      }
      fail(lineno, "unknown node flag '" + attr + "'");
    }
    const std::string key = attr.substr(0, eq);
    const std::string val = attr.substr(eq + 1);
    if (key == "kind") {
      if (val == "sync") spec.kind = NodeSpec::Kind::kSync;
      else if (val == "async") spec.kind = NodeSpec::Kind::kAsync;
      else if (val == "staged") spec.kind = NodeSpec::Kind::kStaged;
      else fail(lineno, "unknown node kind '" + val + "'");
    } else if (key == "replicas") {
      spec.replicas = parse_u64(val, lineno, "replicas");
    } else if (key == "lb") {
      if (!parse_lb(val, spec.lb)) fail(lineno, "unknown lb policy '" + val + "'");
    } else if (key == "sched") {
      if (!parse_sched(val, spec.sched)) fail(lineno, "unknown sched '" + val + "'");
    } else if (key == "vcpus") {
      spec.vcpus = parse_int(val, lineno, "vcpus");
    } else if (key == "threads") {
      spec.sync.threads_per_process = parse_u64(val, lineno, "threads");
    } else if (key == "backlog") {
      spec.sync.backlog = parse_u64(val, lineno, "backlog");
    } else if (key == "dbpool") {
      spec.sync.db_pool = parse_u64(val, lineno, "dbpool");
    } else if (key == "liteq") {
      spec.async_cfg.lite_q_depth = parse_u64(val, lineno, "liteq");
    } else if (key == "active") {
      spec.async_cfg.max_active = parse_u64(val, lineno, "active");
    } else if (key == "stage_threads") {
      spec.staged_cfg.ingress.threads = parse_u64(val, lineno, "stage_threads");
      spec.staged_cfg.continuation.threads = spec.staged_cfg.ingress.threads;
    } else if (key == "stage_queue") {
      spec.staged_cfg.ingress.queue_cap = parse_u64(val, lineno, "stage_queue");
      spec.staged_cfg.continuation.queue_cap = spec.staged_cfg.ingress.queue_cap;
    } else if (key == "work") {
      spec.work = parse_work(val, lineno);
      have_work = true;
    } else {
      fail(lineno, "unknown node attribute '" + key + "'");
    }
  }
  if (!have_work) fail(lineno, "node '" + spec.name + "' has no work= program");
  // A disk work step implies the device even without the `disk` flag.
  for (const auto& st : spec.work)
    if (st.kind == server::WorkStep::Kind::kDisk) spec.has_disk = true;
  return spec;
}

}  // namespace

int node_index(const GraphConfig& cfg, const std::string& name) {
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i)
    if (cfg.nodes[i].name == name) return static_cast<int>(i);
  return -1;
}

std::vector<int> out_edges(const GraphConfig& cfg, int node) {
  std::vector<int> out;
  for (const EdgeSpec& e : cfg.edges)
    if (e.from == node) out.push_back(e.to);
  return out;
}

bool is_chain(const GraphConfig& cfg) {
  const std::size_t n = cfg.nodes.size();
  for (const NodeSpec& spec : cfg.nodes)
    if (spec.replicas != 1) return false;
  // A per-edge protocol override needs per-route transports, which the
  // connect_downstream fast path cannot express.
  for (const EdgeSpec& e : cfg.edges)
    if (!e.proto.empty()) return false;
  if (cfg.edges.size() != (n == 0 ? 0 : n - 1)) return false;
  // Every consecutive pair linked, and no other edges — order-free.
  std::vector<bool> seen(n, false);
  for (const EdgeSpec& e : cfg.edges) {
    if (e.to != e.from + 1) return false;
    if (e.from < 0 || static_cast<std::size_t>(e.from) >= n) return false;
    if (seen[e.from]) return false;
    seen[e.from] = true;
  }
  return true;
}

GraphConfig parse_topology(const std::string& text) {
  GraphConfig cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  std::unordered_map<std::string, int> by_name;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const std::vector<std::string> toks = split_ws(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    auto want = [&](std::size_t n) {
      if (toks.size() != n)
        fail(lineno, "'" + kw + "' takes " + std::to_string(n - 1) + " argument(s)");
    };
    auto dur_arg = [&](const std::string& tok) {
      sim::Duration d;
      if (!parse_duration_tok(tok, d)) fail(lineno, "bad duration '" + tok + "'");
      return d;
    };
    if (kw == "graph") {
      want(2);
      cfg.name = toks[1];
    } else if (kw == "seed") {
      want(2);
      cfg.seed = parse_u64(toks[1], lineno, "seed");
    } else if (kw == "duration") {
      want(2);
      cfg.duration = dur_arg(toks[1]);
    } else if (kw == "sessions") {
      want(2);
      cfg.workload.sessions = parse_u64(toks[1], lineno, "session count");
    } else if (kw == "think") {
      want(2);
      cfg.workload.mean_think = dur_arg(toks[1]);
    } else if (kw == "link") {
      want(2);
      cfg.link_latency = dur_arg(toks[1]);
    } else if (kw == "proto") {
      want(2);
      const auto p = net::ProtocolProfile::by_name(toks[1]);
      if (!p) fail(lineno, "unknown protocol profile '" + toks[1] + "'");
      cfg.protocol = toks[1];
      cfg.tier_rto = p->rto;
      cfg.workload.client_rto = p->rto;
      cfg.admission = p->admission;
      cfg.cookie_penalty = p->cookie_penalty;
      core::apply_app_recovery(cfg.workload.client_policy, *p);
      core::apply_app_recovery(cfg.tier_policy, *p);
    } else if (kw == "burst") {
      want(4);
      if (!parse_double(toks[1], cfg.workload.burst_index))
        fail(lineno, "bad burst index '" + toks[1] + "'");
      cfg.workload.burst_dwell = dur_arg(toks[2]);
      cfg.workload.normal_dwell = dur_arg(toks[3]);
    } else if (kw == "node") {
      NodeSpec spec = parse_node(toks, lineno);
      if (by_name.count(spec.name)) fail(lineno, "duplicate node '" + spec.name + "'");
      by_name[spec.name] = static_cast<int>(cfg.nodes.size());
      cfg.nodes.push_back(std::move(spec));
    } else if (kw == "edge") {
      if (toks.size() != 3 && toks.size() != 4)
        fail(lineno, "'edge' takes 2 node names and an optional proto=<name>");
      const auto from = by_name.find(toks[1]);
      const auto to = by_name.find(toks[2]);
      if (from == by_name.end()) fail(lineno, "edge from unknown node '" + toks[1] + "'");
      if (to == by_name.end()) fail(lineno, "edge to unknown node '" + toks[2] + "'");
      EdgeSpec e{from->second, to->second, {}};
      if (toks.size() == 4) {
        const std::string& attr = toks[3];
        const auto eq = attr.find('=');
        if (eq == std::string::npos || attr.substr(0, eq) != "proto")
          fail(lineno, "unknown edge attribute '" + attr + "'");
        e.proto = attr.substr(eq + 1);
        if (!net::ProtocolProfile::by_name(e.proto))
          fail(lineno, "unknown protocol profile '" + e.proto + "'");
      }
      cfg.edges.push_back(std::move(e));
    } else if (kw == "freeze") {
      // freeze <node> [replica=N] [first=<dur>] [period=<dur>] [pause=<dur>]
      if (toks.size() < 2) fail(lineno, "freeze needs a node name");
      const auto it = by_name.find(toks[1]);
      if (it == by_name.end()) fail(lineno, "freeze of unknown node '" + toks[1] + "'");
      cfg.freeze_node = it->second;
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto eq = toks[i].find('=');
        if (eq == std::string::npos) fail(lineno, "bad freeze attribute '" + toks[i] + "'");
        const std::string key = toks[i].substr(0, eq);
        const std::string val = toks[i].substr(eq + 1);
        if (key == "replica") {
          cfg.freeze_replica = parse_int(val, lineno, "replica");
        } else if (key == "first") {
          cfg.freeze.first = sim::Time::origin() + dur_arg(val);
        } else if (key == "period") {
          cfg.freeze.period = dur_arg(val);
        } else if (key == "pause") {
          cfg.freeze.pause = dur_arg(val);
        } else {
          fail(lineno, "unknown freeze attribute '" + key + "'");
        }
      }
    } else {
      fail(lineno, "unknown directive '" + kw + "'");
    }
  }
  return cfg;
}

std::string invalid_reason(const GraphConfig& cfg) {
  auto why = [&cfg](const std::string& msg) { return "graph '" + cfg.name + "': " + msg; };
  const std::string name_why = core::invalid_run_name(cfg.name);
  if (!name_why.empty()) return why(name_why);
  const std::size_t n = cfg.nodes.size();
  if (n == 0) return why("a graph needs at least one node");
  if (cfg.duration <= sim::Duration::zero()) return why("duration must be positive");
  if (cfg.sample_window <= sim::Duration::zero())
    return why("sample_window must be positive");
  if (cfg.link_latency < sim::Duration::zero())
    return why("link_latency cannot be negative");

  std::unordered_set<std::string> names;
  for (const NodeSpec& t : cfg.nodes) {
    if (t.name.empty()) return why("a node has an empty name");
    if (!names.insert(t.name).second) return why("duplicate node name '" + t.name + "'");
    if (t.vcpus <= 0) return why("node '" + t.name + "' has no vCPUs");
    if (t.replicas == 0) return why("node '" + t.name + "' has zero replicas");
    if (t.work.empty()) return why("node '" + t.name + "' has an empty work program");
    switch (t.kind) {
      case NodeSpec::Kind::kSync:
        if (t.sync.threads_per_process == 0)
          return why("node '" + t.name + "' has an empty thread pool");
        if (t.sync.backlog == 0) return why("node '" + t.name + "' has a zero TCP backlog");
        break;
      case NodeSpec::Kind::kAsync:
        if (t.async_cfg.lite_q_depth == 0)
          return why("node '" + t.name + "' has a zero LiteQDepth");
        if (t.async_cfg.max_active == 0)
          return why("node '" + t.name + "' allows no active requests");
        break;
      case NodeSpec::Kind::kStaged:
        if (t.staged_cfg.ingress.threads == 0 || t.staged_cfg.continuation.threads == 0)
          return why("node '" + t.name + "' has an empty stage thread pool");
        break;
    }
    if (t.sched == Sched::kEdf && t.kind != NodeSpec::Kind::kSync)
      return why("node '" + t.name + "' wants EDF but only sync nodes queue by deadline");
    for (const auto& st : t.work)
      if (st.kind == server::WorkStep::Kind::kDisk && !t.has_disk)
        return why("node '" + t.name + "' has a disk step but no disk");
    const std::string ov = policy::overload::invalid_reason(t.overload);
    if (!ov.empty()) return why("node '" + t.name + "' overload: " + ov);
  }

  const int ni = static_cast<int>(n);
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<int>> adj(n);
  std::unordered_set<std::int64_t> edge_keys;
  for (const EdgeSpec& e : cfg.edges) {
    if (e.from < 0 || e.from >= ni || e.to < 0 || e.to >= ni)
      return why("an edge references a node outside the graph");
    if (e.from == e.to)
      return why("node '" + cfg.nodes[e.from].name + "' has a self-edge");
    const std::int64_t key = static_cast<std::int64_t>(e.from) * ni + e.to;
    if (!edge_keys.insert(key).second)
      return why("duplicate edge " + cfg.nodes[e.from].name + " -> " + cfg.nodes[e.to].name);
    adj[e.from].push_back(e.to);
    ++indeg[e.to];
  }
  if (indeg[0] != 0)
    return why("entry node '" + cfg.nodes[0].name + "' has an incoming edge");
  if (cfg.nodes[0].replicas != 1)
    return why("entry node '" + cfg.nodes[0].name + "' cannot be replicated");

  // Protocol profiles: the graph-wide name and every per-edge override
  // must resolve, and all edges into one node must agree on the
  // receiver's admission mode (admission belongs to the receiving
  // server, not to one route).
  if (!cfg.protocol.empty() && !net::ProtocolProfile::by_name(cfg.protocol))
    return why("unknown protocol profile '" + cfg.protocol + "'");
  {
    std::vector<int> node_adm(n, -1);
    for (const EdgeSpec& e : cfg.edges) {
      net::AdmissionMode m = cfg.admission;
      if (!e.proto.empty()) {
        const auto p = net::ProtocolProfile::by_name(e.proto);
        if (!p)
          return why("edge " + cfg.nodes[e.from].name + " -> " + cfg.nodes[e.to].name +
                     ": unknown protocol profile '" + e.proto + "'");
        m = p->admission;
      }
      int& cur = node_adm[static_cast<std::size_t>(e.to)];
      if (cur >= 0 && cur != static_cast<int>(m))
        return why("node '" + cfg.nodes[e.to].name +
                   "' receives edges with conflicting admission modes");
      cur = static_cast<int>(m);
    }
  }

  // Kahn's algorithm: a leftover node means a cycle.
  {
    std::vector<int> deg = indeg;
    std::deque<int> ready;
    for (int i = 0; i < ni; ++i)
      if (deg[i] == 0) ready.push_back(i);
    int seen = 0;
    while (!ready.empty()) {
      const int u = ready.front();
      ready.pop_front();
      ++seen;
      for (int v : adj[u])
        if (--deg[v] == 0) ready.push_back(v);
    }
    if (seen != ni) return why("the edge set contains a cycle");
  }
  // Reachability from the entry node.
  {
    std::vector<bool> reach(n, false);
    std::deque<int> bfs{0};
    reach[0] = true;
    while (!bfs.empty()) {
      const int u = bfs.front();
      bfs.pop_front();
      for (int v : adj[u])
        if (!reach[v]) {
          reach[v] = true;
          bfs.push_back(v);
        }
    }
    for (int i = 0; i < ni; ++i)
      if (!reach[i])
        return why("node '" + cfg.nodes[i].name + "' is unreachable from the entry");
  }
  // A node dispatches downstream iff it has somewhere to dispatch to.
  for (int i = 0; i < ni; ++i) {
    std::size_t down_steps = 0;
    for (const auto& st : cfg.nodes[i].work)
      if (st.kind == server::WorkStep::Kind::kDownstream) ++down_steps;
    if (adj[i].empty() && down_steps > 0)
      return why("node '" + cfg.nodes[i].name + "' has a downstream step but no out-edge");
    if (!adj[i].empty() && down_steps == 0)
      return why("node '" + cfg.nodes[i].name + "' has out-edges but no downstream step");
  }

  std::string bad = core::invalid_reason(cfg.workload);
  if (!bad.empty()) return why(bad);
  bad = policy::invalid_reason(cfg.tier_policy);
  if (!bad.empty()) return why("tier_policy: " + bad);
  bad = fault::invalid_reason(cfg.faults);
  if (!bad.empty()) return why(bad);
  bad = trace::invalid_reason(cfg.trace);
  if (!bad.empty()) return why(bad);

  // Fault indices address flattened replicas; hop 0 is the client link.
  int flat = 0;
  for (const NodeSpec& t : cfg.nodes) flat += static_cast<int>(t.replicas);
  int hops = 1;
  if (is_chain(cfg)) {
    hops += ni - 1;
  } else {
    for (int i = 0; i < ni; ++i)
      hops += static_cast<int>(cfg.nodes[i].replicas * adj[i].size());
  }
  for (const auto& c : cfg.faults.crashes)
    if (c.tier >= flat) return why("fault: crash tier index beyond the graph");
  for (const auto& l : cfg.faults.links)
    if (l.hop >= hops) return why("fault: link hop index beyond the graph");
  for (const auto& s : cfg.faults.slow_nodes)
    if (s.tier >= flat) return why("fault: slow-node tier index beyond the graph");

  if (cfg.freeze_node >= ni) return why("freeze_node index beyond the graph");
  if (cfg.freeze_node >= 0 && cfg.freeze_replica >= 0 &&
      static_cast<std::size_t>(cfg.freeze_replica) >= cfg.nodes[cfg.freeze_node].replicas)
    return why("freeze_replica index beyond the node's replicas");
  return "";
}

void validate(const GraphConfig& cfg) {
  const std::string bad = invalid_reason(cfg);
  if (!bad.empty()) throw std::invalid_argument(bad);
}

}  // namespace ntier::graph
