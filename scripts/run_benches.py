#!/usr/bin/env python3
"""Run the figure/extension bench binaries and collect their [perf] lines.

Every scenario bench prints one final line

    [perf] bench=<name> events=<N> wall_s=<S> events_per_s=<R>

summing the simulation events it executed across all of its runs
(bench/bench_util.h, class BenchPerf). This script runs each binary,
scrapes that line, and writes one aggregate JSON report — the repo's
engine-throughput record (BENCH_ntier.json, uploaded as a CI artifact).
The study benches' machine-readable lines land in top-level sections:
"graph" (`[graph]` lines of ext_graph_topologies), "obs" (`[obs]` lines
of ext_incident_detection, with its online-vs-offline verdict) and
"proto" (`[proto]` lines of ext_protocol_matrix, with its headline
verdicts). The schema tag changes whenever the report layout or the
bench roster changes.

The report also carries two microbench sections, absolute rates of the
live engine:

  * "micro_wheel" — bench/micro_engine.cc: WheelDense events/s,
    WheelCancelHeavy items/s and FarTimer events/s.
  * "micro_hotpath" — bench/micro_hotpath.cc: HotPath_PooledInline
    events/s.

Usage: scripts/run_benches.py [--build-dir build] [--out BENCH_ntier.json]
                              [--only SUBSTR] [--list] [--baseline FILE]

  --build-dir DIR   cmake build tree containing bench/ (default: build)
  --out FILE        output JSON path (default: BENCH_ntier.json)
  --only SUBSTR     run only benches whose name contains SUBSTR
  --list            print the discovered bench binaries and exit
  --baseline FILE   committed BENCH_ntier.json to compare against: any
                    scenario bench losing more than 25% events/s, or any
                    rate in MICRO_CHECKS losing more than 25%, vs. the
                    baseline fails the run (CI gate)

Exit status: 0 when every selected bench ran, produced a [perf] line
(microbench sections parsed), and no baseline regression was detected;
1 otherwise (the report still records the failures).
"""

import argparse
import json
import os
import re
import subprocess
import sys

# google-benchmark microbenches have their own output format.
SKIP = {"micro_engine", "micro_hotpath"}

PERF_RE = re.compile(
    r"^\[perf\] bench=(?P<name>\S+) events=(?P<events>\d+) "
    r"wall_s=(?P<wall>[0-9.]+) events_per_s=(?P<rate>[0-9.]+)\s*$",
    re.MULTILINE,
)

# Machine-readable study lines from bench/ext_graph_topologies:
#   [graph] section=<name> key=value ...
GRAPH_RE = re.compile(r"^\[graph\]\s+(?P<kv>.*\S)\s*$", re.MULTILINE)

# Machine-readable study lines from bench/ext_incident_detection:
#   [obs] section=<name> key=value ...
OBS_RE = re.compile(r"^\[obs\]\s+(?P<kv>.*\S)\s*$", re.MULTILINE)

# Machine-readable study lines from bench/ext_protocol_matrix:
#   [proto] section=<name> key=value ...
PROTO_RE = re.compile(r"^\[proto\]\s+(?P<kv>.*\S)\s*$", re.MULTILINE)


def parse_kv_lines(regex: re.Pattern, stdout: str) -> list:
    """Tagged key=value lines as dicts (numbers coerced)."""
    records = []
    for m in regex.finditer(stdout):
        rec = {}
        for tok in m.group("kv").split():
            if "=" not in tok:
                continue
            key, val = tok.split("=", 1)
            try:
                rec[key] = int(val)
            except ValueError:
                try:
                    rec[key] = float(val)
                except ValueError:
                    rec[key] = val
        records.append(rec)
    return records


def discover(bench_dir: str) -> list:
    names = []
    for entry in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, entry)
        if entry in SKIP or entry.startswith("."):
            continue
        if os.path.isfile(path) and os.access(path, os.X_OK):
            names.append(entry)
    return names


def run_one(bench_dir: str, name: str) -> dict:
    path = os.path.join(bench_dir, name)
    try:
        proc = subprocess.run(
            [path], capture_output=True, text=True, timeout=1800, check=False
        )
    except subprocess.TimeoutExpired:
        return {"name": name, "ok": False, "error": "timeout"}
    if proc.returncode != 0:
        return {"name": name, "ok": False, "error": f"exit {proc.returncode}"}
    m = None
    for m in PERF_RE.finditer(proc.stdout):
        pass  # keep the last match (the binary's final summary line)
    if m is None:
        return {"name": name, "ok": False, "error": "no [perf] line in output"}
    result = {
        "name": m.group("name"),
        "ok": True,
        "events": int(m.group("events")),
        "wall_s": float(m.group("wall")),
        "events_per_s": float(m.group("rate")),
    }
    graph = parse_kv_lines(GRAPH_RE, proc.stdout)
    if graph:
        result["graph"] = graph
    obs = parse_kv_lines(OBS_RE, proc.stdout)
    if obs:
        result["obs"] = obs
    proto = parse_kv_lines(PROTO_RE, proc.stdout)
    if proto:
        result["proto"] = proto
    return result


# Microbench sections: binary, google-benchmark filter, and the
# benchmark name -> report key of each rate the section records.
MICRO_SECTIONS = {
    "micro_wheel": ("micro_engine", "WheelDense|WheelCancelHeavy|FarTimer", {
        "BM_WheelDense": "wheel_dense_events_per_s",
        "BM_WheelCancelHeavy": "wheel_cancel_heavy_items_per_s",
        "BM_FarTimer": "far_timer_events_per_s",
    }),
    "micro_hotpath": ("micro_hotpath", "HotPath", {
        "BM_HotPath_PooledInline": "pooled_events_per_s",
    }),
}

# Microbench rates the baseline comparison gates, as section.key.
MICRO_CHECKS = (
    "micro_wheel.wheel_dense_events_per_s",
    "micro_wheel.wheel_cancel_heavy_items_per_s",
    "micro_hotpath.pooled_events_per_s",
)


def run_micro(bench_dir: str, section: str) -> dict:
    """Runs one microbench section; its rates are items/s, rounded."""
    binary, bench_filter, keys = MICRO_SECTIONS[section]
    path = os.path.join(bench_dir, binary)
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return {"ok": False, "error": f"{binary} binary not found"}
    try:
        proc = subprocess.run(
            [path, f"--benchmark_filter={bench_filter}",
             "--benchmark_format=json"],
            capture_output=True, text=True, timeout=600, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timeout"}
    if proc.returncode != 0:
        return {"ok": False, "error": f"exit {proc.returncode}"}
    try:
        data = json.loads(proc.stdout)
    except ValueError:
        return {"ok": False, "error": "unparsable google-benchmark JSON"}
    rates = {}
    for b in data.get("benchmarks", []):
        key = keys.get(b.get("name", "").split("/")[0])
        if key and b.get("items_per_second"):
            rates[key] = round(b["items_per_second"])
    missing = [k for k in keys.values() if k not in rates]
    if missing:
        return {"ok": False, "error": "missing from output: " + ", ".join(missing)}
    return {"ok": True, **rates}


# Events/s may lose at most this fraction vs. the committed baseline.
REGRESSION_TOLERANCE = 0.25


def gated_rates(report: dict) -> dict:
    """Bench name -> events/s, plus each MICRO_CHECKS rate by section.key."""
    rates = {
        b["name"]: b["events_per_s"]
        for b in report.get("benches", [])
        if b.get("ok") and b.get("events_per_s")
    }
    for check in MICRO_CHECKS:
        section, key = check.split(".")
        sec = report.get(section)
        if sec and sec.get("ok") and sec.get(key):
            rates[check] = sec[key]
    return rates


def find_regressions(report: dict, baseline: dict) -> list:
    """Names of the gated rates that regressed beyond the tolerance."""
    floor = 1.0 - REGRESSION_TOLERANCE
    base_rates = gated_rates(baseline)
    new_rates = gated_rates(report)
    regressions = []
    for name, new in sorted(new_rates.items()):
        old = base_rates.get(name)
        if old and new < floor * old:
            regressions.append(
                f"{name}: {new:.0f}/s vs baseline {old:.0f}/s "
                f"({new / old - 1.0:+.1%}, tolerance -{REGRESSION_TOLERANCE:.0%})")
    return regressions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_ntier.json")
    ap.add_argument("--only", default="")
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()

    bench_dir = os.path.join(args.build_dir, "bench")
    if not os.path.isdir(bench_dir):
        print(f"error: {bench_dir} does not exist (build the project first)")
        return 1
    names = [n for n in discover(bench_dir) if args.only in n]
    if args.list:
        print("\n".join(names))
        return 0
    micro_wanted = [sec for sec, (binary, _, _) in MICRO_SECTIONS.items()
                    if args.only in binary]
    if not names and not micro_wanted:
        print(f"error: no bench binaries match {args.only!r} under {bench_dir}")
        return 1

    results = []
    for name in names:
        print(f"running {name} ...", flush=True)
        r = run_one(bench_dir, name)
        if r["ok"]:
            print(f"  events={r['events']} wall_s={r['wall_s']:.3f} "
                  f"events_per_s={r['events_per_s']:.0f}")
        else:
            print(f"  FAILED: {r['error']}")
        results.append(r)

    micro = {}
    for section in micro_wanted:
        print(f"running {MICRO_SECTIONS[section][0]} ({section}) ...", flush=True)
        micro[section] = run_micro(bench_dir, section)
        if micro[section]["ok"]:
            print("  " + " ".join(f"{k}={v}/s" for k, v in micro[section].items()
                                  if k != "ok"))
        else:
            print(f"  FAILED: {micro[section]['error']}")

    # The service-graph study section: every [graph] record from
    # ext_graph_topologies (diamond verdict, deep-chain drops, hedging
    # operating points); it passes when the study printed its records.
    graph = None
    for r in results:
        if r.get("name") == "ext_graph_topologies" and r.get("ok"):
            records = r.pop("graph", [])
            graph = {"ok": bool(records), "records": records}
            if graph["ok"]:
                print(f"  graph: {len(records)} study records")
            else:
                print("  graph: FAILED, no study records")

    # The online-detection study section: every [obs] record from
    # ext_incident_detection, plus the online-vs-offline agreement
    # verdict pulled out as its own pass/fail (docs/OBSERVABILITY.md).
    obs = None
    for r in results:
        if r.get("name") == "ext_incident_detection" and r.get("ok"):
            records = r.pop("obs", [])
            verdict = next((o for o in records
                            if o.get("section") == "verdict"), None)
            obs = {
                "ok": bool(verdict) and verdict.get("pass") == 1,
                "records": records,
            }
            if obs["ok"]:
                print(f"  obs: {len(records)} study records, online detection "
                      "agrees with offline analysis")
            else:
                print("  obs: FAILED online-vs-offline agreement check")

    # The protocol-matrix study section: every [proto] record from
    # ext_protocol_matrix, plus the headline verdicts (fixed3s visible,
    # linux_modern hidden, erpc absent) pulled out as their own
    # pass/fail (docs/PROTOCOLS.md).
    proto = None
    for r in results:
        if r.get("name") == "ext_protocol_matrix" and r.get("ok"):
            records = r.pop("proto", [])
            verdicts = [p for p in records if p.get("section") == "verdict"]
            proto = {
                "ok": bool(verdicts) and all(v.get("pass") == 1
                                             for v in verdicts),
                "records": records,
            }
            if proto["ok"]:
                print(f"  proto: {len(records)} study records, headline "
                      "verdicts (visible/hidden/absent) all hold")
            else:
                print("  proto: FAILED headline verdict check")

    ok = [r for r in results if r["ok"]]
    report = {
        "schema": "ntier.bench/9",
        "benches": results,
        "graph": graph,
        "obs": obs,
        "proto": proto,
        "micro_wheel": micro.get("micro_wheel"),
        "micro_hotpath": micro.get("micro_hotpath"),
        "total_events": sum(r["events"] for r in ok),
        "total_wall_s": round(sum(r["wall_s"] for r in ok), 3),
        "failed": [r["name"] for r in results if not r["ok"]],
    }
    report["failed"] += [sec for sec, r in micro.items() if not r["ok"]]
    if graph is not None and not graph["ok"]:
        report["failed"].append("graph-study-records")
    if obs is not None and not obs["ok"]:
        report["failed"].append("obs-online-agreement")
    if proto is not None and not proto["ok"]:
        report["failed"].append("proto-headline-verdicts")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        regressions = find_regressions(report, baseline)
        report["regressions"] = regressions
        for line in regressions:
            print(f"REGRESSION {line}")
        if regressions:
            report["failed"].append("baseline-comparison")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}: {len(ok)}/{len(results)} benches, "
          f"{report['total_events']} events in {report['total_wall_s']}s")
    return 0 if not report["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
