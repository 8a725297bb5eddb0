#!/usr/bin/env python3
"""Run the figure/extension bench binaries and collect their [perf] lines.

Every scenario bench prints one final line

    [perf] bench=<name> events=<N> wall_s=<S> events_per_s=<R>

summing the simulation events it executed across all of its runs
(bench/bench_util.h, class BenchPerf). This script runs each binary,
scrapes that line, and writes one aggregate JSON report — the repo's
engine-throughput record (BENCH_ntier.json, uploaded as a CI artifact).
Schema ntier.bench/5 adds the service-graph study
(ext_graph_topologies) to the roster and a top-level "graph" section
scraped from its machine-readable `[graph]` lines: the diamond CTQO
verdict, the deep-chain drop counts, and the hedging-crossover operating
points (its chain-equivalence match bit has since moved into the pinned
ChainEquivalence ctest fingerprints). Schema ntier.bench/6 adds the
online-detection study (ext_incident_detection) and a top-level "obs"
section scraped from its `[obs]` lines: detection latency vs. the first
VLRT, precision/recall against the offline CTQO episodes, the retroactive
flight-dump window, and the online-vs-verdict agreement bits
(docs/OBSERVABILITY.md). Schema ntier.bench/7 adds the protocol-matrix
study (ext_protocol_matrix) and a top-level "proto" section scraped
from its `[proto]` lines: per-point visible/hidden/absent CTQO verdicts
across protocol × workload × NX, plus the headline expectations
(fixed3s visible, linux_modern hidden, erpc absent — docs/PROTOCOLS.md)
pulled out as their own pass/fail. Schema ntier.bench/8 adds the
"micro_wheel" section for the hierarchical timing-wheel engine
(bench/micro_engine.cc): dense self-rescheduling timer throughput of
the wheel vs. the indexed-heap predecessor (wheel_over_heap_dense
speedup), the wheel's cancel-heavy churn rate, and the beyond-horizon
FarTimer fallback rate. Discovery is automatic, so the schema tag is
the record that the roster — and therefore the totals — changed.

The report also carries three microbench sections:

  * "micro_engine" — the event-queue CancelHeavy lineage comparison
    (bench/micro_engine.cc): items/s of the old lazy-cancellation
    priority_queue vs. a replica of the PR-5 indexed 4-ary heap, plus
    the indexed_over_lazy speedup ratio.
  * "micro_wheel" — the timing-wheel generation (bench/micro_engine.cc):
    WheelDense/HeapDense events/s, WheelCancelHeavy items/s, and
    FarTimer events/s, plus the wheel_over_heap_dense speedup ratio.
  * "micro_hotpath" — the allocation-discipline comparison
    (bench/micro_hotpath.cc): events/s of the pre-pooling substrate
    (shared_ptr requests/contexts + std::function events + per-push
    handle control block) vs. the current slab-pooled/InlineFn engine,
    plus the pooled_over_legacy speedup ratio (expected >= 2x).

Usage: scripts/run_benches.py [--build-dir build] [--out BENCH_ntier.json]
                              [--only SUBSTR] [--list] [--baseline FILE]

  --build-dir DIR   cmake build tree containing bench/ (default: build)
  --out FILE        output JSON path (default: BENCH_ntier.json)
  --only SUBSTR     run only benches whose name contains SUBSTR
  --list            print the discovered bench binaries and exit
  --baseline FILE   committed BENCH_ntier.json to compare against: any
                    scenario bench or microbench losing more than 25%
                    events/s vs. the baseline fails the run (CI gate)

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


def run_micro_engine(bench_dir: str) -> dict:
    """Old-vs-new event-queue comparison from the CancelHeavy benchmarks."""
    path = os.path.join(bench_dir, "micro_engine")
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return {"ok": False, "error": "micro_engine binary not found"}
    try:
        proc = subprocess.run(
            [path, "--benchmark_filter=CancelHeavy", "--benchmark_format=json"],
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
        name = b.get("name", "")
        rate = b.get("items_per_second")
        if "CancelHeavy_LazyPQ" in name:
            rates["lazy_pq_items_per_s"] = rate
        elif "CancelHeavy_IndexedHeap" in name:
            rates["indexed_heap_items_per_s"] = rate
    lazy = rates.get("lazy_pq_items_per_s")
    indexed = rates.get("indexed_heap_items_per_s")
    if not lazy or not indexed:
        return {"ok": False, "error": "CancelHeavy benchmarks missing from output"}
    return {
        "ok": True,
        "lazy_pq_items_per_s": round(lazy),
        "indexed_heap_items_per_s": round(indexed),
        "indexed_over_lazy": round(indexed / lazy, 3),
    }


def run_micro_wheel(bench_dir: str) -> dict:
    """Timing-wheel generation: dense/cancel-heavy/far-timer rates."""
    path = os.path.join(bench_dir, "micro_engine")
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return {"ok": False, "error": "micro_engine binary not found"}
    try:
        proc = subprocess.run(
            [path, "--benchmark_filter=Dense|WheelCancelHeavy|FarTimer",
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
        name = b.get("name", "")
        rate = b.get("items_per_second")
        if "WheelDense" in name:
            rates["wheel_dense_events_per_s"] = rate
        elif "HeapDense" in name:
            rates["heap_dense_events_per_s"] = rate
        elif "WheelCancelHeavy" in name:
            rates["wheel_cancel_heavy_items_per_s"] = rate
        elif "FarTimer" in name:
            rates["far_timer_events_per_s"] = rate
    wheel = rates.get("wheel_dense_events_per_s")
    heap = rates.get("heap_dense_events_per_s")
    cancel = rates.get("wheel_cancel_heavy_items_per_s")
    far = rates.get("far_timer_events_per_s")
    if not wheel or not heap or not cancel or not far:
        return {"ok": False, "error": "wheel benchmarks missing from output"}
    return {
        "ok": True,
        "wheel_dense_events_per_s": round(wheel),
        "heap_dense_events_per_s": round(heap),
        "wheel_cancel_heavy_items_per_s": round(cancel),
        "far_timer_events_per_s": round(far),
        "wheel_over_heap_dense": round(wheel / heap, 3),
    }


def run_micro_hotpath(bench_dir: str) -> dict:
    """Pooled-vs-legacy allocation comparison from the HotPath benchmarks."""
    path = os.path.join(bench_dir, "micro_hotpath")
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return {"ok": False, "error": "micro_hotpath binary not found"}
    try:
        proc = subprocess.run(
            [path, "--benchmark_filter=HotPath", "--benchmark_format=json"],
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
        name = b.get("name", "")
        rate = b.get("items_per_second")
        if "HotPath_LegacyAllocating" in name:
            rates["legacy_events_per_s"] = rate
        elif "HotPath_PooledInline" in name:
            rates["pooled_events_per_s"] = rate
    legacy = rates.get("legacy_events_per_s")
    pooled = rates.get("pooled_events_per_s")
    if not legacy or not pooled:
        return {"ok": False, "error": "HotPath benchmarks missing from output"}
    return {
        "ok": True,
        "legacy_events_per_s": round(legacy),
        "pooled_events_per_s": round(pooled),
        "pooled_over_legacy": round(pooled / legacy, 3),
    }


# Events/s may lose at most this fraction vs. the committed baseline.
REGRESSION_TOLERANCE = 0.25


def find_regressions(report: dict, baseline: dict) -> list:
    """Names of benches whose events/s regressed beyond the tolerance."""
    floor = 1.0 - REGRESSION_TOLERANCE
    base_rates = {
        b["name"]: b["events_per_s"]
        for b in baseline.get("benches", [])
        if b.get("ok") and b.get("events_per_s")
    }
    for section, key in (("micro_engine", "indexed_heap_items_per_s"),
                         ("micro_wheel", "wheel_dense_events_per_s"),
                         ("micro_hotpath", "pooled_events_per_s")):
        sec = baseline.get(section)
        if sec and sec.get("ok") and sec.get(key):
            base_rates[section] = sec[key]
    new_rates = {
        b["name"]: b["events_per_s"]
        for b in report.get("benches", [])
        if b.get("ok") and b.get("events_per_s")
    }
    for section, key in (("micro_engine", "indexed_heap_items_per_s"),
                         ("micro_wheel", "wheel_dense_events_per_s"),
                         ("micro_hotpath", "pooled_events_per_s")):
        sec = report.get(section)
        if sec and sec.get("ok") and sec.get(key):
            new_rates[section] = sec[key]
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
    want_micro = args.only in "micro_engine"
    want_hotpath = args.only in "micro_hotpath"
    if not names and not want_micro and not want_hotpath:
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

    micro = None
    wheel = None
    if want_micro:
        print("running micro_engine (CancelHeavy old-vs-new heap) ...", flush=True)
        micro = run_micro_engine(bench_dir)
        if micro["ok"]:
            print(f"  lazy_pq={micro['lazy_pq_items_per_s']}/s "
                  f"indexed_heap={micro['indexed_heap_items_per_s']}/s "
                  f"speedup={micro['indexed_over_lazy']}x")
        else:
            print(f"  FAILED: {micro['error']}")
        print("running micro_engine (timing-wheel dense/cancel/far) ...",
              flush=True)
        wheel = run_micro_wheel(bench_dir)
        if wheel["ok"]:
            print(f"  wheel_dense={wheel['wheel_dense_events_per_s']}/s "
                  f"heap_dense={wheel['heap_dense_events_per_s']}/s "
                  f"speedup={wheel['wheel_over_heap_dense']}x "
                  f"cancel_heavy={wheel['wheel_cancel_heavy_items_per_s']}/s "
                  f"far_timer={wheel['far_timer_events_per_s']}/s")
        else:
            print(f"  FAILED: {wheel['error']}")

    hotpath = None
    if want_hotpath:
        print("running micro_hotpath (pooled-vs-legacy allocation) ...", flush=True)
        hotpath = run_micro_hotpath(bench_dir)
        if hotpath["ok"]:
            print(f"  legacy={hotpath['legacy_events_per_s']}/s "
                  f"pooled={hotpath['pooled_events_per_s']}/s "
                  f"speedup={hotpath['pooled_over_legacy']}x")
        else:
            print(f"  FAILED: {hotpath['error']}")

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
        "schema": "ntier.bench/8",
        "benches": results,
        "graph": graph,
        "obs": obs,
        "proto": proto,
        "micro_engine": micro,
        "micro_wheel": wheel,
        "micro_hotpath": hotpath,
        "total_events": sum(r["events"] for r in ok),
        "total_wall_s": round(sum(r["wall_s"] for r in ok), 3),
        "failed": [r["name"] for r in results if not r["ok"]],
    }
    if micro is not None and not micro["ok"]:
        report["failed"].append("micro_engine")
    if wheel is not None and not wheel["ok"]:
        report["failed"].append("micro_wheel")
    if hotpath is not None and not hotpath["ok"]:
        report["failed"].append("micro_hotpath")
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
