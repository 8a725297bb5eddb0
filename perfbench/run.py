#!/usr/bin/env python3
"""Build and run the ntier-ctqo end-to-end benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the binary. --trace 0 prints the end-to-end metrics of untraced
runs; --trace 1 prints the per-layer metrics of a traced run and writes
its Chrome trace under the build directory, checked with
scripts/validate_chrome_trace.py. At the default seed every run's digest
must equal the reference digest in perfbench/reference.json. --workload
all runs every workload in turn, each in its own process.

The last stdout line is one JSON object: correct, attempted, failed,
metrics (keyed "<workload>.<metric>" for all). Exit status 0 when a result
was printed, nonzero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir: Path) -> Path:
    """Configures once, then brings the benchmark binary up to date."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "ntier_perfbench",
                  "-j", jobs])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}", 1)
    return build_dir / "ntier_perfbench"


def declared_metrics(trace: bool) -> list:
    """Metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary: Path, out_dir: Path, workload: str, args, reference: dict) -> dict:
    """Runs one workload; returns its result with `correct` covering the
    trace file and the metric names too."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(out_dir)]
    if args.seed == reference["default_seed"]:
        cmd += ["--expect-digest", reference["digests"][workload]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: benchmark run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        print(proc.stdout, end="")
        fail(f"{workload}: benchmark exited with status {proc.returncode} and no result", 1)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    problems = []
    declared = declared_metrics(args.trace == "1")
    if sorted(declared) != sorted(result["metrics"]):
        problems.append("printed metrics differ from BENCHMARK.json: "
                        f"{sorted(set(declared) ^ set(result['metrics']))}")
    if args.trace == "1":
        validator = ROOT / "scripts" / "validate_chrome_trace.py"
        trace_file = out_dir / f"{workload}.trace.json"
        check = subprocess.run([sys.executable, str(validator), str(trace_file)],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout, end="")
        if check.returncode != 0:
            problems.append(f"{trace_file} failed {validator.name}")
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    result["correct"] = bool(result["correct"]) and not problems
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    workloads = list(reference["digests"]) if args.workload == "all" else [args.workload]
    unknown = [w for w in workloads if w not in reference["digests"]]
    if unknown:
        fail(f"unknown workload {unknown[0]!r}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    results = {w: run_one(binary, build_dir / "out", w, args, reference) for w in workloads}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0

    print(f"{'workload':16s} {'metric':32s} {'value':>16s} unit")
    for w, r in results.items():
        for name, m in r["metrics"].items():
            print(f"{w:16s} {name:32s} {m['value']:16.6g} {m['unit']}")
        print(f"{w:16s} {'runs attempted / failed':32s} {r['attempted']:>9d} / {r['failed']:<4d}"
              f"{'' if r['correct'] else ' INCORRECT'}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
