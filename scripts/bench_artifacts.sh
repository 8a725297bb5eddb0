#!/usr/bin/env bash
# Writes the whole-bench artifact set of one build into OUT_DIR:
#   - every fig*, ext_* and ablation_* bench run with --dashboard: its
#     stdout, dashboards, manifests and whatever else it writes;
#   - sweep_ctqo_surface --quick --replications=3 at --jobs=1 and 2;
#   - trace exports: fig01 at 1-in-50, fig03-fig11 at 1-in-20 and
#     ext_graph_topologies --quick with every request traced.
# Stdout is kept minus its [perf] lines, the only wall-clock output.
#
# usage: scripts/bench_artifacts.sh BUILD_DIR OUT_DIR
#
# The simulator replays a fixed seed byte for byte, so two trees written
# from the same source are identical, and a change that must not move
# any seeded artifact shows as an empty `diff -r` between the tree of
# its parent and its own. Every bench runs inside OUT_DIR with relative
# output paths, so the paths the benches print do not depend on OUT_DIR.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
bench_dir=$(cd "$1/bench" && pwd)
mkdir -p "$2"
cd "$2"

# run NAME BINARY [ARGS...]: stdout minus [perf] lines into NAME.txt.
run() {
  local name=$1
  shift
  "$@" | sed '/^\[perf\]/d' > "$name.txt"
}

for b in "$bench_dir"/fig* "$bench_dir"/ext_* "$bench_dir"/ablation_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  run "$(basename "$b")" "$b" --dashboard=dash
done

for j in 1 2; do
  run "sweep_ctqo_surface.j$j" "$bench_dir/sweep_ctqo_surface" --quick --replications=3 \
    --jobs="$j" --sweep-out="sweep_j$j"
done

run fig01_multimodal.trace "$bench_dir/fig01_multimodal" --trace=1in50 --trace-out=trace
for b in "$bench_dir"/fig0[3-9]* "$bench_dir"/fig1[01]*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  run "$(basename "$b").trace" "$b" --trace=1in20 --trace-out=trace
done
run ext_graph_topologies.trace "$bench_dir/ext_graph_topologies" --quick --trace=all \
  --trace-out=trace
