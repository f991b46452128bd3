#!/bin/sh
# Runs the perf gate (bench/compare.exe) on three fixed inputs and
# prints what it prints and its exit code; test/golden/gate.txt pins
# the result.  The gate reads fixed paths, so each case runs in a
# scratch directory laid out like the repository root.
#   gate_test.sh COMPARE_EXE BASELINE REGRESSED NO_SPEEDUP
#   - the baseline against itself passes (exit 0)
#   - a jobs=4 speedup below the floor is a regression (exit 1)
#   - a snapshot without the speedup gauge is bad input (exit 2)
set -u
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
baseline=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir -p "$dir/bench/baselines" "$dir/out"
cp "$baseline" "$dir/bench/baselines/parallel.json"
for current in "$baseline" "$3" "$4"; do
  echo "== current: $(basename "$current")"
  cp "$current" "$dir/out/bench_parallel.json"
  (cd "$dir" && "$exe" 2>&1)
  echo "== exit $?"
done
