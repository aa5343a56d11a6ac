#!/usr/bin/env bash
# Runs two full sets of untraced runs (every workload once per set) and
# prints, per metric and workload, by what share the second set is worse than
# the first beside the metric's bound. Exits non-zero when any exceeds it.
#
#   bash benchmark/repeat.sh [seed] [seconds]
#
# Defaults: seed 1 and the run length BENCHMARK.json fixes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")}"
workloads=(infer_ladder train_sliced wire_staircase fleet_flash)

for set in 1 2; do
  mkdir -p "$here/out/set$set"
  for w in "${workloads[@]}"; do
    echo "== set $set: $w" >&2
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
    mv "$here/out/result_$w.json" "$here/out/set$set/"
  done
done

status=0
for w in "${workloads[@]}"; do
  echo
  echo "== $w: set 2 against set 1"
  bash "$here/run.sh" compare "$here/out/set1/result_$w.json" "$here/out/set2/result_$w.json" || status=1
done
exit "$status"
