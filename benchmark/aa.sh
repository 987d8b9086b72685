#!/usr/bin/env bash
# A/A: two alternating sets (A, B, A, B, ...) of untraced runs of ONE build,
# every run with another seed, then the report. Writes the raw lines to
# benchmark/AA.runs.jsonl and the tables to benchmark/AA.md; exits non-zero
# if any metric x workload fails its bound.
#   bash benchmark/aa.sh [runs-per-set, default 8]
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
per_set="${1:-8}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$dir/../BENCHMARK.json")"
out="$dir/AA.runs.jsonl"
: > "$out"
seed=100
for workload in read-zipf scan-short write-sustained wire-mixed; do
  for ((i = 0; i < per_set; i++)); do
    for set in A B; do
      seed=$((seed + 1))
      echo "aa: $workload set $set seed $seed" >&2
      echo "{\"aa_set\":\"$set\"}" >> "$out"
      bash "$dir/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >> "$out"
    done
  done
done
"$dir/.build/elsm-benchmark" --aa-report "$out" > "$dir/AA.md"
