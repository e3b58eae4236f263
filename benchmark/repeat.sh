#!/usr/bin/env bash
# Measure one result set: N runs of every workload, each with another seed.
#
#   benchmark/repeat.sh DIR [N]      # N defaults to 10; seeds 1..N
#
# Writes one line per run (the run's benchmark/out/<workload>.json: host
# fingerprint and result) to DIR/<workload>.jsonl, the input of compare.sh.
# Takes about N x 2 minutes of one busy core; on a machine whose CPU is
# rationed, watch `steal_share` in the lines.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
dir="${1:?usage: repeat.sh DIR [N]}"
n="${2:-10}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
mkdir -p "$dir"
for w in query_cold query_hot batch_matrix train; do
    : > "$dir/$w.jsonl"
    for seed in $(seq 1 "$n"); do
        "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 > /dev/null
        cat "$here/out/$w.json" >> "$dir/$w.jsonl"
    done
done
