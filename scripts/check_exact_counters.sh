#!/usr/bin/env bash
# Gate on the exact counters (ROADMAP item 2: "must not rise").
#
#   scripts/check_exact_counters.sh [checkout]
#
# Runs one traced pass of the benchmark (`benchmark/run.sh --workload
# query_cold --trace 1`) in `checkout` (default: this one), reads every row
# of unit `count` (allocations per query and per training iteration, bytes
# requested per query, tape nodes per forward) and fails when one exceeds
# the `change` value of the same row in this checkout's BENCH_kernels.json
# by more than 1 %. The counts do not depend on the host, the seed or the
# run length, so the pass is short and the gate holds on any runner; a
# change that routes a query back through the tape fails here on
# `tensor.allocs_per_query`. A count the ledger does not know, or a ledger
# count the run no longer prints, fails too. Needs jq; runs offline.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
checkout="${1:-$root}"
ledger="$root/BENCH_kernels.json"

counts="$("$checkout/benchmark/run.sh" --workload query_cold --trace 1 --seconds 3 |
    awk '$3 == "count" { print $1, $2 }')"
[ -n "$counts" ] || { echo "the traced pass printed no count row" >&2; exit 1; }

fail=0
while read -r name limit; do
    value="$(awk -v n="$name" '$1 == n { print $2 }' <<<"$counts")"
    if [ -z "$value" ]; then
        echo "FAIL $name: in $ledger, not printed by the run"
        fail=1
    elif awk -v v="$value" -v l="$limit" 'BEGIN { exit !(v > l * 1.01) }'; then
        echo "FAIL $name: $value > $limit (+1 %)"
        fail=1
    else
        echo "ok   $name: $value <= $limit (+1 %)"
    fi
done < <(jq -r '.rows[] | select(.unit == "count") | "\(.name) \(.change)"' "$ledger")
while read -r name value; do
    if ! jq -e --arg n "$name" 'any(.rows[]; .name == $n and .unit == "count")' "$ledger" >/dev/null; then
        echo "FAIL $name: $value has no row in $ledger"
        fail=1
    fi
done <<<"$counts"
exit "$fail"
