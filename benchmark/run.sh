#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]   # all four workloads
#   benchmark/run.sh --selfcheck                              # tooling only
#
# Each workload runs in its own process. Every metric is printed as
# `name value unit n=<samples>`; the last line of a run is its JSON result,
# also written with the host fingerprint to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# stdout carries results only; cargo talks on stderr.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/odt-benchmark"

ODT_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
ODT_BENCH_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export ODT_BENCH_RUSTC ODT_BENCH_GIT_SHA

workloads=(query_cold query_hot batch_matrix train)
workload=""
selfcheck=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --selfcheck) selfcheck=1; shift ;;
        *) pass+=("$1"); shift ;;
    esac
done

if [ "$selfcheck" = 1 ]; then
    exec python3 "$here/selfcheck.py" "$bin" "$root/BENCHMARK.json" "$here/out/selfcheck"
fi
if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --out "$here/out" ${pass[@]+"${pass[@]}"}
fi
for w in "${workloads[@]}"; do
    echo "== $w"
    "$bin" --workload "$w" --out "$here/out" ${pass[@]+"${pass[@]}"}
done
