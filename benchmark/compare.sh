#!/usr/bin/env bash
# Compare two result sets measured by repeat.sh against the directions and
# bounds in BENCHMARK.json:  benchmark/compare.sh A B
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/compare.py" "$here/../BENCHMARK.json" "$@"
