#!/usr/bin/env bash
# Line count per crate, the metric ROADMAP tracks ("it should go down").
#
# Usage: scripts/loc.sh [repo-root]
#
# Per crate under crates/: `total` is every line of src/**/*.rs, `non_test`
# the lines of each file before its first `#[cfg(test)]` (the whole file when
# it has none). Comments and blank lines count: moving code into a comment
# is not a reduction.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-16s %8s %8s\n' crate total non_test
for dir in crates/*/; do
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="$name" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++ }
        !in_tests { non_test++ }
        END { printf "%-16s %8d %8d\n", name, total, non_test }'
done
