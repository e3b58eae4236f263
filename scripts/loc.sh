#!/usr/bin/env bash
# Line count per crate, the metric ROADMAP tracks ("it should go down").
#
# Usage: scripts/loc.sh [repo-root]
#
# Per crate under crates/: `total` is every line of src/**/*.rs, `non_test`
# the lines outside `#[cfg(test)]` items. A test-only item runs from its
# attribute to the brace that closes it (or to the `;` of a braceless one), so
# code after a test-only method in the middle of a file still counts. Braces
# inside string, raw-string and char literals and inside comments do not
# nest. Comments and blank lines count: moving code into a comment is not a
# reduction.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-16s %8s %8s\n' crate total non_test
for dir in crates/*/; do
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="$name" '
        # Walk one line of a test-only item: track the literal or comment the
        # line ends inside (`within`), the brace depth, and whether the item
        # has opened its body or ended on a `;` before opening one.
        function scan(line,    i, c, rest) {
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                rest = substr(line, i + 1)
                if (within == "string") {
                    if (c == "\\") i++
                    else if (c == "\"") within = ""
                } else if (within == "raw") {
                    if (c == "\"" && substr(rest, 1, length(hashes)) == hashes) {
                        i += length(hashes)
                        within = ""
                    }
                } else if (within == "comment") {
                    if (c == "*" && rest ~ /^\//) { i++; within = "" }
                } else if (c == "/" && rest ~ /^\//) {
                    return
                } else if (c == "/" && rest ~ /^\*/) {
                    i++; within = "comment"
                } else if (c == "\"") {
                    within = "string"
                } else if (c == "r" && match(rest, /^#*"/)) {
                    hashes = substr(rest, 1, RLENGTH - 1)
                    i += RLENGTH; within = "raw"
                } else if (c == "\x27" && rest ~ /^\\/) {
                    i += 1 + index(substr(rest, 2), "\x27")
                } else if (c == "\x27" && substr(rest, 2, 1) == "\x27") {
                    i += 2
                } else if (c == "{") {
                    opened = 1; depth++
                } else if (c == "}") {
                    depth--
                } else if (c == ";" && !opened) {
                    ended = 1
                }
            }
        }
        FNR == 1 { in_test = 0 }
        !in_test && /^[[:space:]]*#\[cfg\(test\)\]/ {
            in_test = 1; depth = 0; opened = 0; ended = 0; within = ""
        }
        { total++ }
        !in_test { non_test++; next }
        {
            scan($0)
            if (ended || (opened && depth == 0)) in_test = 0
        }
        END { printf "%-16s %8d %8d\n", name, total, non_test }'
done
