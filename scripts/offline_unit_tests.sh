#!/usr/bin/env bash
# Unit tests of odt-net and odt-tensor without a crate registry.
#
#   scripts/offline_unit_tests.sh [test-name-filter]
#
# The root workspace does not resolve offline (rand/serde/serde_json/proptest
# come from crates.io), and `cargo test -p` refuses a path dependency that has
# dev-dependencies. The benchmark package does build offline, against the
# stand-ins under benchmark/shims, and leaves every crate's rlib in its deps
# directory; this script compiles each crate's `#[cfg(test)]` modules with
# rustc against those rlibs and runs them. Integration tests under
# crates/*/tests need proptest and stay CI-only.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
deps="$root/benchmark/target/release/deps"
out="$root/target/offline-unit-tests"

cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml"
mkdir -p "$out"

# The newest rlib of a crate in the deps directory (a rebuilt crate leaves its
# older hashes behind).
rlib() {
    local found
    found="$(ls -t "$deps"/lib"$1"-*.rlib 2>/dev/null | head -n 1)"
    [ -n "$found" ] || { echo "no rlib for $1 in $deps" >&2; exit 1; }
    echo "$found"
}

# unit_tests <crate dir> <crate name> <dependency>...
unit_tests() {
    local dir="$1" name="$2"
    shift 2
    local externs=()
    for dep in "$@"; do
        externs+=(--extern "$dep=$(rlib "$dep")")
    done
    rustc --edition 2021 -O --test "$root/crates/$dir/src/lib.rs" --crate-name "$name" \
        -L dependency="$deps" "${externs[@]}" -o "$out/$name"
    echo "== $name unit tests"
    "$out/$name" ${filter:+"$filter"}
}

filter="${1:-}"
unit_tests tensor odt_tensor odt_compute odt_obs rand serde
unit_tests net odt_net odt_obs odt_serve
