#!/usr/bin/env bash
# `cargo test --workspace` with no crate registry: scripts/offline.toml points
# `rand` at the stand-in under benchmark/shims. Arguments replace `--workspace`
# (`scripts/offline_test.sh -p odt-nn`). Release profile:
# crates/serve/tests/frontend_dot.rs holds deadlines a debug build misses.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo --config scripts/offline.toml test --release --offline "${@:---workspace}"
