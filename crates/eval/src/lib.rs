//! # odt-eval
//!
//! Metrics and the experiment harness that regenerates every table and
//! figure of the paper's evaluation (§6). Each table/figure has a binary in
//! `src/bin/`; DESIGN.md §3 maps experiment ids to binaries.
//!
//! All binaries accept:
//!
//! * `--profile fast|paper` — experiment scale (default `fast`, the
//!   CPU-sized profile recorded in EXPERIMENTS.md; `paper` restores the
//!   paper's hyper-parameters and full iteration counts).
//! * `--seed <u64>` — RNG seed (default 7).
//! * `--trips <n>` — raw simulated trips per city before preprocessing.
//! * `--queries <n>` — maximum test queries evaluated.
//! * `--telemetry <path>` — dump the structured event log as JSONL to
//!   `<path>` at the end of the run (see [`telemetry`] and DESIGN.md §7).
//!
//! Binaries print the paper's reported numbers next to the measured ones so
//! the *shape* of each result (orderings, rough factors, crossovers) can be
//! compared directly. Every run ends with a metrics summary: counters,
//! gauges and latency histograms (p50/p95/p99/max) collected through
//! [`odt_obs`], including the `serve.query.full` / `serve.query.fallback`
//! split between full-pipeline answers and degraded-mode fallbacks.
//!
//! Being the one crate that sees `odt-core`, `odt-serve` and `odt-net`, it
//! also owns the standing resilience drills: [`drill::DRILLS`] is the whole
//! catalog, run by the `chaos_drill` bin and walked by `tests/drills.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudy;
pub mod drill;
pub mod harness;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod telemetry;
