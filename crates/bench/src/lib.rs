//! # odt-bench
//!
//! Criterion benchmarks backing the paper's timing results:
//!
//! * `benches/table5_efficiency.rs` — per-query estimation latency of every
//!   ODT-Oracle method (Table 5's "estimation speed" column).
//! * `benches/figure8_mvit_vs_vit.rs` — MViT vs vanilla ViT forward latency
//!   across grid lengths (Figure 8(c,d)).
//! * `benches/substrates.rs` — micro-benchmarks of the substrates (conv2d,
//!   matmul, Dijkstra, PiT rasterization, trip simulation).
//!
//! The kernels themselves (`compute.*` / `tensor.*` rows) are measured by the
//! repository benchmark, `benchmark/run.sh --trace 1`. One plain binary
//! emits a machine-readable report:
//!
//! * `bench_serving` — N sequential `estimate` calls vs one
//!   `estimate_batch(N)` → `BENCH_serving.json`.
//!
//! Shared fixtures live in this library crate.

#![forbid(unsafe_code)]

use odt_baselines::OracleContext;
use odt_traj::Dataset;

/// A small, deterministic dataset shared by the benchmarks.
pub fn bench_dataset(lg: usize) -> Dataset {
    let mut cfg = odt_traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 12;
    cfg.ny = 12;
    Dataset::simulated(cfg, 400, lg, 99)
}

/// The oracle context of a dataset.
pub fn ctx_of(data: &Dataset) -> OracleContext {
    OracleContext {
        grid: data.grid,
        proj: data.proj,
    }
}
