//! # odt-bench
//!
//! The binaries that run the serving stack, and one that measures it:
//!
//! * `odt_server`, `odt_router`, `odt_loadgen`: a replica, the shard
//!   router and the load generator CI's smoke jobs boot.
//! * `bench_serving`: N sequential `estimate` calls vs one
//!   `estimate_batch(N)`, the deadline and cache sweeps →
//!   `BENCH_serving.json`.
//!
//! Timings live elsewhere: the kernels and a query's layers (`compute.*`,
//! `tensor.*`, ... rows) in the repository benchmark, `benchmark/run.sh
//! --trace 1`; the paper's Table 5 and Figure 8 in `odt-eval`'s
//! `table5_efficiency` and `figure8_grid_efficiency` bins.
//!
//! This library holds the dataset `bench_serving` trains on.

#![forbid(unsafe_code)]

use odt_traj::Dataset;

/// A small, deterministic dataset.
pub fn bench_dataset(lg: usize) -> Dataset {
    let mut cfg = odt_traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 12;
    cfg.ny = 12;
    Dataset::simulated(cfg, 400, lg, 99)
}
