//! The benchmark's fixed inputs (dataset, model configuration) and its
//! seeded query generators. The program under test only ever sees the
//! generated queries, never the seed.

use odt_core::DotConfig;
use odt_obs::SplitMix64;
use odt_roadnet::LngLat;
use odt_traj::sim::CitySimConfig;
use odt_traj::{Dataset, GridSpec, OdtInput};

/// Raw trips simulated for the dataset (313 survive preprocessing).
pub const DATASET_TRIPS: usize = 400;
/// Dataset seed; fixed so every workload trains on the same trips.
pub const DATASET_SEED: u64 = 99;
/// Seed of the served model's initialisation and batch order; fixed so
/// every run serves the same weights.
pub const MODEL_SEED: u64 = 7;
/// Keys in the `query_hot` working set (a quarter of the cache).
pub const HOT_KEYS: usize = 64;
/// Zipf exponent of the hot set's popularity.
pub const HOT_ZIPF_S: f64 = 1.1;
/// Departure time of every hot key: 11:00, an off-peak cache bucket whose
/// 5-minute TTL outlives any run.
pub const HOT_T_DEP: f64 = 11.0 * 3600.0;
/// Queries per `estimate_batch` call in `batch_matrix`.
pub const BATCH: usize = 8;

/// The 12 x 12-block Chengdu-like city every workload runs on.
pub fn dataset() -> Dataset {
    let mut sim = CitySimConfig::chengdu_like();
    sim.nx = 12;
    sim.ny = 12;
    Dataset::simulated(
        sim,
        DATASET_TRIPS,
        bench_config(MODEL_SEED).lg,
        DATASET_SEED,
    )
}

/// Model `bench`: the CPU-scale profile at the paper's grid size
/// (`L_G = 20`, Table 2) with `N = 10` reverse steps and Algorithm 1
/// verbatim (one candidate). Training is cut to a handful of iterations:
/// the benchmark prices the work of a query and of a training iteration,
/// not the quality of the answer, and set-up is repeated in every run.
pub fn bench_config(seed: u64) -> DotConfig {
    let mut cfg = DotConfig::fast();
    cfg.lg = 20;
    cfg.n_steps = 10;
    cfg.infer_candidates = 1;
    cfg.stage1_iters = 5;
    cfg.stage2_iters = 20;
    cfg.early_stop_samples = 4;
    cfg.early_stop_every = usize::MAX;
    cfg.seed = seed;
    cfg
}

type Cell = (usize, usize);

/// Seeded query generator over the model's grid shrunk by 5 % on each side,
/// so strict admission never rejects. No two queries it hands out share an
/// (origin cell, destination cell) pair, so no two share a cache key: a
/// stream from it never repeats by construction, not by luck.
pub struct QueryGen {
    rng: SplitMix64,
    grid: GridSpec,
    seen: std::collections::BTreeSet<(Cell, Cell)>,
}

impl QueryGen {
    pub fn new(seed: u64, grid: GridSpec) -> QueryGen {
        QueryGen {
            rng: SplitMix64::new(seed),
            grid,
            seen: Default::default(),
        }
    }

    fn point(&mut self) -> LngLat {
        let (min, max) = (self.grid.min, self.grid.max);
        let fx = 0.05 + 0.9 * self.rng.next_f64();
        let fy = 0.05 + 0.9 * self.rng.next_f64();
        LngLat {
            lng: min.lng + fx * (max.lng - min.lng),
            lat: min.lat + fy * (max.lat - min.lat),
        }
    }

    fn fresh_pair(&mut self) -> (LngLat, LngLat) {
        loop {
            let (origin, dest) = (self.point(), self.point());
            if self
                .seen
                .insert((self.grid.cell_of(origin), self.grid.cell_of(dest)))
            {
                return (origin, dest);
            }
        }
    }

    /// A fresh OD pair departing uniformly in 06:00-22:00.
    pub fn cold(&mut self) -> OdtInput {
        let (origin, dest) = self.fresh_pair();
        OdtInput {
            origin,
            dest,
            t_dep: (6.0 + 16.0 * self.rng.next_f64()) * 3600.0,
        }
    }

    /// `n` fresh OD pairs departing at [`HOT_T_DEP`], each its own cache key.
    pub fn hot_set(&mut self, n: usize) -> Vec<OdtInput> {
        (0..n)
            .map(|_| {
                let (origin, dest) = self.fresh_pair();
                OdtInput {
                    origin,
                    dest,
                    t_dep: HOT_T_DEP,
                }
            })
            .collect()
    }
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Zipf {
            cdf,
            rng: SplitMix64::new(seed),
        }
    }

    pub fn next(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
