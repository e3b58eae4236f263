//! Output-bits probe: trains the benchmark's `bench` model and prints the
//! exact bits of everything a served query depends on, so two commits can
//! be compared with `diff`. A kernel, sampler or oracle refactor that
//! claims "same outputs" must leave this program's stdout unchanged.
//!
//! The dataset and model configuration mirror `benchmark/src/inputs.rs`
//! (`dataset()`, `bench_config(7)`). The registry crates do not resolve in
//! an offline container, so build it with `rustc` against the rlibs the
//! benchmark workspace leaves behind, once per commit:
//!
//! ```sh
//! cargo build --release --offline --manifest-path benchmark/Cargo.toml
//! d=benchmark/target/release/deps
//! rustc --edition 2021 -O crates/core/examples/output_bits.rs -L dependency=$d \
//!     --extern odt_core=$(ls -t $d/libodt_core-*.rlib | head -1) \
//!     --extern odt_traj=$(ls -t $d/libodt_traj-*.rlib | head -1) \
//!     --extern odt_roadnet=$(ls -t $d/libodt_roadnet-*.rlib | head -1) \
//!     --extern rand=$(ls -t $d/librand-*.rlib | head -1) -o /root/scratch/output_bits
//! ```

use odt_core::{Dot, DotConfig};
use odt_roadnet::LngLat;
use odt_traj::sim::CitySimConfig;
use odt_traj::{Dataset, GridSpec, OdtInput, Pit};
use rand::{rngs::StdRng, SeedableRng};

/// `benchmark/src/inputs.rs::bench_config`.
fn bench_config(seed: u64) -> DotConfig {
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

/// `benchmark/src/inputs.rs::dataset`.
fn dataset() -> Dataset {
    let mut sim = CitySimConfig::chengdu_like();
    sim.nx = 12;
    sim.ny = 12;
    Dataset::simulated(sim, 400, bench_config(7).lg, 99)
}

/// Query `i` of a fixed lattice inside the grid shrunk by 5 % a side (so
/// nothing is clamped), departing between 06:00 and 22:00.
fn query(grid: &GridSpec, i: usize) -> OdtInput {
    let frac = |k: usize| 0.05 + 0.9 * ((k * 37 % 101) as f64 / 100.0);
    let at = |fx: f64, fy: f64| LngLat {
        lng: grid.min.lng + fx * (grid.max.lng - grid.min.lng),
        lat: grid.min.lat + fy * (grid.max.lat - grid.min.lat),
    };
    OdtInput {
        origin: at(frac(4 * i), frac(4 * i + 1)),
        dest: at(frac(4 * i + 2), frac(4 * i + 3)),
        t_dep: (6.0 + 16.0 * frac(i + 11)) * 3600.0,
    }
}

/// FNV-1a over the `f32` bits of every PiT tensor, in order.
fn fnv(pits: &[Pit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in pits
        .iter()
        .flat_map(|p| p.tensor().data().iter())
        .flat_map(|v| v.to_bits().to_le_bytes())
    {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let data = dataset();
    let model = Dot::train(bench_config(7), &data, |_| {});
    println!(
        "best_val_mae {:016x}",
        model.report().best_val_mae.to_bits()
    );
    let queries: Vec<OdtInput> = (0..8).map(|i| query(model.grid(), i)).collect();
    for (i, q) in queries.iter().take(5).enumerate() {
        let est = model.estimate(q, &mut StdRng::seed_from_u64(i as u64));
        println!(
            "estimate[{i}] {:016x} pit {:016x}",
            est.seconds.to_bits(),
            fnv(&[est.pit])
        );
    }
    for (i, est) in model
        .estimate_batch(&queries, &mut StdRng::seed_from_u64(8))
        .into_iter()
        .enumerate()
    {
        println!(
            "estimate_batch[{i}] {:016x} pit {:016x}",
            est.seconds.to_bits(),
            fnv(&[est.pit])
        );
    }
    for steps in [8, 3] {
        let pits = model.infer_pits_fast(&queries, steps, &mut StdRng::seed_from_u64(9));
        println!("ddim{steps}_pits {:016x}", fnv(&pits));
    }
    println!("robustness {}", model.robustness());
}
