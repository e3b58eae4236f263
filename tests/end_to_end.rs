//! Integration tests spanning the whole workspace: simulator → dataset →
//! two-stage DOT training → oracle queries → persistence.

use odt::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_dataset() -> Dataset {
    let mut cfg = odt::traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 180, 8, 13)
}

fn tiny_config() -> DotConfig {
    DotConfig {
        stage1_iters: 20,
        stage1_batch: 4,
        stage2_iters: 40,
        stage2_batch: 4,
        early_stop_samples: 4,
        early_stop_every: 20,
        ..DotConfig::tiny()
    }
}

#[test]
fn full_pipeline_produces_usable_oracle() {
    let data = tiny_dataset();
    let model = Dot::train(tiny_config(), &data, |_| {});
    let mut rng = StdRng::seed_from_u64(1);
    for trip in data.split(Split::Test).iter().take(3) {
        let est = model.estimate(&OdtInput::from_trajectory(trip), &mut rng);
        assert!(est.seconds.is_finite() && est.seconds >= 0.0);
        assert!(
            est.seconds < 4.0 * 3_600.0,
            "implausible estimate {}",
            est.seconds
        );
        assert_eq!(est.pit.lg(), 8);
        assert!(est.pit.tensor().is_finite());
    }
}

#[test]
fn oracle_is_deterministic_under_fixed_seed() {
    let data = tiny_dataset();
    let model = Dot::train(tiny_config(), &data, |_| {});
    let q = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
    let a = model.estimate(&q, &mut StdRng::seed_from_u64(5)).seconds;
    let b = model.estimate(&q, &mut StdRng::seed_from_u64(5)).seconds;
    assert_eq!(a, b);
}

#[test]
fn training_is_reproducible() {
    let data = tiny_dataset();
    let m1 = Dot::train(tiny_config(), &data, |_| {});
    let m2 = Dot::train(tiny_config(), &data, |_| {});
    let pit = Pit::from_trajectory(&data.split(Split::Test)[0], &data.grid);
    assert_eq!(m1.estimate_from_pit(&pit), m2.estimate_from_pit(&pit));
}

#[test]
fn checkpoint_round_trip_through_disk() {
    let data = tiny_dataset();
    let model = Dot::train(tiny_config(), &data, |_| {});
    let path = std::env::temp_dir().join(format!("odt_e2e_{}.json", std::process::id()));
    model.save(&path).unwrap();
    let restored = Dot::load(&path).unwrap();
    let pit = Pit::from_trajectory(&data.split(Split::Test)[0], &data.grid);
    assert_eq!(
        model.estimate_from_pit(&pit),
        restored.estimate_from_pit(&pit)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn stage2_retraining_swaps_estimator() {
    let data = tiny_dataset();
    let mut model = Dot::train(tiny_config(), &data, |_| {});
    let (s1_before, _) = model.param_counts();
    model.retrain_stage2(|c| c.ablation.estimator = EstimatorKind::Cnn, &data, |_| {});
    let (s1_after, s2_after) = model.param_counts();
    assert_eq!(s1_before, s1_after, "stage 1 must be untouched");
    assert!(s2_after > 0);
    let pit = Pit::from_trajectory(&data.split(Split::Test)[0], &data.grid);
    assert!(model.estimate_from_pit(&pit).is_finite());
}
