//! Robustness of the oracle and baselines to degenerate or out-of-range
//! queries: endpoints outside the area of interest, zero-distance OD pairs,
//! departures that cross midnight.

use odt::baselines::{LinearRegression, OdtOracle, OracleContext, Temp};
use odt::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    let mut cfg = odt::traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 180, 8, 41)
}

fn tiny_model(data: &Dataset) -> Dot {
    Dot::train(DotConfig::tiny(), data, |_| {})
}

fn weird_queries(data: &Dataset) -> Vec<OdtInput> {
    let base = OdtInput::from_trajectory(&data.trips[0]);
    let span_lng = data.grid.max.lng - data.grid.min.lng;
    vec![
        // Far outside the grid on both ends.
        OdtInput {
            origin: odt::roadnet::LngLat {
                lng: data.grid.min.lng - 3.0 * span_lng,
                lat: base.origin.lat,
            },
            dest: odt::roadnet::LngLat {
                lng: data.grid.max.lng + 3.0 * span_lng,
                lat: base.dest.lat,
            },
            ..base
        },
        // Zero-distance query.
        OdtInput {
            dest: base.origin,
            ..base
        },
        // Departure just before midnight.
        OdtInput {
            t_dep: base.t_dep - base.second_of_day() + 86_395.0,
            ..base
        },
        // Departure decades in the future (different day arithmetic).
        OdtInput {
            t_dep: base.t_dep + 50.0 * 365.25 * 86_400.0,
            ..base
        },
    ]
}

#[test]
fn oracle_survives_degenerate_queries() {
    let data = dataset();
    let model = tiny_model(&data);
    let mut rng = StdRng::seed_from_u64(2);
    for (i, q) in weird_queries(&data).iter().enumerate() {
        let est = model.estimate(q, &mut rng);
        assert!(
            est.seconds.is_finite() && est.seconds >= 0.0,
            "query {i} produced {}",
            est.seconds
        );
        assert!(est.pit.tensor().is_finite(), "query {i} produced NaN PiT");
    }
}

#[test]
fn fast_ddim_path_survives_degenerate_queries() {
    let data = dataset();
    let model = tiny_model(&data);
    let mut rng = StdRng::seed_from_u64(6);
    for (i, q) in weird_queries(&data).iter().enumerate() {
        // The accelerated serving path: DDIM PiT inference + guardrails.
        let est = model.estimate_sampled(q, odt::dot::PitSampler::Ddim(4), &mut rng);
        assert!(
            est.seconds.is_finite() && est.seconds >= 0.0,
            "fast query {i} produced {}",
            est.seconds
        );
        assert!(
            est.pit.tensor().is_finite(),
            "fast query {i} produced NaN PiT"
        );
        // And the raw batch API used by the eval harness.
        let pits = model.infer_pits_fast(std::slice::from_ref(q), 4, &mut rng);
        assert!(pits[0].tensor().is_finite());
    }
    // The far-outside-grid and zero-distance queries needed clamping.
    assert!(model.robustness().queries_clamped > 0);
}

#[test]
fn degenerate_pit_falls_back_to_distance_prior() {
    let data = dataset();
    let model = tiny_model(&data);
    let q = OdtInput::from_trajectory(&data.trips[0]);

    // Force degenerate PiTs through the guarded estimator: an empty one
    // and a saturated one (as if the reverse chain collapsed).
    let lg = model.grid().lg;
    let empty = Pit::from_tensor(odt::tensor::Tensor::full(vec![3, lg, lg], -1.0));
    let saturated = Pit::from_tensor(odt::tensor::Tensor::full(vec![3, lg, lg], 1.0));
    let expected = odt::dot::fallback_estimate_seconds(&q);
    for pit in [empty, saturated] {
        let est = model.estimate_from_pit_guarded(&q, pit);
        assert!(est.seconds.is_finite() && est.seconds >= 0.0);
        assert_eq!(est.seconds, expected, "fallback prior must answer");
    }
    let snap = model.robustness();
    assert_eq!(snap.degenerate_pits, 2, "{snap}");
    assert_eq!(snap.fallbacks_taken, 2, "{snap}");

    // A healthy PiT keeps using the learned estimator.
    let healthy = Pit::from_trajectory(&data.trips[0], &data.grid);
    let est = model.estimate_from_pit_guarded(&q, healthy.clone());
    assert_eq!(est.seconds, model.estimate_from_pit(&healthy));
    assert_eq!(model.robustness().fallbacks_taken, 2);
}

#[test]
fn baselines_survive_degenerate_queries() {
    let data = dataset();
    let ctx = OracleContext {
        grid: data.grid,
        proj: data.proj,
    };
    let train = data.split(Split::Train);
    let temp = Temp::fit(ctx, train);
    let lr = LinearRegression::fit(ctx, train);
    for q in weird_queries(&data) {
        for o in [&temp as &dyn OdtOracle, &lr] {
            let p = o.predict_seconds(&q);
            assert!(p.is_finite() && p >= 0.0, "{} produced {p}", o.name());
        }
    }
}

#[test]
fn pit_rasterization_handles_out_of_grid_points() {
    let data = dataset();
    // A trajectory with one fix far outside the grid must clamp, not panic.
    let mut points = data.trips[0].points.clone();
    points[0].loc.lng -= 10.0;
    let t = Trajectory::new(points);
    let pit = Pit::from_trajectory(&t, &data.grid);
    assert!(pit.tensor().is_finite());
    assert!(pit.num_visited() >= 1);
}

#[test]
fn empty_query_batches_return_empty_not_panic() {
    let data = dataset();
    let model = tiny_model(&data);
    let mut rng = StdRng::seed_from_u64(9);

    // Every batch entry point must treat an empty slice as a no-op: no
    // panics from zero-sized tensor shapes, no phantom estimates.
    assert!(model.estimate_batch(&[], &mut rng).is_empty());
    assert!(model.infer_pits(&[], &mut rng).is_empty());
    assert!(model.infer_pits_fast(&[], 4, &mut rng).is_empty());
    assert!(model.estimate_from_pits(&[]).is_empty());
}

#[test]
fn strict_sanitization_rejects_far_queries_with_typed_reason() {
    let data = dataset();
    let model = tiny_model(&data);
    let base = OdtInput::from_trajectory(&data.trips[0]);
    let span = data.grid.max.lng - data.grid.min.lng;
    let rejected_before = model.robustness().queries_rejected;

    // Beyond one grid-span outside the region: a typed rejection.
    let far = OdtInput {
        dest: odt::roadnet::LngLat {
            lng: data.grid.max.lng + 2.0 * span,
            lat: base.dest.lat,
        },
        ..base
    };
    match model.sanitize_strict(&far) {
        Err(reason) => {
            assert_eq!(reason.kind(), "far_destination");
            assert!(reason.spans() > odt::dot::FAR_QUERY_SPANS);
        }
        Ok(_) => panic!("far query passed strict sanitization"),
    }
    assert_eq!(model.robustness().queries_rejected, rejected_before + 1);

    // Within a grid-span (and NaN coords): still clamped, not rejected.
    let near = OdtInput {
        origin: odt::roadnet::LngLat {
            lng: data.grid.min.lng - 0.5 * span,
            lat: f64::NAN,
        },
        ..base
    };
    let clean = model
        .sanitize_strict(&near)
        .expect("near query must clamp, not reject");
    assert!(clean.origin.lng >= data.grid.min.lng);
    assert!(clean.origin.lat.is_finite());
    assert_eq!(model.robustness().queries_rejected, rejected_before + 1);

    // The lenient default path still clamps even far queries (legacy
    // behavior relied on by Dot::estimate).
    let est = model.estimate(&far, &mut StdRng::seed_from_u64(3));
    assert!(est.seconds.is_finite() && est.seconds >= 0.0);
}
