//! Integration tests of the PiT data path: trajectory → PiT → estimators /
//! denoiser, PiT → path → path-based models, and the property-based
//! invariants of the rasterization (case `n` draws its trip seed from
//! `SplitMix64::new(n)`, and a failure message names both).

use odt::diffusion::{ConditionedDenoiser, DenoiserConfig, NoisePredictor};
use odt::estimator::{MVit, MVitConfig, PitEstimator};
use odt::obs::SplitMix64;
use odt::prelude::*;
use odt::tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(lg: usize) -> Dataset {
    let mut cfg = odt::traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 150, lg, 29)
}

#[test]
fn ground_truth_pits_feed_both_stages() {
    let data = dataset(8);
    let mut rng = StdRng::seed_from_u64(0);
    let den_cfg = DenoiserConfig {
        channels: 3,
        lg: 8,
        base_channels: 4,
        depth: 2,
        cond_dim: 16,
        attn_max_tokens: 64,
    };
    let den = ConditionedDenoiser::new(&mut rng, den_cfg);
    let mvit = MVit::with_defaults(&mut rng, &MVitConfig::fast(), 8);
    for trip in data.split(Split::Train).iter().take(4) {
        let pit = Pit::from_trajectory(trip, &data.grid);
        // Stage 1 shape compatibility.
        let g = Graph::new();
        let x = g.input(pit.tensor().reshape(vec![1, 3, 8, 8]));
        let eps = den.predict(&g, x, &[3], &Tensor::zeros(vec![1, 5]));
        assert_eq!(g.shape(eps), vec![1, 3, 8, 8]);
        // Stage 2 compatibility.
        let y = mvit.predict(&g, &pit);
        assert!(g.value(y).is_finite());
    }
}

#[test]
fn pit_to_path_round_trip_is_ordered() {
    let data = dataset(8);
    let trip = &data.split(Split::Train)[0];
    let pit = Pit::from_trajectory(trip, &data.grid);
    let pts = odt::dot::pit_to_path_points(&pit, &data.grid, &data.proj);
    assert_eq!(pts.len(), pit.num_visited());
    // The first path point must correspond to the trip's origin cell.
    let origin_cell = data.grid.cell_of(trip.points[0].loc);
    let first_cell = data.grid.cell_of(data.proj.to_lnglat(pts[0]));
    assert_eq!(first_cell, origin_cell);
}

/// One simulated trip per case, from a seed below `seed_bound`; seed 80 once
/// made the first property fail and is always among them.
fn trips(cases: u64, seed_bound: u64) -> impl Iterator<Item = (String, Trajectory)> {
    let mut cfg = odt::traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    let sim = odt::traj::sim::CitySim::new(cfg);
    (0..cases)
        .map(move |case| (case, SplitMix64::new(case).next_below(seed_bound)))
        .chain([(cases, 80)])
        .map(move |(case, seed)| {
            let trip = sim.generate_trip(&mut StdRng::seed_from_u64(seed));
            (format!("case {case} (trip seed {seed})"), trip)
        })
}

/// Any trajectory rasterizes to a PiT whose values respect Definition 2.
#[test]
fn pit_values_respect_definition() {
    for (case, trip) in trips(24, 500) {
        let grid = GridSpec::covering(std::slice::from_ref(&trip), 10);
        let pit = Pit::from_trajectory(&trip, &grid);

        // Every value in [-1, 1]; unvisited cells all -1; visited mask = 1.
        for ch in 0..3 {
            for row in 0..10 {
                for col in 0..10 {
                    let v = pit.at(ch, row, col);
                    assert!((-1.0..=1.0).contains(&v), "{case}: value {v} out of range");
                }
            }
        }
        for row in 0..10 {
            for col in 0..10 {
                if !pit.is_visited(row, col) {
                    for ch in 0..3 {
                        assert_eq!(pit.at(ch, row, col), -1.0, "{case}: ({row}, {col})");
                    }
                }
            }
        }
        // At least origin and destination cells visited; offsets span -1..1.
        assert!(pit.num_visited() >= 2, "{case}");
        let offsets: Vec<f32> = pit
            .visited_indices()
            .iter()
            .map(|&i| {
                let (r, c) = grid.cell_of_index(i);
                pit.at(2, r, c)
            })
            .collect();
        let min = offsets.iter().copied().fold(f32::INFINITY, f32::min);
        let max = offsets.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // The origin cell's earliest point is the first fix -> offset -1.
        assert!(
            (min + 1.0).abs() < 1e-5,
            "{case}: first visit offset must be -1, got {min}"
        );
        // The final fix may fall in an already-visited cell (earliest point
        // wins per Definition 2), so the max offset is <= 1, not == 1.
        assert!(
            max <= 1.0 && max > min,
            "{case}: offsets must increase, got max {max}"
        );
    }
}

/// The visit times decoded from the ToD channel are consistent with the
/// trip's departure and arrival.
#[test]
fn decoded_visit_times_within_trip_span() {
    for (case, trip) in trips(24, 200) {
        let grid = GridSpec::covering(std::slice::from_ref(&trip), 8);
        let pit = Pit::from_trajectory(&trip, &grid);
        let dep = trip.departure_second_of_day();
        let arr = dep + trip.travel_time();
        for idx in pit.visited_indices() {
            let (r, c) = grid.cell_of_index(idx);
            let s = pit.visit_second_of_day(r, c).unwrap();
            // Allow f32 quantization of the ToD channel (~±6 s over a day).
            assert!(
                s >= dep - 10.0 && s <= arr + 10.0,
                "{case}: visit at {s:.0}s outside [{dep:.0}, {arr:.0}]"
            );
        }
    }
}
