//! Property-based tests for the degradation ladder (the robustness
//! invariants the frontend's deadline handling rests on):
//!
//! 1. **Monotonicity** — for any cost snapshot, breaker mask, and pair of
//!    deadlines, the shorter deadline never selects a *slower*
//!    (higher-fidelity, higher-index-cost) rung than the longer one.
//! 2. **Soundness** — the selected rung is always usable (or terminal),
//!    and fits the budget unless nothing does.
//! 3. **Fallback totality** — the haversine-prior fallback produces a
//!    finite, non-negative estimate for *any* query, including NaN and
//!    infinite coordinates.
//!
//! Each property runs `CASES` cases; case `n` draws its inputs from
//! `SplitMix64::new(n)`, so the case number in a failure message is the seed
//! that replays it.

use odt_core::fallback_estimate_seconds;
use odt_obs::SplitMix64;
use odt_roadnet::LngLat;
use odt_serve::{select_from_costs, LadderConfig, LatencyLadder, Rung};
use odt_traj::OdtInput;

const CASES: u64 = 256;

fn usable_fn(mask: u8) -> impl Fn(Rung) -> bool {
    move |r: Rung| r.is_terminal() || mask & (1 << r.index()) != 0
}

/// One cost per rung, each below `bound`.
fn costs(rng: &mut SplitMix64, bound: u64) -> [u64; 6] {
    std::array::from_fn(|_| rng.next_below(bound))
}

/// A breaker mask over the five non-terminal rungs.
fn mask(rng: &mut SplitMix64) -> u8 {
    rng.next_below(32) as u8
}

/// A ladder fed up to 63 latency observations of `min_us..500_000` µs.
fn observed_ladder(rng: &mut SplitMix64, min_us: u64) -> LatencyLadder {
    let ladder = LatencyLadder::new(LadderConfig::default());
    for _ in 0..rng.next_below(64) {
        let rung = Rung::from_index(rng.next_below(6) as usize);
        ladder.observe(rung, min_us + rng.next_below(500_000 - min_us));
    }
    ladder
}

/// Any `f64` bit pattern, with the non-finite and boundary values a uniform
/// draw over bits all but never produces in one case out of four.
fn any_f64(rng: &mut SplitMix64) -> f64 {
    const EDGES: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    match rng.next_below(32) {
        i @ 0..=7 => EDGES[i as usize],
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// A shorter deadline never selects a slower rung (pure selection).
#[test]
fn selection_is_monotone_in_the_deadline() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let costs = costs(&mut rng, 1_000_000);
        let mask = mask(&mut rng);
        let d_lo = rng.next_below(2_000_000);
        let d_hi = d_lo + rng.next_below(2_000_000);
        let pick_lo = select_from_costs(&costs, d_lo, usable_fn(mask));
        let pick_hi = select_from_costs(&costs, d_hi, usable_fn(mask));
        // Lower index = higher fidelity; shrinking the budget may only
        // move the selection down the ladder (index up), never up.
        assert!(
            pick_lo.index() >= pick_hi.index(),
            "case {case}: deadline {d_lo} picked {pick_lo:?} but deadline {d_hi} picked \
             {pick_hi:?} (costs {costs:?}, mask {mask:#07b})"
        );
    }
}

/// The selected rung is usable and within budget whenever possible.
#[test]
fn selection_is_sound() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let costs = costs(&mut rng, 1_000_000);
        let usable = usable_fn(mask(&mut rng));
        let deadline = rng.next_below(2_000_000);
        let pick = select_from_costs(&costs, deadline, &usable);
        assert!(usable(pick) || pick.is_terminal(), "case {case}: {pick:?}");
        if !pick.is_terminal() {
            // A non-terminal pick always fits its budget...
            assert!(
                costs[pick.index()] <= deadline,
                "case {case}: {pick:?} costs {} of {deadline}",
                costs[pick.index()]
            );
            // ...and no usable higher-fidelity rung also fit.
            for r in Rung::ALL.iter().take(pick.index()) {
                assert!(
                    !(usable(*r) && costs[r.index()] <= deadline),
                    "case {case}: {r:?} fit but {pick:?} was picked"
                );
            }
        }
    }
}

/// Monotonicity survives the live ladder (histogram p95s + priors),
/// not just the pure function: feed arbitrary latency observations,
/// then check a deadline pair.
#[test]
fn live_ladder_selection_is_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let ladder = observed_ladder(&mut rng, 1);
        let mask = mask(&mut rng);
        let d_lo = rng.next_below(1_000_000);
        let d_hi = d_lo + rng.next_below(1_000_000);
        let pick_lo = ladder.select(d_lo, usable_fn(mask));
        let pick_hi = ladder.select(d_hi, usable_fn(mask));
        assert!(
            pick_lo.index() >= pick_hi.index(),
            "case {case}: deadline {d_lo} picked {pick_lo:?} but deadline {d_hi} picked {pick_hi:?}"
        );
    }
}

/// The zero/negative-budget boundary: when the remaining deadline
/// budget is already exhausted at dequeue (a negative budget saturates
/// to 0 upstream), selection must never panic and must go straight to
/// a free rung or the terminal prior — it cannot pick a rung whose
/// cost estimate is nonzero, for any cost snapshot or breaker mask.
#[test]
fn zero_budget_selection_is_total_and_free() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        // Any cost at all, with a free rung in about one case out of three.
        let costs: [u64; 6] = std::array::from_fn(|_| match rng.next_below(16) {
            0 => 0,
            _ => rng.next_u64(),
        });
        let mask = mask(&mut rng);
        let usable = usable_fn(mask);
        let pick = select_from_costs(&costs, 0, &usable);
        assert!(
            costs[pick.index()] == 0 || pick.is_terminal(),
            "case {case}: budget 0 picked {pick:?} with cost {} (costs {costs:?}, mask {mask:#07b})",
            costs[pick.index()]
        );
        assert!(usable(pick) || pick.is_terminal(), "case {case}: {pick:?}");
        // And the boundary is consistent with monotonicity: no positive
        // budget may pick a *higher*-index rung than budget 0 does.
        let pick_one = select_from_costs(&costs, 1, &usable);
        assert!(
            pick.index() >= pick_one.index(),
            "case {case}: budget 0 picked {pick:?}, budget 1 picked {pick_one:?}"
        );
    }
}

/// The live ladder at the same boundary: arbitrary observations, then
/// a zero-budget selection — total, and only free-or-terminal.
#[test]
fn live_ladder_zero_budget_is_total() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let ladder = observed_ladder(&mut rng, 0);
        let pick = ladder.select(0, usable_fn(mask(&mut rng)));
        assert!(
            ladder.cost_us(pick) == 0 || pick.is_terminal(),
            "case {case}: budget 0 picked {pick:?} with cost {}",
            ladder.cost_us(pick)
        );
    }
}

/// The terminal fallback answers every query with a finite,
/// non-negative travel time — even for absurd or non-finite inputs.
#[test]
fn fallback_estimate_is_always_finite() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let odt = OdtInput {
            origin: LngLat {
                lng: any_f64(&mut rng),
                lat: any_f64(&mut rng),
            },
            dest: LngLat {
                lng: any_f64(&mut rng),
                lat: any_f64(&mut rng),
            },
            t_dep: any_f64(&mut rng),
        };
        let secs = fallback_estimate_seconds(&odt);
        assert!(
            secs.is_finite() && secs >= 0.0,
            "case {case}: fallback produced {secs} for {odt:?}"
        );
    }
}
