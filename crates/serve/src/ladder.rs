//! The adaptive degradation ladder: deadline-aware rung selection.
//!
//! The ladder orders the serving paths by preference — cached estimate,
//! full DDPM sampling, DDIM fast path, reduced-step DDIM, slightly-stale
//! cached estimate, haversine-prior fallback — and keeps a live latency
//! histogram per rung. A request with `d` microseconds of deadline budget
//! left takes the **first usable rung whose live p95 latency fits in `d`**
//! (skipping rungs whose circuit breaker is open, and cache rungs with no
//! usable entry); if nothing else fits, the terminal fallback answers —
//! it is always available and effectively instant.
//!
//! The two cache rungs bracket the model rungs deliberately: a *fresh*
//! cached estimate is the best answer at the lowest cost, so it sits
//! first; a *stale* one (past TTL but inside the grace window) is still
//! better than the model-free haversine prior but worse than live
//! inference, so it sits just above the fallback — it only answers when
//! no model rung fits the budget or every model breaker is open.
//!
//! Selection is *monotone in the deadline* (verified by a property test): for a
//! fixed latency snapshot, shrinking the budget can only move the choice
//! down the ladder, never up. This is what makes per-request deadlines
//! composable with SLA reporting — a stricter SLA never gets a slower
//! answer.

use odt_obs::Histogram;

/// One rung of the degradation ladder, in selection-preference order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Rung {
    /// A fresh cached estimate (within its TTL) — full-fidelity answer at
    /// microsecond cost. Only usable when the executor's cache probe hit.
    Cached,
    /// Full stochastic DDPM sampling with candidate selection.
    Full,
    /// Deterministic DDIM over a reduced strided schedule.
    Ddim,
    /// DDIM over an even smaller step count.
    DdimReduced,
    /// A slightly-stale cached estimate (past TTL, inside the grace
    /// window) — better than the prior when no model rung fits.
    CachedStale,
    /// The model-free haversine-prior fallback (terminal; always available).
    Fallback,
}

/// Number of rungs on the ladder.
pub const NUM_RUNGS: usize = 6;

/// Number of rungs guarded by circuit breakers (all but the fallback).
pub const MODEL_RUNGS: usize = NUM_RUNGS - 1;

/// What answers on a rung — decides how the frontend gates it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RungKind {
    /// Served from the estimate cache: usable only after a cache probe hit.
    Cache,
    /// Served by the model (one `PitSampler` per rung in the Dot executor).
    Model,
    /// The terminal rung: no breaker, always available.
    Terminal,
}

/// One row of the ladder: everything the serving stack knows about a rung.
#[derive(Copy, Clone, Debug)]
pub struct RungSpec {
    /// The rung this row describes.
    pub rung: Rung,
    /// Short tag for metrics, events and reports.
    pub name: &'static str,
    /// Histogram (and trace span) the frontend records attempts into:
    /// `serve.rung.<name>`.
    pub hist: &'static str,
    /// Optimistic latency prior (µs) used until the rung has live samples.
    pub prior_us: u64,
    /// What answers on this rung.
    pub kind: RungKind,
}

/// A [`LADDER`] row; the histogram name is derived from the rung name.
macro_rules! row {
    ($rung:ident, $name:literal, $prior_us:literal, $kind:ident) => {
        RungSpec {
            rung: Rung::$rung,
            name: $name,
            hist: concat!("serve.rung.", $name),
            prior_us: $prior_us,
            kind: RungKind::$kind,
        }
    };
}

/// The ladder, selection-preference order: adding or re-tuning a rung is one
/// row here (plus its [`Rung`] variant, declared in the same position).
pub const LADDER: [RungSpec; NUM_RUNGS] = [
    row!(Cached, "cached", 5, Cache),
    row!(Full, "full_ddpm", 200_000, Model),
    row!(Ddim, "ddim", 50_000, Model),
    row!(DdimReduced, "ddim_reduced", 20_000, Model),
    row!(CachedStale, "cached_stale", 5, Cache),
    row!(Fallback, "fallback", 100, Terminal),
];

impl Rung {
    /// Every rung, selection-preference order.
    pub const ALL: [Rung; NUM_RUNGS] = {
        let mut all = [Rung::Fallback; NUM_RUNGS];
        let mut i = 0;
        while i < NUM_RUNGS {
            all[i] = LADDER[i].rung;
            i += 1;
        }
        all
    };

    /// Position on the ladder (0 = tried first).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The rung at ladder position `i` (`i < NUM_RUNGS`).
    pub fn from_index(i: usize) -> Rung {
        LADDER[i].rung
    }

    /// This rung's row of [`LADDER`].
    pub fn spec(self) -> &'static RungSpec {
        &LADDER[self.index()]
    }

    /// Short tag for metrics, events and reports.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Whether this is the terminal (breaker-less) rung.
    pub fn is_terminal(self) -> bool {
        self.spec().kind == RungKind::Terminal
    }

    /// Whether this rung serves from the estimate cache (and therefore
    /// needs a successful cache probe to be usable).
    pub fn is_cache(self) -> bool {
        self.spec().kind == RungKind::Cache
    }
}

/// Ladder tuning.
#[derive(Copy, Clone, Debug)]
pub struct LadderConfig {
    /// Optimistic per-rung latency priors (µs, ladder order) used until
    /// `min_samples` live observations exist for a rung.
    pub prior_us: [u64; NUM_RUNGS],
    /// Observations per rung before its live p95 replaces the prior.
    pub min_samples: u64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            prior_us: std::array::from_fn(|i| LADDER[i].prior_us),
            min_samples: 5,
        }
    }
}

/// Live per-rung latency tracking + deadline-aware selection.
pub struct LatencyLadder {
    cfg: LadderConfig,
    hists: [Histogram; NUM_RUNGS],
}

impl LatencyLadder {
    /// An empty ladder (selection starts from the configured priors).
    pub fn new(cfg: LadderConfig) -> Self {
        LatencyLadder {
            cfg,
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }

    /// Record one observed service latency for a rung (successes *and*
    /// failures: a slow failure is exactly the signal that should push
    /// traffic down the ladder).
    pub fn observe(&self, rung: Rung, micros: u64) {
        self.hists[rung.index()].record_micros(micros);
    }

    /// The cost estimate selection uses for a rung: its live p95 once
    /// `min_samples` observations exist, the configured prior before.
    pub fn cost_us(&self, rung: Rung) -> u64 {
        let h = &self.hists[rung.index()];
        if h.count() >= self.cfg.min_samples {
            h.quantile_micros(0.95) as u64
        } else {
            self.cfg.prior_us[rung.index()]
        }
    }

    /// A snapshot of every rung's cost estimate, ladder order.
    pub fn costs(&self) -> [u64; NUM_RUNGS] {
        std::array::from_fn(|i| self.cost_us(Rung::from_index(i)))
    }

    /// Pick the rung for a request with `remaining_us` of deadline budget:
    /// the first usable rung (ladder order) whose cost fits. See
    /// [`select_from_costs`].
    pub fn select(&self, remaining_us: u64, usable: impl Fn(Rung) -> bool) -> Rung {
        select_from_costs(&self.costs(), remaining_us, usable)
    }
}

/// The pure selection rule: the first rung in ladder order that is
/// `usable` and whose cost fits the remaining budget; the terminal
/// fallback if none fits (it is always usable — breakers never apply to
/// it).
///
/// Monotonicity (the property-tested invariant): for fixed `costs` and
/// `usable`, if `d' ≤ d` then `select(d').index() ≥ select(d).index()` —
/// a shorter deadline never picks a slower (higher-preference) rung. Proof
/// sketch: the predicate `cost[i] ≤ d` is monotone in `d` for every `i`,
/// so the first index satisfying it can only move right as `d` shrinks.
pub fn select_from_costs(
    costs: &[u64; NUM_RUNGS],
    remaining_us: u64,
    usable: impl Fn(Rung) -> bool,
) -> Rung {
    for rung in Rung::ALL {
        if !rung.is_terminal() && !usable(rung) {
            continue;
        }
        if costs[rung.index()] <= remaining_us {
            return rung;
        }
    }
    Rung::Fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usable mask every pre-cache test used: model rungs only (no
    /// cache probe available).
    fn no_cache(r: Rung) -> bool {
        !r.is_cache()
    }

    #[test]
    fn ladder_table_is_well_formed() {
        // Dense, in preference order, and in step with the enum.
        for (i, row) in LADDER.iter().enumerate() {
            assert_eq!(row.rung.index(), i, "{row:?}");
            assert_eq!(Rung::from_index(i), row.rung);
            assert_eq!(Rung::ALL[i], row.rung);
        }
        // Names and histogram names identify a rung.
        for (i, a) in LADDER.iter().enumerate() {
            for b in &LADDER[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.hist, b.hist);
            }
            assert_eq!(a.hist, format!("serve.rung.{}", a.name));
        }
        // Exactly one terminal row, and it is last (breakers cover the
        // `MODEL_RUNGS` rows before it).
        let terminal: Vec<usize> = (0..NUM_RUNGS)
            .filter(|&i| LADDER[i].kind == RungKind::Terminal)
            .collect();
        assert_eq!(terminal, [MODEL_RUNGS]);
        assert!(Rung::Fallback.is_terminal());
        // The cache rungs bracket the model rungs: fresh before every one
        // of them, stale after.
        let cache: Vec<Rung> = Rung::ALL.into_iter().filter(|r| r.is_cache()).collect();
        assert_eq!(cache, [Rung::Cached, Rung::CachedStale]);
        for row in LADDER.iter().filter(|row| row.kind == RungKind::Model) {
            assert!(Rung::Cached.index() < row.rung.index(), "{row:?}");
            assert!(row.rung.index() < Rung::CachedStale.index(), "{row:?}");
        }
        // Names the benchmark and reports key on.
        assert_eq!(Rung::Full.name(), "full_ddpm");
        assert_eq!(Rung::Cached.name(), "cached");
        assert_eq!(Rung::CachedStale.name(), "cached_stale");
        assert_eq!(
            LadderConfig::default().prior_us,
            [5, 200_000, 50_000, 20_000, 5, 100]
        );
    }

    #[test]
    fn selection_prefers_fidelity_within_budget() {
        let costs = [2, 100_000, 20_000, 5_000, 2, 10];
        assert_eq!(select_from_costs(&costs, 200_000, no_cache), Rung::Full);
        assert_eq!(select_from_costs(&costs, 50_000, no_cache), Rung::Ddim);
        assert_eq!(
            select_from_costs(&costs, 10_000, no_cache),
            Rung::DdimReduced
        );
        assert_eq!(select_from_costs(&costs, 100, no_cache), Rung::Fallback);
        // Nothing fits: still answered, by the terminal rung.
        assert_eq!(select_from_costs(&costs, 0, no_cache), Rung::Fallback);
    }

    #[test]
    fn fresh_cache_hit_short_circuits_the_model_rungs() {
        let costs = [2, 100_000, 20_000, 5_000, 2, 10];
        // Probe hit fresh: Cached outranks everything.
        assert_eq!(select_from_costs(&costs, 200_000, |_| true), Rung::Cached);
        // Probe hit stale only: model rungs still preferred while they
        // fit; the stale tier answers when they don't.
        let stale_only = |r: Rung| r != Rung::Cached;
        assert_eq!(select_from_costs(&costs, 200_000, stale_only), Rung::Full);
        assert_eq!(
            select_from_costs(&costs, 1_000, stale_only),
            Rung::CachedStale
        );
        // Stale beats the prior, but an exhausted budget still falls
        // through to the terminal rung.
        assert_eq!(select_from_costs(&costs, 0, stale_only), Rung::Fallback);
    }

    #[test]
    fn open_breakers_route_down_the_ladder() {
        let costs = [10; NUM_RUNGS];
        let no_full = |r: Rung| !r.is_cache() && r != Rung::Full;
        assert_eq!(select_from_costs(&costs, 1_000, no_full), Rung::Ddim);
        let only_fallback = |_: Rung| false;
        assert_eq!(
            select_from_costs(&costs, 1_000, only_fallback),
            Rung::Fallback
        );
    }

    #[test]
    fn zero_remaining_budget_never_panics_and_goes_straight_down() {
        // The dequeue-time boundary: a request whose budget is already
        // exhausted (remaining saturates to 0) must select without
        // panicking, and can only land on a zero-cost rung or the prior
        // (terminal) fallback — never a rung that "costs" anything.
        for costs in [
            [2u64, 100_000, 20_000, 5_000, 2, 10],
            [0; NUM_RUNGS],
            [u64::MAX; NUM_RUNGS],
            [0, u64::MAX, 0, 1, 0, 1],
        ] {
            let pick = select_from_costs(&costs, 0, no_cache);
            assert!(
                costs[pick.index()] == 0 || pick.is_terminal(),
                "budget 0 picked {pick:?} with cost {} (costs {costs:?})",
                costs[pick.index()]
            );
        }
        // With every breaker open and no budget, the terminal prior rung
        // still answers.
        assert_eq!(
            select_from_costs(&[0; NUM_RUNGS], 0, |_| false),
            Rung::Fallback
        );
        // The live ladder agrees at the same boundary.
        let ladder = LatencyLadder::new(LadderConfig::default());
        let pick = ladder.select(0, no_cache);
        assert!(ladder.cost_us(pick) == 0 || pick.is_terminal());
    }

    #[test]
    fn selection_is_monotone_on_a_cost_grid() {
        // Exhaustive small-grid check of the property-tested invariant, now
        // over all 2^5 usable masks including the cache rungs.
        let grids: [[u64; NUM_RUNGS]; 4] = [
            [1, 100, 50, 20, 1, 1],
            [0, 10, 50, 5, 3, 0],
            [1; NUM_RUNGS],
            [1_000; NUM_RUNGS],
        ];
        for costs in &grids {
            for mask in 0..32u8 {
                let usable = |r: Rung| r.is_terminal() || mask & (1 << r.index()) != 0;
                let mut prev_idx = None;
                // Deadlines descending: selected index must not decrease.
                for d in (0..=1_200u64).rev().step_by(7) {
                    let idx = select_from_costs(costs, d, usable).index();
                    if let Some(p) = prev_idx {
                        assert!(idx >= p, "costs {costs:?} mask {mask} d {d}");
                    }
                    prev_idx = Some(idx);
                }
            }
        }
    }

    #[test]
    fn ladder_blends_prior_and_live_p95() {
        let ladder = LatencyLadder::new(LadderConfig {
            prior_us: [1, 1_000, 100, 10, 1, 1],
            min_samples: 3,
        });
        // Below min_samples: the prior answers.
        ladder.observe(Rung::Full, 5);
        assert_eq!(ladder.cost_us(Rung::Full), 1_000);
        // At min_samples: the live p95 takes over (all samples ≈ 5µs).
        ladder.observe(Rung::Full, 5);
        ladder.observe(Rung::Full, 5);
        assert!(
            ladder.cost_us(Rung::Full) <= 8,
            "{}",
            ladder.cost_us(Rung::Full)
        );
        // And selection adapts: Full now fits a 10µs budget.
        assert_eq!(ladder.select(10, no_cache), Rung::Full);
    }
}
