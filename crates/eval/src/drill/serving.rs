//! Drills against the in-process frontend over the drill oracle: the six
//! seeded fault-mix scenarios (one [`Scenario`] of data each, one runner) and
//! the two synthetic-drift drills (one shared scoring loop).

use super::{DrillCtx, DrillOutcome, Flush};
use odt_obs::QualitySnapshot;
use odt_serve::{
    dot_frontend, dot_frontend_cached, BreakerConfig, CacheConfig, ChaosConfig, DotFrontendConfig,
    DriftInvalidator, EstimateCache, FrontendConfig, FrontendSnapshot, HotTracker, Rung,
    ShadowConfig, ShadowScorer,
};
use odt_traj::OdtInput;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a scenario requires of the frontend under its fault load.
struct Expectations {
    /// Minimum served / submitted ratio.
    min_answer_rate: f64,
    /// Whether load shedding (queue-full or deadline sheds) must occur.
    expect_sheds: bool,
    /// Whether at least one breaker trip must occur.
    expect_breaker_trips: bool,
    /// Whether at least one answer must come from a degraded rung.
    expect_downgrades: bool,
    /// Whether the full-fidelity rung must be serving again by the end
    /// (breaker closed and at least one full-fidelity answer).
    expect_full_rung_recovers: bool,
    /// Hard ceiling on `Internal` sheds (every-rung-failed).
    max_internal_sheds: u64,
}

impl Default for Expectations {
    fn default() -> Self {
        Expectations {
            min_answer_rate: 1.0,
            expect_sheds: false,
            expect_breaker_trips: false,
            expect_downgrades: false,
            expect_full_rung_recovers: false,
            max_internal_sheds: 0,
        }
    }
}

impl Expectations {
    /// One string per expectation the final snapshot violates.
    fn check(&self, s: &FrontendSnapshot) -> Vec<String> {
        let mut v = Vec::new();
        let rate = if s.submitted == 0 {
            1.0
        } else {
            s.served as f64 / s.submitted as f64
        };
        if rate < self.min_answer_rate {
            v.push(format!(
                "answer rate {rate:.3} below required {:.3} ({} / {} served)",
                self.min_answer_rate, s.served, s.submitted
            ));
        }
        let sheds = s.shed_queue_full + s.shed_deadline;
        if self.expect_sheds && sheds == 0 {
            v.push("expected load shedding, none occurred".to_string());
        }
        let trips: u64 = s.breaker_trips.iter().sum();
        if self.expect_breaker_trips && trips == 0 {
            v.push("expected breaker trips, none occurred".to_string());
        }
        let downgraded: u64 = s.rung_hits[Rung::Full.index() + 1..].iter().sum();
        if self.expect_downgrades && downgraded == 0 {
            v.push("expected degraded-rung answers, none occurred".to_string());
        }
        if self.expect_full_rung_recovers {
            let full = Rung::Full.index();
            if s.breaker_states[full] != "closed" {
                v.push(format!(
                    "full-fidelity breaker did not recover (state {})",
                    s.breaker_states[full]
                ));
            }
            if s.rung_hits[full] == 0 {
                v.push("full-fidelity rung never served after recovery".to_string());
            }
        }
        if s.shed_internal > self.max_internal_sheds {
            v.push(format!(
                "{} internal sheds exceed the ceiling of {}",
                s.shed_internal, self.max_internal_sheds
            ));
        }
        v
    }
}

/// One seeded fault-mix scenario: the load, the faults, what must hold.
struct Scenario {
    /// The fault mix active from the first wave.
    chaos: ChaosConfig,
    /// Queue and breaker tuning the scenario needs.
    frontend: FrontendConfig,
    /// Request waves to run.
    waves: usize,
    /// Requests per wave (halved, floor 8, under `--quick`).
    wave_size: usize,
    /// Per-request deadline budget (µs); `None` = frontend default.
    deadline_us: Option<u64>,
    /// Clear the fault mix after this wave index (recovery drills).
    clear_chaos_after_wave: Option<usize>,
    /// What the frontend must deliver under this load.
    expect: Expectations,
}

impl Scenario {
    /// Three waves of 16 with no faults, everything must be answered.
    fn quiet(seed: u64) -> Scenario {
        Scenario {
            chaos: ChaosConfig::quiet(seed),
            frontend: FrontendConfig::default(),
            waves: 3,
            wave_size: 16,
            deadline_us: None,
            clear_chaos_after_wave: None,
            expect: Expectations::default(),
        }
    }

    /// A [`Scenario::quiet`] frontend with these breakers.
    fn breakers(breaker: BreakerConfig) -> FrontendConfig {
        FrontendConfig {
            breaker,
            ..FrontendConfig::default()
        }
    }

    fn run(self, ctx: &DrillCtx) -> DrillOutcome {
        let wave_size = if ctx.quick {
            (self.wave_size / 2).max(8)
        } else {
            self.wave_size
        };
        let cool_us = self.frontend.breaker.max_backoff_us + 5_000;
        let mut fe = dot_frontend(
            &ctx.oracle.model,
            DotFrontendConfig::default(),
            self.frontend,
            ChaosConfig::quiet(self.chaos.seed),
        );
        let queries = &ctx.oracle.queries;

        // Seed the latency ladder from fault-free reality before the storm.
        fe.warmup(&queries[..2.min(queries.len())]);
        fe.executor_mut().set_config(self.chaos);

        for wave in 0..self.waves {
            let reqs = queries
                .iter()
                .cycle()
                .skip(wave * wave_size)
                .take(wave_size)
                .map(|q| (*q, self.deadline_us));
            let _ = fe.process_wave(reqs);
            if self.clear_chaos_after_wave == Some(wave) {
                fe.executor_mut()
                    .set_config(ChaosConfig::quiet(self.chaos.seed));
                // Let every breaker's cool-down elapse so recovery is possible.
                std::thread::sleep(Duration::from_micros(cool_us));
            }
        }
        let s = fe.snapshot();
        DrillOutcome {
            violations: self.expect.check(&s),
            ..DrillOutcome::of_frontend(s)
        }
    }
}

pub(super) fn baseline(ctx: &DrillCtx) -> DrillOutcome {
    Scenario::quiet(ctx.seed).run(ctx)
}

pub(super) fn nan_storm(ctx: &DrillCtx) -> DrillOutcome {
    Scenario {
        chaos: ChaosConfig {
            p_nan: 0.9,
            ..ChaosConfig::quiet(ctx.seed ^ 0x6e_61_6e)
        },
        // Backoff far beyond the drill duration: once a breaker opens it
        // stays open, so replays with the same seed attempt the same call
        // sequence regardless of machine speed (the CI replay-determinism
        // check relies on this).
        frontend: Scenario::breakers(BreakerConfig {
            base_backoff_us: 60_000_000,
            max_backoff_us: 60_000_000,
            ..BreakerConfig::default()
        }),
        expect: Expectations {
            expect_breaker_trips: true,
            expect_downgrades: true,
            ..Expectations::default()
        },
        ..Scenario::quiet(ctx.seed)
    }
    .run(ctx)
}

pub(super) fn latency_spike(ctx: &DrillCtx) -> DrillOutcome {
    Scenario {
        chaos: ChaosConfig {
            p_latency: 0.8,
            latency_us: 30_000,
            ..ChaosConfig::quiet(ctx.seed ^ 0x6c_61_74)
        },
        deadline_us: Some(20_000),
        expect: Expectations {
            // Early requests may be served late or expire in the queue
            // while the ladder is still learning the spike; once the live
            // p95s exceed the deadline, traffic routes to the fallback and
            // answer rate recovers.
            min_answer_rate: 0.3,
            expect_downgrades: true,
            ..Expectations::default()
        },
        ..Scenario::quiet(ctx.seed)
    }
    .run(ctx)
}

pub(super) fn panic_wave(ctx: &DrillCtx) -> DrillOutcome {
    Scenario {
        chaos: ChaosConfig {
            p_panic: 0.7,
            ..ChaosConfig::quiet(ctx.seed ^ 0x70_61_6e)
        },
        frontend: Scenario::breakers(BreakerConfig {
            failure_threshold: 2,
            base_backoff_us: 60_000_000,
            ..BreakerConfig::default()
        }),
        expect: Expectations {
            expect_breaker_trips: true,
            expect_downgrades: true,
            ..Expectations::default()
        },
        ..Scenario::quiet(ctx.seed)
    }
    .run(ctx)
}

pub(super) fn queue_flood(ctx: &DrillCtx) -> DrillOutcome {
    Scenario {
        frontend: FrontendConfig {
            queue_capacity: 16,
            ..FrontendConfig::default()
        },
        waves: 1,
        wave_size: 160,
        expect: Expectations {
            min_answer_rate: 0.05,
            expect_sheds: true,
            ..Expectations::default()
        },
        ..Scenario::quiet(ctx.seed)
    }
    .run(ctx)
}

pub(super) fn breaker_recovery(ctx: &DrillCtx) -> DrillOutcome {
    Scenario {
        chaos: ChaosConfig {
            p_nan: 1.0,
            ..ChaosConfig::quiet(ctx.seed ^ 0x72_65_63)
        },
        frontend: Scenario::breakers(BreakerConfig {
            failure_threshold: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 10_000,
            half_open_probes: 2,
        }),
        waves: 4,
        clear_chaos_after_wave: Some(0),
        expect: Expectations {
            expect_breaker_trips: true,
            expect_downgrades: true,
            expect_full_rung_recovers: true,
            ..Expectations::default()
        },
        ..Scenario::quiet(ctx.seed)
    }
    .run(ctx)
}

/// What the synthetic drift produced.
struct Drift {
    /// The tracker's last snapshot.
    quality: QualitySnapshot,
    /// Holdout pairs scored.
    scored: u64,
    /// Scoring steps taken.
    steps: usize,
}

/// Shadow-score the oracle against its holdout until the drift reference
/// freezes (at most 200 steps), then collapse every prediction to 40% of the
/// estimate, a systematic underprediction no healthy reference window
/// contains, until `done` says so of the snapshot after a step (at most 600
/// steps in all).
fn drift_until(
    ctx: &DrillCtx,
    rng_salt: u64,
    mut done: impl FnMut(&QualitySnapshot) -> bool,
) -> Drift {
    let oracle = &ctx.oracle;
    let mut scorer = ShadowScorer::new(oracle.holdout.clone(), ShadowConfig::for_drill());
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ rng_salt);
    let mut quality = scorer.quality(odt_obs::trace::now_us());
    let mut step = |scale: f64| {
        scorer.step(odt_obs::trace::now_us(), |qs: &[OdtInput]| {
            let estimates = oracle.model.estimate_batch(qs, &mut rng);
            estimates.into_iter().map(|e| e.seconds * scale).collect()
        });
        scorer.quality(odt_obs::trace::now_us())
    };
    let mut steps = 0;
    while !quality.reference_frozen && steps < 200 {
        quality = step(1.0);
        steps += 1;
    }
    while steps < 600 {
        quality = step(0.4);
        steps += 1;
        if done(&quality) {
            break;
        }
    }
    Drift {
        quality,
        scored: scorer.scored(),
        steps,
    }
}

/// The expectations both drift drills share.
fn drift_violations(d: &Drift) -> Vec<String> {
    let mut v = Vec::new();
    if !d.quality.reference_frozen {
        v.push("drift reference never froze".to_string());
    }
    if d.quality.drift_alerts < 1 {
        v.push(format!(
            "no drift alert (score {:.3} after {} steps)",
            d.quality.drift_score, d.steps
        ));
    }
    v
}

/// The model-quality drill: once the oracle drifts, the full alarm chain
/// must fire: the quantile-shift drift alert, the accuracy-SLO burn alert,
/// and a `quality_drift` flight-recorder dump.
pub(super) fn quality_drift(ctx: &DrillCtx) -> DrillOutcome {
    let dumps_before = odt_obs::flightrec::dump_count();
    let slo_alerts = |q: &QualitySnapshot| q.slo.map_or(0, |s| s.alerts);
    let d = drift_until(ctx, 0xD01F, |q| {
        q.drift_alerts >= 1 && slo_alerts(q) >= 1 && odt_obs::flightrec::dump_count() > dumps_before
    });
    let mut violations = drift_violations(&d);
    if slo_alerts(&d.quality) < 1 {
        violations.push("accuracy SLO burn alert never fired".to_string());
    }
    if odt_obs::flightrec::dump_count() == dumps_before {
        violations.push("drift alert produced no flight-recorder dump".to_string());
    }
    DrillOutcome {
        submitted: d.scored,
        served: d.scored,
        violations,
        quality: Some(d.quality),
        ..DrillOutcome::default()
    }
}

/// The cache-drift drill: serve repeat traffic through a *cached* frontend
/// until the estimate cache answers at generation 0, drift the oracle until
/// the [`DriftInvalidator`] sees the alert, and require the flush to be
/// total: the generation advances and the next wave of the same queries
/// contains zero cache-rung serves.
pub(super) fn cache_drift_invalidation(ctx: &DrillCtx) -> DrillOutcome {
    let cache = Arc::new(EstimateCache::new(CacheConfig {
        capacity: 512,
        ..CacheConfig::default()
    }));
    let mut fe = dot_frontend_cached(
        &ctx.oracle.model,
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(ctx.seed),
        Arc::clone(&cache),
        Arc::new(Mutex::new(HotTracker::new(64))),
    );
    let queries = &ctx.oracle.queries;
    let queries = &queries[..queries.len().min(if ctx.quick { 4 } else { 8 })];
    fe.warmup(&queries[..2.min(queries.len())]);
    let cache_serves = |s: &FrontendSnapshot| {
        s.rung_hits[Rung::Cached.index()] + s.rung_hits[Rung::CachedStale.index()]
    };
    let mut wave = || {
        let _ = fe.process_wave(queries.iter().map(|q| (*q, Some(250_000))));
        fe.snapshot()
    };

    // Fill on the first wave (write-through), hit on the second.
    wave();
    let warm_cache_serves = cache_serves(&wave());
    let generation_before = cache.generation();

    let mut invalidator = DriftInvalidator::new();
    let mut flushed = false;
    let d = drift_until(ctx, 0xCACE, |q| {
        flushed = invalidator.observe(q, &cache);
        flushed
    });

    // The same queries again. Every pre-drift entry is now a dead
    // generation, so not one may be served from the cache.
    let s = wave();
    let post_flush_cache_serves = cache_serves(&s) - warm_cache_serves;
    let stats = cache.stats();

    let mut violations = Vec::new();
    if warm_cache_serves == 0 {
        violations.push("repeat queries never hit the cache pre-drift".to_string());
    }
    violations.extend(drift_violations(&d));
    if !flushed {
        violations.push("drift alert never reached the invalidator".to_string());
    }
    if cache.generation() == generation_before {
        violations.push("cache generation did not advance on drift".to_string());
    }
    if stats.invalidations < 1 {
        violations.push("cache recorded no invalidation".to_string());
    }
    if post_flush_cache_serves > 0 {
        violations.push(format!(
            "{post_flush_cache_serves} pre-drift cache serve(s) after invalidation"
        ));
    }
    DrillOutcome {
        violations,
        quality: Some(d.quality),
        cache: Some(stats),
        flush: Some(Flush {
            generation_before,
            generation_after: cache.generation(),
            warm_cache_serves,
            post_flush_cache_serves,
        }),
        ..DrillOutcome::of_frontend(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_serve::MODEL_RUNGS;

    /// A short observation produces a violation: the expectations can fail.
    #[test]
    fn expectations_flag_violations() {
        let mut snap = FrontendSnapshot {
            submitted: 10,
            served: 10,
            rung_hits: [0, 10, 0, 0, 0, 0],
            breaker_states: ["closed"; MODEL_RUNGS],
            ..FrontendSnapshot::default()
        };
        assert!(Expectations::default().check(&snap).is_empty());
        let strict = Expectations {
            expect_breaker_trips: true,
            expect_downgrades: true,
            ..Expectations::default()
        };
        assert_eq!(strict.check(&snap).len(), 2);
        snap.served = 5;
        snap.shed_internal = 5;
        let v = Expectations::default().check(&snap);
        assert!(v.iter().any(|m| m.contains("answer rate")));
        assert!(v.iter().any(|m| m.contains("internal sheds")));
    }
}
