//! Deterministic fault injection for serving drills.
//!
//! [`ChaosExecutor`] wraps any [`RungExecutor`] and injects faults —
//! extra latency, NaN outputs, outright panics — drawn from a seedable
//! [`SplitMix64`] stream, so a drill with the same seed injects the same
//! fault sequence. The [`scenarios`] catalog defines the standing chaos
//! drills (run by the `chaos_drill` eval binary and the CI smoke job),
//! each with explicit [`Expectations`] the frontend must meet *under*
//! that fault load: the point of the drill is not that faults happen but
//! that every request still gets an answer or an honest shed.

use crate::breaker::BreakerConfig;
use crate::frontend::{CacheProbe, FrontendSnapshot, RungExecutor};
use crate::ladder::Rung;
use crate::queue::ShedPolicy;
use odt_obs::{event, Level};

/// The workspace-shared seedable PRNG driving the fault stream (one
/// implementation for chaos, tracing and the load generator — see
/// `odt_obs::rng`). Re-exported here so existing `odt_serve::SplitMix64`
/// users keep compiling.
pub use odt_obs::rng::SplitMix64;

/// One injected fault.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Fault {
    /// No fault: the wrapped executor runs untouched.
    None,
    /// Sleep this long before running the wrapped executor.
    ExtraLatencyUs(u64),
    /// Return `NaN` instead of running the wrapped executor.
    NanOutput,
    /// Panic instead of running the wrapped executor.
    Panic,
}

/// Fault mix for a chaos phase. Probabilities are evaluated in order
/// panic → NaN → latency per call, so they need not sum to 1.
#[derive(Copy, Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault stream.
    pub seed: u64,
    /// Probability of injecting extra latency.
    pub p_latency: f64,
    /// The extra latency injected, microseconds.
    pub latency_us: u64,
    /// Probability of poisoning the output with NaN.
    pub p_nan: f64,
    /// Probability of panicking.
    pub p_panic: f64,
    /// Inject only into model-backed rungs, never the terminal fallback
    /// (the default: the fallback is the safety net under test).
    pub model_rungs_only: bool,
}

impl ChaosConfig {
    /// No faults at all (the stream is still seeded, for phase changes).
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            p_latency: 0.0,
            latency_us: 0,
            p_nan: 0.0,
            p_panic: 0.0,
            model_rungs_only: true,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::quiet(0)
    }
}

/// Draws faults from the seeded stream according to a [`ChaosConfig`].
pub struct FaultInjector {
    cfg: ChaosConfig,
    rng: SplitMix64,
}

impl FaultInjector {
    /// An injector over `cfg`'s fault mix and seed.
    pub fn new(cfg: ChaosConfig) -> Self {
        FaultInjector {
            rng: SplitMix64::new(cfg.seed),
            cfg,
        }
    }

    /// Swap the fault mix mid-drill (reseeds the stream from the new
    /// config so phases replay independently).
    pub fn set_config(&mut self, cfg: ChaosConfig) {
        self.rng = SplitMix64::new(cfg.seed);
        self.cfg = cfg;
    }

    /// The fault (if any) to inject into the next call on `rung`.
    pub fn next_fault(&mut self, rung: Rung) -> Fault {
        if self.cfg.model_rungs_only && rung.is_terminal() {
            return Fault::None;
        }
        let draw = self.rng.next_f64();
        if draw < self.cfg.p_panic {
            Fault::Panic
        } else if draw < self.cfg.p_panic + self.cfg.p_nan {
            Fault::NanOutput
        } else if draw < self.cfg.p_panic + self.cfg.p_nan + self.cfg.p_latency {
            Fault::ExtraLatencyUs(self.cfg.latency_us)
        } else {
            Fault::None
        }
    }
}

/// A [`RungExecutor`] that injects faults around an inner executor.
pub struct ChaosExecutor<E: RungExecutor> {
    inner: E,
    injector: FaultInjector,
}

impl<E: RungExecutor> ChaosExecutor<E> {
    /// Wrap `inner` with the fault mix in `cfg`.
    pub fn new(inner: E, cfg: ChaosConfig) -> Self {
        ChaosExecutor {
            inner,
            injector: FaultInjector::new(cfg),
        }
    }

    /// Change the fault mix (e.g. between drill phases).
    pub fn set_config(&mut self, cfg: ChaosConfig) {
        self.injector.set_config(cfg);
    }

    /// The wrapped executor.
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }
}

impl<E: RungExecutor> RungExecutor for ChaosExecutor<E> {
    type Query = E::Query;

    fn admit(&mut self, query: &Self::Query) -> Result<(), String> {
        self.inner.admit(query)
    }

    fn supports(&self, rung: Rung) -> bool {
        self.inner.supports(rung)
    }

    fn probe(&mut self, query: &Self::Query) -> CacheProbe {
        self.inner.probe(query)
    }

    fn execute(&mut self, rung: Rung, query: &Self::Query) -> Result<f64, String> {
        let fault = self.injector.next_fault(rung);
        if fault != Fault::None {
            // Emitted inside the request's rung span, so the fault event
            // inherits the trace/span ids and the trace shows exactly
            // which injected fault a breach or breaker trip came from.
            let kind = match fault {
                Fault::ExtraLatencyUs(_) => "latency",
                Fault::NanOutput => "nan",
                Fault::Panic => "panic",
                Fault::None => unreachable!(),
            };
            let mut ev = event(Level::Warn, "chaos.fault")
                .field("rung", rung.name())
                .field("fault", kind);
            if let Fault::ExtraLatencyUs(us) = fault {
                ev = ev.field("extra_us", us);
            }
            ev.emit();
        }
        match fault {
            Fault::Panic => panic!("chaos: injected panic on {}", rung.name()),
            Fault::NanOutput => Ok(f64::NAN),
            Fault::ExtraLatencyUs(us) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                self.inner.execute(rung, query)
            }
            Fault::None => self.inner.execute(rung, query),
        }
    }
}

/// What a drill scenario requires of the frontend under fault load.
/// `check` returns the violated expectations (empty = pass).
#[derive(Copy, Clone, Debug)]
pub struct Expectations {
    /// Minimum served / submitted ratio.
    pub min_answer_rate: f64,
    /// Whether load shedding (queue-full or deadline sheds) must occur.
    pub expect_sheds: bool,
    /// Whether at least one breaker trip must occur.
    pub expect_breaker_trips: bool,
    /// Whether at least one answer must come from a degraded rung.
    pub expect_downgrades: bool,
    /// Whether the full-fidelity rung must be serving again by the end
    /// (breaker closed and at least one full-fidelity answer).
    pub expect_full_rung_recovers: bool,
    /// Hard ceiling on `Internal` sheds (every-rung-failed).
    pub max_internal_sheds: u64,
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
    /// Check a drill's final snapshot; returns human-readable violations.
    pub fn check(&self, s: &FrontendSnapshot) -> Vec<String> {
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

/// One standing chaos drill.
#[derive(Copy, Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (`--scenario` argument of `chaos_drill`).
    pub name: &'static str,
    /// One-line description for the report.
    pub description: &'static str,
    /// The fault mix active from the first wave.
    pub chaos: ChaosConfig,
    /// Request waves to run.
    pub waves: usize,
    /// Requests per wave.
    pub wave_size: usize,
    /// Per-request deadline budget (µs); `None` = frontend default.
    pub deadline_us: Option<u64>,
    /// Admission queue capacity for this drill.
    pub queue_capacity: usize,
    /// Shed policy for this drill.
    pub shed_policy: ShedPolicy,
    /// Clear the fault mix after this wave index (recovery drills).
    pub clear_chaos_after_wave: Option<usize>,
    /// Breaker override (`None` = crate default).
    pub breaker: Option<BreakerConfig>,
    /// What the frontend must deliver under this load.
    pub expect: Expectations,
}

impl ScenarioSpec {
    fn base(name: &'static str, description: &'static str, seed: u64) -> Self {
        ScenarioSpec {
            name,
            description,
            chaos: ChaosConfig::quiet(seed),
            waves: 3,
            wave_size: 16,
            deadline_us: None,
            queue_capacity: 256,
            shed_policy: ShedPolicy::RejectNewest,
            clear_chaos_after_wave: None,
            breaker: None,
            expect: Expectations::default(),
        }
    }
}

/// The standing drill catalog. `seed` perturbs every scenario's fault
/// stream, so drills can be replayed (same seed) or varied (new seed).
pub fn scenarios(seed: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::base(
            "baseline",
            "no faults: everything serves at full fidelity",
            seed,
        ),
        ScenarioSpec {
            chaos: ChaosConfig {
                p_nan: 0.9,
                ..ChaosConfig::quiet(seed ^ 0x6e_61_6e)
            },
            // Backoff far beyond the drill duration: once a breaker opens
            // it stays open, so replays with the same seed attempt the
            // same call sequence regardless of machine speed (the CI
            // replay-determinism check relies on this).
            breaker: Some(BreakerConfig {
                base_backoff_us: 60_000_000,
                max_backoff_us: 60_000_000,
                ..BreakerConfig::default()
            }),
            expect: Expectations {
                expect_breaker_trips: true,
                expect_downgrades: true,
                ..Expectations::default()
            },
            ..ScenarioSpec::base(
                "nan_storm",
                "90% of model-rung calls return NaN: breakers trip, fallback answers",
                seed,
            )
        },
        ScenarioSpec {
            chaos: ChaosConfig {
                p_latency: 0.8,
                latency_us: 30_000,
                ..ChaosConfig::quiet(seed ^ 0x6c_61_74)
            },
            deadline_us: Some(20_000),
            expect: Expectations {
                // Early requests may be served late or expire in the queue
                // while the ladder is still learning the spike; once the
                // live p95s exceed the deadline, traffic routes to the
                // fallback and answer rate recovers.
                min_answer_rate: 0.3,
                expect_downgrades: true,
                ..Expectations::default()
            },
            ..ScenarioSpec::base(
                "latency_spike",
                "30ms injected latency against a 20ms deadline: the ladder routes down",
                seed,
            )
        },
        ScenarioSpec {
            chaos: ChaosConfig {
                p_panic: 0.7,
                ..ChaosConfig::quiet(seed ^ 0x70_61_6e)
            },
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                base_backoff_us: 60_000_000,
                ..BreakerConfig::default()
            }),
            expect: Expectations {
                expect_breaker_trips: true,
                expect_downgrades: true,
                ..Expectations::default()
            },
            ..ScenarioSpec::base(
                "panic_wave",
                "70% of model-rung calls panic: panics are contained, requests still answer",
                seed,
            )
        },
        ScenarioSpec {
            waves: 1,
            wave_size: 160,
            queue_capacity: 16,
            expect: Expectations {
                min_answer_rate: 0.05,
                expect_sheds: true,
                ..Expectations::default()
            },
            ..ScenarioSpec::base(
                "queue_flood",
                "10x queue capacity in one wave: overflow is shed, admitted requests serve",
                seed,
            )
        },
        ScenarioSpec {
            chaos: ChaosConfig {
                p_nan: 1.0,
                ..ChaosConfig::quiet(seed ^ 0x72_65_63)
            },
            waves: 4,
            clear_chaos_after_wave: Some(0),
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                base_backoff_us: 1_000,
                max_backoff_us: 10_000,
                half_open_probes: 2,
            }),
            expect: Expectations {
                expect_breaker_trips: true,
                expect_downgrades: true,
                expect_full_rung_recovers: true,
                ..Expectations::default()
            },
            ..ScenarioSpec::base(
                "breaker_recovery",
                "total NaN outage then recovery: breakers close and full fidelity resumes",
                seed,
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_respects_probabilities_and_replays() {
        let cfg = ChaosConfig {
            p_panic: 0.2,
            p_nan: 0.3,
            ..ChaosConfig::quiet(42)
        };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let mut counts = [0usize; 3]; // panic, nan, none
        for _ in 0..2_000 {
            let f = a.next_fault(Rung::Full);
            assert_eq!(f, b.next_fault(Rung::Full), "same seed, same stream");
            match f {
                Fault::Panic => counts[0] += 1,
                Fault::NanOutput => counts[1] += 1,
                Fault::None => counts[2] += 1,
                Fault::ExtraLatencyUs(_) => panic!("p_latency is 0"),
            }
        }
        assert!((300..=500).contains(&counts[0]), "panic {}", counts[0]);
        assert!((480..=720).contains(&counts[1]), "nan {}", counts[1]);
    }

    #[test]
    fn fallback_is_exempt_when_model_rungs_only() {
        let mut inj = FaultInjector::new(ChaosConfig {
            p_panic: 1.0,
            model_rungs_only: true,
            ..ChaosConfig::quiet(1)
        });
        for _ in 0..50 {
            assert_eq!(inj.next_fault(Rung::Fallback), Fault::None);
            assert_eq!(inj.next_fault(Rung::Full), Fault::Panic);
        }
    }

    #[test]
    fn scenario_catalog_is_well_formed() {
        let cat = scenarios(7);
        assert!(cat.len() >= 5);
        let names: Vec<_> = cat.iter().map(|s| s.name).collect();
        for required in ["baseline", "nan_storm", "queue_flood", "breaker_recovery"] {
            assert!(names.contains(&required), "missing {required}");
        }
        for s in &cat {
            assert!(s.waves > 0 && s.wave_size > 0, "{}", s.name);
            assert!(s.expect.min_answer_rate >= 0.0, "{}", s.name);
        }
    }

    #[test]
    fn expectations_flag_violations() {
        let mut snap = FrontendSnapshot {
            submitted: 10,
            served: 10,
            rung_hits: [0, 10, 0, 0, 0, 0],
            breaker_states: ["closed"; crate::ladder::MODEL_RUNGS],
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
