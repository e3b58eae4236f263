//! Deterministic fault injection for serving drills.
//!
//! [`ChaosExecutor`] wraps any [`RungExecutor`] and injects faults —
//! extra latency, NaN outputs, outright panics — drawn from a seedable
//! [`SplitMix64`] stream, so a drill with the same seed injects the same
//! fault sequence. The drills that run the frontend *under* a fault mix,
//! and what it must still deliver there, are `odt_eval::drill`'s.

use crate::frontend::{CacheProbe, RungExecutor};
use crate::ladder::Rung;
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
}
