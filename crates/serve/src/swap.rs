//! Zero-downtime hot model swap: a bounded-work state machine that
//! validates, shadow-scores and promotes a candidate checkpoint while
//! serving never pauses.
//!
//! The controller runs on the dispatcher thread, driven from the same
//! idle tick that steps the shadow scorer and the cache prewarmer —
//! each [`SwapController::tick`] does one bounded unit of work, so a
//! swap in progress steals microseconds, not the serving loop:
//!
//! ```text
//! Idle ──request──▶ Loading ──load ok──▶ Shadowing ──gate──▶ promote
//!   ▲                  │ load/validate fail          │ drift fail
//!   └──────────────────┴────────── reject ◀──────────┘
//! ```
//!
//! * **Loading** — one tick: the host reads and validates the candidate
//!   (CRC framing, schema, grid shape). Any failure is a typed
//!   [`SwapError`] and the swap is rejected without touching serving.
//! * **Shadowing** — one holdout batch per tick: the host scores the
//!   candidate *and* the serving model against the same frozen
//!   ground-truth slice. When [`SwapConfig::shadow_samples`] have been
//!   scored, the gate compares MAEs: the candidate must not be worse
//!   than `serving_mae * max_mae_ratio + mae_slack_s`.
//! * **Promote** — one tick: the host installs the candidate as the
//!   live model (for the DOT stack: leak, slot swap, cache
//!   invalidation, registry promotion) and reports the new version.
//!
//! The controller is generic over [`SwapHost`] so the state machine is
//! testable with a fake host — no trained model, no filesystem. The
//! production host is [`crate::dot::DotSwapHost`].

use std::sync::mpsc;

use odt_obs::{counter, event, Level};

/// Why a swap was refused. `code()` is the stable wire-facing name
/// reported by `POST /swap` and counted in varz.
#[derive(Clone, Debug)]
pub enum SwapError {
    /// A swap is already in flight; one at a time.
    Busy,
    /// The candidate could not be read at all (I/O, missing file).
    Load(String),
    /// The candidate failed integrity validation (bad magic, CRC
    /// mismatch, truncation, non-finite parameters).
    Corrupt(String),
    /// The candidate parses but its grid/parameter shape does not match
    /// what this process serves.
    ShapeMismatch(String),
    /// The candidate shadow-scored worse than the drift gate allows.
    DriftFailed {
        /// Candidate MAE over the shadow holdout, seconds.
        cand_mae_s: f64,
        /// Serving model MAE over the same holdout, seconds.
        serving_mae_s: f64,
    },
}

impl SwapError {
    /// Stable short name for wire responses and metrics.
    pub fn code(&self) -> &'static str {
        match self {
            SwapError::Busy => "busy",
            SwapError::Load(_) => "load_failed",
            SwapError::Corrupt(_) => "corrupt",
            SwapError::ShapeMismatch(_) => "shape_mismatch",
            SwapError::DriftFailed { .. } => "drift_failed",
        }
    }
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Busy => write!(f, "a swap is already in progress"),
            SwapError::Load(detail) => write!(f, "candidate load failed: {detail}"),
            SwapError::Corrupt(detail) => write!(f, "candidate corrupt: {detail}"),
            SwapError::ShapeMismatch(detail) => {
                write!(f, "candidate shape mismatch: {detail}")
            }
            SwapError::DriftFailed {
                cand_mae_s,
                serving_mae_s,
            } => write!(
                f,
                "candidate failed the shadow drift gate: \
                 candidate mae {cand_mae_s:.3}s vs serving mae {serving_mae_s:.3}s"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// How much shadow evidence a candidate must survive before promotion.
#[derive(Clone, Copy, Debug)]
pub struct SwapConfig {
    /// Holdout samples to score before the gate decides. `0` skips
    /// shadow scoring entirely (promote straight after validation).
    pub shadow_samples: usize,
    /// The candidate is rejected when its shadow MAE exceeds
    /// `serving_mae * max_mae_ratio + mae_slack_s`.
    pub max_mae_ratio: f64,
    /// Absolute slack (seconds) added to the gate — keeps tiny-MAE
    /// serving models from rejecting candidates over noise.
    pub mae_slack_s: f64,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            shadow_samples: 64,
            max_mae_ratio: 1.25,
            mae_slack_s: 1.0,
        }
    }
}

/// How a concluded swap ended.
#[derive(Clone, Debug)]
pub enum SwapOutcome {
    /// The candidate passed every gate and is now the serving model.
    Promoted {
        /// Registry version the candidate was promoted as.
        version: u64,
        /// Candidate shadow MAE (seconds; 0 when shadowing was skipped).
        cand_mae_s: f64,
        /// Serving-model shadow MAE over the same holdout.
        serving_mae_s: f64,
    },
    /// The candidate was refused; serving is untouched.
    Rejected(SwapError),
}

impl SwapOutcome {
    /// `true` for [`SwapOutcome::Promoted`].
    pub fn promoted(&self) -> bool {
        matches!(self, SwapOutcome::Promoted { .. })
    }
}

/// What the swap machinery needs from the model stack. One bounded call
/// per tick; the host owns holdout data, batch size and the mechanics
/// of installing a model.
pub trait SwapHost {
    /// A loaded-and-validated candidate awaiting promotion.
    type Model;

    /// Read and validate the candidate at `path`: integrity framing,
    /// schema, grid shape against the serving model. Must not disturb
    /// serving.
    fn load(&mut self, path: &str) -> Result<Self::Model, SwapError>;

    /// Score one holdout batch with both the candidate and the serving
    /// model. Returns `(candidate_abs_err_sum, serving_abs_err_sum,
    /// samples)` in seconds; `samples == 0` means the holdout is
    /// exhausted/empty and the controller stops asking.
    fn shadow_batch(&mut self, model: &mut Self::Model) -> (f64, f64, usize);

    /// Install the candidate as the live serving model and return its
    /// new version number. Every quality gate has already passed, but
    /// the install itself may still fail (registry I/O); on `Err` the
    /// serving model must be left untouched.
    fn promote(&mut self, model: Self::Model) -> Result<u64, SwapError>;
}

enum SwapState<M> {
    Idle,
    /// Request accepted; the candidate loads on the next tick.
    Loading {
        path: String,
    },
    Shadowing {
        model: M,
        cand_err_sum: f64,
        serving_err_sum: f64,
        scored: usize,
    },
}

impl<M> SwapState<M> {
    fn name(&self) -> &'static str {
        match self {
            SwapState::Idle => "idle",
            SwapState::Loading { .. } => "loading",
            SwapState::Shadowing { .. } => "shadowing",
        }
    }
}

/// Counters and state for varz / `POST /swap` reporting.
#[derive(Clone, Debug, Default)]
pub struct SwapStats {
    /// Current state name: `idle` / `loading` / `shadowing`.
    pub state: &'static str,
    /// Swap requests accepted (not counting `busy` refusals).
    pub requested: u64,
    /// Candidates promoted to serving.
    pub promoted: u64,
    /// Candidates rejected by any gate.
    pub rejected: u64,
    /// Error code of the most recent rejection, if any.
    pub last_reject_code: Option<&'static str>,
    /// Version of the most recent promotion, if any.
    pub last_promoted_version: Option<u64>,
}

odt_obs::fields_to_json! {
    SwapStats: state, requested, promoted, rejected, last_reject_code, last_promoted_version
}

/// The swap state machine. Owns the host; driven by `tick()` from the
/// dispatcher's idle loop. At most one swap is in flight at a time.
pub struct SwapController<H: SwapHost> {
    host: H,
    cfg: SwapConfig,
    state: SwapState<H::Model>,
    reply: Option<mpsc::Sender<SwapOutcome>>,
    requested: u64,
    promoted: u64,
    rejected: u64,
    last_reject_code: Option<&'static str>,
    last_promoted_version: Option<u64>,
}

impl<H: SwapHost> SwapController<H> {
    /// A controller over `host` with the given gate configuration.
    pub fn new(host: H, cfg: SwapConfig) -> Self {
        SwapController {
            host,
            cfg,
            state: SwapState::Idle,
            reply: None,
            requested: 0,
            promoted: 0,
            rejected: 0,
            last_reject_code: None,
            last_promoted_version: None,
        }
    }

    /// The wrapped host.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Mutable access to the wrapped host.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// Accept a swap request for the checkpoint at `path`. The outcome
    /// is delivered on `reply` (if provided) once the machine concludes,
    /// ticks later. Refuses with [`SwapError::Busy`] when a swap is
    /// already in flight — the in-flight swap is unaffected.
    pub fn request(
        &mut self,
        path: &str,
        reply: Option<mpsc::Sender<SwapOutcome>>,
    ) -> Result<(), SwapError> {
        if !matches!(self.state, SwapState::Idle) {
            counter("swap.busy_refused").inc();
            return Err(SwapError::Busy);
        }
        self.requested += 1;
        counter("swap.requested").inc();
        event(Level::Info, "swap.requested")
            .field("path", path)
            .emit();
        self.state = SwapState::Loading {
            path: path.to_string(),
        };
        self.reply = reply;
        Ok(())
    }

    /// `true` while a swap is in flight (loading or shadowing).
    pub fn busy(&self) -> bool {
        !matches!(self.state, SwapState::Idle)
    }

    /// Counters and current state.
    pub fn stats(&self) -> SwapStats {
        SwapStats {
            state: self.state.name(),
            requested: self.requested,
            promoted: self.promoted,
            rejected: self.rejected,
            last_reject_code: self.last_reject_code,
            last_promoted_version: self.last_promoted_version,
        }
    }

    /// One bounded unit of swap work. Returns the outcome on the tick
    /// that concludes a swap, `None` otherwise (including when idle).
    pub fn tick(&mut self) -> Option<SwapOutcome> {
        match std::mem::replace(&mut self.state, SwapState::Idle) {
            SwapState::Idle => None,
            SwapState::Loading { path } => match self.host.load(&path) {
                Ok(model) => {
                    if self.cfg.shadow_samples == 0 {
                        return Some(self.conclude_promote(model, 0.0, 0.0));
                    }
                    self.state = SwapState::Shadowing {
                        model,
                        cand_err_sum: 0.0,
                        serving_err_sum: 0.0,
                        scored: 0,
                    };
                    None
                }
                Err(e) => Some(self.conclude_reject(e)),
            },
            SwapState::Shadowing {
                mut model,
                mut cand_err_sum,
                mut serving_err_sum,
                mut scored,
            } => {
                let (c, s, n) = self.host.shadow_batch(&mut model);
                cand_err_sum += c;
                serving_err_sum += s;
                scored += n;
                if n > 0 && scored < self.cfg.shadow_samples {
                    self.state = SwapState::Shadowing {
                        model,
                        cand_err_sum,
                        serving_err_sum,
                        scored,
                    };
                    return None;
                }
                // Enough evidence (or the holdout ran dry): gate.
                let (cand_mae, serving_mae) = if scored > 0 {
                    (
                        cand_err_sum / scored as f64,
                        serving_err_sum / scored as f64,
                    )
                } else {
                    (0.0, 0.0)
                };
                let ceiling = serving_mae * self.cfg.max_mae_ratio + self.cfg.mae_slack_s;
                if scored > 0 && (!cand_mae.is_finite() || cand_mae > ceiling) {
                    return Some(self.conclude_reject(SwapError::DriftFailed {
                        cand_mae_s: cand_mae,
                        serving_mae_s: serving_mae,
                    }));
                }
                Some(self.conclude_promote(model, cand_mae, serving_mae))
            }
        }
    }

    fn conclude_promote(
        &mut self,
        model: H::Model,
        cand_mae: f64,
        serving_mae: f64,
    ) -> SwapOutcome {
        let version = match self.host.promote(model) {
            Ok(v) => v,
            Err(e) => return self.conclude_reject(e),
        };
        self.promoted += 1;
        self.last_promoted_version = Some(version);
        counter("swap.promoted").inc();
        event(Level::Info, "swap.promoted")
            .field("version", version)
            .field("cand_mae_s", cand_mae)
            .field("serving_mae_s", serving_mae)
            .emit();
        let outcome = SwapOutcome::Promoted {
            version,
            cand_mae_s: cand_mae,
            serving_mae_s: serving_mae,
        };
        self.finish(&outcome);
        outcome
    }

    fn conclude_reject(&mut self, error: SwapError) -> SwapOutcome {
        self.rejected += 1;
        self.last_reject_code = Some(error.code());
        counter("swap.rejected").inc();
        event(Level::Warn, "swap.rejected")
            .field("code", error.code())
            .field("detail", error.to_string())
            .emit();
        let outcome = SwapOutcome::Rejected(error);
        self.finish(&outcome);
        outcome
    }

    fn finish(&mut self, outcome: &SwapOutcome) {
        self.state = SwapState::Idle;
        if let Some(reply) = self.reply.take() {
            // The requester may have timed out and dropped the receiver;
            // that must not poison the serving loop.
            reply.send(outcome.clone()).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted host: candidate "models" are just labels, behaviour is
    /// keyed on the requested path.
    struct FakeHost {
        /// Per-batch candidate MAE (seconds) the shadow phase reports.
        cand_mae: f64,
        /// Per-batch serving MAE.
        serving_mae: f64,
        batch: usize,
        next_version: u64,
        promoted_paths: Vec<String>,
        shadow_calls: usize,
    }

    impl FakeHost {
        fn new(cand_mae: f64, serving_mae: f64) -> Self {
            FakeHost {
                cand_mae,
                serving_mae,
                batch: 8,
                next_version: 1,
                promoted_paths: Vec::new(),
                shadow_calls: 0,
            }
        }
    }

    impl SwapHost for FakeHost {
        type Model = String;

        fn load(&mut self, path: &str) -> Result<String, SwapError> {
            match path {
                p if p.contains("corrupt") => Err(SwapError::Corrupt("crc32 mismatch".into())),
                p if p.contains("wrong_shape") => {
                    Err(SwapError::ShapeMismatch("lg 8 != serving lg 16".into()))
                }
                p if p.contains("missing") => Err(SwapError::Load("no such file".into())),
                p => Ok(p.to_string()),
            }
        }

        fn shadow_batch(&mut self, _model: &mut String) -> (f64, f64, usize) {
            self.shadow_calls += 1;
            let n = self.batch;
            (self.cand_mae * n as f64, self.serving_mae * n as f64, n)
        }

        fn promote(&mut self, model: String) -> Result<u64, SwapError> {
            self.promoted_paths.push(model);
            let v = self.next_version;
            self.next_version += 1;
            Ok(v)
        }
    }

    fn drive_to_conclusion<H: SwapHost>(c: &mut SwapController<H>) -> SwapOutcome {
        for _ in 0..1000 {
            if let Some(outcome) = c.tick() {
                return outcome;
            }
        }
        panic!("swap did not conclude within 1000 ticks");
    }

    #[test]
    fn good_candidate_is_shadow_scored_then_promoted() {
        let cfg = SwapConfig {
            shadow_samples: 32,
            ..SwapConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let mut c = SwapController::new(FakeHost::new(10.0, 11.0), cfg);
        c.request("/tmp/v2.dotckpt", Some(tx)).unwrap();
        assert!(c.busy());
        assert_eq!(c.stats().state, "loading");
        let outcome = drive_to_conclusion(&mut c);
        match &outcome {
            SwapOutcome::Promoted {
                version,
                cand_mae_s,
                serving_mae_s,
            } => {
                assert_eq!(*version, 1);
                assert!((cand_mae_s - 10.0).abs() < 1e-9);
                assert!((serving_mae_s - 11.0).abs() < 1e-9);
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        // 32 samples at batch 8 = exactly 4 shadow ticks.
        assert_eq!(c.host().shadow_calls, 4);
        assert_eq!(c.host().promoted_paths, vec!["/tmp/v2.dotckpt"]);
        assert!(!c.busy());
        assert!(matches!(rx.try_recv(), Ok(SwapOutcome::Promoted { .. })));
        let stats = c.stats();
        assert_eq!((stats.promoted, stats.rejected), (1, 0));
        assert_eq!(stats.last_promoted_version, Some(1));
    }

    #[test]
    fn corrupt_and_misshapen_candidates_are_rejected_with_typed_codes() {
        for (path, want) in [
            ("/tmp/corrupt.dotckpt", "corrupt"),
            ("/tmp/wrong_shape.dotckpt", "shape_mismatch"),
            ("/tmp/missing.dotckpt", "load_failed"),
        ] {
            let mut c = SwapController::new(FakeHost::new(1.0, 1.0), SwapConfig::default());
            c.request(path, None).unwrap();
            let outcome = drive_to_conclusion(&mut c);
            match &outcome {
                SwapOutcome::Rejected(e) => assert_eq!(e.code(), want, "{path}"),
                other => panic!("expected rejection for {path}, got {other:?}"),
            }
            assert!(
                c.host().promoted_paths.is_empty(),
                "{path} must not promote"
            );
            assert_eq!(c.stats().last_reject_code, Some(want));
            assert!(!c.busy(), "machine must return to idle after {path}");
        }
    }

    #[test]
    fn drift_failing_candidate_is_rejected_and_serving_untouched() {
        // Serving MAE 10s; gate ceiling = 10*1.25 + 1 = 13.5s; candidate 40s.
        let mut c = SwapController::new(FakeHost::new(40.0, 10.0), SwapConfig::default());
        c.request("/tmp/bad_model.dotckpt", None).unwrap();
        let outcome = drive_to_conclusion(&mut c);
        match &outcome {
            SwapOutcome::Rejected(SwapError::DriftFailed {
                cand_mae_s,
                serving_mae_s,
            }) => {
                assert!((cand_mae_s - 40.0).abs() < 1e-9);
                assert!((serving_mae_s - 10.0).abs() < 1e-9);
            }
            other => panic!("expected drift rejection, got {other:?}"),
        }
        assert!(!outcome.promoted());
        assert!(c.host().promoted_paths.is_empty());
        assert_eq!(c.stats().last_reject_code, Some("drift_failed"));
    }

    #[test]
    fn slightly_worse_candidate_passes_within_ratio_and_slack() {
        // 12s vs serving 10s is within 10*1.25+1 = 13.5s.
        let mut c = SwapController::new(FakeHost::new(12.0, 10.0), SwapConfig::default());
        c.request("/tmp/v3.dotckpt", None).unwrap();
        assert!(drive_to_conclusion(&mut c).promoted());
    }

    #[test]
    fn concurrent_swap_is_refused_busy_without_disturbing_the_first() {
        let (tx, rx) = mpsc::channel();
        let mut c = SwapController::new(FakeHost::new(1.0, 1.0), SwapConfig::default());
        c.request("/tmp/first.dotckpt", Some(tx)).unwrap();
        let err = c.request("/tmp/second.dotckpt", None).unwrap_err();
        assert_eq!(err.code(), "busy");
        let outcome = drive_to_conclusion(&mut c);
        assert!(outcome.promoted());
        assert_eq!(c.host().promoted_paths, vec!["/tmp/first.dotckpt"]);
        assert!(matches!(rx.try_recv(), Ok(SwapOutcome::Promoted { .. })));
        // The machine is idle again: a new request is accepted now.
        c.request("/tmp/second.dotckpt", None).unwrap();
    }

    #[test]
    fn zero_shadow_samples_promotes_straight_after_validation() {
        let cfg = SwapConfig {
            shadow_samples: 0,
            ..SwapConfig::default()
        };
        let mut c = SwapController::new(FakeHost::new(999.0, 1.0), cfg);
        c.request("/tmp/v9.dotckpt", None).unwrap();
        assert!(drive_to_conclusion(&mut c).promoted());
        assert_eq!(c.host().shadow_calls, 0, "shadowing skipped entirely");
    }

    #[test]
    fn empty_holdout_promotes_without_a_gate() {
        struct NoHoldout(FakeHost);
        impl SwapHost for NoHoldout {
            type Model = String;
            fn load(&mut self, path: &str) -> Result<String, SwapError> {
                self.0.load(path)
            }
            fn shadow_batch(&mut self, _m: &mut String) -> (f64, f64, usize) {
                (0.0, 0.0, 0)
            }
            fn promote(&mut self, m: String) -> Result<u64, SwapError> {
                self.0.promote(m)
            }
        }
        let mut c = SwapController::new(NoHoldout(FakeHost::new(1.0, 1.0)), SwapConfig::default());
        c.request("/tmp/v1.dotckpt", None).unwrap();
        assert!(drive_to_conclusion(&mut c).promoted());
    }

    #[test]
    fn dropped_reply_receiver_does_not_poison_the_machine() {
        let (tx, rx) = mpsc::channel();
        drop(rx);
        let mut c = SwapController::new(FakeHost::new(1.0, 1.0), SwapConfig::default());
        c.request("/tmp/v1.dotckpt", Some(tx)).unwrap();
        assert!(drive_to_conclusion(&mut c).promoted());
        assert!(!c.busy());
    }
}
