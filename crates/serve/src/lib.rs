//! # odt-serve
//!
//! The resilient serving frontend for the DOT oracle: what stands between
//! map-service traffic and [`odt_core::Dot`] when the oracle is deployed.
//!
//! The paper's serving story ends at `estimate()`; this crate adds the
//! production envelope around it:
//!
//! * **Admission control** — a bounded [`AdmissionQueue`] that refuses
//!   the incoming request when full, so overload degrades into counted
//!   sheds instead of unbounded latency. Strict query sanitization
//!   refuses far-out-of-region queries with a typed reason.
//! * **Deadline-aware degradation** — each request carries a deadline
//!   budget; the [`LatencyLadder`] picks the highest-fidelity rung (full
//!   DDPM → DDIM → reduced-step DDIM → haversine prior) whose live p95
//!   fits the remaining budget. Selection is monotone in the deadline
//!   (property-tested): a stricter deadline never gets a slower rung.
//! * **Circuit breakers** — each model-backed rung sits behind a
//!   [`CircuitBreaker`] (closed → open → half-open, exponential backoff)
//!   that trips on panics, NaN outputs, and latency-budget violations;
//!   the ladder routes around open breakers.
//! * **Fault injection** — [`ChaosExecutor`] injects seeded, replayable
//!   faults (latency, NaN, panics) around any executor; the standing
//!   drills that use it are rows of `odt_eval::drill::DRILLS`.
//! * **Shadow quality scoring** — [`ShadowScorer`] replays a ground-truth
//!   holdout through the live model on idle ticks, feeding
//!   `odt_obs::QualityTracker`'s accuracy/drift windows so the admin
//!   plane exports live model-quality metrics.
//! * **Hot-path estimate cache** — [`EstimateCache`] is a sharded,
//!   bounded, TinyLFU-admitted cache keyed on `(o_cell, d_cell,
//!   time-of-day bucket)` with per-bucket TTLs, a slightly-stale grace
//!   tier, and generation-stamped invalidation wired to the drift alert
//!   via [`DriftInvalidator`]. It surfaces as two probe-gated ladder
//!   rungs (fresh hits before the model, stale hits above the prior) and
//!   is prewarmed by [`Prewarmer`] on dispatcher idle ticks. See
//!   DESIGN.md §13.
//! * **Zero-downtime hot model swap** — [`SwapController`] is a
//!   bounded-work state machine (validate → shadow-score → promote)
//!   over a [`SwapHost`]; the production host [`DotSwapHost`] gates
//!   candidates on CRC framing, grid shape and a shadow MAE drift gate,
//!   then installs them into the hot-swappable [`ModelSlot`] the
//!   executor reads per request — serving never pauses. See
//!   DESIGN.md §14.
//!
//! Everything runs on caller-visible microsecond clocks and seeded PRNGs,
//! so the whole stack — queue, breaker, ladder, chaos — is deterministic
//! under test. See DESIGN.md §9 for the full serving-resilience design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod dot;
pub mod frontend;
pub mod ladder;
pub mod queue;
pub mod shadow;
pub mod swap;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{
    CacheConfig, CacheLookup, CacheStats, DriftInvalidator, EstimateCache, HotTracker, OdKey,
    PrewarmConfig, Prewarmer,
};
pub use chaos::{ChaosConfig, ChaosExecutor, Fault, FaultInjector, SplitMix64};
pub use dot::{
    dot_frontend, dot_frontend_cached, DotExecutor, DotFrontendConfig, DotSwapHost,
    DotSwapHostConfig, LoadedCandidate, ModelSlot, ModelSource,
};
pub use frontend::{
    CacheProbe, FrontendConfig, FrontendSnapshot, Request, Response, RungExecutor, ServeFrontend,
    ShedReason,
};
pub use ladder::{select_from_costs, LadderConfig, LatencyLadder, Rung, MODEL_RUNGS, NUM_RUNGS};
pub use queue::AdmissionQueue;
pub use shadow::{ShadowConfig, ShadowScorer};
pub use swap::{SwapConfig, SwapController, SwapError, SwapHost, SwapOutcome, SwapStats};

// The `Fallback` rung's prior and the query it takes, for a caller that has
// no model to ask: the cluster router answers for a dark shard with it.
pub use odt_core::fallback_estimate_seconds;
pub use odt_traj::{LngLat, OdtInput};
