//! # odt-core
//!
//! The paper's primary contribution: **DOT**, the two-stage
//! Diffusion-based Origin-destination Travel time estimation framework
//! behind the ODT-Oracle of Eq. 1:
//!
//! ```text
//! odt ──f_θ──▶ (Δt, X)      — a travel time AND an explainable PiT
//! ```
//!
//! * [`DotConfig`] — the Table 2 hyper-parameters (`L_G`, `N`, `L_D`,
//!   `d_E`, `L_E`) plus training settings, with the paper's optima and a
//!   CPU-scale `fast` profile.
//! * [`Dot::train`] — the two-stage pipeline of §3.3/§5: stage 1 trains the
//!   conditioned PiT denoiser (Algorithm 2); its parameters are then frozen
//!   and stage 2 trains the travel-time estimator on PiTs, early-stopped on
//!   the MAE over PiTs *inferred* for the validation split, exactly as §6.3
//!   prescribes.
//! * [`Dot::estimate`] — Algorithm 1 (conditioned reverse diffusion) to
//!   infer the PiT, then the estimator for the travel time.
//! * [`AblationOptions`] — the Table 7 variants: *No-t* / *No-od* /
//!   *No-odt* conditioning masks, *No-CE* / *No-ST* embedding switches and
//!   the *Est-CNN* / *Est-ViT* estimator swaps.
//!
//! ## Robustness layer
//!
//! * Training runs behind a divergence watchdog (skip poisoned batches,
//!   roll back on repeated trips) and can crash-resume via
//!   [`Dot::train_resumable`] / [`TrainCheckpoint`].
//! * Checkpoints use a versioned CRC-framed format written atomically;
//!   [`Dot::load`] returns a typed [`PersistError`] on corruption, version
//!   or shape mismatch, and never constructs a model from non-finite
//!   parameters.
//! * Serving sanitizes malformed queries ([`sanitize_odt`]) and falls back
//!   to a haversine-speed prior when PiT inference degenerates; every
//!   defensive action is counted in [`RobustnessStats`], surfaced via
//!   [`Dot::robustness`].
//!
//! ## Observability layer
//!
//! Training and serving are instrumented through [`odt_obs`]: typed events
//! (`train.*`, `serve.*`) replace ad-hoc progress strings — the legacy
//! `progress: impl FnMut(&str)` callbacks still work, fed the `message()`
//! of each event — per-iteration and per-query latencies land in named
//! histograms (`train.stage1.iter`, `serve.query.full`,
//! `serve.query.fallback`), and robustness counters are published as
//! `robustness.*` gauges. See DESIGN.md §7 for the event taxonomy and
//! metric names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod guard;
mod oracle;
mod persist;
mod registry;
mod train;

pub use config::{AblationOptions, DotConfig, EstimatorKind, RobustnessOptions};
pub use guard::{
    fallback_estimate_seconds, haversine_m, pit_is_degenerate, point_excess_spans, sanitize_odt,
    sanitize_odt_strict, QueryRejectReason, RobustnessSnapshot, RobustnessStats, FALLBACK_CIRCUITY,
    FALLBACK_OVERHEAD_S, FALLBACK_SPEED_MPS, FAR_QUERY_SPANS, SATURATION_FRACTION,
};
pub use odt_diffusion::PitSampler;
pub use oracle::{pit_to_path_points, Dot, Estimate};
pub use persist::{PersistError, CHECKPOINT_VERSION};
pub use registry::{ModelRegistry, RegistryError, CURRENT_FILE, REGISTRY_EXT};
pub use train::{TrainCheckpoint, TrainHooks, TrainingReport};
