//! # odt-diffusion
//!
//! Stage 1 of the DOT framework (paper §4): conditioned denoising diffusion
//! for PiT inference.
//!
//! * [`NoiseSchedule`] — the linear β schedule of DDPM (β from 1e-4 to 0.02,
//!   Eq. 2) with precomputed ᾱ products (Eq. 4).
//! * [`Ddpm`] — the two Markov processes: the closed-form forward noising
//!   `q(X_n | X_0)` and the learned reverse process of Eq. 10, plus the
//!   training objective of Eq. 11 (Algorithm 2) and the one sampling loop
//!   of Algorithm 1, run as stochastic DDPM or strided DDIM
//!   ([`PitSampler`]).
//! * [`ConditionedDenoiser`] — the OCConv UNet of §4.2: positional step
//!   encoding (Eq. 12), `FC_OD` (Eq. 13), condition fusion inside every
//!   OCConv module (Eq. 15), down/middle/up blocks with spatial attention
//!   and residual shortcuts (Eq. 16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddpm;
mod denoiser;
mod schedule;

pub use ddpm::{Ddpm, NoisePredictor, PitSampler, StepEval};
pub use denoiser::{ConditionedDenoiser, DenoiserConfig, Hoisted};
pub use schedule::NoiseSchedule;
