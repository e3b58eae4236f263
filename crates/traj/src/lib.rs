//! # odt-traj
//!
//! The trajectory data substrate of the DOT ODT-Oracle reproduction:
//!
//! * [`GpsPoint`], [`Trajectory`], [`OdtInput`] — the paper's Definitions
//!   1 and 3.
//! * [`GridSpec`] and [`Pit`] — Pixelated Trajectories per Definition 2,
//!   with the three channels Mask / Time-of-day / Time-offset.
//! * [`preprocess`] — the paper's §6.1 cleaning rules (drop trips shorter
//!   than 500 m or 5 min, longer than 1 h, or sampled sparser than 80 s).
//! * [`sim::CitySim`] — the synthetic-city generator standing in for the
//!   proprietary Didi Chengdu / Harbin datasets (see DESIGN.md §1): lattice
//!   road network, rush-hour congestion, hotspot OD demand, logit route
//!   choice and deliberate outlier detours.
//! * [`Dataset`] — departure-time-ordered 8:1:1 splits and the Table 1
//!   statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod grid;
mod pit;
pub mod preprocess;
pub mod sim;
mod types;

pub use dataset::{Dataset, DatasetStats, Split};
pub use grid::GridSpec;
pub use odt_roadnet::LngLat;
pub use pit::{Pit, CHANNELS, CH_OFFSET};
pub use types::{GpsPoint, OdtInput, Trajectory};
