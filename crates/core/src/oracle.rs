//! The trained DOT oracle: PiT inference (Algorithm 1) + travel-time
//! estimation, implementing Eq. 1's `odt → (Δt, X)`.

use crate::config::DotConfig;
use crate::guard::{self, RobustnessSnapshot, RobustnessStats};
use crate::train::TrainingReport;
use odt_diffusion::{ConditionedDenoiser, Ddpm, PitSampler};
use odt_estimator::PitEstimator;
use odt_obs::{event, Level};
use odt_roadnet::{Point, Projection};
use odt_tensor::{Graph, Tensor};
use odt_traj::{GridSpec, OdtInput, Pit, CHANNELS, CH_OFFSET};
use rand::Rng;
use std::time::{Duration, Instant};

/// Record one served query into the per-path latency histograms:
/// `serve.query.fallback` when the answer came from the degraded-mode
/// haversine prior, `serve.query.full` when the full DDPM → estimator
/// pipeline produced it. `serve.queries` counts both. Batched serving
/// records the amortized per-query share of the batch's wall clock.
fn record_query_latency(elapsed: Duration, fallback: bool) {
    let hist = if fallback {
        odt_obs::histogram("serve.query.fallback")
    } else {
        odt_obs::histogram("serve.query.full")
    };
    hist.record(elapsed);
    odt_obs::counter("serve.queries").inc();
}

/// The output of the oracle: a travel time and the inferred PiT that
/// explains it (§6.6's explainability analysis).
pub struct Estimate {
    /// Predicted travel time, seconds.
    pub seconds: f64,
    /// The inferred Pixelated Trajectory.
    pub pit: Pit,
}

/// A trained DOT model.
pub struct Dot {
    pub(crate) cfg: DotConfig,
    pub(crate) grid: GridSpec,
    pub(crate) denoiser: ConditionedDenoiser,
    pub(crate) ddpm: Ddpm,
    pub(crate) estimator: Box<dyn PitEstimator>,
    pub(crate) tt_mean: f64,
    pub(crate) tt_std: f64,
    pub(crate) report: TrainingReport,
    pub(crate) stats: RobustnessStats,
}

impl Dot {
    /// The configuration the model was trained with.
    pub fn config(&self) -> &DotConfig {
        &self.cfg
    }

    /// The PiT grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Training diagnostics (stage timings, parameter counts).
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Current robustness counters: every defensive action the model has
    /// taken across training (watchdog trips, rollbacks) and serving
    /// (clamped queries, degenerate PiTs, fallback estimates).
    pub fn robustness(&self) -> RobustnessSnapshot {
        self.stats.snapshot()
    }

    /// Masked conditioning features for an ODT-Input.
    pub(crate) fn cond_features(&self, odt: &OdtInput) -> [f32; 5] {
        self.cfg
            .mask_features(odt.features(self.grid.min, self.grid.max))
    }

    /// Raw noise prediction `ε_θ(x_n, n, cond)` — exposed for diagnostics
    /// and the per-step error analyses in the evaluation harness.
    pub fn noise_pred(
        &self,
        g: &Graph,
        x_noisy: Tensor,
        n: usize,
        cond: &Tensor,
    ) -> odt_tensor::Var {
        use odt_diffusion::NoisePredictor;
        let b = x_noisy.shape()[0];
        let xv = g.input(x_noisy);
        self.denoiser.predict(g, xv, &vec![n; b], cond)
    }

    /// Expected number of visited cells for a query: along-track length
    /// (crow-fly × a circuity factor) over the cell size, plus endpoints.
    /// Used as the plausibility prior for candidate selection.
    fn expected_cells(&self, odt: &OdtInput) -> f64 {
        const M_PER_DEG: f64 = 111_320.0;
        let mean_lat = (self.grid.min.lat + self.grid.max.lat) / 2.0;
        let dx = (odt.dest.lng - odt.origin.lng) * M_PER_DEG * mean_lat.to_radians().cos();
        let dy = (odt.dest.lat - odt.origin.lat) * M_PER_DEG;
        let crow = (dx * dx + dy * dy).sqrt();
        let cell_m = (self.grid.max.lat - self.grid.min.lat) * M_PER_DEG / self.grid.lg as f64;
        1.3 * crow / cell_m.max(1.0) + 2.0
    }

    /// Infer PiTs for a batch of queries via conditioned reverse diffusion
    /// (Algorithm 1). Batching shares every denoiser forward pass.
    ///
    /// When `infer_candidates > 1`, several reverse chains are sampled per
    /// query and the PiT whose visited-cell count best matches the
    /// occupancy prior is kept — the paper's "infer the most plausible PiT"
    /// made explicit, guarding against the occasional saturated chain at
    /// reduced step counts (DESIGN.md §5).
    pub fn infer_pits(&self, odts: &[OdtInput], rng: &mut impl Rng) -> Vec<Pit> {
        self.infer_pits_clean(&self.sanitize_all(odts), PitSampler::Ddpm, rng)
    }

    /// Accelerated PiT inference via deterministic DDIM sampling over
    /// `sample_steps` strided schedule steps (clamped into `1..=N`) — an
    /// extension beyond the paper that trades a little PiT fidelity for a
    /// large latency cut (`diffusion.sample_ddim8_ms` in the repository benchmark).
    pub fn infer_pits_fast(
        &self,
        odts: &[OdtInput],
        sample_steps: usize,
        rng: &mut impl Rng,
    ) -> Vec<Pit> {
        let sampler = PitSampler::Ddim(sample_steps);
        self.infer_pits_clean(&self.sanitize_all(odts), sampler, rng)
    }

    /// The one PiT-inference body, for queries already passed through
    /// [`Dot::sanitize_all`] (so every entry point sanitizes exactly once):
    /// run the batch through `sampler` and split the sampled
    /// `[B, 3, L, L]` slab into per-query sanitized PiTs. Candidate
    /// selection applies to [`PitSampler::Ddpm`] only — DDIM is
    /// deterministic given its starting noise, and its rungs exist to be
    /// cheap.
    fn infer_pits_clean(
        &self,
        odts: &[OdtInput],
        sampler: PitSampler,
        rng: &mut impl Rng,
    ) -> Vec<Pit> {
        if odts.is_empty() {
            return Vec::new();
        }
        let _span = odt_obs::span("oracle.infer_pits");
        let (sampler, rounds) = match sampler {
            PitSampler::Ddpm => (sampler, self.cfg.infer_candidates.max(1)),
            PitSampler::Ddim(k) => (PitSampler::Ddim(k.clamp(1, self.cfg.n_steps)), 1),
        };
        let cond = self.cond_tensor(odts);
        let lg = self.cfg.lg;
        let per = CHANNELS * lg * lg;
        let mut sample_pits = || -> Vec<Pit> {
            // PiT channels live in [-1, 1]: clamp the implied clean image
            // each reverse step (stabilizes reduced-step CPU schedules).
            let clamp = Some((-1.0, 1.0));
            let out = self
                .ddpm
                .sample(&self.denoiser, &cond, CHANNELS, lg, sampler, clamp, rng);
            // One direct copy of each sample's slab (no intermediate slice
            // + reshape tensors per query).
            out.data()
                .chunks_exact(per)
                .map(|slab| {
                    Pit::from_tensor(Tensor::from_vec(slab.to_vec(), vec![CHANNELS, lg, lg]))
                        .sanitized()
                })
                .collect()
        };
        let mut best = sample_pits();
        if rounds > 1 {
            // Plausibility: relative deviation of the visited-cell count
            // from the occupancy prior; empty PiTs are heavily penalized.
            // The earliest round wins ties.
            let score = |pit: &Pit, odt: &OdtInput| {
                let expected = self.expected_cells(odt);
                let count = pit.num_visited() as f64;
                let mut score = (count - expected).abs() / expected.max(1.0);
                if count < 2.0 {
                    score += 10.0;
                }
                score
            };
            let mut best_score: Vec<f64> =
                best.iter().zip(odts).map(|(p, o)| score(p, o)).collect();
            for _round in 1..rounds {
                for (i, pit) in sample_pits().into_iter().enumerate() {
                    let s = score(&pit, &odts[i]);
                    if s < best_score[i] {
                        best_score[i] = s;
                        best[i] = pit;
                    }
                }
            }
        }
        best
    }

    /// Stack the masked conditioning features of a batch into a `[B, 5]`
    /// tensor.
    fn cond_tensor(&self, odts: &[OdtInput]) -> Tensor {
        let mut cond = Tensor::zeros(vec![odts.len(), 5]);
        for (i, odt) in odts.iter().enumerate() {
            for (j, &v) in self.cond_features(odt).iter().enumerate() {
                cond.set(&[i, j], v);
            }
        }
        cond
    }

    /// Infer the PiT for one query.
    pub fn infer_pit(&self, odt: &OdtInput, rng: &mut impl Rng) -> Pit {
        self.infer_pits(std::slice::from_ref(odt), rng)
            .pop()
            .expect("one query in, one PiT out")
    }

    /// Estimate the travel time of an already-available PiT (used by the
    /// Table 7 `Routing+Est.` ablations and by stage-2 training).
    pub fn estimate_from_pit(&self, pit: &Pit) -> f64 {
        let g = Graph::new();
        let pred = self.estimator.predict(&g, pit);
        let v = g.value(pred).data()[0] as f64;
        (v * self.tt_std + self.tt_mean).max(0.0)
    }

    /// Estimate the travel times of a batch of PiTs through one fused
    /// estimator forward pass ([`PitEstimator::predict_batch`]).
    pub fn estimate_from_pits(&self, pits: &[Pit]) -> Vec<f64> {
        if pits.is_empty() {
            return Vec::new();
        }
        let g = Graph::new();
        let pred = self.estimator.predict_batch(&g, pits);
        g.value(pred)
            .data()
            .iter()
            .map(|&v| (v as f64 * self.tt_std + self.tt_mean).max(0.0))
            .collect()
    }

    /// Sanitize a query (clamping policy of [`crate::sanitize_odt`]),
    /// counting it if it needed repair.
    fn sanitize(&self, odt: &OdtInput) -> OdtInput {
        let (clean, changed) = guard::sanitize_odt(odt, &self.grid);
        if changed {
            self.stats.record_query_clamped();
        }
        clean
    }

    /// [`Dot::sanitize`] over a batch.
    fn sanitize_all(&self, odts: &[OdtInput]) -> Vec<OdtInput> {
        odts.iter().map(|odt| self.sanitize(odt)).collect()
    }

    /// Estimate with the serving guardrails: if the PiT is degenerate
    /// (empty/saturated reverse chain) or the estimator's output is
    /// non-finite, serve the haversine-speed prior instead (when
    /// `robustness.degraded_mode_fallback` is on) and count the fallback.
    ///
    /// Each call records into the per-path latency histograms
    /// (`serve.query.full` / `serve.query.fallback`); fallback decisions
    /// additionally emit `serve.fallback` events.
    pub fn estimate_from_pit_guarded(&self, odt: &OdtInput, pit: Pit) -> Estimate {
        let t0 = Instant::now();
        let (seconds, fallback) = self.guarded_one(odt, &pit);
        record_query_latency(t0.elapsed(), fallback);
        Estimate { seconds, pit }
    }

    /// The guardrail decision, once, for one query or a batch: per query,
    /// the seconds to serve and whether the degraded-mode prior produced
    /// them (the latency-histogram split key of [`record_query_latency`]).
    /// Degenerate PiTs are counted and, with fallback on, answered by the
    /// prior without reaching the estimator; `estimate` is then called once
    /// with the indices of the PiTs that do, and any non-finite second it
    /// returns is replaced by the prior as well.
    fn guarded(
        &self,
        odts: &[OdtInput],
        pits: &[Pit],
        estimate: impl FnOnce(&[usize]) -> Vec<f64>,
    ) -> Vec<(f64, bool)> {
        let fallback_on = self.cfg.robustness.degraded_mode_fallback;
        let fall_back = |i: usize, reason: &'static str| {
            self.stats.record_fallback();
            event(Level::Warn, "serve.fallback")
                .field("reason", reason)
                .emit();
            (guard::fallback_estimate_seconds(&odts[i]), true)
        };
        let mut out = vec![(0.0, false); pits.len()];
        let mut live: Vec<usize> = Vec::with_capacity(pits.len());
        for (i, pit) in pits.iter().enumerate() {
            let degenerate = guard::pit_is_degenerate(pit);
            if degenerate {
                self.stats.record_degenerate_pit();
                event(Level::Warn, "serve.degenerate_pit")
                    .field("visited", pit.num_visited())
                    .emit();
            }
            if fallback_on && degenerate {
                out[i] = fall_back(i, "degenerate_pit");
            } else {
                live.push(i);
            }
        }
        if !live.is_empty() {
            for (&i, seconds) in live.iter().zip(estimate(&live)) {
                out[i] = if fallback_on && !seconds.is_finite() {
                    fall_back(i, "non_finite_estimate")
                } else {
                    (seconds, false)
                };
            }
        }
        out
    }

    /// [`Dot::guarded`] for one query, estimated through the single-PiT
    /// estimator pass (not `predict_batch` of one, whose bits differ).
    fn guarded_one(&self, odt: &OdtInput, pit: &Pit) -> (f64, bool) {
        use std::slice::from_ref;
        let estimate = |_: &[usize]| vec![self.estimate_from_pit(pit)];
        self.guarded(from_ref(odt), from_ref(pit), estimate)[0]
    }

    /// The full ODT-Oracle (Eq. 1): sanitize the query, infer the PiT,
    /// then estimate the travel time from it — behind the degraded-mode
    /// guardrails of [`Dot::estimate_from_pit_guarded`]. The recorded
    /// query latency covers the whole pipeline, PiT inference included.
    pub fn estimate(&self, odt: &OdtInput, rng: &mut impl Rng) -> Estimate {
        self.estimate_sampled(odt, PitSampler::Ddpm, rng)
    }

    /// Rung-parameterized serving entry point: [`Dot::estimate`] with the
    /// PiT inferred by the given [`PitSampler`]. Sanitization, degraded-mode
    /// guardrails and latency accounting match [`Dot::estimate`]; the
    /// serving frontend (`odt-serve`) maps its degradation-ladder rungs
    /// onto this.
    pub fn estimate_sampled(
        &self,
        odt: &OdtInput,
        sampler: PitSampler,
        rng: &mut impl Rng,
    ) -> Estimate {
        let t0 = Instant::now();
        let clean = self.sanitize(odt);
        let pit = self
            .infer_pits_clean(std::slice::from_ref(&clean), sampler, rng)
            .pop()
            .expect("one query in, one PiT out");
        // Estimator stage as its own child span (only when a request trace
        // is active): lets `trace_report` split a request's critical path
        // into PiT inference vs MLM estimation.
        let _est_span = odt_obs::span_if_traced("oracle.estimator");
        let (seconds, fallback) = self.guarded_one(&clean, &pit);
        record_query_latency(t0.elapsed(), fallback);
        Estimate { seconds, pit }
    }

    /// The model-free terminal rung of the serving ladder: answer straight
    /// from the haversine-speed prior ([`guard::fallback_estimate_seconds`])
    /// without touching the diffusion model. Always finite for any query;
    /// counted as a fallback in [`RobustnessStats`] and recorded on the
    /// `serve.query.fallback` latency path. The returned PiT is empty (there
    /// is no inferred trajectory to explain a prior-based answer).
    pub fn estimate_prior(&self, odt: &OdtInput) -> Estimate {
        let t0 = Instant::now();
        let clean = self.sanitize(odt);
        self.stats.record_fallback();
        event(Level::Info, "serve.fallback")
            .field("reason", "prior_rung")
            .emit();
        let seconds = guard::fallback_estimate_seconds(&clean);
        let lg = self.cfg.lg;
        let pit = Pit::from_tensor(Tensor::full(vec![CHANNELS, lg, lg], -1.0));
        record_query_latency(t0.elapsed(), true);
        Estimate { seconds, pit }
    }

    /// Strict admission-time sanitization for the serving frontend:
    /// [`guard::sanitize_odt_strict`] with robustness accounting. Far
    /// out-of-region queries return the typed [`QueryRejectReason`] (and
    /// bump the `queries_rejected` counter) instead of being clamped onto
    /// the boundary; everything else is repaired and counted exactly like
    /// [`Dot::estimate`]'s lenient path.
    pub fn sanitize_strict(&self, odt: &OdtInput) -> Result<OdtInput, guard::QueryRejectReason> {
        match guard::sanitize_odt_strict(odt, &self.grid) {
            Ok((clean, changed)) => {
                if changed {
                    self.stats.record_query_clamped();
                }
                Ok(clean)
            }
            Err(reason) => {
                self.stats.record_query_rejected();
                event(Level::Warn, "serve.query_rejected")
                    .field("reason", reason.kind())
                    .field("spans", reason.spans())
                    .emit();
                Err(reason)
            }
        }
    }

    /// Batched ODT-Oracle serving: sanitize every query once, infer all
    /// PiTs through **one** shared reverse-diffusion chain (every denoiser
    /// forward pass covers the whole batch), then estimate the surviving
    /// queries through **one** fused estimator pass. Per-query guardrails
    /// match [`Dot::estimate`]: degenerate PiTs and non-finite estimates
    /// fall back to the haversine prior when degraded mode is enabled.
    ///
    /// The batch wall clock is amortized into the per-path latency
    /// histograms (one `serve.queries` tick per query), so serving metrics
    /// stay comparable between the sequential and batched paths.
    pub fn estimate_batch(&self, odts: &[OdtInput], rng: &mut impl Rng) -> Vec<Estimate> {
        if odts.is_empty() {
            return Vec::new();
        }
        let _span = odt_obs::span("oracle.estimate_batch");
        let t0 = Instant::now();
        let clean = self.sanitize_all(odts);
        let pits = self.infer_pits_clean(&clean, PitSampler::Ddpm, rng);
        let served = self.guarded(&clean, &pits, |live| {
            let live_pits: Vec<Pit> = live.iter().map(|&i| pits[i].clone()).collect();
            self.estimate_from_pits(&live_pits)
        });
        let per_query = t0.elapsed() / odts.len() as u32;
        for &(_, fallback) in &served {
            record_query_latency(per_query, fallback);
        }
        pits.into_iter()
            .zip(served)
            .map(|(pit, (seconds, _))| Estimate { seconds, pit })
            .collect()
    }

    /// Total number of trainable scalars per stage, `(stage1, stage2)`.
    pub fn param_counts(&self) -> (usize, usize) {
        (self.report.stage1_params, self.report.stage2_params)
    }

    /// Model size in bytes (both stages; Table 5).
    pub fn model_size_bytes(&self) -> usize {
        (self.report.stage1_params + self.report.stage2_params) * 4
    }
}

/// Convert an (inferred) PiT into an ordered polyline of cell centers by
/// sorting visited cells on the time-offset channel — how the Table 7
/// `Infer.+WDDRA` / `Infer.+STDGCN` variants feed path-based estimators,
/// and how Figure 10/11 renders inferred routes.
pub fn pit_to_path_points(pit: &Pit, grid: &GridSpec, proj: &Projection) -> Vec<Point> {
    let mut visited: Vec<(f32, usize, usize)> = Vec::new();
    for row in 0..pit.lg() {
        for col in 0..pit.lg() {
            if pit.is_visited(row, col) {
                visited.push((pit.at(CH_OFFSET, row, col), row, col));
            }
        }
    }
    visited.sort_by(|a, b| a.0.total_cmp(&b.0));
    visited
        .into_iter()
        .map(|(_, row, col)| proj.to_point(grid.cell_center(row, col)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_roadnet::LngLat;

    #[test]
    fn pit_path_orders_by_offset() {
        let grid = GridSpec::new(
            LngLat { lng: 0.0, lat: 0.0 },
            LngLat { lng: 1.0, lat: 1.0 },
            4,
        );
        let proj = Projection::new(LngLat { lng: 0.5, lat: 0.5 });
        let mut t = Tensor::full(vec![3, 4, 4], -1.0);
        // Visit (3,3) first (offset -1), then (0,0) (offset +1).
        for (row, col, offset) in [(3usize, 3usize, -1.0f32), (0, 0, 1.0)] {
            t.set(&[0, row, col], 1.0);
            t.set(&[2, row, col], offset);
        }
        let pit = Pit::from_tensor(t);
        let pts = pit_to_path_points(&pit, &grid, &proj);
        assert_eq!(pts.len(), 2);
        // First point must be the (3,3) cell — the north-east one.
        assert!(pts[0].y > pts[1].y);
    }
}
