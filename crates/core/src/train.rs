//! The two-stage DOT training pipeline (paper §3.3, §4.1.3, §5.2, §6.3),
//! hardened with a divergence watchdog and crash-resumable checkpoints.
//!
//! ## Fault tolerance
//!
//! Both stages run behind a [`Watchdog`]: a batch whose loss is non-finite
//! or spikes far above the running average is *discarded* (no optimizer
//! step), and after `watchdog_patience` consecutive trips the parameters
//! roll back to the last good snapshot and the optimizer state resets —
//! so one poisoned batch (or an unlucky step into a NaN region) cannot
//! silently destroy a multi-hour run. Every defensive action is counted in
//! [`crate::RobustnessStats`].
//!
//! Batch sampling draws from a per-iteration RNG derived from
//! `(seed, stage, iteration)`, which makes the training stream a pure
//! function of the config — the property [`Dot::train_resumable`] relies on
//! to continue an interrupted run from its last [`TrainCheckpoint`].

use crate::config::{DotConfig, EstimatorKind};
use crate::guard::{RobustnessSnapshot, RobustnessStats};
use crate::oracle::Dot;
use crate::persist::{read_versioned, write_versioned, PersistError};
use odt_diffusion::{ConditionedDenoiser, Ddpm, DenoiserConfig, NoiseSchedule};
use odt_estimator::MVitConfig as EstimatorMVitConfig;
use odt_estimator::{CnnEstimator, EmbedderConfig, MVit, PitEstimator, VanillaVit};
use odt_nn::serialize::StateDict;
use odt_nn::{check_state_dict, load_state_dict, state_dict, try_load_state_dict, Adam, HasParams};
use odt_obs::{event, Level};
use odt_tensor::{Graph, Param, Tensor, Var};
use odt_traj::{Dataset, GridSpec, OdtInput, Pit, Split, Trajectory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Emit a typed event AND forward its human-readable message to the legacy
/// `progress` callback — the backwards-compat shim of the observability
/// layer: the callback behaves like one more [`odt_obs::Sink`] fed from the
/// same event stream, so pre-telemetry callers keep seeing the strings they
/// always did.
fn notify(progress: &mut dyn FnMut(&str), builder: odt_obs::EventBuilder) {
    let ev = builder.build();
    progress(&ev.message());
    odt_obs::emit(ev);
}

/// Every way checkpoint recovery can go sideways. All "checkpoint write
/// failed / config mismatch / unusable" branches funnel through
/// [`emit_ckpt_issue`] so the wording, event names and fields stay in one
/// place instead of four hand-formatted strings.
enum CkptIssue<'a> {
    /// A periodic in-training checkpoint failed to persist.
    WriteFailed {
        /// Training stage (1 or 2) whose snapshot was being written.
        stage: u8,
        /// Iteration at which the write was attempted.
        iter: usize,
        /// The underlying persistence error.
        err: &'a PersistError,
    },
    /// An existing checkpoint belongs to a different config.
    ConfigMismatch,
    /// An existing checkpoint failed integrity or parse checks.
    Unusable(&'a PersistError),
}

/// The single funnel for checkpoint-recovery messaging (typed event +
/// legacy progress string).
fn emit_ckpt_issue(progress: &mut dyn FnMut(&str), issue: CkptIssue<'_>) {
    let builder = match issue {
        CkptIssue::WriteFailed { stage, iter, err } => {
            event(Level::Error, "train.ckpt.write_failed")
                .field("stage", stage)
                .field("iter", iter)
                .msg(format!("train checkpoint write failed: {err}"))
        }
        CkptIssue::ConfigMismatch => event(Level::Warn, "train.ckpt.config_mismatch")
            .msg("training checkpoint config mismatch; starting fresh"),
        CkptIssue::Unusable(e) => event(Level::Warn, "train.ckpt.unusable").msg(format!(
            "training checkpoint unusable ({e}); starting fresh"
        )),
    };
    notify(progress, builder);
}

/// Diagnostics collected while training.
#[derive(Clone, Debug, Default)]
pub struct TrainingReport {
    /// Wall-clock seconds spent in stage 1 (PiT inference model).
    pub stage1_seconds: f64,
    /// Wall-clock seconds spent in stage 2 (travel-time estimator).
    pub stage2_seconds: f64,
    /// Trainable scalars in the denoiser.
    pub stage1_params: usize,
    /// Trainable scalars in the estimator.
    pub stage2_params: usize,
    /// Final stage-1 training loss.
    pub stage1_final_loss: f32,
    /// Best validation MAE (seconds) observed during stage-2 early stopping.
    pub best_val_mae: f64,
    /// Robustness counters as of the end of training (watchdog trips,
    /// skipped batches, rollbacks).
    pub robustness: RobustnessSnapshot,
}

/// Fault-injection instrumentation for the training loop. Production code
/// uses [`TrainHooks::default`] (no-ops); tests tamper with the loss the
/// watchdog observes to exercise the divergence-recovery path without
/// having to construct a genuinely diverging model.
#[derive(Default)]
pub struct TrainHooks {
    /// Maps `(iteration, loss)` to the loss value the stage-1 watchdog
    /// sees. Returning NaN/inf simulates a diverged batch.
    pub stage1_loss_tamper: Option<Box<dyn FnMut(usize, f32) -> f32>>,
    /// Same, for stage 2.
    pub stage2_loss_tamper: Option<Box<dyn FnMut(usize, f32) -> f32>>,
}

/// What the watchdog decided about one observed loss.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Verdict {
    /// Healthy loss: apply the update.
    Healthy,
    /// Suspicious loss: discard the batch.
    Skip,
    /// Repeated trips: discard and roll parameters back.
    Rollback,
}

/// Divergence watchdog: trips on non-finite losses always, and on losses
/// exceeding `spike_factor ×` a warmup-gated EMA of recent healthy losses.
struct Watchdog {
    spike_factor: f32,
    patience: usize,
    ema: f32,
    observed: usize,
    consecutive_trips: usize,
}

/// Healthy observations before spike detection arms (early losses swing
/// wildly while the model finds scale).
const WATCHDOG_WARMUP: usize = 8;

impl Watchdog {
    fn new(spike_factor: f32, patience: usize) -> Self {
        Watchdog {
            spike_factor: spike_factor.max(1.0),
            patience: patience.max(1),
            ema: 0.0,
            observed: 0,
            consecutive_trips: 0,
        }
    }

    fn observe(&mut self, loss: f32) -> Verdict {
        let armed = self.observed >= WATCHDOG_WARMUP;
        let spiking = armed && loss > self.spike_factor * self.ema.max(1e-6);
        if loss.is_finite() && !spiking {
            self.consecutive_trips = 0;
            self.ema = if self.observed == 0 {
                loss
            } else {
                0.9 * self.ema + 0.1 * loss
            };
            self.observed += 1;
            return Verdict::Healthy;
        }
        self.consecutive_trips += 1;
        if self.consecutive_trips >= self.patience {
            self.consecutive_trips = 0;
            Verdict::Rollback
        } else {
            Verdict::Skip
        }
    }
}

/// One stage's optimizer behind the divergence watchdog: everything the
/// two stages do alike once a batch's loss is known. A healthy loss is
/// back-propagated and stepped, and every `snapshot_every` healthy steps
/// the parameters become the new rollback point (and, in a resumable run,
/// a [`TrainCheckpoint`] on disk); a suspicious one is discarded, and
/// after `watchdog_patience` of those in a row the parameters return to
/// the rollback point and Adam restarts from it.
struct GuardedOptimizer<'a> {
    stage: u8,
    cfg: &'a DotConfig,
    params: Vec<Param>,
    opt: Adam,
    watchdog: Watchdog,
    last_good: StateDict,
    healthy_streak: usize,
    stats: &'a RobustnessStats,
    ckpt_path: Option<&'a Path>,
}

impl<'a> GuardedOptimizer<'a> {
    fn new(
        stage: u8,
        params: Vec<Param>,
        cfg: &'a DotConfig,
        stats: &'a RobustnessStats,
        ckpt_path: Option<&'a Path>,
    ) -> Self {
        GuardedOptimizer {
            stage,
            opt: Adam::new(params.clone(), cfg.lr).with_clip(2.0),
            watchdog: Watchdog::new(
                cfg.robustness.watchdog_spike_factor,
                cfg.robustness.watchdog_patience,
            ),
            last_good: state_dict(&params),
            params,
            cfg,
            healthy_streak: 0,
            stats,
            ckpt_path,
        }
    }

    /// Act on iteration `it`'s loss (`loss_val`, as the watchdog is to see
    /// it, of graph node `loss`). Returns whether the update was applied.
    /// `checkpoint` builds the stage's [`TrainCheckpoint`] around the new
    /// rollback point; it runs only when one is due and there is a path.
    fn step(
        &mut self,
        it: usize,
        g: &Graph,
        loss: Var,
        loss_val: f32,
        progress: &mut dyn FnMut(&str),
        checkpoint: impl FnOnce(&StateDict) -> TrainCheckpoint,
    ) -> bool {
        let stage = self.stage;
        let verdict = self.watchdog.observe(loss_val);
        if verdict != Verdict::Healthy {
            self.stats.record_watchdog_trip();
            self.stats.record_batch_skipped();
        }
        match verdict {
            Verdict::Healthy => {
                g.backward(loss);
                self.opt.step();
                self.healthy_streak += 1;
                if self.healthy_streak >= self.cfg.robustness.snapshot_every.max(1) {
                    self.healthy_streak = 0;
                    self.last_good = state_dict(&self.params);
                    if let Some(path) = self.ckpt_path {
                        match checkpoint(&self.last_good).save(path) {
                            Ok(()) => event(Level::Debug, "train.ckpt.saved")
                                .field("stage", stage)
                                .field("iter", it + 1)
                                .emit(),
                            Err(e) => emit_ckpt_issue(
                                progress,
                                CkptIssue::WriteFailed {
                                    stage,
                                    iter: it,
                                    err: &e,
                                },
                            ),
                        }
                    }
                }
            }
            Verdict::Skip => notify(
                progress,
                event(Level::Warn, "train.watchdog.trip")
                    .field("stage", stage)
                    .field("iter", it)
                    .field("loss", loss_val)
                    .msg(format!(
                        "stage {stage} iter {it}: watchdog tripped (loss {loss_val}), batch skipped"
                    )),
            ),
            Verdict::Rollback => {
                self.stats.record_rollback();
                load_state_dict(&self.params, &self.last_good);
                self.opt = Adam::new(self.params.clone(), self.cfg.lr).with_clip(2.0);
                notify(
                    progress,
                    event(Level::Warn, "train.watchdog.rollback")
                        .field("stage", stage)
                        .field("iter", it)
                        .msg(format!(
                            "stage {stage} iter {it}: watchdog rollback to last good snapshot"
                        )),
                );
            }
        }
        verdict == Verdict::Healthy
    }
}

/// Derive the RNG for one training iteration from `(seed, stage salt,
/// iteration)` — the key to deterministic resume: iteration `k` draws the
/// same batch and noise whether or not the process restarted at `k-1`.
fn iter_rng(seed: u64, salt: u64, it: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ salt
            ^ (it as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17),
    )
}

const STAGE1_SALT: u64 = 0x51A6_E001;
const STAGE2_SALT: u64 = 0x51A6_E002;
/// Salt of the stage-2 validation-PiT inference RNG.
const VAL_SALT: u64 = 0x51A6_E003;

/// Magic tag of in-training checkpoints.
pub(crate) const TRAIN_MAGIC: &str = "DOTTRN";

/// A crash-recovery snapshot of an in-flight training run, written
/// periodically by [`Dot::train_resumable`] (atomic write, CRC-framed like
/// model checkpoints; [`crate::persist`] spells the payload).
pub struct TrainCheckpoint {
    /// Which stage was training: 1 or 2.
    pub stage: u8,
    /// Next iteration to execute within that stage.
    pub next_iter: usize,
    /// The config of the interrupted run (must match on resume).
    pub cfg: DotConfig,
    /// Grid of the interrupted run.
    pub grid: GridSpec,
    /// Target normalization mean.
    pub tt_mean: f64,
    /// Target normalization std.
    pub tt_std: f64,
    /// Stage-1 parameters at the snapshot.
    pub stage1: StateDict,
    /// Stage-2 parameters at the snapshot (present once stage 2 started).
    pub stage2: Option<StateDict>,
    /// Best early-stopping state so far (stage 2 only).
    pub best_state: Option<StateDict>,
    /// Best validation MAE so far (stage 2 only).
    pub best_val_mae: f64,
    /// Stage-1 wall-clock seconds accumulated before the snapshot.
    pub stage1_seconds: f64,
    /// Stage-2 wall-clock seconds accumulated before the snapshot.
    pub stage2_seconds: f64,
    /// Final (or latest) stage-1 loss.
    pub stage1_final_loss: f32,
    /// Robustness counters at the snapshot.
    pub robustness: RobustnessSnapshot,
}

impl TrainCheckpoint {
    /// Load an in-training checkpoint, verifying integrity.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        read_versioned(path, TRAIN_MAGIC)
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        write_versioned(path, TRAIN_MAGIC, self)
    }
}

/// Stack per-sample `[3, L, L]` PiT tensors into a `[B, 3, L, L]` batch.
fn stack_pits(pits: &[&Tensor]) -> Tensor {
    let shape = pits[0].shape().to_vec();
    let per: usize = shape.iter().product();
    let mut data = Vec::with_capacity(per * pits.len());
    for p in pits {
        assert_eq!(p.shape(), &shape[..], "inconsistent PiT shapes");
        data.extend_from_slice(p.data());
    }
    let mut out_shape = vec![pits.len()];
    out_shape.extend(shape);
    Tensor::from_vec(data, out_shape)
}

impl Dot {
    /// Train the full two-stage pipeline on a dataset. `progress` receives
    /// occasional human-readable status lines.
    ///
    /// <div class="warning">
    ///
    /// **Soft-deprecated:** the `progress` callback predates the structured
    /// observability layer and is kept only for backwards compatibility. It
    /// now behaves as a sink over the typed event stream: every line it
    /// receives is the `message()` of an [`odt_obs::Event`] that is also
    /// emitted globally. New code should pass `|_| {}` and subscribe via
    /// [`odt_obs::add_sink`] / read [`odt_obs::recent_events`] instead — the
    /// events carry machine-readable fields (iteration, loss, stage) the
    /// flat strings do not.
    ///
    /// </div>
    pub fn train(cfg: DotConfig, data: &Dataset, progress: impl FnMut(&str)) -> Dot {
        Self::train_impl(cfg, data, progress, TrainHooks::default(), None, None)
    }

    /// [`Dot::train`] with fault-injection hooks — instrumentation for
    /// robustness tests (inject a NaN loss, assert the watchdog recovers).
    pub fn train_with_hooks(
        cfg: DotConfig,
        data: &Dataset,
        progress: impl FnMut(&str),
        hooks: TrainHooks,
    ) -> Dot {
        Self::train_impl(cfg, data, progress, hooks, None, None)
    }

    /// Crash-resumable training: periodically writes a [`TrainCheckpoint`]
    /// to `ckpt_path` (every `robustness.snapshot_every` healthy
    /// iterations, atomically), and when `ckpt_path` already holds a valid
    /// checkpoint for the same config, continues from it instead of
    /// starting over. The file is removed on successful completion.
    ///
    /// An unreadable or mismatched checkpoint is reported through
    /// `progress` and training restarts from scratch — crash recovery must
    /// not itself be a crash source. Optimizer moments are not part of the
    /// snapshot, so a resumed run matches an uninterrupted one in data
    /// stream but re-warms Adam from the snapshot parameters.
    pub fn train_resumable(
        cfg: DotConfig,
        data: &Dataset,
        ckpt_path: &Path,
        mut progress: impl FnMut(&str),
    ) -> Dot {
        let resume = if ckpt_path.exists() {
            match TrainCheckpoint::load(ckpt_path) {
                Ok(tc) => {
                    if tc.cfg == cfg {
                        notify(
                            &mut progress,
                            event(Level::Info, "train.resume")
                                .field("stage", tc.stage)
                                .field("iter", tc.next_iter)
                                .msg(format!(
                                    "resuming training from {} (stage {}, iter {})",
                                    ckpt_path.display(),
                                    tc.stage,
                                    tc.next_iter
                                )),
                        );
                        Some(tc)
                    } else {
                        emit_ckpt_issue(&mut progress, CkptIssue::ConfigMismatch);
                        None
                    }
                }
                Err(e) => {
                    emit_ckpt_issue(&mut progress, CkptIssue::Unusable(&e));
                    None
                }
            }
        } else {
            None
        };
        let model = Self::train_impl(
            cfg,
            data,
            &mut progress,
            TrainHooks::default(),
            Some(ckpt_path),
            resume,
        );
        std::fs::remove_file(ckpt_path).ok();
        model
    }

    fn train_impl(
        cfg: DotConfig,
        data: &Dataset,
        mut progress: impl FnMut(&str),
        mut hooks: TrainHooks,
        ckpt_path: Option<&Path>,
        resume: Option<TrainCheckpoint>,
    ) -> Dot {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = data.grid;
        assert_eq!(grid.lg, cfg.lg, "dataset grid must match config L_G");

        let train = data.split(Split::Train);

        // Target normalization from the training split.
        let tt_mean =
            train.iter().map(Trajectory::travel_time).sum::<f64>() / train.len().max(1) as f64;
        let tt_var = train
            .iter()
            .map(|t| (t.travel_time() - tt_mean).powi(2))
            .sum::<f64>()
            / train.len().max(1) as f64;
        let tt_std = tt_var.sqrt().max(1.0);

        // ------------------------------------------------------------------
        // Stage 1: conditioned PiT denoiser (Algorithm 2).
        // ------------------------------------------------------------------
        let denoiser_cfg = DenoiserConfig {
            channels: 3,
            lg: cfg.lg,
            base_channels: cfg.base_channels,
            depth: cfg.l_d,
            cond_dim: cfg.cond_dim,
            attn_max_tokens: cfg.attn_max_tokens,
        };
        let denoiser = ConditionedDenoiser::new(&mut rng, denoiser_cfg);
        let ddpm = Ddpm::new(NoiseSchedule::linear_scaled(cfg.n_steps));

        let mut model = Dot {
            grid,
            denoiser,
            ddpm,
            estimator: build_estimator(&cfg, &mut rng),
            tt_mean,
            tt_std,
            report: TrainingReport::default(),
            stats: Default::default(),
            cfg,
        };
        let cfg = model.cfg.clone();

        // Restore an interrupted run's parameters, all or none: a set that does
        // not fit this architecture or is not finite is reported, and the run
        // starts fresh. Then its counters.
        let resume = resume.filter(|tc| {
            let s2 = model.estimator.estimator_params();
            let mut stage2_sets = tc.stage2.iter().chain(&tc.best_state);
            let restored = stage2_sets
                .try_for_each(|set| check_state_dict(&s2, set))
                .and_then(|()| try_load_state_dict(&model.denoiser.params(), &tc.stage1));
            match &restored {
                Ok(()) => tc.stage2.iter().for_each(|set| load_state_dict(&s2, set)),
                Err(e) => emit_ckpt_issue(&mut progress, CkptIssue::Unusable(&e.clone().into())),
            }
            restored.is_ok()
        });
        let (stage1_start, stage2_resume) = match resume {
            Some(tc) => {
                model.stats = crate::guard::RobustnessStats::from_snapshot(tc.robustness);
                model.report.stage1_seconds = tc.stage1_seconds;
                model.report.stage2_seconds = tc.stage2_seconds;
                model.report.stage1_final_loss = tc.stage1_final_loss;
                if tc.stage == 1 {
                    (tc.next_iter, None)
                } else {
                    (
                        cfg.stage1_iters,
                        Some((tc.next_iter, tc.best_state, tc.best_val_mae)),
                    )
                }
            }
            None => (0, None),
        };

        // Precompute training PiTs and conditioning features.
        let pits: Vec<Tensor> = train
            .iter()
            .map(|t| Pit::from_trajectory(t, &grid).into_tensor())
            .collect();
        let conds: Vec<[f32; 5]> = train
            .iter()
            .map(|t| model.cond_features(&OdtInput::from_trajectory(t)))
            .collect();
        let n = train.len();

        if stage1_start < cfg.stage1_iters {
            notify(
                &mut progress,
                event(Level::Info, "train.stage1.start")
                    .field("params", model.denoiser.num_params())
                    .field("pits", n)
                    .field("from", stage1_start)
                    .field("to", cfg.stage1_iters)
                    .msg(format!(
                        "stage 1: training denoiser ({} params) on {} PiTs, iters {}..{}",
                        model.denoiser.num_params(),
                        n,
                        stage1_start,
                        cfg.stage1_iters
                    )),
            );
        }
        // Resolved once before the loop: registry lookups take a mutex, the
        // returned handles are lock-free atomics.
        let iter_hist = odt_obs::histogram("train.stage1.iter");
        let t0 = Instant::now();
        let stage1_seconds_before = model.report.stage1_seconds;
        let mut guard =
            GuardedOptimizer::new(1, model.denoiser.params(), &cfg, &model.stats, ckpt_path);
        let mut final_loss = model.report.stage1_final_loss;
        for it in stage1_start..cfg.stage1_iters {
            let iter_t0 = Instant::now();
            let mut brng = iter_rng(cfg.seed, STAGE1_SALT, it);
            guard.opt.zero_grad();
            let idx: Vec<usize> = (0..cfg.stage1_batch)
                .map(|_| brng.gen_range(0..n))
                .collect();
            let refs: Vec<&Tensor> = idx.iter().map(|&i| &pits[i]).collect();
            let x0 = stack_pits(&refs);
            let mut cond = Tensor::zeros(vec![idx.len(), 5]);
            for (row, &i) in idx.iter().enumerate() {
                for (j, &v) in conds[i].iter().enumerate() {
                    cond.set(&[row, j], v);
                }
            }
            let g = Graph::new();
            let loss = model.ddpm.training_loss_biased(
                &g,
                &model.denoiser,
                &x0,
                &cond,
                cfg.step_gamma,
                &mut brng,
            );
            let mut loss_val = g.value(loss).data()[0];
            if let Some(tamper) = hooks.stage1_loss_tamper.as_mut() {
                loss_val = tamper(it, loss_val);
            }
            let applied = guard.step(it, &g, loss, loss_val, &mut progress, |last_good| {
                TrainCheckpoint {
                    stage: 1,
                    next_iter: it + 1,
                    cfg: cfg.clone(),
                    grid,
                    tt_mean,
                    tt_std,
                    stage1: last_good.clone(),
                    stage2: None,
                    best_state: None,
                    best_val_mae: f64::INFINITY,
                    stage1_seconds: stage1_seconds_before + t0.elapsed().as_secs_f64(),
                    stage2_seconds: 0.0,
                    stage1_final_loss: loss_val,
                    robustness: model.stats.snapshot(),
                }
            });
            if applied {
                final_loss = loss_val;
            }
            iter_hist.record(iter_t0.elapsed());
            if it % 100 == 0 {
                notify(
                    &mut progress,
                    event(Level::Info, "train.stage1.iter")
                        .field("iter", it)
                        .field("loss", final_loss)
                        .msg(format!("stage 1 iter {it}: loss {final_loss:.4}")),
                );
            }
        }
        let stage1_elapsed = t0.elapsed().as_secs_f64();
        if cfg.stage1_iters > stage1_start && stage1_elapsed > 0.0 {
            odt_obs::gauge("train.stage1.iters_per_s")
                .set((cfg.stage1_iters - stage1_start) as f64 / stage1_elapsed);
        }
        model.report.stage1_seconds = stage1_seconds_before + stage1_elapsed;
        model.report.stage1_params = model.denoiser.num_params();
        model.report.stage1_final_loss = final_loss;

        // ------------------------------------------------------------------
        // Stage 2: travel-time estimator, θ frozen (paper §5.2).
        // ------------------------------------------------------------------
        train_stage2(
            &mut model,
            data,
            &mut progress,
            hooks.stage2_loss_tamper.as_mut(),
            ckpt_path,
            stage2_resume,
        );
        model.report.robustness = model.stats.snapshot();
        model.stats.publish_gauges();
        model
    }

    /// Re-train only the travel-time estimator (stage 2) after mutating the
    /// estimator-side configuration (ablation switches, `d_E`, `L_E`),
    /// reusing the frozen stage-1 denoiser. This is how the Table 7
    /// *No-CE* / *No-ST* / *Est-CNN* / *Est-ViT* variants and the Figure 9
    /// `d_E`/`L_E` sweeps share one diffusion model.
    pub fn retrain_stage2(
        &mut self,
        mutate_cfg: impl FnOnce(&mut DotConfig),
        data: &Dataset,
        mut progress: impl FnMut(&str),
    ) {
        let (lg, n_steps, l_d) = (self.cfg.lg, self.cfg.n_steps, self.cfg.l_d);
        mutate_cfg(&mut self.cfg);
        assert!(
            self.cfg.lg == lg && self.cfg.n_steps == n_steps && self.cfg.l_d == l_d,
            "retrain_stage2 cannot change stage-1 hyper-parameters"
        );
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xab1a);
        self.estimator = build_estimator(&self.cfg, &mut rng);
        train_stage2(self, data, &mut progress, None, None, None);
        self.report.robustness = self.stats.snapshot();
    }
}

/// Train the estimator on ground-truth training PiTs, early-stopping on the
/// MAE over PiTs inferred for the validation split (§6.3). Runs behind the
/// same divergence watchdog as stage 1.
fn train_stage2(
    model: &mut Dot,
    data: &Dataset,
    progress: &mut dyn FnMut(&str),
    mut loss_tamper: Option<&mut Box<dyn FnMut(usize, f32) -> f32>>,
    ckpt_path: Option<&Path>,
    resume: Option<(usize, Option<StateDict>, f64)>,
) {
    let cfg = model.cfg.clone();
    let grid = model.grid;
    let train = data.split(Split::Train);
    let val = data.split(Split::Val);
    let n = train.len();
    let (tt_mean, tt_std) = (model.tt_mean, model.tt_std);

    let t1 = Instant::now();
    let stage2_seconds_before = model.report.stage2_seconds;
    let val_n = cfg.early_stop_samples.min(val.len());
    notify(
        progress,
        event(Level::Info, "train.stage2.val_pits")
            .field("count", val_n)
            .msg(format!(
                "stage 2: inferring {val_n} validation PiTs for early stopping"
            )),
    );
    let mut val_rng = iter_rng(cfg.seed, VAL_SALT, 0);
    let val_odts: Vec<OdtInput> = val[..val_n].iter().map(OdtInput::from_trajectory).collect();
    let val_pits = model.infer_pits(&val_odts, &mut val_rng);
    let val_targets: Vec<f64> = val[..val_n].iter().map(Trajectory::travel_time).collect();

    let train_pits: Vec<Pit> = train
        .iter()
        .map(|t| Pit::from_trajectory(t, &grid))
        .collect();
    let targets_norm: Vec<f32> = train
        .iter()
        .map(|t| ((t.travel_time() - tt_mean) / tt_std) as f32)
        .collect();

    let stage2_params: usize = model
        .estimator
        .estimator_params()
        .iter()
        .map(|p| p.numel())
        .sum();
    notify(
        progress,
        event(Level::Info, "train.stage2.start")
            .field("params", stage2_params)
            .field("iters", cfg.stage2_iters)
            .msg(format!(
                "stage 2: training {:?} estimator ({} params), {} iters",
                cfg.ablation.estimator, stage2_params, cfg.stage2_iters
            )),
    );
    let iter_hist = odt_obs::histogram("train.stage2.iter");
    let params = model.estimator.estimator_params();
    let mut guard = GuardedOptimizer::new(2, params.clone(), &cfg, &model.stats, ckpt_path);
    let (start_iter, resumed_best, resumed_mae) = match resume {
        Some((it, best, mae)) => (it, best, mae),
        None => (0, None, f64::INFINITY),
    };
    let mut best_mae = resumed_mae;
    let mut best_state = resumed_best.unwrap_or_else(|| state_dict(&params));
    for it in start_iter..cfg.stage2_iters {
        let iter_t0 = Instant::now();
        let mut brng = iter_rng(cfg.seed, STAGE2_SALT, it);
        guard.opt.zero_grad();
        let g = Graph::new();
        let mut loss_acc = None;
        for _ in 0..cfg.stage2_batch {
            let i = brng.gen_range(0..n);
            let pred = model.estimator.predict(&g, &train_pits[i]);
            let y = g.input(Tensor::from_vec(vec![targets_norm[i]], vec![1]));
            let l = g.mse(pred, y);
            loss_acc = Some(match loss_acc {
                None => l,
                Some(acc) => g.add(acc, l),
            });
        }
        let loss = g.scale(
            loss_acc.expect("non-empty batch"),
            1.0 / cfg.stage2_batch as f32,
        );
        let mut loss_val = g.value(loss).data()[0];
        if let Some(tamper) = loss_tamper.as_mut() {
            loss_val = tamper(it, loss_val);
        }
        guard.step(it, &g, loss, loss_val, progress, |last_good| {
            TrainCheckpoint {
                stage: 2,
                next_iter: it + 1,
                cfg: cfg.clone(),
                grid,
                tt_mean,
                tt_std,
                stage1: state_dict(&model.denoiser.params()),
                stage2: Some(last_good.clone()),
                best_state: Some(best_state.clone()),
                best_val_mae: best_mae,
                stage1_seconds: model.report.stage1_seconds,
                stage2_seconds: stage2_seconds_before + t1.elapsed().as_secs_f64(),
                stage1_final_loss: model.report.stage1_final_loss,
                robustness: model.stats.snapshot(),
            }
        });
        iter_hist.record(iter_t0.elapsed());

        if (it + 1) % cfg.early_stop_every == 0 || it + 1 == cfg.stage2_iters {
            let mae = val_mae(model, &val_pits, &val_targets);
            notify(
                progress,
                event(Level::Info, "train.stage2.val")
                    .field("iter", it + 1)
                    .field("val_mae_s", mae)
                    .msg(format!("stage 2 iter {}: val MAE {:.1}s", it + 1, mae)),
            );
            if mae < best_mae {
                best_mae = mae;
                best_state = state_dict(&params);
            }
        }
    }
    load_state_dict(&params, &best_state);
    let stage2_elapsed = t1.elapsed().as_secs_f64();
    if cfg.stage2_iters > start_iter && stage2_elapsed > 0.0 {
        odt_obs::gauge("train.stage2.iters_per_s")
            .set((cfg.stage2_iters - start_iter) as f64 / stage2_elapsed);
    }
    model.report.stage2_seconds = stage2_seconds_before + stage2_elapsed;
    model.report.stage2_params = params.iter().map(|p| p.numel()).sum();
    model.report.best_val_mae = best_mae;
    notify(
        progress,
        event(Level::Info, "train.stage2.done")
            .field("seconds", model.report.stage2_seconds)
            .field("best_val_mae_s", best_mae)
            .msg(format!(
                "stage 2 done in {:.1}s, best val MAE {:.1}s",
                model.report.stage2_seconds, best_mae
            )),
    );
}

fn val_mae(model: &Dot, pits: &[Pit], targets: &[f64]) -> f64 {
    if pits.is_empty() {
        return f64::INFINITY;
    }
    pits.iter()
        .zip(targets)
        .map(|(p, &y)| (model.estimate_from_pit(p) - y).abs())
        .sum::<f64>()
        / pits.len() as f64
}

pub(crate) fn build_estimator(cfg: &DotConfig, rng: &mut StdRng) -> Box<dyn PitEstimator> {
    let mvit_cfg = EstimatorMVitConfig {
        d_e: cfg.d_e,
        l_e: cfg.l_e,
        heads: if cfg.d_e.is_multiple_of(4) { 4 } else { 2 },
        ffn_hidden: cfg.d_e * 2,
    };
    match cfg.ablation.estimator {
        EstimatorKind::MVit => {
            let embed = EmbedderConfig {
                lg: cfg.lg,
                d_e: cfg.d_e,
                use_cell_embedding: cfg.ablation.cell_embedding,
                use_latent_cast: cfg.ablation.latent_cast,
            };
            Box::new(MVit::new(rng, &mvit_cfg, embed))
        }
        EstimatorKind::VanillaVit => Box::new(VanillaVit::new(rng, &mvit_cfg, cfg.lg)),
        EstimatorKind::Cnn => Box::new(CnnEstimator::new(rng, cfg.lg, cfg.d_e / 2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_traj::sim::CitySimConfig;

    fn tiny_dataset(lg: usize) -> Dataset {
        let mut cfg = CitySimConfig::chengdu_like();
        cfg.nx = 8;
        cfg.ny = 8;
        Dataset::simulated(cfg, 150, lg, 11)
    }

    fn tiny_config(lg: usize) -> DotConfig {
        DotConfig {
            lg,
            stage1_iters: 12,
            stage1_batch: 4,
            stage2_iters: 40,
            stage2_batch: 4,
            early_stop_samples: 4,
            early_stop_every: 20,
            ..DotConfig::tiny()
        }
    }

    #[test]
    fn end_to_end_training_and_estimation() {
        let data = tiny_dataset(8);
        let model = Dot::train(tiny_config(8), &data, |_| {});
        let odt = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
        let mut rng = StdRng::seed_from_u64(3);
        let est = model.estimate(&odt, &mut rng);
        assert!(est.seconds.is_finite() && est.seconds >= 0.0);
        assert_eq!(est.pit.lg(), 8);
        // The report carries diagnostics.
        let r = model.report();
        assert!(r.stage1_params > 0 && r.stage2_params > 0);
        assert!(r.stage1_seconds > 0.0);
    }

    #[test]
    fn estimate_batch_serves_every_query() {
        let data = tiny_dataset(8);
        let model = Dot::train(tiny_config(8), &data, |_| {});
        let odts: Vec<OdtInput> = data
            .split(Split::Test)
            .iter()
            .take(5)
            .map(OdtInput::from_trajectory)
            .collect();
        let mut rng = StdRng::seed_from_u64(6);
        let ests = model.estimate_batch(&odts, &mut rng);
        assert_eq!(ests.len(), odts.len());
        for est in &ests {
            assert!(est.seconds.is_finite() && est.seconds >= 0.0);
            assert_eq!(est.pit.lg(), 8);
        }
        // The empty batch short-circuits.
        assert!(model.estimate_batch(&[], &mut rng).is_empty());
    }

    /// Serve `q` once through `estimate_sampled(Ddpm)` and once through an
    /// `estimate_batch` of one, same seed; assert both took the same guard
    /// decision and bumped the same counters. Returns whether that decision
    /// was the fallback.
    fn single_and_batch_agree(model: &Dot, q: &OdtInput) -> bool {
        use odt_diffusion::PitSampler;
        let deltas = |a: RobustnessSnapshot, b: RobustnessSnapshot| {
            (
                b.queries_clamped - a.queries_clamped,
                b.degenerate_pits - a.degenerate_pits,
                b.fallbacks_taken - a.fallbacks_taken,
            )
        };
        let s0 = model.robustness();
        let single = model.estimate_sampled(q, PitSampler::Ddpm, &mut StdRng::seed_from_u64(5));
        let s1 = model.robustness();
        let batch = model.estimate_batch(std::slice::from_ref(q), &mut StdRng::seed_from_u64(5));
        let s2 = model.robustness();
        assert_eq!(deltas(s0, s1), deltas(s1, s2), "same counters bumped");
        assert!(single.pit == batch[0].pit, "same seed, same PiT");
        let fell_back = s1.fallbacks_taken > s0.fallbacks_taken;
        if fell_back {
            // The prior is a function of the query alone: identical bits.
            assert_eq!(single.seconds.to_bits(), batch[0].seconds.to_bits());
        } else {
            // `predict` and `predict_batch` of one agree only to rounding.
            assert!(single.seconds.is_finite() && batch[0].seconds.is_finite());
            assert!((single.seconds - batch[0].seconds).abs() <= 1e-3 * single.seconds.abs());
        }
        fell_back
    }

    #[test]
    fn single_and_batched_serving_share_one_guard_decision() {
        let data = tiny_dataset(8);
        let model = Dot::train(tiny_config(8), &data, |_| {});
        let trip = &data.split(Split::Test)[0];
        let inside = OdtInput::from_trajectory(trip);
        single_and_batch_agree(&model, &inside);
        // A query that needs clamping is counted once on each path.
        let mut outside = inside;
        outside.dest.lng =
            model.grid().max.lng + 0.5 * (model.grid().max.lng - model.grid().min.lng);
        let before = model.robustness().queries_clamped;
        single_and_batch_agree(&model, &outside);
        assert_eq!(model.robustness().queries_clamped, before + 2);

        // Force a degenerate PiT: an output layer that predicts a huge
        // positive noise everywhere drives every clamped x̂_0 to -1, so the
        // sampled PiT visits no cell. Both paths must answer from the prior.
        for p in model.denoiser.params() {
            if p.name().starts_with("denoiser.out.") {
                let fill = if p.name().ends_with(".bias") {
                    1e3
                } else {
                    0.0
                };
                p.set_value(Tensor::full(p.value().shape().to_vec(), fill));
            }
        }
        let before = model.robustness();
        assert!(single_and_batch_agree(&model, &inside), "must fall back");
        let after = model.robustness();
        assert_eq!(after.degenerate_pits, before.degenerate_pits + 2);
        assert_eq!(after.fallbacks_taken, before.fallbacks_taken + 2);
        let served = model.estimate(&inside, &mut StdRng::seed_from_u64(1));
        assert_eq!(served.seconds, crate::fallback_estimate_seconds(&inside));
        assert_eq!(served.pit.num_visited(), 0);
    }

    #[test]
    fn ablation_estimators_build_and_run() {
        let data = tiny_dataset(8);
        for kind in [EstimatorKind::Cnn, EstimatorKind::VanillaVit] {
            let mut cfg = tiny_config(8);
            cfg.stage1_iters = 4;
            cfg.stage2_iters = 10;
            cfg.ablation.estimator = kind;
            let model = Dot::train(cfg, &data, |_| {});
            let odt = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
            let mut rng = StdRng::seed_from_u64(4);
            assert!(model.estimate(&odt, &mut rng).seconds.is_finite());
        }
    }

    #[test]
    fn predictions_in_training_range_scale() {
        // The estimator is trained on normalized targets; after
        // denormalization, predictions should land in a plausible range.
        let data = tiny_dataset(8);
        let model = Dot::train(tiny_config(8), &data, |_| {});
        let mut rng = StdRng::seed_from_u64(5);
        for t in data.split(Split::Test).iter().take(3) {
            let odt = OdtInput::from_trajectory(t);
            let est = model.estimate(&odt, &mut rng);
            assert!(
                est.seconds < 4.0 * 3_600.0,
                "prediction {:.0}s is implausible",
                est.seconds
            );
        }
    }

    #[test]
    fn watchdog_skips_then_rolls_back() {
        let mut w = Watchdog::new(10.0, 2);
        for _ in 0..WATCHDOG_WARMUP + 2 {
            assert_eq!(w.observe(1.0), Verdict::Healthy);
        }
        // First trip skips, second (consecutive) rolls back.
        assert_eq!(w.observe(f32::NAN), Verdict::Skip);
        assert_eq!(w.observe(f32::INFINITY), Verdict::Rollback);
        // A healthy loss resets the streak.
        assert_eq!(w.observe(1.1), Verdict::Healthy);
        assert_eq!(w.observe(1000.0), Verdict::Skip); // spike vs EMA ≈ 1
        assert_eq!(w.observe(1.0), Verdict::Healthy);
    }

    #[test]
    fn watchdog_does_not_arm_during_warmup() {
        let mut w = Watchdog::new(2.0, 1);
        // Wildly swinging but finite losses during warmup are all healthy.
        for (i, loss) in [100.0f32, 1.0, 50.0, 0.5].iter().enumerate() {
            assert_eq!(w.observe(*loss), Verdict::Healthy, "obs {i}");
        }
        // Non-finite trips even during warmup.
        assert_eq!(w.observe(f32::NAN), Verdict::Rollback); // patience 1
    }

    #[test]
    fn nan_loss_injection_trips_watchdog_and_training_recovers() {
        let data = tiny_dataset(8);
        let mut cfg = tiny_config(8);
        cfg.robustness.watchdog_patience = 2;
        cfg.robustness.snapshot_every = 4;
        // Poison three consecutive stage-1 losses mid-training: the first
        // two trips skip, the third (post-rollback reset) skips again.
        let hooks =
            TrainHooks {
                stage1_loss_tamper: Some(Box::new(|it, loss| {
                    if (6..9).contains(&it) {
                        f32::NAN
                    } else {
                        loss
                    }
                })),
                stage2_loss_tamper: None,
            };
        let model = Dot::train_with_hooks(cfg, &data, |_| {}, hooks);
        let snap = model.report().robustness;
        assert_eq!(snap.watchdog_trips, 3, "{snap}");
        assert_eq!(snap.batches_skipped, 3, "{snap}");
        assert_eq!(snap.rollbacks, 1, "{snap}");
        // Training completed with finite parameters and finite predictions.
        for p in model.denoiser.params() {
            assert!(p.value().is_finite(), "non-finite param {}", p.name());
        }
        let odt = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
        let mut rng = StdRng::seed_from_u64(9);
        let est = model.estimate(&odt, &mut rng);
        assert!(est.seconds.is_finite() && est.seconds >= 0.0);
    }

    #[test]
    fn stage2_nan_injection_recovers_too() {
        let data = tiny_dataset(8);
        let mut cfg = tiny_config(8);
        cfg.robustness.watchdog_patience = 1;
        let hooks = TrainHooks {
            stage1_loss_tamper: None,
            stage2_loss_tamper: Some(Box::new(
                |it, loss| {
                    if it == 5 {
                        f32::INFINITY
                    } else {
                        loss
                    }
                },
            )),
        };
        let model = Dot::train_with_hooks(cfg, &data, |_| {}, hooks);
        let snap = model.report().robustness;
        assert_eq!(snap.watchdog_trips, 1, "{snap}");
        assert_eq!(snap.rollbacks, 1, "{snap}");
        for p in model.estimator.estimator_params() {
            assert!(p.value().is_finite(), "non-finite param {}", p.name());
        }
    }

    #[test]
    fn both_stages_emit_the_same_watchdog_events() {
        use std::sync::{Arc, Mutex};
        let data = tiny_dataset(8);
        let mut cfg = tiny_config(8);
        cfg.robustness.watchdog_patience = 2;
        cfg.robustness.snapshot_every = 4;
        let poison = |it: usize, loss: f32| {
            if (6..9).contains(&it) {
                f32::NAN
            } else {
                loss
            }
        };
        // Events are emitted on the training thread; other tests train in
        // parallel, so keep only this thread's.
        let me = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink = odt_obs::add_sink(Arc::new(odt_obs::FnSink::new(move |e: &odt_obs::Event| {
            if std::thread::current().id() == me && e.name.starts_with("train.watchdog.") {
                sink_seen.lock().unwrap().push(e.clone());
            }
        })));
        let hooks = TrainHooks {
            stage1_loss_tamper: Some(Box::new(poison)),
            stage2_loss_tamper: Some(Box::new(poison)),
        };
        Dot::train_with_hooks(cfg, &data, |_| {}, hooks);
        odt_obs::remove_sink(sink);
        let seen = seen.lock().unwrap();
        // (name, level, fields other than `stage`, message with the stage
        // number blanked), per stage.
        let of_stage = |stage: u64| -> Vec<(&str, odt_obs::Level, String, String)> {
            seen.iter()
                .filter(|e| e.field("stage").and_then(|s| s.as_u64()) == Some(stage))
                .map(|e| {
                    let rest: Vec<_> = e.fields.iter().filter(|(k, _)| *k != "stage").collect();
                    let msg = e.msg.replacen(&format!("stage {stage} "), "stage _ ", 1);
                    (e.name, e.level, format!("{rest:?}"), msg)
                })
                .collect()
        };
        let (s1, s2) = (of_stage(1), of_stage(2));
        assert_eq!(
            s1.len() + s2.len(),
            seen.len(),
            "every event names its stage"
        );
        let names: Vec<&str> = s1.iter().map(|e| e.0).collect();
        assert_eq!(
            names,
            [
                "train.watchdog.trip",
                "train.watchdog.rollback",
                "train.watchdog.trip"
            ]
        );
        assert_eq!(
            s1[1].3,
            "stage _ iter 7: watchdog rollback to last good snapshot"
        );
        assert_eq!(s1, s2);
    }

    #[test]
    fn resumable_training_continues_from_checkpoint() {
        let data = tiny_dataset(8);
        let mut cfg = tiny_config(8);
        cfg.robustness.snapshot_every = 3;
        let path =
            std::env::temp_dir().join(format!("odt_train_resume_{}.ckpt", std::process::id()));
        std::fs::remove_file(&path).ok();

        // Simulate a crash: run training, but capture the mid-flight
        // checkpoint file the moment stage 2 starts writing them.
        let full = Dot::train_resumable(cfg.clone(), &data, &path, |_| {});
        assert!(!path.exists(), "checkpoint removed on success");

        // Now write a stage-1 snapshot by training a clone and killing it
        // early: emulate by saving a TrainCheckpoint manually at iter 6.
        let probe = Dot::train(cfg.clone(), &data, |_| {});
        let tc = TrainCheckpoint {
            stage: 1,
            next_iter: 6,
            cfg: cfg.clone(),
            grid: data.grid,
            tt_mean: probe.tt_mean,
            tt_std: probe.tt_std,
            stage1: state_dict(&probe.denoiser.params()),
            stage2: None,
            best_state: None,
            best_val_mae: f64::INFINITY,
            stage1_seconds: 1.0,
            stage2_seconds: 0.0,
            stage1_final_loss: probe.report().stage1_final_loss,
            robustness: Default::default(),
        };
        tc.save(&path).unwrap();
        let mut saw_resume = false;
        let resumed = Dot::train_resumable(cfg.clone(), &data, &path, |m| {
            saw_resume |= m.contains("resuming training");
        });
        assert!(saw_resume, "resume path must be taken");
        assert!(!path.exists());
        // Both models answer queries sanely.
        let odt = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
        for m in [&full, &resumed] {
            let mut rng = StdRng::seed_from_u64(5);
            let est = m.estimate(&odt, &mut rng);
            assert!(est.seconds.is_finite() && est.seconds >= 0.0);
        }
    }

    /// A checkpoint that passes the CRC and parses, but holds a stage-1
    /// value beyond `f32`: resume must refuse to install it.
    #[test]
    fn resumable_training_refuses_a_checkpoint_with_non_finite_parameters() {
        let data = tiny_dataset(8);
        let cfg = tiny_config(8);
        let path =
            std::env::temp_dir().join(format!("odt_train_poison_{}.ckpt", std::process::id()));
        let probe = Dot::train(cfg.clone(), &data, |_| {});
        let tc = TrainCheckpoint {
            stage: 1,
            next_iter: 6,
            cfg: cfg.clone(),
            grid: data.grid,
            tt_mean: probe.tt_mean,
            tt_std: probe.tt_std,
            stage1: state_dict(&probe.denoiser.params()),
            stage2: None,
            best_state: None,
            best_val_mae: f64::INFINITY,
            stage1_seconds: 1.0,
            stage2_seconds: 0.0,
            stage1_final_loss: probe.report().stage1_final_loss,
            robustness: Default::default(),
        };
        tc.save(&path).unwrap();
        crate::persist::tests::poison_first_stage1_value(&path, TRAIN_MAGIC);
        assert!(
            TrainCheckpoint::load(&path).is_ok(),
            "only the values are bad"
        );

        let mut messages = Vec::new();
        let model = Dot::train_resumable(cfg, &data, &path, |m| messages.push(m.to_string()));
        let issue = messages.iter().find(|m| m.contains("checkpoint unusable"));
        let issue = issue.expect("the refusal is reported");
        assert!(
            issue.contains("non-finite") && issue.contains("starting fresh"),
            "{issue}"
        );
        // Fresh start: stage 1 ran from iteration 0, not from the snapshot's 6.
        assert!(
            messages.iter().any(|m| m.contains("iters 0..")),
            "{messages:?}"
        );
        for p in model.denoiser.params() {
            assert!(p.value().is_finite(), "non-finite param {}", p.name());
        }
        let odt = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
        let est = model.estimate(&odt, &mut StdRng::seed_from_u64(5));
        assert!(est.seconds.is_finite() && est.seconds >= 0.0);
        assert!(!path.exists());
    }

    #[test]
    fn resumable_training_survives_corrupt_checkpoint() {
        let data = tiny_dataset(8);
        let cfg = tiny_config(8);
        let path =
            std::env::temp_dir().join(format!("odt_train_corrupt_{}.ckpt", std::process::id()));
        std::fs::write(&path, b"DOTTRN v1 crc32=00000000 len=3\nxyz").unwrap();
        let mut saw_fresh = false;
        let model = Dot::train_resumable(cfg, &data, &path, |m| {
            saw_fresh |= m.contains("starting fresh");
        });
        assert!(
            saw_fresh,
            "corrupt checkpoint must fall back to fresh start"
        );
        assert!(model.report().stage1_params > 0);
        std::fs::remove_file(&path).ok();
    }
}
