//! DOT configuration: the paper's hyper-parameters (Table 2) and the
//! ablation switches of Table 7.

/// Which stage-2 estimator to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EstimatorKind {
    /// The Masked Vision Transformer (the DOT default).
    MVit,
    /// The vanilla ViT ablation (*Est-ViT*).
    VanillaVit,
    /// The CNN ablation (*Est-CNN*).
    Cnn,
}

/// The Table 7 ablation switches. Defaults are the full DOT model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AblationOptions {
    /// Include origin/destination coordinates in the conditioning
    /// (`false` = *No-od*).
    pub condition_on_od: bool,
    /// Include the departure time in the conditioning (`false` = *No-t*;
    /// both false = *No-odt*).
    pub condition_on_t: bool,
    /// Include the cell embedding module (`false` = *No-CE*).
    pub cell_embedding: bool,
    /// Include the latent casting module (`false` = *No-ST*).
    pub latent_cast: bool,
    /// Stage-2 estimator.
    pub estimator: EstimatorKind,
}

impl Default for AblationOptions {
    fn default() -> Self {
        AblationOptions {
            condition_on_od: true,
            condition_on_t: true,
            cell_embedding: true,
            latent_cast: true,
            estimator: EstimatorKind::MVit,
        }
    }
}

/// Fault-tolerance knobs for training and serving (the robustness layer;
/// DESIGN.md "Failure modes and recovery").
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RobustnessOptions {
    /// A stage loss counts as a spike when it exceeds this multiple of the
    /// running loss EMA (after warmup). Non-finite losses always trip.
    pub watchdog_spike_factor: f32,
    /// Consecutive watchdog trips before parameters roll back to the last
    /// good snapshot.
    pub watchdog_patience: usize,
    /// Take an in-training "last good" parameter snapshot every this many
    /// healthy iterations (also the `train_resumable` checkpoint cadence).
    pub snapshot_every: usize,
    /// Serve the haversine-speed prior when the inferred PiT is degenerate
    /// (empty/saturated) instead of feeding it to the estimator.
    pub degraded_mode_fallback: bool,
}

impl Default for RobustnessOptions {
    fn default() -> Self {
        RobustnessOptions {
            watchdog_spike_factor: 25.0,
            watchdog_patience: 3,
            snapshot_every: 50,
            degraded_mode_fallback: true,
        }
    }
}

/// Full DOT configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DotConfig {
    /// Grid side length `L_G` (Table 2 optimum: 20).
    pub lg: usize,
    /// Diffusion steps `N` (Table 2 optimum: 1000).
    pub n_steps: usize,
    /// UNet depth `L_D` (Table 2 optimum: 3).
    pub l_d: usize,
    /// Embedding dimension `d_E` (Table 2 optimum: 128).
    pub d_e: usize,
    /// Estimator layers `L_E` (Table 2 optimum: 2).
    pub l_e: usize,
    /// Denoiser base channel width.
    pub base_channels: usize,
    /// Denoiser conditioning width.
    pub cond_dim: usize,
    /// Attention token cap inside the denoiser.
    pub attn_max_tokens: usize,
    /// Stage-1 training iterations (mini-batches).
    pub stage1_iters: usize,
    /// Stage-1 batch size.
    pub stage1_batch: usize,
    /// Stage-2 training iterations (mini-batches).
    pub stage2_iters: usize,
    /// Stage-2 batch size.
    pub stage2_batch: usize,
    /// Learning rate (the paper uses 1e-3 across the board).
    pub lr: f32,
    /// Validation samples used for early stopping (PiT inference for the
    /// whole split is expensive; a fixed subset suffices).
    pub early_stop_samples: usize,
    /// Evaluate early stopping every this many stage-2 iterations.
    pub early_stop_every: usize,
    /// Stage-1 step-sampling exponent (1.0 = Algorithm 2's uniform
    /// sampling; >1 concentrates on low-noise steps — see odt-diffusion).
    pub step_gamma: f64,
    /// Number of reverse-diffusion candidates sampled per query; the most
    /// plausible PiT (by route-occupancy prior) is kept. 1 = Algorithm 1
    /// verbatim. At reduced step counts the reverse chain occasionally
    /// saturates; candidate selection implements the paper's "infer the
    /// most plausible PiT" robustly.
    pub infer_candidates: usize,
    /// Ablation switches.
    pub ablation: AblationOptions,
    /// Fault-tolerance knobs (a checkpoint older than them reads as the
    /// defaults).
    pub robustness: RobustnessOptions,
    /// RNG seed for initialization, batching and sampling.
    pub seed: u64,
}

impl DotConfig {
    /// The paper's optimal configuration (Table 2) — sized for the authors'
    /// GPU testbed; expect long CPU runtimes.
    pub fn paper() -> Self {
        DotConfig {
            lg: 20,
            n_steps: 1000,
            l_d: 3,
            d_e: 128,
            l_e: 2,
            base_channels: 32,
            cond_dim: 128,
            attn_max_tokens: 1 << 16,
            stage1_iters: 20_000,
            stage1_batch: 32,
            stage2_iters: 20_000,
            stage2_batch: 32,
            lr: 1e-3,
            early_stop_samples: 256,
            early_stop_every: 2_000,
            step_gamma: 1.0,
            infer_candidates: 1,
            ablation: AblationOptions::default(),
            robustness: RobustnessOptions::default(),
            seed: 7,
        }
    }

    /// CPU-scale profile: same algorithms, reduced steps and widths. The
    /// experiment harness uses this by default and records it in
    /// EXPERIMENTS.md.
    pub fn fast() -> Self {
        DotConfig {
            lg: 20,
            n_steps: 40,
            l_d: 2,
            d_e: 32,
            l_e: 2,
            base_channels: 8,
            cond_dim: 32,
            attn_max_tokens: 128,
            stage1_iters: 350,
            stage1_batch: 8,
            stage2_iters: 900,
            stage2_batch: 8,
            lr: 1e-3,
            early_stop_samples: 24,
            early_stop_every: 300,
            step_gamma: 2.0,
            infer_candidates: 3,
            ablation: AblationOptions::default(),
            robustness: RobustnessOptions::default(),
            seed: 7,
        }
    }

    /// The smallest model that still trains end to end in well under a
    /// second: what tests, drills and the `--quick` servers build on an
    /// 8 x 8 simulated city. A caller with other iteration counts overrides
    /// only those.
    pub fn tiny() -> Self {
        DotConfig {
            lg: 8,
            n_steps: 8,
            d_e: 16,
            base_channels: 4,
            cond_dim: 16,
            stage1_iters: 15,
            stage2_iters: 30,
            early_stop_samples: 3,
            early_stop_every: 15,
            ..DotConfig::fast()
        }
    }

    /// Apply a conditioning mask to raw ODT features (the 5-vector of
    /// Eq. 13): zero out what the ablation removes.
    pub fn mask_features(&self, feats: [f32; 5]) -> [f32; 5] {
        let mut f = feats;
        if !self.ablation.condition_on_od {
            f[..4].iter_mut().for_each(|v| *v = 0.0);
        }
        if !self.ablation.condition_on_t {
            f[4] = 0.0;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2_optima() {
        let c = DotConfig::paper();
        assert_eq!(c.lg, 20);
        assert_eq!(c.n_steps, 1000);
        assert_eq!(c.l_d, 3);
        assert_eq!(c.d_e, 128);
        assert_eq!(c.l_e, 2);
    }

    #[test]
    fn masks_implement_no_t_no_od_no_odt() {
        let mut c = DotConfig::fast();
        let f = [0.1, 0.2, 0.3, 0.4, 0.5];
        c.ablation.condition_on_t = false;
        assert_eq!(c.mask_features(f), [0.1, 0.2, 0.3, 0.4, 0.0]);
        c.ablation.condition_on_t = true;
        c.ablation.condition_on_od = false;
        assert_eq!(c.mask_features(f), [0.0, 0.0, 0.0, 0.0, 0.5]);
        c.ablation.condition_on_t = false;
        assert_eq!(c.mask_features(f), [0.0; 5]);
    }

    #[test]
    fn configs_differing_in_one_field_are_unequal() {
        // What `train_resumable` compares before continuing a checkpoint.
        let base = DotConfig::fast();
        assert_eq!(base, base.clone());
        let mut top = base.clone();
        top.stage2_iters += 1;
        assert_ne!(base, top);
        let mut nested = base.clone();
        nested.robustness.snapshot_every += 1;
        assert_ne!(base, nested);
        let mut ablated = base.clone();
        ablated.ablation.latent_cast = !ablated.ablation.latent_cast;
        assert_ne!(base, ablated);
    }
}
