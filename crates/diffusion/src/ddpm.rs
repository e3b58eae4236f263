//! The two Markov processes of the diffusion framework (paper §4.1) —
//! forward noising, the training objective of Algorithm 2, and the
//! conditioned sampling loop of Algorithm 1.
//!
//! A [`NoisePredictor`] has two entries. Training records
//! [`NoisePredictor::predict`] on the tape, because backward needs it.
//! Sampling never does: [`Ddpm::sample`] asks
//! [`NoisePredictor::evaluator`] once for a forward-only step function and
//! calls that once per reverse step, so whatever the predictor can set up
//! per run (the denoiser: a workspace and everything that depends on the
//! query alone) is paid once, and no step records a graph. Both entries
//! return the same bits.

use crate::schedule::NoiseSchedule;
use odt_tensor::{Graph, Tensor, Var};
use rand::Rng;

/// A conditioned noise predictor `ε_θ(X_n, n, odt)`.
///
/// Implementations receive the noisy batch `[B, C, L, L]`, the per-sample
/// step indices (1-based) and the conditioning features `[B, F]`, and must
/// return a tensor shaped like the input.
pub trait NoisePredictor {
    /// Predict the noise added at step `n` for each sample, on the tape:
    /// the forward training differentiates and diagnostics inspect.
    fn predict(&self, g: &Graph, x_noisy: Var, steps: &[usize], cond: &Tensor) -> Var;

    /// The forward-only entry, the one [`Ddpm::sample`] calls: a function
    /// `(x, i, eps)` that writes `ε_θ(x, steps[i], cond)` for the whole
    /// batch `x` into `eps`. Whatever lives as long as one sampling run
    /// (a workspace, everything that depends on `cond` and `steps` only) is
    /// set up here, once. The default records [`NoisePredictor::predict`] on
    /// a throw-away tape per call; an implementation that overrides it must
    /// return the same bits.
    fn evaluator<'a>(&'a self, cond: &'a Tensor, steps: &'a [usize]) -> StepEval<'a> {
        Box::new(move |x, i, eps| {
            let g = Graph::new();
            let each = vec![steps[i]; cond.shape()[0]];
            let out = self.predict(&g, g.input(x.clone()), &each, cond);
            eps.copy_from_slice(g.value(out).data());
        })
    }
}

/// What [`NoisePredictor::evaluator`] returns.
pub type StepEval<'a> = Box<dyn FnMut(&Tensor, usize, &mut [f32]) + 'a>;

/// The diffusion process: schedule plus the algorithms built on it.
#[derive(Clone, Debug)]
pub struct Ddpm {
    schedule: NoiseSchedule,
}

impl Ddpm {
    /// Build from a schedule.
    pub fn new(schedule: NoiseSchedule) -> Self {
        Ddpm { schedule }
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// A standard-normal tensor.
    pub fn sample_noise(shape: Vec<usize>, rng: &mut impl Rng) -> Tensor {
        odt_tensor::init::normal(rng, shape, 1.0)
    }

    /// Closed-form forward diffusion (Eq. 4):
    /// `X_n = sqrt(ᾱ_n) X_0 + sqrt(1 - ᾱ_n) ε`, with a per-sample step.
    ///
    /// `x0`: `[B, C, L, L]`, `steps[i] ∈ 1..=N`, `eps` shaped like `x0`.
    pub fn q_sample(&self, x0: &Tensor, steps: &[usize], eps: &Tensor) -> Tensor {
        assert_eq!(x0.shape(), eps.shape(), "noise must match x0 shape");
        assert_eq!(x0.shape()[0], steps.len(), "one step per batch sample");
        let b = steps.len();
        let per = x0.numel() / b;
        let mut out = x0.clone();
        for (i, &n) in steps.iter().enumerate() {
            let ab = self.schedule.alpha_bar(n);
            let (ca, cb) = (ab.sqrt(), (1.0 - ab).sqrt());
            let xs = &mut out.data_mut()[i * per..(i + 1) * per];
            let es = &eps.data()[i * per..(i + 1) * per];
            for (x, &e) in xs.iter_mut().zip(es) {
                *x = ca * *x + cb * e;
            }
        }
        out
    }

    /// One training loss (Algorithm 2, Eq. 11): sample per-sample steps and
    /// noise, form `X_n`, and return the MSE between true and predicted
    /// noise as a graph node ready for `backward`.
    pub fn training_loss(
        &self,
        g: &Graph,
        predictor: &dyn NoisePredictor,
        x0: &Tensor,
        cond: &Tensor,
        rng: &mut impl Rng,
    ) -> Var {
        self.training_loss_biased(g, predictor, x0, cond, 1.0, rng)
    }

    /// [`Ddpm::training_loss`] with a step-sampling exponent: steps are
    /// drawn as `n = 1 + ⌊uᵞ (N-1)⌋` with `u ~ U(0,1)`. `gamma = 1`
    /// reproduces Algorithm 2's uniform sampling; `gamma > 1` concentrates
    /// training on the low-noise, structure-forming steps — at reduced step
    /// counts those steps carry almost all of the reconstruction difficulty
    /// (the high-noise steps reduce to copying the input) yet get the same
    /// share of gradient under uniform sampling.
    pub fn training_loss_biased(
        &self,
        g: &Graph,
        predictor: &dyn NoisePredictor,
        x0: &Tensor,
        cond: &Tensor,
        gamma: f64,
        rng: &mut impl Rng,
    ) -> Var {
        let b = x0.shape()[0];
        let n_steps = self.schedule.n_steps();
        let steps: Vec<usize> = (0..b)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                1 + (u.powf(gamma) * (n_steps - 1) as f64).floor() as usize
            })
            .collect();
        let eps = Self::sample_noise(x0.shape().to_vec(), rng);
        let xn = self.q_sample(x0, &steps, &eps);
        let xn_v = g.input(xn);
        let pred = predictor.predict(g, xn_v, &steps, cond);
        let target = g.input(eps);
        g.mse(pred, target)
    }

    /// Algorithm 1: infer clean samples conditioned on `cond` (`[B, F]`),
    /// starting from pure Gaussian noise and denoising down the step list
    /// `sampler` selects. Returns `[B, C, L, L]`.
    ///
    /// Each reverse step goes through the predicted clean sample
    /// `x̂_0 = (X_n − √(1−ᾱ_n) ε_θ) / √ᾱ_n`, then applies the sampler's
    /// rule (see [`PitSampler`]). With `clamp: Some((lo, hi))`, `x̂_0` is
    /// clipped to the data range first — the standard stabilization for
    /// few-step sampling: a learned ε_θ drifts off the forward marginal and
    /// the 1/√α amplification compounds the error; clamping projects the
    /// chain back onto the data manifold. PiT channels live in `[-1, 1]`, so
    /// DOT samples with `Some((-1.0, 1.0))`.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &self,
        predictor: &dyn NoisePredictor,
        cond: &Tensor,
        channels: usize,
        lg: usize,
        sampler: PitSampler,
        clamp: Option<(f32, f32)>,
        rng: &mut impl Rng,
    ) -> Tensor {
        let steps = self.reverse_steps(sampler);
        let b = cond.shape()[0];
        let mut x = Self::sample_noise(vec![b, channels, lg, lg], rng);
        // Noise scratch of the stochastic rule, reused across steps;
        // `normal_into` draws the same RNG sequence as an allocating draw.
        let mut z = match sampler {
            PitSampler::Ddpm => vec![0.0f32; x.numel()],
            PitSampler::Ddim(_) => Vec::new(),
        };
        let mut eps = vec![0.0f32; x.numel()];
        let mut eps_theta = predictor.evaluator(cond, &steps);
        for (i, &n) in steps.iter().enumerate() {
            // Span guard: records the step into the `stage1.denoise_step`
            // histogram and, when a request trace is active, emits a child
            // span so per-step cost shows up on the request's critical path.
            let _step = odt_obs::span("stage1.denoise_step");
            eps_theta(&x, i, &mut eps);
            let ep = &eps[..];
            let ab = self.schedule.alpha_bar(n);
            let next = steps.get(i + 1);
            let ab_next = next.map_or(1.0, |&m| self.schedule.alpha_bar(m));
            let inv_sqrt_ab = 1.0 / ab.sqrt();
            let noise_scale = (1.0 - ab).sqrt();
            match sampler {
                PitSampler::Ddpm => {
                    let beta = self.schedule.beta(n);
                    // Posterior variance β̃_n = (1-ᾱ_{n-1})/(1-ᾱ_n) β_n. The
                    // paper's Σ = √β_n I choice is indistinguishable at
                    // N = 1000 where β is tiny, but at reduced step counts β
                    // gets large and σ = √β injects far more noise per step
                    // than the posterior allows.
                    let sigma = ((1.0 - ab_next) / (1.0 - ab) * beta).sqrt();
                    let coef_x0 = ab_next.sqrt() * beta / (1.0 - ab);
                    let coef_xn = self.schedule.alpha(n).sqrt() * (1.0 - ab_next) / (1.0 - ab);
                    if next.is_some() {
                        odt_tensor::init::normal_into(rng, &mut z, 1.0);
                    } else {
                        z.fill(0.0);
                    }
                    reverse_update(
                        x.data_mut(),
                        ep,
                        inv_sqrt_ab,
                        noise_scale,
                        clamp,
                        |x0_hat, xn, j| coef_x0 * x0_hat + coef_xn * xn + sigma * z[j],
                    );
                }
                PitSampler::Ddim(_) => {
                    let sqrt_ab_next = ab_next.sqrt();
                    let next_noise = (1.0 - ab_next).sqrt();
                    reverse_update(
                        x.data_mut(),
                        ep,
                        inv_sqrt_ab,
                        noise_scale,
                        clamp,
                        |x0_hat, _, j| sqrt_ab_next * x0_hat + next_noise * ep[j],
                    );
                }
            }
        }
        x
    }

    /// The descending schedule steps a sampler visits: every trained step,
    /// or `k` evenly strided ones that always include `N` and 1.
    fn reverse_steps(&self, sampler: PitSampler) -> Vec<usize> {
        let n_train = self.schedule.n_steps();
        match sampler {
            PitSampler::Ddpm => (1..=n_train).rev().collect(),
            PitSampler::Ddim(k) => {
                assert!((1..=n_train).contains(&k), "sample_steps must be in 1..=N");
                let mut steps: Vec<usize> = (0..k)
                    .map(|i| 1 + i * (n_train - 1) / (k - 1).max(1))
                    .collect();
                steps.dedup();
                steps.reverse();
                steps
            }
        }
    }
}

/// Which reverse process [`Ddpm::sample`] runs — also the model-backed
/// rungs of the serving degradation ladder (`odt-serve`), each trading PiT
/// fidelity for latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PitSampler {
    /// Stochastic DDPM over every trained step (Algorithm 1, Eq. 10): each
    /// step draws from the true posterior,
    ///
    /// `μ = √ᾱ_{n-1} β_n/(1−ᾱ_n) · x̂_0 + √α_n (1−ᾱ_{n-1})/(1−ᾱ_n) · X_n`,
    ///
    /// which is algebraically identical to Eq. 10 when nothing is clamped.
    Ddpm,
    /// Deterministic (η = 0) DDIM (Song et al., 2021) over this many evenly
    /// strided steps — an extension beyond the paper, so a model trained
    /// with `N` steps can sample in `k ≪ N` denoiser evaluations:
    /// `X_{n'} = √ᾱ_{n'} x̂_0 + √(1-ᾱ_{n'}) ε_θ`. Draws no noise after the
    /// initial sample.
    Ddim(usize),
}

/// Advance the whole batch one reverse step in place. Both samplers first
/// recover the implied clean image `x̂_0 = inv_sqrt_ab · (x[j] −
/// noise_scale · eps[j])`, clamped when asked, then `x[j] = rule(x̂_0, x[j],
/// j)`. Each lane reads its own `x` before writing it, so the update runs
/// parallel over disjoint element ranges; `rule` is monomorphized per
/// sampler, which keeps the element loop free of a per-element branch.
fn reverse_update(
    x: &mut [f32],
    eps: &[f32],
    inv_sqrt_ab: f32,
    noise_scale: f32,
    clamp: Option<(f32, f32)>,
    rule: impl Fn(f32, f32, usize) -> f32 + Sync,
) {
    odt_compute::parallel_chunks_mut(x, 8192, |j0, xs| {
        for (off, xe) in xs.iter_mut().enumerate() {
            let j = j0 + off;
            let xn = *xe;
            let mut x0_hat = inv_sqrt_ab * (xn - noise_scale * eps[j]);
            if let Some((lo, hi)) = clamp {
                x0_hat = x0_hat.clamp(lo, hi);
            }
            *xe = rule(x0_hat, xn, j);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A predictor that always returns zeros (useful to test plumbing).
    pub(super) struct ZeroPredictor;
    impl NoisePredictor for ZeroPredictor {
        fn predict(&self, g: &Graph, x_noisy: Var, _steps: &[usize], _cond: &Tensor) -> Var {
            g.scale(x_noisy, 0.0)
        }
    }

    /// An "oracle" predictor for a dataset where X_0 = 0: then
    /// X_n = sqrt(1-ᾱ_n) ε, so ε = X_n / sqrt(1-ᾱ_n).
    struct OraclePredictor {
        schedule: NoiseSchedule,
    }
    impl NoisePredictor for OraclePredictor {
        fn predict(&self, g: &Graph, x_noisy: Var, steps: &[usize], _cond: &Tensor) -> Var {
            let n = steps[0];
            assert!(steps.iter().all(|&s| s == n), "oracle assumes uniform step");
            let c = 1.0 / (1.0 - self.schedule.alpha_bar(n)).sqrt();
            g.scale(x_noisy, c)
        }
    }

    #[test]
    fn q_sample_at_final_step_is_nearly_noise() {
        let ddpm = Ddpm::new(NoiseSchedule::linear(1000));
        let mut rng = StdRng::seed_from_u64(0);
        let x0 = Tensor::full(vec![1, 1, 8, 8], 5.0);
        let eps = Ddpm::sample_noise(vec![1, 1, 8, 8], &mut rng);
        let xn = ddpm.q_sample(&x0, &[1000], &eps);
        // ᾱ_1000 ≈ 0, so X_N ≈ ε.
        for (a, b) in xn.data().iter().zip(eps.data()) {
            assert!((a - b).abs() < 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn q_sample_at_first_step_is_nearly_clean() {
        let ddpm = Ddpm::new(NoiseSchedule::linear(1000));
        let mut rng = StdRng::seed_from_u64(1);
        let x0 = Tensor::full(vec![1, 1, 4, 4], 2.0);
        let eps = Ddpm::sample_noise(vec![1, 1, 4, 4], &mut rng);
        let x1 = ddpm.q_sample(&x0, &[1], &eps);
        for v in x1.data() {
            assert!((v - 2.0).abs() < 0.1, "{v}");
        }
    }

    #[test]
    fn q_sample_per_sample_steps() {
        let ddpm = Ddpm::new(NoiseSchedule::linear(100));
        let mut rng = StdRng::seed_from_u64(2);
        let x0 = Tensor::ones(vec![2, 1, 2, 2]);
        let eps = Ddpm::sample_noise(vec![2, 1, 2, 2], &mut rng);
        let xn = ddpm.q_sample(&x0, &[1, 100], &eps);
        // Sample 0 nearly clean, sample 1 heavily noised.
        let d0: f32 = xn.data()[..4].iter().map(|v| (v - 1.0).abs()).sum();
        let d1: f32 = xn.data()[4..].iter().map(|v| (v - 1.0).abs()).sum();
        assert!(d0 < d1, "step-1 sample should be cleaner ({d0} vs {d1})");
    }

    #[test]
    fn training_loss_is_finite_scalar() {
        let ddpm = Ddpm::new(NoiseSchedule::linear(10));
        let mut rng = StdRng::seed_from_u64(3);
        let g = Graph::new();
        let x0 = Ddpm::sample_noise(vec![2, 3, 4, 4], &mut rng);
        let cond = Tensor::zeros(vec![2, 5]);
        let loss = ddpm.training_loss(&g, &ZeroPredictor, &x0, &cond, &mut rng);
        let v = g.value(loss);
        assert_eq!(v.numel(), 1);
        assert!(v.data()[0].is_finite() && v.data()[0] > 0.0);
    }

    #[test]
    fn sampling_with_oracle_recovers_zero_image() {
        // If the predictor perfectly predicts the noise of an all-zero
        // dataset, Algorithm 1 must converge to (near) zero images.
        let schedule = NoiseSchedule::linear(50);
        let ddpm = Ddpm::new(schedule.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let cond = Tensor::zeros(vec![1, 5]);
        let out = ddpm.sample(
            &OraclePredictor { schedule },
            &cond,
            1,
            4,
            PitSampler::Ddpm,
            None,
            &mut rng,
        );
        assert_eq!(out.shape(), &[1, 1, 4, 4]);
        let max = out.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max < 0.35, "samples should approach 0, max |x| = {max}");
    }

    /// Analytic optimal predictor for scalar Gaussian data
    /// `x0 ~ N(mu, s²)`: `E[ε | X_n] = √(1-ᾱ)(X_n - √ᾱ·μ) / (ᾱs² + 1-ᾱ)`.
    pub(super) struct GaussOracle {
        pub(super) schedule: NoiseSchedule,
        pub(super) mu: f32,
        pub(super) s2: f32,
    }
    impl NoisePredictor for GaussOracle {
        fn predict(&self, g: &Graph, x_noisy: Var, steps: &[usize], _cond: &Tensor) -> Var {
            let n = steps[0];
            assert!(steps.iter().all(|&s| s == n));
            let ab = self.schedule.alpha_bar(n);
            let scale = (1.0 - ab).sqrt() / (ab * self.s2 + (1.0 - ab));
            g.scale(g.add_scalar(x_noisy, -(ab.sqrt() * self.mu)), scale)
        }
    }

    #[test]
    fn sampler_recovers_gaussian_data_distribution() {
        // With the analytically optimal predictor, the reverse process must
        // reproduce the data distribution — validating every coefficient in
        // the sampling update, including the posterior variance, even at
        // coarse schedules.
        for n_steps in [30usize, 200] {
            let schedule = NoiseSchedule::linear_scaled(n_steps);
            let ddpm = Ddpm::new(schedule.clone());
            let oracle = GaussOracle {
                schedule,
                mu: 3.0,
                s2: 0.25,
            };
            let mut rng = StdRng::seed_from_u64(1);
            let cond = Tensor::zeros(vec![512, 5]);
            let out = ddpm.sample(&oracle, &cond, 1, 1, PitSampler::Ddpm, None, &mut rng);
            let mean = out.data().iter().sum::<f32>() / 512.0;
            let var = out
                .data()
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 512.0;
            assert!((mean - 3.0).abs() < 0.15, "N={n_steps}: mean {mean}");
            assert!((var - 0.25).abs() < 0.12, "N={n_steps}: var {var}");
        }
    }

    #[test]
    fn clamping_projects_onto_data_range() {
        let schedule = NoiseSchedule::linear_scaled(20);
        let ddpm = Ddpm::new(schedule.clone());
        // Zero predictor: the chain wanders, but clamping must keep the
        // final sample's implied x0 near the range.
        let cond = Tensor::zeros(vec![8, 5]);
        let mut rng = StdRng::seed_from_u64(2);
        let out = ddpm.sample(
            &ZeroPredictor,
            &cond,
            1,
            4,
            PitSampler::Ddpm,
            Some((-1.0, 1.0)),
            &mut rng,
        );
        assert!(out.is_finite());
        // The last step with clamped x0 and sigma_1 = 0 lands inside [-1,1].
        assert!(out.data().iter().all(|v| v.abs() <= 1.0 + 1e-4), "{out:?}");
    }

    #[test]
    fn ddim_recovers_gaussian_mean_with_few_steps() {
        // Deterministic DDIM with the analytic oracle must land on the data
        // mean even with very few evaluation steps.
        let schedule = NoiseSchedule::linear_scaled(100);
        let ddpm = Ddpm::new(schedule.clone());
        let oracle = GaussOracle {
            schedule,
            mu: 3.0,
            s2: 0.25,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let cond = Tensor::zeros(vec![256, 5]);
        let out = ddpm.sample(&oracle, &cond, 1, 1, PitSampler::Ddim(8), None, &mut rng);
        let mean = out.data().iter().sum::<f32>() / 256.0;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        // Deterministic: DDIM variance comes only from the seed noise, so
        // the sample spread must be nonzero but bounded by the data spread.
        let var = out
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 256.0;
        assert!(var < 1.0, "var {var}");
    }

    #[test]
    fn ddim_fewer_steps_than_training() {
        let ddpm = Ddpm::new(NoiseSchedule::linear_scaled(50));
        let cond = Tensor::zeros(vec![2, 5]);
        let mut rng = StdRng::seed_from_u64(5);
        let out = ddpm.sample(
            &ZeroPredictor,
            &cond,
            3,
            4,
            PitSampler::Ddim(5),
            Some((-1.0, 1.0)),
            &mut rng,
        );
        assert_eq!(out.shape(), &[2, 3, 4, 4]);
        assert!(out.is_finite());
    }

    #[test]
    fn sampling_shapes_and_determinism() {
        let ddpm = Ddpm::new(NoiseSchedule::linear(5));
        let cond = Tensor::zeros(vec![3, 5]);
        for sampler in [PitSampler::Ddpm, PitSampler::Ddim(3)] {
            let run = |seed| {
                let rng = &mut StdRng::seed_from_u64(seed);
                ddpm.sample(&ZeroPredictor, &cond, 2, 6, sampler, None, rng)
            };
            let (a, b) = (run(7), run(7));
            assert_eq!(a.shape(), &[3, 2, 6, 6]);
            assert_eq!(a.data(), b.data());
        }
    }
}

/// The two samplers that served queries before [`Ddpm::sample`] took a
/// [`PitSampler`], kept verbatim as the reference the one sampler must
/// reproduce bit for bit.
#[cfg(test)]
mod reference {
    use super::tests::{GaussOracle, ZeroPredictor};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_clamped(
        ddpm: &Ddpm,
        predictor: &dyn NoisePredictor,
        cond: &Tensor,
        channels: usize,
        lg: usize,
        clamp: Option<(f32, f32)>,
        rng: &mut impl Rng,
    ) -> Tensor {
        let b = cond.shape()[0];
        let mut x = Ddpm::sample_noise(vec![b, channels, lg, lg], rng);
        let mut z = Tensor::zeros(x.shape().to_vec());
        for n in (1..=ddpm.schedule.n_steps()).rev() {
            let g = Graph::new();
            let xv = g.input(x.clone());
            let steps = vec![n; b];
            let eps_pred = g.value(predictor.predict(&g, xv, &steps, cond));
            let beta = ddpm.schedule.beta(n);
            let alpha = ddpm.schedule.alpha(n);
            let ab = ddpm.schedule.alpha_bar(n);
            let ab_prev = if n > 1 {
                ddpm.schedule.alpha_bar(n - 1)
            } else {
                1.0
            };
            let sigma = ((1.0 - ab_prev) / (1.0 - ab) * beta).sqrt();
            let coef_x0 = ab_prev.sqrt() * beta / (1.0 - ab);
            let coef_xn = alpha.sqrt() * (1.0 - ab_prev) / (1.0 - ab);
            let inv_sqrt_ab = 1.0 / ab.sqrt();
            let noise_scale = (1.0 - ab).sqrt();

            if n > 1 {
                odt_tensor::init::normal_into(rng, z.data_mut(), 1.0);
            } else {
                z.data_mut().fill(0.0);
            }
            let ep = eps_pred.data();
            let zd = z.data();
            odt_compute::parallel_chunks_mut(x.data_mut(), 8192, |i0, xs| {
                for (off, xe) in xs.iter_mut().enumerate() {
                    let i = i0 + off;
                    let xn = *xe;
                    let mut x0_hat = inv_sqrt_ab * (xn - noise_scale * ep[i]);
                    if let Some((lo, hi)) = clamp {
                        x0_hat = x0_hat.clamp(lo, hi);
                    }
                    *xe = coef_x0 * x0_hat + coef_xn * xn + sigma * zd[i];
                }
            });
        }
        x
    }

    #[allow(clippy::too_many_arguments)]
    fn sample_ddim(
        ddpm: &Ddpm,
        predictor: &dyn NoisePredictor,
        cond: &Tensor,
        channels: usize,
        lg: usize,
        sample_steps: usize,
        clamp: Option<(f32, f32)>,
        rng: &mut impl Rng,
    ) -> Tensor {
        let n_train = ddpm.schedule.n_steps();
        let mut steps: Vec<usize> = (0..sample_steps)
            .map(|i| 1 + i * (n_train - 1) / (sample_steps - 1).max(1))
            .collect();
        steps.dedup();
        steps.reverse();

        let b = cond.shape()[0];
        let mut x = Ddpm::sample_noise(vec![b, channels, lg, lg], rng);
        for (i, &n) in steps.iter().enumerate() {
            let g = Graph::new();
            let xv = g.input(x.clone());
            let step_vec = vec![n; b];
            let eps = g.value(predictor.predict(&g, xv, &step_vec, cond));
            let ab = ddpm.schedule.alpha_bar(n);
            let ab_next = steps
                .get(i + 1)
                .map(|&m| ddpm.schedule.alpha_bar(m))
                .unwrap_or(1.0);
            let inv_sqrt_ab = 1.0 / ab.sqrt();
            let noise_scale = (1.0 - ab).sqrt();
            let next_noise = (1.0 - ab_next).sqrt();
            let sqrt_ab_next = ab_next.sqrt();
            let ep = eps.data();
            odt_compute::parallel_chunks_mut(x.data_mut(), 8192, |j0, xs| {
                for (off, xe) in xs.iter_mut().enumerate() {
                    let e = ep[j0 + off];
                    let mut x0_hat = inv_sqrt_ab * (*xe - noise_scale * e);
                    if let Some((lo, hi)) = clamp {
                        x0_hat = x0_hat.clamp(lo, hi);
                    }
                    *xe = sqrt_ab_next * x0_hat + next_noise * e;
                }
            });
        }
        x
    }

    /// [`Ddpm::sample`] as it was while every reverse step recorded
    /// `predict` on a fresh tape, verbatim.
    #[allow(clippy::too_many_arguments)]
    fn sample_on_tape(
        ddpm: &Ddpm,
        predictor: &dyn NoisePredictor,
        cond: &Tensor,
        channels: usize,
        lg: usize,
        sampler: PitSampler,
        clamp: Option<(f32, f32)>,
        rng: &mut impl Rng,
    ) -> Tensor {
        let steps = ddpm.reverse_steps(sampler);
        let b = cond.shape()[0];
        let mut x = Ddpm::sample_noise(vec![b, channels, lg, lg], rng);
        let mut z = match sampler {
            PitSampler::Ddpm => vec![0.0f32; x.numel()],
            PitSampler::Ddim(_) => Vec::new(),
        };
        for (i, &n) in steps.iter().enumerate() {
            let g = Graph::new();
            let xv = g.input(x.clone());
            let eps = g.value(predictor.predict(&g, xv, &vec![n; b], cond));
            let ep = eps.data();
            let ab = ddpm.schedule.alpha_bar(n);
            let next = steps.get(i + 1);
            let ab_next = next.map_or(1.0, |&m| ddpm.schedule.alpha_bar(m));
            let inv_sqrt_ab = 1.0 / ab.sqrt();
            let noise_scale = (1.0 - ab).sqrt();
            match sampler {
                PitSampler::Ddpm => {
                    let beta = ddpm.schedule.beta(n);
                    let sigma = ((1.0 - ab_next) / (1.0 - ab) * beta).sqrt();
                    let coef_x0 = ab_next.sqrt() * beta / (1.0 - ab);
                    let coef_xn = ddpm.schedule.alpha(n).sqrt() * (1.0 - ab_next) / (1.0 - ab);
                    if next.is_some() {
                        odt_tensor::init::normal_into(rng, &mut z, 1.0);
                    } else {
                        z.fill(0.0);
                    }
                    reverse_update(
                        x.data_mut(),
                        ep,
                        inv_sqrt_ab,
                        noise_scale,
                        clamp,
                        |x0_hat, xn, j| coef_x0 * x0_hat + coef_xn * xn + sigma * z[j],
                    );
                }
                PitSampler::Ddim(_) => {
                    let sqrt_ab_next = ab_next.sqrt();
                    let next_noise = (1.0 - ab_next).sqrt();
                    reverse_update(
                        x.data_mut(),
                        ep,
                        inv_sqrt_ab,
                        noise_scale,
                        clamp,
                        |x0_hat, _, j| sqrt_ab_next * x0_hat + next_noise * ep[j],
                    );
                }
            }
        }
        x
    }

    /// `f32` bits of a sample plus the RNG's next draw after producing it.
    fn bits_and_next_draw(sample: impl FnOnce(&mut StdRng) -> Tensor) -> (Vec<u32>, u64) {
        let mut rng = StdRng::seed_from_u64(0x0d07);
        let out = sample(&mut rng);
        let next: f64 = rng.gen_range(0.0..1.0);
        (
            out.data().iter().map(|v| v.to_bits()).collect(),
            next.to_bits(),
        )
    }

    #[test]
    fn one_sampler_reproduces_both_references_bit_for_bit() {
        for n_steps in [5usize, 20] {
            let schedule = NoiseSchedule::linear_scaled(n_steps);
            let ddpm = Ddpm::new(schedule.clone());
            let gauss = GaussOracle {
                schedule,
                mu: 0.4,
                s2: 0.25,
            };
            let predictors: [(&str, &dyn NoisePredictor); 2] =
                [("zero", &ZeroPredictor), ("gauss", &gauss)];
            // lg = 40 puts b = 3 past the update's 8192-element grain, so
            // chunk offsets are exercised too.
            for (name, predictor) in predictors {
                for (b, lg) in [(1usize, 6usize), (3, 6), (3, 40)] {
                    let cond = Tensor::zeros(vec![b, 5]);
                    for clamp in [None, Some((-1.0f32, 1.0f32))] {
                        let case = format!("{name} N={n_steps} b={b} lg={lg} clamp={clamp:?}");
                        let want = bits_and_next_draw(|rng| {
                            sample_clamped(&ddpm, predictor, &cond, 2, lg, clamp, rng)
                        });
                        let got = bits_and_next_draw(|rng| {
                            ddpm.sample(predictor, &cond, 2, lg, PitSampler::Ddpm, clamp, rng)
                        });
                        assert_eq!(got, want, "ddpm, {case}");
                        for k in [1, 3, 8.min(n_steps), n_steps] {
                            let want = bits_and_next_draw(|rng| {
                                sample_ddim(&ddpm, predictor, &cond, 2, lg, k, clamp, rng)
                            });
                            let got = bits_and_next_draw(|rng| {
                                let sampler = PitSampler::Ddim(k);
                                ddpm.sample(predictor, &cond, 2, lg, sampler, clamp, rng)
                            });
                            assert_eq!(got, want, "ddim k={k}, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_only_sampling_reproduces_the_tape_loop_bit_for_bit() {
        use crate::{ConditionedDenoiser, DenoiserConfig};
        // Padded grid (10 -> 12) with attention at 36 and 9 tokens.
        let cfg = DenoiserConfig {
            channels: 3,
            lg: 10,
            base_channels: 4,
            depth: 2,
            cond_dim: 16,
            attn_max_tokens: 64,
        };
        let denoiser = ConditionedDenoiser::new(&mut StdRng::seed_from_u64(5), cfg);
        let ddpm = Ddpm::new(NoiseSchedule::linear_scaled(10));
        let clamp = Some((-1.0f32, 1.0f32));
        for b in [1usize, 3] {
            let cond = odt_tensor::init::uniform(
                &mut StdRng::seed_from_u64(b as u64),
                vec![b, 5],
                -1.0,
                1.0,
            );
            for sampler in [PitSampler::Ddpm, PitSampler::Ddim(8)] {
                let want = bits_and_next_draw(|rng| {
                    sample_on_tape(&ddpm, &denoiser, &cond, 3, 10, sampler, clamp, rng)
                });
                let got = bits_and_next_draw(|rng| {
                    ddpm.sample(&denoiser, &cond, 3, 10, sampler, clamp, rng)
                });
                assert_eq!(got, want, "{sampler:?} b={b}");
            }
        }
    }
}
