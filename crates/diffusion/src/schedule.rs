//! The DDPM noise schedule (paper Eqs. 2–5).

/// Precomputed β, α and ᾱ sequences for an `N`-step diffusion.
///
/// Steps are 1-indexed as in the paper (`n ∈ {1, …, N}`); accessors take the
/// paper's `n`.
#[derive(Clone, Debug)]
pub struct NoiseSchedule {
    betas: Vec<f32>,
    alphas: Vec<f32>,
    alpha_bars: Vec<f32>,
}

impl NoiseSchedule {
    /// The paper's linear schedule: β scales linearly from `1e-4` to `0.02`
    /// over `n_steps` steps ("we follow the linear schedule used in DDPM").
    pub fn linear(n_steps: usize) -> Self {
        Self::linear_range(n_steps, 1e-4, 0.02)
    }

    /// A linear schedule whose total injected noise matches the paper's
    /// 1000-step schedule regardless of `n_steps`: β endpoints scale by
    /// `1000 / n_steps` (capped below 1) so that `ᾱ_N ≈ 0` and Eq. 5 —
    /// `X_N ~ N(0, I)` — actually holds. With `n_steps = 1000` this is
    /// exactly [`NoiseSchedule::linear`]. Use this when running reduced
    /// step counts on CPU; sampling from pure noise is only valid when the
    /// forward process reaches pure noise.
    pub fn linear_scaled(n_steps: usize) -> Self {
        let scale = (1000.0 / n_steps as f32).max(1.0);
        let beta_end = (0.02 * scale).min(0.75);
        let beta_start = (1e-4 * scale).min(beta_end);
        Self::linear_range(n_steps, beta_start, beta_end)
    }

    /// A linear schedule with explicit endpoints.
    pub fn linear_range(n_steps: usize, beta_start: f32, beta_end: f32) -> Self {
        assert!(n_steps >= 1, "schedule needs at least one step");
        assert!(0.0 < beta_start && beta_start <= beta_end && beta_end < 1.0);
        let betas: Vec<f32> = if n_steps == 1 {
            vec![beta_start]
        } else {
            (0..n_steps)
                .map(|i| beta_start + (beta_end - beta_start) * i as f32 / (n_steps - 1) as f32)
                .collect()
        };
        let alphas: Vec<f32> = betas.iter().map(|b| 1.0 - b).collect();
        let mut alpha_bars = Vec::with_capacity(n_steps);
        let mut acc = 1.0f32;
        for &a in &alphas {
            acc *= a;
            alpha_bars.push(acc);
        }
        NoiseSchedule {
            betas,
            alphas,
            alpha_bars,
        }
    }

    /// Total number of diffusion steps `N`.
    pub fn n_steps(&self) -> usize {
        self.betas.len()
    }

    /// `β_n` for `n ∈ 1..=N`.
    pub fn beta(&self, n: usize) -> f32 {
        self.betas[n - 1]
    }

    /// `α_n = 1 - β_n`.
    pub fn alpha(&self, n: usize) -> f32 {
        self.alphas[n - 1]
    }

    /// `ᾱ_n = Π_{m=1}^{n} α_m`.
    pub fn alpha_bar(&self, n: usize) -> f32 {
        self.alpha_bars[n - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_endpoints() {
        let s = NoiseSchedule::linear(1000);
        assert_eq!(s.n_steps(), 1000);
        assert!((s.beta(1) - 1e-4).abs() < 1e-9);
        assert!((s.beta(1000) - 0.02).abs() < 1e-7);
    }

    #[test]
    fn betas_monotone_increasing() {
        let s = NoiseSchedule::linear(100);
        for n in 2..=100 {
            assert!(s.beta(n) > s.beta(n - 1));
        }
    }

    #[test]
    fn alpha_bar_is_cumulative_product() {
        let s = NoiseSchedule::linear(10);
        let mut acc = 1.0f32;
        for n in 1..=10 {
            acc *= s.alpha(n);
            assert!((s.alpha_bar(n) - acc).abs() < 1e-7);
        }
    }

    #[test]
    fn alpha_bar_decays_toward_zero() {
        let s = NoiseSchedule::linear(1000);
        assert!(s.alpha_bar(1) > 0.99);
        assert!(s.alpha_bar(1000) < 0.01, "X_N must be nearly pure noise");
        for n in 2..=1000 {
            assert!(s.alpha_bar(n) < s.alpha_bar(n - 1));
        }
    }

    #[test]
    fn scaled_schedule_reaches_pure_noise_at_any_length() {
        for n in [20, 30, 50, 100, 500, 1000] {
            let s = NoiseSchedule::linear_scaled(n);
            assert!(
                s.alpha_bar(n) < 0.01,
                "n = {n}: alpha_bar = {} — X_N is not pure noise",
                s.alpha_bar(n)
            );
        }
        // At 1000 steps it coincides with the paper's schedule.
        let a = NoiseSchedule::linear_scaled(1000);
        let b = NoiseSchedule::linear(1000);
        assert!((a.beta(1) - b.beta(1)).abs() < 1e-9);
        assert!((a.beta(1000) - b.beta(1000)).abs() < 1e-9);
    }

    #[test]
    fn single_step_schedule() {
        let s = NoiseSchedule::linear(1);
        assert_eq!(s.n_steps(), 1);
        assert!((s.alpha_bar(1) - (1.0 - 1e-4)).abs() < 1e-9);
    }
}
