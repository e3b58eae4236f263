//! Order statistics over timing samples.

use std::time::Instant;

/// Timing samples of one operation, in whatever unit the caller records.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// All samples of several sets as one.
    pub fn pooled<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Samples {
        Samples(sets.into_iter().flat_map(|s| s.0.iter().copied()).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples when the count is even).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }

    /// Nearest-rank quantile (`q` in `0..=1`).
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "quantile of no samples");
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

/// Time `calls` calls of `f` one by one; samples in the unit `per_second`
/// names (1e3 = ms, 1e6 = µs).
pub fn time_calls(calls: usize, per_second: f64, mut f: impl FnMut()) -> Samples {
    let mut out = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64() * per_second);
    }
    Samples(out)
}

/// Time `calls` batches of `inner` back-to-back calls of a sub-microsecond
/// `f`; samples are nanoseconds per single call.
pub fn time_tight(calls: usize, inner: usize, mut f: impl FnMut()) -> Samples {
    let mut out = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        out.push(t0.elapsed().as_secs_f64() * 1e9 / inner as f64);
    }
    Samples(out)
}
