//! Stand-in for exactly the `rand 0.8` API the crates under `crates/` call:
//! `StdRng`, `SeedableRng::seed_from_u64`, `Rng::gen_range` over half-open
//! ranges of `f32`/`f64`/integers, and `Rng::gen_bool`.
//!
//! The generator is SplitMix64, not ChaCha12, so noise draws differ from a
//! registry build bit for bit; the amount of work per draw and everything
//! downstream of it is the same. See `benchmark/README.md`, "Stand-ins".

use std::ops::Range;

/// Source of raw 64-bit draws.
pub trait RngCore {
    /// Next raw draw.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// Uniform draw in `[range.start, range.end)`; panics on an empty range,
    /// as `rand` does.
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let v = range.start + (range.end - range.start) * unit_f64(rng);
        // Rounding can land on `end`; keep the range half-open.
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f32>, rng: &mut R) -> f32 {
        assert!(range.start < range.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32;
        let v = range.start + (range.end - range.start) * unit;
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(range: Range<$t>, rng: &mut R) -> $t {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift reduction of a 64-bit draw onto `span`.
                let off = (rng.next_u64() as u128 * span) >> 64;
                (range.start as i128 + off as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    /// The standard seedable generator (SplitMix64 here).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}
