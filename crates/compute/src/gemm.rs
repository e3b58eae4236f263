//! Cache-blocked, row-parallel GEMM kernels on raw `f32` slices.
//!
//! All three variants accumulate (`C += …`) and preserve, for every output
//! element, the exact ascending-`p` accumulation order of the naive `ikj`
//! loops they replace — including the skip-zero fast path — so their
//! results are **bit-identical** to the single-threaded reference kernels
//! for any pool size. Parallelism is over disjoint row ranges of `C`;
//! blocking over the inner dimension keeps the active panel of `B` hot in
//! cache while a row chunk streams over it.
//!
//! The loop bodies of [`gemm_rows`] and [`gemm_at_b_rows`] are each
//! compiled twice from one source: for the baseline target, and inside a
//! `#[target_feature(enable = "avx2")]` wrapper chosen at run time on CPUs
//! that have AVX2. Both compilations perform the same IEEE `f32` multiply
//! then add per element in the same order — wider vectors only process more
//! independent columns at once — so they give the same bits. FMA is
//! deliberately not enabled and `mul_add` not used: fused rounding would
//! make a result depend on the host CPU.

use crate::pool::{num_threads, parallel_rows};

/// Inner-dimension block size (`f32` panel of `KB × n` stays cache-hot
/// while a row chunk streams over it).
pub const KB: usize = 64;

/// Below this many multiply-adds the parallel dispatch overhead dominates
/// and the kernels run inline on the calling thread.
const MIN_PAR_MADDS: usize = 32 * 1024;

/// Rows per chunk so each chunk has a meaningful amount of work.
fn grain_rows(per_row_madds: usize) -> usize {
    (4096 / per_row_madds.max(1)).max(1)
}

/// `C[m,n] += A[m,k] @ B[k,n]`, row-parallel and k-blocked.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm: A is not [m, k]");
    assert_eq!(b.len(), k * n, "gemm: B is not [k, n]");
    assert_eq!(c.len(), m * n, "gemm: C is not [m, n]");
    if m * k * n < MIN_PAR_MADDS || num_threads() == 1 {
        gemm_rows(a, b, c, m, k, n);
        return;
    }
    parallel_rows(c, n, grain_rows(k * n), |r0, c_rows| {
        let mc = c_rows.len() / n;
        gemm_rows(&a[r0 * k..(r0 + mc) * k], b, c_rows, mc, k, n);
    });
}

/// `crow += av · brow`, one pass over the row.
#[inline(always)]
fn axpy(av: f32, brow: &[f32], crow: &mut [f32]) {
    for (cv, &bv) in crow.iter_mut().zip(brow) {
        *cv += av * bv;
    }
}

/// The serial body of [`gemm`] for `mc` rows: k-blocked `ikj` with the
/// skip-zero fast path. Public so batched callers that already parallelize
/// over an outer dimension can reuse the blocked kernel inline.
///
/// Runs the AVX2 compilation of the one loop body when the CPU has AVX2
/// and the baseline compilation otherwise; both give the same bits (see
/// the [module docs](self)).
pub fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], mc: usize, k: usize, n: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_rows_avx2` only requires that the running CPU
        // supports AVX2, which the line above has just checked.
        return unsafe { gemm_rows_avx2(a, b, c, mc, k, n) };
    }
    gemm_rows_body(a, b, c, mc, k, n);
}

/// [`gemm_rows_body`] compiled with 256-bit vectors.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2(a: &[f32], b: &[f32], c: &mut [f32], mc: usize, k: usize, n: usize) {
    gemm_rows_body(a, b, c, mc, k, n);
}

/// The one loop body of [`gemm_rows`]. `p` is walked four at a time with
/// the `C` element held in a register across the four updates
/// (`v += a0·b0[j]; v += a1·b1[j]; …`): one load and one store of `C` per
/// four multiply-adds instead of four, in the same ascending-`p` order. A
/// group of four that contains a zero `a` takes the per-`p` skip-zero loop,
/// as does the tail of a `k` that is not a multiple of four.
#[inline(always)]
fn gemm_rows_body(a: &[f32], b: &[f32], c: &mut [f32], mc: usize, k: usize, n: usize) {
    for p0 in (0..k).step_by(KB) {
        let p1 = (p0 + KB).min(k);
        for i in 0..mc {
            let crow = &mut c[i * n..(i + 1) * n];
            for (g, a4) in a[i * k + p0..i * k + p1].chunks(4).enumerate() {
                let p = p0 + 4 * g;
                match *a4 {
                    [a0, a1, a2, a3] if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 => {
                        let (b0, rest) = b[p * n..(p + 4) * n].split_at(n);
                        let (b1, rest) = rest.split_at(n);
                        let (b2, b3) = rest.split_at(n);
                        for ((((cv, &x0), &x1), &x2), &x3) in
                            crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                        {
                            let mut v = *cv;
                            v += a0 * x0;
                            v += a1 * x1;
                            v += a2 * x2;
                            v += a3 * x3;
                            *cv = v;
                        }
                    }
                    _ => {
                        for (q, &av) in a4.iter().enumerate() {
                            if av != 0.0 {
                                axpy(av, &b[(p + q) * n..(p + q + 1) * n], crow);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `C[m,n] += Aᵀ @ B` with `A` stored `[k, m]`, row-parallel over `C`.
pub fn gemm_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "gemm_at_b: A is not [k, m]");
    assert_eq!(b.len(), k * n, "gemm_at_b: B is not [k, n]");
    assert_eq!(c.len(), m * n, "gemm_at_b: C is not [m, n]");
    if m * k * n < MIN_PAR_MADDS || num_threads() == 1 {
        gemm_at_b_rows(a, b, c, 0, m, m, k, n);
        return;
    }
    parallel_rows(c, n, grain_rows(k * n), |r0, c_rows| {
        let mc = c_rows.len() / n;
        gemm_at_b_rows(a, b, c_rows, r0, mc, m, k, n);
    });
}

/// Serial body of [`gemm_at_b`] for output rows `i0..i0 + mc`: `p`-outer
/// so each `B` row is loaded once per chunk pass, ascending `p` per output
/// element (bit-identical to the naive kernel). Dispatches between the two
/// compilations of its body like [`gemm_rows`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_at_b_rows(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    mc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_at_b_rows_avx2` only requires that the running CPU
        // supports AVX2, which the line above has just checked.
        return unsafe { gemm_at_b_rows_avx2(a, b, c, i0, mc, m, k, n) };
    }
    gemm_at_b_rows_body(a, b, c, i0, mc, m, k, n);
}

/// [`gemm_at_b_rows_body`] compiled with 256-bit vectors.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_at_b_rows_avx2(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    mc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_at_b_rows_body(a, b, c, i0, mc, m, k, n);
}

/// The one loop body of [`gemm_at_b_rows`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_at_b_rows_body(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    mc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    for p in 0..k {
        let arow = &a[p * m + i0..p * m + i0 + mc];
        let brow = &b[p * n..(p + 1) * n];
        for (ii, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                axpy(av, brow, &mut c[ii * n..(ii + 1) * n]);
            }
        }
    }
}

/// `C[m,n] += A @ Bᵀ` with `B` stored `[n, k]`, row-parallel over `C`.
pub fn gemm_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_a_bt: A is not [m, k]");
    assert_eq!(b.len(), n * k, "gemm_a_bt: B is not [n, k]");
    assert_eq!(c.len(), m * n, "gemm_a_bt: C is not [m, n]");
    if m * k * n < MIN_PAR_MADDS || num_threads() == 1 {
        gemm_a_bt_rows(a, b, c, m, k, n);
        return;
    }
    parallel_rows(c, n, grain_rows(k * n), |r0, c_rows| {
        let mc = c_rows.len() / n;
        gemm_a_bt_rows(&a[r0 * k..(r0 + mc) * k], b, c_rows, mc, k, n);
    });
}

/// Serial body of [`gemm_a_bt`] for `mc` rows: one ascending-`p` dot
/// product per output element.
pub fn gemm_a_bt_rows(a: &[f32], b: &[f32], c: &mut [f32], mc: usize, k: usize, n: usize) {
    for i in 0..mc {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_sequential;

    /// Naive reference `C += A @ B` (the pre-refactor kernel).
    fn naive_gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic xorshift values in [-1, 1]; no rand dependency.
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_bit_identical_to_naive_and_sequential() {
        for &(m, k, n) in &[(1, 1, 1), (7, 13, 5), (33, 65, 17), (64, 128, 96)] {
            let a = pseudo(m * k, 3);
            let b = pseudo(k * n, 5);
            let mut want = vec![0.0f32; m * n];
            naive_gemm(&a, &b, &mut want, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm(&a, &b, &mut got, m, k, n);
            assert_eq!(got, want, "parallel gemm differs at {m}x{k}x{n}");
            let mut seq = vec![0.0f32; m * n];
            run_sequential(|| gemm(&a, &b, &mut seq, m, k, n));
            assert_eq!(seq, want, "sequential gemm differs at {m}x{k}x{n}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_rows_both_compilations_bit_identical_to_naive() {
        // k straddles the group-of-four and the KB = 64 block boundaries.
        // Zero patterns in A: none; one per group of four; one whole group
        // out of every three; both at once. B carries an inf and a NaN so a
        // zero that was multiplied instead of skipped would show.
        type Zero = fn(usize) -> bool;
        let patterns: [(&str, Zero); 4] = [
            ("none", |_| false),
            ("one per group", |p| p % 4 == 1),
            ("whole group", |p| (p / 4) % 3 == 1),
            ("both", |p| p % 4 == 2 || (p / 4) % 3 == 0),
        ];
        for &k in &[1usize, 3, 4, 5, 63, 64, 65, 130] {
            for &(m, n) in &[(1usize, 1usize), (3, 7), (5, 33)] {
                for (name, is_zero) in &patterns {
                    let mut a = pseudo(m * k, 3);
                    for (idx, v) in a.iter_mut().enumerate() {
                        if is_zero(idx % k) {
                            *v = if idx % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                    let mut b = pseudo(k * n, 5);
                    b[0] = f32::INFINITY;
                    b[k * n - 1] = f32::NAN;
                    let start = pseudo(m * n, 7);
                    let mut want = start.clone();
                    naive_gemm(&a, &b, &mut want, m, k, n);
                    let mut dispatched = start.clone();
                    gemm_rows(&a, &b, &mut dispatched, m, k, n);
                    let mut baseline = start.clone();
                    gemm_rows_body(&a, &b, &mut baseline, m, k, n);
                    let case = format!("m={m} k={k} n={n} zeros={name}");
                    assert_eq!(bits(&dispatched), bits(&want), "dispatched, {case}");
                    assert_eq!(bits(&baseline), bits(&want), "baseline, {case}");
                }
            }
        }
    }

    #[test]
    fn gemm_at_b_rows_both_compilations_agree_on_a_row_range() {
        let (m, k, n) = (19, 37, 11);
        let mut a = pseudo(k * m, 7); // stored [k, m]
        a.iter_mut().step_by(6).for_each(|v| *v = 0.0);
        let b = pseudo(k * n, 9);
        let (i0, mc) = (4, 9);
        // Reference: rows i0..i0+mc of naive `Aᵀ @ B`.
        let mut at = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let mut full = vec![0.0f32; m * n];
        naive_gemm(&at, &b, &mut full, m, k, n);
        let want = &full[i0 * n..(i0 + mc) * n];
        let mut dispatched = vec![0.0f32; mc * n];
        gemm_at_b_rows(&a, &b, &mut dispatched, i0, mc, m, k, n);
        let mut baseline = vec![0.0f32; mc * n];
        gemm_at_b_rows_body(&a, &b, &mut baseline, i0, mc, m, k, n);
        assert_eq!(bits(&dispatched), bits(want));
        assert_eq!(bits(&baseline), bits(want));
    }

    #[test]
    fn gemm_at_b_matches_explicit_transpose() {
        let (m, k, n) = (19, 37, 11);
        let a = pseudo(k * m, 7); // stored [k, m]
        let b = pseudo(k * n, 9);
        // Reference: materialize Aᵀ then naive gemm.
        let mut at = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let mut want = vec![0.0f32; m * n];
        naive_gemm(&at, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_at_b(&a, &b, &mut got, m, k, n);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn gemm_a_bt_matches_explicit_transpose() {
        let (m, k, n) = (23, 31, 13);
        let a = pseudo(m * k, 11);
        let b = pseudo(n * k, 13); // stored [n, k]
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut want = vec![0.0f32; m * n];
        naive_gemm(&a, &bt, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_a_bt(&a, &b, &mut got, m, k, n);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn accumulates_into_nonzero_c() {
        let (m, k, n) = (3, 4, 2);
        let a = pseudo(m * k, 17);
        let b = pseudo(k * n, 19);
        let mut c = vec![1.0f32; m * n];
        let mut want = vec![1.0f32; m * n];
        naive_gemm(&a, &b, &mut want, m, k, n);
        gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(c, want);
    }
}
