//! Heavy compute kernels: matrix multiplication, batched matmul, 2-D
//! convolution (forward and the two backward kernels) and nearest-neighbor
//! upsampling. The autograd [`crate::Graph`] dispatches into these.
//!
//! The hot kernels run on [`odt_compute`]: matmul uses the cache-blocked,
//! row-parallel GEMM; bmm is that GEMM's serial body once per batch item,
//! parallel over the batch; conv2d parallelizes over the batch (falling back
//! to a row-parallel GEMM for the single-sample serving path) with a
//! per-thread im2col scratch buffer so no call allocates a fresh `cols`
//! matrix. im2col fills each output row as zero edge, straight copy, zero
//! edge, with the valid range computed once per row rather than a bounds
//! test per element; a stride-1 kernel that keeps the width (every 3×3 same
//! conv) copies all valid rows of a tap as one shifted run of the input
//! plane and zeroes the edges afterwards. Every parallel split writes disjoint
//! output rows and preserves each element's ascending-`p` accumulation order,
//! so forward and grad-input results are **bit-identical** to the naive
//! single-threaded kernels (kept below under `#[cfg(test)]` as oracles) for
//! any `ODT_THREADS`. The one true reduction — conv2d's weight gradient over
//! the batch — uses the fixed-split deterministic reduce, so it is
//! bit-identical across pool sizes (though it may differ from the naive
//! serial sum by float associativity).
//!
//! Per-kernel wall-clock latency is recorded into `odt-obs` histograms
//! (`kernel.matmul`, `kernel.bmm`, `kernel.conv2d`, `kernel.conv2d_dx`,
//! `kernel.conv2d_dw`). These are the tape's kernels: training, the
//! estimator and the baselines run them. A served query's reverse steps run
//! the forward-only kernels of [`crate::Workspace`] instead, which share
//! [`im2col`] and the GEMM entry points with this module, return the same
//! bits and record no histogram.

use crate::tensor::Tensor;
use odt_compute::gemm as pgemm;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Fetch (once) a leaked histogram reference so the hot path never touches
/// the registry mutex.
fn khist(
    cell: &'static OnceLock<&'static odt_obs::Histogram>,
    name: &'static str,
) -> &'static odt_obs::Histogram {
    cell.get_or_init(|| odt_obs::histogram(name))
}

static H_MATMUL: OnceLock<&'static odt_obs::Histogram> = OnceLock::new();
static H_BMM: OnceLock<&'static odt_obs::Histogram> = OnceLock::new();
static H_CONV2D: OnceLock<&'static odt_obs::Histogram> = OnceLock::new();
static H_CONV2D_DX: OnceLock<&'static odt_obs::Histogram> = OnceLock::new();
static H_CONV2D_DW: OnceLock<&'static odt_obs::Histogram> = OnceLock::new();

thread_local! {
    /// Per-thread im2col scratch, reused across samples and calls so the
    /// conv kernels never allocate a fresh `cols` matrix per invocation.
    static COLS_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a per-thread scratch slice of exactly `len` floats. The
/// slice's contents are whatever the previous use left behind — callers must
/// fully overwrite (im2col does) or explicitly zero it.
fn with_cols_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    COLS_SCRATCH.with(|c| {
        let mut v = c.borrow_mut();
        if v.len() < len {
            v.resize(len, 0.0);
        }
        f(&mut v[..len])
    })
}

/// `C = A @ B` for 2-D matrices: `[m, k] @ [k, n] -> [m, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims differ: {:?} @ {:?}",
        a.shape(),
        b.shape()
    );
    let t0 = Instant::now();
    let mut out = Tensor::zeros(vec![m, n]);
    pgemm::gemm(a.data(), b.data(), out.data_mut(), m, k, n);
    khist(&H_MATMUL, "kernel.matmul").record(t0.elapsed());
    out
}

/// Batched matmul: `[b, m, k] @ [b, k, n] -> [b, m, n]`, parallel over the
/// batch; each item is one [`pgemm::gemm_rows`] call.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D");
    let (ba, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bb, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(ba, bb, "bmm batch dims differ");
    assert_eq!(k, k2, "bmm inner dims differ");
    let t0 = Instant::now();
    let mut out = Tensor::zeros(vec![ba, m, n]);
    if out.numel() == 0 {
        return out;
    }
    let ad = a.data();
    let bd = b.data();
    let grain = (4096 / (m * k * n).max(1)).max(1);
    odt_compute::parallel_rows(out.data_mut(), m * n, grain, |first, items| {
        for (off, o_item) in items.chunks_mut(m * n).enumerate() {
            let t = first + off;
            let a_item = &ad[t * m * k..(t + 1) * m * k];
            let b_item = &bd[t * k * n..(t + 1) * k * n];
            pgemm::gemm_rows(a_item, b_item, o_item, m, k, n);
        }
    });
    khist(&H_BMM, "kernel.bmm").record(t0.elapsed());
    out
}

/// Output spatial size of a convolution: `(in + 2*pad - kernel) / stride + 1`.
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(input + 2 * pad >= kernel, "kernel larger than padded input");
    (input + 2 * pad - kernel) / stride + 1
}

/// Unfold one NCHW sample into an im2col matrix `[c_in*kh*kw, ho*wo]`
/// (row-major into `cols`; every entry is written, so `cols` need not be
/// zeroed beforehand).
///
/// Each `(ci, ky, kx, oy)` picks one input row and one output row of `wo`
/// entries. The `ox` whose tap falls inside the image form one range,
/// computed once per row: the two edges are zero-filled and the middle is a
/// straight copy at stride 1, or a gather with no bounds test per element
/// otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col(
    sample: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    cols: &mut [f32],
) {
    debug_assert_eq!(cols.len(), c_in * kh * kw * ho * wo);
    for ci in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((ci * kh + ky) * kw + kx) * (ho * wo);
                // `ox` is valid when `0 <= ox*stride + kx - pad < w`.
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(wo);
                let ox_hi = if w + pad > kx {
                    ((w + pad - kx - 1) / stride + 1).clamp(ox_lo, wo)
                } else {
                    ox_lo
                };
                if stride == 1 && wo == w && ox_lo < ox_hi {
                    // Same-width rows: entry `(oy, ox)` reads the plane at a
                    // fixed distance, so the valid rows are one shifted run
                    // (clipped to the plane; what the clip drops is edge).
                    // Then the `ox` edges and the rows outside go to zero.
                    let oy_lo = pad.saturating_sub(ky).min(ho);
                    let oy_hi = (h + pad).saturating_sub(ky).clamp(oy_lo, ho);
                    let dst = &mut cols[row..row + ho * wo];
                    let plane = &sample[ci * h * w..(ci + 1) * h * w];
                    let back = pad * w + pad; // src = dst + ky*w + kx - back
                    let fwd = ky * w + kx;
                    let d0 = (oy_lo * w).max(back.saturating_sub(fwd));
                    let d1 = (oy_hi * w).min((h * w + back).saturating_sub(fwd));
                    dst[..oy_lo * w].fill(0.0);
                    dst[oy_hi * w..].fill(0.0);
                    if d0 < d1 {
                        dst[d0..d1].copy_from_slice(&plane[d0 + fwd - back..d1 + fwd - back]);
                    }
                    for line in dst[oy_lo * w..oy_hi * w].chunks_exact_mut(w) {
                        line[..ox_lo].fill(0.0);
                        line[ox_hi..].fill(0.0);
                    }
                    continue;
                }
                for oy in 0..ho {
                    let dst = &mut cols[row + oy * wo..row + (oy + 1) * wo];
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize || ox_lo == ox_hi {
                        dst.fill(0.0);
                        continue;
                    }
                    dst[..ox_lo].fill(0.0);
                    dst[ox_hi..].fill(0.0);
                    // First valid tap of this row; non-negative by choice of `ox_lo`.
                    let src = (ci * h + iy as usize) * w + ox_lo * stride + kx - pad;
                    let mid = &mut dst[ox_lo..ox_hi];
                    if stride == 1 {
                        mid.copy_from_slice(&sample[src..src + mid.len()]);
                    } else {
                        for (j, d) in mid.iter_mut().enumerate() {
                            *d = sample[src + j * stride];
                        }
                    }
                }
            }
        }
    }
}

/// Fold an im2col matrix back into an NCHW sample, accumulating overlaps —
/// the adjoint of [`im2col`].
#[allow(clippy::too_many_arguments)]
fn col2im(
    cols: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    sample: &mut [f32],
) {
    for ci in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((ci * kh + ky) * kw + kx) * (ho * wo);
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let in_row = (ci * h + iy as usize) * w;
                    for ox in 0..wo {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        sample[in_row + ix as usize] += cols[row + oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// 2-D convolution, NCHW layout, via im2col + GEMM.
///
/// * `x`: `[batch, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`: `[c_out]` (optional)
///
/// Returns `[batch, c_out, h_out, w_out]`. Parallel over the batch when
/// there is one (training / batched serving); a single sample instead
/// parallelizes the GEMM over output-channel rows. Both paths are
/// bit-identical to the serial reference for any pool size.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    assert_eq!(x.rank(), 4, "conv2d input must be NCHW");
    assert_eq!(
        weight.rank(),
        4,
        "conv2d weight must be [c_out, c_in, kh, kw]"
    );
    let (b, c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (c_out, c_in2, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c_in, c_in2, "conv2d channel mismatch");
    if let Some(bt) = bias {
        assert_eq!(bt.shape(), &[c_out], "conv2d bias must be [c_out]");
    }
    let ho = conv_out_size(h, kh, stride, pad);
    let wo = conv_out_size(w, kw, stride, pad);
    let k = c_in * kh * kw;
    let n = ho * wo;
    let t0 = Instant::now();
    let mut out = Tensor::zeros(vec![b, c_out, ho, wo]);
    if out.numel() == 0 {
        return out;
    }
    let xd = x.data();
    let wd = weight.data();
    let bias_d: Option<&[f32]> = bias.map(|bt| bt.data());
    let sample_x = c_in * h * w;
    let sample_o = c_out * n;
    if b == 1 {
        // Single sample (the per-query serving path): no batch dimension to
        // split, so parallelize the GEMM over output-channel rows instead.
        let od = out.data_mut();
        with_cols_scratch(k * n, |cols| {
            im2col(
                &xd[..sample_x],
                c_in,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                ho,
                wo,
                cols,
            );
            pgemm::gemm(wd, cols, od, c_out, k, n);
        });
        if let Some(bv) = bias_d {
            add_bias_rows(od, bv, c_out, n);
        }
    } else {
        odt_compute::parallel_rows(out.data_mut(), sample_o, 1, |b0, o_rows| {
            for (off, o_sample) in o_rows.chunks_mut(sample_o).enumerate() {
                let bi = b0 + off;
                with_cols_scratch(k * n, |cols| {
                    im2col(
                        &xd[bi * sample_x..(bi + 1) * sample_x],
                        c_in,
                        h,
                        w,
                        kh,
                        kw,
                        stride,
                        pad,
                        ho,
                        wo,
                        cols,
                    );
                    pgemm::gemm_rows(wd, cols, o_sample, c_out, k, n);
                });
                if let Some(bv) = bias_d {
                    add_bias_rows(o_sample, bv, c_out, n);
                }
            }
        });
    }
    khist(&H_CONV2D, "kernel.conv2d").record(t0.elapsed());
    out
}

/// Add a per-channel bias to one sample's `[c_out, n]` output block.
fn add_bias_rows(out_sample: &mut [f32], bias: &[f32], c_out: usize, n: usize) {
    for co in 0..c_out {
        let bv = bias[co];
        for o in &mut out_sample[co * n..(co + 1) * n] {
            *o += bv;
        }
    }
}

/// Gradient of conv2d w.r.t. the input (`dL/dx`), given upstream `dL/dy`:
/// `dcols = Wᵀ @ dy`, folded back with col2im. Parallel over the batch
/// (single-sample calls parallelize the transposed GEMM instead);
/// bit-identical to the serial reference for any pool size.
pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c_in, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (c_out, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let (ho, wo) = (grad_out.shape()[2], grad_out.shape()[3]);
    let k = c_in * kh * kw;
    let n = ho * wo;
    let t0 = Instant::now();
    let mut gx = Tensor::zeros(input_shape.to_vec());
    if gx.numel() == 0 {
        return gx;
    }
    let gd = grad_out.data();
    let wd = weight.data();
    let sample_x = c_in * h * w;
    if b == 1 {
        let gxd = gx.data_mut();
        with_cols_scratch(k * n, |dcols| {
            dcols.fill(0.0);
            // dcols [k, n] = W^T [k, c_out] @ gout [c_out, n]; W stored [c_out, k].
            pgemm::gemm_at_b(wd, &gd[..c_out * n], dcols, k, c_out, n);
            col2im(dcols, c_in, h, w, kh, kw, stride, pad, ho, wo, gxd);
        });
    } else {
        odt_compute::parallel_rows(gx.data_mut(), sample_x, 1, |b0, gx_rows| {
            for (off, gx_sample) in gx_rows.chunks_mut(sample_x).enumerate() {
                let bi = b0 + off;
                with_cols_scratch(k * n, |dcols| {
                    dcols.fill(0.0);
                    let gout_b = &gd[bi * c_out * n..(bi + 1) * c_out * n];
                    pgemm::gemm_at_b_rows(wd, gout_b, dcols, 0, k, k, c_out, n);
                    col2im(dcols, c_in, h, w, kh, kw, stride, pad, ho, wo, gx_sample);
                });
            }
        });
    }
    khist(&H_CONV2D_DX, "kernel.conv2d_dx").record(t0.elapsed());
    gx
}

/// How many batch samples each chunk of the weight-gradient reduction
/// folds. Fixed (not derived from the thread count) so the reduction's
/// chunk split — and therefore its float summation order — is identical
/// for every `ODT_THREADS`.
const DW_ITEMS_PER_CHUNK: usize = 4;

/// Gradient of conv2d w.r.t. the weight (`dL/dW`), given upstream `dL/dy`:
/// `dW = Σ_b dy_b @ cols_bᵀ`. The batch sum is a fixed-split deterministic
/// reduction: partial `dW` blocks are computed per chunk in parallel and
/// merged in chunk order, so the result is bit-identical across pool sizes
/// (it may differ from the naive serial sum by float associativity).
pub fn conv2d_grad_weight(
    grad_out: &Tensor,
    x: &Tensor,
    weight_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (c_out, _, kh, kw) = (
        weight_shape[0],
        weight_shape[1],
        weight_shape[2],
        weight_shape[3],
    );
    let (ho, wo) = (grad_out.shape()[2], grad_out.shape()[3]);
    let k = c_in * kh * kw;
    let n = ho * wo;
    let t0 = Instant::now();
    let mut gw = Tensor::zeros(weight_shape.to_vec());
    let w_len = gw.numel();
    if w_len == 0 || b == 0 {
        return gw;
    }
    let gd = grad_out.data();
    let xd = x.data();
    let sample_x = c_in * h * w;
    let partials = odt_compute::parallel_reduce_deterministic(
        b,
        DW_ITEMS_PER_CHUNK,
        || vec![0.0f32; w_len],
        |acc, bi| {
            with_cols_scratch(k * n, |cols| {
                im2col(
                    &xd[bi * sample_x..(bi + 1) * sample_x],
                    c_in,
                    h,
                    w,
                    kh,
                    kw,
                    stride,
                    pad,
                    ho,
                    wo,
                    cols,
                );
                let gout_b = &gd[bi * c_out * n..(bi + 1) * c_out * n];
                // dW [c_out, k] += gout [c_out, n] @ cols^T [n, k]; cols stored [k, n].
                pgemm::gemm_a_bt_rows(gout_b, cols, acc, c_out, n, k);
            });
        },
    );
    let gwd = gw.data_mut();
    for part in &partials {
        for (g, &p) in gwd.iter_mut().zip(part) {
            *g += p;
        }
    }
    khist(&H_CONV2D_DW, "kernel.conv2d_dw").record(t0.elapsed());
    gw
}

/// Gradient of conv2d w.r.t. the bias: sum of `dL/dy` over batch and space.
pub fn conv2d_grad_bias(grad_out: &Tensor) -> Tensor {
    let (b, c_out, ho, wo) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let mut gb = Tensor::zeros(vec![c_out]);
    let gd = grad_out.data();
    let gbd = gb.data_mut();
    // `co` also places the channel's plane in `gd`; zipping `gbd` with an
    // index would rewrite a loop the `train` workload times.
    #[allow(clippy::needless_range_loop)]
    for bi in 0..b {
        for co in 0..c_out {
            let base = ((bi * c_out + co) * ho) * wo;
            gbd[co] += gd[base..base + ho * wo].iter().sum::<f32>();
        }
    }
    gb
}

/// Nearest-neighbor 2× spatial upsampling, NCHW: `[b, c, h, w] -> [b, c, 2h, 2w]`.
pub fn upsample_nearest2(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 4, "upsample input must be NCHW");
    let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut out = Tensor::zeros(vec![b, c, 2 * h, 2 * w]);
    let xd = x.data();
    let od = out.data_mut();
    for bc in 0..b * c {
        for y in 0..h {
            for xx in 0..w {
                let v = xd[(bc * h + y) * w + xx];
                let base = bc * 4 * h * w;
                od[base + (2 * y) * 2 * w + 2 * xx] = v;
                od[base + (2 * y) * 2 * w + 2 * xx + 1] = v;
                od[base + (2 * y + 1) * 2 * w + 2 * xx] = v;
                od[base + (2 * y + 1) * 2 * w + 2 * xx + 1] = v;
            }
        }
    }
    out
}

/// Gradient of [`upsample_nearest2`]: each input pixel receives the sum of
/// its four output copies.
pub fn upsample_nearest2_grad(grad_out: &Tensor) -> Tensor {
    let (b, c, h2, w2) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    assert!(
        h2 % 2 == 0 && w2 % 2 == 0,
        "upsample grad expects even dims"
    );
    let (h, w) = (h2 / 2, w2 / 2);
    let mut gx = Tensor::zeros(vec![b, c, h, w]);
    let gd = grad_out.data();
    let gxd = gx.data_mut();
    for bc in 0..b * c {
        for y in 0..h {
            for xx in 0..w {
                let base = bc * h2 * w2;
                let s = gd[base + (2 * y) * w2 + 2 * xx]
                    + gd[base + (2 * y) * w2 + 2 * xx + 1]
                    + gd[base + (2 * y + 1) * w2 + 2 * xx]
                    + gd[base + (2 * y + 1) * w2 + 2 * xx + 1];
                gxd[(bc * h + y) * w + xx] = s;
            }
        }
    }
    gx
}

/// Naive single-threaded reference kernels, kept as test oracles for the
/// parallel implementations above.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The per-element im2col (a bounds test per entry) that
    /// [`super::im2col`] replaced.
    #[allow(clippy::too_many_arguments)]
    pub fn im2col_per_element(
        sample: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        ho: usize,
        wo: usize,
        cols: &mut [f32],
    ) {
        for ci in 0..c_in {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ci * kh + ky) * kw + kx) * (ho * wo);
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            cols[row + oy * wo + ox] = if inside {
                                sample[(ci * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// `C[m,n] += A[m,k] @ B[k,n]` on raw slices (ikj loop order).
    pub fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `C[m,n] += A^T[k,m] @ B[k,n]` where `A` is stored `[k, m]`.
    pub fn gemm_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for p in 0..k {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let crow = &mut c[i * n..(i + 1) * n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `C[m,n] += A[m,k] @ B^T[n,k]` where `B` is stored `[n, k]`.
    pub fn gemm_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// The pre-refactor serial conv2d forward (per-sample im2col + gemm).
    pub fn conv2d_naive(
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (c_out, _, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let ho = conv_out_size(h, kh, stride, pad);
        let wo = conv_out_size(w, kw, stride, pad);
        let k = c_in * kh * kw;
        let n = ho * wo;
        let mut out = Tensor::zeros(vec![b, c_out, ho, wo]);
        let xd = x.data();
        let wd = weight.data();
        let od = out.data_mut();
        let mut cols = vec![0.0f32; k * n];
        for bi in 0..b {
            im2col(
                &xd[bi * c_in * h * w..(bi + 1) * c_in * h * w],
                c_in,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                ho,
                wo,
                &mut cols,
            );
            let out_b = &mut od[bi * c_out * n..(bi + 1) * c_out * n];
            gemm_acc(wd, &cols, out_b, c_out, k, n);
            if let Some(bt) = bias {
                for co in 0..c_out {
                    let bv = bt.data()[co];
                    for o in &mut out_b[co * n..(co + 1) * n] {
                        *o += bv;
                    }
                }
            }
        }
        out
    }

    /// The pre-refactor serial grad-input kernel.
    pub fn conv2d_grad_input_naive(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, c_in, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let (c_out, _, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let (ho, wo) = (grad_out.shape()[2], grad_out.shape()[3]);
        let k = c_in * kh * kw;
        let n = ho * wo;
        let mut gx = Tensor::zeros(input_shape.to_vec());
        let gd = grad_out.data();
        let wd = weight.data();
        let gxd = gx.data_mut();
        let mut dcols = vec![0.0f32; k * n];
        for bi in 0..b {
            dcols.iter_mut().for_each(|v| *v = 0.0);
            let gout_b = &gd[bi * c_out * n..(bi + 1) * c_out * n];
            gemm_at_b_acc(wd, gout_b, &mut dcols, k, c_out, n);
            col2im(
                &dcols,
                c_in,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                ho,
                wo,
                &mut gxd[bi * c_in * h * w..(bi + 1) * c_in * h * w],
            );
        }
        gx
    }

    /// The pre-refactor serial grad-weight kernel.
    pub fn conv2d_grad_weight_naive(
        grad_out: &Tensor,
        x: &Tensor,
        weight_shape: &[usize],
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (c_out, _, kh, kw) = (
            weight_shape[0],
            weight_shape[1],
            weight_shape[2],
            weight_shape[3],
        );
        let (ho, wo) = (grad_out.shape()[2], grad_out.shape()[3]);
        let k = c_in * kh * kw;
        let n = ho * wo;
        let mut gw = Tensor::zeros(weight_shape.to_vec());
        let gd = grad_out.data();
        let xd = x.data();
        let gwd = gw.data_mut();
        let mut cols = vec![0.0f32; k * n];
        for bi in 0..b {
            im2col(
                &xd[bi * c_in * h * w..(bi + 1) * c_in * h * w],
                c_in,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                ho,
                wo,
                &mut cols,
            );
            let gout_b = &gd[bi * c_out * n..(bi + 1) * c_out * n];
            gemm_a_bt_acc(gout_b, &cols, gwd, c_out, n, k);
        }
        gw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_obs::SplitMix64;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], vec![2, 2]);
        assert_eq!(matmul(&a, &i).data(), a.data());
        assert_eq!(matmul(&i, &a).data(), a.data());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![2, 2, 3]);
        let b = Tensor::from_vec((0..12).map(|v| (v as f32) * 0.5).collect(), vec![2, 3, 2]);
        let c = bmm(&a, &b);
        for t in 0..2 {
            let at = a.slice(0, t, t + 1).reshape(vec![2, 3]);
            let bt = b.slice(0, t, t + 1).reshape(vec![3, 2]);
            let ct = matmul(&at, &bt);
            assert_eq!(c.slice(0, t, t + 1).reshape(vec![2, 2]).data(), ct.data());
        }
    }

    #[test]
    fn bmm_bit_identical_to_reference_gemm_per_batch() {
        // k on both sides of the GEMM's group of four and of its k-block;
        // every 5th entry of A is zero, so the fused and the per-p path run.
        for &k in &[1usize, 3, 4, 5, 17, 63, 64, 65, 130] {
            let (ba, m, n) = (3, 9, 7);
            let mut av = pseudo(ba * m * k, 21);
            av.iter_mut().step_by(5).for_each(|v| *v = 0.0);
            let a = Tensor::from_vec(av, vec![ba, m, k]);
            let b = Tensor::from_vec(pseudo(ba * k * n, 23), vec![ba, k, n]);
            let c = bmm(&a, &b);
            let mut want = vec![0.0f32; ba * m * n];
            for t in 0..ba {
                reference::gemm_acc(
                    &a.data()[t * m * k..(t + 1) * m * k],
                    &b.data()[t * k * n..(t + 1) * k * n],
                    &mut want[t * m * n..(t + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            assert_eq!(bits(c.data()), bits(&want), "k = {k}");
        }
    }

    #[test]
    fn im2col_bit_identical_to_per_element() {
        // (h, w) includes inputs narrower than the kernel (legal once padded).
        let sizes = [(7usize, 6usize), (5, 5), (4, 2), (2, 4), (1, 1), (3, 1)];
        let c_in = 2;
        for &(h, w) in &sizes {
            for &kk in &[1usize, 3, 4] {
                for &stride in &[1usize, 2] {
                    for &pad in &[0usize, 1, 2] {
                        if h + 2 * pad < kk || w + 2 * pad < kk {
                            continue;
                        }
                        let ho = conv_out_size(h, kk, stride, pad);
                        let wo = conv_out_size(w, kk, stride, pad);
                        let sample = pseudo(c_in * h * w, 71);
                        let len = c_in * kk * kk * ho * wo;
                        // Poisoned, so an entry left unwritten shows.
                        let mut got = vec![f32::NAN; len];
                        let mut want = vec![f32::NAN; len];
                        im2col(&sample, c_in, h, w, kk, kk, stride, pad, ho, wo, &mut got);
                        reference::im2col_per_element(
                            &sample, c_in, h, w, kk, kk, stride, pad, ho, wo, &mut want,
                        );
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "h={h} w={w} k={kk} stride={stride} pad={pad}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_out_sizes() {
        assert_eq!(conv_out_size(5, 3, 1, 1), 5); // same padding
        assert_eq!(conv_out_size(5, 3, 1, 0), 3); // valid
        assert_eq!(conv_out_size(6, 4, 2, 1), 3); // strided downsample
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel of weight 1 is the identity map.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), vec![1, 1, 3, 3]);
        let w = Tensor::from_vec(vec![1.0], vec![1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_box_filter_with_padding() {
        // 3x3 all-ones kernel with pad 1: center pixel sums whole 3x3 input.
        let x = Tensor::ones(vec![1, 1, 3, 3]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0); // center sees all 9
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0); // corner sees 4
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0); // edge sees 6
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        let w = Tensor::zeros(vec![2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], vec![2]);
        let y = conv2d(&x, &w, Some(&b), 1, 0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn conv2d_multi_channel_sums_inputs() {
        let x = Tensor::ones(vec![1, 3, 2, 2]);
        let w = Tensor::ones(vec![1, 3, 1, 1]);
        let y = conv2d(&x, &w, None, 1, 0);
        assert!(y.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_stride_two_downsamples() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), vec![1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], vec![1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, 2, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn conv2d_batched_bit_identical_to_naive() {
        let (b, c_in, h, w) = (5, 3, 7, 6);
        let (c_out, kh, kw, stride, pad) = (4, 3, 3, 1, 1);
        let x = Tensor::from_vec(pseudo(b * c_in * h * w, 31), vec![b, c_in, h, w]);
        let wt = Tensor::from_vec(
            pseudo(c_out * c_in * kh * kw, 33),
            vec![c_out, c_in, kh, kw],
        );
        let bias = Tensor::from_vec(pseudo(c_out, 35), vec![c_out]);
        let got = conv2d(&x, &wt, Some(&bias), stride, pad);
        let want = reference::conv2d_naive(&x, &wt, Some(&bias), stride, pad);
        assert_eq!(got.data(), want.data());
        assert_eq!(got.shape(), want.shape());
    }

    #[test]
    fn conv2d_grad_input_bit_identical_to_naive() {
        let (b, c_in, h, w) = (3, 2, 5, 5);
        let (c_out, kh, kw, stride, pad) = (3, 3, 3, 2, 1);
        let ho = conv_out_size(h, kh, stride, pad);
        let wo = conv_out_size(w, kw, stride, pad);
        let g = Tensor::from_vec(pseudo(b * c_out * ho * wo, 41), vec![b, c_out, ho, wo]);
        let wt = Tensor::from_vec(
            pseudo(c_out * c_in * kh * kw, 43),
            vec![c_out, c_in, kh, kw],
        );
        let shape = [b, c_in, h, w];
        let got = conv2d_grad_input(&g, &wt, &shape, stride, pad);
        let want = reference::conv2d_grad_input_naive(&g, &wt, &shape, stride, pad);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn conv2d_grad_weight_close_to_naive_and_deterministic() {
        // The batch reduction is fixed-split: bit-identical across pool
        // sizes, but allowed to differ from the naive serial sum by float
        // associativity — hence tolerance vs naive, equality vs sequential.
        let (b, c_in, h, w) = (6, 2, 5, 4);
        let (c_out, kh, kw, stride, pad) = (3, 3, 3, 1, 1);
        let ho = conv_out_size(h, kh, stride, pad);
        let wo = conv_out_size(w, kw, stride, pad);
        let x = Tensor::from_vec(pseudo(b * c_in * h * w, 51), vec![b, c_in, h, w]);
        let g = Tensor::from_vec(pseudo(b * c_out * ho * wo, 53), vec![b, c_out, ho, wo]);
        let shape = [c_out, c_in, kh, kw];
        let got = conv2d_grad_weight(&g, &x, &shape, stride, pad);
        let want = reference::conv2d_grad_weight_naive(&g, &x, &shape, stride, pad);
        for (a, e) in got.data().iter().zip(want.data()) {
            assert!((a - e).abs() <= 1e-5, "{a} vs {e}");
        }
        let mut seq = Tensor::zeros(vec![1]);
        odt_compute::run_sequential(|| {
            seq = conv2d_grad_weight(&g, &x, &shape, stride, pad);
        });
        assert_eq!(got.data(), seq.data());
    }

    #[test]
    fn conv_grad_bias_sums_everything_per_channel() {
        let g = Tensor::ones(vec![2, 3, 2, 2]);
        let gb = conv2d_grad_bias(&g);
        assert_eq!(gb.shape(), &[3]);
        assert!(gb.data().iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn upsample_and_grad_round_trip() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![1, 1, 2, 2]);
        let up = upsample_nearest2(&x);
        assert_eq!(up.shape(), &[1, 1, 4, 4]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(up.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 3, 3]), 4.0);
        // Sum over a one-tensor upstream grad = 4 copies of each pixel.
        let g = upsample_nearest2_grad(&Tensor::ones(vec![1, 1, 4, 4]));
        assert!(g.data().iter().all(|&v| v == 4.0));
    }

    // The parallel-equivalence suite: every kernel on `odt-compute` against
    // its `reference` oracle over randomized shapes (including sizes that are
    // not multiples of the GEMM's k-block of 64) and against
    // `odt_compute::run_sequential`, the single-lane mode `ODT_THREADS=1`
    // pins. matmul, bmm, conv2d forward and grad-input keep the per-element
    // accumulation order, so they are bit-identical to both; grad-weight's
    // fixed-split batch reduction is bit-identical to the sequential run and
    // within tolerance of the definition's serial sum. Case `n` draws from
    // `SplitMix64::new(n)`, so the case number in a failure is its seed.

    const CASES: u64 = 48;

    /// Uniform draw in `lo..=hi`.
    fn between(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
        lo + rng.next_below((hi - lo + 1) as u64) as usize
    }

    /// A tensor of `shape` with values in `[-1, 1)`.
    fn tensor_of(rng: &mut SplitMix64, shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Conv operands small enough to be fast but covering strides, padding,
    /// multi-channel and batch > 1.
    struct ConvCase {
        x: Tensor,
        w: Tensor,
        bias: Tensor,
        stride: usize,
        pad: usize,
    }

    fn conv_case(rng: &mut SplitMix64) -> ConvCase {
        let (b, c_in) = (between(rng, 1, 4), between(rng, 1, 3));
        let (h, w) = (between(rng, 3, 8), between(rng, 3, 8));
        let c_out = between(rng, 1, 3);
        let kk = [1, 3][between(rng, 0, 1)];
        ConvCase {
            x: tensor_of(rng, vec![b, c_in, h, w]),
            w: tensor_of(rng, vec![c_out, c_in, kk, kk]),
            bias: tensor_of(rng, vec![c_out]),
            stride: between(rng, 1, 2),
            pad: between(rng, 0, 1),
        }
    }

    #[test]
    fn matmul_equivalent() {
        for case in 0..CASES {
            let mut rng = SplitMix64::new(case);
            let (m, k, n) = (
                between(&mut rng, 1, 20),
                between(&mut rng, 1, 130),
                between(&mut rng, 1, 20),
            );
            let a = tensor_of(&mut rng, vec![m, k]);
            let b = tensor_of(&mut rng, vec![k, n]);
            let par = matmul(&a, &b);
            let seq = odt_compute::run_sequential(|| matmul(&a, &b));
            let mut want = vec![0.0f32; m * n];
            reference::gemm_acc(a.data(), b.data(), &mut want, m, k, n);
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: [{m},{k}]x[{k},{n}] vs sequential"
            );
            assert_eq!(
                bits(par.data()),
                bits(&want),
                "case {case}: [{m},{k}]x[{k},{n}] vs reference"
            );
        }
    }

    #[test]
    fn bmm_equivalent() {
        for case in 0..CASES {
            let mut rng = SplitMix64::new(case);
            let (ba, m, k, n) = (
                between(&mut rng, 1, 4),
                between(&mut rng, 1, 12),
                between(&mut rng, 1, 16),
                between(&mut rng, 1, 12),
            );
            let a = tensor_of(&mut rng, vec![ba, m, k]);
            let b = tensor_of(&mut rng, vec![ba, k, n]);
            let par = bmm(&a, &b);
            let seq = odt_compute::run_sequential(|| bmm(&a, &b));
            let mut want = vec![0.0f32; ba * m * n];
            for t in 0..ba {
                reference::gemm_acc(
                    &a.data()[t * m * k..(t + 1) * m * k],
                    &b.data()[t * k * n..(t + 1) * k * n],
                    &mut want[t * m * n..(t + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: vs sequential"
            );
            assert_eq!(bits(par.data()), bits(&want), "case {case}: vs reference");
        }
    }

    #[test]
    fn conv2d_forward_equivalent() {
        for case in 0..CASES {
            let ConvCase {
                x,
                w,
                bias,
                stride,
                pad,
            } = conv_case(&mut SplitMix64::new(case));
            let par = conv2d(&x, &w, Some(&bias), stride, pad);
            let seq = odt_compute::run_sequential(|| conv2d(&x, &w, Some(&bias), stride, pad));
            let want = reference::conv2d_naive(&x, &w, Some(&bias), stride, pad);
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: vs sequential"
            );
            assert_eq!(
                bits(par.data()),
                bits(want.data()),
                "case {case}: vs reference"
            );
        }
    }

    #[test]
    fn conv2d_grad_input_equivalent() {
        for case in 0..CASES {
            let ConvCase {
                x, w, stride, pad, ..
            } = conv_case(&mut SplitMix64::new(case));
            let y = conv2d(&x, &w, None, stride, pad);
            let g = y.map(|v| v * 0.5 + 0.1); // arbitrary upstream gradient
            let par = conv2d_grad_input(&g, &w, x.shape(), stride, pad);
            let seq =
                odt_compute::run_sequential(|| conv2d_grad_input(&g, &w, x.shape(), stride, pad));
            let want = reference::conv2d_grad_input_naive(&g, &w, x.shape(), stride, pad);
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: vs sequential"
            );
            assert_eq!(
                bits(par.data()),
                bits(want.data()),
                "case {case}: vs reference"
            );
        }
    }

    #[test]
    fn conv2d_grad_weight_equivalent() {
        for case in 0..CASES {
            let ConvCase {
                x, w, stride, pad, ..
            } = conv_case(&mut SplitMix64::new(case));
            let y = conv2d(&x, &w, None, stride, pad);
            let g = y.map(|v| v * 0.25 - 0.05);
            let par = conv2d_grad_weight(&g, &x, w.shape(), stride, pad);
            let seq =
                odt_compute::run_sequential(|| conv2d_grad_weight(&g, &x, w.shape(), stride, pad));
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: vs sequential"
            );
            // Definition: dW[co,ci,ky,kx] = Σ_{b,oy,ox} g[b,co,oy,ox] · x[...].
            let (b, c_in, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            let (c_out, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
            let (ho, wo) = (g.shape()[2], g.shape()[3]);
            for co in 0..c_out {
                for ci in 0..c_in {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let mut acc = 0.0f64;
                            for bi in 0..b {
                                for oy in 0..ho {
                                    for ox in 0..wo {
                                        let iy = (oy * stride + ky) as isize - pad as isize;
                                        let ix = (ox * stride + kx) as isize - pad as isize;
                                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= wd as isize
                                        {
                                            continue;
                                        }
                                        let gv = g.data()[((bi * c_out + co) * ho + oy) * wo + ox];
                                        let xv = x.data()[((bi * c_in + ci) * h + iy as usize)
                                            * wd
                                            + ix as usize];
                                        acc += (gv * xv) as f64;
                                    }
                                }
                            }
                            let got = par.data()[((co * c_in + ci) * kh + ky) * kw + kx];
                            assert!(
                                (got as f64 - acc).abs() <= 1e-4 * (1.0 + acc.abs()),
                                "case {case}: dW[{co},{ci},{ky},{kx}] = {got} vs {acc}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_equivalent() {
        for case in 0..CASES {
            let mut rng = SplitMix64::new(case);
            let (rows, inner) = (between(&mut rng, 1, 32), between(&mut rng, 1, 40));
            let t = tensor_of(&mut rng, vec![rows, inner]);
            let par = t.softmax_lastdim();
            let seq = odt_compute::run_sequential(|| t.softmax_lastdim());
            assert_eq!(
                bits(par.data()),
                bits(seq.data()),
                "case {case}: vs sequential"
            );
            for (r, row) in par.data().chunks(inner).enumerate() {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "case {case}: row {r} sums to {s}");
            }
        }
    }
}
