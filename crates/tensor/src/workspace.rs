//! Forward-only execution: a [`Workspace`] arena and the kernels that run a
//! trained network over it without a tape.
//!
//! The autograd [`crate::Graph`] records a node, a closure and a fresh
//! tensor per op because training needs them. Inference needs only the
//! values, so the serving path runs here instead: activations are [`Buf`]
//! handles (an offset and a `[b, c, h, w]` shape) into one `f32` arena that
//! grows while the first forward runs and is then rewound, not freed, for
//! every later forward of the same shapes. A kernel allocates its output
//! first and its scratch after it, and rewinds to just past the output
//! before it returns; a layer made of several kernels ends with
//! [`Workspace::compact`], which keeps its result and drops the rest.
//!
//! **Every kernel returns the `f32` bits of the tape ops it stands for**, for
//! finite inputs, any batch and any pool width. Each output element of a
//! product keeps its ascending-`p` multiply-then-add chain from `+0.0`
//! through the same `odt_compute` GEMM entry points; since IEEE
//! multiplication commutes and such a chain never holds `-0.0`, skipping a
//! zero factor changes nothing, so `W·X` has the bits of `(Xᵀ·Wᵀ)ᵀ`
//! whichever operand the GEMM's skip-zero test looks at. That is what lets
//! a `Linear` run as `W·X` on the `[c, h·w]` maps the convolutions produce,
//! with the weight as stored and no transpose of either side. Sums stay
//! sequential per group, row or column in the tape's order (independent
//! ones interleave), and `tanh`/`exp` stay the libm calls the tape makes.
//! No kernel here records a histogram: `kernel.*` counts tape kernels only.

use crate::graph::{gelu, silu};
use crate::ops::{conv_out_size, im2col};
use crate::tensor::Tensor;
use odt_compute::gemm as pgemm;

/// A `[b, c, h, w]` activation (every extent at least 1) inside a
/// [`Workspace`]: where it starts and its shape. Plain data, so holding one
/// borrows nothing; it is meaningful only for the workspace that handed it
/// out, until that workspace is rewound past it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Buf {
    off: usize,
    shape: [usize; 4],
}

impl Buf {
    /// `[b, c, h, w]`.
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Channels `c0..c0 + n` of sample `bi`, as a one-sample buffer.
    fn channels(&self, bi: usize, c0: usize, n: usize) -> Buf {
        let [_, c, h, w] = self.shape;
        Buf {
            off: self.off + (bi * c + c0) * h * w,
            shape: [1, n, h, w],
        }
    }

    /// Sample `bi`, as a one-sample buffer.
    fn sample(&self, bi: usize) -> Buf {
        self.channels(bi, 0, self.shape[1])
    }
}

/// What a GEMM-backed kernel applies to each output element after the bias,
/// in the same pass: the elementwise op that follows it on the tape.
#[derive(Copy, Clone, Debug)]
pub enum Epilogue {
    /// Nothing.
    None,
    /// GELU (tanh approximation).
    Gelu,
    /// Add one scalar per `(sample, channel)` from a `[b, c, 1, 1]` buffer
    /// (OCConv's `FC_Cond` fusion, Eq. 15).
    AddChannel(Buf),
    /// Add a buffer of the output's shape (a residual shortcut).
    AddMap(Buf),
}

/// The arena outside one buffer that is being written.
pub struct Rest<'a> {
    lo: &'a [f32],
    hi: &'a [f32],
    hi_off: usize,
}

impl<'a> Rest<'a> {
    /// The elements of `b`, which must not overlap the buffer being written.
    pub fn get(&self, b: Buf) -> &'a [f32] {
        let n = b.numel();
        if b.off + n <= self.lo.len() {
            &self.lo[b.off..b.off + n]
        } else {
            &self.hi[b.off - self.hi_off..][..n]
        }
    }
}

/// One `f32` arena with stack discipline. See the [module docs](self).
#[derive(Default)]
pub struct Workspace {
    data: Vec<f32>,
    top: usize,
}

impl Workspace {
    /// An empty workspace; it allocates on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Floats the arena can hold before it has to grow.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// The current top of the stack, to [`Workspace::release`] back to.
    pub fn mark(&self) -> usize {
        self.top
    }

    /// Rewind to `mark`: every buffer allocated since is dead.
    pub fn release(&mut self, mark: usize) {
        assert!(mark <= self.top, "release to a mark above the top");
        self.top = mark;
    }

    /// Rewind to `mark` but keep `keep`, moved down to start there.
    pub fn compact(&mut self, mark: usize, keep: Buf) -> Buf {
        self.data
            .copy_within(keep.off..keep.off + keep.numel(), mark);
        self.top = mark + keep.numel();
        Buf { off: mark, ..keep }
    }

    /// A new buffer on top of the stack. Its contents are whatever the
    /// arena held there: every kernel writes all of its output.
    pub fn alloc(&mut self, shape: [usize; 4]) -> Buf {
        let buf = Buf {
            off: self.top,
            shape,
        };
        self.top += buf.numel();
        if self.top > self.data.len() {
            self.data.resize(self.top, 0.0);
        }
        buf
    }

    /// The elements of `b`.
    pub fn data(&self, b: Buf) -> &[f32] {
        &self.data[b.off..b.off + b.numel()]
    }

    /// The elements of `b`, writable.
    pub fn data_mut(&mut self, b: Buf) -> &mut [f32] {
        &mut self.data[b.off..b.off + b.numel()]
    }

    /// `w` writable together with read access to every other buffer.
    pub fn write(&mut self, w: Buf) -> (&mut [f32], Rest<'_>) {
        let (lo, rest) = self.data.split_at_mut(w.off);
        let (mid, hi) = rest.split_at_mut(w.numel());
        let hi_off = w.off + w.numel();
        (mid, Rest { lo, hi, hi_off })
    }

    /// [`crate::ops::conv2d`] followed by `epilogue`: per sample, im2col
    /// into the arena, the GEMM, then bias and epilogue in one pass. `w` is
    /// `[c_out, c_in, kh, kw]`, or `[c_out, c_in]` for a `Linear` applied to
    /// every pixel; a 1×1 stride-1 unpadded kernel reads `x` in place of an
    /// im2col copy.
    pub fn conv2d(
        &mut self,
        x: Buf,
        w: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        epilogue: Epilogue,
    ) -> Buf {
        let [b, c_in, h, wd] = x.shape;
        let (c_out, kh, kw) = match *w.shape() {
            [o, i] if i == c_in => (o, 1, 1),
            [o, i, kh, kw] if i == c_in => (o, kh, kw),
            _ => panic!("conv2d weight {:?} on {:?}", w.shape(), x.shape),
        };
        if let Some(bt) = bias {
            assert_eq!(bt.shape(), &[c_out], "conv2d bias must be [c_out]");
        }
        let ho = conv_out_size(h, kh, stride, pad);
        let wo = conv_out_size(wd, kw, stride, pad);
        let (k, n) = (c_in * kh * kw, ho * wo);
        let out = self.alloc([b, c_out, ho, wo]);
        let top = self.mark();
        let pointwise = k == c_in && stride == 1 && pad == 0;
        let cols = (!pointwise).then(|| self.alloc([1, 1, k, n]));
        for bi in 0..b {
            let mut src = x.sample(bi);
            if let Some(cols) = cols {
                let (dst, rest) = self.write(cols);
                let xs = rest.get(src);
                im2col(xs, c_in, h, wd, kh, kw, stride, pad, ho, wo, dst);
                src = cols;
            }
            let (o, rest) = self.write(out.sample(bi));
            o.fill(0.0);
            pgemm::gemm(w.data(), rest.get(src), o, c_out, k, n);
            for (co, row) in o.chunks_exact_mut(n).enumerate() {
                if let Some(bt) = bias {
                    let bv = bt.data()[co];
                    row.iter_mut().for_each(|v| *v += bv);
                }
                match epilogue {
                    Epilogue::None => {}
                    Epilogue::Gelu => row.iter_mut().for_each(|v| *v = gelu(*v)),
                    Epilogue::AddChannel(cv) => {
                        let a = rest.get(cv)[bi * c_out + co];
                        row.iter_mut().for_each(|v| *v += a);
                    }
                    Epilogue::AddMap(m) => {
                        let add = &rest.get(m)[(bi * c_out + co) * n..][..n];
                        row.iter_mut().zip(add).for_each(|(v, &a)| *v += a);
                    }
                }
            }
        }
        self.release(top);
        out
    }

    /// Group normalization with per-channel affine, the op-by-op form of
    /// `odt_nn::GroupNorm::forward` fused into a sum pass, a centred
    /// square-sum pass and a write pass per group; `silu_after` applies SiLU
    /// to each result in the write pass.
    pub fn group_norm(
        &mut self,
        x: Buf,
        groups: usize,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        silu_after: bool,
    ) -> Buf {
        let [_, c, h, w] = x.shape;
        assert!(groups > 0 && c % groups == 0, "groups must divide channels");
        assert_eq!(gamma.shape(), &[c], "groupnorm gamma must be [c]");
        assert_eq!(beta.shape(), &[c], "groupnorm beta must be [c]");
        let (gs, hw) = (c / groups, h * w);
        let inv_n = 1.0 / (gs * hw) as f32;
        let out = self.alloc(x.shape);
        let (o, rest) = self.write(out);
        let groups_in = rest.get(x).chunks_exact(gs * hw);
        for (gi, (xg, og)) in groups_in.zip(o.chunks_exact_mut(gs * hw)).enumerate() {
            let mut sum = 0.0f32;
            for &v in xg {
                sum += v;
            }
            let mean = sum * inv_n;
            let mut sq = 0.0f32;
            for &v in xg {
                sq += (v - mean) * (v - mean);
            }
            let std = (sq * inv_n + eps).sqrt();
            let c0 = gi % groups * gs;
            let planes = xg.chunks_exact(hw).zip(og.chunks_exact_mut(hw));
            for (ci, (xc, oc)) in planes.enumerate() {
                let (gv, bv) = (gamma.data()[c0 + ci], beta.data()[c0 + ci]);
                for (o, &v) in oc.iter_mut().zip(xc) {
                    let y = (v - mean) / std * gv + bv;
                    *o = if silu_after { silu(y) } else { y };
                }
            }
        }
        out
    }

    /// Layer normalization over the **channel** axis, per sample and pixel:
    /// [`crate::Graph::layernorm_lastdim`] on the transposed `[b, h·w, c]`
    /// token matrix, computed without transposing. Column statistics are
    /// accumulated row by row, each column in ascending channel order.
    pub fn layer_norm_channels(&mut self, x: Buf, gamma: &Tensor, beta: &Tensor, eps: f32) -> Buf {
        let [b, c, h, w] = x.shape;
        assert_eq!(gamma.shape(), &[c], "layernorm gamma must be [c]");
        assert_eq!(beta.shape(), &[c], "layernorm beta must be [c]");
        let t = h * w;
        // What the tape's `iter().sum::<f32>()` starts from (the std
        // library moved it from 0.0 to -0.0).
        let neutral: f32 = std::iter::empty::<f32>().sum();
        let out = self.alloc(x.shape);
        let top = self.mark();
        let stats = self.alloc([1, 1, 2, t]);
        for bi in 0..b {
            let (st, rest) = self.write(stats);
            let xs = rest.get(x.sample(bi));
            let (mean, inv) = st.split_at_mut(t);
            mean.fill(neutral);
            for row in xs.chunks_exact(t) {
                mean.iter_mut().zip(row).for_each(|(m, &v)| *m += v);
            }
            mean.iter_mut().for_each(|m| *m /= c as f32);
            inv.fill(neutral);
            for row in xs.chunks_exact(t) {
                for ((s, &m), &v) in inv.iter_mut().zip(mean.iter()).zip(row) {
                    *s += (v - m) * (v - m);
                }
            }
            inv.iter_mut()
                .for_each(|s| *s = 1.0 / (*s / c as f32 + eps).sqrt());
            let (o, rest) = self.write(out.sample(bi));
            let (xs, st) = (rest.get(x.sample(bi)), rest.get(stats));
            let (mean, inv) = st.split_at(t);
            for (ci, (orow, xrow)) in o.chunks_exact_mut(t).zip(xs.chunks_exact(t)).enumerate() {
                let (gv, bv) = (gamma.data()[ci], beta.data()[ci]);
                for (((o, &v), &m), &i) in orow.iter_mut().zip(xrow).zip(mean).zip(inv) {
                    *o = (v - m) * i * gv + bv;
                }
            }
        }
        self.release(top);
        out
    }

    /// Multi-head dot-product attention on features-major `q`, `k`, `v`
    /// (`[b, c, h, w]`, head `i` owning channels `i·c/heads..`): per sample
    /// and head, `logitsᵀ[key, query]` by `gemm_at_b`, the scale, a softmax
    /// down each column, and `ctxᵀ = Vᵀ·Pᵀ` written into the head's channels
    /// of the result. The tape's `[b·heads, t, c/heads]` form computes the
    /// same chains through three permutes each way.
    pub fn attend(&mut self, q: Buf, k: Buf, v: Buf, heads: usize) -> Buf {
        let [b, c, h, w] = q.shape;
        assert!(q.shape == k.shape && q.shape == v.shape, "q, k, v differ");
        assert!(heads > 0 && c % heads == 0, "heads must divide channels");
        let (t, dh) = (h * w, c / heads);
        let scale = 1.0 / (dh as f32).sqrt();
        let out = self.alloc(q.shape);
        let top = self.mark();
        // `t` rows of logits, then each query column's max and sum.
        let scratch = self.alloc([1, 1, t + 2, t]);
        for (bi, hd) in (0..b).flat_map(|bi| (0..heads).map(move |hd| (bi, hd))) {
            let head = |m: Buf| m.channels(bi, hd * dh, dh);
            let (s, rest) = self.write(scratch);
            let (p, stats) = s.split_at_mut(t * t);
            let (max, sum) = stats.split_at_mut(t);
            p.fill(0.0);
            pgemm::gemm_at_b(rest.get(head(k)), rest.get(head(q)), p, t, dh, t);
            max.fill(f32::NEG_INFINITY);
            for row in p.chunks_exact_mut(t) {
                for (l, m) in row.iter_mut().zip(max.iter_mut()) {
                    *l *= scale;
                    *m = m.max(*l);
                }
            }
            sum.fill(0.0);
            for row in p.chunks_exact_mut(t) {
                for ((l, &m), s) in row.iter_mut().zip(max.iter()).zip(sum.iter_mut()) {
                    *l = (*l - m).exp();
                    *s += *l;
                }
            }
            for row in p.chunks_exact_mut(t) {
                row.iter_mut().zip(sum.iter()).for_each(|(l, &s)| *l /= s);
            }
            let (o, rest) = self.write(head(out));
            o.fill(0.0);
            let p = &rest.get(scratch)[..t * t];
            pgemm::gemm(rest.get(head(v)), p, o, dh, t, t);
        }
        self.release(top);
        out
    }

    /// Nearest-neighbor 2× spatial upsampling ([`crate::ops::upsample_nearest2`]).
    pub fn upsample_nearest2(&mut self, x: Buf) -> Buf {
        let [b, c, h, w] = x.shape;
        let out = self.alloc([b, c, 2 * h, 2 * w]);
        let (o, rest) = self.write(out);
        let lines = rest.get(x).chunks_exact(w);
        for (line, two) in lines.zip(o.chunks_exact_mut(4 * w)) {
            let (upper, lower) = two.split_at_mut(2 * w);
            for (pair, &v) in upper.chunks_exact_mut(2).zip(line) {
                pair.fill(v);
            }
            lower.copy_from_slice(upper);
        }
        out
    }

    /// Concatenate two buffers along the channel axis.
    pub fn concat_channels(&mut self, a: Buf, b: Buf) -> Buf {
        let ([n, ca, h, w], [nb, cb, hb, wb]) = (a.shape, b.shape);
        assert_eq!([n, h, w], [nb, hb, wb], "concat_channels shape mismatch");
        let out = self.alloc([n, ca + cb, h, w]);
        let (o, rest) = self.write(out);
        let (la, lb) = (ca * h * w, cb * h * w);
        for (bi, sample) in o.chunks_exact_mut(la + lb).enumerate() {
            sample[..la].copy_from_slice(&rest.get(a)[bi * la..][..la]);
            sample[la..].copy_from_slice(&rest.get(b)[bi * lb..][..lb]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn ramp(ws: &mut Workspace, shape: [usize; 4], from: f32) -> Buf {
        let buf = ws.alloc(shape);
        for (i, v) in ws.data_mut(buf).iter_mut().enumerate() {
            *v = from + i as f32;
        }
        buf
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stack_discipline_keeps_what_compact_is_told_to() {
        let mut ws = Workspace::new();
        let a = ramp(&mut ws, [1, 2, 3, 1], 0.0);
        let mark = ws.mark();
        let b = ramp(&mut ws, [1, 1, 4, 1], 100.0);
        let c = ramp(&mut ws, [2, 1, 1, 5], 200.0);
        // Reads on both sides of the buffer being written.
        let (mid, rest) = ws.write(b);
        assert_eq!(mid, &[100.0, 101.0, 102.0, 103.0]);
        assert_eq!(rest.get(a)[5], 5.0);
        assert_eq!(rest.get(c)[9], 209.0);
        assert_eq!(rest.get(c.sample(1)), &[205.0, 206.0, 207.0, 208.0, 209.0]);
        let want = ws.data(c).to_vec();
        let kept = ws.compact(mark, c);
        assert_eq!(kept.shape(), c.shape());
        assert_eq!(ws.data(kept), &want[..]);
        assert_eq!(ws.mark(), mark + 10);
        assert_eq!(ws.data(a)[5], 5.0);
        // Rewinding frees nothing: the next buffer reuses the same floats.
        let capacity = ws.capacity();
        ws.release(0);
        let again = ws.alloc([1, 1, 1, 16]);
        assert_eq!(again.off, 0);
        assert_eq!(ws.capacity(), capacity);
    }

    #[test]
    fn upsample_and_concat_match_the_tensor_ops() {
        let mut ws = Workspace::new();
        let x = ramp(&mut ws, [2, 3, 4, 5], 1.0);
        let y = ramp(&mut ws, [2, 2, 4, 5], -50.0);
        let xt = Tensor::from_vec(ws.data(x).to_vec(), vec![2, 3, 4, 5]);
        let yt = Tensor::from_vec(ws.data(y).to_vec(), vec![2, 2, 4, 5]);
        let up = ws.upsample_nearest2(x);
        assert_eq!(up.shape(), [2, 3, 8, 10]);
        assert_eq!(bits(ws.data(up)), bits(ops::upsample_nearest2(&xt).data()));
        let cat = ws.concat_channels(x, y);
        assert_eq!(cat.shape(), [2, 5, 4, 5]);
        assert_eq!(
            bits(ws.data(cat)),
            bits(Tensor::concat(&[&xt, &yt], 1).data())
        );
    }
}
