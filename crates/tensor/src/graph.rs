//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is an append-only tape of operations. Every op returns a
//! [`Var`] (an index into the tape) and records a backward closure that maps
//! an upstream gradient to per-parent gradient contributions. Calling
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients;
//! gradients that reach [`crate::Param`] leaves are added to the shared
//! parameter storage that the optimizer reads.
//!
//! One graph is built per training step and discarded afterwards. The
//! backward sweep consumes the tape as it goes: each node's backward
//! closure (and the activations it captured) and each interior gradient is
//! freed as soon as the sweep has passed it, so the sweep's high-water mark
//! is the forward tape plus the gradients still waiting to flow, not the
//! tape plus every gradient. A tape can therefore be swept once.

use crate::ops;
use crate::param::Param;
use crate::tensor::Tensor;
use std::cell::{Cell, RefCell};

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// GELU (tanh approximation) of one element: the one definition the tape
/// and the forward-only kernels share, so their bits cannot drift apart.
pub(crate) fn gelu(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    0.5 * x * (1.0 + u.tanh())
}

/// SiLU of one element, shared like [`gelu`].
pub(crate) fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Handle to a node on the tape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(usize);

type BackFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    parents: Vec<usize>,
    backward: Option<BackFn>,
    param: Option<Param>,
}

/// The autograd tape. See the [module docs](self) for the execution model.
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    /// Set by the backward sweep, which takes the closures with it.
    swept: Cell<bool>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, value: Tensor, parents: Vec<usize>, backward: Option<BackFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            parents,
            backward,
            param: None,
        });
        Var(nodes.len() - 1)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Record a constant input (no gradient flows into it).
    pub fn input(&self, t: Tensor) -> Var {
        self.push(t, vec![], None)
    }

    /// Record a trainable parameter leaf. After [`Graph::backward`], the
    /// gradient that reached this node is accumulated into `p`.
    pub fn param(&self, p: &Param) -> Var {
        let v = self.push(p.value(), vec![], None);
        self.nodes.borrow_mut()[v.0].param = Some(p.clone());
        v
    }

    /// Snapshot of a node's value.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.0].value.shape().to_vec()
    }

    /// Gradient that [`Graph::backward`] left at a leaf ([`Graph::input`],
    /// [`Graph::param`], [`Graph::detach`]). `None` for a leaf no gradient
    /// reached, and for every node an op produced: the sweep frees interior
    /// gradients as it passes them.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    /// Re-enter a value as a fresh constant, cutting the gradient flow.
    pub fn detach(&self, v: Var) -> Var {
        let t = self.value(v);
        self.input(t)
    }

    // ------------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // ------------------------------------------------------------------

    /// Broadcasting elementwise addition.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        let out = va.add(&vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                vec![g.reduce_to_shape(&sa), g.reduce_to_shape(&sb)]
            })),
        )
    }

    /// Broadcasting elementwise subtraction.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        let out = va.sub(&vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                vec![g.reduce_to_shape(&sa), g.neg().reduce_to_shape(&sb)]
            })),
        )
    }

    /// Broadcasting elementwise multiplication.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        let out = va.mul(&vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                vec![
                    g.mul(&vb).reduce_to_shape(&sa),
                    g.mul(&va).reduce_to_shape(&sb),
                ]
            })),
        )
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        let out = va.div(&vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                let ga = g.div(&vb).reduce_to_shape(&sa);
                let gb = g.mul(&va).div(&vb.mul(&vb)).neg().reduce_to_shape(&sb);
                vec![ga, gb]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Elementwise unary
    // ------------------------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let out = self.value(a).neg();
        self.push(out, vec![a.0], Some(Box::new(|g| vec![g.neg()])))
    }

    /// Multiply by a compile-time scalar.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.value(a).scale(s);
        self.push(out, vec![a.0], Some(Box::new(move |g| vec![g.scale(s)])))
    }

    /// Add a compile-time scalar.
    pub fn add_scalar(&self, a: Var, s: f32) -> Var {
        let out = self.value(a).add_scalar(s);
        self.push(out, vec![a.0], Some(Box::new(|g| vec![g.clone()])))
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let va = self.value(a);
        let out = va.map(|v| v.max(0.0));
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&va, |gv, xv| if xv > 0.0 { gv } else { 0.0 })]
            })),
        )
    }

    /// GELU (tanh approximation), as used by the paper's OCConv blocks.
    pub fn gelu(&self, a: Var) -> Var {
        let va = self.value(a);
        let out = va.map(gelu);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&va, |gv, x| {
                    let u = GELU_C * (x + GELU_A * x * x * x);
                    let t = u.tanh();
                    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
                    gv * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
                })]
            })),
        )
    }

    /// Sigmoid logistic function.
    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let saved = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&saved, |gv, s| gv * s * (1.0 - s))]
            })),
        )
    }

    /// SiLU / swish: `x * sigmoid(x)`.
    pub fn silu(&self, a: Var) -> Var {
        let va = self.value(a);
        let out = va.map(silu);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&va, |gv, x| {
                    let s = 1.0 / (1.0 + (-x).exp());
                    gv * (s + x * s * (1.0 - s))
                })]
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = self.value(a).map(f32::tanh);
        let saved = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&saved, |gv, t| gv * (1.0 - t * t))]
            })),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        let out = self.value(a).map(f32::exp);
        let saved = out.clone();
        self.push(out, vec![a.0], Some(Box::new(move |g| vec![g.mul(&saved)])))
    }

    /// Elementwise natural log.
    pub fn ln(&self, a: Var) -> Var {
        let va = self.value(a);
        let out = va.map(f32::ln);
        self.push(out, vec![a.0], Some(Box::new(move |g| vec![g.div(&va)])))
    }

    /// Elementwise square root.
    pub fn sqrt(&self, a: Var) -> Var {
        let out = self.value(a).map(f32::sqrt);
        let saved = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&saved, |gv, s| gv * 0.5 / s)]
            })),
        )
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        let va = self.value(a);
        let out = va.map(|x| x * x);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![g.zip_broadcast(&va, |gv, x| gv * 2.0 * x)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix multiplication.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let out = ops::matmul(&va, &vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                let ga = ops::matmul(g, &vb.transpose2());
                let gb = ops::matmul(&va.transpose2(), g);
                vec![ga, gb]
            })),
        )
    }

    /// Batched 3-D matrix multiplication.
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        let out = ops::bmm(&va, &vb);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g| {
                let ga = ops::bmm(g, &vb.permute(&[0, 2, 1]));
                let gb = ops::bmm(&va.permute(&[0, 2, 1]), g);
                vec![ga, gb]
            })),
        )
    }

    /// 2-D convolution (NCHW); see [`ops::conv2d`].
    pub fn conv2d(&self, x: Var, weight: Var, bias: Option<Var>, stride: usize, pad: usize) -> Var {
        let vx = self.value(x);
        let vw = self.value(weight);
        let vb = bias.map(|b| self.value(b));
        let out = ops::conv2d(&vx, &vw, vb.as_ref(), stride, pad);
        let mut parents = vec![x.0, weight.0];
        if let Some(b) = bias {
            parents.push(b.0);
        }
        let has_bias = bias.is_some();
        let xs = vx.shape().to_vec();
        let ws = vw.shape().to_vec();
        self.push(
            out,
            parents,
            Some(Box::new(move |g| {
                let gx = ops::conv2d_grad_input(g, &vw, &xs, stride, pad);
                let gw = ops::conv2d_grad_weight(g, &vx, &ws, stride, pad);
                let mut grads = vec![gx, gw];
                if has_bias {
                    grads.push(ops::conv2d_grad_bias(g));
                }
                grads
            })),
        )
    }

    /// Nearest-neighbor 2× upsampling (NCHW).
    pub fn upsample_nearest2(&self, x: Var) -> Var {
        let out = ops::upsample_nearest2(&self.value(x));
        self.push(
            out,
            vec![x.0],
            Some(Box::new(|g| vec![ops::upsample_nearest2_grad(g)])),
        )
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshape preserving element count.
    pub fn reshape(&self, a: Var, shape: Vec<usize>) -> Var {
        let va = self.value(a);
        let orig = va.shape().to_vec();
        let out = va.reshape(shape);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| vec![g.reshape(orig.clone())])),
        )
    }

    /// Permute dimensions.
    pub fn permute(&self, a: Var, perm: &[usize]) -> Var {
        let out = self.value(a).permute(perm);
        // The inverse permutation maps gradients back.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| vec![g.permute(&inv)])),
        )
    }

    /// Concatenate along `axis`.
    pub fn concat(&self, vars: &[Var], axis: usize) -> Var {
        let values: Vec<Tensor> = vars.iter().map(|&v| self.value(v)).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let out = Tensor::concat(&refs, axis);
        let sizes: Vec<usize> = values.iter().map(|t| t.shape()[axis]).collect();
        let parents = vars.iter().map(|v| v.0).collect();
        self.push(
            out,
            parents,
            Some(Box::new(move |g| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut offset = 0;
                for &s in &sizes {
                    grads.push(g.slice(axis, offset, offset + s));
                    offset += s;
                }
                grads
            })),
        )
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice(&self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let va = self.value(a);
        let orig = va.shape().to_vec();
        let out = va.slice(axis, start, end);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                // Scatter the gradient back into a zero tensor of the
                // original shape.
                let mut full = Tensor::zeros(orig.clone());
                let outer: usize = orig[..axis].iter().product();
                let inner: usize = orig[axis + 1..].iter().product();
                let a_len = orig[axis];
                let s_len = end - start;
                let gd = g.data();
                let fd = full.data_mut();
                for o in 0..outer {
                    let src = o * s_len * inner;
                    let dst = (o * a_len + start) * inner;
                    fd[dst..dst + s_len * inner].copy_from_slice(&gd[src..src + s_len * inner]);
                }
                vec![full]
            })),
        )
    }

    /// Select rows along axis 0 (embedding lookup / masked gather).
    pub fn index_select0(&self, a: Var, indices: &[usize]) -> Var {
        let va = self.value(a);
        let dim0 = va.shape()[0];
        let out = va.index_select0(indices);
        let idx = indices.to_vec();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| vec![g.index_add0(&idx, dim0)])),
        )
    }

    // ------------------------------------------------------------------
    // Reductions & normalization helpers
    // ------------------------------------------------------------------

    /// Sum all elements into a `[1]` tensor.
    pub fn sum_all(&self, a: Var) -> Var {
        let va = self.value(a);
        let shape = va.shape().to_vec();
        let out = Tensor::scalar(va.sum());
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                vec![Tensor::full(shape.clone(), g.data()[0])]
            })),
        )
    }

    /// Mean of all elements into a `[1]` tensor.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = self.value(a).numel().max(1) as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Sum along one axis.
    pub fn sum_axis(&self, a: Var, axis: usize, keepdim: bool) -> Var {
        let va = self.value(a);
        let orig = va.shape().to_vec();
        let out = va.sum_axis(axis, keepdim);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                // Broadcast the reduced gradient back over the summed axis.
                let mut keep_shape = orig.clone();
                keep_shape[axis] = 1;
                let gk = if g.shape().len() == orig.len() {
                    g.clone()
                } else {
                    g.reshape(keep_shape)
                };
                vec![gk.add(&Tensor::zeros(orig.clone()))]
            })),
        )
    }

    /// Mean along one axis.
    pub fn mean_axis(&self, a: Var, axis: usize, keepdim: bool) -> Var {
        let n = self.value(a).shape()[axis].max(1) as f32;
        let s = self.sum_axis(a, axis, keepdim);
        self.scale(s, 1.0 / n)
    }

    /// Softmax along the last dimension.
    pub fn softmax_lastdim(&self, a: Var) -> Var {
        let out = self.value(a).softmax_lastdim();
        let saved = out.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g| {
                // dL/dx = s ⊙ (g - sum(g ⊙ s, lastdim, keepdim))
                let gs = g.mul(&saved);
                let rank = saved.rank();
                let dot = gs.sum_axis(rank - 1, true);
                vec![saved.mul(&g.sub(&dot))]
            })),
        )
    }

    /// Fused layer normalization over the last dimension with affine
    /// parameters: `y = γ ⊙ (x − μ)/√(σ² + ε) + β` per row. One tape node
    /// instead of the eight-op composed form; forward and backward are
    /// row-parallel over disjoint ranges and bit-identical for any pool
    /// size (the dγ/dβ row sums stay serial, in fixed row order).
    pub fn layernorm_lastdim(&self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let vx = self.value(x);
        let vg = self.value(gamma);
        let vb = self.value(beta);
        let d = *vx.shape().last().expect("layernorm needs rank >= 1");
        assert!(d > 0, "layernorm needs a non-empty last dimension");
        assert_eq!(vg.shape(), &[d], "layernorm gamma must be [d]");
        assert_eq!(vb.shape(), &[d], "layernorm beta must be [d]");
        let rows = vx.numel() / d;
        let grain = (4096 / d).max(1);
        // Forward: x̂ = (x − μ)/√(σ² + ε) per row, saved together with 1/σ
        // for the backward pass; y = γ ⊙ x̂ + β.
        let mut xhat = vx;
        let mut inv_std = vec![0.0f32; rows];
        odt_compute::parallel_rows2(
            xhat.data_mut(),
            &mut inv_std,
            d,
            1,
            grain,
            |_, xs, stats| {
                for (row, s) in xs.chunks_mut(d).zip(stats.iter_mut()) {
                    let mean = row.iter().sum::<f32>() / d as f32;
                    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    for v in row.iter_mut() {
                        *v = (*v - mean) * inv;
                    }
                    *s = inv;
                }
            },
        );
        let mut out = xhat.clone();
        {
            let gdat = vg.data();
            let bdat = vb.data();
            odt_compute::parallel_rows(out.data_mut(), d, grain, |_, ys| {
                for row in ys.chunks_mut(d) {
                    for ((y, &gv), &bv) in row.iter_mut().zip(gdat).zip(bdat) {
                        *y = *y * gv + bv;
                    }
                }
            });
        }
        self.push(
            out,
            vec![x.0, gamma.0, beta.0],
            Some(Box::new(move |g| {
                let gd = g.data();
                let n_rows = inv_std.len();
                // dβ = Σ_rows G ; dγ = Σ_rows G ⊙ x̂ (serial, fixed row order).
                let mut dgamma = Tensor::zeros(vec![d]);
                let mut dbeta = Tensor::zeros(vec![d]);
                {
                    let dg = dgamma.data_mut();
                    let db = dbeta.data_mut();
                    let xh = xhat.data();
                    for r in 0..n_rows {
                        let grow = &gd[r * d..(r + 1) * d];
                        let xrow = &xh[r * d..(r + 1) * d];
                        for j in 0..d {
                            dg[j] += grow[j] * xrow[j];
                            db[j] += grow[j];
                        }
                    }
                }
                // dx = (1/σ)(ĝ − mean(ĝ) − x̂ ⊙ mean(ĝ ⊙ x̂)) with ĝ = γ ⊙ G.
                let mut dx = g.clone();
                let gam = vg.data();
                let xh = xhat.data();
                let inv = &inv_std;
                odt_compute::parallel_rows(dx.data_mut(), d, (4096 / d).max(1), |r0, drows| {
                    for (off, row) in drows.chunks_mut(d).enumerate() {
                        let r = r0 + off;
                        let xrow = &xh[r * d..(r + 1) * d];
                        let mut m1 = 0.0f32; // mean(ĝ)
                        let mut m2 = 0.0f32; // mean(ĝ ⊙ x̂)
                        for ((v, &gv), &xv) in row.iter_mut().zip(gam).zip(xrow) {
                            *v *= gv;
                            m1 += *v;
                            m2 += *v * xv;
                        }
                        m1 /= d as f32;
                        m2 /= d as f32;
                        for (v, &xv) in row.iter_mut().zip(xrow) {
                            *v = (*v - m1 - xv * m2) * inv[r];
                        }
                    }
                });
                vec![dx, dgamma, dbeta]
            })),
        )
    }

    /// Mean-squared error between two tensors, returned as `[1]`.
    pub fn mse(&self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Backpropagate from a scalar (`[1]`) loss node. Gradients accumulate
    /// into bound [`Param`] leaves and stay readable through
    /// [`Graph::grad`] on leaves only; the sweep releases the tape's
    /// closures and interior gradients behind it.
    ///
    /// # Panics
    ///
    /// On a second sweep of the same tape: nothing is left to propagate
    /// through, so the gradients would silently be zero. Record a new
    /// graph per backward pass.
    pub fn backward(&self, loss: Var) {
        let seed = {
            let nodes = self.nodes.borrow();
            assert_eq!(
                nodes[loss.0].value.numel(),
                1,
                "backward requires a scalar loss, got shape {:?}",
                nodes[loss.0].value.shape()
            );
            Tensor::ones(nodes[loss.0].value.shape().to_vec())
        };
        self.backward_with_grad(loss, seed);
    }

    /// Backpropagate from `v` with an explicit upstream gradient. Consumes
    /// the tape like [`Graph::backward`], and panics on a second sweep.
    pub fn backward_with_grad(&self, v: Var, seed: Tensor) {
        assert!(
            !self.swept.replace(true),
            "this tape was already swept by backward; record a new Graph per backward pass"
        );
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(
            nodes[v.0].value.shape(),
            seed.shape(),
            "seed gradient shape mismatch"
        );
        nodes[v.0].grad = Some(seed);
        for i in (0..=v.0).rev() {
            // Taken, so the closure and what it captured die with this
            // iteration whether or not a gradient reached the node.
            let back = nodes[i].backward.take();
            let Some(grad) = nodes[i].grad.take() else {
                continue;
            };
            let Some(back) = back else {
                if let Some(param) = nodes[i].param.as_ref() {
                    param.accumulate_grad(&grad);
                }
                nodes[i].grad = Some(grad);
                continue;
            };
            let parent_grads = back(&grad);
            let parents = std::mem::take(&mut nodes[i].parents);
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "backward fn returned wrong arity"
            );
            for (p, pg) in parents.into_iter().zip(parent_grads) {
                debug_assert_eq!(
                    nodes[p].value.shape(),
                    pg.shape(),
                    "gradient shape mismatch flowing into node {p}"
                );
                nodes[p].grad = Some(match nodes[p].grad.take() {
                    Some(existing) => existing.add(&pg),
                    None => pg,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference gradient of `f` w.r.t. `x`, flattened.
    fn numeric_grad(f: &dyn Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(x.numel());
        for i in 0..x.numel() {
            let mut plus = x.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x.clone();
            minus.data_mut()[i] -= eps;
            out.push((f(&plus) - f(&minus)) / (2.0 * eps));
        }
        out
    }

    /// Assert analytic gradient of builder-defined scalar loss matches
    /// finite differences at `x`.
    fn check_grad(build: &dyn Fn(&Graph, Var) -> Var, x: &Tensor, tol: f32) {
        let g = Graph::new();
        let xv = g.input(x.clone());
        let loss = build(&g, xv);
        g.backward(loss);
        let analytic = g.grad(xv).expect("gradient should reach input");
        let f = |t: &Tensor| {
            let g2 = Graph::new();
            let v = g2.input(t.clone());
            let l = build(&g2, v);
            g2.value(l).data()[0]
        };
        let numeric = numeric_grad(&f, x, 1e-2);
        for (i, (&a, &n)) in analytic.data().iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() <= tol * (1.0 + n.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    fn rand_t(shape: Vec<usize>, seed: u64) -> Tensor {
        init::uniform(&mut StdRng::seed_from_u64(seed), shape, -1.0, 1.0)
    }

    #[test]
    fn grad_add_mul_chain() {
        let x = rand_t(vec![2, 3], 1);
        check_grad(
            &|g, v| {
                let c = g.input(Tensor::full(vec![2, 3], 2.0));
                let y = g.mul(g.add(v, c), v); // (x + 2) * x
                g.sum_all(y)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_div() {
        let x = rand_t(vec![4], 2).add_scalar(3.0); // keep away from 0
        check_grad(
            &|g, v| {
                let c = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![4]));
                let y = g.div(c, v);
                g.sum_all(y)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_broadcast_add_reduces() {
        // x: [3] broadcast against [2,3]; gradient must reduce back to [3].
        let x = rand_t(vec![3], 3);
        check_grad(
            &|g, v| {
                let m = g.input(rand_t(vec![2, 3], 4));
                let y = g.mul(g.add(v, m), g.add(v, m));
                g.sum_all(y)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        let x = rand_t(vec![8], 5);
        for op in ["gelu", "sigmoid", "silu", "tanh", "exp", "square"] {
            check_grad(
                &|g, v| {
                    let y = match op {
                        "gelu" => g.gelu(v),
                        "sigmoid" => g.sigmoid(v),
                        "silu" => g.silu(v),
                        "tanh" => g.tanh(v),
                        "exp" => g.exp(v),
                        "square" => g.square(v),
                        _ => unreachable!(),
                    };
                    g.sum_all(y)
                },
                &x,
                2e-2,
            );
        }
    }

    #[test]
    fn grad_ln_sqrt_positive_domain() {
        let x = rand_t(vec![6], 6).map(|v| v.abs() + 0.5);
        check_grad(&|g, v| g.sum_all(g.ln(v)), &x, 1e-2);
        check_grad(&|g, v| g.sum_all(g.sqrt(v)), &x, 1e-2);
    }

    #[test]
    fn grad_relu_away_from_kink() {
        let x = Tensor::from_vec(vec![-2.0, -1.0, 1.0, 2.0], vec![4]);
        check_grad(&|g, v| g.sum_all(g.relu(v)), &x, 1e-2);
    }

    #[test]
    fn grad_matmul_both_sides() {
        let x = rand_t(vec![3, 4], 7);
        check_grad(
            &|g, v| {
                let w = g.input(rand_t(vec![4, 2], 8));
                let y = g.matmul(v, w);
                g.sum_all(g.square(y))
            },
            &x,
            1e-2,
        );
        // Right-hand side.
        let w = rand_t(vec![4, 2], 9);
        check_grad(
            &|g, v| {
                let a = g.input(rand_t(vec![3, 4], 10));
                let y = g.matmul(a, v);
                g.sum_all(g.square(y))
            },
            &w,
            1e-2,
        );
    }

    #[test]
    fn grad_bmm() {
        let x = rand_t(vec![2, 2, 3], 11);
        check_grad(
            &|g, v| {
                let w = g.input(rand_t(vec![2, 3, 2], 12));
                g.sum_all(g.square(g.bmm(v, w)))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_conv2d_input_weight_bias() {
        let x = rand_t(vec![1, 2, 4, 4], 13);
        check_grad(
            &|g, v| {
                let w = g.input(rand_t(vec![3, 2, 3, 3], 14));
                let b = g.input(rand_t(vec![3], 15));
                g.sum_all(g.square(g.conv2d(v, w, Some(b), 1, 1)))
            },
            &x,
            2e-2,
        );
        let w = rand_t(vec![3, 2, 3, 3], 16);
        check_grad(
            &|g, v| {
                let x = g.input(rand_t(vec![1, 2, 4, 4], 17));
                g.sum_all(g.square(g.conv2d(x, v, None, 2, 1)))
            },
            &w,
            2e-2,
        );
        let b = rand_t(vec![2], 18);
        check_grad(
            &|g, v| {
                let x = g.input(rand_t(vec![1, 1, 4, 4], 19));
                let w = g.input(rand_t(vec![2, 1, 3, 3], 20));
                g.sum_all(g.square(g.conv2d(x, w, Some(v), 1, 0)))
            },
            &b,
            2e-2,
        );
    }

    #[test]
    fn grad_upsample() {
        let x = rand_t(vec![1, 2, 2, 2], 21);
        check_grad(
            &|g, v| g.sum_all(g.square(g.upsample_nearest2(v))),
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_reshape_permute() {
        let x = rand_t(vec![2, 3, 4], 22);
        check_grad(
            &|g, v| {
                let r = g.reshape(v, vec![6, 4]);
                let p = g.permute(r, &[1, 0]);
                g.sum_all(g.square(p))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        let x = rand_t(vec![2, 3], 23);
        check_grad(
            &|g, v| {
                let other = g.input(rand_t(vec![2, 2], 24));
                let c = g.concat(&[v, other], 1);
                let s = g.slice(c, 1, 1, 4);
                g.sum_all(g.square(s))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_index_select_accumulates_duplicates() {
        let x = rand_t(vec![4, 2], 25);
        check_grad(
            &|g, v| {
                let s = g.index_select0(v, &[1, 1, 3]);
                g.sum_all(g.square(s))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_reductions() {
        let x = rand_t(vec![3, 4], 26);
        check_grad(&|g, v| g.mean_all(g.square(v)), &x, 1e-2);
        check_grad(
            &|g, v| {
                let s = g.sum_axis(v, 0, false);
                g.sum_all(g.square(s))
            },
            &x,
            1e-2,
        );
        check_grad(
            &|g, v| {
                let m = g.mean_axis(v, 1, true);
                g.sum_all(g.square(m))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        let x = rand_t(vec![2, 5], 27);
        check_grad(
            &|g, v| {
                let s = g.softmax_lastdim(v);
                let w = g.input(rand_t(vec![2, 5], 28));
                g.sum_all(g.mul(s, w))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_layernorm_input() {
        let x = rand_t(vec![3, 6], 61);
        check_grad(
            &|g, v| {
                let gamma = g.input(rand_t(vec![6], 62).add_scalar(1.5));
                let beta = g.input(rand_t(vec![6], 63));
                let y = g.layernorm_lastdim(v, gamma, beta, 1e-5);
                let w = g.input(rand_t(vec![3, 6], 64));
                g.sum_all(g.mul(y, w))
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn grad_layernorm_gamma_beta() {
        // Check dγ/dβ by treating gamma (then beta) as the differentiated input.
        let gamma0 = rand_t(vec![4], 65).add_scalar(1.0);
        check_grad(
            &|g, v| {
                let x = g.input(rand_t(vec![2, 4], 66));
                let beta = g.input(rand_t(vec![4], 67));
                let w = g.input(rand_t(vec![2, 4], 68));
                g.sum_all(g.mul(g.layernorm_lastdim(x, v, beta, 1e-5), w))
            },
            &gamma0,
            1e-2,
        );
        let beta0 = rand_t(vec![4], 69);
        check_grad(
            &|g, v| {
                let x = g.input(rand_t(vec![2, 4], 70));
                let gamma = g.input(rand_t(vec![4], 71).add_scalar(1.0));
                let w = g.input(rand_t(vec![2, 4], 72));
                g.sum_all(g.mul(g.layernorm_lastdim(x, gamma, v, 1e-5), w))
            },
            &beta0,
            1e-2,
        );
    }

    #[test]
    fn grad_mse() {
        let x = rand_t(vec![5], 29);
        check_grad(
            &|g, v| {
                let t = g.input(rand_t(vec![5], 30));
                g.mse(v, t)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn params_accumulate_over_multiple_backwards() {
        let p = Param::new(Tensor::scalar(2.0), "w");
        for _ in 0..2 {
            let g = Graph::new();
            let w = g.param(&p);
            let loss = g.square(w); // d/dw w^2 = 2w = 4
            g.backward(loss);
        }
        assert_eq!(p.grad().data()[0], 8.0); // two accumulations
        p.zero_grad();
        assert_eq!(p.grad().data()[0], 0.0);
    }

    #[test]
    fn values_share_storage_but_keep_value_semantics() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            (0..6).map(|v| v as f32).collect(),
            vec![2, 3],
        ));
        let r = g.reshape(x, vec![3, 2]);
        // A reshape and a read are handles to the input's buffer...
        assert_eq!(g.value(r).data().as_ptr(), g.value(x).data().as_ptr());
        assert_eq!(g.value(r).shape(), &[3, 2]);
        assert_eq!(g.value(r).at(&[2, 0]), 4.0);
        // ...and writing through one of them leaves the tape alone.
        let mut mine = g.value(r);
        mine.data_mut()[0] = 99.0;
        assert_eq!(g.value(x).data()[0], 0.0);
        assert_eq!(g.value(r).data()[0], 0.0);
    }

    #[test]
    fn param_update_is_not_seen_by_an_earlier_tape_node() {
        let w = Param::new(Tensor::from_vec(vec![2.0, 3.0], vec![2]), "w");
        let g = Graph::new();
        let wv = g.param(&w);
        let x = g.input(Tensor::from_vec(vec![10.0, 100.0], vec![2]));
        let y = g.mul(wv, x);
        // The optimizer steps between forward and backward.
        w.set_value(Tensor::from_vec(vec![-1.0, -1.0], vec![2]));
        assert_eq!(g.value(wv).data(), &[2.0, 3.0]);
        assert_eq!(w.value().data(), &[-1.0, -1.0]);
        let loss = g.sum_all(y);
        g.backward(loss);
        // d(w*x)/dx uses the recorded weight, not the stepped one.
        assert_eq!(g.grad(x).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(w.grad().data(), &[10.0, 100.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let g = Graph::new();
        let p = Param::new(Tensor::scalar(3.0), "w");
        let w = g.param(&p);
        let d = g.detach(w);
        let loss = g.square(d);
        g.backward(loss);
        assert_eq!(p.grad().data()[0], 0.0);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = (x + x)^2 => dloss/dx = 8x
        let g = Graph::new();
        let x = g.input(Tensor::scalar(3.0));
        let y = g.add(x, x);
        let loss = g.square(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data()[0], 24.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let g = Graph::new();
        let x = g.input(Tensor::zeros(vec![2]));
        g.backward(x);
    }

    #[test]
    fn backward_keeps_leaf_grads_and_frees_interior_ones() {
        let g = Graph::new();
        let p = Param::new(rand_t(vec![3], 40), "w");
        let x = g.input(rand_t(vec![3], 41));
        let w = g.param(&p);
        let untouched = g.input(Tensor::scalar(1.0));
        let y = g.mul(x, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(x).is_some());
        assert_eq!(g.grad(w).unwrap().data(), p.grad().data());
        assert!(g.grad(untouched).is_none(), "no gradient reached it");
        assert!(g.grad(y).is_none(), "interior gradient kept");
        assert!(g.grad(loss).is_none(), "seed gradient kept");
        let nodes = g.nodes.borrow();
        assert!(
            nodes.iter().all(|n| n.backward.is_none()),
            "a backward closure outlived the sweep"
        );
    }

    /// The sweep as it was before it released anything: every gradient is
    /// cloned and kept, every closure stays. Reads the tape only.
    fn keep_everything_sweep(g: &Graph, loss: Var) -> Vec<Option<Tensor>> {
        let nodes = g.nodes.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Tensor::ones(nodes[loss.0].value.shape().to_vec()));
        for i in (0..=loss.0).rev() {
            let Some(grad) = grads[i].clone() else {
                continue;
            };
            if let Some(back) = nodes[i].backward.as_ref() {
                for (&p, pg) in nodes[i].parents.iter().zip(back(&grad)) {
                    grads[p] = Some(match grads[p].take() {
                        Some(existing) => existing.add(&pg),
                        None => pg,
                    });
                }
            }
        }
        grads
    }

    #[test]
    fn releasing_sweep_matches_keep_everything_sweep_bit_for_bit() {
        let conv_w = Param::new(rand_t(vec![3, 2, 3, 3], 50), "conv.w");
        let conv_b = Param::new(rand_t(vec![3], 51), "conv.b");
        let lin_w = Param::new(rand_t(vec![16, 5], 52), "lin.w");
        let g = Graph::new();
        let x = g.input(rand_t(vec![2, 2, 4, 4], 53));
        let (cw, cb, lw) = (g.param(&conv_w), g.param(&conv_b), g.param(&lin_w));
        let h = g.gelu(g.conv2d(x, cw, Some(cb), 1, 1));
        // The conv weight is used twice, so its gradient is a sum.
        let h = g.add(h, g.conv2d(x, cw, None, 1, 1));
        let flat = g.reshape(h, vec![6, 16]);
        let loss = g.sum_all(g.matmul(flat, lw));

        let reference = keep_everything_sweep(&g, loss);
        g.backward(loss);

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (var, param) in [(cw, &conv_w), (cb, &conv_b), (lw, &lin_w)] {
            let want = reference[var.0]
                .as_ref()
                .expect("reference reached the param");
            assert!(want.data().iter().any(|&v| v != 0.0));
            assert_eq!(bits(&param.grad()), bits(want));
        }
        assert_eq!(
            bits(&g.grad(x).expect("input grad")),
            bits(
                reference[x.0]
                    .as_ref()
                    .expect("reference reached the input")
            )
        );
    }

    #[test]
    #[should_panic(expected = "already swept")]
    fn second_backward_on_a_swept_tape_panics() {
        let g = Graph::new();
        let x = g.input(Tensor::scalar(3.0));
        let loss = g.square(x);
        g.backward(loss);
        g.backward(loss);
    }
}
