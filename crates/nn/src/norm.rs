//! Layer and group normalization.

use crate::HasParams;
use odt_tensor::{Buf, Graph, Param, Tensor, Var, Workspace};

/// Layer normalization over the last dimension, with learnable affine.
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Normalize over a trailing feature dimension of size `dim`.
    pub fn new(dim: usize, name: &str) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones(vec![dim]), format!("{name}.gamma")),
            beta: Param::new(Tensor::zeros(vec![dim]), format!("{name}.beta")),
            dim,
            eps: 1e-5,
        }
    }

    /// Apply to `[..., dim]` via the fused row-parallel graph op (one tape
    /// node instead of the eight-op composed form).
    pub fn forward(&self, g: &Graph, x: Var) -> Var {
        let shape = g.shape(x);
        assert_eq!(
            *shape.last().expect("layernorm needs rank >= 1"),
            self.dim,
            "layernorm dim mismatch"
        );
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        g.layernorm_lastdim(x, gamma, beta, self.eps)
    }

    /// [`LayerNorm::forward`] without the tape, on the transpose of what
    /// `forward` takes: features-major `[b, dim, h, w]`, normalized over the
    /// channel axis per pixel. Same bits as `forward` on the `[b, h·w, dim]`
    /// tokens.
    pub fn eval(&self, ws: &mut Workspace, x: Buf) -> Buf {
        assert_eq!(x.shape()[1], self.dim, "layernorm dim mismatch");
        let (gamma, beta) = (self.gamma.value_ref(), self.beta.value_ref());
        ws.layer_norm_channels(x, &gamma, &beta, self.eps)
    }
}

impl HasParams for LayerNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Group normalization over channel groups of an NCHW tensor, with
/// learnable per-channel affine — the normalization used inside the
/// conditioned PiT denoiser's convolution blocks.
pub struct GroupNorm {
    gamma: Param, // [c]
    beta: Param,  // [c]
    groups: usize,
    channels: usize,
    eps: f32,
}

impl GroupNorm {
    /// `groups` must divide `channels`.
    pub fn new(groups: usize, channels: usize, name: &str) -> Self {
        assert!(
            channels.is_multiple_of(groups),
            "groups {groups} must divide channels {channels}"
        );
        GroupNorm {
            gamma: Param::new(Tensor::ones(vec![channels]), format!("{name}.gamma")),
            beta: Param::new(Tensor::zeros(vec![channels]), format!("{name}.beta")),
            groups,
            channels,
            eps: 1e-5,
        }
    }

    /// Apply to `[b, c, h, w]`.
    pub fn forward(&self, g: &Graph, x: Var) -> Var {
        let shape = g.shape(x);
        assert_eq!(shape.len(), 4, "groupnorm input must be NCHW");
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.channels, "groupnorm channel mismatch");
        let gs = c / self.groups;
        // [b, groups, gs*h*w]: normalize within each group.
        let grouped = g.reshape(x, vec![b, self.groups, gs * h * w]);
        let mean = g.mean_axis(grouped, 2, true);
        let centered = g.sub(grouped, mean);
        let var = g.mean_axis(g.square(centered), 2, true);
        let std = g.sqrt(g.add_scalar(var, self.eps));
        let normed = g.div(centered, std);
        let back = g.reshape(normed, vec![b, c, h, w]);
        // Per-channel affine: reshape gamma/beta to [c, 1, 1] for broadcast.
        let gamma = g.reshape(g.param(&self.gamma), vec![c, 1, 1]);
        let beta = g.reshape(g.param(&self.beta), vec![c, 1, 1]);
        g.add(g.mul(back, gamma), beta)
    }

    /// [`GroupNorm::forward`] without the tape (one fused kernel for its
    /// seventeen nodes, same bits), optionally followed by SiLU.
    pub fn eval(&self, ws: &mut Workspace, x: Buf, silu_after: bool) -> Buf {
        assert_eq!(x.shape()[1], self.channels, "groupnorm channel mismatch");
        let (gamma, beta) = (self.gamma.value_ref(), self.beta.value_ref());
        ws.group_norm(x, self.groups, &gamma, &beta, self.eps, silu_after)
    }
}

impl HasParams for GroupNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(4, "ln");
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            vec![2, 4],
        ));
        let y = g.value(ln.forward(&g, x));
        for row in 0..2 {
            let d = &y.data()[row * 4..(row + 1) * 4];
            let mean: f32 = d.iter().sum::<f32>() / 4.0;
            let var: f32 = d.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "row {row} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {row} var {var}");
        }
    }

    #[test]
    fn layernorm_gradcheck_via_training_signal() {
        // Gradients must flow into gamma and beta.
        let ln = LayerNorm::new(3, "ln");
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, -1.0, 0.5], vec![1, 3]));
        let y = ln.forward(&g, x);
        g.backward(g.sum_all(g.square(y)));
        assert!(ln
            .params()
            .iter()
            .all(|p| p.grad().data().iter().any(|&v| v != 0.0) || p.name().contains("beta")));
    }

    #[test]
    fn layernorm_fused_matches_composed_formula() {
        // The fused graph op must agree with the op-by-op composition it
        // replaced (same mean/var/eps convention), forward and backward.
        let ln = LayerNorm::new(5, "ln");
        let xt = Tensor::from_vec(
            (0..15).map(|v| (v as f32) * 0.3 - 2.0).collect(),
            vec![3, 5],
        );

        let g1 = Graph::new();
        let x1 = g1.input(xt.clone());
        let fused = ln.forward(&g1, x1);
        let fused_val = g1.value(fused);
        g1.backward(g1.sum_all(g1.square(fused)));
        let fused_dx = g1.grad(x1).expect("grad");

        let g2 = Graph::new();
        let x2 = g2.input(xt.clone());
        let mean = g2.mean_axis(x2, 1, true);
        let centered = g2.sub(x2, mean);
        let var = g2.mean_axis(g2.square(centered), 1, true);
        let std = g2.sqrt(g2.add_scalar(var, 1e-5));
        let normed = g2.div(centered, std);
        let gamma = g2.param(&ln.gamma);
        let beta = g2.param(&ln.beta);
        let composed = g2.add(g2.mul(normed, gamma), beta);
        let composed_val = g2.value(composed);
        g2.backward(g2.sum_all(g2.square(composed)));
        let composed_dx = g2.grad(x2).expect("grad");

        for (a, b) in fused_val.data().iter().zip(composed_val.data()) {
            assert!((a - b).abs() < 1e-5, "forward {a} vs {b}");
        }
        for (a, b) in fused_dx.data().iter().zip(composed_dx.data()) {
            assert!((a - b).abs() < 1e-4, "backward {a} vs {b}");
        }
    }

    #[test]
    fn groupnorm_normalizes_within_groups() {
        let gn = GroupNorm::new(2, 4, "gn");
        let g = Graph::new();
        // Two groups of two channels; fill with distinct scales.
        let mut x = Tensor::zeros(vec![1, 4, 2, 2]);
        for c in 0..4 {
            for i in 0..4 {
                x.data_mut()[c * 4 + i] = (c as f32 + 1.0) * (i as f32 + 1.0);
            }
        }
        let xv = g.input(x);
        let y = g.value(gn.forward(&g, xv));
        // Each group of 8 values should be ~zero-mean.
        for grp in 0..2 {
            let d = &y.data()[grp * 8..(grp + 1) * 8];
            let mean: f32 = d.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "group {grp} mean {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn groupnorm_rejects_bad_groups() {
        let _ = GroupNorm::new(3, 4, "gn");
    }

    #[test]
    fn layernorm_eval_matches_forward_on_the_transposed_rows() {
        use crate::testutil::{bits, random, randomize, tokens, upload};
        for (b, c, h, w) in [
            (1usize, 32usize, 10usize, 10usize),
            (3, 6, 3, 3),
            (2, 1, 2, 2),
        ] {
            let ln = LayerNorm::new(c, "ln");
            randomize(&ln.params(), c as u64);
            let x = random(vec![b, c, h, w], 7);
            let g = Graph::new();
            let y = ln.forward(&g, g.input(tokens(&x))); // [b, h*w, c]
            let want = g.value(y).permute(&[0, 2, 1]);
            let mut ws = Workspace::new();
            let xb = upload(&mut ws, &x);
            let got = ln.eval(&mut ws, xb);
            assert_eq!(bits(ws.data(got)), bits(want.data()), "b={b} c={c}");
        }
    }

    #[test]
    fn groupnorm_eval_matches_forward_bit_for_bit() {
        use crate::testutil::{bits, random, randomize, upload};
        for groups in [1usize, 2, 4] {
            for b in [1usize, 3] {
                let gn = GroupNorm::new(groups, 8, "gn");
                randomize(&gn.params(), groups as u64);
                let x = random(vec![b, 8, 5, 4], 11 + b as u64);
                let g = Graph::new();
                let y = gn.forward(&g, g.input(x.clone()));
                let mut ws = Workspace::new();
                let xb = upload(&mut ws, &x);
                for (silu, want) in [(false, y), (true, g.silu(y))] {
                    let got = gn.eval(&mut ws, xb, silu);
                    assert_eq!(
                        bits(ws.data(got)),
                        bits(g.value(want).data()),
                        "groups={groups} b={b} silu={silu}"
                    );
                }
            }
        }
    }
}
