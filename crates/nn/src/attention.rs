//! Multi-head dot-product attention.

use crate::{HasParams, Linear};
use odt_tensor::{Buf, Epilogue, Graph, Param, Tensor, Var, Workspace};
use rand::Rng;

/// Multi-head self/cross attention over `[batch, seq, dim]` sequences.
///
/// Used in two places in the DOT pipeline:
/// * the spatial attention modules inside the UNet denoiser blocks (§4.2),
///   where the sequence is the flattened feature map;
/// * the MViT / vanilla-ViT estimator layers (§5.2), where the sequence is
///   the flattened PiT (vanilla ViT passes an additive key mask; MViT gathers
///   valid items beforehand and needs no mask).
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// `dim` must be divisible by `heads`.
    pub fn new(rng: &mut impl Rng, dim: usize, heads: usize, name: &str) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim {dim} must be divisible by heads {heads}"
        );
        MultiHeadAttention {
            wq: Linear::new(rng, dim, dim, &format!("{name}.wq")),
            wk: Linear::new(rng, dim, dim, &format!("{name}.wk")),
            wv: Linear::new(rng, dim, dim, &format!("{name}.wv")),
            wo: Linear::new(rng, dim, dim, &format!("{name}.wo")),
            heads,
            dim,
        }
    }

    /// Self-attention. `x: [b, t, d]`; optional additive `key_mask: [b, t]`
    /// (use 0 for valid keys and a large negative number, e.g. `-1e9`, for
    /// padded/invalid keys — the vanilla-ViT masking scheme of Figure 7(a)).
    pub fn forward(&self, g: &Graph, x: Var, key_mask: Option<&Tensor>) -> Var {
        let shape = g.shape(x);
        assert_eq!(shape.len(), 3, "attention input must be [b, t, d]");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(d, self.dim, "attention dim mismatch");
        let h = self.heads;
        let dh = d / h;

        let split = |g: &Graph, v: Var| -> Var {
            // [b, t, d] -> [b, t, h, dh] -> [b, h, t, dh] -> [b*h, t, dh]
            let r = g.reshape(v, vec![b, t, h, dh]);
            let p = g.permute(r, &[0, 2, 1, 3]);
            g.reshape(p, vec![b * h, t, dh])
        };

        let q = split(g, self.wq.forward(g, x));
        let k = split(g, self.wk.forward(g, x));
        let v = split(g, self.wv.forward(g, x));

        let kt = g.permute(k, &[0, 2, 1]);
        let mut logits = g.scale(g.bmm(q, kt), 1.0 / (dh as f32).sqrt());

        if let Some(mask) = key_mask {
            assert_eq!(mask.shape(), &[b, t], "key mask must be [b, t]");
            // Repeat each batch row for every head: [b, t] -> [b*h, 1, t].
            let indices: Vec<usize> = (0..b).flat_map(|bi| std::iter::repeat_n(bi, h)).collect();
            let expanded = mask.index_select0(&indices).reshape(vec![b * h, 1, t]);
            let mv = g.input(expanded);
            logits = g.add(logits, mv);
        }

        let attn = g.softmax_lastdim(logits);
        let ctx = g.bmm(attn, v); // [b*h, t, dh]
                                  // Back to [b, t, d].
        let r = g.reshape(ctx, vec![b, h, t, dh]);
        let p = g.permute(r, &[0, 2, 1, 3]);
        let merged = g.reshape(p, vec![b, t, d]);
        self.wo.forward(g, merged)
    }

    /// Unmasked [`MultiHeadAttention::forward`] without the tape, on the
    /// transpose of what `forward` takes: `x` is features-major
    /// `[b, dim, h, w]` with one token per pixel, and so is the result.
    /// Heads are channel ranges, so nothing is permuted; same bits as
    /// `forward` on the `[b, h·w, dim]` tokens, `epilogue` fused behind the
    /// output projection.
    pub fn eval(&self, ws: &mut Workspace, x: Buf, epilogue: Epilogue) -> Buf {
        assert_eq!(x.shape()[1], self.dim, "attention dim mismatch");
        let mark = ws.mark();
        let q = self.wq.eval(ws, x, Epilogue::None);
        let k = self.wk.eval(ws, x, Epilogue::None);
        let v = self.wv.eval(ws, x, Epilogue::None);
        let ctx = ws.attend(q, k, v, self.heads);
        let out = self.wo.eval(ws, ctx, epilogue);
        ws.compact(mark, out)
    }
}

impl HasParams for MultiHeadAttention {
    fn params(&self) -> Vec<Param> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.params())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2, "a");
        let g = Graph::new();
        let x = g.input(init::normal(&mut rng, vec![2, 5, 8], 1.0));
        let y = mha.forward(&g, x, None);
        assert_eq!(g.shape(y), vec![2, 5, 8]);
    }

    #[test]
    fn masked_keys_do_not_influence_output() {
        // With key 2 masked out, perturbing token 2's content must not
        // change other tokens' outputs (query side of token 2 still varies,
        // so compare outputs at tokens 0 and 1 only).
        let mut rng = StdRng::seed_from_u64(1);
        let mha = MultiHeadAttention::new(&mut rng, 4, 1, "a");
        let base = init::normal(&mut rng, vec![1, 3, 4], 1.0);
        let mut perturbed = base.clone();
        for i in 0..4 {
            perturbed.data_mut()[2 * 4 + i] += 5.0;
        }
        let mask = Tensor::from_vec(vec![0.0, 0.0, -1e9], vec![1, 3]);

        let run = |input: &Tensor| {
            let g = Graph::new();
            let x = g.input(input.clone());
            g.value(mha.forward(&g, x, Some(&mask)))
        };
        let ya = run(&base);
        let yb = run(&perturbed);
        for tkn in 0..2 {
            for i in 0..4 {
                let a = ya.at(&[0, tkn, i]);
                let b = yb.at(&[0, tkn, i]);
                assert!((a - b).abs() < 1e-5, "token {tkn} dim {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(2);
        let mha = MultiHeadAttention::new(&mut rng, 4, 2, "a");
        let g = Graph::new();
        let x = g.input(init::normal(&mut rng, vec![1, 3, 4], 1.0));
        let y = mha.forward(&g, x, None);
        g.backward(g.sum_all(g.square(y)));
        for p in mha.params() {
            assert!(
                p.grad().data().iter().any(|&v| v != 0.0),
                "no gradient reached {}",
                p.name()
            );
        }
    }

    #[test]
    fn num_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2, "a");
        // 4 linears of (8*8 + 8).
        assert_eq!(mha.num_params(), 4 * (64 + 8));
    }

    #[test]
    fn eval_matches_forward_on_the_transposed_tokens() {
        use crate::testutil::{bits, random, randomize, tokens, upload};
        let mut rng = StdRng::seed_from_u64(4);
        // (c, heads, h, w): the bench model's three attention sites, then an
        // odd head width.
        for (c, heads, h, w) in [
            (32usize, 4usize, 10usize, 10usize),
            (16, 4, 10, 10),
            (32, 4, 5, 5),
            (6, 2, 3, 3),
        ] {
            for b in [1usize, 2] {
                let mha = MultiHeadAttention::new(&mut rng, c, heads, "a");
                randomize(&mha.params(), c as u64);
                let x = random(vec![b, c, h, w], 21 + b as u64);
                let g = Graph::new();
                let y = mha.forward(&g, g.input(tokens(&x)), None); // [b, h*w, c]
                let want = g.value(y).permute(&[0, 2, 1]);
                let mut ws = Workspace::new();
                let xb = upload(&mut ws, &x);
                let mark = ws.mark();
                let got = mha.eval(&mut ws, xb, Epilogue::None);
                assert_eq!(got.shape(), [b, c, h, w]);
                assert_eq!(
                    bits(ws.data(got)),
                    bits(want.data()),
                    "c={c} heads={heads} t={} b={b}",
                    h * w
                );
                assert_eq!(ws.mark(), mark + got.numel(), "eval left scratch behind");
            }
        }
    }
}
