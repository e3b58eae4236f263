//! 2-D convolution layer (NCHW).

use crate::HasParams;
use odt_tensor::{init, Buf, Epilogue, Graph, Param, Tensor, Var, Workspace};
use rand::Rng;

/// A 2-D convolution layer with Kaiming-normal weights and zero bias.
pub struct Conv2d {
    weight: Param, // [c_out, c_in, k, k]
    bias: Option<Param>,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Create a `k × k` convolution.
    pub fn new(
        rng: &mut impl Rng,
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        name: &str,
    ) -> Self {
        Conv2d {
            weight: Param::new(
                init::kaiming_normal(rng, vec![c_out, c_in, k, k]),
                format!("{name}.weight"),
            ),
            bias: Some(Param::new(
                Tensor::zeros(vec![c_out]),
                format!("{name}.bias"),
            )),
            stride,
            pad,
        }
    }

    /// A 3×3 same-padding stride-1 convolution, the UNet workhorse.
    pub fn same3(rng: &mut impl Rng, c_in: usize, c_out: usize, name: &str) -> Self {
        Self::new(rng, c_in, c_out, 3, 1, 1, name)
    }

    /// A 1×1 projection convolution (residual shortcuts / channel changes).
    pub fn proj1(rng: &mut impl Rng, c_in: usize, c_out: usize, name: &str) -> Self {
        Self::new(rng, c_in, c_out, 1, 1, 0, name)
    }

    /// Apply to `[b, c_in, h, w]`.
    pub fn forward(&self, g: &Graph, x: Var) -> Var {
        let w = g.param(&self.weight);
        let b = self.bias.as_ref().map(|b| g.param(b));
        g.conv2d(x, w, b, self.stride, self.pad)
    }

    /// [`Conv2d::forward`] without the tape, `epilogue` fused behind the
    /// bias; same bits as the tape ops it replaces.
    pub fn eval(&self, ws: &mut Workspace, x: Buf, epilogue: Epilogue) -> Buf {
        let bias = self.bias.as_ref().map(Param::value_ref);
        let (w, b) = (self.weight.value_ref(), bias.as_deref());
        ws.conv2d(x, &w, b, self.stride, self.pad, epilogue)
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.weight.value().shape()[0]
    }
}

impl HasParams for Conv2d {
    fn params(&self) -> Vec<Param> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same3_preserves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::same3(&mut rng, 2, 4, "c");
        let g = Graph::new();
        let x = g.input(Tensor::zeros(vec![1, 2, 8, 8]));
        assert_eq!(g.shape(c.forward(&g, x)), vec![1, 4, 8, 8]);
    }

    #[test]
    fn strided_halves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::new(&mut rng, 1, 1, 4, 2, 1, "c");
        let g = Graph::new();
        let x = g.input(Tensor::zeros(vec![1, 1, 8, 8]));
        assert_eq!(g.shape(c.forward(&g, x)), vec![1, 1, 4, 4]);
    }

    #[test]
    fn gradient_reaches_kernel() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Conv2d::proj1(&mut rng, 1, 1, "c");
        let g = Graph::new();
        let x = g.input(Tensor::ones(vec![1, 1, 2, 2]));
        let y = c.forward(&g, x);
        g.backward(g.sum_all(y));
        // d/dw of sum over a 1x1 conv on all-ones input = number of pixels.
        assert_eq!(c.params()[0].grad().data()[0], 4.0);
        assert_eq!(c.params()[1].grad().data()[0], 4.0);
    }

    #[test]
    fn eval_matches_forward_bit_for_bit_under_every_epilogue() {
        use crate::testutil::{bits, random, randomize, upload};
        let mut rng = StdRng::seed_from_u64(2);
        // The UNet's three kinds: same 3x3, 1x1 projection (no im2col in
        // eval), 4x4 stride-2 downsample.
        for (case, (k, stride, pad)) in [(3, 1, 1), (1, 1, 0), (4, 2, 1)].into_iter().enumerate() {
            for b in [1usize, 3] {
                let seed = 10 * case as u64 + b as u64;
                let conv = Conv2d::new(&mut rng, 5, 6, k, stride, pad, "c");
                randomize(&conv.params(), seed);
                let x = random(vec![b, 5, 8, 6], seed + 100);
                let g = Graph::new();
                let y = conv.forward(&g, g.input(x.clone()));
                let shape = g.shape(y);
                let cvec = random(vec![b, 6, 1, 1], seed + 200);
                let map = random(shape.clone(), seed + 300);
                let want = [
                    y,
                    g.gelu(y),
                    g.add(y, g.input(cvec.clone())),
                    g.add(y, g.input(map.clone())),
                ];
                let mut ws = Workspace::new();
                let (xb, cb, mb) = (
                    upload(&mut ws, &x),
                    upload(&mut ws, &cvec),
                    upload(&mut ws, &map),
                );
                let epilogues = [
                    Epilogue::None,
                    Epilogue::Gelu,
                    Epilogue::AddChannel(cb),
                    Epilogue::AddMap(mb),
                ];
                for (epilogue, want) in epilogues.into_iter().zip(want) {
                    let mark = ws.mark();
                    let got = conv.eval(&mut ws, xb, epilogue);
                    assert_eq!(got.shape().to_vec(), shape, "k={k} b={b}");
                    assert_eq!(
                        bits(ws.data(got)),
                        bits(g.value(want).data()),
                        "k={k} stride={stride} b={b} {epilogue:?}"
                    );
                    ws.release(mark);
                    assert_eq!(ws.mark(), mark, "eval left scratch behind");
                }
            }
        }
    }
}
