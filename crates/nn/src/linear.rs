//! Fully-connected layer.

use crate::HasParams;
use odt_tensor::{init, Buf, Epilogue, Graph, Param, Tensor, Var, Workspace};
use rand::Rng;

/// A fully-connected layer `y = x Wᵀ + b`.
///
/// Accepts inputs of any rank `>= 1` whose last dimension equals `in_dim`;
/// leading dimensions are flattened into a batch and restored afterwards.
pub struct Linear {
    weight: Param, // [out, in]
    bias: Option<Param>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize, name: &str) -> Self {
        Linear {
            weight: Param::new(
                init::xavier_uniform(rng, vec![out_dim, in_dim]),
                format!("{name}.weight"),
            ),
            bias: Some(Param::new(
                Tensor::zeros(vec![out_dim]),
                format!("{name}.bias"),
            )),
            in_dim,
            out_dim,
        }
    }

    /// Create without a bias term.
    pub fn new_no_bias(rng: &mut impl Rng, in_dim: usize, out_dim: usize, name: &str) -> Self {
        Linear {
            weight: Param::new(
                init::xavier_uniform(rng, vec![out_dim, in_dim]),
                format!("{name}.weight"),
            ),
            bias: None,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Apply the layer. Input shape `[..., in_dim]` → `[..., out_dim]`.
    pub fn forward(&self, g: &Graph, x: Var) -> Var {
        let shape = g.shape(x);
        assert_eq!(
            *shape.last().expect("linear input must have rank >= 1"),
            self.in_dim,
            "linear expected last dim {}, got {:?}",
            self.in_dim,
            shape
        );
        let batch: usize = shape[..shape.len() - 1].iter().product();
        let flat = g.reshape(x, vec![batch, self.in_dim]);
        let w = g.param(&self.weight);
        let wt = g.permute(w, &[1, 0]);
        let mut y = g.matmul(flat, wt);
        if let Some(b) = &self.bias {
            let bv = g.param(b);
            y = g.add(y, bv);
        }
        let mut out_shape = shape[..shape.len() - 1].to_vec();
        out_shape.push(self.out_dim);
        g.reshape(y, out_shape)
    }

    /// [`Linear::forward`] without the tape, on the transpose of what
    /// `forward` takes: `x` is features-major `[b, in_dim, h, w]` and the
    /// result `[b, out_dim, h, w]`, each pixel one row of the tape's input.
    /// Computed as `W·X + b` with the weight as stored; same bits as
    /// `forward` on the transposed rows, `epilogue` fused behind the bias.
    pub fn eval(&self, ws: &mut Workspace, x: Buf, epilogue: Epilogue) -> Buf {
        let bias = self.bias.as_ref().map(Param::value_ref);
        ws.conv2d(x, &self.weight.value_ref(), bias.as_deref(), 1, 0, epilogue)
    }
}

impl HasParams for Linear {
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
    fn shapes_2d_and_3d() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, 4, 3, "l");
        let g = Graph::new();
        let x2 = g.input(Tensor::zeros(vec![5, 4]));
        assert_eq!(g.shape(l.forward(&g, x2)), vec![5, 3]);
        let x3 = g.input(Tensor::zeros(vec![2, 5, 4]));
        assert_eq!(g.shape(l.forward(&g, x3)), vec![2, 5, 3]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, 4, 3, "l");
        assert_eq!(l.num_params(), 4 * 3 + 3);
        let l2 = Linear::new_no_bias(&mut rng, 4, 3, "l2");
        assert_eq!(l2.num_params(), 12);
    }

    #[test]
    fn gradient_flows_to_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(&mut rng, 2, 1, "l");
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], vec![1, 2]));
        let y = l.forward(&g, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let gw = l.params()[0].grad();
        assert_eq!(gw.shape(), &[1, 2]);
        assert_eq!(gw.data(), &[1.0, 2.0]); // dy/dW = x
        let gb = l.params()[1].grad();
        assert_eq!(gb.data(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "linear expected last dim")]
    fn wrong_input_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, 4, 3, "l");
        let g = Graph::new();
        let x = g.input(Tensor::zeros(vec![5, 5]));
        let _ = l.forward(&g, x);
    }

    #[test]
    fn eval_matches_forward_on_the_transposed_rows() {
        use crate::testutil::{bits, random, randomize, tokens, upload};
        let mut rng = StdRng::seed_from_u64(3);
        // m rows on the tape are m pixels here; both operands carry exact
        // zeros, so the tape skips on `x` where eval skips on `W`.
        for m in [1usize, 100] {
            for b in [1usize, 2] {
                let l = Linear::new(&mut rng, 12, 9, "l");
                randomize(&l.params(), m as u64);
                let x = random(vec![b, 12, m, 1], 50 + m as u64);
                let g = Graph::new();
                let y = l.forward(&g, g.input(tokens(&x))); // [b, m, 9]
                let want = g.value(y).permute(&[0, 2, 1]);
                let mut ws = Workspace::new();
                let xb = upload(&mut ws, &x);
                let got = l.eval(&mut ws, xb, Epilogue::None);
                assert_eq!(got.shape(), [b, 9, m, 1]);
                assert_eq!(bits(ws.data(got)), bits(want.data()), "m={m} b={b}");
            }
        }
    }
}
