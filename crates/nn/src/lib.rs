//! # odt-nn
//!
//! Neural-network building blocks on top of the [`odt_tensor`] autograd tape:
//! the layer zoo the DOT ODT-Oracle models are assembled from.
//!
//! * [`Linear`], [`Conv2d`], [`Embedding`] — parametric layers
//! * [`LayerNorm`], [`GroupNorm`] — normalization
//! * [`MultiHeadAttention`], [`FeedForward`], [`EncoderLayer`] — Transformer
//!   components (used by both the UNet denoiser's attention blocks and the
//!   Masked Vision Transformer)
//! * [`GruCell`] / [`Gru`] — recurrent encoder used by the path-based
//!   baselines (WDDRA, STDGCN, DeepOD's trajectory branch)
//! * [`Adam`] — the optimizer the paper uses throughout (§6.3)
//! * [`positional_encoding`] — the sinusoidal encoding of Eq. 12
//! * [`state_dict`] / [`load_state_dict`] — JSON checkpointing
//!
//! Layers expose `forward(&Graph, Var) -> Var` and `params() -> Vec<Param>`;
//! a fresh graph is built per training step. The five layers the denoiser
//! serves with ([`Conv2d`], [`GroupNorm`], [`LayerNorm`], [`Linear`],
//! [`MultiHeadAttention`]) also expose `eval(&mut Workspace, Buf, ..) -> Buf`,
//! the same function without a tape and with the same `f32` bits, on
//! features-major `[b, c, h, w]` buffers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod attention;
mod conv;
mod embedding;
mod linear;
mod norm;
mod pe;
mod rnn;
pub mod serialize;
mod transformer;

pub use adam::Adam;
pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::{GroupNorm, LayerNorm};
pub use pe::{positional_encoding, positional_encoding_row};
pub use rnn::{Gru, GruCell};
pub use serialize::{
    check_state_dict, load_state_dict, state_dict, try_load_state_dict, StateDictError,
};
pub use transformer::{EncoderLayer, FeedForward};

use odt_tensor::Param;

/// Anything that owns trainable parameters.
pub trait HasParams {
    /// All trainable parameters, in a stable order.
    fn params(&self) -> Vec<Param>;

    /// Total scalar parameter count (the paper's "model size" unit,
    /// multiplied by 4 bytes for Table 5).
    fn num_params(&self) -> usize {
        self.params().iter().map(Param::numel).sum()
    }
}

/// Shared by the layers' `eval == forward` tests: everything is compared on
/// `f32` bits.
#[cfg(test)]
pub(crate) mod testutil {
    use odt_tensor::{init, Buf, Param, Tensor, Workspace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Uniform in `[-1, 1)` with every seventh element exactly zero, so the
    /// GEMM's skip-zero path runs on whichever operand this becomes.
    pub fn random(shape: Vec<usize>, seed: u64) -> Tensor {
        let mut t = init::uniform(&mut StdRng::seed_from_u64(seed), shape, -1.0, 1.0);
        t.data_mut().iter_mut().step_by(7).for_each(|v| *v = 0.0);
        t
    }

    /// Give every parameter, biases and affines included, [`random`] values.
    pub fn randomize(params: &[Param], seed: u64) {
        for (i, p) in params.iter().enumerate() {
            p.set_value(random(p.value().shape().to_vec(), seed + i as u64));
        }
    }

    /// Copy a `[b, c, h, w]` tensor into a new buffer of `ws`.
    pub fn upload(ws: &mut Workspace, t: &Tensor) -> Buf {
        let s = t.shape();
        let buf = ws.alloc([s[0], s[1], s[2], s[3]]);
        ws.data_mut(buf).copy_from_slice(t.data());
        buf
    }

    /// The `[b, h·w, c]` token matrix of a features-major `[b, c, h, w]` map.
    pub fn tokens(t: &Tensor) -> Tensor {
        let s = t.shape();
        t.reshape(vec![s[0], s[1], s[2] * s[3]]).permute(&[0, 2, 1])
    }

    pub fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
