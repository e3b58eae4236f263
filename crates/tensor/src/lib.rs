//! # odt-tensor
//!
//! Dense `f32` tensor library with reverse-mode automatic differentiation.
//!
//! This crate is the deep-learning substrate for the DOT ODT-Oracle
//! reproduction. The paper trains a conditioned denoising diffusion model and
//! a masked vision Transformer; since no mature Rust DL training stack
//! exists, this crate provides everything those models need, from scratch:
//!
//! * [`Tensor`] — a row-major, contiguous, dense `f32` tensor with NumPy-style
//!   broadcasting, matrix multiplication, 2-D convolution, reductions,
//!   activations and shape manipulation.
//! * [`Graph`] — an append-only tape recording differentiable operations.
//!   Calling [`Graph::backward`] propagates gradients to every recorded
//!   operation and accumulates them into shared [`Param`] leaves, which the
//!   optimizer in `odt-nn` then consumes.
//! * [`init`] — seedable random initializers (uniform, normal, Xavier/Glorot,
//!   Kaiming/He).
//! * [`Workspace`] — the forward-only executor: one arena and the kernels
//!   that serve a trained model over it, bit-identical to the tape.
//!
//! Every differentiable op's gradient is validated against central finite
//! differences in the test suite.
//!
//! ## Example
//!
//! ```
//! use odt_tensor::{Graph, Param, Tensor};
//!
//! let g = Graph::new();
//! let w = Param::new(Tensor::from_vec(vec![2.0], vec![1]), "w");
//! let x = g.input(Tensor::from_vec(vec![3.0], vec![1]));
//! let wv = g.param(&w);
//! let y = g.mul(wv, x);           // y = w * x
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(w.grad().data()[0], 3.0); // dy/dw = x = 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
pub mod init;
pub mod ops;
mod param;
mod shape;
mod tensor;
mod workspace;

pub use error::TensorError;
pub use graph::{Graph, Var};
pub use ops::{bmm, conv2d, conv_out_size, matmul, upsample_nearest2};
pub use param::Param;
pub use shape::{broadcast_shapes, strides_for, Shape};
pub use tensor::Tensor;
pub use workspace::{Buf, Epilogue, Rest, Workspace};
