//! Shared trainable parameters.

use crate::tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::rc::Rc;

struct ParamInner {
    value: Tensor,
    grad: Tensor,
    name: String,
}

/// A trainable parameter: a tensor value plus an accumulated gradient,
/// shared between the model (which records it on a [`crate::Graph`]) and the
/// optimizer (which applies updates).
///
/// Cloning a `Param` clones the handle, not the storage — all clones see the
/// same value and gradient. This mirrors how layers hand their parameters to
/// an optimizer.
#[derive(Clone)]
pub struct Param(Rc<RefCell<ParamInner>>);

impl Param {
    /// Create a parameter with an initial value and a diagnostic name.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param(Rc::new(RefCell::new(ParamInner {
            value,
            grad,
            name: name.into(),
        })))
    }

    /// Snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.0.borrow().value.clone()
    }

    /// The current value, borrowed: no new handle, so nothing is allocated
    /// (the forward-only path reads every weight this way). Must be dropped
    /// before the optimizer or a checkpoint load writes the parameter.
    pub fn value_ref(&self) -> Ref<'_, Tensor> {
        Ref::map(self.0.borrow(), |inner| &inner.value)
    }

    /// Snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.0.borrow().grad.clone()
    }

    /// Replace the value (used by optimizers and checkpoint loading).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.0.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "param '{}' value shape change",
            inner.name
        );
        inner.value = value;
    }

    /// Accumulate a gradient contribution (`grad += delta`).
    pub fn accumulate_grad(&self, delta: &Tensor) {
        let mut inner = self.0.borrow_mut();
        assert_eq!(
            inner.grad.shape(),
            delta.shape(),
            "param '{}' grad shape mismatch",
            inner.name
        );
        inner.grad = inner.grad.add(delta);
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        let mut inner = self.0.borrow_mut();
        inner.grad = Tensor::zeros(inner.value.shape().to_vec());
    }

    /// Diagnostic name.
    pub fn name(&self) -> String {
        self.0.borrow().name.clone()
    }

    /// Number of scalar elements in the parameter.
    pub fn numel(&self) -> usize {
        self.0.borrow().value.numel()
    }

    /// `true` if two handles share the same storage.
    pub fn same_storage(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.borrow();
        write!(
            f,
            "Param('{}', shape {:?})",
            inner.name,
            inner.value.shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let p = Param::new(Tensor::scalar(1.0), "p");
        let q = p.clone();
        q.set_value(Tensor::scalar(5.0));
        assert_eq!(p.value().data()[0], 5.0);
        assert!(p.same_storage(&q));
    }

    #[test]
    fn grad_accumulates_and_resets() {
        let p = Param::new(Tensor::zeros(vec![2]), "p");
        p.accumulate_grad(&Tensor::from_vec(vec![1.0, 2.0], vec![2]));
        p.accumulate_grad(&Tensor::from_vec(vec![0.5, 0.5], vec![2]));
        assert_eq!(p.grad().data(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn shape_change_rejected() {
        let p = Param::new(Tensor::zeros(vec![2]), "p");
        p.set_value(Tensor::zeros(vec![3]));
    }
}
