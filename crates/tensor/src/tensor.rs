//! The dense `f32` [`Tensor`] type and its forward math.
//!
//! Tensors are row-major and always contiguous; `permute`, `slice` and
//! `concat` materialize their result. The element storage is reference
//! counted: `clone` and `reshape` hand out a second handle to the same
//! buffer, so the autograd tape, the backward closures and [`crate::Param`]
//! share one copy of every activation and weight. Writing through
//! [`Tensor::data_mut`] copies the buffer first if another handle still
//! reads it (copy-on-write), so every handle keeps value semantics.
//!
//! Broadcasting binary ops do not walk an index odometer per element: output
//! dims whose two stride patterns agree are coalesced and the innermost
//! coalesced dim runs as one tight loop (see [`Tensor::zip_broadcast`]).

use crate::shape::{broadcast_shapes, broadcast_strides, next_index, numel, strides_for};
use crate::TensorError;
use std::sync::Arc;

/// A dense, row-major, contiguous `f32` tensor. Cloning shares the element
/// storage; see the [module docs](self).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        let ellipsis = if self.data.len() > 8 { ", …" } else { "" };
        write!(f, "Tensor{:?} {preview:?}{ellipsis}", self.shape)
    }
}

/// One loop level of a two-operand broadcast walk: its extent and the
/// element stride of each operand (0 where that operand broadcasts).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct ZipDim {
    len: usize,
    ls: usize,
    rs: usize,
}

/// Fold the output dims of a broadcast into the fewest loop levels,
/// outermost first: size-1 dims vanish, and a dim merges into the one
/// outside it when both operands step over the pair like one longer dim
/// (`outer stride == inner stride × inner len`, for each operand). Never
/// empty: an all-ones shape yields one level of length 1.
fn coalesce_zip_dims(shape: &[usize], ls: &[usize], rs: &[usize]) -> Vec<ZipDim> {
    let mut dims: Vec<ZipDim> = Vec::with_capacity(shape.len().max(1));
    for ((&len, &ls), &rs) in shape.iter().zip(ls).zip(rs) {
        if len == 1 {
            continue;
        }
        match dims.last_mut() {
            Some(outer) if outer.ls == ls * len && outer.rs == rs * len => {
                *outer = ZipDim {
                    len: outer.len * len,
                    ls,
                    rs,
                };
            }
            _ => dims.push(ZipDim { len, ls, rs }),
        }
    }
    if dims.is_empty() {
        dims.push(ZipDim {
            len: 1,
            ls: 0,
            rs: 0,
        });
    }
    dims
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Wrap freshly built data; the caller guarantees the length.
    fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        debug_assert_eq!(numel(&shape), data.len());
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = numel(&shape);
        Tensor::new(shape, vec![value; n])
    }

    /// A rank-0-like scalar stored as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Tensor::new(vec![1], vec![value])
    }

    /// Build a tensor from raw data; errors if `data.len()` disagrees with
    /// the shape.
    pub fn try_from_vec(data: Vec<f32>, shape: Vec<usize>) -> Result<Self, TensorError> {
        let expected = numel(&shape);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected,
            });
        }
        Ok(Tensor::new(shape, data))
    }

    /// Build a tensor from raw data; panics on length mismatch.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        Self::try_from_vec(data, shape).expect("tensor data length must match shape")
    }

    /// `n` evenly spaced values from `start` to `end` inclusive, shape `[n]`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n >= 2, "linspace needs at least two points");
        let step = (end - start) / (n as f32 - 1.0);
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor::new(vec![n], data)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape (dimension sizes, outermost first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice (row-major). Copies the storage first when
    /// another handle shares it, so no other tensor sees the writes.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume into the raw data vector; copies only when the storage is
    /// still shared with another handle.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Row-major flat offset of a multi-dimensional index, folded from the
    /// last dim so no stride vector is built.
    fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut flat = 0;
        let mut stride = 1;
        for (&i, &dim) in idx.iter().zip(&self.shape).rev() {
            flat += i * stride;
            stride *= dim;
        }
        flat
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Set element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data_mut()[flat] = value;
    }

    /// `true` if every element is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Number of non-finite (NaN/inf) elements.
    pub fn count_non_finite(&self) -> usize {
        self.data.iter().filter(|v| !v.is_finite()).count()
    }

    /// Flat index and value of the first non-finite element, if any —
    /// diagnostic companion to [`Tensor::is_finite`] for error messages.
    pub fn first_non_finite(&self) -> Option<(usize, f32)> {
        self.data
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(i, &v)| (i, v))
    }

    /// Clamp every element into `[lo, hi]` (NaN maps to `lo`).
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|v| if v.is_nan() { lo } else { v.clamp(lo, hi) })
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// The same elements under a new shape (shares the storage); element
    /// count must match.
    pub fn reshape(&self, shape: Vec<usize>) -> Self {
        assert_eq!(
            numel(&shape),
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Permute dimensions; `perm` must be a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = strides_for(&self.shape);
        if self.data.is_empty() || perm.is_empty() {
            return Tensor::new(out_shape, self.data.to_vec());
        }
        let mut data = Vec::with_capacity(self.data.len());
        // The odometer walks the outer output dims only; the last output
        // dim is one run of the source, contiguous when its stride is 1.
        let last = perm.len() - 1;
        let (run, run_stride) = (out_shape[last], in_strides[perm[last]]);
        let mut idx = vec![0usize; last];
        loop {
            let src: usize = idx.iter().zip(perm).map(|(&i, &p)| i * in_strides[p]).sum();
            if run_stride == 1 {
                data.extend_from_slice(&self.data[src..src + run]);
            } else {
                data.extend(self.data[src..].iter().step_by(run_stride).take(run));
            }
            if !next_index(&mut idx, &out_shape[..last]) {
                break;
            }
        }
        Tensor::new(out_shape, data)
    }

    /// Transpose a 2-D tensor.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose2 requires a matrix");
        self.permute(&[1, 0])
    }

    /// Concatenate tensors along `axis`; all other dims must match.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Self {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let rank = tensors[0].rank();
        assert!(axis < rank, "concat axis out of range");
        for t in tensors {
            assert_eq!(t.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != axis {
                    assert_eq!(t.shape[d], tensors[0].shape[d], "concat dim {d} mismatch");
                }
            }
        }
        let mut out_shape = tensors[0].shape.clone();
        out_shape[axis] = tensors.iter().map(|t| t.shape[axis]).sum();

        // Treat each tensor as (outer, axis_len, inner) blocks.
        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for t in tensors {
                let a = t.shape[axis];
                let start = o * a * inner;
                data.extend_from_slice(&t.data[start..start + a * inner]);
            }
        }
        Tensor::new(out_shape, data)
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Self {
        assert!(axis < self.rank(), "slice axis out of range");
        assert!(
            start <= end && end <= self.shape[axis],
            "slice range out of bounds"
        );
        let mut out_shape = self.shape.clone();
        out_shape[axis] = end - start;
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let a = self.shape[axis];
        let mut data = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            let base = o * a * inner;
            data.extend_from_slice(&self.data[base + start * inner..base + end * inner]);
        }
        Tensor::new(out_shape, data)
    }

    /// Select rows (axis 0) by index, producing shape `[indices.len(), rest…]`.
    /// This is the embedding-lookup / masked-gather primitive.
    pub fn index_select0(&self, indices: &[usize]) -> Self {
        assert!(self.rank() >= 1, "index_select0 needs rank >= 1");
        let row = self.data.len() / self.shape[0].max(1);
        let mut out_shape = self.shape.clone();
        out_shape[0] = indices.len();
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(
                i < self.shape[0],
                "index {i} out of bounds for dim {}",
                self.shape[0]
            );
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        Tensor::new(out_shape, data)
    }

    /// Scatter-add rows into a zero tensor of `dim0` rows: the reverse of
    /// [`Tensor::index_select0`]. Duplicate indices accumulate.
    pub fn index_add0(&self, indices: &[usize], dim0: usize) -> Self {
        assert_eq!(
            self.shape[0],
            indices.len(),
            "index_add0 row count mismatch"
        );
        let row = if indices.is_empty() {
            0
        } else {
            self.data.len() / indices.len()
        };
        let mut out_shape = self.shape.clone();
        out_shape[0] = dim0;
        let mut data = vec![0.0; numel(&out_shape)];
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < dim0, "index {i} out of bounds for dim {dim0}");
            for c in 0..row {
                data[i * row + c] += self.data[r * row + c];
            }
        }
        Tensor::new(out_shape, data)
    }

    // ------------------------------------------------------------------
    // Elementwise / broadcasting
    // ------------------------------------------------------------------

    /// Apply `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor::new(
            self.shape.clone(),
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Broadcasting binary op: `f(self, rhs)` elementwise over the broadcast
    /// shape. Panics on incompatible shapes.
    ///
    /// Adjacent output dims over which both operands step like one longer
    /// dim are coalesced ([`coalesce_zip_dims`]); the innermost coalesced dim
    /// runs as a tight loop specialised on its two strides and only the
    /// outer dims are walked by an odometer. `[b,c,h,w] ∘ [c,1,1]` is `b·c`
    /// runs of `h·w` elements against one scalar.
    pub fn zip_broadcast(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        if self.shape == rhs.shape {
            // Fast path: same shape, no stride juggling.
            let data = self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Tensor::new(self.shape.clone(), data);
        }
        let out_shape = broadcast_shapes(&self.shape, &rhs.shape).unwrap_or_else(|e| panic!("{e}"));
        let n = numel(&out_shape);
        let mut data = Vec::with_capacity(n);
        if n == 0 {
            return Tensor::new(out_shape, data);
        }
        let ls = broadcast_strides(&self.shape, &out_shape);
        let rs = broadcast_strides(&rhs.shape, &out_shape);
        let mut dims = coalesce_zip_dims(&out_shape, &ls, &rs);
        let inner = dims
            .pop()
            .expect("coalesce_zip_dims returns at least one dim");
        let (l, r) = (&self.data[..], &rhs.data[..]);
        // Outer dims: an odometer that carries the two flat offsets along.
        let mut idx = vec![0usize; dims.len()];
        let (mut lo, mut ro) = (0usize, 0usize);
        loop {
            match (inner.ls, inner.rs) {
                (1, 1) => {
                    let (lrun, rrun) = (&l[lo..lo + inner.len], &r[ro..ro + inner.len]);
                    data.extend(lrun.iter().zip(rrun).map(|(&a, &b)| f(a, b)));
                }
                (1, 0) => {
                    let b = r[ro];
                    data.extend(l[lo..lo + inner.len].iter().map(|&a| f(a, b)));
                }
                (0, 1) => {
                    let a = l[lo];
                    data.extend(r[ro..ro + inner.len].iter().map(|&b| f(a, b)));
                }
                (sl, sr) => {
                    data.extend((0..inner.len).map(|j| f(l[lo + j * sl], r[ro + j * sr])));
                }
            }
            // Step the outer odometer, innermost outer dim first.
            let mut d = dims.len();
            loop {
                if d == 0 {
                    return Tensor::new(out_shape, data);
                }
                d -= 1;
                idx[d] += 1;
                lo += dims[d].ls;
                ro += dims[d].rs;
                if idx[d] < dims[d].len {
                    break;
                }
                lo -= dims[d].ls * dims[d].len;
                ro -= dims[d].rs * dims[d].len;
                idx[d] = 0;
            }
        }
    }

    /// The per-element odometer walk that [`Tensor::zip_broadcast`] replaced,
    /// kept as its test oracle.
    #[cfg(test)]
    fn zip_broadcast_odometer(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        let out_shape = broadcast_shapes(&self.shape, &rhs.shape).unwrap_or_else(|e| panic!("{e}"));
        let ls = broadcast_strides(&self.shape, &out_shape);
        let rs = broadcast_strides(&rhs.shape, &out_shape);
        let mut data = vec![0.0; numel(&out_shape)];
        if data.is_empty() {
            return Tensor::new(out_shape, data);
        }
        let mut idx = vec![0usize; out_shape.len()];
        let mut flat = 0usize;
        loop {
            let li: usize = idx.iter().zip(&ls).map(|(i, s)| i * s).sum();
            let ri: usize = idx.iter().zip(&rs).map(|(i, s)| i * s).sum();
            data[flat] = f(self.data[li], rhs.data[ri]);
            flat += 1;
            if !next_index(&mut idx, &out_shape) {
                break;
            }
        }
        Tensor::new(out_shape, data)
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, rhs: &Tensor) -> Self {
        self.zip_broadcast(rhs, |a, b| a + b)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Self {
        self.zip_broadcast(rhs, |a, b| a - b)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, rhs: &Tensor) -> Self {
        self.zip_broadcast(rhs, |a, b| a * b)
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, rhs: &Tensor) -> Self {
        self.zip_broadcast(rhs, |a, b| a / b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|v| -v)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element; `None` when empty.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Sum along `axis`, keeping the axis as size 1 when `keepdim`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Self {
        assert!(axis < self.rank(), "sum_axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let a = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        if keepdim {
            out_shape[axis] = 1;
        } else {
            out_shape.remove(axis);
        }
        let mut data = vec![0.0; outer * inner];
        if inner == 1 {
            // A trailing axis: the same ascending sum from 0.0, held in a
            // register instead of added through memory.
            for (out, row) in data.iter_mut().zip(self.data.chunks_exact(a.max(1))) {
                let mut acc = 0.0f32;
                for &v in row {
                    acc += v;
                }
                *out = acc;
            }
            return Tensor::new(out_shape, data);
        }
        for o in 0..outer {
            for k in 0..a {
                let base = (o * a + k) * inner;
                for i in 0..inner {
                    data[o * inner + i] += self.data[base + i];
                }
            }
        }
        Tensor::new(out_shape, data)
    }

    /// Mean along `axis`, keeping the axis as size 1 when `keepdim`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Self {
        let n = self.shape[axis].max(1) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    /// Sum-reduce this tensor down to `target` shape (inverse of a broadcast):
    /// used to push gradients back through broadcasting binary ops.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Self {
        if self.shape == target {
            return self.clone();
        }
        let mut t = self.clone();
        // Remove extra leading dims by summing them away.
        while t.rank() > target.len() {
            t = t.sum_axis(0, false);
        }
        // Sum over dims where target is 1 but t is larger.
        for (d, &want) in target.iter().enumerate() {
            if want == 1 && t.shape[d] != 1 {
                t = t.sum_axis(d, true);
            }
        }
        assert_eq!(t.shape, target, "reduce_to_shape produced wrong shape");
        t
    }

    /// Softmax along the last dimension (numerically stabilized). Rows are
    /// independent, so the loop is parallelized over disjoint row ranges —
    /// bit-identical for any pool size.
    pub fn softmax_lastdim(&self) -> Self {
        let inner = *self.shape.last().expect("softmax needs rank >= 1");
        let mut out = self.clone();
        if inner == 0 || self.data.is_empty() {
            return out;
        }
        let grain = (4096 / inner).max(1);
        odt_compute::parallel_rows(out.data_mut(), inner, grain, |_, rows| {
            for row in rows.chunks_mut(inner) {
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - m).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        });
        out
    }

    /// Index of the maximum along the last dimension; shape loses that dim.
    pub fn argmax_lastdim(&self) -> Vec<usize> {
        let inner = *self.shape.last().expect("argmax needs rank >= 1");
        let outer = self.data.len() / inner.max(1);
        (0..outer)
            .map(|o| {
                let row = &self.data[o * inner..(o + 1) * inner];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));

        let f = Tensor::full(vec![2], 4.5);
        assert_eq!(f.data(), &[4.5, 4.5]);

        assert!(Tensor::try_from_vec(vec![1.0, 2.0], vec![3]).is_err());
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.data(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], vec![3]);
        let c = a.add(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_col_times_row() {
        let col = Tensor::from_vec(vec![1.0, 2.0], vec![2, 1]);
        let row = Tensor::from_vec(vec![3.0, 4.0, 5.0], vec![1, 3]);
        let m = col.mul(&row);
        assert_eq!(m.shape(), &[2, 3]);
        assert_eq!(m.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 4]);
        let _ = a.add(&b);
    }

    /// Deterministic values in [-1, 1] with a few exact zeros, no rand.
    fn pseudo(shape: &[usize], seed: u32) -> Tensor {
        let mut s = seed | 1;
        let data = (0..numel(shape))
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                if i % 11 == 7 {
                    0.0
                } else {
                    (s as f32 / u32::MAX as f32) * 2.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(data, shape.to_vec())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The per-element odometer walk that [`Tensor::permute`] replaced.
    fn permute_odometer(t: &Tensor, perm: &[usize]) -> Tensor {
        let out_shape: Vec<usize> = perm.iter().map(|&p| t.shape[p]).collect();
        let in_strides = strides_for(&t.shape);
        let mut data = Vec::with_capacity(t.data.len());
        if t.data.is_empty() {
            return Tensor::new(out_shape, data);
        }
        let mut idx = vec![0usize; out_shape.len()];
        loop {
            let src: usize = idx
                .iter()
                .enumerate()
                .map(|(d, &i)| i * in_strides[perm[d]])
                .sum();
            data.push(t.data[src]);
            if !next_index(&mut idx, &out_shape) {
                break;
            }
        }
        Tensor::new(out_shape, data)
    }

    /// The add-through-memory loop that [`Tensor::sum_axis`] ran for every
    /// `inner`, including 1.
    fn sum_axis_in_memory(t: &Tensor, axis: usize) -> Vec<f32> {
        let outer: usize = t.shape[..axis].iter().product();
        let a = t.shape[axis];
        let inner: usize = t.shape[axis + 1..].iter().product();
        let mut data = vec![0.0; outer * inner];
        for o in 0..outer {
            for k in 0..a {
                for i in 0..inner {
                    data[o * inner + i] += t.data[(o * a + k) * inner + i];
                }
            }
        }
        data
    }

    #[test]
    fn permute_bit_identical_to_odometer() {
        // Ranks 1-4: the model's transposes first (weight `[1,0]`, token
        // `[0,2,1]`, head split `[0,2,1,3]`), identities, a zero-sized dim.
        let cases: &[(&[usize], &[usize])] = &[
            (&[5], &[0]),
            (&[3, 7], &[1, 0]),
            (&[3, 7], &[0, 1]),
            (&[2, 9, 4], &[0, 2, 1]),
            (&[2, 9, 4], &[2, 0, 1]),
            (&[2, 9, 4], &[0, 1, 2]),
            (&[2, 5, 3, 4], &[0, 2, 1, 3]),
            (&[2, 5, 3, 4], &[3, 1, 0, 2]),
            (&[2, 5, 3, 4], &[0, 1, 2, 3]),
            (&[1, 6, 1], &[2, 1, 0]),
            (&[2, 0, 3], &[2, 0, 1]),
        ];
        for &(shape, perm) in cases {
            let t = pseudo(shape, 13);
            let (got, want) = (t.permute(perm), permute_odometer(&t, perm));
            assert_eq!(got.shape(), want.shape(), "{shape:?} by {perm:?}");
            assert_eq!(bits(&got), bits(&want), "{shape:?} by {perm:?}");
        }
    }

    #[test]
    fn sum_axis_bit_identical_to_in_memory_sum() {
        // (shape, axis): inner == 1 (the register path) and inner > 1.
        let cases: &[(&[usize], usize)] = &[
            (&[6, 3200], 1),
            (&[2, 4, 37], 2),
            (&[5], 0),
            (&[3, 0], 1),
            (&[2, 4, 37], 1),
            (&[2, 4, 37], 0),
            (&[4, 1], 0),
        ];
        for &(shape, axis) in cases {
            let t = pseudo(shape, 17);
            let want: Vec<u32> = sum_axis_in_memory(&t, axis)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for keepdim in [false, true] {
                let got = t.sum_axis(axis, keepdim);
                assert_eq!(bits(&got), want, "{shape:?} axis {axis}");
            }
        }
    }

    #[test]
    fn broadcast_bit_identical_to_odometer() {
        // The shapes the model uses first, then the awkward ones: rank
        // mismatch, size-1 middle dims, both sides broadcasting, dims of 1
        // only, a zero-sized dim.
        let cases: &[(&[usize], &[usize])] = &[
            (&[3, 4, 25], &[3, 4, 1]),
            (&[2, 6, 5, 5], &[6, 1, 1]),
            (&[2, 6, 5, 5], &[2, 6, 1, 1]),
            (&[7, 9], &[9]),
            (&[9], &[7, 9]),
            (&[2, 3, 4], &[4]),
            (&[2, 3, 4], &[3, 1]),
            (&[2, 1, 4], &[2, 3, 4]),
            (&[2, 3, 1, 4], &[1, 3, 5, 1]),
            (&[2, 1], &[1, 3]),
            (&[4, 1, 3, 1], &[1, 5, 1, 2]),
            (&[1, 1], &[1]),
            (&[1], &[1, 1, 1]),
            (&[5, 1], &[1]),
            (&[2, 0, 3], &[3]),
            (&[0, 1], &[1, 4]),
        ];
        for &(ls, rs) in cases {
            let (l, r) = (pseudo(ls, 3), pseudo(rs, 5));
            // Division exercises operand order and produces inf/NaN on the zeros.
            let fs: [fn(f32, f32) -> f32; 4] =
                [|a, b| a + b, |a, b| a - b, |a, b| a * b, |a, b| a / b];
            for f in fs {
                let got = l.zip_broadcast(&r, f);
                let want = l.zip_broadcast_odometer(&r, f);
                assert_eq!(got.shape(), want.shape(), "{ls:?} ∘ {rs:?}");
                assert_eq!(bits(&got), bits(&want), "{ls:?} ∘ {rs:?}");
            }
        }
    }

    #[test]
    fn coalescing_folds_the_model_shapes() {
        let fold = |l: &[usize], r: &[usize]| {
            let out = broadcast_shapes(l, r).unwrap();
            coalesce_zip_dims(
                &out,
                &broadcast_strides(l, &out),
                &broadcast_strides(r, &out),
            )
            .iter()
            .map(|d| (d.len, d.ls, d.rs))
            .collect::<Vec<_>>()
        };
        // [b,c,h,w] ∘ [c,1,1]: b·c runs of h·w against one scalar.
        assert_eq!(
            fold(&[2, 6, 5, 5], &[6, 1, 1]),
            vec![(2, 150, 0), (6, 25, 1), (25, 1, 0)]
        );
        // [b,c,h,w] ∘ [b,c,1,1]: b and c fold too.
        assert_eq!(
            fold(&[2, 6, 5, 5], &[2, 6, 1, 1]),
            vec![(12, 25, 1), (25, 1, 0)]
        );
        assert_eq!(fold(&[7, 9], &[9]), vec![(7, 9, 0), (9, 1, 1)]);
        assert_eq!(fold(&[2, 1], &[1, 3]), vec![(2, 1, 0), (3, 0, 1)]);
        assert_eq!(fold(&[1, 1], &[1]), vec![(1, 0, 0)]);
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        let mut b = a.clone();
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        let r = a.reshape(vec![1, 3]);
        assert_eq!(a.data().as_ptr(), r.data().as_ptr());

        b.data_mut()[0] = 9.0;
        assert_ne!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(r.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);

        // `set` goes through the same copy-on-write.
        let mut c = a.clone();
        c.set(&[2], -1.0);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.data(), &[1.0, 2.0, -1.0]);

        // A unique handle is written in place.
        let before = b.data().as_ptr();
        b.data_mut()[1] = 8.0;
        assert_eq!(b.data().as_ptr(), before);
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let ptr = a.data().as_ptr();
        let keep = a.clone();
        let copied = a.into_vec();
        assert_ne!(copied.as_ptr(), ptr);
        assert_eq!(copied, vec![1.0, 2.0]);
        assert_eq!(keep.data(), &[1.0, 2.0]);
        // `keep` is now the only handle: its buffer moves out.
        let moved = keep.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
    }

    #[test]
    fn at_and_set_agree_with_strides() {
        let mut t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), vec![2, 3, 4]);
        let st = strides_for(t.shape());
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(t.at(&[i, j, k]), (i * st[0] + j * st[1] + k * st[2]) as f32);
                }
            }
        }
        t.set(&[1, 0, 3], -5.0);
        assert_eq!(t.data()[15], -5.0);
    }

    #[test]
    fn permute_and_transpose() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);

        let t3 = Tensor::from_vec((0..24).map(|v| v as f32).collect(), vec![2, 3, 4]);
        let p = t3.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t3.at(&[0, 2, 1]));
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], vec![1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), vec![2, 3, 4]);
        let s = t.slice(1, 1, 3);
        assert_eq!(s.shape(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn index_select_and_add_are_adjoint_shapes() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![4, 3]);
        let sel = t.index_select0(&[3, 1, 1]);
        assert_eq!(sel.shape(), &[3, 3]);
        assert_eq!(sel.data()[0..3], [9.0, 10.0, 11.0]);
        let back = sel.index_add0(&[3, 1, 1], 4);
        assert_eq!(back.shape(), &[4, 3]);
        // Row 1 accumulated twice.
        assert_eq!(back.at(&[1, 0]), 6.0);
        assert_eq!(back.at(&[0, 0]), 0.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
        let s0 = t.sum_axis(0, false);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = t.sum_axis(1, true);
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.data(), &[6.0, 15.0]);
        let m1 = t.mean_axis(1, false);
        assert_eq!(m1.data(), &[2.0, 5.0]);
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        let g = Tensor::ones(vec![2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.shape(), &[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], vec![2, 3]);
        let s = t.softmax_lastdim();
        for o in 0..2 {
            let sum: f32 = s.data()[o * 3..(o + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Numerical stability: huge logits must not produce NaN.
        assert!(s.is_finite());
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn finite_checks_and_clamp() {
        let ok = Tensor::from_vec(vec![1.0, -2.0], vec![2]);
        assert!(ok.is_finite());
        assert_eq!(ok.count_non_finite(), 0);
        assert_eq!(ok.first_non_finite(), None);

        let bad = Tensor::from_vec(vec![1.0, f32::NAN, f32::INFINITY], vec![3]);
        assert!(!bad.is_finite());
        assert_eq!(bad.count_non_finite(), 2);
        let (i, v) = bad.first_non_finite().unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());

        let c = bad.clamp(-1.0, 1.0);
        assert_eq!(c.data(), &[1.0, -1.0, 1.0]);
    }

    #[test]
    fn argmax() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.1, 0.3], vec![2, 3]);
        assert_eq!(t.argmax_lastdim(), vec![1, 2]);
    }
}
