//! Property tests for tensor algebra and autograd invariants. Each property
//! runs `CASES` cases; case `n` draws its inputs from `SplitMix64::new(n)`, so
//! the case number in a failure message is the seed that replays it.

use odt_obs::SplitMix64;
use odt_tensor::{Graph, Tensor};

const CASES: u64 = 64;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f32, hi: f32) -> f32 {
    lo + (hi - lo) * rng.next_f64() as f32
}

/// A tensor of `shape` with values in `[-bound, bound)`.
fn tensor(rng: &mut SplitMix64, shape: Vec<usize>, bound: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| uniform(rng, -bound, bound)).collect();
    Tensor::from_vec(data, shape)
}

/// A small tensor with random shape (rank 1-3, dims 1-5) and values.
fn small_tensor(rng: &mut SplitMix64) -> Tensor {
    let rank = 1 + rng.next_below(3);
    let shape = (0..rank).map(|_| 1 + rng.next_below(5) as usize).collect();
    tensor(rng, shape, 10.0)
}

fn matrix(rng: &mut SplitMix64, m: usize, k: usize) -> Tensor {
    tensor(rng, vec![m, k], 3.0)
}

#[test]
fn add_commutes() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        let u = t.map(|v| v * 0.5 + 1.0);
        assert_eq!(t.add(&u).data(), u.add(&t).data(), "case {case}");
    }
}

#[test]
fn sub_is_add_neg() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        let u = t.map(|v| v - 2.0);
        assert_eq!(t.sub(&u).data(), t.add(&u.neg()).data(), "case {case}");
    }
}

#[test]
fn scale_distributes_over_add() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let t = small_tensor(&mut rng);
        let s = uniform(&mut rng, -5.0, 5.0);
        let u = t.map(|v| v + 1.0);
        let lhs = t.add(&u).scale(s);
        let rhs = t.scale(s).add(&u.scale(s));
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            assert!((a - b).abs() < 1e-3, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn reshape_preserves_data() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        let r = t.reshape(vec![t.numel()]);
        assert_eq!(r.data(), t.data(), "case {case}");
    }
}

#[test]
fn double_permute_identity() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        let rank = t.rank();
        let perm: Vec<usize> = (0..rank).rev().collect();
        let mut inv = vec![0; rank];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        let back = t.permute(&perm).permute(&inv);
        assert_eq!(back.data(), t.data(), "case {case}");
        assert_eq!(back.shape(), t.shape(), "case {case}");
    }
}

#[test]
fn sum_axis_total_matches_sum() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        for axis in 0..t.rank() {
            let s = t.sum_axis(axis, false);
            assert!(
                (s.sum() - t.sum()).abs() < 1e-2 * (1.0 + t.sum().abs()),
                "case {case}: axis {axis} sums to {}, the tensor to {}",
                s.sum(),
                t.sum()
            );
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let s = small_tensor(&mut SplitMix64::new(case)).softmax_lastdim();
        assert!(s.is_finite(), "case {case}");
        let inner = *s.shape().last().unwrap();
        for (o, row) in s.data().chunks(inner).enumerate() {
            let sum: f32 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-4,
                "case {case}: row {o} sums to {sum}"
            );
            assert!(row.iter().all(|&v| v >= 0.0), "case {case}: row {o}");
        }
    }
}

#[test]
fn matmul_identity_left() {
    let mut eye = Tensor::zeros(vec![3, 3]);
    for i in 0..3 {
        eye.set(&[i, i], 1.0);
    }
    for case in 0..CASES {
        let a = matrix(&mut SplitMix64::new(case), 3, 4);
        assert_eq!(odt_tensor::matmul(&eye, &a).data(), a.data(), "case {case}");
    }
}

#[test]
fn matmul_linearity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = matrix(&mut rng, 2, 3);
        let b = matrix(&mut rng, 3, 2);
        let c = matrix(&mut rng, 3, 2);
        // A(B + C) == AB + AC
        let lhs = odt_tensor::matmul(&a, &b.add(&c));
        let rhs = odt_tensor::matmul(&a, &b).add(&odt_tensor::matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn concat_slice_round_trip() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        let u = t.map(|v| v + 1.0);
        let c = Tensor::concat(&[&t, &u], 0);
        let first = c.slice(0, 0, t.shape()[0]);
        assert_eq!(first.data(), t.data(), "case {case}");
    }
}

#[test]
fn grad_of_sum_is_ones() {
    for case in 0..CASES {
        let g = Graph::new();
        let x = g.input(small_tensor(&mut SplitMix64::new(case)));
        let loss = g.sum_all(x);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert!(grad.data().iter().all(|&v| v == 1.0), "case {case}");
    }
}

#[test]
fn grad_linearity_in_upstream() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        // d(2 * f)/dx == 2 * df/dx for f = sum(x^2)
        let g1 = Graph::new();
        let x1 = g1.input(t.clone());
        let l1 = g1.sum_all(g1.square(x1));
        g1.backward(l1);
        let grad1 = g1.grad(x1).unwrap();

        let g2 = Graph::new();
        let x2 = g2.input(t.clone());
        let l2 = g2.scale(g2.sum_all(g2.square(x2)), 2.0);
        g2.backward(l2);
        let grad2 = g2.grad(x2).unwrap();

        for (a, b) in grad1.data().iter().zip(grad2.data()) {
            assert!(
                (2.0 * a - b).abs() < 1e-3 * (1.0 + b.abs()),
                "case {case}: 2 * {a} vs {b}"
            );
        }
    }
}

#[test]
fn reduce_to_shape_preserves_total() {
    for case in 0..CASES {
        let t = small_tensor(&mut SplitMix64::new(case));
        // Broadcast t up by a fresh leading axis of 2, then reduce back:
        // totals must agree (each element was duplicated twice).
        let mut wide_shape = vec![2usize];
        wide_shape.extend_from_slice(t.shape());
        let wide = t.add(&Tensor::zeros(wide_shape));
        let reduced = wide.reduce_to_shape(t.shape());
        assert!(
            (reduced.sum() - wide.sum()).abs() < 1e-2 * (1.0 + wide.sum().abs()),
            "case {case}: reduced to {}, broadcast held {}",
            reduced.sum(),
            wide.sum()
        );
    }
}
