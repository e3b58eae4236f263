//! Linear regression via the normal equations — the paper's LR baseline
//! ("learns a linear map from ODT-Inputs to travel times").

use crate::common::{OdtOracle, OracleContext};
use odt_traj::{OdtInput, Trajectory};

/// Closed-form least-squares linear model over the standard feature vector
/// (plus an intercept).
pub struct LinearRegression {
    ctx: OracleContext,
    /// `[intercept, w_1, …, w_F]`.
    weights: Vec<f64>,
}

impl LinearRegression {
    /// Solve the normal equations with ridge damping for stability.
    pub fn fit(ctx: OracleContext, trips: &[Trajectory]) -> Self {
        let pairs = OdtInput::labelled(trips);
        assert!(!pairs.is_empty(), "LR needs training data");
        let f = ctx.features(&pairs[0].0).len() + 1;
        // Accumulate X^T X and X^T y.
        let mut xtx = vec![0.0f64; f * f];
        let mut xty = vec![0.0f64; f];
        for (odt, y) in &pairs {
            let mut row = vec![1.0f64];
            row.extend(ctx.features(odt).iter().map(|&v| v as f64));
            for i in 0..f {
                xty[i] += row[i] * y;
                for j in 0..f {
                    xtx[i * f + j] += row[i] * row[j];
                }
            }
        }
        // Ridge damping keeps the system well-posed for degenerate features.
        for i in 0..f {
            xtx[i * f + i] += 1e-6 * pairs.len() as f64;
        }
        let weights = solve(&mut xtx, &mut xty, f);
        LinearRegression { ctx, weights }
    }

    /// The fitted weights (intercept first).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Gaussian elimination with partial pivoting; consumes its inputs.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        assert!(diag.abs() > 1e-12, "singular system despite ridge damping");
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col * n + k] * x[k];
        }
        x[col] = acc / a[col * n + col];
    }
    x
}

impl OdtOracle for LinearRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn predict_seconds(&self, odt: &OdtInput) -> f64 {
        let feats = self.ctx.features(odt);
        let mut y = self.weights[0];
        for (w, &x) in self.weights[1..].iter().zip(&feats) {
            y += w * x as f64;
        }
        y.max(0.0)
    }

    fn model_size_bytes(&self) -> usize {
        self.weights.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_roadnet::{LngLat, Point, Projection};
    use odt_traj::{GpsPoint, GridSpec};

    fn ctx() -> OracleContext {
        OracleContext {
            grid: GridSpec::new(
                LngLat { lng: 0.0, lat: 0.0 },
                LngLat { lng: 0.3, lat: 0.3 },
                10,
            ),
            proj: Projection::new(LngLat {
                lng: 0.15,
                lat: 0.15,
            }),
        }
    }

    /// Trips whose travel time is exactly 200 s per km of crow-fly distance.
    fn linear_world(ctx: &OracleContext, n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let d = 1_000.0 + 150.0 * i as f64;
                let tt = d / 1_000.0 * 200.0;
                Trajectory::new(vec![
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(0.0, 0.0)),
                        t: 1_000.0,
                    },
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(d, 0.0)),
                        t: 1_000.0 + tt,
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn recovers_linear_relationship() {
        let c = ctx();
        let lr = LinearRegression::fit(c, &linear_world(&c, 40));
        let q = OdtInput {
            origin: c.proj.to_lnglat(Point::new(0.0, 0.0)),
            dest: c.proj.to_lnglat(Point::new(2_500.0, 0.0)),
            t_dep: 1_000.0,
        };
        let pred = lr.predict_seconds(&q);
        assert!((pred - 500.0).abs() < 20.0, "pred {pred}, expected 500");
    }

    #[test]
    fn predictions_are_non_negative() {
        let c = ctx();
        let lr = LinearRegression::fit(c, &linear_world(&c, 10));
        let q = OdtInput {
            origin: c.proj.to_lnglat(Point::new(0.0, 0.0)),
            dest: c.proj.to_lnglat(Point::new(1.0, 0.0)), // ~zero distance
            t_dep: 0.0,
        };
        assert!(lr.predict_seconds(&q) >= 0.0);
    }

    #[test]
    fn solver_matches_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        let x = solve(&mut a, &mut b, 2);
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_model_size() {
        let c = ctx();
        let lr = LinearRegression::fit(c, &linear_world(&c, 10));
        assert!(lr.model_size_bytes() < 100, "LR must be sub-100-byte scale");
    }
}
