//! Gradient-boosted regression trees, from scratch — the paper's GBM
//! baseline ("a non-linear regression method, implemented using XGBoost").
//! This is a plain squared-loss gradient booster over depth-limited CART
//! trees, which captures the mechanism the paper credits GBM with: higher
//! capacity than LR without using trajectories.

use crate::common::{OdtOracle, OracleContext};
use odt_traj::{OdtInput, Trajectory};

/// Booster hyper-parameters.
#[derive(Clone, Debug)]
pub struct GbmConfig {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
}

impl Default for GbmConfig {
    fn default() -> Self {
        GbmConfig {
            n_trees: 60,
            max_depth: 4,
            learning_rate: 0.1,
            min_leaf: 8,
        }
    }
}

enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }

    fn count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Split { left, right, .. } => 1 + left.count() + right.count(),
        }
    }
}

/// Grow a CART regression tree on the residuals.
fn grow(
    xs: &[Vec<f64>],
    residuals: &[f64],
    indices: &[usize],
    depth: usize,
    cfg: &GbmConfig,
) -> Node {
    let mean = indices.iter().map(|&i| residuals[i]).sum::<f64>() / indices.len() as f64;
    if depth >= cfg.max_depth || indices.len() < 2 * cfg.min_leaf {
        return Node::Leaf(mean);
    }
    let n_features = xs[0].len();
    let base_sse: f64 = indices.iter().map(|&i| (residuals[i] - mean).powi(2)).sum();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

    // `f` is a column of the row-major `xs`, which no iterator walks.
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        // Sort candidate indices by this feature.
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
        // Prefix sums of residuals for O(1) split evaluation.
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut prefix_sq = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        prefix_sq.push(0.0);
        for &i in &sorted {
            prefix.push(prefix.last().unwrap() + residuals[i]);
            prefix_sq.push(prefix_sq.last().unwrap() + residuals[i] * residuals[i]);
        }
        let total = *prefix.last().unwrap();
        let total_sq = *prefix_sq.last().unwrap();
        for split in cfg.min_leaf..sorted.len() - cfg.min_leaf + 1 {
            if split >= sorted.len() {
                break;
            }
            // Skip ties: threshold must separate distinct values.
            if xs[sorted[split - 1]][f] == xs[sorted[split]][f] {
                continue;
            }
            let nl = split as f64;
            let nr = (sorted.len() - split) as f64;
            let sl = prefix[split];
            let sr = total - sl;
            let sse =
                (prefix_sq[split] - sl * sl / nl) + ((total_sq - prefix_sq[split]) - sr * sr / nr);
            if best.as_ref().map_or(sse < base_sse - 1e-12, |b| sse < b.2) {
                let threshold = (xs[sorted[split - 1]][f] + xs[sorted[split]][f]) / 2.0;
                best = Some((f, threshold, sse));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Node::Leaf(mean);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| xs[i][feature] <= threshold);
    if left_idx.len() < cfg.min_leaf || right_idx.len() < cfg.min_leaf {
        return Node::Leaf(mean);
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(grow(xs, residuals, &left_idx, depth + 1, cfg)),
        right: Box::new(grow(xs, residuals, &right_idx, depth + 1, cfg)),
    }
}

/// The boosted ensemble.
pub struct Gbm {
    ctx: OracleContext,
    base: f64,
    trees: Vec<Node>,
    lr: f64,
}

impl Gbm {
    /// Fit with default hyper-parameters.
    pub fn fit(ctx: OracleContext, trips: &[Trajectory]) -> Self {
        Self::fit_with(ctx, trips, &GbmConfig::default())
    }

    /// Fit with explicit hyper-parameters.
    pub fn fit_with(ctx: OracleContext, trips: &[Trajectory], cfg: &GbmConfig) -> Self {
        let pairs = OdtInput::labelled(trips);
        assert!(!pairs.is_empty(), "GBM needs training data");
        let xs: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(odt, _)| ctx.features(odt).iter().map(|&v| v as f64).collect())
            .collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, y)| *y).collect();
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut preds = vec![base; ys.len()];
        let mut trees = Vec::with_capacity(cfg.n_trees);
        let all: Vec<usize> = (0..ys.len()).collect();
        for _ in 0..cfg.n_trees {
            let residuals: Vec<f64> = ys.iter().zip(&preds).map(|(y, p)| y - p).collect();
            let tree = grow(&xs, &residuals, &all, 0, cfg);
            for (i, p) in preds.iter_mut().enumerate() {
                *p += cfg.learning_rate * tree.predict(&xs[i]);
            }
            trees.push(tree);
        }
        Gbm {
            ctx,
            base,
            trees,
            lr: cfg.learning_rate,
        }
    }
}

impl OdtOracle for Gbm {
    fn name(&self) -> &'static str {
        "GBM"
    }

    fn predict_seconds(&self, odt: &OdtInput) -> f64 {
        let x: Vec<f64> = self.ctx.features(odt).iter().map(|&v| v as f64).collect();
        let mut y = self.base;
        for t in &self.trees {
            y += self.lr * t.predict(&x);
        }
        y.max(0.0)
    }

    fn model_size_bytes(&self) -> usize {
        // Each node ~ feature id + threshold + two pointers ≈ 24 bytes.
        self.trees.iter().map(|t| t.count() * 24).sum()
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

    /// A non-linear world: rush-hour trips take twice as long.
    fn nonlinear_world(ctx: &OracleContext, n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let d = 1_000.0 + 97.0 * (i % 29) as f64;
                let hour = (i % 17) as f64 + 5.0;
                let rush = (7.5..9.5).contains(&hour);
                let tt = d / 1_000.0 * if rush { 400.0 } else { 200.0 };
                let t0 = hour * 3_600.0;
                Trajectory::new(vec![
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(0.0, 0.0)),
                        t: t0,
                    },
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(d, 0.0)),
                        t: t0 + tt,
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn captures_nonlinear_rush_hour() {
        let c = ctx();
        let gbm = Gbm::fit(c, &nonlinear_world(&c, 400));
        let mk = |hour: f64| OdtInput {
            origin: c.proj.to_lnglat(Point::new(0.0, 0.0)),
            dest: c.proj.to_lnglat(Point::new(2_000.0, 0.0)),
            t_dep: hour * 3_600.0,
        };
        let rush = gbm.predict_seconds(&mk(8.0));
        let free = gbm.predict_seconds(&mk(13.0));
        assert!(
            rush > free * 1.5,
            "rush {rush:.0}s should be far above free-flow {free:.0}s"
        );
        assert!((free - 400.0).abs() < 120.0, "free {free}");
    }

    #[test]
    fn beats_constant_predictor_in_training_fit() {
        let c = ctx();
        let trips = nonlinear_world(&c, 300);
        let gbm = Gbm::fit(c, &trips);
        let mean = trips.iter().map(|t| t.travel_time()).sum::<f64>() / trips.len() as f64;
        let (mut sse_gbm, mut sse_mean) = (0.0, 0.0);
        for t in &trips {
            let odt = OdtInput::from_trajectory(t);
            sse_gbm += (gbm.predict_seconds(&odt) - t.travel_time()).powi(2);
            sse_mean += (mean - t.travel_time()).powi(2);
        }
        assert!(
            sse_gbm < sse_mean * 0.25,
            "gbm {sse_gbm:.0} vs mean {sse_mean:.0}"
        );
    }

    #[test]
    fn depth_zero_equivalent_yields_mean() {
        let c = ctx();
        let trips = nonlinear_world(&c, 100);
        let cfg = GbmConfig {
            n_trees: 1,
            max_depth: 0,
            learning_rate: 1.0,
            min_leaf: 1,
        };
        let gbm = Gbm::fit_with(c, &trips, &cfg);
        let mean = trips.iter().map(|t| t.travel_time()).sum::<f64>() / trips.len() as f64;
        let odt = OdtInput::from_trajectory(&trips[0]);
        // Base + single leaf of residual mean (≈ 0) = global mean.
        assert!((gbm.predict_seconds(&odt) - mean).abs() < 1e-6);
    }
}
