//! ST-NN (Jindal et al., 2017): "jointly predicts the travel distance and
//! time given origin and destination" — a plain MLP whose only inputs are
//! the origin and destination coordinates.

use crate::common::{target_stats, OdtOracle, OracleContext};
use crate::mlp::{train_adam, Mlp};
use odt_nn::HasParams;
use odt_tensor::Tensor;
use odt_traj::{OdtInput, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training hyper-parameters shared by the neural baselines.
#[derive(Clone, Debug)]
pub struct NeuralConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Adam iterations (mini-batches).
    pub iters: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        NeuralConfig {
            hidden: 64,
            iters: 500,
            batch: 128,
            lr: 1e-3,
            seed: 7,
        }
    }
}

/// The ST-NN oracle: trunk MLP with two linear heads (time, distance),
/// trained multi-task.
pub struct StNn {
    ctx: OracleContext,
    trunk: Mlp,
    head: Mlp, // outputs [time_norm, dist_norm]
    tt_mean: f64,
    tt_std: f64,
}

impl StNn {
    /// Fit on the training split.
    pub fn fit(ctx: OracleContext, trips: &[Trajectory], cfg: &NeuralConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let trunk = Mlp::new(&mut rng, &[4, cfg.hidden, cfg.hidden], "stnn.trunk");
        let head = Mlp::new(&mut rng, &[cfg.hidden, 2], "stnn.head");
        let (tt_mean, tt_std) = target_stats(trips);

        // Features: normalized origin/dest only (no departure time — the
        // paper stresses ST-NN's input is just the OD pair).
        let n = trips.len();
        let mut feats = Tensor::zeros(vec![n, 4]);
        let mut targets = Tensor::zeros(vec![n, 2]);
        let dist_scale = 5_000.0;
        for (i, t) in trips.iter().enumerate() {
            let odt = OdtInput::from_trajectory(t);
            let f = ctx.features(&odt);
            for (j, &v) in f.iter().enumerate().take(4) {
                feats.set(&[i, j], v);
            }
            targets.set(&[i, 0], ((t.travel_time() - tt_mean) / tt_std) as f32);
            targets.set(&[i, 1], (t.travel_distance(&ctx.proj) / dist_scale) as f32);
        }

        let mut params = trunk.params();
        params.extend(head.params());
        let model = StNn {
            ctx,
            trunk,
            head,
            tt_mean,
            tt_std,
        };
        let mut order: Vec<usize> = (0..n).collect();
        train_adam(params, cfg.lr, cfg.iters, |g, it| {
            if it % (n / cfg.batch.max(1)).max(1) == 0 {
                // Cheap deterministic reshuffle per epoch.
                order.rotate_left(17 % n.max(1));
            }
            let start = (it * cfg.batch) % n;
            let idx: Vec<usize> = (0..cfg.batch.min(n))
                .map(|k| order[(start + k) % n])
                .collect();
            let x = g.input(feats.index_select0(&idx));
            let y = g.input(targets.index_select0(&idx));
            let pred = model.head.forward(g, g.relu(model.trunk.forward(g, x)));
            g.mse(pred, y)
        });
        model
    }
}

impl OdtOracle for StNn {
    fn name(&self) -> &'static str {
        "ST-NN"
    }

    fn predict_seconds(&self, odt: &OdtInput) -> f64 {
        let f = self.ctx.features(odt);
        let g = odt_tensor::Graph::new();
        let x = g.input(Tensor::from_vec(f[..4].to_vec(), vec![1, 4]));
        let out = g.value(self.head.forward(&g, g.relu(self.trunk.forward(&g, x))));
        (out.data()[0] as f64 * self.tt_std + self.tt_mean).max(0.0)
    }

    fn model_size_bytes(&self) -> usize {
        (self.trunk.num_params() + self.head.num_params()) * 4
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use odt_roadnet::{LngLat, Point, Projection};
    use odt_traj::{GpsPoint, GridSpec};

    pub(crate) fn ctx() -> OracleContext {
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

    pub(crate) fn distance_world(ctx: &OracleContext, n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let d = 1_000.0 + 173.0 * (i % 23) as f64;
                let angle = (i % 11) as f64;
                let (dx, dy) = (d * angle.cos(), d * angle.sin());
                let tt = d / 1_000.0 * 220.0;
                let t0 = 7.0 * 3_600.0 + (i % 400) as f64 * 60.0;
                Trajectory::new(vec![
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(0.0, 0.0)),
                        t: t0,
                    },
                    GpsPoint {
                        loc: ctx.proj.to_lnglat(Point::new(dx, dy)),
                        t: t0 + tt,
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn learns_distance_time_relation() {
        let c = ctx();
        let trips = distance_world(&c, 300);
        let cfg = NeuralConfig {
            iters: 400,
            ..Default::default()
        };
        let m = StNn::fit(c, &trips, &cfg);
        let q = OdtInput {
            origin: c.proj.to_lnglat(Point::new(0.0, 0.0)),
            dest: c.proj.to_lnglat(Point::new(2_000.0, 0.0)),
            t_dep: 8.0 * 3_600.0,
        };
        let pred = m.predict_seconds(&q);
        assert!((pred - 440.0).abs() < 150.0, "pred {pred}, expected ~440");
    }

    #[test]
    fn prediction_ignores_departure_time() {
        let c = ctx();
        let trips = distance_world(&c, 100);
        let cfg = NeuralConfig {
            iters: 50,
            ..Default::default()
        };
        let m = StNn::fit(c, &trips, &cfg);
        let mk = |t_dep: f64| OdtInput {
            origin: c.proj.to_lnglat(Point::new(0.0, 0.0)),
            dest: c.proj.to_lnglat(Point::new(2_000.0, 0.0)),
            t_dep,
        };
        let a = m.predict_seconds(&mk(6.0 * 3_600.0));
        let b = m.predict_seconds(&mk(18.0 * 3_600.0));
        assert_eq!(a, b, "ST-NN takes no temporal input");
    }
}
