//! The vanilla Vision Transformer ablation (*Est-ViT*).
//!
//! Identical to the MViT except that attention runs over **all** `L_G²`
//! items; invalid items are excluded from attention via an additive key
//! mask (Figure 7(a)) but their weights are still computed — the exact
//! inefficiency MViT removes. Kept for Table 7 and Figure 8.

use crate::embed::{EmbedderConfig, PitEmbedder};
use crate::mvit::MVitConfig;
use crate::PitEstimator;
use odt_nn::{EncoderLayer, HasParams, Linear};
use odt_tensor::{Graph, Param, Tensor, Var};
use odt_traj::Pit;
use rand::Rng;

/// The vanilla-ViT estimator.
pub struct VanillaVit {
    embedder: PitEmbedder,
    layers: Vec<EncoderLayer>,
    fc_pre: Linear,
    lg: usize,
}

impl VanillaVit {
    /// Build for grid size `lg` using the same hyper-parameters as MViT.
    pub fn new(rng: &mut impl Rng, cfg: &MVitConfig, lg: usize) -> Self {
        let embedder = PitEmbedder::new(rng, EmbedderConfig::new(lg, cfg.d_e));
        let layers = (0..cfg.l_e)
            .map(|i| {
                EncoderLayer::new(
                    rng,
                    cfg.d_e,
                    cfg.heads,
                    cfg.ffn_hidden,
                    &format!("vit.layer{i}"),
                )
            })
            .collect();
        let fc_pre = Linear::new(rng, cfg.d_e, 1, "vit.fc_pre");
        VanillaVit {
            embedder,
            layers,
            fc_pre,
            lg,
        }
    }
}

impl PitEstimator for VanillaVit {
    fn predict(&self, g: &Graph, pit: &Pit) -> Var {
        assert_eq!(pit.lg(), self.lg, "PiT grid size mismatch");
        let cells = self.lg * self.lg;
        let all: Vec<usize> = (0..cells).collect();
        let d = self.fc_pre.in_dim();
        let seq = self.embedder.embed(g, pit, &all); // [cells, d]
        let mut x = g.reshape(seq, vec![1, cells, d]);
        // Additive key mask: 0 for valid, -1e9 for invalid items.
        let mask_vals: Vec<f32> = pit
            .mask_bool()
            .iter()
            .map(|&v| if v { 0.0 } else { -1e9 })
            .collect();
        let any_valid = mask_vals.contains(&0.0);
        let key_mask = Tensor::from_vec(
            if any_valid {
                mask_vals
            } else {
                vec![0.0; cells]
            },
            vec![1, cells],
        );
        for layer in &self.layers {
            x = layer.forward(g, x, Some(&key_mask));
        }
        // Mean pool over valid items only (invalid rows carry no signal but
        // would dilute the pool).
        let indices = {
            let v = pit.visited_indices();
            if v.is_empty() {
                all
            } else {
                v
            }
        };
        let flat = g.reshape(x, vec![cells, d]);
        let valid = g.index_select0(flat, &indices);
        let pooled = g.mean_axis(g.reshape(valid, vec![1, indices.len(), d]), 1, false);
        let out = self.fc_pre.forward(g, pooled);
        g.reshape(out, vec![1])
    }

    fn estimator_params(&self) -> Vec<Param> {
        let mut p = self.embedder.params();
        for l in &self.layers {
            p.extend(l.params());
        }
        p.extend(self.fc_pre.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvit::tests::pit_with_visits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn predicts_scalar() {
        let mut rng = StdRng::seed_from_u64(0);
        let v = VanillaVit::new(&mut rng, &MVitConfig::fast(), 6);
        let pit = pit_with_visits(6, &[(0, 0), (1, 1)], &[0.0, 90.0]);
        let g = Graph::new();
        let y = v.predict(&g, &pit);
        assert_eq!(g.shape(y), vec![1]);
        assert!(g.value(y).is_finite());
    }

    #[test]
    fn masked_cells_do_not_affect_prediction() {
        // Changing the temporal features of an *unvisited* cell must not
        // change the prediction: it is masked out of attention and pooling.
        let mut rng = StdRng::seed_from_u64(1);
        let v = VanillaVit::new(&mut rng, &MVitConfig::fast(), 4);
        let pit = pit_with_visits(4, &[(0, 0), (1, 1)], &[0.0, 60.0]);
        let mut altered_tensor = pit.tensor().clone();
        // Perturb ToD of unvisited cell (3, 3); mask stays -1.
        altered_tensor.set(&[1, 3, 3], 0.9);
        let altered = Pit::from_tensor(altered_tensor);
        let g = Graph::new();
        let a = g.value(v.predict(&g, &pit)).data()[0];
        let b = g.value(v.predict(&g, &altered)).data()[0];
        // The FC_ST embedding of the altered cell changes, but it is masked
        // from attention and excluded from pooling, so outputs match.
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn vit_and_mvit_have_comparable_param_counts() {
        use crate::MVit;
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MVitConfig::fast();
        let v = VanillaVit::new(&mut rng, &cfg, 8);
        let m = MVit::with_defaults(&mut rng, &cfg, 8);
        let (vp, mp) = (
            v.estimator_params()
                .iter()
                .map(|p| p.numel())
                .sum::<usize>(),
            m.estimator_params()
                .iter()
                .map(|p| p.numel())
                .sum::<usize>(),
        );
        assert_eq!(vp, mp, "same architecture, different masking only");
    }
}
