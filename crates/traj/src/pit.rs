//! Pixelated Trajectories (paper Definition 2).
//!
//! A PiT renders a trajectory as an `L_G × L_G` image with three channels:
//!
//! 1. **Mask** — 1 where the trajectory visits the cell;
//! 2. **ToD** — time of day of the first visit, normalized to `[-1, 1]`;
//! 3. **Time offset** — relative position of the visit within the trip,
//!    normalized to `[-1, 1]`.
//!
//! Cells never visited hold `-1` in every channel. We store the image in
//! NCHW channel-first order `[3, L_G, L_G]` so it feeds the convolutional
//! denoiser directly; accessors use the paper's `(x=row, y=col, channel)`
//! view.

use crate::grid::GridSpec;
use crate::types::Trajectory;
use odt_tensor::Tensor;

/// Number of PiT feature channels.
pub const CHANNELS: usize = 3;
/// Channel index of the visit mask.
pub const CH_MASK: usize = 0;
/// Channel index of the time-of-day feature.
pub const CH_TOD: usize = 1;
/// Channel index of the time-offset feature.
pub const CH_OFFSET: usize = 2;

/// A Pixelated Trajectory: a `[3, L_G, L_G]` image.
#[derive(Clone, Debug, PartialEq)]
pub struct Pit {
    tensor: Tensor,
    lg: usize,
}

impl Pit {
    /// Rasterize a trajectory onto the grid per Definition 2.
    ///
    /// For each cell, the *earliest* GPS point falling inside determines the
    /// ToD and offset channels.
    pub fn from_trajectory(traj: &Trajectory, grid: &GridSpec) -> Self {
        let lg = grid.lg;
        let mut tensor = Tensor::full(vec![CHANNELS, lg, lg], -1.0);
        let t1 = traj.departure();
        let t_end = traj.arrival();
        let span = (t_end - t1).max(1e-9);
        for p in &traj.points {
            let (row, col) = grid.cell_of(p.loc);
            // Earliest point wins; skip if the cell is already set.
            if tensor.at(&[CH_MASK, row, col]) >= 0.0 {
                continue;
            }
            let tod = 2.0 * (p.t.rem_euclid(86_400.0)) / 86_400.0 - 1.0;
            let offset = 2.0 * (p.t - t1) / span - 1.0;
            tensor.set(&[CH_MASK, row, col], 1.0);
            tensor.set(&[CH_TOD, row, col], tod as f32);
            tensor.set(&[CH_OFFSET, row, col], offset as f32);
        }
        Pit { tensor, lg }
    }

    /// Wrap a raw `[3, L_G, L_G]` tensor (e.g. a diffusion-model output).
    pub fn from_tensor(tensor: Tensor) -> Self {
        let shape = tensor.shape().to_vec();
        assert_eq!(shape.len(), 3, "PiT tensor must be [3, L, L]");
        assert_eq!(shape[0], CHANNELS, "PiT tensor must have 3 channels");
        assert_eq!(shape[1], shape[2], "PiT must be square");
        let lg = shape[1];
        Pit { tensor, lg }
    }

    /// Grid side length `L_G`.
    pub fn lg(&self) -> usize {
        self.lg
    }

    /// The underlying `[3, L_G, L_G]` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Consume into the underlying tensor.
    pub fn into_tensor(self) -> Tensor {
        self.tensor
    }

    /// Value of `channel` at cell `(row, col)`.
    pub fn at(&self, channel: usize, row: usize, col: usize) -> f32 {
        self.tensor.at(&[channel, row, col])
    }

    /// Whether a cell is visited, thresholding the mask channel at 0 as in
    /// Eq. 19 (`True` iff `X[x, y, 1] >= 0`).
    pub fn is_visited(&self, row: usize, col: usize) -> bool {
        self.at(CH_MASK, row, col) >= 0.0
    }

    /// Boolean visit mask, row-major (`L_G²` entries).
    pub fn mask_bool(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.lg * self.lg);
        for row in 0..self.lg {
            for col in 0..self.lg {
                out.push(self.is_visited(row, col));
            }
        }
        out
    }

    /// Number of visited cells.
    pub fn num_visited(&self) -> usize {
        self.mask_bool().iter().filter(|&&b| b).count()
    }

    /// Flat row-major indices of visited cells, the "masked sequence" the
    /// MViT attends over (Eq. 20).
    pub fn visited_indices(&self) -> Vec<usize> {
        self.mask_bool()
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Second-of-day of the visit to a cell decoded from the ToD channel,
    /// or `None` when unvisited.
    pub fn visit_second_of_day(&self, row: usize, col: usize) -> Option<f64> {
        if !self.is_visited(row, col) {
            return None;
        }
        let tod = self.at(CH_TOD, row, col) as f64;
        Some((tod + 1.0) / 2.0 * 86_400.0)
    }

    /// Project a raw model output onto valid PiT semantics: mask snapped to
    /// `{-1, 1}`, and where the mask is `-1`, the temporal channels are
    /// reset to `-1` as well. Temporal channels clamp to `[-1, 1]`.
    pub fn sanitized(&self) -> Pit {
        let mut t = self.tensor.clone();
        for row in 0..self.lg {
            for col in 0..self.lg {
                let visited = t.at(&[CH_MASK, row, col]) >= 0.0;
                t.set(&[CH_MASK, row, col], if visited { 1.0 } else { -1.0 });
                for ch in [CH_TOD, CH_OFFSET] {
                    let v = if visited {
                        t.at(&[ch, row, col]).clamp(-1.0, 1.0)
                    } else {
                        -1.0
                    };
                    t.set(&[ch, row, col], v);
                }
            }
        }
        Pit {
            tensor: t,
            lg: self.lg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GpsPoint;
    use odt_roadnet::LngLat;

    fn simple_grid() -> GridSpec {
        GridSpec::new(
            LngLat { lng: 0.0, lat: 0.0 },
            LngLat { lng: 3.0, lat: 3.0 },
            3,
        )
    }

    fn traj_3pt() -> Trajectory {
        // Mirrors Example 2's structure: three points in three cells, at
        // 9:00, 9:36 and 12:00.
        Trajectory::new(vec![
            GpsPoint {
                loc: LngLat { lng: 0.5, lat: 0.5 },
                t: 9.0 * 3600.0,
            },
            GpsPoint {
                loc: LngLat { lng: 1.5, lat: 1.5 },
                t: 9.6 * 3600.0,
            },
            GpsPoint {
                loc: LngLat { lng: 2.5, lat: 2.5 },
                t: 12.0 * 3600.0,
            },
        ])
    }

    #[test]
    fn channels_follow_definition_2() {
        let pit = Pit::from_trajectory(&traj_3pt(), &simple_grid());
        // Visited cells are on the diagonal.
        assert!(pit.is_visited(0, 0) && pit.is_visited(1, 1) && pit.is_visited(2, 2));
        assert_eq!(pit.num_visited(), 3);
        // ToD: 2*t/86400 - 1.
        let tod = |h: f64| (2.0 * h * 3600.0 / 86_400.0 - 1.0) as f32;
        assert!((pit.at(CH_TOD, 0, 0) - tod(9.0)).abs() < 1e-6);
        assert!((pit.at(CH_TOD, 1, 1) - tod(9.6)).abs() < 1e-6);
        assert!((pit.at(CH_TOD, 2, 2) - tod(12.0)).abs() < 1e-6);
        // Offset: first point -1, last +1, middle 2*(0.6/3)-1 = -0.6.
        assert_eq!(pit.at(CH_OFFSET, 0, 0), -1.0);
        assert!((pit.at(CH_OFFSET, 1, 1) + 0.6).abs() < 1e-6);
        assert_eq!(pit.at(CH_OFFSET, 2, 2), 1.0);
        // Unvisited cells are -1 everywhere.
        for ch in 0..CHANNELS {
            assert_eq!(pit.at(ch, 0, 2), -1.0);
        }
    }

    #[test]
    fn earliest_point_wins_cell() {
        let grid = simple_grid();
        let t = Trajectory::new(vec![
            GpsPoint {
                loc: LngLat { lng: 0.5, lat: 0.5 },
                t: 100.0,
            },
            GpsPoint {
                loc: LngLat { lng: 0.6, lat: 0.6 },
                t: 200.0,
            }, // same cell, later
            GpsPoint {
                loc: LngLat { lng: 2.5, lat: 2.5 },
                t: 300.0,
            },
        ]);
        let pit = Pit::from_trajectory(&t, &grid);
        // Offset of cell (0,0) must reflect t=100 (the earliest), i.e. -1.
        assert_eq!(pit.at(CH_OFFSET, 0, 0), -1.0);
    }

    #[test]
    fn visited_indices_row_major() {
        let pit = Pit::from_trajectory(&traj_3pt(), &simple_grid());
        assert_eq!(pit.visited_indices(), vec![0, 4, 8]);
    }

    #[test]
    fn visit_second_of_day_round_trips() {
        let pit = Pit::from_trajectory(&traj_3pt(), &simple_grid());
        let s = pit.visit_second_of_day(1, 1).unwrap();
        assert!((s - 9.6 * 3600.0).abs() < 10.0); // f32 quantization
        assert!(pit.visit_second_of_day(0, 1).is_none());
    }

    #[test]
    fn sanitize_cleans_model_output() {
        let mut t = Tensor::full(vec![3, 2, 2], -1.0);
        t.set(&[CH_MASK, 0, 0], 0.3); // weakly visited
        t.set(&[CH_TOD, 0, 0], 1.7); // out of range
        t.set(&[CH_MASK, 1, 1], -0.2); // not visited
        t.set(&[CH_TOD, 1, 1], 0.9); // stray temporal value
        let pit = Pit::from_tensor(t).sanitized();
        assert_eq!(pit.at(CH_MASK, 0, 0), 1.0);
        assert_eq!(pit.at(CH_TOD, 0, 0), 1.0); // clamped
        assert_eq!(pit.at(CH_MASK, 1, 1), -1.0);
        assert_eq!(pit.at(CH_TOD, 1, 1), -1.0); // reset
    }

    #[test]
    #[should_panic(expected = "3 channels")]
    fn from_tensor_validates_channels() {
        let _ = Pit::from_tensor(Tensor::zeros(vec![2, 4, 4]));
    }

    #[test]
    fn instant_trajectory_does_not_divide_by_zero() {
        let grid = simple_grid();
        let t = Trajectory::new(vec![
            GpsPoint {
                loc: LngLat { lng: 0.5, lat: 0.5 },
                t: 50.0,
            },
            GpsPoint {
                loc: LngLat { lng: 2.5, lat: 0.5 },
                t: 50.0,
            },
        ]);
        let pit = Pit::from_trajectory(&t, &grid);
        assert!(pit.tensor().is_finite());
    }
}
