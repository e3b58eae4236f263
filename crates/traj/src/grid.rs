//! The spatial grid underlying Pixelated Trajectories (Definition 2):
//! the area of interest split into `L_G × L_G` equal cells.

use crate::types::Trajectory;
use odt_roadnet::LngLat;

/// An `L_G × L_G` grid over a geographic bounding box.
#[derive(Copy, Clone, Debug)]
pub struct GridSpec {
    /// South-west corner of the area of interest.
    pub min: LngLat,
    /// North-east corner of the area of interest.
    pub max: LngLat,
    /// Number of segments per axis (`L_G` in the paper).
    pub lg: usize,
}

impl GridSpec {
    /// Build a grid over an explicit bounding box.
    pub fn new(min: LngLat, max: LngLat, lg: usize) -> Self {
        assert!(lg >= 2, "grid needs at least 2 segments per axis");
        assert!(
            max.lng > min.lng && max.lat > min.lat,
            "degenerate bounding box"
        );
        GridSpec { min, max, lg }
    }

    /// The grid covering all points of the given trajectories, slightly
    /// padded so boundary points fall strictly inside ("usually, the area
    /// covering all historical trajectories").
    pub fn covering(trajectories: &[Trajectory], lg: usize) -> Self {
        let mut min = LngLat {
            lng: f64::INFINITY,
            lat: f64::INFINITY,
        };
        let mut max = LngLat {
            lng: f64::NEG_INFINITY,
            lat: f64::NEG_INFINITY,
        };
        for t in trajectories {
            for p in &t.points {
                min.lng = min.lng.min(p.loc.lng);
                min.lat = min.lat.min(p.loc.lat);
                max.lng = max.lng.max(p.loc.lng);
                max.lat = max.lat.max(p.loc.lat);
            }
        }
        assert!(min.lng.is_finite(), "no points to cover");
        let pad_lng = (max.lng - min.lng).max(1e-9) * 1e-4;
        let pad_lat = (max.lat - min.lat).max(1e-9) * 1e-4;
        GridSpec::new(
            LngLat {
                lng: min.lng - pad_lng,
                lat: min.lat - pad_lat,
            },
            LngLat {
                lng: max.lng + pad_lng,
                lat: max.lat + pad_lat,
            },
            lg,
        )
    }

    /// Map a coordinate to its `(row, col)` cell, clamping out-of-area
    /// points to the border cells. `row` indexes latitude (south → north),
    /// `col` indexes longitude (west → east).
    pub fn cell_of(&self, p: LngLat) -> (usize, usize) {
        let fx = (p.lng - self.min.lng) / (self.max.lng - self.min.lng);
        let fy = (p.lat - self.min.lat) / (self.max.lat - self.min.lat);
        let col = ((fx * self.lg as f64) as isize).clamp(0, self.lg as isize - 1) as usize;
        let row = ((fy * self.lg as f64) as isize).clamp(0, self.lg as isize - 1) as usize;
        (row, col)
    }

    /// Flatten a `(row, col)` cell to a sequence index (row-major), the
    /// order Eq. 17 flattens PiTs in.
    pub fn flat_index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.lg && col < self.lg);
        row * self.lg + col
    }

    /// Inverse of [`GridSpec::flat_index`].
    pub fn cell_of_index(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.lg * self.lg);
        (idx / self.lg, idx % self.lg)
    }

    /// Center coordinate of a cell.
    pub fn cell_center(&self, row: usize, col: usize) -> LngLat {
        let dlng = (self.max.lng - self.min.lng) / self.lg as f64;
        let dlat = (self.max.lat - self.min.lat) / self.lg as f64;
        LngLat {
            lng: self.min.lng + (col as f64 + 0.5) * dlng,
            lat: self.min.lat + (row as f64 + 0.5) * dlat,
        }
    }

    /// Total number of cells (`L_G²`).
    pub fn num_cells(&self) -> usize {
        self.lg * self.lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GpsPoint;

    fn grid() -> GridSpec {
        GridSpec::new(
            LngLat { lng: 0.0, lat: 0.0 },
            LngLat { lng: 1.0, lat: 1.0 },
            4,
        )
    }

    #[test]
    fn corners_map_to_corner_cells() {
        let g = grid();
        assert_eq!(
            g.cell_of(LngLat {
                lng: 0.01,
                lat: 0.01
            }),
            (0, 0)
        );
        assert_eq!(
            g.cell_of(LngLat {
                lng: 0.99,
                lat: 0.99
            }),
            (3, 3)
        );
        assert_eq!(
            g.cell_of(LngLat {
                lng: 0.99,
                lat: 0.01
            }),
            (0, 3)
        );
    }

    #[test]
    fn out_of_area_clamps() {
        let g = grid();
        assert_eq!(
            g.cell_of(LngLat {
                lng: -5.0,
                lat: 2.0
            }),
            (3, 0)
        );
    }

    #[test]
    fn flat_round_trip() {
        let g = grid();
        for row in 0..4 {
            for col in 0..4 {
                let i = g.flat_index(row, col);
                assert_eq!(g.cell_of_index(i), (row, col));
            }
        }
        assert_eq!(g.flat_index(0, 0), 0);
        assert_eq!(g.flat_index(3, 3), 15);
    }

    #[test]
    fn cell_center_lands_in_cell() {
        let g = grid();
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(g.cell_of(g.cell_center(row, col)), (row, col));
            }
        }
    }

    #[test]
    fn covering_encloses_all_points() {
        let t = Trajectory::new(vec![
            GpsPoint {
                loc: LngLat {
                    lng: 104.0,
                    lat: 30.6,
                },
                t: 0.0,
            },
            GpsPoint {
                loc: LngLat {
                    lng: 104.2,
                    lat: 30.8,
                },
                t: 60.0,
            },
        ]);
        let g = GridSpec::covering(std::slice::from_ref(&t), 8);
        for p in &t.points {
            let (row, col) = g.cell_of(p.loc);
            assert!(row < 8 && col < 8);
        }
        assert!(g.min.lng < 104.0 && g.max.lng > 104.2);
    }
}
