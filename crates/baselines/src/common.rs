//! Shared oracle interface and feature context.

use odt_roadnet::Projection;
use odt_traj::{GridSpec, OdtInput, Trajectory};

/// Shared context for feature extraction: the grid fixes the coordinate
/// normalization and the projection provides metric distances.
#[derive(Copy, Clone, Debug)]
pub struct OracleContext {
    /// The dataset grid (bounding box + `L_G`).
    pub grid: GridSpec,
    /// Meters↔degrees projection.
    pub proj: Projection,
}

impl OracleContext {
    /// Crow-fly OD distance in meters.
    pub fn od_distance_m(&self, odt: &OdtInput) -> f64 {
        self.proj
            .to_point(odt.origin)
            .distance(&self.proj.to_point(odt.dest))
    }

    /// The standard regression feature vector: normalized origin/dest
    /// coordinates, time-of-day as sin/cos, crow-fly distance in km.
    pub fn features(&self, odt: &OdtInput) -> Vec<f32> {
        let base = odt.features(self.grid.min, self.grid.max);
        let sod = odt.second_of_day() / 86_400.0 * std::f64::consts::TAU;
        vec![
            base[0],
            base[1],
            base[2],
            base[3],
            sod.sin() as f32,
            sod.cos() as f32,
            (self.od_distance_m(odt) / 1_000.0) as f32,
        ]
    }

    /// Grid cell of the origin, as a flat row-major index.
    pub fn origin_cell(&self, odt: &OdtInput) -> usize {
        let (r, c) = self.grid.cell_of(odt.origin);
        self.grid.flat_index(r, c)
    }

    /// Grid cell of the destination, as a flat row-major index.
    pub fn dest_cell(&self, odt: &OdtInput) -> usize {
        let (r, c) = self.grid.cell_of(odt.dest);
        self.grid.flat_index(r, c)
    }
}

/// An ODT-Oracle: predicts travel time (seconds) from an ODT-Input (Eq. 1's
/// `Δt` output; the PiT output is specific to DOT).
pub trait OdtOracle {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Predicted travel time in seconds.
    fn predict_seconds(&self, odt: &OdtInput) -> f64;

    /// Approximate in-memory model size in bytes (Table 5's "model size").
    fn model_size_bytes(&self) -> usize;
}

/// Mean/std of the travel times, for target normalization.
pub fn target_stats(trips: &[Trajectory]) -> (f64, f64) {
    let n = trips.len().max(1) as f64;
    let mean = trips.iter().map(Trajectory::travel_time).sum::<f64>() / n;
    let var = trips
        .iter()
        .map(|t| (t.travel_time() - mean).powi(2))
        .sum::<f64>()
        / n;
    (mean, var.sqrt().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_roadnet::LngLat;
    use odt_traj::GpsPoint;

    fn ctx() -> OracleContext {
        OracleContext {
            grid: GridSpec::new(
                LngLat {
                    lng: 104.0,
                    lat: 30.0,
                },
                LngLat {
                    lng: 104.2,
                    lat: 30.2,
                },
                10,
            ),
            proj: Projection::new(LngLat {
                lng: 104.1,
                lat: 30.1,
            }),
        }
    }

    #[test]
    fn features_have_expected_layout() {
        let c = ctx();
        let odt = OdtInput {
            origin: LngLat {
                lng: 104.0,
                lat: 30.0,
            },
            dest: LngLat {
                lng: 104.2,
                lat: 30.2,
            },
            t_dep: 21_600.0, // 6:00
        };
        let f = c.features(&odt);
        assert_eq!(f.len(), 7);
        assert_eq!(f[0], -1.0); // origin at min corner
        assert_eq!(f[3], 1.0); // dest at max corner
        assert!(f[6] > 10.0, "diagonal of a ~20km box, got {} km", f[6]);
    }

    #[test]
    fn cells_differ_for_distinct_endpoints() {
        let c = ctx();
        let odt = OdtInput {
            origin: LngLat {
                lng: 104.01,
                lat: 30.01,
            },
            dest: LngLat {
                lng: 104.19,
                lat: 30.19,
            },
            t_dep: 0.0,
        };
        assert_ne!(c.origin_cell(&odt), c.dest_cell(&odt));
        assert!(c.origin_cell(&odt) < 100);
    }

    #[test]
    fn target_stats_sane() {
        let p = Projection::new(LngLat { lng: 0.0, lat: 0.0 });
        let mk = |tt: f64| {
            Trajectory::new(vec![
                GpsPoint {
                    loc: p.to_lnglat(odt_roadnet::Point::new(0.0, 0.0)),
                    t: 0.0,
                },
                GpsPoint {
                    loc: p.to_lnglat(odt_roadnet::Point::new(1000.0, 0.0)),
                    t: tt,
                },
            ])
        };
        let trips = vec![mk(600.0), mk(1200.0)];
        let (mean, std) = target_stats(&trips);
        assert_eq!(mean, 900.0);
        assert_eq!(std, 300.0);
    }
}
