//! Core trajectory types (paper Definitions 1 and 3).

use odt_roadnet::{LngLat, Projection};

/// A timestamped GPS fix.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GpsPoint {
    /// Position in degrees.
    pub loc: LngLat,
    /// Unix timestamp, seconds (fractional allowed).
    pub t: f64,
}

/// A trajectory: a time-ordered sequence of GPS fixes (Definition 1).
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// The fixes, ordered by time.
    pub points: Vec<GpsPoint>,
}

impl Trajectory {
    /// Construct, validating temporal order.
    pub fn new(points: Vec<GpsPoint>) -> Self {
        assert!(points.len() >= 2, "a trajectory needs at least two points");
        for w in points.windows(2) {
            assert!(
                w[1].t >= w[0].t,
                "trajectory timestamps must be non-decreasing"
            );
        }
        Trajectory { points }
    }

    /// Number of GPS fixes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: construction requires two points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Departure time (first fix), Unix seconds.
    pub fn departure(&self) -> f64 {
        self.points[0].t
    }

    /// Arrival time (last fix), Unix seconds.
    pub fn arrival(&self) -> f64 {
        self.points[self.points.len() - 1].t
    }

    /// Travel time in seconds: arrival minus departure (as in Example 1).
    pub fn travel_time(&self) -> f64 {
        self.arrival() - self.departure()
    }

    /// Total along-track distance in meters, measured in the given
    /// projection's planar frame.
    pub fn travel_distance(&self, proj: &Projection) -> f64 {
        self.points
            .windows(2)
            .map(|w| proj.to_point(w[0].loc).distance(&proj.to_point(w[1].loc)))
            .sum()
    }

    /// Mean interval between consecutive fixes, seconds.
    pub fn mean_sample_interval(&self) -> f64 {
        self.travel_time() / (self.points.len() - 1) as f64
    }

    /// Second-of-day of the departure time.
    pub fn departure_second_of_day(&self) -> f64 {
        self.departure().rem_euclid(86_400.0)
    }
}

/// The ODT-Input of Definition 3: origin, destination, departure time.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OdtInput {
    /// Origin coordinate.
    pub origin: LngLat,
    /// Destination coordinate.
    pub dest: LngLat,
    /// Departure time, Unix seconds.
    pub t_dep: f64,
}

impl OdtInput {
    /// The ODT-Input affiliated with a historical trajectory.
    pub fn from_trajectory(t: &Trajectory) -> Self {
        OdtInput {
            origin: t.points[0].loc,
            dest: t.points[t.points.len() - 1].loc,
            t_dep: t.departure(),
        }
    }

    /// `(query, observed travel time in seconds)` for each trajectory: the
    /// supervised pairs baselines train on and shadow scoring holds out.
    pub fn labelled(trips: &[Trajectory]) -> Vec<(OdtInput, f64)> {
        trips
            .iter()
            .map(|t| (OdtInput::from_trajectory(t), t.travel_time()))
            .collect()
    }

    /// Second-of-day of the departure.
    pub fn second_of_day(&self) -> f64 {
        self.t_dep.rem_euclid(86_400.0)
    }

    /// The 5-feature vector the paper feeds to `FC_OD` (Eq. 13):
    /// origin lng/lat, destination lng/lat (normalized into a bounding box
    /// given by `(min, max)` corners) and time-of-day in `[-1, 1]`.
    pub fn features(&self, min: LngLat, max: LngLat) -> [f32; 5] {
        let nx = |lng: f64| (2.0 * (lng - min.lng) / (max.lng - min.lng) - 1.0) as f32;
        let ny = |lat: f64| (2.0 * (lat - min.lat) / (max.lat - min.lat) - 1.0) as f32;
        let tod = (2.0 * self.second_of_day() / 86_400.0 - 1.0) as f32;
        [
            nx(self.origin.lng),
            ny(self.origin.lat),
            nx(self.dest.lng),
            ny(self.dest.lat),
            tod,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lng: f64, lat: f64, t: f64) -> GpsPoint {
        GpsPoint {
            loc: LngLat { lng, lat },
            t,
        }
    }

    #[test]
    fn travel_time_is_arrival_minus_departure() {
        // Example 1: departs 8:00, arrives 8:15 -> 15 min.
        let t = Trajectory::new(vec![
            pt(104.0, 30.6, 8.0 * 3600.0),
            pt(104.01, 30.61, 8.25 * 3600.0),
        ]);
        assert_eq!(t.travel_time(), 900.0);
    }

    #[test]
    fn distance_uses_projection() {
        let proj = Projection::new(LngLat {
            lng: 104.0,
            lat: 30.0,
        });
        let a = proj.to_lnglat(odt_roadnet::Point::new(0.0, 0.0));
        let b = proj.to_lnglat(odt_roadnet::Point::new(300.0, 400.0));
        let t = Trajectory::new(vec![
            GpsPoint { loc: a, t: 0.0 },
            GpsPoint { loc: b, t: 60.0 },
        ]);
        assert!((t.travel_distance(&proj) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn mean_interval() {
        let t = Trajectory::new(vec![
            pt(0.0, 0.0, 0.0),
            pt(0.0, 0.0, 30.0),
            pt(0.0, 0.0, 90.0),
        ]);
        assert_eq!(t.mean_sample_interval(), 45.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let _ = Trajectory::new(vec![pt(0.0, 0.0, 10.0), pt(0.0, 0.0, 5.0)]);
    }

    #[test]
    fn odt_input_from_trajectory() {
        let t = Trajectory::new(vec![pt(104.0, 30.6, 100.0), pt(104.1, 30.7, 700.0)]);
        let odt = OdtInput::from_trajectory(&t);
        assert_eq!(odt.origin.lng, 104.0);
        assert_eq!(odt.dest.lat, 30.7);
        assert_eq!(odt.t_dep, 100.0);
    }

    #[test]
    fn features_normalized() {
        let odt = OdtInput {
            origin: LngLat { lng: 0.0, lat: 0.0 },
            dest: LngLat { lng: 1.0, lat: 1.0 },
            t_dep: 43_200.0, // noon
        };
        let f = odt.features(LngLat { lng: 0.0, lat: 0.0 }, LngLat { lng: 1.0, lat: 1.0 });
        assert_eq!(f[0], -1.0);
        assert_eq!(f[2], 1.0);
        assert!(f[4].abs() < 1e-6); // noon -> 0
    }
}
