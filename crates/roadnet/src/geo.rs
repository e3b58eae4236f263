//! Planar geometry and GPS projection.
//!
//! The simulator and router work in a local planar frame (meters); the
//! trajectory data model carries GPS-style longitude/latitude like the
//! paper's datasets. [`Projection`] converts between the two with an
//! equirectangular approximation, which is accurate to well under a meter
//! over the ~15–19 km city extents in Table 1.

/// A point in the local planar frame, meters east (`x`) and north (`y`) of
/// the frame origin.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Point {
    /// Meters east of the frame origin.
    pub x: f64,
    /// Meters north of the frame origin.
    pub y: f64,
}

impl Point {
    /// Construct from coordinates in meters.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, meters.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A GPS coordinate in degrees.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LngLat {
    /// Longitude, degrees.
    pub lng: f64,
    /// Latitude, degrees.
    pub lat: f64,
}

/// Equirectangular projection anchored at a reference coordinate.
#[derive(Copy, Clone, Debug)]
pub struct Projection {
    origin: LngLat,
    meters_per_deg_lat: f64,
    meters_per_deg_lng: f64,
}

const EARTH_METERS_PER_DEG: f64 = 111_320.0;

impl Projection {
    /// A projection whose planar origin `(0, 0)` maps to `origin`.
    pub fn new(origin: LngLat) -> Self {
        Projection {
            origin,
            meters_per_deg_lat: EARTH_METERS_PER_DEG,
            meters_per_deg_lng: EARTH_METERS_PER_DEG * origin.lat.to_radians().cos(),
        }
    }

    /// Planar meters → GPS degrees.
    pub fn to_lnglat(&self, p: Point) -> LngLat {
        LngLat {
            lng: self.origin.lng + p.x / self.meters_per_deg_lng,
            lat: self.origin.lat + p.y / self.meters_per_deg_lat,
        }
    }

    /// GPS degrees → planar meters.
    pub fn to_point(&self, g: LngLat) -> Point {
        Point {
            x: (g.lng - self.origin.lng) * self.meters_per_deg_lng,
            y: (g.lat - self.origin.lat) * self.meters_per_deg_lat,
        }
    }

    /// The reference coordinate that maps to `(0, 0)`.
    pub fn origin(&self) -> LngLat {
        self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chengdu() -> Projection {
        Projection::new(LngLat {
            lng: 104.0,
            lat: 30.65,
        })
    }

    #[test]
    fn round_trip_is_lossless() {
        let proj = chengdu();
        let p = Point::new(5432.1, -1234.5);
        let back = proj.to_point(proj.to_lnglat(p));
        assert!((back.x - p.x).abs() < 1e-6);
        assert!((back.y - p.y).abs() < 1e-6);
    }

    #[test]
    fn one_km_north_is_about_009_degrees() {
        let proj = chengdu();
        let g = proj.to_lnglat(Point::new(0.0, 1000.0));
        assert!((g.lat - 30.65 - 1000.0 / 111_320.0).abs() < 1e-9);
        assert_eq!(g.lng, 104.0);
    }

    #[test]
    fn lng_scale_shrinks_with_latitude() {
        let equator = Projection::new(LngLat { lng: 0.0, lat: 0.0 });
        let arctic = Projection::new(LngLat {
            lng: 0.0,
            lat: 60.0,
        });
        let p = Point::new(1000.0, 0.0);
        let de = equator.to_lnglat(p).lng;
        let da = arctic.to_lnglat(p).lng;
        assert!(da > de * 1.9, "at 60N a km spans ~2x the longitude degrees");
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
    }
}
