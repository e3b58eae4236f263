//! Synthetic city trajectory simulator — the stand-in for the proprietary
//! Didi Chengdu and Harbin taxi datasets (DESIGN.md §1).
//!
//! The simulator reproduces the causal structure the paper's evaluation
//! relies on:
//!
//! * **Multi-modal route choice.** Each trip picks among k alternative
//!   routes via a logit model on congested travel time, so the same OD pair
//!   is served by several plausible routes (Figure 1's `T_1..T_3`).
//! * **Outlier detours.** A configurable fraction of trips routes via a
//!   random waypoint, producing the long outlier trajectories (`T_4`) whose
//!   removal is DOT's raison d'être.
//! * **Time-varying congestion.** Gaussian rush-hour slowdowns make travel
//!   times depend on the departure time (Figure 11/12's phenomenon).
//! * **GPS realism.** Fixes are sampled at the datasets' mean intervals
//!   with Gaussian position noise, and trips carry lng/lat degrees.

use crate::types::{GpsPoint, Trajectory};
use odt_roadnet::{
    dijkstra, k_shortest_paths, EdgeId, LngLat, NodeId, Point, Projection, RoadNetwork,
};
use rand::Rng;

/// Time-of-day congestion: a speed multiplier in `(0, 1]`.
#[derive(Clone, Debug)]
pub struct CongestionProfile {
    /// Rush-hour dips: `(center_hour, width_hours, depth)`.
    pub peaks: Vec<(f64, f64, f64)>,
    /// Extra multiplicative slowdown applied to arterials at peak.
    pub arterial_extra: f64,
}

impl Default for CongestionProfile {
    fn default() -> Self {
        CongestionProfile {
            peaks: vec![(8.5, 1.2, 0.45), (18.0, 1.5, 0.50)],
            arterial_extra: 0.9,
        }
    }
}

impl CongestionProfile {
    /// Speed factor at a given second of day; 1.0 = free flow.
    pub fn speed_factor(&self, second_of_day: f64, arterial: bool) -> f64 {
        let h = second_of_day / 3_600.0;
        let mut dip: f64 = 0.0;
        for &(c, w, d) in &self.peaks {
            let z = (h - c) / w;
            dip += d * (-0.5 * z * z).exp();
        }
        let mut factor = (1.0 - dip).max(0.2);
        if arterial && dip > 0.05 {
            factor *= self.arterial_extra;
        }
        factor.max(0.15)
    }
}

/// Demand hotspot: a Gaussian blob of trip endpoints.
#[derive(Copy, Clone, Debug)]
pub struct Hotspot {
    /// Center as a fraction of the city extent, `[0, 1]²`.
    pub fx: f64,
    /// See `fx`.
    pub fy: f64,
    /// Sampling weight.
    pub weight: f64,
    /// Standard deviation, meters.
    pub sigma_m: f64,
}

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct CitySimConfig {
    /// City name (diagnostics only).
    pub name: String,
    /// Grid intersections along x.
    pub nx: usize,
    /// Grid intersections along y.
    pub ny: usize,
    /// Intersection spacing, meters.
    pub spacing_m: f64,
    /// Every n-th row/column is an arterial.
    pub arterial_every: usize,
    /// GPS reference coordinate of the planar origin.
    pub origin: LngLat,
    /// Unix timestamp of day 0, 00:00.
    pub epoch_start: f64,
    /// Number of days the dataset spans.
    pub num_days: u32,
    /// Mean interval between GPS fixes, seconds.
    pub mean_sample_interval_s: f64,
    /// GPS noise standard deviation, meters.
    pub gps_noise_m: f64,
    /// Fraction of trips that take an outlier detour.
    pub outlier_rate: f64,
    /// Exponential distance-decay scale of destination choice, meters.
    pub od_distance_decay_m: f64,
    /// Minimum OD crow-fly distance, meters.
    pub min_od_distance_m: f64,
    /// Demand hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Logit temperature on route cost (1/minutes).
    pub route_choice_beta: f64,
    /// Global speed multiplier modelling ambient traffic density (urban
    /// taxi speeds are far below free flow).
    pub speed_scale: f64,
    /// Number of route alternatives considered.
    pub route_alternatives: usize,
    /// Per-edge lognormal travel-time noise sigma.
    pub edge_noise_sigma: f64,
    /// Congestion profile.
    pub congestion: CongestionProfile,
}

impl CitySimConfig {
    /// A Chengdu-like configuration (Table 1: ~15.3 km extent, 29 s mean
    /// sample interval, ~3.3 km mean trip, ~13.7 min mean travel time).
    pub fn chengdu_like() -> Self {
        CitySimConfig {
            name: "Chengdu".into(),
            nx: 20,
            ny: 20,
            spacing_m: 800.0,
            arterial_every: 4,
            origin: LngLat {
                lng: 103.95,
                lat: 30.60,
            },
            epoch_start: 1_541_030_400.0, // 2018-11-01 00:00 UTC
            num_days: 10,
            mean_sample_interval_s: 29.0,
            gps_noise_m: 20.0,
            outlier_rate: 0.08,
            od_distance_decay_m: 1_150.0,
            min_od_distance_m: 700.0,
            hotspots: vec![
                Hotspot {
                    fx: 0.5,
                    fy: 0.5,
                    weight: 3.0,
                    sigma_m: 2_500.0,
                },
                Hotspot {
                    fx: 0.25,
                    fy: 0.7,
                    weight: 1.5,
                    sigma_m: 1_800.0,
                },
                Hotspot {
                    fx: 0.75,
                    fy: 0.3,
                    weight: 1.5,
                    sigma_m: 1_800.0,
                },
                Hotspot {
                    fx: 0.15,
                    fy: 0.15,
                    weight: 1.0,
                    sigma_m: 2_000.0,
                },
            ],
            route_choice_beta: 0.8,
            speed_scale: 0.60,
            route_alternatives: 3,
            edge_noise_sigma: 0.18,
            congestion: CongestionProfile::default(),
        }
    }

    /// A Harbin-like configuration (Table 1: ~18.5 km extent, 44 s mean
    /// sample interval, winter congestion slightly heavier).
    pub fn harbin_like() -> Self {
        CitySimConfig {
            name: "Harbin".into(),
            nx: 24,
            ny: 23,
            spacing_m: 800.0,
            arterial_every: 4,
            origin: LngLat {
                lng: 126.53,
                lat: 45.75,
            },
            epoch_start: 1_420_243_200.0, // 2015-01-03 00:00 UTC
            num_days: 5,
            mean_sample_interval_s: 44.0,
            gps_noise_m: 25.0,
            outlier_rate: 0.10,
            od_distance_decay_m: 1_200.0,
            min_od_distance_m: 700.0,
            hotspots: vec![
                Hotspot {
                    fx: 0.45,
                    fy: 0.55,
                    weight: 3.0,
                    sigma_m: 2_800.0,
                },
                Hotspot {
                    fx: 0.7,
                    fy: 0.25,
                    weight: 1.5,
                    sigma_m: 2_000.0,
                },
                Hotspot {
                    fx: 0.2,
                    fy: 0.4,
                    weight: 1.2,
                    sigma_m: 2_000.0,
                },
            ],
            route_choice_beta: 0.7,
            speed_scale: 0.57,
            route_alternatives: 3,
            edge_noise_sigma: 0.22,
            congestion: CongestionProfile {
                peaks: vec![(8.3, 1.3, 0.50), (17.5, 1.6, 0.55)],
                arterial_extra: 0.88,
            },
        }
    }
}

/// The simulator: a road network plus demand and traffic models.
pub struct CitySim {
    config: CitySimConfig,
    net: RoadNetwork,
    proj: Projection,
}

impl CitySim {
    /// Build the network and projection from a config.
    pub fn new(config: CitySimConfig) -> Self {
        let net = RoadNetwork::grid_city(
            config.nx,
            config.ny,
            config.spacing_m,
            config.arterial_every,
        );
        let proj = Projection::new(config.origin);
        CitySim { config, net, proj }
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// The meters↔degrees projection.
    pub fn projection(&self) -> &Projection {
        &self.proj
    }

    /// The configuration.
    pub fn config(&self) -> &CitySimConfig {
        &self.config
    }

    /// Generate `n` trips.
    pub fn generate(&self, n: usize, rng: &mut impl Rng) -> Vec<Trajectory> {
        (0..n).map(|_| self.generate_trip(rng)).collect()
    }

    /// Generate one trip (resampling internally until OD constraints hold).
    pub fn generate_trip(&self, rng: &mut impl Rng) -> Trajectory {
        let (origin, dest) = self.sample_od(rng);
        let depart = self.sample_departure(rng);
        let outlier = rng.gen_bool(self.config.outlier_rate);
        let path = if outlier {
            self.outlier_route(origin, dest, rng)
        } else {
            self.choose_route(origin, dest, depart, rng)
        };
        self.traverse(&path, depart, rng)
    }

    // ------------------------------------------------------------------
    // Demand model
    // ------------------------------------------------------------------

    fn city_extent(&self) -> (f64, f64) {
        (
            (self.config.nx - 1) as f64 * self.config.spacing_m,
            (self.config.ny - 1) as f64 * self.config.spacing_m,
        )
    }

    fn sample_hotspot_point(&self, rng: &mut impl Rng) -> Point {
        let (ex, ey) = self.city_extent();
        let total: f64 = self.config.hotspots.iter().map(|h| h.weight).sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = self.config.hotspots[0];
        for h in &self.config.hotspots {
            if pick < h.weight {
                chosen = *h;
                break;
            }
            pick -= h.weight;
        }
        let x = (chosen.fx * ex + randn(rng) * chosen.sigma_m).clamp(0.0, ex);
        let y = (chosen.fy * ey + randn(rng) * chosen.sigma_m).clamp(0.0, ey);
        Point::new(x, y)
    }

    fn sample_od(&self, rng: &mut impl Rng) -> (NodeId, NodeId) {
        for _ in 0..200 {
            let o = self.net.nearest_node(self.sample_hotspot_point(rng));
            let opos = self.net.position(o);
            // Distance-decayed destination choice among all nodes.
            let mut weights = Vec::with_capacity(self.net.num_nodes());
            let mut total = 0.0;
            for n in 0..self.net.num_nodes() {
                let d = opos.distance(&self.net.position(n));
                let w = if d < self.config.min_od_distance_m {
                    0.0
                } else {
                    (-d / self.config.od_distance_decay_m).exp()
                };
                weights.push(w);
                total += w;
            }
            if total <= 0.0 {
                continue;
            }
            let mut pick = rng.gen_range(0.0..total);
            for (n, &w) in weights.iter().enumerate() {
                if pick < w {
                    return (o, n);
                }
                pick -= w;
            }
        }
        panic!("failed to sample an OD pair; check demand configuration");
    }

    fn sample_departure(&self, rng: &mut impl Rng) -> f64 {
        let day = rng.gen_range(0..self.config.num_days) as f64;
        // Rejection-sample second-of-day from a base + rush-peak mixture.
        loop {
            let h = rng.gen_range(5.0..23.5);
            let mut w = 0.25;
            for &(c, width, _) in &self.config.congestion.peaks {
                let z: f64 = (h - c) / width;
                w += (-0.5 * z * z).exp();
            }
            if rng.gen_range(0.0..2.3) < w {
                return self.config.epoch_start + day * 86_400.0 + h * 3_600.0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Route choice
    // ------------------------------------------------------------------

    /// Congested expected travel time of an edge at a given absolute time.
    fn edge_time(&self, e: EdgeId, at: f64) -> f64 {
        let edge = self.net.edge(e);
        let factor = self
            .config
            .congestion
            .speed_factor(at.rem_euclid(86_400.0), edge.arterial);
        edge.length_m / (edge.base_speed_mps * self.config.speed_scale * factor)
    }

    fn choose_route(
        &self,
        origin: NodeId,
        dest: NodeId,
        depart: f64,
        rng: &mut impl Rng,
    ) -> Vec<NodeId> {
        let weight = |e: EdgeId| self.edge_time(e, depart);
        let alts = k_shortest_paths(
            &self.net,
            origin,
            dest,
            &weight,
            self.config.route_alternatives,
            1.4,
        );
        assert!(!alts.is_empty(), "no route between {origin} and {dest}");
        // Logit choice on cost in minutes.
        let beta = self.config.route_choice_beta;
        let min_cost = alts.iter().map(|a| a.cost).fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = alts
            .iter()
            .map(|a| (-beta * (a.cost - min_cost) / 60.0).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                return alts[i].nodes.clone();
            }
            pick -= w;
        }
        alts[0].nodes.clone()
    }

    fn outlier_route(&self, origin: NodeId, dest: NodeId, rng: &mut impl Rng) -> Vec<NodeId> {
        // Route via a random waypoint well away from the direct corridor —
        // the `T_4`-style detour of Figure 1.
        let dist = |e: EdgeId| self.net.edge(e).length_m;
        let od = self.net.position(origin).distance(&self.net.position(dest));
        for _ in 0..100 {
            let wp = rng.gen_range(0..self.net.num_nodes());
            let d_o = self.net.position(origin).distance(&self.net.position(wp));
            let d_d = self.net.position(dest).distance(&self.net.position(wp));
            // Require a real detour: at least ~60% longer than direct.
            if d_o + d_d < od * 1.6 || d_o < od * 0.4 || d_d < od * 0.4 {
                continue;
            }
            let leg1 = dijkstra(&self.net, origin, wp, &dist);
            let leg2 = dijkstra(&self.net, wp, dest, &dist);
            if let (Some(a), Some(b)) = (leg1, leg2) {
                let mut nodes = a.nodes;
                nodes.extend_from_slice(&b.nodes[1..]);
                return nodes;
            }
        }
        // Fallback: direct route (outlier suppressed).
        dijkstra(&self.net, origin, dest, &dist)
            .expect("grid city is connected")
            .nodes
    }

    // ------------------------------------------------------------------
    // Traversal & GPS sampling
    // ------------------------------------------------------------------

    fn traverse(&self, path: &[NodeId], depart: f64, rng: &mut impl Rng) -> Trajectory {
        assert!(path.len() >= 2, "path must span at least one edge");
        // Walk the path, accumulating (cumulative_distance, absolute_time)
        // breakpoints at every node.
        let mut breakpoints: Vec<(f64, f64, Point)> = Vec::with_capacity(path.len());
        let mut t = depart;
        let mut d = 0.0;
        breakpoints.push((d, t, self.net.position(path[0])));
        for w in path.windows(2) {
            let e = self
                .net
                .edge_between(w[0], w[1])
                .expect("route must follow edges");
            let base = self.edge_time(e, t);
            let noisy = base * (self.config.edge_noise_sigma * randn(rng)).exp();
            t += noisy;
            d += self.net.edge(e).length_m;
            breakpoints.push((d, t, self.net.position(w[1])));
        }
        let arrival = breakpoints.last().unwrap().1;

        // Sample GPS fixes at ~mean_sample_interval.
        let interval = self.config.mean_sample_interval_s * rng.gen_range(0.85..1.15);
        let mut fixes: Vec<GpsPoint> = Vec::new();
        let mut sample_at = depart;
        while sample_at < arrival {
            fixes.push(self.fix_at(&breakpoints, sample_at, rng));
            sample_at += interval * rng.gen_range(0.8..1.2);
        }
        // Always include the exact arrival fix so travel time is faithful.
        fixes.push(self.fix_at(&breakpoints, arrival, rng));
        if fixes.len() < 2 {
            fixes.insert(0, self.fix_at(&breakpoints, depart, rng));
        }
        // Enforce monotone timestamps (jitter could disorder the tail).
        for i in 1..fixes.len() {
            if fixes[i].t < fixes[i - 1].t {
                fixes[i].t = fixes[i - 1].t;
            }
        }
        Trajectory::new(fixes)
    }

    /// Interpolated, noisy GPS fix at absolute time `at`.
    fn fix_at(&self, breakpoints: &[(f64, f64, Point)], at: f64, rng: &mut impl Rng) -> GpsPoint {
        let pos = interpolate(breakpoints, at);
        let noise = self.config.gps_noise_m;
        let noisy = Point::new(pos.x + randn(rng) * noise, pos.y + randn(rng) * noise);
        GpsPoint {
            loc: self.proj.to_lnglat(noisy),
            t: at,
        }
    }
}

/// One standard-normal sample (Box–Muller).
fn randn(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Linear interpolation of position along timed breakpoints.
fn interpolate(breakpoints: &[(f64, f64, Point)], at: f64) -> Point {
    let first = &breakpoints[0];
    if at <= first.1 {
        return first.2;
    }
    for w in breakpoints.windows(2) {
        let (_, t0, p0) = w[0];
        let (_, t1, p1) = w[1];
        if at <= t1 {
            let frac = if t1 > t0 { (at - t0) / (t1 - t0) } else { 1.0 };
            return Point::new(p0.x + (p1.x - p0.x) * frac, p0.y + (p1.y - p0.y) * frac);
        }
    }
    breakpoints.last().unwrap().2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_sim() -> CitySim {
        let mut cfg = CitySimConfig::chengdu_like();
        cfg.nx = 10;
        cfg.ny = 10;
        CitySim::new(cfg)
    }

    #[test]
    fn congestion_slows_rush_hour() {
        let c = CongestionProfile::default();
        let free = c.speed_factor(3.0 * 3_600.0, false);
        let rush = c.speed_factor(8.5 * 3_600.0, false);
        assert!(free > 0.95);
        assert!(rush < 0.65, "rush factor {rush}");
        // Arterials suffer extra at peak.
        assert!(c.speed_factor(8.5 * 3_600.0, true) < rush);
    }

    #[test]
    fn trips_are_valid_trajectories() {
        let sim = small_sim();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let t = sim.generate_trip(&mut rng);
            assert!(t.len() >= 2);
            assert!(t.travel_time() > 0.0);
            // All fixes inside (a padded) city extent.
            let (ex, ey) = (
                (sim.config.nx - 1) as f64 * 800.0,
                (sim.config.ny - 1) as f64 * 800.0,
            );
            for p in &t.points {
                let q = sim.projection().to_point(p.loc);
                assert!(q.x > -500.0 && q.x < ex + 500.0, "x {}", q.x);
                assert!(q.y > -500.0 && q.y < ey + 500.0, "y {}", q.y);
            }
        }
    }

    #[test]
    fn sampling_interval_near_config() {
        let sim = small_sim();
        let mut rng = StdRng::seed_from_u64(2);
        let trips = sim.generate(50, &mut rng);
        let mean: f64 = trips
            .iter()
            .filter(|t| t.len() > 3)
            .map(|t| t.mean_sample_interval())
            .sum::<f64>()
            / trips.iter().filter(|t| t.len() > 3).count() as f64;
        assert!((mean - 29.0).abs() < 8.0, "mean interval {mean}");
    }

    #[test]
    fn departures_within_span() {
        let sim = small_sim();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let t = sim.generate_trip(&mut rng);
            let rel = t.departure() - sim.config.epoch_start;
            assert!((0.0..10.0 * 86_400.0).contains(&rel));
        }
    }

    #[test]
    fn outliers_are_longer() {
        // Force outlier_rate to 1 and compare with 0 on fixed OD demand.
        let mut cfg = CitySimConfig::chengdu_like();
        cfg.nx = 10;
        cfg.ny = 10;
        cfg.outlier_rate = 0.0;
        let normal_sim = CitySim::new(cfg.clone());
        let mut cfg_out = cfg;
        cfg_out.outlier_rate = 1.0;
        let outlier_sim = CitySim::new(cfg_out);
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(4);
        let proj = Projection::new(LngLat {
            lng: 103.95,
            lat: 30.60,
        });
        let n: f64 = normal_sim
            .generate(40, &mut rng1)
            .iter()
            .map(|t| t.travel_distance(&proj))
            .sum::<f64>()
            / 40.0;
        let o: f64 = outlier_sim
            .generate(40, &mut rng2)
            .iter()
            .map(|t| t.travel_distance(&proj))
            .sum::<f64>()
            / 40.0;
        assert!(o > n * 1.3, "outliers {o:.0} m vs normal {n:.0} m");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = small_sim();
        let a = sim.generate(5, &mut StdRng::seed_from_u64(9));
        let b = sim.generate(5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn rush_hour_trips_take_longer() {
        // Same OD, different departure times: rush hour must be slower on
        // average. Use the edge_time model directly to avoid route noise.
        let sim = small_sim();
        let free = sim.edge_time(0, sim.config.epoch_start + 3.0 * 3_600.0);
        let rush = sim.edge_time(0, sim.config.epoch_start + 8.5 * 3_600.0);
        assert!(rush > free * 1.3, "rush {rush:.1} vs free {free:.1}");
    }
}
