//! Serving guardrails and robustness accounting for the DOT oracle.
//!
//! Production OD queries are adversarially messy: out-of-region coordinates,
//! zero-distance pairs, departures decades away, NaN-poisoned inputs. This
//! module centralizes the defensive layer in front of the trained model:
//!
//! * [`sanitize_odt`] — query validation with a *clamping* policy: rather
//!   than rejecting a malformed query, it is projected onto the nearest
//!   well-formed one (coordinates clamped into the area of interest,
//!   non-finite values replaced, departures folded into valid time), so the
//!   oracle always answers.
//! * [`sanitize_odt_strict`] — the clamp-*or-reject* variant used by the
//!   serving frontend (`odt-serve`): endpoints further than
//!   [`FAR_QUERY_SPANS`] grid-spans outside the area of interest yield a
//!   typed [`QueryRejectReason`] instead of a silently clamped query for
//!   the wrong city.
//! * [`pit_is_degenerate`] — detection of reverse-diffusion failures (empty
//!   or saturated PiTs) that would feed the estimator garbage.
//! * [`fallback_estimate_seconds`] — the degraded-mode estimate: a cheap
//!   haversine-distance / speed prior used when PiT inference fails, so a
//!   saturated chain degrades accuracy instead of poisoning the answer.
//! * [`RobustnessStats`] / [`RobustnessSnapshot`] — counters for every
//!   defensive action taken (watchdog trips, skipped batches, rollbacks,
//!   clamped queries, degenerate PiTs, fallbacks), surfaced through
//!   [`crate::Dot::robustness`] and the eval harness.

use odt_roadnet::LngLat;
use odt_traj::{GridSpec, OdtInput, Pit};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for every defensive action the robustness layer takes.
///
/// Serving methods take `&self`, so the counters are atomics; training
/// increments them through the same handle. Read a coherent copy with
/// [`RobustnessStats::snapshot`].
#[derive(Debug, Default)]
pub struct RobustnessStats {
    /// Stage-1/2 watchdog activations (non-finite or spiking loss).
    watchdog_trips: AtomicU64,
    /// Training batches whose update was discarded by the watchdog.
    batches_skipped: AtomicU64,
    /// Parameter rollbacks to the last good snapshot.
    rollbacks: AtomicU64,
    /// Queries whose coordinates or departure time needed clamping.
    queries_clamped: AtomicU64,
    /// Queries rejected outright by strict sanitization (endpoints far
    /// outside the area of interest).
    queries_rejected: AtomicU64,
    /// Inferred PiTs rejected as degenerate (empty or saturated).
    degenerate_pits: AtomicU64,
    /// Estimates served from the haversine-speed prior instead of the model.
    fallbacks_taken: AtomicU64,
}

impl RobustnessStats {
    /// Record a watchdog activation.
    pub fn record_watchdog_trip(&self) {
        self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a discarded training batch.
    pub fn record_batch_skipped(&self) {
        self.batches_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a parameter rollback.
    pub fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a clamped query.
    pub fn record_query_clamped(&self) {
        self.queries_clamped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a query rejected by strict sanitization.
    pub fn record_query_rejected(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a degenerate inferred PiT.
    pub fn record_degenerate_pit(&self) {
        self.degenerate_pits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a degraded-mode fallback estimate.
    pub fn record_fallback(&self) {
        self.fallbacks_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> RobustnessSnapshot {
        RobustnessSnapshot {
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            batches_skipped: self.batches_skipped.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            queries_clamped: self.queries_clamped.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            degenerate_pits: self.degenerate_pits.load(Ordering::Relaxed),
            fallbacks_taken: self.fallbacks_taken.load(Ordering::Relaxed),
        }
    }

    /// Publish the counters as `robustness.*` gauges in the global
    /// [`odt_obs`] metrics registry, so robustness accounting shows up in
    /// metrics summaries and `--telemetry` dumps alongside latency
    /// histograms. Gauges (not counters) because the registry is global
    /// while stats are per-model: the latest publish wins.
    pub fn publish_gauges(&self) {
        let s = self.snapshot();
        odt_obs::gauge("robustness.watchdog_trips").set(s.watchdog_trips as f64);
        odt_obs::gauge("robustness.batches_skipped").set(s.batches_skipped as f64);
        odt_obs::gauge("robustness.rollbacks").set(s.rollbacks as f64);
        odt_obs::gauge("robustness.queries_clamped").set(s.queries_clamped as f64);
        odt_obs::gauge("robustness.queries_rejected").set(s.queries_rejected as f64);
        odt_obs::gauge("robustness.degenerate_pits").set(s.degenerate_pits as f64);
        odt_obs::gauge("robustness.fallbacks_taken").set(s.fallbacks_taken as f64);
    }

    /// Rebuild counters from a snapshot (checkpoint restore).
    pub fn from_snapshot(s: RobustnessSnapshot) -> Self {
        RobustnessStats {
            watchdog_trips: AtomicU64::new(s.watchdog_trips),
            batches_skipped: AtomicU64::new(s.batches_skipped),
            rollbacks: AtomicU64::new(s.rollbacks),
            queries_clamped: AtomicU64::new(s.queries_clamped),
            queries_rejected: AtomicU64::new(s.queries_rejected),
            degenerate_pits: AtomicU64::new(s.degenerate_pits),
            fallbacks_taken: AtomicU64::new(s.fallbacks_taken),
        }
    }
}

/// A plain-value view of [`RobustnessStats`], serializable into checkpoints
/// and reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RobustnessSnapshot {
    /// Stage-1/2 watchdog activations (non-finite or spiking loss).
    pub watchdog_trips: u64,
    /// Training batches whose update was discarded by the watchdog.
    pub batches_skipped: u64,
    /// Parameter rollbacks to the last good snapshot.
    pub rollbacks: u64,
    /// Queries whose coordinates or departure time needed clamping.
    pub queries_clamped: u64,
    /// Queries rejected outright by strict sanitization (0 when read from a
    /// checkpoint older than the counter).
    pub queries_rejected: u64,
    /// Inferred PiTs rejected as degenerate (empty or saturated).
    pub degenerate_pits: u64,
    /// Estimates served from the haversine-speed prior.
    pub fallbacks_taken: u64,
}

impl std::fmt::Display for RobustnessSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "watchdog_trips={} batches_skipped={} rollbacks={} \
             queries_clamped={} queries_rejected={} degenerate_pits={} \
             fallbacks_taken={}",
            self.watchdog_trips,
            self.batches_skipped,
            self.rollbacks,
            self.queries_clamped,
            self.queries_rejected,
            self.degenerate_pits,
            self.fallbacks_taken
        )
    }
}

/// Clamp one coordinate into `[lo, hi]`; non-finite values land on the
/// midpoint (the least-wrong guess when the input carries no information).
fn clamp_coord(v: f64, lo: f64, hi: f64) -> f64 {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    if !v.is_finite() {
        (lo + hi) / 2.0
    } else {
        v.clamp(lo, hi)
    }
}

/// Project a query onto the nearest well-formed one for the given grid.
///
/// The clamping policy: non-finite or out-of-region coordinates move to the
/// grid midpoint / boundary; a non-finite departure becomes `0.0`; a
/// negative departure is folded into `[0, 86 400)` so time-of-day features
/// stay meaningful. Returns the sanitized query and whether anything
/// changed.
pub fn sanitize_odt(odt: &OdtInput, grid: &GridSpec) -> (OdtInput, bool) {
    let clamp_pt = |p: LngLat| LngLat {
        lng: clamp_coord(p.lng, grid.min.lng, grid.max.lng),
        lat: clamp_coord(p.lat, grid.min.lat, grid.max.lat),
    };
    let t_dep = if !odt.t_dep.is_finite() {
        0.0
    } else if odt.t_dep < 0.0 {
        odt.t_dep.rem_euclid(86_400.0)
    } else {
        odt.t_dep
    };
    let clean = OdtInput {
        origin: clamp_pt(odt.origin),
        dest: clamp_pt(odt.dest),
        t_dep,
    };
    let changed = clean != *odt
        // NaN != NaN, so an all-NaN query would otherwise report unchanged.
        || !odt.origin.lng.is_finite()
        || !odt.origin.lat.is_finite()
        || !odt.dest.lng.is_finite()
        || !odt.dest.lat.is_finite()
        || !odt.t_dep.is_finite();
    (clean, changed)
}

/// How far outside the area of interest a *finite* coordinate may lie, in
/// units of the grid's own span per axis, before strict sanitization
/// ([`sanitize_odt_strict`]) rejects the query instead of clamping it. A
/// point one full grid-width away from the boundary is not a noisy local
/// query — it is a query for a different city, and clamping it onto the
/// boundary would silently serve a nonsensical estimate.
pub const FAR_QUERY_SPANS: f64 = 1.0;

/// Typed reason a query was rejected by [`sanitize_odt_strict`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum QueryRejectReason {
    /// The origin lies this many grid-spans outside the area of interest.
    FarOrigin {
        /// Out-of-bounds excess, in units of the grid span (`> FAR_QUERY_SPANS`).
        spans: f64,
    },
    /// The destination lies this many grid-spans outside the area of
    /// interest.
    FarDestination {
        /// Out-of-bounds excess, in units of the grid span (`> FAR_QUERY_SPANS`).
        spans: f64,
    },
}

impl QueryRejectReason {
    /// Machine-readable reason tag (event field / drill report key).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryRejectReason::FarOrigin { .. } => "far_origin",
            QueryRejectReason::FarDestination { .. } => "far_destination",
        }
    }

    /// The out-of-bounds excess in grid spans.
    pub fn spans(&self) -> f64 {
        match *self {
            QueryRejectReason::FarOrigin { spans } => spans,
            QueryRejectReason::FarDestination { spans } => spans,
        }
    }
}

impl std::fmt::Display for QueryRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryRejectReason::FarOrigin { spans } => {
                write!(
                    f,
                    "origin {spans:.2} grid-spans outside the area of interest"
                )
            }
            QueryRejectReason::FarDestination { spans } => {
                write!(
                    f,
                    "destination {spans:.2} grid-spans outside the area of interest"
                )
            }
        }
    }
}

/// How many grid-spans outside the area of interest a point lies (0 when it
/// is inside). Non-finite coordinates report 0: they carry no location
/// information, so the clamping policy (midpoint) remains the least-wrong
/// repair — only *finite but far* coordinates mark a mis-routed query.
pub fn point_excess_spans(p: LngLat, grid: &GridSpec) -> f64 {
    let axis = |v: f64, lo: f64, hi: f64| -> f64 {
        if !v.is_finite() {
            return 0.0;
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let span = (hi - lo).max(f64::EPSILON);
        ((lo - v).max(v - hi).max(0.0)) / span
    };
    axis(p.lng, grid.min.lng, grid.max.lng).max(axis(p.lat, grid.min.lat, grid.max.lat))
}

/// [`sanitize_odt`] with a rejection policy for far-out-of-region queries:
/// an endpoint more than [`FAR_QUERY_SPANS`] grid-spans outside the area of
/// interest yields a typed [`QueryRejectReason`] instead of a silently
/// clamped (and therefore meaningless) query. Everything else — nearby
/// out-of-bounds points, non-finite coordinates or departures — is repaired
/// exactly as by [`sanitize_odt`]. Returns the sanitized query and whether
/// anything changed.
pub fn sanitize_odt_strict(
    odt: &OdtInput,
    grid: &GridSpec,
) -> Result<(OdtInput, bool), QueryRejectReason> {
    let origin_excess = point_excess_spans(odt.origin, grid);
    if origin_excess > FAR_QUERY_SPANS {
        return Err(QueryRejectReason::FarOrigin {
            spans: origin_excess,
        });
    }
    let dest_excess = point_excess_spans(odt.dest, grid);
    if dest_excess > FAR_QUERY_SPANS {
        return Err(QueryRejectReason::FarDestination { spans: dest_excess });
    }
    Ok(sanitize_odt(odt, grid))
}

/// Fraction of grid cells above which an inferred PiT counts as saturated —
/// real urban routes on a `L_G × L_G` grid visit a thin band of cells, never
/// half the city.
pub const SATURATION_FRACTION: f64 = 0.5;

/// Whether an inferred PiT is unusable for estimation: (near-)empty, or
/// saturated (the reverse chain collapsed to "everything visited"). Such
/// PiTs would feed the estimator an input unlike anything it trained on.
pub fn pit_is_degenerate(pit: &Pit) -> bool {
    let visited = pit.num_visited();
    let cells = pit.lg() * pit.lg();
    visited < 2 || (visited as f64) >= SATURATION_FRACTION * cells as f64
}

/// Haversine great-circle distance in meters.
pub fn haversine_m(a: LngLat, b: LngLat) -> f64 {
    const R: f64 = 6_371_000.0;
    let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlat = (b.lat - a.lat).to_radians();
    let dlng = (b.lng - a.lng).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

/// Circuity factor for the fallback prior: road distance exceeds the crow
/// line by roughly this factor in urban networks.
pub const FALLBACK_CIRCUITY: f64 = 1.3;
/// Assumed average speed for the fallback prior, m/s (≈ 29 km/h urban).
pub const FALLBACK_SPEED_MPS: f64 = 8.0;
/// Fixed overhead of the fallback prior, seconds (pull-out, terminal time).
pub const FALLBACK_OVERHEAD_S: f64 = 60.0;

/// The degraded-mode travel-time estimate: haversine distance scaled by a
/// circuity factor over an urban speed prior, plus a fixed overhead. Always
/// finite and non-negative for sanitized queries; zero-distance queries get
/// the overhead alone.
pub fn fallback_estimate_seconds(odt: &OdtInput) -> f64 {
    let crow = haversine_m(odt.origin, odt.dest);
    let secs = FALLBACK_CIRCUITY * crow / FALLBACK_SPEED_MPS + FALLBACK_OVERHEAD_S;
    if secs.is_finite() {
        secs.max(0.0)
    } else {
        FALLBACK_OVERHEAD_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_tensor::Tensor;

    fn grid() -> GridSpec {
        GridSpec::new(
            LngLat {
                lng: 104.0,
                lat: 30.0,
            },
            LngLat {
                lng: 104.2,
                lat: 30.2,
            },
            8,
        )
    }

    #[test]
    fn sanitize_leaves_valid_queries_alone() {
        let odt = OdtInput {
            origin: LngLat {
                lng: 104.05,
                lat: 30.05,
            },
            dest: LngLat {
                lng: 104.15,
                lat: 30.15,
            },
            t_dep: 43_200.0,
        };
        let (clean, changed) = sanitize_odt(&odt, &grid());
        assert!(!changed);
        assert_eq!(clean, odt);
    }

    #[test]
    fn sanitize_clamps_out_of_region_and_nan() {
        let odt = OdtInput {
            origin: LngLat {
                lng: f64::NAN,
                lat: 95.0,
            },
            dest: LngLat {
                lng: 104.1,
                lat: f64::INFINITY,
            },
            t_dep: -3_600.0,
        };
        let (clean, changed) = sanitize_odt(&odt, &grid());
        assert!(changed);
        let g = grid();
        assert!((clean.origin.lng - (g.min.lng + g.max.lng) / 2.0).abs() < 1e-9);
        assert_eq!(clean.origin.lat, g.max.lat);
        assert!((clean.dest.lat - (g.min.lat + g.max.lat) / 2.0).abs() < 1e-9);
        // -1 h folds to 23:00.
        assert_eq!(clean.t_dep, 82_800.0);
        // Everything is finite afterwards.
        assert!(clean.origin.lng.is_finite() && clean.dest.lat.is_finite());
    }

    #[test]
    fn sanitize_handles_nonfinite_departure() {
        let odt = OdtInput {
            origin: LngLat {
                lng: 104.1,
                lat: 30.1,
            },
            dest: LngLat {
                lng: 104.1,
                lat: 30.1,
            },
            t_dep: f64::NAN,
        };
        let (clean, changed) = sanitize_odt(&odt, &grid());
        assert!(changed);
        assert_eq!(clean.t_dep, 0.0);
    }

    #[test]
    fn degenerate_pit_detection() {
        let lg = 8;
        // Empty PiT.
        let empty = Pit::from_tensor(Tensor::full(vec![3, lg, lg], -1.0));
        assert!(pit_is_degenerate(&empty));
        // Saturated PiT (every cell visited).
        let full = Pit::from_tensor(Tensor::full(vec![3, lg, lg], 1.0));
        assert!(pit_is_degenerate(&full));
        // A plausible thin route is fine.
        let mut t = Tensor::full(vec![3, lg, lg], -1.0);
        for i in 0..lg {
            t.set(&[0, i, i], 1.0);
        }
        assert!(!pit_is_degenerate(&Pit::from_tensor(t)));
    }

    #[test]
    fn fallback_is_finite_positive_and_scales_with_distance() {
        let near = OdtInput {
            origin: LngLat {
                lng: 104.0,
                lat: 30.0,
            },
            dest: LngLat {
                lng: 104.0,
                lat: 30.0,
            },
            t_dep: 0.0,
        };
        assert_eq!(fallback_estimate_seconds(&near), FALLBACK_OVERHEAD_S);
        let far = OdtInput {
            dest: LngLat {
                lng: 104.2,
                lat: 30.2,
            },
            ..near
        };
        let s = fallback_estimate_seconds(&far);
        assert!(s.is_finite() && s > FALLBACK_OVERHEAD_S);
        // ~28 km crow at 8 m/s with 1.3 circuity ≈ 75 min — sanity band.
        assert!(s > 600.0 && s < 4.0 * 3_600.0, "{s}");
    }

    #[test]
    fn strict_sanitize_rejects_far_but_clamps_near() {
        let g = grid();
        let inside = OdtInput {
            origin: LngLat {
                lng: 104.05,
                lat: 30.05,
            },
            dest: LngLat {
                lng: 104.15,
                lat: 30.15,
            },
            t_dep: 600.0,
        };
        // Clean query passes through untouched.
        let (clean, changed) = sanitize_odt_strict(&inside, &g).unwrap();
        assert!(!changed);
        assert_eq!(clean, inside);
        // Slightly outside (< FAR_QUERY_SPANS): clamped, not rejected.
        let near = OdtInput {
            origin: LngLat {
                lng: 104.25, // 0.25 spans past max on a 0.2-degree span
                lat: 30.1,
            },
            ..inside
        };
        let (clean, changed) = sanitize_odt_strict(&near, &g).unwrap();
        assert!(changed);
        assert_eq!(clean.origin.lng, g.max.lng);
        // Far outside (> FAR_QUERY_SPANS): typed rejection, per endpoint.
        let far_origin = OdtInput {
            origin: LngLat {
                lng: 116.4, // Beijing-ish vs a Chengdu grid — ~61 spans out
                lat: 39.9,
            },
            ..inside
        };
        let err = sanitize_odt_strict(&far_origin, &g).unwrap_err();
        assert_eq!(err.kind(), "far_origin");
        assert!(err.spans() > FAR_QUERY_SPANS, "{err}");
        let far_dest = OdtInput {
            dest: LngLat {
                lng: 104.1,
                lat: 31.0,
            },
            ..inside
        };
        let err = sanitize_odt_strict(&far_dest, &g).unwrap_err();
        assert_eq!(err.kind(), "far_destination");
        // Non-finite coordinates carry no location: clamp (midpoint), never
        // reject — matching the lenient path's behavior.
        let nan_q = OdtInput {
            origin: LngLat {
                lng: f64::NAN,
                lat: f64::INFINITY,
            },
            ..inside
        };
        let (clean, changed) = sanitize_odt_strict(&nan_q, &g).unwrap();
        assert!(changed);
        assert!(clean.origin.lng.is_finite() && clean.origin.lat.is_finite());
    }

    #[test]
    fn point_excess_is_zero_inside_and_scales_outside() {
        let g = grid();
        let inside = LngLat {
            lng: 104.1,
            lat: 30.1,
        };
        assert_eq!(point_excess_spans(inside, &g), 0.0);
        let one_span_out = LngLat {
            lng: 104.4, // exactly one 0.2-degree span past max
            lat: 30.1,
        };
        assert!((point_excess_spans(one_span_out, &g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejected_counter_round_trips() {
        let stats = RobustnessStats::default();
        stats.record_query_rejected();
        stats.record_query_rejected();
        let snap = stats.snapshot();
        assert_eq!(snap.queries_rejected, 2);
        assert_eq!(
            RobustnessStats::from_snapshot(snap)
                .snapshot()
                .queries_rejected,
            2
        );
        assert!(format!("{snap}").contains("queries_rejected=2"));
    }

    #[test]
    fn stats_snapshot_round_trip() {
        let stats = RobustnessStats::default();
        stats.record_watchdog_trip();
        stats.record_watchdog_trip();
        stats.record_batch_skipped();
        stats.record_fallback();
        let snap = stats.snapshot();
        assert_eq!(snap.watchdog_trips, 2);
        assert_eq!(snap.batches_skipped, 1);
        assert_eq!(snap.fallbacks_taken, 1);
        assert_eq!(snap.rollbacks, 0);
        let restored = RobustnessStats::from_snapshot(snap);
        assert_eq!(restored.snapshot(), snap);
    }
}
