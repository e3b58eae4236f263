//! Model-quality telemetry: rolling accuracy windows and drift detection.
//!
//! Latency is observed exhaustively elsewhere in this crate; this module
//! makes estimate *quality* a live signal too. A [`QualityTracker`]
//! consumes `(predicted, actual)` travel-time pairs — produced by a
//! shadow holdout stream replayed through the serving model — and
//! maintains:
//!
//! * a **rolling window** of recent errors, from which windowed MAE,
//!   MAPE and signed-error mean (bias) are derived and exported as the
//!   `quality.mae` / `quality.mape` / `quality.bias` gauges;
//! * a **frozen reference window**: the first full window of relative
//!   errors is sorted and kept as the "what the model looked like at
//!   deployment" distribution;
//! * a **quantile-shift drift score**: the mean absolute displacement of
//!   the rolling window's error deciles (q10…q90) from the reference
//!   deciles, normalized by the reference IQR — `0` means the live error
//!   distribution sits exactly on the reference, `1` means the deciles
//!   have moved a full reference-IQR on average. Exported as the
//!   `quality.drift.score` gauge.
//!
//! Crossing [`QualityConfig::drift_threshold`] is edge-triggered like a
//! breaker: one `quality.drift.alert` event + `quality.drift.alerts`
//! counter increment + flight-recorder dump (`quality_drift`) per
//! episode, cleared with hysteresis at `drift_threshold ×
//! drift_clear_ratio`. Independently, every sample feeds an optional
//! [`BurnRateMonitor`] (`ok` = absolute percentage error within
//! [`QualityConfig::ape_tolerance`]), so sustained accuracy loss pages
//! through the exact same multi-window SLO machinery as latency does.

use crate::slo::{BurnRateConfig, BurnRateMonitor, BurnRateSnapshot};
use std::collections::VecDeque;

/// Configuration of a [`QualityTracker`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct QualityConfig {
    /// Rolling (and reference) window length in samples.
    pub window: usize,
    /// Minimum rolling-window samples before a drift score is computed.
    pub min_samples: usize,
    /// Per-sample accuracy SLO: a sample is "good" when its absolute
    /// percentage error is at or below this.
    pub ape_tolerance: f64,
    /// Drift score at which the edge-triggered drift alert fires.
    pub drift_threshold: f64,
    /// The alert clears when the score falls below `drift_threshold ×
    /// drift_clear_ratio` (hysteresis; in `(0, 1]`).
    pub drift_clear_ratio: f64,
    /// Feed each sample's good/bad outcome into a burn-rate monitor.
    pub slo: Option<BurnRateConfig>,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            window: 512,
            min_samples: 64,
            ape_tolerance: 0.35,
            drift_threshold: 0.75,
            drift_clear_ratio: 0.8,
            slo: Some(BurnRateConfig::default()),
        }
    }
}

impl QualityConfig {
    /// Drill/CI-scale preset: tiny windows so a short run can freeze a
    /// reference, drift, alert and clear.
    pub fn for_drill() -> Self {
        QualityConfig {
            window: 64,
            min_samples: 16,
            slo: Some(BurnRateConfig::for_drill()),
            ..QualityConfig::default()
        }
    }
}

/// Point-in-time view of a [`QualityTracker`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QualitySnapshot {
    /// Samples consumed over the tracker's lifetime.
    pub samples: u64,
    /// Samples currently in the rolling window.
    pub window_len: usize,
    /// Windowed mean absolute error, seconds.
    pub mae_s: f64,
    /// Windowed mean absolute percentage error (fraction, not %).
    pub mape: f64,
    /// Windowed signed-error mean, seconds (positive = overestimating).
    pub bias_s: f64,
    /// Quantile-shift drift score vs the frozen reference window.
    pub drift_score: f64,
    /// Whether the reference window has been frozen yet.
    pub reference_frozen: bool,
    /// Whether the drift alert is currently firing.
    pub drift_alerting: bool,
    /// Drift alert edges seen so far.
    pub drift_alerts: u64,
    /// Accuracy-SLO burn state, when configured.
    pub slo: Option<BurnRateSnapshot>,
}

crate::fields_to_json! {
    QualitySnapshot: samples, window_len, mae_s, mape, bias_s, drift_score, reference_frozen,
    drift_alerting, drift_alerts, slo
}

/// Linear-interpolated `q`-quantile of a sorted non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

const DRIFT_DECILES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Rolling accuracy + drift tracker over a `(predicted, actual)` stream.
///
/// Single-owner (lives on the dispatcher/serving thread next to the
/// model); publish [`QualityTracker::snapshot`]s outward instead of
/// sharing the tracker.
#[derive(Debug)]
pub struct QualityTracker {
    cfg: QualityConfig,
    /// `(signed error s, APE, relative error)` per rolling sample.
    win: VecDeque<(f64, f64, f64)>,
    sum_abs_s: f64,
    sum_ape: f64,
    sum_err_s: f64,
    /// Relative errors accumulating toward the reference freeze.
    pending_ref: Vec<f64>,
    /// Sorted reference relative errors, once frozen.
    reference: Option<Vec<f64>>,
    /// Reference IQR with a floor, the drift normalizer.
    ref_scale: f64,
    drift_score: f64,
    drift_alerting: bool,
    drift_alerts: u64,
    samples: u64,
    monitor: Option<BurnRateMonitor>,
}

impl QualityTracker {
    /// Build a tracker; `window` and `min_samples` are clamped to sane
    /// minimums.
    pub fn new(mut cfg: QualityConfig) -> Self {
        cfg.window = cfg.window.max(8);
        cfg.min_samples = cfg.min_samples.clamp(4, cfg.window);
        cfg.drift_clear_ratio = cfg.drift_clear_ratio.clamp(0.05, 1.0);
        QualityTracker {
            win: VecDeque::with_capacity(cfg.window + 1),
            sum_abs_s: 0.0,
            sum_ape: 0.0,
            sum_err_s: 0.0,
            pending_ref: Vec::with_capacity(cfg.window),
            reference: None,
            ref_scale: 0.0,
            drift_score: 0.0,
            drift_alerting: false,
            drift_alerts: 0,
            samples: 0,
            monitor: cfg.slo.map(BurnRateMonitor::new),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.cfg
    }

    /// Record one shadow-scored pair at `now_us` on the caller's clock
    /// (feeds the SLO windows; timestamps must be non-decreasing).
    /// Non-finite inputs and non-positive actuals are counted
    /// (`quality.samples.invalid`) and otherwise ignored.
    pub fn record(&mut self, predicted_s: f64, actual_s: f64, now_us: u64) {
        if !predicted_s.is_finite() || !actual_s.is_finite() || actual_s <= 0.0 {
            crate::counter("quality.samples.invalid").inc();
            return;
        }
        let err = predicted_s - actual_s;
        let rel = err / actual_s;
        let ape = rel.abs();
        self.samples += 1;
        crate::counter("quality.samples").inc();

        self.win.push_back((err, ape, rel));
        self.sum_abs_s += err.abs();
        self.sum_ape += ape;
        self.sum_err_s += err;
        if self.win.len() > self.cfg.window {
            let (e, a, _) = self.win.pop_front().expect("window non-empty");
            self.sum_abs_s -= e.abs();
            self.sum_ape -= a;
            self.sum_err_s -= e;
        }

        if self.reference.is_none() {
            self.pending_ref.push(rel);
            if self.pending_ref.len() >= self.cfg.window {
                let mut r = std::mem::take(&mut self.pending_ref);
                r.sort_by(|a, b| a.total_cmp(b));
                // IQR floor: a near-constant reference error distribution
                // (IQR ~ 0) would make any change register as infinite
                // drift; 1% relative error is the smallest shift scale
                // worth normalizing against.
                self.ref_scale = (quantile_sorted(&r, 0.75) - quantile_sorted(&r, 0.25)).max(0.01);
                self.reference = Some(r);
                crate::event(crate::Level::Info, "quality.reference.frozen")
                    .field("window", self.cfg.window as u64)
                    .field("iqr", self.ref_scale)
                    .emit();
            }
        }

        self.update_drift();
        let n = self.win.len().max(1) as f64;
        crate::gauge("quality.mae").set(self.sum_abs_s / n);
        crate::gauge("quality.mape").set(self.sum_ape / n);
        crate::gauge("quality.bias").set(self.sum_err_s / n);
        crate::gauge("quality.window").set(self.win.len() as f64);

        if let Some(m) = &mut self.monitor {
            m.record(ape <= self.cfg.ape_tolerance, now_us);
        }
    }

    fn update_drift(&mut self) {
        let Some(reference) = &self.reference else {
            return;
        };
        if self.win.len() < self.cfg.min_samples {
            return;
        }
        let mut live: Vec<f64> = self.win.iter().map(|&(_, _, rel)| rel).collect();
        live.sort_by(|a, b| a.total_cmp(b));
        let shift: f64 = DRIFT_DECILES
            .iter()
            .map(|&d| (quantile_sorted(&live, d) - quantile_sorted(reference, d)).abs())
            .sum::<f64>()
            / DRIFT_DECILES.len() as f64;
        self.drift_score = shift / self.ref_scale;
        crate::gauge("quality.drift.score").set(self.drift_score);

        if self.drift_score >= self.cfg.drift_threshold && !self.drift_alerting {
            self.drift_alerting = true;
            self.drift_alerts += 1;
            crate::counter("quality.drift.alerts").inc();
            let n = self.win.len() as f64;
            crate::event(crate::Level::Error, "quality.drift.alert")
                .field("drift_score", self.drift_score)
                .field("threshold", self.cfg.drift_threshold)
                .field("mae_s", self.sum_abs_s / n)
                .field("mape", self.sum_ape / n)
                .field("bias_s", self.sum_err_s / n)
                .msg("estimate error distribution has shifted from the reference window")
                .emit();
            crate::trace::force_retain_current("quality_drift");
            let _ = crate::flightrec::trigger("quality_drift");
        } else if self.drift_alerting
            && self.drift_score < self.cfg.drift_threshold * self.cfg.drift_clear_ratio
        {
            self.drift_alerting = false;
            crate::event(crate::Level::Info, "quality.drift.clear")
                .field("drift_score", self.drift_score)
                .emit();
        }
    }

    /// Current snapshot; `now_us` evaluates the SLO burn windows.
    pub fn snapshot(&self, now_us: u64) -> QualitySnapshot {
        let n = self.win.len().max(1) as f64;
        QualitySnapshot {
            samples: self.samples,
            window_len: self.win.len(),
            mae_s: self.sum_abs_s / n,
            mape: self.sum_ape / n,
            bias_s: self.sum_err_s / n,
            drift_score: self.drift_score,
            reference_frozen: self.reference.is_some(),
            drift_alerting: self.drift_alerting,
            drift_alerts: self.drift_alerts,
            slo: self.monitor.as_ref().map(|m| m.snapshot(now_us)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QualityConfig {
        QualityConfig {
            window: 32,
            min_samples: 8,
            ape_tolerance: 0.25,
            drift_threshold: 0.75,
            drift_clear_ratio: 0.8,
            slo: None,
        }
    }

    /// Deterministic small wobble in [-amp, amp].
    fn wobble(i: u64, amp: f64) -> f64 {
        amp * (((i.wrapping_mul(0x9e3779b97f4a7c15) >> 33) % 1000) as f64 / 500.0 - 1.0)
    }

    #[test]
    fn accurate_stream_freezes_reference_and_stays_calm() {
        let mut t = QualityTracker::new(cfg());
        for i in 0..100u64 {
            let actual = 600.0;
            let pred = actual * (1.0 + wobble(i, 0.05));
            t.record(pred, actual, i * 1000);
        }
        let s = t.snapshot(100_000);
        assert_eq!(s.samples, 100);
        assert_eq!(s.window_len, 32);
        assert!(s.reference_frozen);
        assert!(s.mape < 0.06, "mape {}", s.mape);
        assert!(s.mae_s < 36.0, "mae {}", s.mae_s);
        assert!(s.drift_score < 0.75, "drift {}", s.drift_score);
        assert_eq!(s.drift_alerts, 0);
        assert!(!s.drift_alerting);
    }

    #[test]
    fn shifted_stream_raises_edge_triggered_drift_alert_and_clears() {
        let mut t = QualityTracker::new(cfg());
        let mut now = 0u64;
        for i in 0..64u64 {
            now += 1000;
            t.record(600.0 * (1.0 + wobble(i, 0.05)), 600.0, now);
        }
        assert_eq!(t.snapshot(now).drift_alerts, 0);
        // Systematic +60% overestimate: every decile moves ~0.6, far past
        // threshold × IQR.
        for i in 0..64u64 {
            now += 1000;
            t.record(960.0 * (1.0 + wobble(i, 0.05)), 600.0, now);
        }
        let s = t.snapshot(now);
        assert!(s.drift_score > 0.75, "drift {}", s.drift_score);
        assert!(s.bias_s > 300.0, "bias {}", s.bias_s);
        assert_eq!(s.drift_alerts, 1, "edge-triggered: one alert");
        assert!(s.drift_alerting);
        // Recovery: accurate stream again → score decays, alert clears,
        // no second edge.
        for i in 0..64u64 {
            now += 1000;
            t.record(600.0 * (1.0 + wobble(i, 0.05)), 600.0, now);
        }
        let s = t.snapshot(now);
        assert!(!s.drift_alerting, "drift {}", s.drift_score);
        assert_eq!(s.drift_alerts, 1);
    }

    #[test]
    fn slo_monitor_pages_on_sustained_accuracy_loss() {
        let mut t = QualityTracker::new(QualityConfig {
            slo: Some(BurnRateConfig {
                fast_window_us: 1_000_000,
                slow_window_us: 10_000_000,
                min_samples: 5,
                ..BurnRateConfig::default()
            }),
            ..cfg()
        });
        let mut now = 0u64;
        for i in 0..40u64 {
            now += 10_000;
            t.record(600.0 * (1.0 + wobble(i, 0.05)), 600.0, now);
        }
        assert!(!t.snapshot(now).slo.unwrap().alerting);
        for _ in 0..40u64 {
            now += 10_000;
            t.record(1200.0, 600.0, now); // APE 1.0 >> tolerance
        }
        let slo = t.snapshot(now).slo.unwrap();
        assert!(slo.alerting, "sustained accuracy loss must burn the SLO");
        assert!(slo.alerts >= 1);
        assert_eq!(slo.errors, 40);
    }

    #[test]
    fn invalid_samples_are_counted_not_crashed() {
        let mut t = QualityTracker::new(cfg());
        let before = crate::counter("quality.samples.invalid").get();
        t.record(f64::NAN, 600.0, 0);
        t.record(600.0, f64::INFINITY, 0);
        t.record(600.0, 0.0, 0);
        t.record(600.0, -5.0, 0);
        assert_eq!(t.snapshot(0).samples, 0);
        assert_eq!(crate::counter("quality.samples.invalid").get(), before + 4);
    }

    #[test]
    fn windowed_stats_match_hand_computation() {
        let mut t = QualityTracker::new(cfg());
        // Window 32, feed exactly 4: mae over the 4.
        for (pred, actual) in [
            (110.0, 100.0),
            (90.0, 100.0),
            (100.0, 100.0),
            (130.0, 100.0),
        ] {
            t.record(pred, actual, 0);
        }
        let s = t.snapshot(0);
        assert!((s.mae_s - 12.5).abs() < 1e-9, "{}", s.mae_s);
        assert!((s.mape - 0.125).abs() < 1e-9, "{}", s.mape);
        assert!((s.bias_s - 7.5).abs() < 1e-9, "{}", s.bias_s);
        assert!(!s.reference_frozen);
        assert_eq!(s.drift_score, 0.0);
    }

    #[test]
    fn quantile_sorted_interpolates() {
        let v = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 3.0);
        assert!((quantile_sorted(&v, 0.5) - 1.5).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.25) - 0.75).abs() < 1e-12);
    }
}
