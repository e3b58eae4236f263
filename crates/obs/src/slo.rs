//! Multi-window SLO burn-rate monitoring (Google SRE workbook style).
//!
//! An SLO like "99% of requests meet their deadline" grants an **error
//! budget** of 1%. The *burn rate* over a window is the observed error
//! rate divided by that budget: burn 1 means the budget is being consumed
//! exactly at the sustainable pace, burn 14.4 means a 30-day budget would
//! be gone in ~2 days. Alerting on a single window either pages too late
//! (long window) or flaps on noise (short window); the standard fix is to
//! require **two windows simultaneously** — a fast window (is it burning
//! *right now*?) AND a slow window (has enough budget actually been
//! consumed to matter?).
//!
//! [`BurnRateMonitor`] implements exactly that over a caller-supplied
//! microsecond clock (the serving frontend's epoch clock in production,
//! a synthetic clock in tests — determinism is preserved because the
//! monitor never reads wall-clock itself). On the alert edge it emits a
//! `slo.burn.alert` event, updates the `slo.burn.fast`/`slo.burn.slow`
//! gauges, force-retains the current trace (if any), and triggers a
//! flight-recorder dump (`slo_breach`); on recovery it emits
//! `slo.burn.clear`.

use std::collections::VecDeque;

/// Configuration of a [`BurnRateMonitor`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BurnRateConfig {
    /// SLO attainment target, e.g. `0.99` = 99% of requests good. Must be
    /// in `(0, 1)`.
    pub slo_target: f64,
    /// Fast ("is it burning now?") window, µs. Default 5 minutes.
    pub fast_window_us: u64,
    /// Slow ("does it matter yet?") window, µs. Default 1 hour.
    pub slow_window_us: u64,
    /// Fast-window burn-rate alert threshold. Default 14.4 (the classic
    /// 2%-of-30-day-budget-in-1-hour page).
    pub fast_threshold: f64,
    /// Slow-window burn-rate alert threshold. Default 6.0.
    pub slow_threshold: f64,
    /// Minimum samples inside the fast window before alerting (guards the
    /// first few requests of a run from tripping on one failure).
    pub min_samples: u64,
}

impl Default for BurnRateConfig {
    fn default() -> Self {
        BurnRateConfig {
            slo_target: 0.99,
            fast_window_us: 300_000_000,
            slow_window_us: 3_600_000_000,
            fast_threshold: 14.4,
            slow_threshold: 6.0,
            min_samples: 10,
        }
    }
}

impl BurnRateConfig {
    /// A drill/bench-scale preset: second-scale windows so a short run can
    /// exercise the full alert → clear cycle.
    pub fn for_drill() -> Self {
        BurnRateConfig {
            fast_window_us: 2_000_000,
            slow_window_us: 20_000_000,
            ..BurnRateConfig::default()
        }
    }

    fn budget(&self) -> f64 {
        (1.0 - self.slo_target).max(1e-9)
    }
}

/// Point-in-time view of a [`BurnRateMonitor`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BurnRateSnapshot {
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Whether the monitor is currently in the alerting state.
    pub alerting: bool,
    /// Number of alert edges seen so far.
    pub alerts: u64,
    /// Total samples recorded.
    pub total: u64,
    /// Total bad (SLO-violating) samples recorded.
    pub errors: u64,
}

crate::fields_to_json! {
    BurnRateSnapshot: fast_burn, slow_burn, alerting, alerts, total, errors
}

/// Sliding-window burn-rate monitor over a boolean good/bad sample stream.
///
/// Not thread-safe by itself (the serving frontend records from its one
/// serving thread); wrap in a `Mutex` for concurrent use.
#[derive(Debug)]
pub struct BurnRateMonitor {
    cfg: BurnRateConfig,
    /// `(ts_us, ok)` samples inside the slow window, oldest first.
    samples: VecDeque<(u64, bool)>,
    alerting: bool,
    alerts: u64,
    total: u64,
    errors: u64,
}

impl BurnRateMonitor {
    /// Build a monitor; `cfg.slo_target` is clamped into `(0, 1)`.
    pub fn new(mut cfg: BurnRateConfig) -> Self {
        cfg.slo_target = cfg.slo_target.clamp(1e-6, 1.0 - 1e-6);
        BurnRateMonitor {
            cfg,
            samples: VecDeque::new(),
            alerting: false,
            alerts: 0,
            total: 0,
            errors: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BurnRateConfig {
        &self.cfg
    }

    fn window_burn(&self, now_us: u64, window_us: u64) -> (f64, u64) {
        let cutoff = now_us.saturating_sub(window_us);
        let mut n = 0u64;
        let mut bad = 0u64;
        for &(ts, ok) in self.samples.iter().rev() {
            if ts < cutoff {
                break;
            }
            n += 1;
            if !ok {
                bad += 1;
            }
        }
        if n == 0 {
            return (0.0, 0);
        }
        ((bad as f64 / n as f64) / self.cfg.budget(), n)
    }

    /// Record one request outcome (`ok` = the SLO was met for it) at
    /// `now_us` on the caller's clock, and re-evaluate the alert state.
    /// Returns the updated snapshot. Timestamps must be non-decreasing.
    pub fn record(&mut self, ok: bool, now_us: u64) -> BurnRateSnapshot {
        self.total += 1;
        if !ok {
            self.errors += 1;
        }
        self.samples.push_back((now_us, ok));
        let cutoff = now_us.saturating_sub(self.cfg.slow_window_us);
        while self.samples.front().is_some_and(|&(ts, _)| ts < cutoff) {
            self.samples.pop_front();
        }

        let (fast, fast_n) = self.window_burn(now_us, self.cfg.fast_window_us);
        let (slow, _) = self.window_burn(now_us, self.cfg.slow_window_us);
        crate::gauge("slo.burn.fast").set(fast);
        crate::gauge("slo.burn.slow").set(slow);

        let firing = fast >= self.cfg.fast_threshold
            && slow >= self.cfg.slow_threshold
            && fast_n >= self.cfg.min_samples;
        if firing && !self.alerting {
            self.alerting = true;
            self.alerts += 1;
            crate::counter("slo.burn.alerts").inc();
            crate::event(crate::Level::Error, "slo.burn.alert")
                .field("fast_burn", fast)
                .field("slow_burn", slow)
                .field("fast_threshold", self.cfg.fast_threshold)
                .field("slow_threshold", self.cfg.slow_threshold)
                .field("slo_target", self.cfg.slo_target)
                .msg("error-budget burn rate over threshold in both windows")
                .emit();
            crate::trace::force_retain_current("slo_breach");
            let _ = crate::flightrec::trigger("slo_breach");
        } else if !firing && self.alerting && fast < self.cfg.fast_threshold {
            self.alerting = false;
            crate::event(crate::Level::Info, "slo.burn.clear")
                .field("fast_burn", fast)
                .field("slow_burn", slow)
                .emit();
        }
        self.snapshot_at(fast, slow)
    }

    fn snapshot_at(&self, fast: f64, slow: f64) -> BurnRateSnapshot {
        BurnRateSnapshot {
            fast_burn: fast,
            slow_burn: slow,
            alerting: self.alerting,
            alerts: self.alerts,
            total: self.total,
            errors: self.errors,
        }
    }

    /// Current snapshot evaluated at `now_us` (no sample recorded).
    pub fn snapshot(&self, now_us: u64) -> BurnRateSnapshot {
        let (fast, _) = self.window_burn(now_us, self.cfg.fast_window_us);
        let (slow, _) = self.window_burn(now_us, self.cfg.slow_window_us);
        self.snapshot_at(fast, slow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BurnRateConfig {
        BurnRateConfig {
            slo_target: 0.9, // budget 0.1 → burn = error_rate * 10
            fast_window_us: 1_000,
            slow_window_us: 10_000,
            fast_threshold: 5.0,
            slow_threshold: 2.0,
            min_samples: 5,
        }
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let mut m = BurnRateMonitor::new(cfg());
        for t in 0..200u64 {
            let s = m.record(true, t * 50);
            assert!(!s.alerting, "t={t}");
            assert_eq!(s.fast_burn, 0.0);
        }
        assert_eq!(m.snapshot(10_000).alerts, 0);
    }

    #[test]
    fn sustained_burn_alerts_once_and_clears() {
        let mut m = BurnRateMonitor::new(cfg());
        let mut now = 0u64;
        // Healthy prefix fills the slow window.
        for _ in 0..50 {
            now += 100;
            m.record(true, now);
        }
        // Total failure: fast burn → 10 (error rate 1.0 / budget 0.1).
        let mut first_alert = None;
        for i in 0..40 {
            now += 100;
            let s = m.record(false, now);
            if s.alerting && first_alert.is_none() {
                first_alert = Some((i, s.alerts));
            }
        }
        let (_, alerts) = first_alert.expect("sustained failure must alert");
        assert_eq!(alerts, 1, "edge-triggered: one alert per episode");
        assert!(m.snapshot(now).alerting);
        // Recovery: healthy samples push fast burn back under threshold.
        let mut cleared = false;
        for _ in 0..100 {
            now += 100;
            let s = m.record(true, now);
            if !s.alerting {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "alert must clear after recovery");
        assert_eq!(m.snapshot(now).alerts, 1);
    }

    #[test]
    fn min_samples_guards_cold_start() {
        let mut m = BurnRateMonitor::new(cfg());
        // Far fewer samples than min_samples, all bad: no alert.
        let s1 = m.record(false, 100);
        let s2 = m.record(false, 200);
        assert!(!s1.alerting && !s2.alerting);
        assert!(s2.fast_burn > 5.0, "burn itself is over threshold");
    }

    #[test]
    fn old_samples_age_out_of_both_windows() {
        let mut m = BurnRateMonitor::new(cfg());
        for i in 0..10u64 {
            m.record(false, i * 10);
        }
        // Jump far past the slow window: old failures no longer count.
        let s = m.record(true, 1_000_000);
        assert_eq!(s.fast_burn, 0.0);
        assert_eq!(s.slow_burn, 0.0);
        assert_eq!(s.errors, 10);
        assert_eq!(s.total, 11);
    }

    #[test]
    fn burn_rate_is_error_rate_over_budget() {
        let mut m = BurnRateMonitor::new(BurnRateConfig {
            min_samples: 1,
            ..cfg()
        });
        // 1 bad in 4 inside the fast window → error rate 0.25, budget 0.1,
        // burn 2.5.
        let mut s = BurnRateSnapshot::default();
        for (ok, t) in [(true, 10), (true, 20), (false, 30), (true, 40)] {
            s = m.record(ok, t);
        }
        assert!((s.fast_burn - 2.5).abs() < 1e-9, "{}", s.fast_burn);
    }
}
