//! Property tests for the histogram quantile estimator. Each property runs
//! `CASES` cases; case `n` draws its inputs from `SplitMix64::new(n)`, so the
//! case number in a failure message is the seed that replays it.

use odt_obs::{bucket_le_us, Histogram, HistogramData, SplitMix64, NUM_BUCKETS};

const CASES: u64 = 256;

/// `len_lo..len_hi` samples, each in `0..=max`.
fn samples(rng: &mut SplitMix64, len_lo: u64, len_hi: u64, max: u64) -> Vec<u64> {
    let len = len_lo + rng.next_below(len_hi - len_lo);
    (0..len).map(|_| rng.next_below(max + 1)).collect()
}

/// For ANY sample set, quantiles must be monotone in q, bounded by the
/// exact maximum, and the summary must agree with the raw queries.
#[test]
fn quantiles_are_monotone_and_bounded() {
    for case in 0..CASES {
        let samples = samples(&mut SplitMix64::new(case), 1, 300, 10_000_000);
        let h = Histogram::default();
        for &s in &samples {
            h.record_micros(s);
        }
        let max = *samples.iter().max().unwrap() as f64;
        let s = h.summary();
        assert_eq!(s.count, samples.len() as u64, "case {case}");
        assert!(
            s.p50_us <= s.p95_us,
            "case {case}: p50 {} > p95 {}",
            s.p50_us,
            s.p95_us
        );
        assert!(
            s.p95_us <= s.p99_us,
            "case {case}: p95 {} > p99 {}",
            s.p95_us,
            s.p99_us
        );
        assert!(
            s.p99_us <= s.max_us,
            "case {case}: p99 {} > max {}",
            s.p99_us,
            s.max_us
        );
        assert_eq!(s.max_us, max, "case {case}");
        // Dense q sweep: monotone non-decreasing everywhere, within range.
        let mut prev = 0.0f64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile_micros(q);
            assert!(v >= prev, "case {case}: q={q}: {v} < {prev}");
            assert!(v <= max, "case {case}: q={q}: {v} > max {max}");
            prev = v;
        }
        // The mean of recorded samples is exact (sum/count, not bucketed).
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((s.mean_us - exact_mean).abs() < 1e-6, "case {case}");
    }
}

/// A quantile estimate always lands inside (or at the clamped edge of)
/// the base-2 bucket that contains the true order statistic.
#[test]
fn quantile_estimate_stays_in_true_bucket() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let mut samples = samples(&mut rng, 1, 200, 1_000_000);
        // The last case pins q = 1, which a half-open draw never reaches.
        let q = if case == CASES - 1 {
            1.0
        } else {
            rng.next_f64()
        };
        let h = Histogram::default();
        for &s in &samples {
            h.record_micros(s);
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let true_stat = samples[rank - 1];
        let est = h.quantile_micros(q);
        // Same base-2 bucket: [2^(i-1), 2^i) for i ≥ 1, {0} for bucket 0.
        let (lo, hi) = if true_stat == 0 {
            (0.0, 1.0)
        } else {
            let i = 64 - true_stat.leading_zeros() as usize;
            ((1u64 << (i - 1)) as f64, (1u64 << i) as f64)
        };
        let max = *samples.last().unwrap() as f64;
        // est interpolates inside [lo, hi] of the rank's bucket, then is
        // clamped to the exact max (which is ≥ the true order statistic ≥ lo).
        assert!(
            est >= lo && est <= hi && est <= max,
            "case {case}: q={q} est={est} true={true_stat} bucket=[{lo},{hi}) max={max}"
        );
    }
}

/// Prometheus exposition invariants for ANY observation set: bucket
/// lines are cumulative-monotone in both `le` and count, the series
/// closes with `+Inf` equal to `_count`, and `_sum` is exact.
#[test]
fn exposition_buckets_are_cumulative_and_consistent() {
    for case in 0..CASES {
        let samples = samples(&mut SplitMix64::new(case), 0, 300, 50_000_000);
        let h = Histogram::default();
        for &s in &samples {
            h.record_micros(s);
        }
        let body = odt_obs::expo::render_parts(&[], &[], &[("prop.hist", &h)]);
        let mut les: Vec<u64> = Vec::new();
        let mut cums: Vec<u64> = Vec::new();
        let mut inf = None;
        let mut sum = None;
        let mut count = None;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("odt_prop_hist_us_bucket{le=\"") {
                let (le, c) = rest.split_once("\"} ").unwrap();
                let c: u64 = c.parse().unwrap();
                if le == "+Inf" {
                    inf = Some(c);
                } else {
                    les.push(le.parse().unwrap());
                    cums.push(c);
                }
            } else if let Some(v) = line.strip_prefix("odt_prop_hist_us_sum ") {
                sum = Some(v.parse::<u64>().unwrap());
            } else if let Some(v) = line.strip_prefix("odt_prop_hist_us_count ") {
                count = Some(v.parse::<u64>().unwrap());
            }
        }
        let n = samples.len() as u64;
        assert_eq!(inf, Some(n), "case {case}: +Inf bucket == count");
        assert_eq!(count, Some(n), "case {case}");
        assert_eq!(sum, Some(samples.iter().sum::<u64>()), "case {case}");
        for w in les.windows(2) {
            assert!(w[0] < w[1], "case {case}: le bounds strictly increase");
        }
        for w in cums.windows(2) {
            assert!(w[0] <= w[1], "case {case}: cumulative counts are monotone");
        }
        if let Some(&last) = cums.last() {
            assert!(last <= n, "case {case}");
        }
        // Exactness: each rendered cumulative count equals the number of
        // observations at or below its integer `le` bound.
        for (&le, &c) in les.iter().zip(&cums) {
            let expect = samples.iter().filter(|&&s| s <= le).count() as u64;
            assert_eq!(c, expect, "case {case}: le={le}");
        }
    }
}

/// Build a [`HistogramData`] from raw observations.
fn data_of(samples: &[u64]) -> HistogramData {
    let mut d = HistogramData::default();
    for &s in samples {
        d.record_micros(s);
    }
    d
}

/// The index of the base-2 bucket containing value `v` (µs, as a float
/// estimate): the smallest `i` with `v ≤ bucket_le_us(i)`, or the
/// catch-all bucket when none is.
fn bucket_of(v: f64) -> usize {
    for i in 0..NUM_BUCKETS - 1 {
        if v <= bucket_le_us(i) as f64 {
            return i;
        }
    }
    NUM_BUCKETS - 1
}

/// Federation-merge invariants for ANY pair/triple of observation
/// sets: merging is commutative and associative, conserves `_count`,
/// `_sum` and every bucket exactly, and equals the histogram a
/// single process would have recorded from the union.
#[test]
fn histogram_merge_is_exact_commutative_and_associative() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let xs = samples(&mut rng, 0, 200, 50_000_000);
        let ys = samples(&mut rng, 0, 200, 50_000_000);
        let zs = samples(&mut rng, 0, 200, 50_000_000);
        let (a, b, c) = (data_of(&xs), data_of(&ys), data_of(&zs));
        let ab = HistogramData::merged([&a, &b]);
        // Conservation, bucket by bucket.
        assert_eq!(ab.count, a.count + b.count, "case {case}");
        assert_eq!(ab.sum_us, a.sum_us + b.sum_us, "case {case}");
        assert_eq!(ab.max_us, a.max_us.max(b.max_us), "case {case}");
        for i in 0..NUM_BUCKETS {
            assert_eq!(
                ab.buckets[i],
                a.buckets[i] + b.buckets[i],
                "case {case}: bucket {i}"
            );
        }
        // Merge == single-process recording of the union.
        let mut union: Vec<u64> = xs.clone();
        union.extend_from_slice(&ys);
        assert_eq!(ab, data_of(&union), "case {case}: merge vs union");
        // Commutative.
        assert_eq!(
            ab,
            HistogramData::merged([&b, &a]),
            "case {case}: commutative"
        );
        // Associative.
        let bc = HistogramData::merged([&b, &c]);
        assert_eq!(
            HistogramData::merged([&ab, &c]),
            HistogramData::merged([&a, &bc]),
            "case {case}: associative"
        );
    }
}

/// A merged quantile is bounded by the inputs' quantiles at bucket
/// resolution. The exact q-order-statistic of a union lies between
/// the parts' exact q-order-statistics, and the estimator answers
/// within the order statistic's base-2 bucket (touching its open
/// upper edge at worst) — so the merged estimate's bucket lies
/// within one bucket of the interval spanned by the parts' estimate
/// buckets, and its value within a factor-of-two band of the parts'
/// estimates. Tighter value-level betweenness is NOT guaranteed:
/// two inputs concentrated at a shared bucket's top interpolate
/// higher alone than their union does.
#[test]
fn merged_quantiles_are_bounded_by_input_quantiles() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let xs = samples(&mut rng, 1, 200, 50_000_000);
        let ys = samples(&mut rng, 1, 200, 50_000_000);
        let q = if case == CASES - 1 {
            1.0
        } else {
            rng.next_f64()
        };
        let (a, b) = (data_of(&xs), data_of(&ys));
        let m = HistogramData::merged([&a, &b]);
        let (qa, qb, qm) = (
            a.quantile_micros(q),
            b.quantile_micros(q),
            m.quantile_micros(q),
        );
        let (lo, hi) = (bucket_of(qa.min(qb)), bucket_of(qa.max(qb)));
        let bm = bucket_of(qm);
        assert!(
            (lo.saturating_sub(1)..=hi + 1).contains(&bm),
            "case {case}: q={q}: merged {qm} (bucket {bm}) outside inputs' [{qa}, {qb}] \
             bucket band [{lo}, {hi}] ± 1"
        );
        // One base-2 bucket of slack is a factor of two in value.
        assert!(
            qm >= qa.min(qb) / 2.0 - 1.0,
            "case {case}: q={q}: merged {qm} below half the smaller input quantile {}",
            qa.min(qb)
        );
        assert!(
            qm <= qa.max(qb) * 2.0 + 1.0,
            "case {case}: q={q}: merged {qm} above twice the larger input quantile {}",
            qa.max(qb)
        );
        // And the merged estimate never exceeds the merged exact max.
        assert!(qm <= m.max_us as f64, "case {case}: q={q}");
    }
}
