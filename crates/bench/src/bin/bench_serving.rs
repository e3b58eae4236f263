//! Serving benchmark: trains a small DOT oracle, then times N sequential
//! `estimate` calls against one `estimate_batch(N)` call. Written to
//! `BENCH_serving.json` in the current working directory (run from the repo
//! root).
//!
//! Flags: `--quick` (smaller model/dataset — CI smoke mode),
//! `--batch <N>` (queries per run, default 64),
//! `--deadline-ms <a,b,c>` (deadline sweep through the `odt-serve`
//! frontend, default `5,20,100,1000`; `none` skips the sweep),
//! `--cache-sizes <a,b,c>` (estimate-cache capacity sweep, default
//! `16,64,256`; `none` skips it).
//!
//! Tracing: set `ODT_TRACE_SAMPLE=1` to trace every frontend request.
//! The sweep then also writes `BENCH_serving_tracez.json`: every retained
//! trace as one `odt-tracez/v1` payload, the `--source` of the
//! `trace_report` eval binary (stage rollup, Perfetto export).
//!
//! Schema (`odt-bench-serving/v6`):
//!
//! ```json
//! {
//!   "schema": "odt-bench-serving/v6",
//!   "threads": usize,        // odt-compute pool width
//!   "quick": bool,
//!   "batch_size": usize,
//!   "lg": usize,             // grid side length of the benchmark model
//!   "train_seconds": f64,
//!   "sequential": { "queries": usize, "seconds": f64, "per_query_ms": f64 },
//!   "batched":    { "queries": usize, "seconds": f64, "per_query_ms": f64 },
//!   "speedup": f64,          // sequential.seconds / batched.seconds
//!   "quality_overhead": {    // shadow quality observer cost (odt_serve::shadow)
//!     "queries": usize,
//!     "observer_off": { "p50_ms": f64, "p99_ms": f64 },
//!     "observer_on":  { "p50_ms": f64, "p99_ms": f64,
//!                       "scored": u64, "mae_s": f64 },
//!     "delta_p50_ms": f64,   // on - off; the observer's per-request cost
//!     "delta_p99_ms": f64
//!   },
//!   "deadline_sweep": [      // one entry per --deadline-ms value
//!     { "deadline_ms": u64, "submitted": u64, "served": u64, "shed": u64,
//!       "sla_attainment": f64,   // deadline_met / submitted
//!       "rung_hits": { "cached": u64, "full_ddpm": u64, "ddim": u64,
//!                      "ddim_reduced": u64, "cached_stale": u64,
//!                      "fallback": u64 },
//!       "slo": { "fast_burn": f64, "slow_burn": f64, "alerts": u64 } }
//!   ],
//!   "cache_sweep": {         // hot-path estimate cache (odt_serve::cache)
//!     "workload": { "distinct_keys": usize, "requests": usize,
//!                   "zipf_s": f64 },  // Zipf-skewed hotspot replay
//!     "uncached": { "p50_ms": f64, "p99_ms": f64 },  // plain frontend,
//!                                                    // same workload
//!     "capacities": [        // one entry per --cache-sizes value;
//!                            // identical workload, fresh cache each
//!       { "capacity": usize, "hits": u64, "stale_hits": u64,
//!         "misses": u64, "hit_rate": f64, "evictions": u64,
//!         "admission_rejects": u64, "cached_serves": u64,
//!         "p50_ms": f64, "p99_ms": f64,
//!         "speedup_p50": f64 }   // uncached.p50_ms / p50_ms
//!     ]
//!   } | null,
//!   "trace": {               // end-to-end request tracing summary
//!     "enabled": bool, "sample_every": u64,
//!     "finished": u64,       // root spans closed
//!     "retained": u64,       // traces kept (sampled or force-retained)
//!     "p99_exemplar": "hex trace id" | null,  // which request was the p99
//!     "tracez": "path" | null   // the odt-tracez/v1 export
//!   }
//! }
//! ```

use odt_core::{Dot, DotConfig};
use odt_obs::json::{self, Obj};
use odt_serve::{
    dot_frontend, dot_frontend_cached, CacheConfig, CacheStats, ChaosConfig, DotFrontendConfig,
    EstimateCache, FrontendConfig, FrontendSnapshot, HotTracker, Rung,
};
use odt_serve::{ShadowConfig, ShadowScorer};
use odt_traj::{OdtInput, Split};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `{"p50_ms":…,"p99_ms":…}` of a latency sample.
#[derive(Copy, Clone)]
struct Quantiles {
    p50_ms: f64,
    p99_ms: f64,
}

/// One `--cache-sizes` point of the cache sweep.
struct CachePoint {
    capacity: usize,
    stats: CacheStats,
    cached_serves: u64,
    latency: Quantiles,
}

/// The cache sweep: its workload, the uncached reference and one point per
/// capacity.
struct CacheSweep {
    distinct_keys: usize,
    requests: usize,
    zipf_s: f64,
    uncached: Quantiles,
    capacities: Vec<CachePoint>,
}

/// Everything `BENCH_serving.json` reports (the module docs give the schema).
struct Report {
    quick: bool,
    batch_size: usize,
    lg: usize,
    train_seconds: f64,
    queries: usize,
    sequential_seconds: f64,
    batched_seconds: f64,
    overhead_queries: usize,
    observer_off: Quantiles,
    observer_on: Quantiles,
    scored: u64,
    shadow_mae_s: f64,
    /// `(deadline_ms, the frontend's counters after the wave)`.
    deadline_sweep: Vec<(u64, FrontendSnapshot)>,
    cache_sweep: Option<CacheSweep>,
    trace_enabled: bool,
    finished: u64,
    retained: usize,
    p99_exemplar: Option<String>,
    tracez: Option<&'static str>,
}

fn quantiles_members(o: &mut Obj<'_, String>, q: Quantiles) {
    o.field("p50_ms", q.p50_ms).field("p99_ms", q.p99_ms);
}

fn report_json(r: &Report) -> String {
    let timed = |o: &mut Obj<'_, String>, key: &str, seconds: f64| {
        o.object(key, |o| {
            o.field("queries", r.queries)
                .field("seconds", seconds)
                .field("per_query_ms", seconds / r.queries as f64 * 1_000.0);
        });
    };
    let mut out = json::object_string(|o| {
        o.field("schema", "odt-bench-serving/v6")
            .field("threads", odt_compute::num_threads())
            .field("quick", r.quick)
            .field("batch_size", r.batch_size)
            .field("lg", r.lg)
            .field("train_seconds", r.train_seconds);
        timed(o, "sequential", r.sequential_seconds);
        timed(o, "batched", r.batched_seconds);
        o.field(
            "speedup",
            r.sequential_seconds / r.batched_seconds.max(1e-9),
        )
        .object("quality_overhead", |o| {
            o.field("queries", r.overhead_queries)
                .object("observer_off", |o| quantiles_members(o, r.observer_off))
                .object("observer_on", |o| {
                    quantiles_members(o, r.observer_on);
                    o.field("scored", r.scored).field("mae_s", r.shadow_mae_s);
                })
                .field("delta_p50_ms", r.observer_on.p50_ms - r.observer_off.p50_ms)
                .field("delta_p99_ms", r.observer_on.p99_ms - r.observer_off.p99_ms);
        })
        .array_lines("deadline_sweep", |a| {
            for (ms, s) in &r.deadline_sweep {
                let slo = s.slo.unwrap_or_default();
                a.object(|o| {
                    o.field("deadline_ms", *ms)
                        .field("submitted", s.submitted)
                        .field("served", s.served)
                        .field("shed", s.submitted - s.served)
                        .field("sla_attainment", sla_attainment(s))
                        .object("rung_hits", |o| {
                            for (i, &hits) in s.rung_hits.iter().enumerate() {
                                o.field(Rung::from_index(i).name(), hits);
                            }
                        })
                        .object("slo", |o| {
                            o.field("fast_burn", slo.fast_burn)
                                .field("slow_burn", slo.slow_burn)
                                .field("alerts", slo.alerts);
                        });
                });
            }
        })
        .object_or_null("cache_sweep", r.cache_sweep.as_ref(), |o, c| {
            o.object("workload", |o| {
                o.field("distinct_keys", c.distinct_keys)
                    .field("requests", c.requests)
                    .field("zipf_s", c.zipf_s);
            })
            .object("uncached", |o| quantiles_members(o, c.uncached))
            .array_lines("capacities", |a| {
                for p in &c.capacities {
                    a.object(|o| {
                        o.field("capacity", p.capacity)
                            .field("hits", p.stats.hits)
                            .field("stale_hits", p.stats.stale_hits)
                            .field("misses", p.stats.misses)
                            .field("hit_rate", p.stats.hit_rate())
                            .field("evictions", p.stats.evictions)
                            .field("admission_rejects", p.stats.admission_rejects)
                            .field("cached_serves", p.cached_serves);
                        quantiles_members(o, p.latency);
                        o.field("speedup_p50", speedup_p50(c.uncached, p.latency));
                    });
                }
            });
        })
        .object("trace", |o| {
            o.field("enabled", r.trace_enabled)
                .field("sample_every", odt_obs::trace::sample_every())
                .field("finished", r.finished)
                .field("retained", r.retained)
                .field("p99_exemplar", r.p99_exemplar.as_deref())
                .field("tracez", r.tracez);
        });
    });
    out.push('\n');
    out
}

/// `deadline_met / submitted` (1 for an empty wave).
fn sla_attainment(s: &FrontendSnapshot) -> f64 {
    if s.submitted == 0 {
        1.0
    } else {
        s.deadline_met as f64 / s.submitted as f64
    }
}

fn speedup_p50(uncached: Quantiles, cached: Quantiles) -> f64 {
    uncached.p50_ms / cached.p50_ms.max(1e-9)
}

fn main() {
    // Crash observability first: a panic anywhere below flushes event
    // sinks and dumps the flight recorder before the process dies.
    odt_obs::flightrec::install_panic_hook();
    odt_obs::trace::init_from_env();
    odt_obs::flightrec::init_from_env();
    let quick = arg_flag("--quick");
    let batch_size: usize = arg_value("--batch")
        .map(|v| v.parse().expect("--batch must be an integer"))
        .unwrap_or(64)
        .max(1);
    odt_compute::ensure_initialized();
    let lg = if quick { 8 } else { 16 };
    println!(
        "serving bench: {} thread(s), quick={quick}, batch {batch_size}, lg {lg}",
        odt_compute::num_threads()
    );

    let data = odt_bench::bench_dataset(lg);
    let mut cfg = if quick {
        DotConfig {
            stage1_iters: 12,
            stage1_batch: 4,
            stage2_iters: 40,
            stage2_batch: 4,
            ..DotConfig::tiny()
        }
    } else {
        DotConfig {
            n_steps: 20,
            stage1_iters: 200,
            stage2_iters: 200,
            ..DotConfig::fast()
        }
    };
    cfg.lg = lg;
    cfg.early_stop_samples = 4;
    cfg.early_stop_every = 1_000;
    let t0 = Instant::now();
    let model = Dot::train(cfg, &data, |_| {});
    let train_seconds = t0.elapsed().as_secs_f64();
    println!("trained in {train_seconds:.1}s");

    let queries: Vec<OdtInput> = data
        .split(Split::Test)
        .iter()
        .cycle()
        .take(batch_size)
        .map(OdtInput::from_trajectory)
        .collect();

    // Same seed for both paths so the denoising workload is comparable.
    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Instant::now();
    for q in &queries {
        let _ = model.estimate(q, &mut rng);
    }
    let seq_s = t0.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Instant::now();
    let ests = model.estimate_batch(&queries, &mut rng);
    let bat_s = t0.elapsed().as_secs_f64();
    assert_eq!(ests.len(), queries.len());
    assert!(ests.iter().all(|e| e.seconds.is_finite()));

    let n = queries.len();
    let per_ms = |s: f64| s / n as f64 * 1_000.0;
    let speedup = seq_s / bat_s.max(1e-9);
    println!(
        "sequential: {seq_s:.3}s ({:.2} ms/q)   batched: {bat_s:.3}s ({:.2} ms/q)   {speedup:.2}x",
        per_ms(seq_s),
        per_ms(bat_s)
    );

    // Quality-observer overhead: per-request service time with and
    // without the shadow scorer interleaved between requests, the way
    // the dispatcher's on_tick interleaves it with live traffic. The
    // dispatcher thread is serial, so a request arriving during a
    // scoring step waits behind it — the honest per-request cost is
    // time(step + estimate), throttled exactly as in production
    // (ShadowConfig::default's min_interval). p50 should not move;
    // p99 absorbs the occasional batch-of-8 scoring spike.
    let quantiles = |sorted_us: &[u64]| {
        let at = |q: f64| {
            let i = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
            sorted_us[i] as f64 / 1_000.0
        };
        Quantiles {
            p50_ms: at(0.50),
            p99_ms: at(0.99),
        }
    };
    // Enough iterations (cycling the query set) that the production
    // throttle lets several scoring steps fire during the timed loop.
    let iters = n.max(96);
    let mut rng = StdRng::seed_from_u64(11);
    let mut lat_off: Vec<u64> = Vec::with_capacity(iters);
    for q in queries.iter().cycle().take(iters) {
        let t = Instant::now();
        let _ = model.estimate(q, &mut rng);
        lat_off.push(t.elapsed().as_micros() as u64);
    }
    let mut holdout = OdtInput::labelled(data.split(Split::Test));
    holdout.truncate(64);
    let mut scorer = ShadowScorer::new(holdout, ShadowConfig::default());
    let mut shadow_rng = StdRng::seed_from_u64(13);
    let mut rng = StdRng::seed_from_u64(11);
    let mut lat_on: Vec<u64> = Vec::with_capacity(iters);
    for q in queries.iter().cycle().take(iters) {
        let t = Instant::now();
        scorer.step(odt_obs::trace::now_us(), |qs: &[OdtInput]| {
            model
                .estimate_batch(qs, &mut shadow_rng)
                .into_iter()
                .map(|e| e.seconds)
                .collect()
        });
        let _ = model.estimate(q, &mut rng);
        lat_on.push(t.elapsed().as_micros() as u64);
    }
    lat_off.sort_unstable();
    lat_on.sort_unstable();
    let (off, on) = (quantiles(&lat_off), quantiles(&lat_on));
    // NaN until something was scored; the writer would print that as null.
    let shadow_mae = Some(scorer.quality(odt_obs::trace::now_us()).mae_s)
        .filter(|mae| mae.is_finite())
        .unwrap_or(0.0);
    let scored = scorer.scored();
    println!(
        "quality observer: off p50/p99 {:.2}/{:.2} ms, on {:.2}/{:.2} ms \
         (delta {:+.2}/{:+.2}), {scored} shadow-scored (mae {shadow_mae:.1}s)",
        off.p50_ms,
        off.p99_ms,
        on.p50_ms,
        on.p99_ms,
        on.p50_ms - off.p50_ms,
        on.p99_ms - off.p99_ms
    );

    // Deadline sweep: the same queries through the odt-serve frontend at
    // each deadline, recording which degradation-ladder rung answered.
    let deadlines_ms: Vec<u64> = match arg_value("--deadline-ms") {
        Some(s) if s == "none" => Vec::new(),
        Some(s) => s
            .split(',')
            .map(|d| d.trim().parse().expect("--deadline-ms must be integers"))
            .collect(),
        None => vec![5, 20, 100, 1_000],
    };
    let mut deadline_sweep = Vec::new();
    for &ms in &deadlines_ms {
        // A fresh frontend per deadline point keeps counters clean; a
        // warmup pass seeds its latency ladder with measured rung costs.
        let fe_cfg = FrontendConfig {
            slo: Some(odt_obs::slo::BurnRateConfig::for_drill()),
            ..FrontendConfig::default()
        };
        let mut fe = dot_frontend(
            &model,
            DotFrontendConfig::default(),
            fe_cfg,
            ChaosConfig::quiet(7),
        );
        fe.warmup(&queries[..2.min(queries.len())]);
        let _ = fe.process_wave(queries.iter().map(|q| (*q, Some(ms * 1_000))));
        let s = fe.snapshot();
        let slo = s.slo.unwrap_or_default();
        println!(
            "deadline {ms:>5}ms: {}/{} served, sla {:.2}, burn {:.1}/{:.1}, rungs {:?}",
            s.served,
            s.submitted,
            sla_attainment(&s),
            slo.fast_burn,
            slo.slow_burn,
            s.rung_hits
        );
        deadline_sweep.push((ms, s));
    }

    // Cache sweep: a Zipf-skewed hotspot workload over a fixed pool of
    // distinct OD queries, replayed identically against the plain
    // frontend (the uncached reference) and against cached frontends of
    // increasing capacity. Per-request latency is measured around a
    // one-request wave so the cache's probe/serve path is on the clock.
    let cache_sizes: Vec<usize> = match arg_value("--cache-sizes") {
        Some(s) if s == "none" => Vec::new(),
        Some(s) => s
            .split(',')
            .map(|c| c.trim().parse().expect("--cache-sizes must be integers"))
            .collect(),
        None => vec![16, 64, 256],
    };
    let mut cache_sweep = None;
    if !cache_sizes.is_empty() {
        let zipf_s = 1.1f64;
        let pool: Vec<OdtInput> = data
            .split(Split::Test)
            .iter()
            .take(64)
            .map(OdtInput::from_trajectory)
            .collect();
        let pool_n = pool.len();
        let weights: Vec<f64> = (0..pool_n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(zipf_s))
            .collect();
        let total_w: f64 = weights.iter().sum();
        let reqs = if quick { 256 } else { 512 };
        let mut wl_rng = StdRng::seed_from_u64(23);
        let workload: Vec<usize> = (0..reqs)
            .map(|_| {
                let mut x = wl_rng.gen_range(0.0..1.0) * total_w;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        return i;
                    }
                    x -= w;
                }
                pool_n - 1
            })
            .collect();
        // 100ms lands every uncached request on a model rung, never the
        // fallback — the reference is real DDIM cost, not a heuristic.
        let deadline = Some(100_000u64);

        let mut fe = dot_frontend(
            &model,
            DotFrontendConfig::default(),
            FrontendConfig::default(),
            ChaosConfig::quiet(7),
        );
        fe.warmup(&pool[..2.min(pool_n)]);
        let mut lat: Vec<u64> = Vec::with_capacity(reqs);
        for &i in &workload {
            let t = Instant::now();
            let _ = fe.process_wave(std::iter::once((pool[i], deadline)));
            lat.push(t.elapsed().as_micros() as u64);
        }
        lat.sort_unstable();
        let uncached = quantiles(&lat);
        println!(
            "cache sweep: {reqs} reqs over {pool_n} keys (zipf {zipf_s}), \
             uncached p50/p99 {:.2}/{:.2} ms",
            uncached.p50_ms, uncached.p99_ms
        );

        let mut capacities = Vec::new();
        for &capacity in &cache_sizes {
            let cache = Arc::new(EstimateCache::new(CacheConfig {
                capacity,
                ..CacheConfig::default()
            }));
            let hot = Arc::new(Mutex::new(HotTracker::new(64)));
            let mut fe = dot_frontend_cached(
                &model,
                DotFrontendConfig::default(),
                FrontendConfig::default(),
                ChaosConfig::quiet(7),
                Arc::clone(&cache),
                Arc::clone(&hot),
            );
            fe.warmup(&pool[..2.min(pool_n)]);
            let mut lat: Vec<u64> = Vec::with_capacity(reqs);
            for &i in &workload {
                let t = Instant::now();
                let _ = fe.process_wave(std::iter::once((pool[i], deadline)));
                lat.push(t.elapsed().as_micros() as u64);
            }
            lat.sort_unstable();
            let latency = quantiles(&lat);
            let stats = cache.stats();
            let s = fe.snapshot();
            let cached_serves =
                s.rung_hits[Rung::Cached.index()] + s.rung_hits[Rung::CachedStale.index()];
            println!(
                "  cache {capacity:>5}: hit rate {:.3} ({} hits / {} misses), \
                 p50 {:.3} ms  p99 {:.3} ms  ({:.0}x p50)",
                stats.hit_rate(),
                stats.hits,
                stats.misses,
                latency.p50_ms,
                latency.p99_ms,
                speedup_p50(uncached, latency)
            );
            capacities.push(CachePoint {
                capacity,
                stats,
                cached_serves,
                latency,
            });
        }
        cache_sweep = Some(CacheSweep {
            distinct_keys: pool_n,
            requests: reqs,
            zipf_s,
            uncached,
            capacities,
        });
    }

    // Trace export: when tracing is on (ODT_TRACE_SAMPLE > 0) the sweep's
    // requests produced retained traces; write all of them as one tracez
    // payload and surface the p99 exemplar — "which request was the p99".
    let trace_enabled = odt_obs::trace::enabled();
    let (finished, _, _) = odt_obs::trace::trace_stats();
    let retained = odt_obs::trace::retained_count();
    let p99_exemplar = odt_obs::histogram("serve.request")
        .summary()
        .p99_exemplar
        .map(|raw| format!("{raw:016x}"));
    let tracez = (trace_enabled && retained > 0).then(|| {
        let path = "BENCH_serving_tracez.json";
        let body = odt_net::render_tracez(usize::MAX) + "\n";
        odt_obs::atomic_write(path.as_ref(), body.as_bytes())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "traces: {retained} retained ({finished} roots) -> {path}, p99 exemplar {}",
            p99_exemplar.as_deref().unwrap_or("none")
        );
        path
    });
    let report = Report {
        quick,
        batch_size,
        lg,
        train_seconds,
        queries: n,
        sequential_seconds: seq_s,
        batched_seconds: bat_s,
        overhead_queries: iters,
        observer_off: off,
        observer_on: on,
        scored,
        shadow_mae_s: shadow_mae,
        deadline_sweep,
        cache_sweep,
        trace_enabled,
        finished,
        retained,
        p99_exemplar,
        tracez,
    };
    let path = "BENCH_serving.json";
    std::fs::write(path, report_json(&report)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_obs::json::JsonValue;

    fn keys(v: &JsonValue) -> Vec<&str> {
        match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// The keys and value types `bench-smoke`, `trace-smoke` and
    /// `cache-smoke` read, and the module docs' schema.
    #[test]
    fn report_keys_and_types_are_pinned() {
        let ms = |p50_ms, p99_ms| Quantiles { p50_ms, p99_ms };
        let mut report = Report {
            quick: true,
            batch_size: 8,
            lg: 8,
            train_seconds: 1.5,
            queries: 8,
            sequential_seconds: 0.4,
            batched_seconds: 0.1,
            overhead_queries: 96,
            observer_off: ms(40.0, 50.0),
            observer_on: ms(41.0, 90.0),
            scored: 16,
            shadow_mae_s: 300.0,
            deadline_sweep: vec![(
                20,
                FrontendSnapshot {
                    submitted: 8,
                    served: 6,
                    deadline_met: 4,
                    slo: Some(Default::default()),
                    ..Default::default()
                },
            )],
            cache_sweep: Some(CacheSweep {
                distinct_keys: 64,
                requests: 256,
                zipf_s: 1.1,
                uncached: ms(30.0, 60.0),
                capacities: vec![CachePoint {
                    capacity: 16,
                    stats: CacheStats {
                        hits: 3,
                        misses: 1,
                        ..Default::default()
                    },
                    cached_serves: 3,
                    latency: ms(0.003, 35.0),
                }],
            }),
            trace_enabled: true,
            finished: 300,
            retained: 12,
            p99_exemplar: Some("00000000000000ab".into()),
            tracez: Some("BENCH_serving_tracez.json"),
        };
        let doc = JsonValue::parse(&report_json(&report)).unwrap();
        let at = |path: &[&str]| path.iter().fold(&doc, |v, key| v.get(key).expect(key));
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "threads",
                "quick",
                "batch_size",
                "lg",
                "train_seconds",
                "sequential",
                "batched",
                "speedup",
                "quality_overhead",
                "deadline_sweep",
                "cache_sweep",
                "trace"
            ]
        );
        assert_eq!(at(&["schema"]).as_str(), Some("odt-bench-serving/v6"));
        assert!(at(&["threads"]).as_u64().unwrap() >= 1);
        assert_eq!(
            keys(at(&["sequential"])),
            ["queries", "seconds", "per_query_ms"]
        );
        assert_eq!(at(&["batched", "per_query_ms"]).as_f64(), Some(12.5));
        assert_eq!(at(&["speedup"]).as_f64(), Some(4.0));
        assert_eq!(
            keys(at(&["quality_overhead"])),
            [
                "queries",
                "observer_off",
                "observer_on",
                "delta_p50_ms",
                "delta_p99_ms"
            ]
        );
        assert_eq!(
            keys(at(&["quality_overhead", "observer_on"])),
            ["p50_ms", "p99_ms", "scored", "mae_s"]
        );
        assert_eq!(
            at(&["quality_overhead", "delta_p99_ms"]).as_f64(),
            Some(40.0)
        );
        let point = &at(&["deadline_sweep"]).as_arr().unwrap()[0];
        assert_eq!(
            keys(point),
            [
                "deadline_ms",
                "submitted",
                "served",
                "shed",
                "sla_attainment",
                "rung_hits",
                "slo"
            ]
        );
        assert_eq!(point.get("shed").unwrap().as_u64(), Some(2));
        assert_eq!(point.get("sla_attainment").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            keys(point.get("rung_hits").unwrap()),
            [
                "cached",
                "full_ddpm",
                "ddim",
                "ddim_reduced",
                "cached_stale",
                "fallback"
            ]
        );
        assert_eq!(
            keys(point.get("slo").unwrap()),
            ["fast_burn", "slow_burn", "alerts"]
        );
        assert_eq!(
            keys(at(&["cache_sweep"])),
            ["workload", "uncached", "capacities"]
        );
        assert_eq!(
            at(&["cache_sweep", "uncached", "p50_ms"]).as_f64(),
            Some(30.0)
        );
        let capacity = &at(&["cache_sweep", "capacities"]).as_arr().unwrap()[0];
        assert_eq!(
            keys(capacity),
            [
                "capacity",
                "hits",
                "stale_hits",
                "misses",
                "hit_rate",
                "evictions",
                "admission_rejects",
                "cached_serves",
                "p50_ms",
                "p99_ms",
                "speedup_p50"
            ]
        );
        assert_eq!(capacity.get("hit_rate").unwrap().as_f64(), Some(0.75));
        assert_eq!(
            capacity.get("speedup_p50").unwrap().as_f64(),
            Some(10_000.0)
        );
        assert_eq!(
            keys(at(&["trace"])),
            [
                "enabled",
                "sample_every",
                "finished",
                "retained",
                "p99_exemplar",
                "tracez"
            ]
        );
        assert_eq!(at(&["trace", "enabled"]).as_bool(), Some(true));
        assert_eq!(at(&["trace", "retained"]).as_u64(), Some(12));
        assert_eq!(
            at(&["trace", "p99_exemplar"]).as_str(),
            Some("00000000000000ab")
        );

        // Sweeps skipped and tracing off: `null`, not a missing key.
        report.cache_sweep = None;
        report.p99_exemplar = None;
        report.tracez = None;
        let doc = JsonValue::parse(&report_json(&report)).unwrap();
        assert_eq!(doc.get("cache_sweep"), Some(&JsonValue::Null));
        let trace = doc.get("trace").unwrap();
        assert_eq!(trace.get("p99_exemplar"), Some(&JsonValue::Null));
        assert_eq!(trace.get("tracez"), Some(&JsonValue::Null));
    }
}
