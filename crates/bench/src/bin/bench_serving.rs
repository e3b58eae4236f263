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
//! The sweep then also writes `BENCH_serving_trace.json` (Chrome/Perfetto
//! trace of the retained requests) and `BENCH_serving_spans.jsonl` (the
//! span stream consumed by the `trace_report` eval binary).
//!
//! Schema (`odt-bench-serving/v5`):
//!
//! ```json
//! {
//!   "schema": "odt-bench-serving/v5",
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
//!     "chrome_trace": "path" | null,
//!     "spans_jsonl": "path" | null
//!   }
//! }
//! ```

use odt_core::{Dot, DotConfig};
use odt_serve::{
    dot_frontend, dot_frontend_cached, CacheConfig, ChaosConfig, DotFrontendConfig, EstimateCache,
    FrontendConfig, HotTracker, Rung,
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
    let mut cfg = DotConfig::fast();
    cfg.lg = lg;
    if quick {
        cfg.n_steps = 8;
        cfg.base_channels = 4;
        cfg.cond_dim = 16;
        cfg.d_e = 16;
        cfg.stage1_iters = 12;
        cfg.stage1_batch = 4;
        cfg.stage2_iters = 40;
        cfg.stage2_batch = 4;
    } else {
        cfg.n_steps = 20;
        cfg.stage1_iters = 200;
        cfg.stage2_iters = 200;
    }
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
    let quantile_ms = |sorted_us: &[u64], q: f64| {
        let i = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
        sorted_us[i] as f64 / 1_000.0
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
    let holdout: Vec<(OdtInput, f64)> = data
        .split(Split::Test)
        .iter()
        .take(64)
        .map(|t| (OdtInput::from_trajectory(t), t.travel_time()))
        .collect();
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
    let (off_p50, off_p99) = (quantile_ms(&lat_off, 0.50), quantile_ms(&lat_off, 0.99));
    let (on_p50, on_p99) = (quantile_ms(&lat_on, 0.50), quantile_ms(&lat_on, 0.99));
    let q_snap = scorer.quality(odt_obs::trace::now_us());
    let shadow_mae = if q_snap.mae_s.is_finite() {
        q_snap.mae_s
    } else {
        0.0
    };
    let scored = scorer.scored();
    let (d50, d99) = (on_p50 - off_p50, on_p99 - off_p99);
    println!(
        "quality observer: off p50/p99 {off_p50:.2}/{off_p99:.2} ms, on {on_p50:.2}/{on_p99:.2} ms \
         (delta {d50:+.2}/{d99:+.2}), {scored} shadow-scored (mae {shadow_mae:.1}s)"
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
    let mut sweep_entries = Vec::new();
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
        let shed = s.submitted - s.served;
        let sla = if s.submitted == 0 {
            1.0
        } else {
            s.deadline_met as f64 / s.submitted as f64
        };
        let slo = s.slo.unwrap_or_default();
        println!(
            "deadline {ms:>5}ms: {}/{} served, sla {:.2}, burn {:.1}/{:.1}, rungs {:?}",
            s.served, s.submitted, sla, slo.fast_burn, slo.slow_burn, s.rung_hits
        );
        sweep_entries.push(format!(
            "    {{ \"deadline_ms\": {ms}, \"submitted\": {}, \"served\": {}, \"shed\": {shed}, \
             \"sla_attainment\": {sla:.4}, \"rung_hits\": {{ \"cached\": {}, \"full_ddpm\": {}, \
             \"ddim\": {}, \"ddim_reduced\": {}, \"cached_stale\": {}, \"fallback\": {} }}, \
             \"slo\": {{ \"fast_burn\": {:.4}, \"slow_burn\": {:.4}, \"alerts\": {} }} }}",
            s.submitted,
            s.served,
            s.rung_hits[0],
            s.rung_hits[1],
            s.rung_hits[2],
            s.rung_hits[3],
            s.rung_hits[4],
            s.rung_hits[5],
            slo.fast_burn,
            slo.slow_burn,
            slo.alerts
        ));
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
    let mut cache_sweep_json = "null".to_string();
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
                let mut x = wl_rng.gen::<f64>() * total_w;
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
        let (un_p50, un_p99) = (quantile_ms(&lat, 0.50), quantile_ms(&lat, 0.99));
        println!(
            "cache sweep: {reqs} reqs over {pool_n} keys (zipf {zipf_s}), \
             uncached p50/p99 {un_p50:.2}/{un_p99:.2} ms"
        );

        let mut cap_entries = Vec::new();
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
            let (p50, p99) = (quantile_ms(&lat, 0.50), quantile_ms(&lat, 0.99));
            let cs = cache.stats();
            let s = fe.snapshot();
            let cached_serves =
                s.rung_hits[Rung::Cached.index()] + s.rung_hits[Rung::CachedStale.index()];
            let hit_rate = if cs.hit_rate().is_finite() {
                cs.hit_rate()
            } else {
                0.0
            };
            let speedup_p50 = un_p50 / p50.max(1e-9);
            println!(
                "  cache {capacity:>5}: hit rate {hit_rate:.3} ({} hits / {} misses), \
                 p50 {p50:.3} ms  p99 {p99:.3} ms  ({speedup_p50:.0}x p50)",
                cs.hits, cs.misses
            );
            cap_entries.push(format!(
                "      {{ \"capacity\": {capacity}, \"hits\": {}, \"stale_hits\": {}, \
                 \"misses\": {}, \"hit_rate\": {hit_rate:.4}, \"evictions\": {}, \
                 \"admission_rejects\": {}, \"cached_serves\": {cached_serves}, \
                 \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \"speedup_p50\": {speedup_p50:.2} }}",
                cs.hits, cs.stale_hits, cs.misses, cs.evictions, cs.admission_rejects
            ));
        }
        cache_sweep_json = format!(
            "{{ \"workload\": {{ \"distinct_keys\": {pool_n}, \"requests\": {reqs}, \
             \"zipf_s\": {zipf_s} }}, \"uncached\": {{ \"p50_ms\": {un_p50:.4}, \
             \"p99_ms\": {un_p99:.4} }}, \"capacities\": [\n{}\n    ] }}",
            cap_entries.join(",\n")
        );
    }

    // Trace export: when tracing is on (ODT_TRACE_SAMPLE > 0) the sweep's
    // requests produced retained traces; write them in both formats and
    // surface the p99 exemplar — "which request was the p99".
    let trace_enabled = odt_obs::trace::enabled();
    let (finished, _, _) = odt_obs::trace::trace_stats();
    let retained = odt_obs::trace::retained_count();
    let p99_exemplar = odt_obs::histogram("serve.request")
        .summary()
        .p99_exemplar
        .map(|raw| format!("{raw:016x}"));
    let (chrome_path, spans_path) = if trace_enabled && retained > 0 {
        let cp = "BENCH_serving_trace.json";
        let sp = "BENCH_serving_spans.jsonl";
        let n_chrome =
            odt_obs::trace::write_chrome_trace(cp).unwrap_or_else(|e| panic!("writing {cp}: {e}"));
        let n_spans =
            odt_obs::trace::write_spans_jsonl(sp).unwrap_or_else(|e| panic!("writing {sp}: {e}"));
        println!(
            "traces: {retained} retained ({finished} roots), {n_chrome} events -> {cp}, \
             {n_spans} lines -> {sp}, p99 exemplar {}",
            p99_exemplar.as_deref().unwrap_or("none")
        );
        (Some(cp), Some(sp))
    } else {
        (None, None)
    };
    let json_opt = |v: &Option<&str>| match v {
        Some(s) => format!("\"{s}\""),
        None => "null".to_string(),
    };

    let json = format!(
        "{{\n  \"schema\": \"odt-bench-serving/v5\",\n  \"threads\": {},\n  \
         \"quick\": {},\n  \"batch_size\": {},\n  \"lg\": {},\n  \
         \"train_seconds\": {:.3},\n  \
         \"sequential\": {{ \"queries\": {}, \"seconds\": {:.6}, \"per_query_ms\": {:.4} }},\n  \
         \"batched\": {{ \"queries\": {}, \"seconds\": {:.6}, \"per_query_ms\": {:.4} }},\n  \
         \"speedup\": {:.4},\n  \
         \"quality_overhead\": {{ \"queries\": {iters}, \
         \"observer_off\": {{ \"p50_ms\": {off_p50:.4}, \"p99_ms\": {off_p99:.4} }}, \
         \"observer_on\": {{ \"p50_ms\": {on_p50:.4}, \"p99_ms\": {on_p99:.4}, \
         \"scored\": {scored}, \"mae_s\": {shadow_mae:.3} }}, \
         \"delta_p50_ms\": {d50:.4}, \"delta_p99_ms\": {d99:.4} }},\n  \
         \"deadline_sweep\": [\n{}\n  ],\n  \
         \"cache_sweep\": {cache_sweep_json},\n  \
         \"trace\": {{ \"enabled\": {}, \"sample_every\": {}, \"finished\": {}, \
         \"retained\": {}, \"p99_exemplar\": {}, \"chrome_trace\": {}, \
         \"spans_jsonl\": {} }}\n}}\n",
        odt_compute::num_threads(),
        quick,
        batch_size,
        lg,
        train_seconds,
        n,
        seq_s,
        per_ms(seq_s),
        n,
        bat_s,
        per_ms(bat_s),
        speedup,
        sweep_entries.join(",\n"),
        trace_enabled,
        odt_obs::trace::sample_every(),
        finished,
        retained,
        json_opt(&p99_exemplar.as_deref()),
        json_opt(&chrome_path),
        json_opt(&spans_path)
    );
    let path = "BENCH_serving.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}
