//! Chaos drill: run the standing fault-injection scenarios against the
//! deadline-aware serving frontend over a real (tiny) trained DOT oracle,
//! and check each scenario's resilience expectations.
//!
//! ```text
//! chaos_drill [--scenario <name>|all] [--seed <u64>] [--quick]
//!             [--report <path>] [--flightrec-dir <dir>]
//! ```
//!
//! * `--scenario` — one scenario by name, or `all` (default).
//! * `--seed`     — perturbs every scenario's fault stream (default 7);
//!   the same seed replays the same faults.
//! * `--quick`    — smaller waves, CI smoke mode.
//! * `--report`   — JSONL report path (default `CHAOS_drill.jsonl`).
//! * `--flightrec-dir` — flight-recorder dump directory (default
//!   `CHAOS_flightrec`; `ODT_FLIGHTREC_DIR` overrides).
//!
//! Besides the serving and network catalogs, the standing
//! `quality_drift` drill shadow-scores the drill oracle against its
//! holdout, synthetically degrades the predictions once the drift
//! reference has frozen, and asserts the drift alert, the accuracy-SLO
//! burn alert and the `quality_drift` flight-recorder dump all fire.
//! The `cache_drift_invalidation` drill extends the chain into the
//! estimate cache: a cached frontend is warmed until repeats serve
//! from the cache, the same synthetic drift fires, and the drill
//! asserts the [`DriftInvalidator`] flushes the cache so zero
//! pre-drift-generation estimates are ever served again.
//!
//! Four cluster drills cover the sharded deployment:
//! `cluster_replica_kill` and `cluster_router_partition` boot a real
//! loopback cluster (router + probed replicas) and assert failover and
//! degrade-to-prior behave exactly (see `odt_net::cluster_drill`),
//! `cluster_trace_loss` kills a replica mid-wave and asserts the
//! stitched traces keep the failover's retry hop and the metrics
//! federation marks the dead replica stale without dropping its
//! history, and `cluster_corrupt_swap` drives the hot-swap state
//! machine over a real
//! trained oracle: a corrupt-CRC candidate, a wrong-grid-shape
//! candidate and a drift-failing candidate must each be refused with
//! their typed code, a good candidate must promote, and serving waves
//! interleaved with every controller tick must never lose a request.
//!
//! Every drill runs fully traced (head sampling forced to 1-in-1 unless
//! `ODT_TRACE_SAMPLE` overrides it): each scenario carries a root trace
//! whose id is in its report line, and incident paths — breaker trips,
//! deadline breaches — force-retain the offending request's trace and
//! dump the flight recorder, so a failed drill ships its own evidence.
//!
//! The report is one JSON object per line, schema `odt-chaos-drill/v2`:
//! a `kind: "scenario"` line per drill (counters, rung/breaker activity,
//! `trace_id`, flight-recorder dump delta, expectation violations, pass
//! flag) and a final `kind: "summary"` line. Exit status is non-zero if
//! any scenario fails its expectations — the CI `chaos-smoke` job gates
//! on this.

use odt_core::{Dot, DotConfig, ModelRegistry};
use odt_net::{
    cluster_drill_names, run_cluster_replica_kill, run_cluster_router_partition,
    run_cluster_trace_loss, ClusterDrillOutcome, FrontendBridge, NetScenarioSpec, Region,
    WireQuery,
};
use odt_obs::json::{self, Obj};
use odt_roadnet::LngLat;
use odt_serve::{
    dot_frontend, dot_frontend_cached, CacheConfig, ChaosConfig, ChaosExecutor, DotExecutor,
    DotFrontendConfig, DotSwapHost, DotSwapHostConfig, DriftInvalidator, EstimateCache,
    FrontendConfig, FrontendSnapshot, HotTracker, ModelSlot, Response, Rung, ScenarioSpec,
    ServeFrontend, SwapConfig, SwapController, SwapError, SwapOutcome, MODEL_RUNGS, NUM_RUNGS,
};
use odt_serve::{ShadowConfig, ShadowScorer};
use odt_traj::{Dataset, GridSpec, OdtInput, Split};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SCHEMA: &str = "odt-chaos-drill/v2";

/// One report line, and the verdict `main` counts.
struct Line {
    json: String,
    pass: bool,
}

/// What every drill opens with. Its own root trace: request roots nest
/// above it on the context stack, and force-retaining it keeps the
/// scenario id resolvable in the retained set even when every request
/// sails through cleanly. And the flight recorder's dump count so far.
struct DrillTrace {
    root: odt_obs::trace::RootSpan,
    dumps_before: u64,
}

/// A finished drill's trace id and the flight-recorder dumps it caused.
struct Evidence {
    trace_id: Option<String>,
    dumps: u64,
    last_dump: Option<String>,
}

impl DrillTrace {
    fn start() -> Self {
        let root = odt_obs::trace::root_span("chaos.scenario");
        odt_obs::trace::force_retain_current("chaos_scenario");
        DrillTrace {
            root,
            dumps_before: odt_obs::flightrec::dump_count(),
        }
    }

    fn finish(self) -> Evidence {
        let trace_id = self.root.trace_id().map(|t| t.to_hex());
        drop(self.root);
        let dumps = odt_obs::flightrec::dump_count() - self.dumps_before;
        Evidence {
            trace_id,
            dumps,
            last_dump: odt_obs::flightrec::last_dump()
                .filter(|_| dumps > 0)
                .map(|p| p.display().to_string()),
        }
    }
}

/// The members every scenario line opens with.
struct Head<'a> {
    name: &'a str,
    description: &'a str,
    seed: u64,
    quick: bool,
    wall_seconds: f64,
    submitted: u64,
    admitted: u64,
    served: u64,
}

/// One `kind: "scenario"` line: the shared head, the drill's own members
/// (`body`), then the violations and the verdict they imply.
fn scenario_line(
    head: Head<'_>,
    evidence: &Evidence,
    violations: &[String],
    body: impl FnOnce(&mut Obj<'_, String>),
) -> Line {
    let pass = violations.is_empty();
    let answer_rate = if head.submitted == 0 {
        1.0
    } else {
        head.served as f64 / head.submitted as f64
    };
    let json = json::object_string(|o| {
        o.field("schema", SCHEMA)
            .field("kind", "scenario")
            .field("name", head.name)
            .field("description", head.description)
            .field("trace_id", evidence.trace_id.as_deref())
            .object("flightrec", |o| {
                o.field("dumps", evidence.dumps)
                    .field("last_dump", evidence.last_dump.as_deref());
            })
            .field("seed", head.seed)
            .field("quick", head.quick)
            .field("wall_seconds", head.wall_seconds)
            .field("submitted", head.submitted)
            .field("admitted", head.admitted)
            .field("served", head.served)
            .field("answer_rate", answer_rate);
        body(o);
        o.field("violations", violations).field("pass", pass);
    });
    Line { json, pass }
}

/// A frontend's shed, rung, breaker and deadline counters. Rungs are keyed
/// by name, the report's stable interface, not by ladder index.
fn frontend_members(o: &mut Obj<'_, String>, s: &FrontendSnapshot) {
    let rungs = |o: &mut Obj<'_, String>, key: &str, counts: &[u64; NUM_RUNGS]| {
        o.object(key, |o| {
            for (i, &v) in counts.iter().enumerate() {
                o.field(Rung::from_index(i).name(), v);
            }
        });
    };
    o.object("shed", |o| {
        o.field("queue_full", s.shed_queue_full)
            .field("deadline_expired", s.shed_deadline)
            .field("invalid_query", s.shed_invalid)
            .field("internal", s.shed_internal);
    });
    rungs(o, "rung_hits", &s.rung_hits);
    rungs(o, "rung_failures", &s.rung_failures);
    o.object("breaker", |o| {
        o.field("trips", s.breaker_trips)
            .field("states", s.breaker_states);
    })
    .object("deadline", |o| {
        o.field("met", s.deadline_met)
            .field("missed", s.deadline_missed);
    });
}

/// `"err_replies":{code: count, …}`.
fn err_replies_member(o: &mut Obj<'_, String>, errs: &[(String, u64)]) {
    o.object("err_replies", |o| {
        for (code, n) in errs {
            o.field(code, *n);
        }
    });
}

/// `"quality":{…}`: the shadow scorer's windowed accuracy and alarm counts.
fn quality_member(o: &mut Obj<'_, String>, q: &odt_obs::QualitySnapshot, frozen: bool) {
    o.object("quality", |o| {
        o.field("samples", q.samples)
            .field("window_len", q.window_len)
            .field("mae_s", q.mae_s)
            .field("mape", q.mape)
            .field("bias_s", q.bias_s)
            .field("drift_score", q.drift_score)
            .field("drift_alerts", q.drift_alerts)
            .field("slo_alerts", q.slo.map_or(0, |s| s.alerts))
            .field("reference_frozen", frozen);
    });
}

/// The final `kind: "summary"` line.
fn summary_line(seed: u64, quick: bool, total: usize, failed: usize) -> String {
    let (finished, _, _) = odt_obs::trace::trace_stats();
    json::object_string(|o| {
        o.field("schema", SCHEMA)
            .field("kind", "summary")
            .field("seed", seed)
            .field("quick", quick)
            .field("scenarios", total)
            .field("passed", total - failed)
            .field("failed", failed)
            .field("traces_finished", finished)
            .field("traces_retained", odt_obs::trace::retained_count())
            .field("flightrec_dumps", odt_obs::flightrec::dump_count())
            .field("pass", failed == 0);
    })
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn drill_dataset() -> Dataset {
    let mut cfg = odt_traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 180, 8, 41)
}

fn drill_model(data: &Dataset) -> Dot {
    let mut cfg = DotConfig::fast();
    cfg.lg = 8;
    cfg.n_steps = 8;
    cfg.base_channels = 4;
    cfg.cond_dim = 16;
    cfg.d_e = 16;
    cfg.stage1_iters = 15;
    cfg.stage2_iters = 30;
    cfg.early_stop_samples = 3;
    cfg.early_stop_every = 15;
    Dot::train(cfg, data, |_| {})
}

/// Run one scenario against `model`; returns the scenario's report line.
fn run_scenario(spec: &ScenarioSpec, model: &Dot, queries: &[OdtInput], quick: bool) -> Line {
    let trace = DrillTrace::start();
    let wave_size = if quick {
        (spec.wave_size / 2).max(8)
    } else {
        spec.wave_size
    };
    let mut frontend_cfg = FrontendConfig {
        queue_capacity: spec.queue_capacity,
        shed_policy: spec.shed_policy,
        ..FrontendConfig::default()
    };
    if let Some(b) = spec.breaker {
        frontend_cfg.breaker = b;
    }
    let cool_us = frontend_cfg.breaker.max_backoff_us + 5_000;
    let mut fe = dot_frontend(
        model,
        DotFrontendConfig::default(),
        frontend_cfg,
        ChaosConfig::quiet(spec.chaos.seed),
    );

    // Seed the latency ladder from fault-free reality before the storm.
    fe.warmup(&queries[..2.min(queries.len())]);
    fe.executor_mut().set_config(spec.chaos);

    let t0 = Instant::now();
    for wave in 0..spec.waves {
        let reqs = queries
            .iter()
            .cycle()
            .skip(wave * wave_size)
            .take(wave_size)
            .map(|q| (*q, spec.deadline_us));
        let _ = fe.process_wave(reqs);
        if spec.clear_chaos_after_wave == Some(wave) {
            fe.executor_mut()
                .set_config(ChaosConfig::quiet(spec.chaos.seed));
            // Let every breaker's cool-down elapse so recovery is possible.
            std::thread::sleep(std::time::Duration::from_micros(cool_us));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let s = fe.snapshot();
    let evidence = trace.finish();
    let violations = spec.expect.check(&s);
    println!(
        "  {:<18} {:>3}/{:<3} served  rungs {:?}  trips {:?}  {}",
        spec.name,
        s.served,
        s.submitted,
        s.rung_hits,
        s.breaker_trips,
        if violations.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", violations.join("; "))
        }
    );
    let head = Head {
        name: spec.name,
        description: spec.description,
        seed: spec.chaos.seed,
        quick,
        wall_seconds: wall_s,
        submitted: s.submitted,
        admitted: s.admitted,
        served: s.served,
    };
    scenario_line(head, &evidence, &violations, |o| {
        o.field("waves", spec.waves)
            .field("wave_size", wave_size)
            .field("shed_policy", spec.shed_policy.name());
        frontend_members(o, &s);
    })
}

/// The model-quality drill: shadow-score the drill oracle against its
/// holdout until the drift reference freezes, then synthetically degrade
/// the predictions (collapse to 40% of the estimate — a systematic
/// underprediction no healthy reference window contains) and assert the
/// full alarm chain fires: the quantile-shift drift alert, the accuracy
/// SLO burn alert, and a `quality_drift` flight-recorder dump.
fn run_quality_drill(model: &Dot, data: &Dataset, seed: u64, quick: bool) -> Line {
    let trace = DrillTrace::start();

    let holdout: Vec<(OdtInput, f64)> = data
        .split(Split::Test)
        .iter()
        .map(|t| (OdtInput::from_trajectory(t), t.travel_time()))
        .collect();
    let mut scorer = ShadowScorer::new(holdout, ShadowConfig::for_drill());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD01F);

    let t0 = Instant::now();
    // Phase 1: the healthy model is its own reference. Score until the
    // tracker freezes the reference window.
    let mut now = odt_obs::trace::now_us();
    let mut steps = 0usize;
    while !scorer.quality(now).reference_frozen && steps < 200 {
        scorer.step(now, |qs: &[OdtInput]| {
            model
                .estimate_batch(qs, &mut rng)
                .into_iter()
                .map(|e| e.seconds)
                .collect()
        });
        steps += 1;
        now = odt_obs::trace::now_us();
    }
    let frozen = scorer.quality(now).reference_frozen;

    // Phase 2: synthetic model degradation. Keep scoring until the whole
    // alarm chain has fired (or the step budget rules it never will).
    let mut q = scorer.quality(now);
    let dumps_before = trace.dumps_before;
    let chain_done = |q: &odt_obs::QualitySnapshot, dumps: u64| {
        q.drift_alerts >= 1
            && q.slo.as_ref().map(|s| s.alerts >= 1).unwrap_or(false)
            && dumps > dumps_before
    };
    while !chain_done(&q, odt_obs::flightrec::dump_count()) && steps < 600 {
        scorer.step(now, |qs: &[OdtInput]| {
            model
                .estimate_batch(qs, &mut rng)
                .into_iter()
                .map(|e| e.seconds * 0.4)
                .collect()
        });
        steps += 1;
        now = odt_obs::trace::now_us();
        q = scorer.quality(now);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let evidence = trace.finish();

    let mut violations: Vec<String> = Vec::new();
    if !frozen {
        violations.push("drift reference never froze".to_string());
    }
    if q.drift_alerts < 1 {
        violations.push(format!(
            "no drift alert (score {:.3} after {steps} steps)",
            q.drift_score
        ));
    }
    let slo_alerts = q.slo.as_ref().map(|s| s.alerts).unwrap_or(0);
    if slo_alerts < 1 {
        violations.push("accuracy SLO burn alert never fired".to_string());
    }
    if evidence.dumps == 0 {
        violations.push("drift alert produced no flight-recorder dump".to_string());
    }
    println!(
        "  {:<18} {:>3} scored  drift {:.2} ({} alert(s))  slo alerts {}  {}",
        "quality_drift",
        scorer.scored(),
        q.drift_score,
        q.drift_alerts,
        slo_alerts,
        if violations.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", violations.join("; "))
        }
    );
    // Every scored query was answered by the full model, inside its deadline.
    let scored = scorer.scored();
    let mut answered = FrontendSnapshot {
        breaker_states: ["closed"; MODEL_RUNGS],
        deadline_met: scored,
        ..FrontendSnapshot::default()
    };
    answered.rung_hits[Rung::Full.index()] = scored;
    let head = Head {
        name: "quality_drift",
        description: "shadow-scored holdout drifts; drift + accuracy-SLO alerts and a flightrec dump must fire",
        seed,
        quick,
        wall_seconds: wall_s,
        submitted: scored,
        admitted: scored,
        served: scored,
    };
    scenario_line(head, &evidence, &violations, |o| {
        frontend_members(o, &answered);
        quality_member(o, &q, frozen);
    })
}

/// The cache-drift drill: serve repeat traffic through a *cached*
/// frontend until the estimate cache answers at generation 0, then
/// degrade the shadow-scored predictions until the drift alert fires,
/// feed the alert to the [`DriftInvalidator`], and assert the flush is
/// total — the cache generation advances and the first post-flush wave
/// contains zero cache-rung serves (no pre-drift estimate survives the
/// alert).
fn run_cache_drift_drill(model: &Dot, data: &Dataset, seed: u64, quick: bool) -> Line {
    let trace = DrillTrace::start();

    let cache = Arc::new(EstimateCache::new(CacheConfig {
        capacity: 512,
        ..CacheConfig::default()
    }));
    let hot = Arc::new(Mutex::new(HotTracker::new(64)));
    let mut fe = dot_frontend_cached(
        model,
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(seed),
        Arc::clone(&cache),
        Arc::clone(&hot),
    );
    let queries: Vec<OdtInput> = data
        .split(Split::Test)
        .iter()
        .take(if quick { 4 } else { 8 })
        .map(OdtInput::from_trajectory)
        .collect();
    fe.warmup(&queries[..2.min(queries.len())]);
    let deadline_us = Some(250_000u64);

    let t0 = Instant::now();
    // Phase 1: fill on the first wave (write-through), hit on the second.
    let _ = fe.process_wave(queries.iter().map(|q| (*q, deadline_us)));
    let _ = fe.process_wave(queries.iter().map(|q| (*q, deadline_us)));
    let gen0 = cache.generation();
    let warm = fe.snapshot();
    let warm_cache_serves =
        warm.rung_hits[Rung::Cached.index()] + warm.rung_hits[Rung::CachedStale.index()];

    // Phase 2: shadow-score until the drift reference freezes, then
    // degrade (same synthetic collapse as the quality drill) until the
    // invalidator sees the alert and flushes the cache.
    let holdout: Vec<(OdtInput, f64)> = data
        .split(Split::Test)
        .iter()
        .map(|t| (OdtInput::from_trajectory(t), t.travel_time()))
        .collect();
    let mut scorer = ShadowScorer::new(holdout, ShadowConfig::for_drill());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCACE);
    let mut invalidator = DriftInvalidator::new();
    let mut now = odt_obs::trace::now_us();
    let mut steps = 0usize;
    while !scorer.quality(now).reference_frozen && steps < 200 {
        scorer.step(now, |qs: &[OdtInput]| {
            model
                .estimate_batch(qs, &mut rng)
                .into_iter()
                .map(|e| e.seconds)
                .collect()
        });
        steps += 1;
        now = odt_obs::trace::now_us();
    }
    let frozen = scorer.quality(now).reference_frozen;
    let mut flushed = false;
    let mut q = scorer.quality(now);
    while !flushed && steps < 600 {
        scorer.step(now, |qs: &[OdtInput]| {
            model
                .estimate_batch(qs, &mut rng)
                .into_iter()
                .map(|e| e.seconds * 0.4)
                .collect()
        });
        steps += 1;
        now = odt_obs::trace::now_us();
        q = scorer.quality(now);
        flushed = invalidator.observe(&q, &cache);
    }

    // Phase 3: the same queries again. Every pre-drift entry is now a
    // dead generation, so not one may be served from the cache.
    let before = fe.snapshot();
    let _ = fe.process_wave(queries.iter().map(|q| (*q, deadline_us)));
    let s = fe.snapshot();
    let post_flush_cache_serves = (s.rung_hits[Rung::Cached.index()]
        - before.rung_hits[Rung::Cached.index()])
        + (s.rung_hits[Rung::CachedStale.index()] - before.rung_hits[Rung::CachedStale.index()]);
    let wall_s = t0.elapsed().as_secs_f64();
    let evidence = trace.finish();

    let cs = cache.stats();
    let mut violations: Vec<String> = Vec::new();
    if warm_cache_serves == 0 {
        violations.push("repeat queries never hit the cache pre-drift".to_string());
    }
    if !frozen {
        violations.push("drift reference never froze".to_string());
    }
    if q.drift_alerts < 1 {
        violations.push(format!(
            "no drift alert (score {:.3} after {steps} steps)",
            q.drift_score
        ));
    }
    if !flushed {
        violations.push("drift alert never reached the invalidator".to_string());
    }
    if cache.generation() == gen0 {
        violations.push("cache generation did not advance on drift".to_string());
    }
    if cs.invalidations < 1 {
        violations.push("cache recorded no invalidation".to_string());
    }
    if post_flush_cache_serves > 0 {
        violations.push(format!(
            "{post_flush_cache_serves} pre-drift cache serve(s) after invalidation"
        ));
    }
    println!(
        "  {:<18} {:>3} warm cache serve(s)  gen {}->{}  post-flush cache serves {}  {}",
        "cache_drift_inval",
        warm_cache_serves,
        gen0,
        cache.generation(),
        post_flush_cache_serves,
        if violations.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", violations.join("; "))
        }
    );
    let head = Head {
        name: "cache_drift_invalidation",
        description:
            "drift alert flushes the estimate cache; zero pre-drift-generation serves afterwards",
        seed,
        quick,
        wall_seconds: wall_s,
        submitted: s.submitted,
        admitted: s.admitted,
        served: s.served,
    };
    scenario_line(head, &evidence, &violations, |o| {
        frontend_members(o, &s);
        o.object("cache", |o| {
            o.field("generation_before", gen0)
                .field("generation_after", cache.generation())
                .field("warm_cache_serves", warm_cache_serves)
                .field("post_flush_cache_serves", post_flush_cache_serves)
                .field("hits", cs.hits)
                .field("stale_hits", cs.stale_hits)
                .field("misses", cs.misses)
                .field("hit_rate", cs.hit_rate())
                .field("evictions", cs.evictions)
                .field("admission_rejects", cs.admission_rejects)
                .field("invalidations", cs.invalidations)
                .field("invalidated_entries", cs.invalidated_entries)
                .field("len", cs.len)
                .field("capacity", cs.capacity);
        })
        .object("quality", |o| {
            o.field("drift_score", q.drift_score)
                .field("drift_alerts", q.drift_alerts)
                .field("reference_frozen", frozen);
        });
    })
}

/// The box strict admission accepts, shrunk 5% inside the drill grid so
/// network-drill queries never land on the reject margin.
fn net_region(grid: &GridSpec) -> Region {
    let mx = (grid.max.lng - grid.min.lng) * 0.05;
    let my = (grid.max.lat - grid.min.lat) * 0.05;
    Region {
        lng0: grid.min.lng + mx,
        lat0: grid.min.lat + my,
        lng1: grid.max.lng - mx,
        lat1: grid.max.lat - my,
    }
}

/// Run one network drill: a real TCP server over a freshly trained drill
/// oracle, the scenario's client-side abuse pattern, a graceful drain,
/// and the zero-leak check; returns the scenario's report line.
///
/// The oracle is trained *inside* the server's backend factory — its
/// parameters are `Rc`-based and cannot cross onto the dispatcher
/// thread — so each drill trains its own copy (the drill catalog keeps
/// it tiny). The drill harness's readiness probe absorbs the training
/// window before any abuse traffic starts.
fn run_net_drill(spec: &NetScenarioSpec, region: Region, seed: u64, quick: bool) -> Line {
    let trace = DrillTrace::start();

    let mut spec = spec.clone();
    spec.region = region;
    let (stats_tx, stats_rx) = std::sync::mpsc::channel();
    let outcome = odt_net::run_net_scenario_with(&spec, move || {
        // `Dataset::simulated` is deterministic: this grid is the same
        // one `region` was derived from in `main`.
        let data = drill_dataset();
        let model: &'static Dot = Box::leak(Box::new(drill_model(&data)));
        let mut fe = dot_frontend(
            model,
            DotFrontendConfig::default(),
            FrontendConfig::default(),
            ChaosConfig::quiet(seed),
        );
        let warmup: Vec<OdtInput> = data
            .split(Split::Test)
            .iter()
            .take(2)
            .map(OdtInput::from_trajectory)
            .collect();
        fe.warmup(&warmup);
        let mut bridge = FrontendBridge::new(fe, |q: &WireQuery| OdtInput {
            origin: LngLat {
                lng: q.o_lng,
                lat: q.o_lat,
            },
            dest: LngLat {
                lng: q.d_lng,
                lat: q.d_lat,
            },
            t_dep: q.t_dep,
        });
        let _ = stats_tx.send(bridge.shared_stats());
        bridge
    });
    let (s, adopted) = stats_rx.recv().map(|h| h.get()).unwrap_or_default();
    let evidence = trace.finish();
    println!(
        "  {:<18} {:>3} ok over TCP  rungs {:?}  conns {}/{}  drain {}  {}",
        outcome.name,
        outcome.ok_replies,
        s.rung_hits,
        outcome.stats.opened,
        outcome.stats.active,
        if outcome.drain_clean {
            "clean"
        } else {
            "forced"
        },
        if outcome.pass {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", outcome.violations.join("; "))
        }
    );
    let c = &outcome.stats;
    let head = Head {
        name: outcome.name,
        description: spec.description,
        seed,
        quick,
        wall_seconds: outcome.wall_s,
        submitted: s.submitted,
        admitted: s.admitted,
        served: s.served,
    };
    scenario_line(head, &evidence, &outcome.violations, |o| {
        frontend_members(o, &s);
        o.object("net", |o| {
            o.field("ok_replies", outcome.ok_replies);
            err_replies_member(o, &outcome.err_replies);
            o.object("conns", |o| {
                o.field("opened", c.opened)
                    .field("closed", c.closed)
                    .field("active", c.active)
                    .field("rejected_capacity", c.rejected_capacity)
                    .field("rejected_draining", c.rejected_draining)
                    .field("timeouts_frame", c.timeouts_frame)
                    .field("timeouts_idle", c.timeouts_idle)
                    .field("backpressure_stalls", c.backpressure_stalls)
                    .field("forced_closes", c.forced_closes);
            })
            .field("drain_clean", outcome.drain_clean)
            .field("forced_conns", outcome.forced_conns)
            .field("adopted_traces", adopted);
        });
    })
}

/// Render one echo-backed cluster drill (`odt_net::cluster_drill`) as a
/// report line. The drill itself boots, faults, and tears down a real
/// loopback cluster; this wrapper only adds the trace root and shapes
/// the outcome into the drill schema.
fn run_cluster_drill(name: &str, seed: u64, quick: bool) -> Line {
    let trace = DrillTrace::start();

    let o: ClusterDrillOutcome = match name {
        "cluster_replica_kill" => run_cluster_replica_kill(),
        "cluster_trace_loss" => run_cluster_trace_loss(),
        _ => run_cluster_router_partition(),
    };
    let evidence = trace.finish();

    let answered = o.replica_replies + o.prior_replies;
    let errs: u64 = o.err_replies.iter().map(|(_, n)| n).sum();
    let submitted = answered + errs + o.lost;
    println!(
        "  {:<18} {:>3} replica + {} prior replies ({} lost)  failovers {}  quorum_end {}  {}",
        o.name,
        o.replica_replies,
        o.prior_replies,
        o.lost,
        o.failovers,
        o.quorum_ready_end,
        if o.pass {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", o.violations.join("; "))
        }
    );
    let head = Head {
        name: o.name,
        description: o.description,
        seed,
        quick,
        wall_seconds: o.wall_s,
        submitted,
        admitted: submitted,
        served: answered,
    };
    scenario_line(head, &evidence, &o.violations, |line| {
        line.object("cluster", |c| {
            c.field("replica_replies", o.replica_replies)
                .field("prior_replies", o.prior_replies);
            err_replies_member(c, &o.err_replies);
            c.field("lost", o.lost)
                .field("failovers", o.failovers)
                .field("prior_serves", o.prior_serves)
                .field("quorum_ready_end", o.quorum_ready_end)
                .object("router_conns", |c| {
                    c.field("opened", o.router_stats.opened)
                        .field("closed", o.router_stats.closed)
                        .field("active", o.router_stats.active)
                        .field("forced_closes", o.router_stats.forced_closes);
                })
                .field("drain_clean", o.drain_clean);
        });
    })
}

/// A misshapen candidate: same simulator, coarser grid — parses fine,
/// must be refused by the swap shape gate.
fn misshapen_model(data: &Dataset) -> Dot {
    let mut cfg = DotConfig::fast();
    cfg.lg = 6;
    cfg.n_steps = 8;
    cfg.base_channels = 4;
    cfg.cond_dim = 16;
    cfg.d_e = 16;
    cfg.stage1_iters = 2;
    cfg.stage2_iters = 4;
    cfg.early_stop_samples = 2;
    cfg.early_stop_every = 2;
    Dot::train(cfg, data, |_| {})
}

type SlotFrontend = ServeFrontend<ChaosExecutor<DotExecutor<'static>>>;

/// Tick the controller to a conclusion, serving a wave between every
/// tick; any request not answered `Served` counts as an interruption.
fn drive_swap(
    ctrl: &mut SwapController<DotSwapHost>,
    fe: &mut SlotFrontend,
    wave: &[OdtInput],
    interruptions: &mut u64,
) -> Option<SwapOutcome> {
    for _ in 0..300 {
        if let Some(outcome) = ctrl.tick() {
            return Some(outcome);
        }
        let out = fe.process_wave(wave.iter().map(|q| (*q, None)));
        *interruptions += out
            .iter()
            .filter(|r| !matches!(r, Response::Served { .. }))
            .count() as u64;
    }
    None
}

/// The corrupt-swap drill: a registry-backed hot-swap plane over the
/// real drill oracle. A corrupt-CRC candidate, a wrong-grid candidate
/// and a drift-failing candidate must each be refused with their typed
/// code while waves keep serving; a good candidate must then promote —
/// all with zero interrupted requests.
fn run_corrupt_swap_drill(model: &Dot, data: &Dataset, seed: u64, quick: bool) -> Line {
    let trace = DrillTrace::start();

    let dir = std::env::temp_dir().join(format!("odt_swap_drill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("swap drill temp dir");
    let registry = ModelRegistry::open(dir.join("registry")).expect("swap drill registry");
    let description = "corrupt, misshapen and drift-failing swap candidates are refused with typed codes; a good one promotes; serving never interrupted";
    let head = |wall_seconds: f64, s: &FrontendSnapshot| Head {
        name: "cluster_corrupt_swap",
        description,
        seed,
        quick,
        wall_seconds,
        submitted: s.submitted,
        admitted: s.admitted,
        served: s.served,
    };
    // Serve a *loaded* copy so the drill also exercises the load path. A
    // build that cannot write a checkpoint (the offline stand-in codec
    // returns `Err`) has nothing to swap; that fails this drill's line and
    // leaves the drills after it their run.
    let published = registry
        .publish(model)
        .and_then(|v1| Ok((v1, registry.load_current()?)));
    let (v1, (v, serving)) = match published {
        Ok(published) => published,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            let why = format!("the drill oracle could not be published and reloaded: {e}");
            println!("  {:<18} FAIL: {why}", "cluster_corrupt_swap");
            let unserved = FrontendSnapshot::default();
            return scenario_line(head(0.0, &unserved), &trace.finish(), &[why], |_| {});
        }
    };
    let good = dir.join("cand_good.dotckpt");
    std::fs::copy(registry.version_path(v1), &good).expect("staging the good candidate");
    let slot = ModelSlot::from_model(serving, v);

    let mut fe: SlotFrontend = dot_frontend(
        slot.clone(),
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(seed),
    );
    let wave: Vec<OdtInput> = data
        .split(Split::Test)
        .iter()
        .take(if quick { 3 } else { 6 })
        .map(OdtInput::from_trajectory)
        .collect();
    fe.warmup(&wave[..2.min(wave.len())]);

    let holdout: Vec<(OdtInput, f64)> = data
        .split(Split::Test)
        .iter()
        .map(|t| (OdtInput::from_trajectory(t), t.travel_time()))
        .collect();
    let host_cfg = DotSwapHostConfig {
        batch: 4,
        ddim_steps: 3,
        rng_seed: seed ^ 0x51A9,
    };
    let make_ctrl = |gate: SwapConfig| {
        SwapController::new(
            DotSwapHost::new(
                registry.clone(),
                slot.clone(),
                holdout.clone(),
                None,
                host_cfg,
            ),
            gate,
        )
    };
    let gate = SwapConfig {
        shadow_samples: 12,
        ..SwapConfig::default()
    };

    let t0 = Instant::now();
    let mut interruptions = 0u64;
    let mut violations: Vec<String> = Vec::new();
    let outcome_code = |out: Option<SwapOutcome>| -> String {
        match out {
            Some(SwapOutcome::Rejected(e)) => e.code().to_string(),
            Some(SwapOutcome::Promoted { version, .. }) => format!("promoted v{version}"),
            None => "no_conclusion".to_string(),
        }
    };

    // 1. Corrupt candidate: one flipped payload bit, the CRC gate refuses.
    let corrupt = dir.join("cand_corrupt.dotckpt");
    let mut bytes = std::fs::read(&good).expect("reading the good candidate");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x08;
    std::fs::write(&corrupt, &bytes).expect("writing the corrupt candidate");
    let mut ctrl = make_ctrl(gate);
    ctrl.request(corrupt.to_str().expect("utf8 path"), None)
        .expect("corrupt request accepted");
    let corrupt_code = outcome_code(drive_swap(&mut ctrl, &mut fe, &wave, &mut interruptions));
    if corrupt_code != "corrupt" {
        violations.push(format!(
            "corrupt candidate concluded {corrupt_code:?}, want \"corrupt\""
        ));
    }

    // 2. Wrong grid shape: trains fine on a coarser grid, shape gate refuses.
    let shape_path = dir.join("cand_shape.dotckpt");
    misshapen_model(data)
        .save(&shape_path)
        .expect("saving the misshapen candidate");
    ctrl.request(shape_path.to_str().expect("utf8 path"), None)
        .expect("shape request accepted");
    let shape_code = outcome_code(drive_swap(&mut ctrl, &mut fe, &wave, &mut interruptions));
    if shape_code != "shape_mismatch" {
        violations.push(format!(
            "misshapen candidate concluded {shape_code:?}, want \"shape_mismatch\""
        ));
    }

    // 3. Drift gate: an impossible gate (candidate must halve the serving
    // MAE) rejects even an identical model.
    let mut strict = make_ctrl(SwapConfig {
        shadow_samples: 12,
        max_mae_ratio: 0.5,
        mae_slack_s: 0.0,
    });
    strict
        .request(good.to_str().expect("utf8 path"), None)
        .expect("drift request accepted");
    let drift_code = outcome_code(drive_swap(&mut strict, &mut fe, &wave, &mut interruptions));
    if drift_code != "drift_failed" {
        violations.push(format!(
            "drift-gated candidate concluded {drift_code:?}, want \"drift_failed\""
        ));
    }
    if slot.version() != v1 || slot.swaps() != 0 {
        violations.push(format!(
            "rejections touched serving: slot at v{} after {} swap(s)",
            slot.version(),
            slot.swaps()
        ));
    }

    // 4. The good candidate, normal gate: a concurrent request must be
    // refused busy, then the swap promotes.
    ctrl.request(good.to_str().expect("utf8 path"), None)
        .expect("good request accepted");
    let busy_refused = matches!(
        ctrl.request(good.to_str().expect("utf8 path"), None),
        Err(SwapError::Busy)
    );
    if !busy_refused {
        violations.push("concurrent swap request was not refused busy".to_string());
    }
    let promote_code = outcome_code(drive_swap(&mut ctrl, &mut fe, &wave, &mut interruptions));
    let promoted_version = v1 + 1;
    if promote_code != format!("promoted v{promoted_version}") {
        violations.push(format!(
            "good candidate concluded {promote_code:?}, want promotion to v{promoted_version}"
        ));
    }
    if slot.version() != promoted_version || slot.swaps() != 1 {
        violations.push(format!(
            "promotion not installed: slot at v{} after {} swap(s)",
            slot.version(),
            slot.swaps()
        ));
    }
    if registry.current_version().ok().flatten() != Some(promoted_version) {
        violations.push("registry CURRENT does not point at the promoted version".to_string());
    }
    if interruptions > 0 {
        violations.push(format!(
            "{interruptions} request(s) interrupted while swaps were in flight"
        ));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = ctrl.stats();
    let s = fe.snapshot();
    let evidence = trace.finish();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "  {:<18} corrupt={corrupt_code} shape={shape_code} drift={drift_code} then {promote_code}  interruptions {interruptions}  {}",
        "cluster_corrupt_swap",
        if violations.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL: {}", violations.join("; "))
        }
    );
    scenario_line(head(wall_s, &s), &evidence, &violations, |o| {
        o.object("swap", |o| {
            o.field("corrupt_code", &corrupt_code)
                .field("shape_code", &shape_code)
                .field("drift_code", &drift_code)
                .field("promote_code", &promote_code)
                .field("busy_refused", busy_refused)
                .field("requested", stats.requested)
                .field("promoted", stats.promoted)
                .field("rejected", stats.rejected)
                .field("serving_version", slot.version())
                .field("serving_swaps", slot.swaps())
                .field("interruptions", interruptions);
        });
    })
}

fn main() {
    let quick = arg_flag("--quick");
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed must be an integer"))
        .unwrap_or(7);
    let which = arg_value("--scenario").unwrap_or_else(|| "all".to_string());
    let report_path = arg_value("--report").unwrap_or_else(|| "CHAOS_drill.jsonl".to_string());
    odt_compute::ensure_initialized();

    // Drills trace every request unless the operator asked otherwise: the
    // whole point of a drill is that anomalies keep their evidence.
    if std::env::var("ODT_TRACE_SAMPLE").is_ok() {
        odt_obs::trace::init_from_env();
    } else {
        odt_obs::trace::set_sample_every(1);
    }
    // Flight recorder: breaker trips and panics freeze the black box here.
    match std::env::var("ODT_FLIGHTREC_DIR") {
        Ok(_) => odt_obs::flightrec::init_from_env(),
        Err(_) => odt_obs::flightrec::enable(
            arg_value("--flightrec-dir").unwrap_or_else(|| "CHAOS_flightrec".to_string()),
        ),
    }

    // Injected panics are expected and caught at the request boundary;
    // silence the default hook so drill output stays readable. Installed
    // *before* the flight-recorder hook, which chains to it: suppressed
    // (injected) panics skip the dump, real ones dump first then silence.
    std::panic::set_hook(Box::new(|_| {}));
    odt_obs::flightrec::install_panic_hook();

    let catalog = odt_serve::scenarios(seed);
    let net_catalog = odt_net::net_scenarios();
    let run_quality = which == "all" || which == "quality_drift";
    let run_cache = which == "all" || which == "cache_drift_invalidation";
    let run_swap = which == "all" || which == "cluster_corrupt_swap";
    let cluster_selected: Vec<&'static str> = cluster_drill_names()
        .into_iter()
        .filter(|n| which == "all" || which == *n)
        .collect();
    let (selected, net_selected): (Vec<&ScenarioSpec>, Vec<&NetScenarioSpec>) = if which == "all" {
        (catalog.iter().collect(), net_catalog.iter().collect())
    } else {
        let serve: Vec<&ScenarioSpec> = catalog.iter().filter(|s| s.name == which).collect();
        let net: Vec<&NetScenarioSpec> = net_catalog.iter().filter(|s| s.name == which).collect();
        if serve.is_empty()
            && net.is_empty()
            && !run_quality
            && !run_cache
            && !run_swap
            && cluster_selected.is_empty()
        {
            let names: Vec<&str> = catalog
                .iter()
                .map(|s| s.name)
                .chain(net_catalog.iter().map(|s| s.name))
                .chain(cluster_drill_names())
                .chain([
                    "quality_drift",
                    "cache_drift_invalidation",
                    "cluster_corrupt_swap",
                ])
                .collect();
            eprintln!("unknown scenario {which:?}; available: {names:?} or \"all\"");
            std::process::exit(2);
        }
        (serve, net)
    };
    let total = selected.len()
        + net_selected.len()
        + cluster_selected.len()
        + usize::from(run_quality)
        + usize::from(run_cache)
        + usize::from(run_swap);

    println!("chaos drill: {total} scenario(s), seed {seed}, quick={quick}");
    let data = drill_dataset();
    let region = net_region(&data.grid);

    let mut lines: Vec<Line> = Vec::new();
    if !selected.is_empty() || run_quality || run_cache || run_swap {
        let t0 = Instant::now();
        let model = drill_model(&data);
        println!("trained drill oracle in {:.1}s", t0.elapsed().as_secs_f64());
        let queries: Vec<OdtInput> = data
            .split(Split::Test)
            .iter()
            .map(OdtInput::from_trajectory)
            .collect();
        lines.extend(
            selected
                .iter()
                .map(|spec| run_scenario(spec, &model, &queries, quick)),
        );
        if run_quality {
            lines.push(run_quality_drill(&model, &data, seed, quick));
        }
        if run_cache {
            lines.push(run_cache_drift_drill(&model, &data, seed, quick));
        }
        if run_swap {
            lines.push(run_corrupt_swap_drill(&model, &data, seed, quick));
        }
    }
    for spec in &net_selected {
        lines.push(run_net_drill(spec, region, seed, quick));
    }
    for name in &cluster_selected {
        lines.push(run_cluster_drill(name, seed, quick));
    }
    let failed = lines.iter().filter(|line| !line.pass).count();

    let mut out = String::new();
    for line in &lines {
        out.push_str(&line.json);
        out.push('\n');
    }
    out.push_str(&summary_line(seed, quick, total, failed));
    out.push('\n');
    let mut f = std::fs::File::create(&report_path)
        .unwrap_or_else(|e| panic!("creating {report_path}: {e}"));
    f.write_all(out.as_bytes())
        .unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    println!("wrote {report_path}");

    if failed > 0 {
        eprintln!("{failed} scenario(s) failed their resilience expectations");
        std::process::exit(1);
    }
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

    /// The keys and value types `chaos-smoke` reads from a scenario line and
    /// from the summary line.
    #[test]
    fn report_keys_and_types_are_pinned() {
        let snapshot = FrontendSnapshot {
            submitted: 10,
            admitted: 9,
            served: 8,
            breaker_states: ["closed"; MODEL_RUNGS],
            ..FrontendSnapshot::default()
        };
        let head = Head {
            name: "nan_storm",
            description: "d",
            seed: 7,
            quick: true,
            wall_seconds: 0.25,
            submitted: snapshot.submitted,
            admitted: snapshot.admitted,
            served: snapshot.served,
        };
        let evidence = Evidence {
            trace_id: Some("00ab".into()),
            dumps: 1,
            last_dump: Some("CHAOS_flightrec/dump.jsonl".into()),
        };
        let quality = odt_obs::QualitySnapshot {
            drift_alerts: 2,
            slo: Some(odt_obs::slo::BurnRateSnapshot {
                alerts: 3,
                ..Default::default()
            }),
            ..Default::default()
        };
        let line = scenario_line(head, &evidence, &["late".to_string()], |o| {
            frontend_members(o, &snapshot);
            quality_member(o, &quality, true);
        });
        assert!(!line.pass, "a violation fails the line");
        let doc = JsonValue::parse(&line.json).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "kind",
                "name",
                "description",
                "trace_id",
                "flightrec",
                "seed",
                "quick",
                "wall_seconds",
                "submitted",
                "admitted",
                "served",
                "answer_rate",
                "shed",
                "rung_hits",
                "rung_failures",
                "breaker",
                "deadline",
                "quality",
                "violations",
                "pass"
            ]
        );
        let at = |path: &[&str]| path.iter().fold(&doc, |v, key| v.get(key).expect(key));
        assert_eq!(at(&["schema"]).as_str(), Some("odt-chaos-drill/v2"));
        assert_eq!(at(&["kind"]).as_str(), Some("scenario"));
        assert_eq!(at(&["name"]).as_str(), Some("nan_storm"));
        assert_eq!(at(&["trace_id"]).as_str(), Some("00ab"));
        assert_eq!(at(&["flightrec", "dumps"]).as_u64(), Some(1));
        assert!(at(&["flightrec", "last_dump"]).as_str().is_some());
        assert_eq!(at(&["answer_rate"]).as_f64(), Some(0.8));
        assert_eq!(
            keys(at(&["rung_hits"])),
            [
                "cached",
                "full_ddpm",
                "ddim",
                "ddim_reduced",
                "cached_stale",
                "fallback"
            ]
        );
        assert_eq!(at(&["rung_hits", "full_ddpm"]).as_u64(), Some(0));
        assert_eq!(
            at(&["breaker", "trips"]).as_arr().unwrap().len(),
            MODEL_RUNGS
        );
        assert_eq!(
            at(&["breaker", "states"]).as_arr().unwrap()[0].as_str(),
            Some("closed")
        );
        assert_eq!(at(&["quality", "reference_frozen"]).as_bool(), Some(true));
        assert_eq!(at(&["quality", "drift_alerts"]).as_u64(), Some(2));
        assert_eq!(at(&["quality", "slo_alerts"]).as_u64(), Some(3));
        assert_eq!(
            at(&["violations"]).as_arr().unwrap()[0].as_str(),
            Some("late")
        );
        assert_eq!(at(&["pass"]).as_bool(), Some(false));

        // Tracing off and no dump: both are `null`, which the gates test for.
        let untraced = Evidence {
            trace_id: None,
            dumps: 0,
            last_dump: None,
        };
        let head = Head {
            name: "n",
            description: "d",
            seed: 7,
            quick: true,
            wall_seconds: 0.0,
            submitted: 0,
            admitted: 0,
            served: 0,
        };
        let line = scenario_line(head, &untraced, &[], |_| {});
        assert!(line.pass);
        let doc = JsonValue::parse(&line.json).unwrap();
        assert_eq!(doc.get("trace_id"), Some(&JsonValue::Null));
        assert_eq!(
            doc.get("flightrec").unwrap().get("last_dump"),
            Some(&JsonValue::Null)
        );
        assert_eq!(doc.get("answer_rate").unwrap().as_f64(), Some(1.0));

        let doc = JsonValue::parse(&summary_line(7, true, 12, 1)).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "kind",
                "seed",
                "quick",
                "scenarios",
                "passed",
                "failed",
                "traces_finished",
                "traces_retained",
                "flightrec_dumps",
                "pass"
            ]
        );
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("summary"));
        assert_eq!(doc.get("passed").unwrap().as_u64(), Some(11));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
        assert!(doc.get("traces_retained").unwrap().as_u64().is_some());
        assert_eq!(doc.get("pass").unwrap().as_bool(), Some(false));
    }
}
