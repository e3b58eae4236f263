//! `odt_server`: serve the OD travel-time oracle over TCP (`odt-wire/v1`).
//!
//! Trains a small DOT oracle on simulated Chengdu-like data, then serves
//! it through the hardened `odt-net` frontend: bounded admission, typed
//! overload errors, per-connection backpressure, and graceful drain on
//! SIGTERM/ctrl-c. With `--admin`, a live introspection plane rides
//! along on a second port: Prometheus `/metrics`, `/healthz`/`/readyz`
//! probes, `/varz`/`/tracez` JSON and `POST /flightrec`.
//!
//! ```text
//! odt_server [--addr <host:port>] [--admin <host:port>] [--quick]
//!            [--registry <dir>] [--cache <capacity>] [--holdout <n>]
//!            [--max-conns <n>] [--max-inflight <n>]
//!            [--drain-budget-ms <ms>] [--max-run-s <s>]
//!            [--instance <name>] [--report <path>] [--seed <u64>]
//! ```
//!
//! * `--addr`        — listen address (default `127.0.0.1:7878`; port `0`
//!   picks a free port, printed on the listening line).
//! * `--admin`       — admin plane address (e.g. `127.0.0.1:9878`; port
//!   `0` works; omitted = no admin plane).
//! * `--quick`       — tiny model, CI smoke mode.
//! * `--registry`    — model registry directory (created if missing). An
//!   existing `CURRENT` model is reloaded instead of
//!   retrained; a fresh registry gets the trained model
//!   published as v1. Enables zero-downtime hot swap:
//!   `POST /swap` on the admin plane (body = candidate
//!   checkpoint path) validates framing + grid shape,
//!   shadow-scores the candidate against the serving
//!   model on dispatcher ticks, then promotes it into
//!   the live [`ModelSlot`] — or refuses it with a
//!   typed code (`corrupt`, `shape_mismatch`,
//!   `drift_failed`, `busy`) — without ever pausing
//!   serving.
//! * `--cache`       — attach the hot-path OD estimate cache with this
//!   many entries (default: off). Turns on the cached
//!   ladder rungs, a background prewarmer on dispatcher
//!   idle ticks, and drift-alert invalidation (the
//!   shadow scorer's drift alert flushes every cached
//!   estimate).
//! * `--holdout`     — ground-truth trajectories shadow-scored on idle
//!   ticks for model-quality telemetry (default 64;
//!   `0` disables the quality observer).
//! * `--instance`    — this process's name in wire `served_by` replies
//!   and `/tracez` fragments (default `pid-<pid>`);
//!   give each replica a distinct name so
//!   `trace_report` and the federated metrics can
//!   tell them apart.
//! * `--max-run-s`   — self-drain after this many seconds even without a
//!   signal (CI watchdog; default: run until signaled).
//! * `--report`      — final JSON report path (default
//!   `BENCH_net_server.json`).
//!
//! Startup prints machine-readable lines in this order:
//!
//! ```text
//! odt_server listening on <addr>      # socket bound; NOT ready yet
//! odt_server admin on <addr>          # only with --admin
//! odt_server region <lng0>,<lat0>,<lng1>,<lat1>
//! odt_server ready                    # model trained; /readyz flips 200
//! ```
//!
//! The listening line appears at bind time — the server accepts (and
//! queues) connections while the model still trains, and `/healthz`
//! answers from the admin line onward. **`odt_server ready` is the
//! routable-traffic signal**: scripts must key off it (or poll
//! `/readyz`, which flips 503 → 200 at the same instant), not off the
//! listening line. On drain the final report (`odt-net-server/v5`)
//! carries the connection counters (leak check: `conns.active == 0`),
//! the frontend snapshot (typed shed reasons, rung hits, SLO burn
//! rates), cache counters (when `--cache` is on), adopted wire trace
//! ids, admin-plane, model-quality and hot-swap summaries (current
//! model version, promoted/rejected counts), and the drain outcome;
//! the exit status is non-zero if the drain was forced or leaked
//! connections.

use odt_core::{Dot, DotConfig, ModelRegistry, RegistryError};
use odt_net::admin::{render_varz, start_admin, swap_refusal, AdminConfig, AdminSources, SwapFn};
use odt_net::loadgen::Region;
use odt_net::server::{set_instance_name, FrontendBridge, ServerConfig, SharedFrontendStats};
use odt_net::signal;
use odt_obs::json::{self, Text};
use odt_obs::QualitySnapshot;
use odt_serve::{
    dot_frontend, dot_frontend_cached, CacheConfig, ChaosConfig, DotFrontendConfig, DotSwapHost,
    DotSwapHostConfig, DriftInvalidator, EstimateCache, FrontendConfig, HotTracker, ModelSlot,
    PrewarmConfig, Prewarmer, SwapConfig, SwapController, SwapError, SwapOutcome, SwapStats,
};
use odt_serve::{ShadowConfig, ShadowScorer};
use odt_traj::{Dataset, OdtInput, Split};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn server_dataset(quick: bool) -> Dataset {
    let mut cfg = odt_traj::sim::CitySimConfig::chengdu_like();
    if quick {
        cfg.nx = 8;
        cfg.ny = 8;
        Dataset::simulated(cfg, 180, 8, 41)
    } else {
        cfg.nx = 12;
        cfg.ny = 12;
        Dataset::simulated(cfg, 400, 8, 41)
    }
}

fn server_model(data: &Dataset, quick: bool) -> Dot {
    let mut cfg = DotConfig::tiny();
    if !quick {
        cfg.stage1_iters = 60;
        cfg.stage2_iters = 120;
        cfg.early_stop_samples = 4;
        cfg.early_stop_every = 60;
    }
    Dot::train(cfg, data, |_| {})
}

/// One `POST /swap` request in flight from an admin handler thread to
/// the dispatcher's swap tick: candidate path + where to send the
/// outcome.
type SwapRequest = (String, std::sync::mpsc::Sender<SwapOutcome>);

fn main() {
    odt_obs::flightrec::install_panic_hook();
    odt_obs::trace::init_from_env();
    odt_obs::flightrec::init_from_env();
    odt_compute::ensure_initialized();
    signal::install();

    let quick = arg_flag("--quick");
    if let Some(name) = arg_value("--instance") {
        set_instance_name(&name);
    }
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let admin_addr = arg_value("--admin");
    let report_path = arg_value("--report").unwrap_or_else(|| "BENCH_net_server.json".to_string());
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed must be an integer"))
        .unwrap_or(7);
    let holdout_n: usize = arg_value("--holdout")
        .map(|v| v.parse().expect("--holdout must be an integer"))
        .unwrap_or(64);
    let cache_capacity: Option<usize> = arg_value("--cache")
        .map(|v| v.parse().expect("--cache must be an integer"))
        .filter(|&c| c > 0);
    let max_run_s: Option<u64> =
        arg_value("--max-run-s").map(|v| v.parse().expect("--max-run-s must be an integer"));
    let registry: Option<ModelRegistry> = arg_value("--registry")
        .map(|d| ModelRegistry::open(&d).unwrap_or_else(|e| panic!("opening registry {d}: {e}")));
    let registry_enabled = registry.is_some();

    let mut cfg = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    if let Some(v) = arg_value("--max-conns") {
        cfg.max_connections = v.parse().expect("--max-conns must be an integer");
    }
    if let Some(v) = arg_value("--max-inflight") {
        cfg.max_inflight_per_conn = v.parse().expect("--max-inflight must be an integer");
    }
    if let Some(v) = arg_value("--drain-budget-ms") {
        cfg.drain_budget_ms = v.parse().expect("--drain-budget-ms must be an integer");
    }

    // Latest shadow-scored quality snapshot, published by the dispatcher
    // tick for `/varz` and the final report.
    let quality_slot: Arc<Mutex<Option<QualitySnapshot>>> = Arc::new(Mutex::new(None));

    // Hot-swap plane: admin handler threads enqueue `(candidate path,
    // reply sender)` pairs; the dispatcher's swap tick drains them so
    // the `!Send` model only ever moves on its own thread. The stats
    // slot mirrors `(serving model version, swap counters)` out to
    // `/varz` and the final report.
    let (swap_tx, swap_rx) = std::sync::mpsc::channel::<SwapRequest>();
    let swap_slot: Arc<Mutex<(u64, Option<SwapStats>)>> = Arc::new(Mutex::new((0, None)));

    // The estimate cache (if enabled) lives out here so `/varz` and the
    // final report can read its stats; the dispatcher-side frontend,
    // prewarmer and drift invalidator share it through the Arc.
    let cache: Option<Arc<EstimateCache>> = cache_capacity.map(|capacity| {
        Arc::new(EstimateCache::new(CacheConfig {
            capacity,
            ..CacheConfig::default()
        }))
    });

    // The DOT model's parameters are `Rc`-based (thread-local), so the
    // whole serving stack — train, warm up, bridge, shadow scorer — is
    // built *on* the dispatcher thread via the factory. The channel hands
    // the stats handle and the admission region back out, and doubles as
    // the "model ready" barrier: the ready line prints only after it.
    println!("odt_server: training oracle (quick={quick})");
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let handle = {
        let quality_slot = Arc::clone(&quality_slot);
        let cache_fe = cache.clone();
        let swap_pub = Arc::clone(&swap_slot);
        odt_net::server::start_with(cfg, move || {
            let data = server_dataset(quick);
            let t0 = Instant::now();
            // With --registry, a previously promoted model is reloaded
            // instead of retrained; a fresh registry gets the trained
            // model published as v1. Without a registry the model is
            // version 0 and unswappable.
            let (version, served_model) = match &registry {
                Some(reg) => match reg.load_current() {
                    Ok((v, m)) => {
                        println!("odt_server: loaded model v{v} from the registry");
                        (v, m)
                    }
                    Err(RegistryError::NoCurrent) => {
                        let m = server_model(&data, quick);
                        let v = reg.publish(&m).expect("publishing the trained model");
                        (v, m)
                    }
                    Err(e) => panic!("loading registry CURRENT: {e}"),
                },
                None => (0, server_model(&data, quick)),
            };
            let slot = ModelSlot::from_model(served_model, version);
            let train_s = t0.elapsed().as_secs_f64();
            let fe_cfg = FrontendConfig {
                slo: Some(odt_obs::slo::BurnRateConfig::for_drill()),
                ..FrontendConfig::default()
            };
            let hot: Arc<Mutex<HotTracker<OdtInput>>> = Arc::new(Mutex::new(HotTracker::new(128)));
            let mut fe = if let Some(cache) = &cache_fe {
                dot_frontend_cached(
                    slot.clone(),
                    DotFrontendConfig::default(),
                    fe_cfg,
                    ChaosConfig::quiet(seed),
                    Arc::clone(cache),
                    Arc::clone(&hot),
                )
            } else {
                dot_frontend(
                    slot.clone(),
                    DotFrontendConfig::default(),
                    fe_cfg,
                    ChaosConfig::quiet(seed),
                )
            };
            let warmup: Vec<OdtInput> = data
                .split(Split::Test)
                .iter()
                .take(2)
                .map(OdtInput::from_trajectory)
                .collect();
            fe.warmup(&warmup);
            let mut bridge = FrontendBridge::new(fe, |q: &odt_net::wire::WireQuery| q.into());
            if holdout_n > 0 {
                // Shadow quality observer: ground-truth test trajectories
                // replayed through the live oracle on idle ticks. Drift
                // alerts route through the tracker into the SLO monitor
                // and the flight recorder (odt_obs::quality).
                let mut holdout = OdtInput::labelled(data.split(Split::Test));
                holdout.truncate(holdout_n);
                let shadow_cfg = ShadowConfig {
                    quality: odt_obs::QualityConfig {
                        slo: Some(odt_obs::slo::BurnRateConfig::default()),
                        ..odt_obs::QualityConfig::default()
                    },
                    ..ShadowConfig::default()
                };
                let mut scorer = ShadowScorer::new(holdout, shadow_cfg);
                let mut shadow_rng = StdRng::seed_from_u64(seed ^ 0x5AD0);
                let quality_shadow = Arc::clone(&quality_slot);
                let shadow_slot = slot.clone();
                bridge.add_tick("shadow_score", 0, move || {
                    let now = odt_obs::trace::now_us();
                    let scored = scorer.step(now, |qs: &[OdtInput]| {
                        shadow_slot
                            .model()
                            .estimate_batch(qs, &mut shadow_rng)
                            .into_iter()
                            .map(|e| e.seconds)
                            .collect()
                    });
                    if scored > 0 {
                        *quality_shadow.lock().unwrap() = Some(scorer.quality(now));
                    }
                });
            }
            if let Some(cache) = &cache_fe {
                // Prewarmer: re-infer the hottest OD keys on idle ticks
                // (forced insert, bypassing admission) so the next rush
                // lands on a warm cache. The tracker is fed by the
                // frontend's own cache probes.
                let pw_cfg = PrewarmConfig::default();
                let pw_interval = pw_cfg.min_interval_us;
                let mut prewarmer = Prewarmer::new(pw_cfg, Arc::clone(cache), Arc::clone(&hot));
                let mut prewarm_rng = StdRng::seed_from_u64(seed ^ 0x93E7);
                let prewarm_slot = slot.clone();
                bridge.add_tick("cache_prewarm", pw_interval, move || {
                    let now = odt_obs::trace::now_us();
                    let _ = prewarmer.step(now, |qs: &[OdtInput]| {
                        prewarm_slot
                            .model()
                            .estimate_batch(qs, &mut prewarm_rng)
                            .into_iter()
                            .map(|e| e.seconds)
                            .collect()
                    });
                });
                // Drift invalidation: a shadow-scorer drift alert means
                // the world the cached estimates were computed in is
                // gone — flush them all (generation bump) rather than
                // serve confidently stale answers.
                let drift_cache = Arc::clone(cache);
                let quality_drift = Arc::clone(&quality_slot);
                let mut invalidator = DriftInvalidator::new();
                bridge.add_tick("cache_drift_invalidate", 250_000, move || {
                    let q = quality_drift.lock().unwrap().clone();
                    if let Some(q) = q {
                        let _ = invalidator.observe(&q, &drift_cache);
                    }
                });
            }
            if let Some(reg) = registry {
                // Swap controller: owns the registry and the slot, does
                // one bounded step per dispatcher tick (load, then one
                // shadow batch at a time), so a swap in flight steals
                // microseconds from serving, never a pause.
                let host = DotSwapHost::new(
                    reg,
                    slot.clone(),
                    OdtInput::labelled(data.split(Split::Test)),
                    cache_fe.clone(),
                    DotSwapHostConfig {
                        rng_seed: seed ^ 0xC4AD,
                        ..DotSwapHostConfig::default()
                    },
                );
                let mut ctrl = SwapController::new(host, SwapConfig::default());
                *swap_pub.lock().unwrap() = (slot.version(), Some(ctrl.stats()));
                let swap_ver = slot.clone();
                bridge.add_tick("model_swap", 0, move || {
                    while let Ok((path, reply)) = swap_rx.try_recv() {
                        if let Err(e) = ctrl.request(&path, Some(reply.clone())) {
                            let _ = reply.send(SwapOutcome::Rejected(e));
                        }
                    }
                    let _ = ctrl.tick();
                    *swap_pub.lock().unwrap() = (swap_ver.version(), Some(ctrl.stats()));
                });
            } else {
                drop(swap_rx);
                *swap_pub.lock().unwrap() = (slot.version(), None);
            }
            // Shrunk 5% inside the grid so load endpoints never land on the
            // strict-admission reject margin.
            let grid = *slot.model().grid();
            let region = Region::inside(grid.min, grid.max, 0.05);
            let _ = ready_tx.send((bridge.shared_stats(), region, train_s));
            bridge
        })
        .expect("binding the listen address")
    };
    let bound = handle.addr();
    println!("odt_server listening on {bound}");
    let _ = std::io::stdout().flush();

    // The admin plane comes up before the model finishes: /healthz is
    // green from here, /readyz stays 503 until the factory signals.
    let admin = admin_addr.map(|a| {
        let stats_handle = handle.stats_handle();
        let fe_slot: Arc<Mutex<Option<SharedFrontendStats>>> = Arc::new(Mutex::new(None));
        let varz_fe = Arc::clone(&fe_slot);
        let varz_quality = Arc::clone(&quality_slot);
        let varz_cache = cache.clone();
        // POST /swap bridges an admin handler thread to the dispatcher:
        // enqueue the candidate path, block on the reply channel until
        // the swap concludes (or times out), never touching the `!Send`
        // model from this thread.
        let swap: Option<SwapFn> = registry_enabled.then(|| {
            let tx = Mutex::new(swap_tx.clone());
            Box::new(move |path: &str| {
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                if tx
                    .lock()
                    .unwrap()
                    .send((path.to_string(), reply_tx))
                    .is_err()
                {
                    return (503u16, swap_refusal("unavailable", "dispatcher is gone"));
                }
                match reply_rx.recv_timeout(Duration::from_secs(120)) {
                    Ok(SwapOutcome::Promoted {
                        version,
                        cand_mae_s,
                        serving_mae_s,
                    }) => (
                        200,
                        json::object_string(|o| {
                            o.field("schema", "odt-swap/v1")
                                .field("accepted", true)
                                .field("version", version)
                                .field("cand_mae_s", cand_mae_s)
                                .field("serving_mae_s", serving_mae_s);
                        }),
                    ),
                    Ok(SwapOutcome::Rejected(e)) => {
                        let status = if matches!(e, SwapError::Busy) {
                            409
                        } else {
                            422
                        };
                        (status, swap_refusal(e.code(), &e.to_string()))
                    }
                    Err(_) => (
                        504,
                        swap_refusal("timeout", "swap did not conclude in time"),
                    ),
                }
            }) as SwapFn
        });
        let admin = start_admin(
            AdminConfig {
                addr: a,
                ..AdminConfig::default()
            },
            AdminSources {
                varz: Some(Box::new(move || {
                    let fe_pair = varz_fe.lock().unwrap().as_ref().map(|s| s.get());
                    let quality = varz_quality.lock().unwrap().clone();
                    let cache_stats = varz_cache.as_ref().map(|c| c.stats());
                    render_varz(
                        stats_handle.state_name(),
                        &stats_handle.stats(),
                        stats_handle.inflight(),
                        fe_pair.as_ref().map(|(snap, adopted)| (snap, *adopted)),
                        quality.as_ref(),
                        cache_stats.as_ref(),
                    )
                })),
                swap,
                ..AdminSources::default()
            },
        )
        .expect("binding the admin address");
        println!("odt_server admin on {}", admin.addr());
        let _ = std::io::stdout().flush();
        (admin, fe_slot)
    });

    let (shared, r, train_s) = ready_rx.recv().expect("backend init");
    if let Some((admin, fe_slot)) = &admin {
        *fe_slot.lock().unwrap() = Some(shared.clone());
        admin.set_ready(true);
    }
    println!("odt_server: trained in {train_s:.1}s");
    println!(
        "odt_server region {:.6},{:.6},{:.6},{:.6}",
        r.lng0, r.lat0, r.lng1, r.lat1
    );
    println!("odt_server ready");
    let _ = std::io::stdout().flush();

    let started = Instant::now();
    loop {
        if signal::shutdown_requested() {
            println!("odt_server: shutdown signal, draining");
            break;
        }
        if let Some(s) = max_run_s {
            if started.elapsed().as_secs() >= s {
                println!("odt_server: --max-run-s reached, draining");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Readiness drops the instant the drain decision is made, so load
    // balancers stop routing before the wire port starts refusing.
    if let Some((admin, _)) = &admin {
        admin.set_ready(false);
    }
    let uptime_s = started.elapsed().as_secs_f64();
    let report = handle.drain();
    let (snap, adopted) = shared.get();
    let quality = quality_slot.lock().unwrap().clone();
    let c = &report.stats;
    let pass = report.clean && c.active == 0;
    println!(
        "odt_server: drained (clean={}, forced={}, active={}), {} served / {} submitted",
        report.clean, report.forced_conns, c.active, snap.served, snap.submitted
    );
    if let Some(q) = &quality {
        println!(
            "odt_server: quality over {} shadow samples: mae {:.1}s, mape {:.3}, drift {:.3} ({} alerts)",
            q.samples, q.mae_s, q.mape, q.drift_score, q.drift_alerts
        );
    }
    let cache_stats = cache.as_ref().map(|c| c.stats());
    if let Some(cs) = &cache_stats {
        println!(
            "odt_server: cache {}/{} entries, {} hits / {} stale / {} misses (hit rate {:.3}), {} prewarm batch(es), {} invalidation(s)",
            cs.len,
            cs.capacity,
            cs.hits,
            cs.stale_hits,
            cs.misses,
            if cs.hit_rate().is_finite() { cs.hit_rate() } else { 0.0 },
            cs.prewarm_batches,
            cs.invalidations
        );
    }

    let (model_version, swap_stats) = swap_slot.lock().unwrap().clone();
    if let Some(s) = &swap_stats {
        println!(
            "odt_server: model v{model_version}, swaps: {} requested / {} promoted / {} rejected",
            s.requested, s.promoted, s.rejected
        );
    }

    let mut json = json::object_string(|o| {
        o.field("schema", "odt-net-server/v5")
            .field("addr", Text(bound))
            .field("quick", quick)
            .field("uptime_s", uptime_s)
            .field("conns", c)
            .field("frontend", &snap)
            .field("cache", cache_stats)
            .field("model_version", model_version)
            .field("swap", &swap_stats)
            .field("adopted_traces", adopted)
            .object_or_null("admin", admin.as_ref(), |o, (a, _)| {
                o.field("addr", Text(a.addr()))
                    .field("requests", a.requests());
            })
            .field("quality", &quality)
            .field("drain", &report)
            .field("flightrec_dumps", odt_obs::flightrec::dump_count())
            .field("pass", pass);
    });
    json.push('\n');
    std::fs::write(&report_path, json).unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    println!("wrote {report_path}");

    // The admin plane outlives the drain (so a final /metrics scrape or
    // /varz pull sees the end state), then stops with the process.
    if let Some((a, _)) = admin {
        a.shutdown();
    }

    if !pass {
        eprintln!("odt_server: drain was forced or connections leaked");
        std::process::exit(1);
    }
}
