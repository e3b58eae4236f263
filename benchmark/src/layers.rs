//! The traced run: per-layer probes that time calls into each crate's public
//! functions on fixed inputs, short replays of the serving workloads that
//! read the server's own per-request fields, and a span-recorded replay of
//! the run's workload. Never mixed with end-to-end numbers.

use crate::alloc;
use crate::inputs::{self, QueryGen, Zipf};
use crate::report::{Check, Metric, Report};
use crate::serving::{self, Client, Reply, Serving};
use crate::spans::{self, SpanRec, Tracer};
use crate::stats::{time_calls, time_tight, Samples};
use crate::Workload;
use odt_core::Dot;
use odt_net::cluster::{ClusterConfig, ClusterShared, ReplicaAddr, RouterBackend};
use odt_net::server::{start, start_with, EchoBackend, ServerConfig};
use odt_net::wire::{WireRequest, WireResponse};
use odt_serve::{
    dot_frontend_cached, CacheConfig, ChaosConfig, DotFrontendConfig, EstimateCache,
    FrontendConfig, HotTracker, Response,
};
use odt_tensor::{Graph, Tensor};
use odt_traj::{Dataset, GridSpec, OdtInput, Pit, Split};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn median(name: &'static str, unit: &'static str, s: &Samples) -> Metric {
    Metric {
        name,
        value: s.median(),
        unit,
        n: s.len(),
    }
}

fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        n: 1,
    }
}

// The denoiser's widest convolution at L_G = 20, base width 8, depth 2: the
// first up-block conv, 32 -> 32 channels, 3 x 3, on the 20 x 20 grid. As an
// im2col GEMM that is [32, 288] @ [288, 400] per sample.
const CONV_C: usize = 32;
const CONV_K: usize = CONV_C * 9;
const CONV_N: usize = 20 * 20;

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i % 31) as f32 - 15.0) / 16.0).collect()
}

/// Probes that need no model: `compute`, `tensor`, `obs`, `net` codec and
/// loopback, `serve` cache, `traj`.
fn model_free_probes(m: &mut Vec<Metric>, grid: GridSpec) {
    use odt_compute::gemm::gemm;

    let (a, b) = (ramp(256 * 256), ramp(256 * 256));
    let mut c = vec![0.0f32; 256 * 256];
    let s = time_calls(30, 1.0, || {
        gemm(black_box(&a), black_box(&b), &mut c, 256, 256, 256)
    });
    m.push(Metric {
        name: "compute.gemm_256_gflops",
        value: 2.0 * 256f64.powi(3) / s.median() / 1e9,
        unit: "GFLOP/s",
        n: s.len(),
    });
    let w = ramp(CONV_C * CONV_K);
    for (name, batch, calls) in [
        ("compute.gemm_conv_b1_us", 1, 50),
        ("compute.gemm_conv_b16_us", 16, 30),
    ] {
        let cols = ramp(CONV_K * CONV_N * batch);
        let mut out = vec![0.0f32; CONV_C * CONV_N * batch];
        let s = time_calls(calls, 1e6, || {
            gemm(
                black_box(&w),
                black_box(&cols),
                &mut out,
                CONV_C,
                CONV_K,
                CONV_N * batch,
            )
        });
        m.push(median(name, "us", &s));
    }
    let mut rows = vec![0.0f32; 64];
    let s = time_calls(300, 1e6, || {
        odt_compute::parallel_rows(&mut rows, 1, 1, |r, row| row[0] = r as f32)
    });
    m.push(median("compute.pool_dispatch_us", "us", &s));

    for (name, batch, calls) in [
        ("tensor.conv2d_fwd_b1_us", 1, 50),
        ("tensor.conv2d_fwd_b16_us", 16, 30),
    ] {
        let x = Tensor::from_vec(ramp(batch * CONV_C * CONV_N), vec![batch, CONV_C, 20, 20]);
        let weight = Tensor::from_vec(ramp(CONV_C * CONV_K), vec![CONV_C, CONV_C, 3, 3]);
        let bias = Tensor::from_vec(ramp(CONV_C), vec![CONV_C]);
        let s = time_calls(calls, 1e6, || {
            let g = Graph::new();
            let (xv, wv, bv) = (
                g.input(x.clone()),
                g.input(weight.clone()),
                g.input(bias.clone()),
            );
            black_box(g.conv2d(xv, wv, Some(bv), 1, 1));
        });
        m.push(median(name, "us", &s));
    }
    // The q/k/v projection of the denoiser's 10 x 10 attention level.
    let (x, w) = (
        Tensor::from_vec(ramp(100 * 32), vec![100, 32]),
        Tensor::from_vec(ramp(32 * 32), vec![32, 32]),
    );
    let s = time_calls(200, 1e6, || {
        let g = Graph::new();
        let (xv, wv) = (g.input(x.clone()), g.input(w.clone()));
        black_box(g.matmul(xv, wv));
    });
    m.push(median("tensor.matmul_fwd_us", "us", &s));

    let hist = odt_obs::histogram("benchmark.probe");
    let mut v = 0u64;
    let s = time_tight(30, 10_000, || {
        v = v.wrapping_add(37);
        hist.record_micros(black_box(v & 0xFFFF));
    });
    m.push(median("obs.hist_record_ns", "ns", &s));
    let s = time_tight(30, 10_000, || {
        drop(black_box(odt_obs::span("benchmark.probe_span")))
    });
    m.push(median("obs.span_untraced_ns", "ns", &s));

    let q = QueryGen::new(1, grid).cold();
    let req = WireRequest {
        id: 7,
        query: serving::to_wire(&q),
        deadline_ms: Some(serving::DEADLINE_MS),
        trace: None,
        parent_span: None,
    };
    let resp = WireResponse::Ok {
        id: 7,
        seconds: 612.25,
        rung: "full_ddpm".to_string(),
        queue_wait_us: 41,
        service_us: 118_250,
        deadline_met: true,
        trace: None,
        served_by: Some("benchmark".to_string()),
    };
    let s = time_tight(30, 2_000, || {
        black_box(black_box(&req).to_json());
        black_box(black_box(&resp).to_json());
    });
    m.push(median("net.wire_encode_ns", "ns", &s));
    let (req_json, resp_json) = (req.to_json(), resp.to_json());
    let s = time_tight(30, 2_000, || {
        black_box(WireRequest::from_json(black_box(&req_json)).is_ok());
        black_box(WireResponse::from_json(black_box(&resp_json)).is_ok());
    });
    m.push(median("net.wire_decode_ns", "ns", &s));

    let cache = EstimateCache::new(CacheConfig {
        capacity: serving::CACHE_CAPACITY,
        ..CacheConfig::default()
    });
    let keys: Vec<_> = (0..inputs::HOT_KEYS as u32)
        .map(|i| cache.key_for(i, 399 - i, inputs::HOT_T_DEP))
        .collect();
    for k in &keys {
        cache.insert_forced(*k, 600.0, 0);
    }
    let mut i = 0;
    let s = time_tight(30, 2_000, || {
        i = (i + 1) % keys.len();
        black_box(cache.lookup(keys[i], 1_000));
    });
    m.push(median("serve.cache_lookup_ns", "ns", &s));
    let s = time_tight(30, 2_000, || {
        i = (i + 1) % keys.len();
        black_box(cache.insert(keys[i], 601.0, 2_000));
    });
    m.push(median("serve.cache_insert_ns", "ns", &s));

    let s = time_calls(5, 1.0, || drop(black_box(inputs::dataset())));
    m.push(median("traj.dataset_sim_s", "s", &s));
}

/// 20 loopback round trips, µs each, after 3 discarded ones.
fn round_trips(addr: std::net::SocketAddr, gen: &mut QueryGen) -> Samples {
    let mut client = Client::connect(addr).expect("connecting over loopback");
    for _ in 0..3 {
        client.call(&gen.cold()).expect("echo reply");
    }
    time_calls(20, 1e6, || {
        client.call(&gen.cold()).expect("echo reply");
    })
}

/// Loopback round trips to an instant echo backend, directly and through a
/// one-shard `RouterBackend`; the difference is the router hop.
fn echo_probes(m: &mut Vec<Metric>, checks: &mut Vec<Check>, grid: GridSpec) {
    let mut gen = QueryGen::new(2, grid);
    let echo = start(ServerConfig::default(), EchoBackend::instant()).expect("echo server");
    let direct = round_trips(echo.addr(), &mut gen);
    let cluster = ClusterConfig::new(vec![vec![ReplicaAddr::wire_only(echo.addr().to_string())]]);
    let shared = ClusterShared::new(&cluster);
    let router = start_with(ServerConfig::default(), move || {
        RouterBackend::new(cluster, shared)
    })
    .expect("router server");
    let routed = round_trips(router.addr(), &mut gen);
    m.push(median("net.echo_rtt_us", "us", &direct));
    m.push(Metric {
        name: "net.router_hop_us",
        value: routed.median() - direct.median(),
        unit: "us",
        n: routed.len(),
    });
    let (r, e) = (router.drain(), echo.drain());
    checks.push(Check {
        name: "probe_servers_drain_clean",
        pass: r.clean && e.clean && r.stats.active == 0 && e.stats.active == 0,
        detail: String::new(),
    });
}

/// Everything measured on the dispatcher thread with the served model.
pub struct ModelProbe {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    spans: Vec<SpanRec>,
    /// Median `Dot::estimate`, ms, and frontend overheads, µs, for the
    /// reconciliation rows.
    estimate_ms: f64,
    frontend_hit_us: f64,
    frontend_miss_overhead_us: f64,
    /// Traced and untraced samples of the workload's in-process operation.
    overhead: Option<Overhead>,
    attempted: u64,
}

/// Milliseconds of the same operation `(traced, untraced)`.
type Overhead = (Samples, Samples);

/// Alternate traced (spans and allocation counting on) and untraced calls of
/// `op`.
fn alternate(
    tracer: &mut Tracer,
    pairs: usize,
    mut op: impl FnMut(&mut Tracer, usize),
) -> Overhead {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for i in 0..2 * pairs {
        let on = i % 2 == 0;
        tracer.set_op(on.then_some(i as u32));
        alloc::set_counting(on);
        let t0 = Instant::now();
        op(tracer, i);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if on { &mut traced } else { &mut untraced }.push(ms);
    }
    tracer.set_op(None);
    alloc::set_counting(true);
    (Samples(traced), Samples(untraced))
}

fn overhead_share((traced, untraced): &Overhead) -> f64 {
    traced.median() / untraced.median() - 1.0
}

/// Train the served model (counting allocations) and probe `diffusion`,
/// `estimator`, `core`, the `tensor` tape and the in-process `serve`
/// frontend with it.
fn model_probes(data: &Dataset, workload: Workload, seed: u64, t0: Instant) -> (Dot, ModelProbe) {
    let mut m = Vec::new();
    let mut notes = Vec::new();
    let mut tracer = Tracer::new(t0);
    let mut attempted = 0u64;
    let cfg = inputs::bench_config(inputs::MODEL_SEED);
    let lg = cfg.lg;

    let (model, allocs, _) = alloc::counted(|| serving::train(data, inputs::MODEL_SEED));
    let report = model.report().clone();
    let iters = cfg.stage1_iters + cfg.stage2_iters;
    m.push(value(
        "tensor.allocs_per_train_iter",
        "count",
        (allocs / iters as u64) as f64,
    ));
    m.push(value(
        "core.train_stage1_iter_ms",
        "ms",
        report.stage1_seconds * 1e3 / cfg.stage1_iters as f64,
    ));
    m.push(value(
        "core.train_stage2_iter_ms",
        "ms",
        report.stage2_seconds * 1e3 / cfg.stage2_iters as f64,
    ));
    m.push(value("core.train_val_mae_s", "s", report.best_val_mae));

    // Fixed inputs for every model probe: the first held-out trips.
    let test = data.split(Split::Test);
    let fixed: Vec<OdtInput> = test
        .iter()
        .take(16)
        .map(OdtInput::from_trajectory)
        .collect();
    let truth: Vec<Pit> = test
        .iter()
        .take(16)
        .map(|t| Pit::from_trajectory(t, &data.grid))
        .collect();
    assert_eq!(fixed.len(), 16, "the dataset's test split is too small");
    let mut rng = StdRng::seed_from_u64(seed);

    // One denoiser forward: noise prediction at step 5 for `batch` samples.
    let forward = |batch: usize| -> (Tensor, Tensor) {
        (
            Tensor::from_vec(ramp(batch * 3 * lg * lg), vec![batch, 3, lg, lg]),
            Tensor::from_vec(ramp(batch * 5), vec![batch, 5]),
        )
    };
    let (x16, cond16) = forward(16);
    let fwd_b16 = time_calls(6, 1e3, || {
        black_box(model.noise_pred(&Graph::new(), x16.clone(), 5, &cond16));
    });
    m.push(median("diffusion.denoiser_fwd_b16_ms", "ms", &fwd_b16));

    let ddim = time_calls(12, 1e3, || {
        black_box(model.infer_pits_fast(&fixed[..1], 8, &mut rng));
    });
    m.push(median("diffusion.sample_ddim8_ms", "ms", &ddim));
    let mvit_b16 = time_calls(20, 1e3, || {
        black_box(model.estimate_from_pits(&truth));
    });
    m.push(median("estimator.mvit_b16_ms", "ms", &mvit_b16));

    // One query, fixed sampler seed: the counts must repeat exactly.
    let (_, allocs, bytes) =
        alloc::counted(|| model.estimate(&fixed[0], &mut StdRng::seed_from_u64(1)));
    m.push(value("tensor.allocs_per_query", "count", allocs as f64));
    m.push(value("tensor.alloc_bytes_per_query", "count", bytes as f64));

    // `Dot::estimate`, the two calls it is made of and one denoiser forward,
    // turn by turn on the same query, so that machine drift cancels in
    // `estimate_self_ms` and `step_overhead_share`.
    let before = model.robustness();
    let mut gen = QueryGen::new(seed, data.grid);
    let (x1, cond1) = forward(1);
    let mut tape_nodes = 0;
    let timed_ms = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    };
    let (mut estimate, mut ddpm, mut mvit_b1, mut fwd_b1) = (vec![], vec![], vec![], vec![]);
    for pit in truth.iter().take(12) {
        let q = gen.cold();
        estimate.push(timed_ms(&mut || {
            black_box(model.estimate(&q, &mut rng).seconds);
        }));
        ddpm.push(timed_ms(&mut || {
            black_box(model.infer_pits(&[q], &mut rng));
        }));
        mvit_b1.push(timed_ms(&mut || {
            black_box(model.estimate_from_pits(std::slice::from_ref(pit)));
        }));
        fwd_b1.push(timed_ms(&mut || {
            let g = Graph::new();
            black_box(model.noise_pred(&g, x1.clone(), 5, &cond1));
            tape_nodes = g.len();
        }));
    }
    let per_query = |f: &dyn Fn(usize) -> f64| Samples((0..estimate.len()).map(f).collect());
    let self_ms = per_query(&|i| estimate[i] - ddpm[i] - mvit_b1[i]);
    let step_overhead = per_query(&|i| 1.0 - cfg.n_steps as f64 * fwd_b1[i] / ddpm[i]);
    let (estimate, ddpm) = (Samples(estimate), Samples(ddpm));
    let mut guarded = estimate.len();
    m.push(median("core.estimate_ms", "ms", &estimate));
    m.push(median("core.estimate_self_ms", "ms", &self_ms));
    m.push(median("diffusion.sample_ddpm_ms", "ms", &ddpm));
    m.push(value(
        "diffusion.reverse_step_ms",
        "ms",
        ddpm.median() / cfg.n_steps as f64,
    ));
    m.push(median(
        "diffusion.step_overhead_share",
        "share",
        &step_overhead,
    ));
    m.push(median(
        "diffusion.denoiser_fwd_b1_ms",
        "ms",
        &Samples(fwd_b1),
    ));
    m.push(value(
        "tensor.tape_nodes_per_fwd",
        "count",
        tape_nodes as f64,
    ));
    m.push(median("estimator.mvit_b1_ms", "ms", &Samples(mvit_b1)));
    for (name, batch, calls) in [
        ("core.batch_ms_per_query_b1", 1, 5),
        ("core.batch_ms_per_query_b8", 8, 2),
        ("core.batch_ms_per_query_b16", 16, 1),
    ] {
        let s = time_calls(calls, 1e3 / batch as f64, || {
            let queries: Vec<OdtInput> = (0..batch).map(|_| gen.cold()).collect();
            black_box(model.estimate_batch(&queries, &mut rng));
        });
        guarded += batch * calls;
        m.push(median(name, "ms", &s));
    }
    let degenerate = model.robustness().degenerate_pits - before.degenerate_pits;
    let fallback_share = degenerate as f64 / guarded as f64;
    m.push(Metric {
        name: "core.fallback_share",
        value: fallback_share,
        unit: "share",
        n: guarded,
    });
    let prior = time_calls(200, 1e6, || {
        black_box(model.estimate_prior(&fixed[0]).seconds);
    });
    m.push(median("core.estimate_prior_us", "us", &prior));
    attempted += (guarded + prior.len() + ddpm.len() + ddim.len()) as u64;

    // The in-process frontend, with a cache of its own.
    let cache = Arc::new(EstimateCache::new(CacheConfig {
        capacity: serving::CACHE_CAPACITY,
        ..CacheConfig::default()
    }));
    let mut fe = dot_frontend_cached(
        &model,
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(0),
        Arc::clone(&cache),
        Arc::new(Mutex::new(HotTracker::new(128))),
    );
    let deadline_us = Some(serving::DEADLINE_MS * 1_000);
    let mut submit = |q: &OdtInput| -> (f64, u64, &'static str) {
        let t = Instant::now();
        fe.submit(*q, deadline_us).expect("admitted");
        let replies = fe.drain();
        let us = t.elapsed().as_secs_f64() * 1e6;
        match replies.as_slice() {
            [Response::Served {
                service_us, rung, ..
            }] => (us, *service_us, rung.name()),
            other => panic!("one request in, one served reply out; got {other:?}"),
        }
    };
    let miss = Samples(
        (0..5)
            .map(|_| {
                let (us, service_us, rung) = submit(&gen.cold());
                assert_eq!(rung, "full_ddpm", "a fresh query must miss the cache");
                us - service_us as f64
            })
            .collect(),
    );
    // The first query is now cached (if its answer was finite): hit it.
    let hot = fixed[0];
    submit(&hot);
    let hit = time_calls(200, 1e6, || {
        let (_, _, rung) = submit(&hot);
        assert_eq!(rung, "cached", "a repeated query must hit the cache");
    });
    m.push(median("serve.frontend_hit_us", "us", &hit));
    m.push(median("serve.frontend_miss_overhead_us", "us", &miss));
    attempted += (miss.len() + hit.len() + 1) as u64;

    // The workload's in-process operation, composed from the public calls
    // `Dot::estimate` / `estimate_batch` make, with a span around each.
    let overhead = match workload {
        Workload::QueryCold => Some(alternate(&mut tracer, 6, |t, _| {
            let q = gen.cold();
            t.span("query", |t| {
                let clean = t
                    .span("core.sanitize_strict", |_| model.sanitize_strict(&q))
                    .expect("generated queries lie inside the grid");
                let pit = t
                    .span("core.infer_pits", |_| model.infer_pits(&[clean], &mut rng))
                    .pop()
                    .expect("one query in, one PiT out");
                t.span("core.estimate_from_pit_guarded", |_| {
                    black_box(model.estimate_from_pit_guarded(&clean, pit).seconds)
                });
            });
        })),
        Workload::BatchMatrix => Some(alternate(&mut tracer, 3, |t, _| {
            let queries: Vec<OdtInput> = (0..inputs::BATCH).map(|_| gen.cold()).collect();
            t.span("batch", |t| {
                let clean: Vec<OdtInput> = t.span("core.sanitize_strict", |_| {
                    queries
                        .iter()
                        .map(|q| model.sanitize_strict(q).expect("inside the grid"))
                        .collect()
                });
                let pits = t.span("core.infer_pits", |_| model.infer_pits(&clean, &mut rng));
                t.span("core.estimate_from_pits", |_| {
                    black_box(model.estimate_from_pits(&pits))
                });
            });
        })),
        Workload::Train => Some(alternate(&mut tracer, 1, |t, _| {
            t.span("core.train", |t| {
                let trained = serving::train(data, inputs::MODEL_SEED);
                // The stages are not callable from outside; their spans come
                // from the report `Dot::train` fills in.
                let (s1_us, s2_us) = (
                    (trained.report().stage1_seconds * 1e6) as u64,
                    (trained.report().stage2_seconds * 1e6) as u64,
                );
                t.reported("core.train.stage1", s2_us, s1_us);
                t.reported("core.train.stage2", 0, s2_us);
            })
        })),
        Workload::QueryHot => None,
    };
    if let Some((traced, untraced)) = &overhead {
        attempted += (traced.len() + untraced.len()) as u64;
        notes.push(format!(
            "trace.overhead.traced_p50_ms {} n={}",
            traced.median(),
            traced.len()
        ));
        notes.push(format!(
            "trace.overhead.untraced_p50_ms {} n={}",
            untraced.median(),
            untraced.len()
        ));
    }
    drop(fe);
    let probe = ModelProbe {
        estimate_ms: estimate.median(),
        frontend_hit_us: hit.median(),
        frontend_miss_overhead_us: miss.median(),
        metrics: m,
        notes,
        spans: tracer.into_spans(),
        overhead,
        attempted,
    };
    (model, probe)
}

/// What a client-side replay over the live server saw.
struct Replay {
    rtt_us: Samples,
    replies: Vec<Reply>,
    failed: u64,
    spans: Vec<SpanRec>,
    overhead: Overhead,
}

/// Send `ops` queries from `next_query` on one connection, alternating
/// traced and untraced operations, with a span around each client-side step
/// and the server's own `queue_wait_us` / `service_us` as reported spans.
fn replay(
    client: &mut Client,
    t0: Instant,
    ops: usize,
    mut next_query: impl FnMut() -> OdtInput,
) -> Replay {
    let mut tracer = Tracer::new(t0);
    let mut replies = Vec::new();
    let mut rtt_us = Vec::new();
    let mut failed = 0;
    let overhead = alternate(&mut tracer, ops / 2, |t, _| {
        let q = next_query();
        let started = Instant::now();
        let result = t.span("query", |t| {
            let req = client.request(&q);
            let payload = t.span("net.wire_encode", |_| req.to_json());
            let raw = t.span("net.socket_round_trip", |t| {
                let raw = client.round_trip(&payload);
                // Only the decoded reply says how the server spent the wait.
                if let Ok(Ok(r)) = raw.as_ref().map(|p| Reply::decode(req.id, p)) {
                    t.reported("serve.queue_wait", r.service_us, r.queue_wait_us);
                    t.reported("serve.service", 0, r.service_us);
                }
                raw
            })?;
            t.span("net.wire_decode", |_| Reply::decode(req.id, &raw))
        });
        match result {
            Ok(reply) => {
                rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
                replies.push(reply);
            }
            Err(_) => failed += 1,
        }
    });
    Replay {
        rtt_us: Samples(rtt_us),
        replies,
        failed,
        spans: tracer.into_spans(),
        overhead,
    }
}

fn rung_share(replies: &[Reply], rung: &str) -> f64 {
    replies.iter().filter(|r| r.rung == rung).count() as f64 / replies.len().max(1) as f64
}

/// The traced run of `workload`: every per-layer metric, and the span file
/// `trace_<workload>.jsonl` under `out_dir`.
pub fn run(workload: Workload, seed: u64, out_dir: &Path) -> Report {
    let t0 = Instant::now();
    alloc::set_counting(true);
    let mut m = Vec::new();
    let mut checks = Vec::new();
    let grid = inputs::dataset().grid;
    model_free_probes(&mut m, grid);
    echo_probes(&mut m, &mut checks, grid);
    let echo_rtt_us = m
        .iter()
        .find(|x| x.name == "net.echo_rtt_us")
        .expect("echo_probes reports it")
        .value;

    let serving: Serving<ModelProbe> =
        serving::boot(move |data| model_probes(data, workload, seed, t0));

    // Short replays of both serving workloads; longer for the run's own.
    let cold_ops = if workload == Workload::QueryCold {
        20
    } else {
        8
    };
    let hot_ops = if workload == Workload::QueryHot {
        400
    } else {
        100
    };
    let mut cold = serving::on_connections(serving.addr, 1, |_, client| {
        let mut gen = QueryGen::new(seed ^ 0xC01D, grid);
        replay(client, t0, cold_ops, || gen.cold())
    });
    let cold = cold.pop().expect("one connection");
    let set = QueryGen::new(seed, grid).hot_set(inputs::HOT_KEYS);
    serving.prewarm(&set);
    let before = serving.cache.stats();
    let hot = serving::on_connections(serving.addr, 2, |i, client| {
        let mut zipf = Zipf::new(set.len(), inputs::HOT_ZIPF_S, seed ^ (i as u64 + 1));
        replay(client, t0, hot_ops / 2, || set[zipf.next()])
    });
    let after = serving.cache.stats();
    let Serving { handle, probe, .. } = serving;
    let drain = handle.drain();
    checks.push(Check {
        name: "server_drains_clean",
        pass: drain.clean && drain.stats.active == 0,
        detail: String::new(),
    });

    let failed = cold.failed + hot.iter().map(|r| r.failed).sum::<u64>();
    let hot_replies: Vec<Reply> = hot.iter().flat_map(|r| r.replies.clone()).collect();
    let hot_rtt = Samples::pooled(hot.iter().map(|r| &r.rtt_us));
    let field = |f: fn(&Reply) -> u64| Samples(hot_replies.iter().map(|r| f(r) as f64).collect());
    m.push(median(
        "serve.queue_wait_us_p50",
        "us",
        &field(|r| r.queue_wait_us),
    ));
    m.push(median(
        "serve.service_us_p50",
        "us",
        &field(|r| r.service_us),
    ));
    m.push(Metric {
        name: "serve.rung_share.full_ddpm",
        value: rung_share(&cold.replies, "full_ddpm"),
        unit: "share",
        n: cold.replies.len(),
    });
    m.push(Metric {
        name: "serve.rung_share.cached",
        value: rung_share(&hot_replies, "cached"),
        unit: "share",
        n: hot_replies.len(),
    });
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.push(Metric {
        name: "serve.cache_hit_rate",
        value: hits as f64 / (hits + misses).max(1) as f64,
        unit: "share",
        n: (hits + misses) as usize,
    });
    let overhead_us = Samples(
        hot.iter()
            .flat_map(|r| r.rtt_us.0.iter().zip(&r.replies))
            .map(|(rtt, r)| rtt - (r.service_us + r.queue_wait_us) as f64)
            .collect(),
    );
    m.push(median("net.overhead_us", "us", &overhead_us));
    m.push(Metric {
        name: "net.query_hot_rtt_p90_us",
        value: hot_rtt.quantile(0.9),
        unit: "us",
        n: hot_rtt.len(),
    });

    // Reconciliation: independently probed layer costs against what the
    // client saw. The share left over is the finding.
    let mut notes = probe.notes.clone();
    let mut recon = |name: &'static str, e2e: &Samples, parts: &[(&str, f64)]| {
        let explained: f64 = parts.iter().map(|(_, us)| us).sum();
        notes.push(format!(
            "{name}.e2e_p50_us {} n={}",
            e2e.median(),
            e2e.len()
        ));
        for (part, us) in parts {
            notes.push(format!("{name}.{part}_us {us}"));
        }
        Metric {
            name,
            value: 1.0 - explained / e2e.median(),
            unit: "share",
            n: e2e.len(),
        }
    };
    m.push(recon(
        "recon.query_cold_unexplained_share",
        &cold.rtt_us,
        &[
            ("net.echo_rtt", echo_rtt_us),
            (
                "serve.frontend_miss_overhead",
                probe.frontend_miss_overhead_us,
            ),
            ("core.estimate", probe.estimate_ms * 1e3),
        ],
    ));
    m.push(recon(
        "recon.query_hot_unexplained_share",
        &hot_rtt,
        &[
            ("net.echo_rtt", echo_rtt_us),
            ("serve.frontend_hit", probe.frontend_hit_us),
        ],
    ));

    // The run's own workload: tracing overhead and the span file.
    let hot_overhead: Overhead = (
        Samples::pooled(hot.iter().map(|r| &r.overhead.0)),
        Samples::pooled(hot.iter().map(|r| &r.overhead.1)),
    );
    let (overhead, span_sets): (&Overhead, Vec<(&str, Vec<SpanRec>)>) = match workload {
        Workload::QueryCold => (
            &cold.overhead,
            vec![("client", cold.spans), ("dispatcher", probe.spans)],
        ),
        Workload::QueryHot => (
            &hot_overhead,
            hot.into_iter()
                .zip(["client-0", "client-1"])
                .map(|(r, name)| (name, r.spans))
                .collect(),
        ),
        Workload::BatchMatrix | Workload::Train => (
            probe.overhead.as_ref().expect("probed for this workload"),
            vec![("dispatcher", probe.spans)],
        ),
    };
    m.push(Metric {
        name: "trace.overhead_share",
        value: overhead_share(overhead),
        unit: "share",
        n: overhead.0.len() + overhead.1.len(),
    });
    let span_count: usize = span_sets.iter().map(|(_, s)| s.len()).sum();
    let path = out_dir.join(format!("trace_{}.jsonl", workload.name()));
    let written =
        std::fs::create_dir_all(out_dir).and_then(|_| spans::write_jsonl(&path, &span_sets));
    checks.push(Check {
        name: "span_file_written",
        pass: written.is_ok() && span_count > 0,
        detail: format!("{span_count} spans in {}", path.display()),
    });

    m.extend(probe.metrics);
    Report {
        attempted: probe.attempted + (cold_ops + hot_ops) as u64,
        failed,
        metrics: m,
        notes,
        checks,
    }
}
