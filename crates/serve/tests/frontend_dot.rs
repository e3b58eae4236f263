//! End-to-end resilience tests: the deadline-aware frontend over a real
//! (tiny) trained DOT oracle, with injected faults.

use std::sync::{Arc, Mutex};

use odt_core::{Dot, DotConfig};
use odt_roadnet::LngLat;
use odt_serve::{
    dot_frontend, dot_frontend_cached, BreakerState, CacheConfig, ChaosConfig, DotFrontendConfig,
    EstimateCache, FrontendConfig, HotTracker, Response, Rung, ShedReason,
};
use odt_traj::{Dataset, OdtInput};

fn dataset() -> Dataset {
    let mut cfg = odt_traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 180, 8, 41)
}

fn tiny_model(data: &Dataset) -> Dot {
    Dot::train(DotConfig::tiny(), data, |_| {})
}

fn queries(data: &Dataset, n: usize) -> Vec<OdtInput> {
    (0..n)
        .map(|i| OdtInput::from_trajectory(&data.trips[i % data.trips.len()]))
        .collect()
}

#[test]
fn frontend_serves_degrades_and_recovers() {
    let data = dataset();
    let model = tiny_model(&data);
    let mut fe = dot_frontend(
        &model,
        DotFrontendConfig::default(),
        FrontendConfig::default(),
        ChaosConfig::quiet(7),
    );

    // Healthy wave: everything answers, finite and non-negative.
    let out = fe.process_wave(queries(&data, 6).into_iter().map(|q| (q, None)));
    assert_eq!(out.len(), 6);
    for r in &out {
        match r {
            Response::Served { seconds, .. } => {
                assert!(seconds.is_finite() && *seconds >= 0.0, "{seconds}");
            }
            other => panic!("healthy wave shed a request: {other:?}"),
        }
    }
    assert_eq!(fe.snapshot().served, 6);

    // NaN storm on every model rung: breakers trip, the exempt fallback
    // still answers every request.
    fe.executor_mut().set_config(ChaosConfig {
        p_nan: 1.0,
        ..ChaosConfig::quiet(11)
    });
    let out = fe.process_wave(queries(&data, 8).into_iter().map(|q| (q, None)));
    assert!(
        out.iter().all(Response::is_served),
        "storm dropped requests"
    );
    for r in &out {
        if let Response::Served { rung, seconds, .. } = r {
            assert_eq!(*rung, Rung::Fallback);
            assert!(seconds.is_finite() && *seconds >= 0.0);
        }
    }
    let s = fe.snapshot();
    // Default threshold 3: each model rung fails thrice, then its open
    // breaker routes the rest of the storm straight to the fallback (the
    // cache rungs have no cache attached, so their breakers never engage).
    assert_eq!(s.breaker_trips, [0, 1, 1, 1, 0]);
    assert_eq!(
        s.rung_failures[Rung::Full.index()..=Rung::DdimReduced.index()],
        [3, 3, 3]
    );
    assert_eq!(s.rung_hits[Rung::Fallback.index()], 8);
    assert_eq!(fe.breaker_state(Rung::Full), Some(BreakerState::Open));

    // Chaos cleared + cool-down elapsed: half-open probes succeed and full
    // fidelity resumes.
    fe.executor_mut().set_config(ChaosConfig::quiet(13));
    std::thread::sleep(std::time::Duration::from_millis(60));
    let out = fe.process_wave(queries(&data, 4).into_iter().map(|q| (q, None)));
    assert!(out.iter().all(Response::is_served));
    let s = fe.snapshot();
    assert_eq!(fe.breaker_state(Rung::Full), Some(BreakerState::Closed));
    assert!(
        s.rung_hits[Rung::Full.index()] >= 4,
        "full fidelity never resumed: {s:?}"
    );
}

#[test]
fn admission_deadlines_and_overload() {
    let data = dataset();
    let model = tiny_model(&data);
    let rejected_before = model.robustness().queries_rejected;
    let mut fe = dot_frontend(
        &model,
        DotFrontendConfig::default(),
        FrontendConfig {
            queue_capacity: 4,
            ..FrontendConfig::default()
        },
        ChaosConfig::quiet(7),
    );

    // Strict admission: a query far outside the region is refused with a
    // typed reason and counted by the oracle's robustness stats.
    let base = OdtInput::from_trajectory(&data.trips[0]);
    let span = data.grid.max.lng - data.grid.min.lng;
    let far = OdtInput {
        origin: LngLat {
            lng: data.grid.min.lng - 3.0 * span,
            lat: base.origin.lat,
        },
        ..base
    };
    match fe.submit(far, None) {
        Err(Response::Shed {
            reason: ShedReason::InvalidQuery,
            detail,
            ..
        }) => assert!(detail.contains("outside"), "unexpected detail {detail:?}"),
        other => panic!("far query was admitted: {other:?}"),
    }
    assert!(model.robustness().queries_rejected > rejected_before);
    // A mildly-out-of-range query is still clamped and served, as before.
    let near = OdtInput {
        origin: LngLat {
            lng: data.grid.min.lng - 0.1 * span,
            lat: base.origin.lat,
        },
        ..base
    };
    assert!(fe.submit(near, None).is_ok());
    assert!(fe.drain().iter().all(Response::is_served));

    // Queue flood: capacity 4 against 12 submissions in one wave.
    let out = fe.process_wave(queries(&data, 12).into_iter().map(|q| (q, None)));
    let served = out.iter().filter(|r| r.is_served()).count();
    assert_eq!(served, 4);
    assert_eq!(
        out.iter()
            .filter(|r| matches!(
                r,
                Response::Shed {
                    reason: ShedReason::QueueFull,
                    ..
                }
            ))
            .count(),
        8
    );

    // A microscopic deadline budget: the request is either honestly shed
    // (expired in queue) or answered by a degraded rung — never served
    // late at full fidelity (full DDPM cannot fit a 50µs budget).
    let out = fe.process_wave(queries(&data, 4).into_iter().map(|q| (q, Some(50u64))));
    assert_eq!(out.len(), 4);
    for r in &out {
        match r {
            Response::Served { rung, seconds, .. } => {
                assert!(
                    rung.index() > Rung::Full.index(),
                    "tight deadline picked {rung:?}"
                );
                assert!(seconds.is_finite() && *seconds >= 0.0);
            }
            Response::Shed { reason, .. } => {
                assert_eq!(*reason, ShedReason::DeadlineExpiredInQueue);
            }
        }
    }
}

#[test]
fn cached_frontend_serves_repeat_queries_from_the_cache() {
    let data = dataset();
    let model = tiny_model(&data);
    let cache = Arc::new(EstimateCache::new(CacheConfig {
        capacity: 256,
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

    // First pass: cold cache — every answer comes from a model rung and
    // is written through into the cache.
    let qs = queries(&data, 5);
    let first = fe.process_wave(qs.clone().into_iter().map(|q| (q, None)));
    let mut model_answers = Vec::new();
    let mut cold_min_us = u64::MAX;
    for r in &first {
        match r {
            Response::Served {
                rung,
                seconds,
                service_us,
                ..
            } => {
                assert!(!rung.is_cache(), "cold cache cannot serve {rung:?}");
                model_answers.push(*seconds);
                cold_min_us = cold_min_us.min(*service_us);
            }
            other => panic!("cold pass shed: {other:?}"),
        }
    }
    assert_eq!(cache.len(), 5, "write-through filled the cache");

    // Second pass, same queries: every answer serves from the cached rung
    // and is bit-identical to the model answer that filled it.
    let second = fe.process_wave(qs.into_iter().map(|q| (q, None)));
    let mut warm_max_us = 0;
    for (r, expected) in second.iter().zip(&model_answers) {
        match r {
            Response::Served {
                rung,
                seconds,
                service_us,
                downgraded,
                ..
            } => {
                warm_max_us = warm_max_us.max(*service_us);
                assert_eq!(*rung, Rung::Cached);
                assert_eq!(
                    seconds.to_bits(),
                    expected.to_bits(),
                    "cached serve must be bit-identical to the filling value"
                );
                assert!(!downgraded);
            }
            other => panic!("warm pass shed: {other:?}"),
        }
    }
    // The point of the cache: the slowest hit costs under a tenth of the
    // fastest model answer.
    assert!(
        warm_max_us * 10 < cold_min_us,
        "slowest hit {warm_max_us} us vs fastest model answer {cold_min_us} us"
    );
    let stats = cache.stats();
    assert_eq!(stats.hits, 5);
    assert!(stats.hit_rate() > 0.0);
    // The hot tracker saw every probe (both passes).
    assert!(!hot.lock().unwrap().is_empty());

    // Drift-style invalidation: after a generation bump, no pre-bump
    // entry may serve again.
    cache.invalidate_all("test_drift");
    let qs = queries(&data, 5);
    let third = fe.process_wave(qs.into_iter().map(|q| (q, None)));
    for r in &third {
        if let Response::Served { rung, .. } = r {
            assert!(
                !rung.is_cache(),
                "post-invalidation serve came from the cache: {rung:?}"
            );
        }
    }
}
