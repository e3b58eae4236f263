//! Wiring tests for the observability layer: typed training events must
//! reach registered sinks with their structured fields, the legacy
//! `progress` callback must mirror the event stream, and serving must split
//! query latencies between the full and degraded-fallback histograms.

use odt::obs;
use odt::prelude::*;
use std::sync::{Arc, Mutex};

fn dataset() -> Dataset {
    let mut cfg = odt::traj::sim::CitySimConfig::chengdu_like();
    cfg.nx = 8;
    cfg.ny = 8;
    Dataset::simulated(cfg, 150, 8, 11)
}

fn tiny_config() -> DotConfig {
    DotConfig {
        stage1_iters: 12,
        stage1_batch: 4,
        stage2_iters: 40,
        stage2_batch: 4,
        early_stop_samples: 4,
        early_stop_every: 20,
        ..DotConfig::tiny()
    }
}

#[test]
fn nan_injection_emits_watchdog_events_with_fields() {
    let data = dataset();
    let mut cfg = tiny_config();
    cfg.robustness.watchdog_patience = 2;
    cfg.robustness.snapshot_every = 4;

    let events: Arc<Mutex<Vec<obs::Event>>> = Arc::new(Mutex::new(Vec::new()));
    let collected = events.clone();
    let sink_id = obs::add_sink(Arc::new(obs::FnSink::new(move |e: &obs::Event| {
        if e.name.starts_with("train.watchdog.") {
            collected.lock().unwrap().push(e.clone());
        }
    })));

    // Poison stage-1 losses 6..9: with patience 2 that is trip(skip) at 6,
    // trip(rollback) at 7, trip(skip) at 8.
    let hooks = odt::dot::TrainHooks {
        stage1_loss_tamper: Some(Box::new(
            |it, loss| {
                if (6..9).contains(&it) {
                    f32::NAN
                } else {
                    loss
                }
            },
        )),
        stage2_loss_tamper: None,
    };
    let progress_lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let lines = progress_lines.clone();
    let model = Dot::train_with_hooks(cfg, &data, |m| lines.lock().unwrap().push(m.into()), hooks);
    obs::remove_sink(sink_id).expect("sink was registered");
    assert_eq!(model.robustness().watchdog_trips, 3);

    let events = events.lock().unwrap();
    // The injected NaN batches: two skip-trips carrying the non-finite
    // loss, at the expected stage-1 iterations. (Filtering on the NaN loss
    // keeps the assertion immune to organic trips from the other test
    // training in this process.)
    let nan_trips: Vec<_> = events
        .iter()
        .filter(|e| {
            e.name == "train.watchdog.trip"
                && e.field("stage").and_then(|v| v.as_u64()) == Some(1)
                && e.field("loss")
                    .and_then(|v| v.as_f64())
                    .is_some_and(f64::is_nan)
        })
        .collect();
    let trip_iters: Vec<u64> = nan_trips
        .iter()
        .filter_map(|e| e.field("iter").and_then(|v| v.as_u64()))
        .collect();
    assert_eq!(trip_iters, vec![6, 8], "skip-trips at the injected iters");

    let rollback = events
        .iter()
        .find(|e| {
            e.name == "train.watchdog.rollback"
                && e.field("stage").and_then(|v| v.as_u64()) == Some(1)
                && e.field("iter").and_then(|v| v.as_u64()) == Some(7)
        })
        .expect("rollback event at iter 7 (patience 2)");

    // Backwards-compat shim: the legacy progress callback must have seen
    // exactly the message text of each typed event.
    let progress_lines = progress_lines.lock().unwrap();
    for ev in nan_trips.iter().copied().chain([rollback]) {
        assert!(
            progress_lines.iter().any(|l| *l == ev.message()),
            "progress callback missing event message {:?}",
            ev.message()
        );
    }
}

#[test]
fn degraded_query_records_into_fallback_histogram_only() {
    let data = dataset();
    let model = Dot::train(tiny_config(), &data, |_| {});

    // Training must have published the robustness gauges.
    let snap = obs::snapshot();
    for name in ["robustness.watchdog_trips", "robustness.fallbacks_taken"] {
        assert!(
            snap.gauges.iter().any(|&(k, _)| k == name),
            "{name} gauge must be registered after training"
        );
    }

    let full = obs::histogram("serve.query.full");
    let fallback = obs::histogram("serve.query.fallback");
    let queries = obs::counter("serve.queries");
    let (full0, fb0, q0) = (full.count(), fallback.count(), queries.get());

    let q = OdtInput::from_trajectory(&data.trips[0]);
    let lg = model.grid().lg;

    // An empty PiT is degenerate: the guarded estimator must serve the
    // fallback prior and record into the fallback histogram only.
    let empty = Pit::from_tensor(odt::tensor::Tensor::full(vec![3, lg, lg], -1.0));
    let est = model.estimate_from_pit_guarded(&q, empty);
    assert_eq!(est.seconds, odt::dot::fallback_estimate_seconds(&q));
    assert_eq!(fallback.count(), fb0 + 1, "fallback path must be recorded");
    assert_eq!(full.count(), full0, "full path must NOT be recorded");

    // The decision is also visible as a typed event in the ring buffer.
    assert!(
        obs::recent_events().iter().any(|e| {
            e.name == "serve.fallback"
                && e.field("reason").and_then(|v| v.as_str()) == Some("degenerate_pit")
        }),
        "serve.fallback event with reason=degenerate_pit expected"
    );

    // A healthy PiT goes through the learned estimator: full-path + 1.
    let healthy = Pit::from_trajectory(&data.trips[0], &data.grid);
    model.estimate_from_pit_guarded(&q, healthy);
    assert_eq!(full.count(), full0 + 1, "full path must be recorded");
    assert_eq!(fallback.count(), fb0 + 1, "fallback count unchanged");
    assert_eq!(queries.get(), q0 + 2, "both queries counted");
}
