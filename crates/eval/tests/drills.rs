//! `cargo test` walks the drill table: every row of [`DRILLS`] runs over real
//! sockets and the real clock, as `chaos_drill --quick --seed 7` runs it, and
//! must come back with no violated expectation.

use odt_eval::drill::{Drill, DrillCtx, DrillOutcome, DRILLS};
use odt_obs::json;

/// Which evidence blocks a row's outcome carries, by family.
fn blocks_of(name: &str) -> &'static str {
    match name {
        "quality_drift" => "quality",
        "cache_drift_invalidation" => "frontend,quality,cache,flush",
        "cluster_corrupt_swap" => "frontend,swap,candidates",
        _ if name.starts_with("net_") => "frontend,adopted_traces,replies,conns,drain",
        _ if name.starts_with("cluster_") => "replies,conns,drain,cluster",
        _ => "frontend",
    }
}

/// What is wrong with `drill`'s outcome, if anything, led by its name.
fn complaint(drill: &Drill, o: &DrillOutcome) -> Option<String> {
    if !o.violations.is_empty() {
        return Some(format!("{}: {}", drill.name, o.violations.join("; ")));
    }
    let evidence = json::object_string(|members| o.evidence(members));
    let blocks: Vec<String> = match json::JsonValue::parse(&evidence) {
        Ok(json::JsonValue::Obj(members)) => members.into_iter().map(|(k, _)| k).collect(),
        other => panic!("{}: evidence is not an object: {other:?}", drill.name),
    };
    let (blocks, want) = (blocks.join(","), blocks_of(drill.name));
    if blocks != want || o.admitted.is_some() != o.frontend.is_some() {
        return Some(format!(
            "{}: evidence blocks {blocks} (want {want}), admitted {:?}",
            drill.name, o.admitted
        ));
    }
    None
}

#[test]
fn every_drill_holds() {
    // Armed as `chaos_drill` arms them: the flight recorder, the trace
    // sampler and the panic hook are process-global.
    let dumps = format!("odt_drills_flightrec_{}", std::process::id());
    odt_obs::trace::set_sample_every(1);
    odt_obs::flightrec::enable(std::env::temp_dir().join(dumps));
    odt_obs::flightrec::install_panic_hook();
    let ctx = DrillCtx::new(7, true);
    let complaints: Vec<String> = DRILLS
        .iter()
        .filter_map(|drill| complaint(drill, &(drill.run)(&ctx)))
        .collect();
    assert!(complaints.is_empty(), "{complaints:#?}");
}

#[test]
fn table_is_well_formed() {
    let names = DRILLS.map(|d| d.name);
    assert_eq!(
        names,
        [
            "baseline",
            "nan_storm",
            "latency_spike",
            "panic_wave",
            "queue_flood",
            "breaker_recovery",
            "quality_drift",
            "cache_drift_invalidation",
            "cluster_corrupt_swap",
            "net_conn_storm",
            "net_slow_client",
            "net_disconnect",
            "net_drain_under_load",
            "cluster_replica_kill",
            "cluster_router_partition",
            "cluster_trace_loss",
        ],
        "16 rows, unique names, the parent's run order"
    );
    assert!(DRILLS.iter().all(|d| !d.description.is_empty()));

    // Every drill the README or CI asks `chaos_drill` for is a row.
    for doc in [
        include_str!("../../../README.md"),
        include_str!("../../../.github/workflows/ci.yml"),
    ] {
        for asked in doc.split("--scenario ").skip(1) {
            let name = asked
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default();
            let known = name.is_empty() || name == "all" || names.contains(&name);
            assert!(known, "a document asks for --scenario {name}, not a row");
        }
    }
}
