//! Chaos drill: run the standing resilience drills ([`odt_eval::drill::DRILLS`])
//! and report each one's outcome.
//!
//! ```text
//! chaos_drill [--scenario <name>|all] [--seed <u64>] [--quick]
//!             [--report <path>] [--flightrec-dir <dir>]
//! ```
//!
//! * `--scenario` — one row of the table by name, or `all` (default); an
//!   unknown name exits 2 and prints the table's names.
//! * `--seed` — perturbs every fault stream and pins the trace ids (default
//!   7); the same seed replays the same faults.
//! * `--quick` — smaller waves, CI smoke mode.
//! * `--report` — JSONL report path (default `CHAOS_drill.jsonl`).
//! * `--flightrec-dir` — flight-recorder dump directory (default
//!   `CHAOS_flightrec`; `ODT_FLIGHTREC_DIR` overrides).
//!
//! Every drill runs fully traced (head sampling forced to 1-in-1 unless
//! `ODT_TRACE_SAMPLE` overrides it) under a root trace whose id is in its
//! report line; incident paths (breaker trips, deadline breaches)
//! force-retain the offending request's trace and dump the flight recorder,
//! so a failed drill ships its own evidence.
//!
//! The report is one JSON object per line, schema `odt-chaos-drill/v3`: a
//! `kind: "scenario"` line per drill (the head, then each evidence block the
//! drill observed under its own key, then `violations` and `pass`) and a
//! final `kind: "summary"` line. Exit status is 1 if any drill violated an
//! expectation.

use odt_eval::drill::{Drill, DrillCtx, DrillOutcome, DRILLS};
use odt_obs::json;
use std::time::Instant;

const SCHEMA: &str = "odt-chaos-drill/v3";

/// What wrapping a drill recorded: the id of its own root trace, the
/// flight-recorder dumps it caused, how long it took.
struct DrillTrace {
    trace_id: Option<String>,
    dumps: u64,
    last_dump: Option<String>,
    wall_seconds: f64,
}

impl DrillTrace {
    /// Run a drill under a root trace of its own: request roots nest above
    /// it on the context stack, and force-retaining it keeps the drill's id
    /// resolvable in the retained set even when every request sails through.
    fn around(run: impl FnOnce() -> DrillOutcome) -> (DrillOutcome, DrillTrace) {
        let root = odt_obs::trace::root_span("chaos.scenario");
        odt_obs::trace::force_retain_current("chaos_scenario");
        let dumps_before = odt_obs::flightrec::dump_count();
        let started = Instant::now();
        let outcome = run();
        let wall_seconds = started.elapsed().as_secs_f64();
        let trace_id = root.trace_id().map(|t| t.to_hex());
        drop(root);
        let dumps = odt_obs::flightrec::dump_count() - dumps_before;
        let last_dump = odt_obs::flightrec::last_dump()
            .filter(|_| dumps > 0)
            .map(|p| p.display().to_string());
        let trace = DrillTrace {
            trace_id,
            dumps,
            last_dump,
            wall_seconds,
        };
        (outcome, trace)
    }

    /// One `kind: "scenario"` line: the head, the drill's evidence blocks,
    /// then the violations and the verdict they imply.
    fn line(&self, drill: &Drill, seed: u64, quick: bool, o: &DrillOutcome) -> String {
        json::object_string(|line| {
            line.field("schema", SCHEMA)
                .field("kind", "scenario")
                .field("name", drill.name)
                .field("description", drill.description)
                .field("trace_id", self.trace_id.as_deref())
                .object("flightrec", |f| {
                    f.field("dumps", self.dumps)
                        .field("last_dump", self.last_dump.as_deref());
                })
                .field("seed", seed)
                .field("quick", quick)
                .field("wall_seconds", self.wall_seconds)
                .field("submitted", o.submitted)
                .field("admitted", o.admitted)
                .field("served", o.served)
                .field("answer_rate", o.answer_rate());
            o.evidence(line);
            line.field("violations", &o.violations[..])
                .field("pass", o.violations.is_empty());
        })
    }
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

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed must be an integer"))
        .unwrap_or(7);
    let which = arg_value("--scenario").unwrap_or_else(|| "all".to_string());
    let report_path = arg_value("--report").unwrap_or_else(|| "CHAOS_drill.jsonl".to_string());
    let selected: Vec<&Drill> = DRILLS
        .iter()
        .filter(|d| which == "all" || which == d.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = DRILLS.iter().map(|d| d.name).collect();
        eprintln!("unknown scenario {which:?}; available: {names:?} or \"all\"");
        std::process::exit(2);
    }
    odt_compute::ensure_initialized();

    // Drills trace every request unless the operator asked otherwise: the
    // whole point of a drill is that anomalies keep their evidence. The same
    // `--seed` mints the same trace ids (`ODT_TRACE_SEED` still overrides).
    odt_obs::trace::set_trace_seed(seed);
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

    let total = selected.len();
    println!("chaos drill: {total} scenario(s), seed {seed}, quick={quick}");
    let ctx = DrillCtx::new(seed, quick);
    let mut report = String::new();
    let mut failed = 0;
    for drill in &selected {
        let (outcome, trace) = DrillTrace::around(|| (drill.run)(&ctx));
        let verdict = if outcome.violations.is_empty() {
            "PASS".to_string()
        } else {
            failed += 1;
            format!("FAIL: {}", outcome.violations.join("; "))
        };
        println!(
            "  {:<24} {:>3}/{:<3} served  {:>5.2}s  {verdict}",
            drill.name, outcome.served, outcome.submitted, trace.wall_seconds
        );
        report.push_str(&trace.line(drill, seed, quick, &outcome));
        report.push('\n');
    }
    report.push_str(&summary_line(seed, quick, total, failed));
    report.push('\n');
    std::fs::write(&report_path, report).unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
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

    fn keys(v: &JsonValue) -> String {
        let JsonValue::Obj(fields) = v else {
            panic!("not an object: {v:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &k[..]).collect();
        keys.join(",")
    }

    /// An outcome holding exactly the named evidence blocks, each at its default.
    fn holding(blocks: &str) -> DrillOutcome {
        fn on<T: Default>(blocks: &str, key: &str) -> Option<T> {
            blocks.split(',').any(|b| b == key).then(T::default)
        }
        DrillOutcome {
            frontend: on(blocks, "frontend"),
            adopted_traces: on(blocks, "adopted_traces"),
            quality: on(blocks, "quality"),
            cache: on(blocks, "cache"),
            flush: on(blocks, "flush"),
            replies: on(blocks, "replies"),
            conns: on(blocks, "conns"),
            drain: on(blocks, "drain"),
            cluster: on(blocks, "cluster"),
            swap: on(blocks, "swap"),
            candidates: on(blocks, "candidates"),
            ..DrillOutcome::default()
        }
    }

    /// The head every scenario line opens with, the evidence blocks each
    /// drill family puts between it and the verdict, the members
    /// `chaos-smoke` reads, and the summary line.
    #[test]
    fn report_keys_and_types_are_pinned() {
        const HEAD: &str = "schema,kind,name,description,trace_id,flightrec,seed,quick,\
                            wall_seconds,submitted,admitted,served,answer_rate";
        let mut trace = DrillTrace {
            trace_id: Some("00ab".into()),
            dumps: 1,
            last_dump: Some("dir/dump.jsonl".into()),
            wall_seconds: 0.25,
        };
        let line = |t: &DrillTrace, o: &DrillOutcome| t.line(&DRILLS[0], 7, true, o);
        // Serving, quality, cache drift, swap, net, cluster.
        for blocks in [
            "frontend",
            "quality",
            "frontend,quality,cache,flush",
            "frontend,swap,candidates",
            "frontend,adopted_traces,replies,conns,drain",
            "replies,conns,drain,cluster",
        ] {
            let doc = JsonValue::parse(&line(&trace, &holding(blocks))).unwrap();
            assert_eq!(keys(&doc), format!("{HEAD},{blocks},violations,pass"));
        }
        let doc = JsonValue::parse(&line(&trace, &holding("frontend"))).unwrap();
        let frontend = |key| doc.get("frontend").unwrap().get(key).unwrap();
        let rungs = "cached,full_ddpm,ddim,ddim_reduced,cached_stale,fallback";
        assert_eq!(keys(frontend("rung_hits")), rungs);
        let trips = frontend("breaker").get("trips").unwrap();
        assert_eq!(trips.as_arr().unwrap().len(), 5);

        let failed = DrillOutcome {
            submitted: 10,
            admitted: Some(9),
            served: 8,
            violations: vec!["late".to_string()],
            ..holding("adopted_traces")
        };
        assert_eq!(
            line(&trace, &failed),
            "{\"schema\":\"odt-chaos-drill/v3\",\"kind\":\"scenario\",\"name\":\"baseline\",\
             \"description\":\"no faults: everything serves at full fidelity\",\
             \"trace_id\":\"00ab\",\"flightrec\":{\"dumps\":1,\"last_dump\":\"dir/dump.jsonl\"},\
             \"seed\":7,\"quick\":true,\"wall_seconds\":0.25,\"submitted\":10,\"admitted\":9,\
             \"served\":8,\"answer_rate\":0.8,\"adopted_traces\":0,\"violations\":[\"late\"],\
             \"pass\":false}"
        );
        // Tracing off, no dump, no frontend: `null`, which the gates test for.
        (trace.trace_id, trace.last_dump, trace.dumps) = (None, None, 0);
        assert_eq!(
            line(&trace, &holding("")),
            "{\"schema\":\"odt-chaos-drill/v3\",\"kind\":\"scenario\",\"name\":\"baseline\",\
             \"description\":\"no faults: everything serves at full fidelity\",\
             \"trace_id\":null,\"flightrec\":{\"dumps\":0,\"last_dump\":null},\
             \"seed\":7,\"quick\":true,\"wall_seconds\":0.25,\"submitted\":0,\"admitted\":null,\
             \"served\":0,\"answer_rate\":1,\"violations\":[],\"pass\":true}"
        );

        // No drill ran in this process, so the trace and dump counters read 0.
        assert_eq!(
            summary_line(7, true, 16, 1),
            "{\"schema\":\"odt-chaos-drill/v3\",\"kind\":\"summary\",\"seed\":7,\"quick\":true,\
             \"scenarios\":16,\"passed\":15,\"failed\":1,\"traces_finished\":0,\
             \"traces_retained\":0,\"flightrec_dumps\":0,\"pass\":false}"
        );
    }
}
