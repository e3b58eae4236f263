//! `cluster_report`: the single pane for cross-process traces — pull
//! `/tracez` from the router and every replica, stitch fragments of the
//! same trace id back into one tree, and break the critical path down by
//! pipeline stage (router queue → wire hop → shard queue → denoise →
//! estimator → kernels).
//!
//! ```text
//! cluster_report --source <admin_addr | tracez.json> [--source ...]
//!                [--out <path>] [--perfetto <path>] [--timeout-ms <ms>]
//! ```
//!
//! * `--source`   — one `/tracez` payload per flag: an admin address
//!                  (`host:port`, fetched live over HTTP) or a path to a
//!                  saved payload. Give the router AND every replica —
//!                  stitching needs both sides of each wire hop.
//! * `--out`      — write the aggregate as `odt-cluster-report/v1` JSON.
//! * `--perfetto` — also export a Chrome-trace/Perfetto JSON where each
//!                  process is its own track (`pid` = source, `tid`
//!                  preserved), one stitched trace after another.
//!
//! Stitching: every process tags its `/tracez` fragments with the
//! process-local span ordinals plus `parent_span` — the *caller's* span
//! ordinal carried over `odt-wire/v1` (`0` = rooted here). Fragments
//! sharing a trace id are joined by remapping each fragment's ordinals
//! into a disjoint global id range and re-parenting each remote
//! fragment's root under the caller span of that ordinal (for a routed
//! request: the router's `router.downstream` hop — a failover retry shows
//! up as two hops under one router root, only the second having a shard
//! fragment attached). Clocks are per-process, so a remote fragment's
//! timeline is rebased to start at its caller span's start; the skew
//! (wire + framing time) is exactly the hop span's self time.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Duration;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_values(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// One span as a process reported it (ordinals are process-local).
#[derive(Clone)]
struct Span {
    span_id: u64,
    parent_id: u64,
    name: String,
    start_us: u64,
    dur_us: u64,
    tid: u64,
}

/// One process's view of one trace.
struct Fragment {
    source: usize,
    trace_id: String,
    root: String,
    parent_span: u64,
    request_id: Option<u64>,
    start_us: u64,
    dur_us: u64,
    spans: Vec<Span>,
}

/// A span after stitching: globally unique ids, a source track, and a
/// timeline rebased so every fragment hangs off its caller's clock.
struct GSpan {
    id: u64,
    parent: u64,
    name: String,
    source: usize,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

struct Stitched {
    trace_id: String,
    root_name: String,
    request_id: Option<u64>,
    dur_us: u64,
    sources: Vec<usize>,
    spans: Vec<GSpan>,
    orphan_fragments: usize,
}

/// The coarse pipeline stage of a span name, in critical-path order.
fn stage_of(name: &str) -> &'static str {
    if name == "router.request" {
        "router"
    } else if name.starts_with("router.queue") {
        "router_queue"
    } else if name.starts_with("router.downstream") {
        "wire"
    } else if name.starts_with("serve.queue") {
        "shard_queue"
    } else if name.starts_with("serve.rung") || name == "serve.request" {
        "serving"
    } else if name.starts_with("stage1.denoise") {
        "denoise"
    } else if name.starts_with("oracle.estimator") || name.starts_with("stage2") {
        "estimator"
    } else if name.starts_with("compute.") || name.starts_with("kernel") {
        "kernel"
    } else {
        "other"
    }
}

/// Pipeline display order — the order a routed request traverses stages.
const STAGE_ORDER: [&str; 9] = [
    "router",
    "router_queue",
    "wire",
    "shard_queue",
    "serving",
    "denoise",
    "estimator",
    "kernel",
    "other",
];

/// Fetch one source: a file path if one exists there, else an HTTP GET
/// of `/tracez` against an admin address.
fn fetch_source(spec: &str, timeout: Duration) -> String {
    if std::path::Path::new(spec).is_file() {
        return std::fs::read_to_string(spec).unwrap_or_else(|e| panic!("reading {spec}: {e}"));
    }
    match odt_net::http_get(spec, "/tracez", timeout) {
        Some((200, body)) => body,
        Some((status, _)) => panic!("{spec}/tracez answered HTTP {status}"),
        None => panic!("{spec}/tracez unreachable (not a file, not a live admin)"),
    }
}

/// Parse one `/tracez` payload into its instance name and fragments.
fn parse_payload(source: usize, body: &str) -> (String, Vec<Fragment>) {
    let v: Value =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("source {source}: bad JSON: {e}"));
    assert_eq!(
        v["schema"].as_str(),
        Some("odt-tracez/v1"),
        "source {source}: not an odt-tracez/v1 payload"
    );
    let instance = v["instance"].as_str().unwrap_or("?").to_string();
    let mut frags = Vec::new();
    for t in v["traces"].as_array().map(Vec::as_slice).unwrap_or(&[]) {
        frags.push(Fragment {
            source,
            trace_id: t["trace_id"].as_str().unwrap_or("0").to_string(),
            root: t["root"].as_str().unwrap_or("?").to_string(),
            parent_span: t["parent_span"].as_u64().unwrap_or(0),
            request_id: t["request_id"].as_u64(),
            start_us: t["start_us"].as_u64().unwrap_or(0),
            dur_us: t["dur_us"].as_u64().unwrap_or(0),
            spans: t["spans"]
                .as_array()
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(|s| Span {
                    span_id: s["span_id"].as_u64().unwrap_or(0),
                    parent_id: s["parent_id"].as_u64().unwrap_or(0),
                    name: s["name"].as_str().unwrap_or("?").to_string(),
                    start_us: s["start_us"].as_u64().unwrap_or(0),
                    dur_us: s["dur_us"].as_u64().unwrap_or(0),
                    tid: s["tid"].as_u64().unwrap_or(0),
                })
                .collect(),
        });
    }
    (instance, frags)
}

/// Stitch one trace id's fragments into a single globally-id'd tree.
fn stitch(trace_id: &str, mut frags: Vec<Fragment>) -> Stitched {
    // The root fragment owns ordinal space first; prefer an explicit
    // local root (parent_span == 0), routers over shards when both claim
    // it (a shard hit directly by a traced client also roots locally).
    let root_idx = frags
        .iter()
        .position(|f| f.parent_span == 0 && f.root.starts_with("router."))
        .or_else(|| frags.iter().position(|f| f.parent_span == 0))
        .unwrap_or(0);
    frags.swap(0, root_idx);

    // Disjoint global id ranges: fragment i's ordinal k maps to
    // offset[i] + k. Ordinals are small and dense, so offsets stay small.
    let mut offsets = Vec::with_capacity(frags.len());
    let mut next = 0u64;
    for f in &frags {
        offsets.push(next);
        next += f.spans.iter().map(|s| s.span_id).max().unwrap_or(0) + 1;
    }

    // Attach each non-root fragment under the caller span of its
    // `parent_span` ordinal: any *other* fragment that has that ordinal,
    // the root fragment preferred (the common shape is star-around-router).
    // The attach also fixes the clock: the remote fragment is rebased so
    // its root starts when the caller span started.
    let mut attach: Vec<Option<(usize, u64)>> = vec![None; frags.len()]; // (frag, ordinal)
    let mut orphan_fragments = 0usize;
    for i in 1..frags.len() {
        let want = frags[i].parent_span;
        if want == 0 {
            orphan_fragments += 1; // two local roots under one trace id
            continue;
        }
        let found = std::iter::once(0)
            .chain(1..frags.len())
            .filter(|&j| j != i)
            .find(|&j| frags[j].spans.iter().any(|s| s.span_id == want));
        match found {
            Some(j) => attach[i] = Some((j, want)),
            None => orphan_fragments += 1,
        }
    }

    // Each fragment's rebase: global ts of its local-clock zero. Resolve
    // root-first; a fragment attached to an unresolved fragment (chained
    // hops) picks its base up on a later pass.
    let mut base: Vec<Option<u64>> = vec![None; frags.len()];
    base[0] = Some(0);
    let caller_span_start = |j: usize, ordinal: u64| -> u64 {
        frags[j]
            .spans
            .iter()
            .find(|s| s.span_id == ordinal)
            .map(|s| s.start_us.saturating_sub(frags[j].start_us))
            .unwrap_or(0)
    };
    for _ in 0..frags.len() {
        for i in 1..frags.len() {
            if base[i].is_some() {
                continue;
            }
            match attach[i] {
                Some((j, ord)) => {
                    if let Some(b) = base[j] {
                        base[i] = Some(b + caller_span_start(j, ord));
                    }
                }
                None => base[i] = Some(0), // orphan: leave it on the root's track origin
            }
        }
    }

    let mut spans = Vec::new();
    let mut sources = Vec::new();
    for (i, f) in frags.iter().enumerate() {
        if !sources.contains(&f.source) {
            sources.push(f.source);
        }
        let b = base[i].unwrap_or(0);
        for s in &f.spans {
            // A remote fragment's root re-parents onto its caller span.
            let parent = if s.parent_id == 0 {
                match attach[i] {
                    Some((j, ord)) => offsets[j] + ord,
                    None => 0,
                }
            } else {
                offsets[i] + s.parent_id
            };
            spans.push(GSpan {
                id: offsets[i] + s.span_id,
                parent,
                name: s.name.clone(),
                source: f.source,
                ts_us: b + s.start_us.saturating_sub(f.start_us),
                dur_us: s.dur_us,
                tid: s.tid,
            });
        }
    }
    Stitched {
        trace_id: trace_id.to_string(),
        root_name: frags[0].root.clone(),
        request_id: frags[0].request_id,
        dur_us: frags[0].dur_us,
        sources,
        spans,
        orphan_fragments,
    }
}

#[derive(Default, Clone)]
struct Agg {
    count: u64,
    total_us: u64,
    self_us: u64,
}

fn main() {
    let sources = arg_values("--source");
    if sources.is_empty() {
        eprintln!(
            "usage: cluster_report --source <admin_addr|tracez.json> [--source ...] \
             [--out <path>] [--perfetto <path>] [--timeout-ms <ms>]"
        );
        std::process::exit(2);
    }
    let timeout = Duration::from_millis(
        arg_value("--timeout-ms")
            .map(|v| v.parse().expect("--timeout-ms must be an integer"))
            .unwrap_or(2_000),
    );

    // Pull every payload, then bucket fragments by trace id.
    let mut instances: Vec<String> = Vec::new();
    let mut by_trace: BTreeMap<String, Vec<Fragment>> = BTreeMap::new();
    let mut fragments_total = 0usize;
    for (i, spec) in sources.iter().enumerate() {
        let body = fetch_source(spec, timeout);
        let (instance, frags) = parse_payload(i, &body);
        println!(
            "source {instance} ({spec}): {} trace fragment(s)",
            frags.len()
        );
        instances.push(instance);
        fragments_total += frags.len();
        for f in frags {
            by_trace.entry(f.trace_id.clone()).or_default().push(f);
        }
    }

    let stitched: Vec<Stitched> = by_trace
        .into_iter()
        .map(|(id, frags)| stitch(&id, frags))
        .collect();
    let cross: Vec<&Stitched> = stitched.iter().filter(|t| t.sources.len() >= 2).collect();
    let orphans: usize = stitched.iter().map(|t| t.orphan_fragments).sum();
    println!(
        "{} fragment(s) → {} stitched trace(s), {} cross-process, {} orphan fragment(s)",
        fragments_total,
        stitched.len(),
        cross.len(),
        orphans
    );

    // Stage rollup over the *stitched* trees: self time recomputed with
    // cross-process children subtracted, so the `wire` stage's self time
    // is the hop minus the shard's whole fragment — network + framing.
    let mut by_stage: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
    let mut root_total_us = 0u64;
    for t in &stitched {
        root_total_us += t.dur_us;
        let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &t.spans {
            *child_sum.entry(s.parent).or_default() += s.dur_us;
        }
        for s in &t.spans {
            let own = s
                .dur_us
                .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
            for a in [
                by_stage.entry(stage_of(&s.name)).or_default(),
                by_name.entry(s.name.clone()).or_default(),
            ] {
                a.count += 1;
                a.total_us += s.dur_us;
                a.self_us += own;
            }
        }
    }

    let ms = |us: u64| us as f64 / 1_000.0;
    let denom = root_total_us.max(1) as f64;
    println!("\ncritical path by stage (self time, pipeline order):");
    println!(
        "  {:<14} {:>8} {:>12} {:>12} {:>7}",
        "stage", "spans", "total ms", "self ms", "self %"
    );
    for stage in STAGE_ORDER {
        if let Some(a) = by_stage.get(stage) {
            println!(
                "  {:<14} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                stage,
                a.count,
                ms(a.total_us),
                ms(a.self_us),
                a.self_us as f64 / denom * 100.0
            );
        }
    }

    let agg_json = |m: &BTreeMap<String, Agg>| -> Value {
        Value::Object(
            m.iter()
                .map(|(k, a)| {
                    (
                        k.clone(),
                        json!({"count": a.count, "total_us": a.total_us, "self_us": a.self_us}),
                    )
                })
                .collect(),
        )
    };
    let trace_rows: Vec<Value> = stitched
        .iter()
        .map(|t| {
            let mut stages: BTreeMap<&'static str, u64> = BTreeMap::new();
            for s in &t.spans {
                *stages.entry(stage_of(&s.name)).or_default() += s.dur_us;
            }
            json!({
                "trace_id": t.trace_id,
                "root": t.root_name,
                "request_id": t.request_id,
                "dur_us": t.dur_us,
                "processes": t.sources.iter().map(|&s| instances[s].clone()).collect::<Vec<_>>(),
                "spans": t.spans.len(),
                "downstream_hops": t.spans.iter().filter(|s| s.name == "router.downstream").count(),
                "stages": stages,
                "orphan_fragments": t.orphan_fragments,
            })
        })
        .collect();

    if let Some(out) = arg_value("--out") {
        let stages: BTreeMap<String, Agg> = by_stage
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let report = json!({
            "schema": "odt-cluster-report/v1",
            "sources": instances,
            "fragments": fragments_total,
            "stitched": stitched.len(),
            "cross_process": cross.len(),
            "orphan_fragments": orphans,
            "mean_root_us": root_total_us as f64 / stitched.len().max(1) as f64,
            "stages": agg_json(&stages),
            "spans": agg_json(&by_name),
            "traces": trace_rows,
        });
        std::fs::write(&out, format!("{report:#}\n"))
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("\nwrote {out}");
    }

    if let Some(path) = arg_value("--perfetto") {
        // Chrome-trace JSON: one pid per source process (named tracks),
        // stitched traces laid out one after another with a visual gap.
        let mut events: Vec<Value> = instances
            .iter()
            .enumerate()
            .map(|(pid, name)| {
                json!({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": name}})
            })
            .collect();
        let mut cursor = 0u64;
        for t in &stitched {
            for s in &t.spans {
                events.push(json!({
                    "name": s.name, "cat": stage_of(&s.name), "ph": "X",
                    "ts": cursor + s.ts_us, "dur": s.dur_us.max(1),
                    "pid": s.source, "tid": s.tid,
                    "args": {"trace_id": t.trace_id, "span_id": s.id, "parent": s.parent},
                }));
            }
            let end = t
                .spans
                .iter()
                .map(|s| s.ts_us + s.dur_us)
                .max()
                .unwrap_or(0);
            cursor += end + 1_000;
        }
        let doc = json!({"traceEvents": events, "displayTimeUnit": "ms"});
        std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path} ({} events)", events.len());
    }

    if stitched.is_empty() {
        eprintln!("no traces in any source — is trace retention on (ODT_TRACE=1)?");
        std::process::exit(1);
    }
}
