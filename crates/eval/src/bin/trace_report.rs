//! `trace_report`: where a request's wall-clock went, read from
//! `odt-tracez/v1` payloads. Fragments of one trace id seen by several
//! processes are stitched back into one tree, and every span's *self* time
//! (its duration minus its direct children's, clamped at zero: children
//! on pool workers can overlap their parent, and overlap goes to the
//! child) is rolled up by pipeline stage (router queue → wire hop → shard
//! queue → denoise → estimator → kernels) and by span name. One source is
//! a cluster of one: nothing stitches and the rollup is that process's.
//!
//! ```text
//! trace_report --source <admin_addr | tracez.json> [--source ...]
//!              [--root <name>] [--out <path>] [--perfetto <path>]
//!              [--timeout-ms <ms>]
//! ```
//!
//! * `--source`   — one `/tracez` payload per flag: an admin address
//!   (`host:port`, fetched live over HTTP) or a path to a saved payload
//!   (a `GET /tracez` body kept in a file). For a cluster give
//!   the router AND every replica: stitching needs both sides of each
//!   wire hop.
//! * `--root`     — only report traces whose (stitched) root span has
//!   this name.
//! * `--out`      — write the aggregate as `odt-trace-report/v2` JSON.
//! * `--perfetto` — also export a Chrome-trace/Perfetto JSON where each
//!   process is its own track (`pid` = source, `tid` preserved), one
//!   stitched trace after another.
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

use odt_obs::json::{self, JsonValue, Obj};
use std::collections::{BTreeMap, BTreeSet};
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
    retain_reasons: Vec<String>,
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
    /// Every fragment's force-retention reasons, each once.
    retain_reasons: BTreeSet<String>,
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
    fn text(v: &JsonValue, key: &str, default: &str) -> String {
        let found = v.get(key).and_then(JsonValue::as_str);
        found.unwrap_or(default).to_string()
    }
    fn count(v: &JsonValue, key: &str) -> Option<u64> {
        v.get(key).and_then(JsonValue::as_u64)
    }
    fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        v.get(key).and_then(JsonValue::as_arr).unwrap_or_default()
    }
    let v = JsonValue::parse(body).unwrap_or_else(|e| panic!("source {source}: bad JSON: {e}"));
    assert_eq!(
        text(&v, "schema", "?"),
        "odt-tracez/v1",
        "source {source}: not an odt-tracez/v1 payload"
    );
    let frags = items(&v, "traces")
        .iter()
        .map(|t| Fragment {
            source,
            trace_id: text(t, "trace_id", "0"),
            root: text(t, "root", "?"),
            parent_span: count(t, "parent_span").unwrap_or(0),
            request_id: count(t, "request_id"),
            start_us: count(t, "start_us").unwrap_or(0),
            dur_us: count(t, "dur_us").unwrap_or(0),
            retain_reasons: items(t, "retain_reasons")
                .iter()
                .filter_map(|r| r.as_str().map(str::to_string))
                .collect(),
            spans: items(t, "spans")
                .iter()
                .map(|s| Span {
                    span_id: count(s, "span_id").unwrap_or(0),
                    parent_id: count(s, "parent_id").unwrap_or(0),
                    name: text(s, "name", "?"),
                    start_us: count(s, "start_us").unwrap_or(0),
                    dur_us: count(s, "dur_us").unwrap_or(0),
                    tid: count(s, "tid").unwrap_or(0),
                })
                .collect(),
        })
        .collect();
    (text(&v, "instance", "?"), frags)
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
    let mut retain_reasons = BTreeSet::new();
    for (i, f) in frags.iter().enumerate() {
        if !sources.contains(&f.source) {
            sources.push(f.source);
        }
        retain_reasons.extend(f.retain_reasons.iter().cloned());
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
        retain_reasons,
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

/// Every source's fragments, stitched per trace id (in trace-id order);
/// with a `root` filter, only the trees whose root span has that name.
fn stitch_all(frags: Vec<Fragment>, root: Option<&str>) -> Vec<Stitched> {
    let mut by_trace: BTreeMap<String, Vec<Fragment>> = BTreeMap::new();
    for f in frags {
        by_trace.entry(f.trace_id.clone()).or_default().push(f);
    }
    by_trace
        .into_iter()
        .map(|(id, frags)| stitch(&id, frags))
        .filter(|t| root.is_none_or(|r| r == t.root_name))
        .collect()
}

/// The stage and span rollups over the stitched trees.
struct Rollup {
    root_total_us: u64,
    retain_reasons: BTreeMap<String, u64>,
    by_stage: BTreeMap<&'static str, Agg>,
    by_name: BTreeMap<String, Agg>,
}

/// Self time is recomputed with cross-process children subtracted, so the
/// `wire` stage's self time is the hop minus the shard's whole fragment —
/// network + framing.
fn rollup(stitched: &[Stitched]) -> Rollup {
    let mut by_stage: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
    let mut root_total_us = 0u64;
    let mut retain_reasons: BTreeMap<String, u64> = BTreeMap::new();
    for t in stitched {
        root_total_us += t.dur_us;
        for r in &t.retain_reasons {
            *retain_reasons.entry(r.clone()).or_default() += 1;
        }
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
    Rollup {
        root_total_us,
        retain_reasons,
        by_stage,
        by_name,
    }
}

/// The `--out` document, schema `odt-trace-report/v2`.
fn report_json(
    instances: &[String],
    fragments: usize,
    stitched: &[Stitched],
    rollup: &Rollup,
) -> String {
    fn aggs<'a>(o: &mut Obj<'_, String>, rows: impl Iterator<Item = (&'a str, &'a Agg)>) {
        for (name, a) in rows {
            o.object(name, |o| {
                o.field("count", a.count)
                    .field("total_us", a.total_us)
                    .field("self_us", a.self_us);
            });
        }
    }
    let cross = stitched.iter().filter(|t| t.sources.len() >= 2).count();
    let orphans: usize = stitched.iter().map(|t| t.orphan_fragments).sum();
    json::object_string(|o| {
        o.field("schema", "odt-trace-report/v2")
            .field("sources", instances)
            .field("fragments", fragments)
            .field("stitched", stitched.len())
            .field("cross_process", cross)
            .field("orphan_fragments", orphans)
            .field(
                "mean_root_us",
                rollup.root_total_us as f64 / stitched.len().max(1) as f64,
            )
            .object("retain_reasons", |o| {
                for (reason, n) in &rollup.retain_reasons {
                    o.field(reason, *n);
                }
            })
            .object("stages", |o| {
                aggs(o, rollup.by_stage.iter().map(|(k, a)| (*k, a)))
            })
            .object("spans", |o| {
                aggs(o, rollup.by_name.iter().map(|(k, a)| (k.as_str(), a)))
            })
            .array("traces", |a| {
                for t in stitched {
                    let mut stages: BTreeMap<&'static str, u64> = BTreeMap::new();
                    for s in &t.spans {
                        *stages.entry(stage_of(&s.name)).or_default() += s.dur_us;
                    }
                    let hops = t.spans.iter().filter(|s| s.name == "router.downstream");
                    a.object(|o| {
                        o.field("trace_id", &t.trace_id)
                            .field("root", &t.root_name)
                            .field("request_id", t.request_id)
                            .field("dur_us", t.dur_us)
                            .array("processes", |a| {
                                for &s in &t.sources {
                                    a.item(&instances[s]);
                                }
                            })
                            .field("spans", t.spans.len())
                            .field("downstream_hops", hops.count())
                            .object("stages", |o| {
                                for (stage, us) in &stages {
                                    o.field(stage, *us);
                                }
                            })
                            .field("orphan_fragments", t.orphan_fragments);
                    });
                }
            });
    })
}

/// The `--perfetto` document and its event count: Chrome-trace JSON, one
/// pid per source process (named tracks), stitched traces laid out one
/// after another with a visual gap.
fn perfetto_json(instances: &[String], stitched: &[Stitched]) -> (String, usize) {
    let mut events = 0usize;
    let doc = json::object_string(|o| {
        o.array("traceEvents", |a| {
            for (pid, name) in instances.iter().enumerate() {
                a.object(|o| {
                    o.field("name", "process_name")
                        .field("ph", "M")
                        .field("pid", pid)
                        .field("tid", 0u8)
                        .object("args", |o| {
                            o.field("name", name);
                        });
                });
            }
            let mut cursor = 0u64;
            for t in stitched {
                for s in &t.spans {
                    a.object(|o| {
                        o.field("name", &s.name)
                            .field("cat", stage_of(&s.name))
                            .field("ph", "X")
                            .field("ts", cursor + s.ts_us)
                            .field("dur", s.dur_us.max(1))
                            .field("pid", s.source)
                            .field("tid", s.tid)
                            .object("args", |o| {
                                o.field("trace_id", &t.trace_id)
                                    .field("span_id", s.id)
                                    .field("parent", s.parent);
                            });
                    });
                }
                let end = t.spans.iter().map(|s| s.ts_us + s.dur_us).max();
                cursor += end.unwrap_or(0) + 1_000;
                events += t.spans.len();
            }
        })
        .field("displayTimeUnit", "ms");
    });
    (doc, instances.len() + events)
}

fn main() {
    let sources = arg_values("--source");
    if sources.is_empty() {
        eprintln!(
            "usage: trace_report --source <admin_addr|tracez.json> [--source ...] \
             [--root <name>] [--out <path>] [--perfetto <path>] [--timeout-ms <ms>]"
        );
        std::process::exit(2);
    }
    let timeout = Duration::from_millis(
        arg_value("--timeout-ms")
            .map(|v| v.parse().expect("--timeout-ms must be an integer"))
            .unwrap_or(2_000),
    );

    // Pull every payload, then stitch fragments by trace id.
    let mut instances: Vec<String> = Vec::new();
    let mut fragments: Vec<Fragment> = Vec::new();
    for (i, spec) in sources.iter().enumerate() {
        let body = fetch_source(spec, timeout);
        let (instance, frags) = parse_payload(i, &body);
        println!(
            "source {instance} ({spec}): {} trace fragment(s)",
            frags.len()
        );
        instances.push(instance);
        fragments.extend(frags);
    }
    let fragments_total = fragments.len();
    let stitched = stitch_all(fragments, arg_value("--root").as_deref());
    let rollup = rollup(&stitched);
    let ms = |us: u64| us as f64 / 1_000.0;
    let denom = rollup.root_total_us.max(1) as f64;
    println!(
        "{} fragment(s) → {} trace(s), {} cross-process, {} orphan fragment(s), \
         mean root latency {:.3} ms",
        fragments_total,
        stitched.len(),
        stitched.iter().filter(|t| t.sources.len() >= 2).count(),
        stitched.iter().map(|t| t.orphan_fragments).sum::<usize>(),
        ms(rollup.root_total_us) / stitched.len().max(1) as f64
    );
    if !rollup.retain_reasons.is_empty() {
        let reasons: Vec<String> = rollup
            .retain_reasons
            .iter()
            .map(|(r, c)| format!("{r}={c}"))
            .collect();
        println!("retain reasons: {}", reasons.join(", "));
    }
    println!("\ncritical path by stage (self time, pipeline order):");
    println!(
        "  {:<14} {:>8} {:>12} {:>12} {:>7}",
        "stage", "spans", "total ms", "self ms", "self %"
    );
    for stage in STAGE_ORDER {
        if let Some(a) = rollup.by_stage.get(stage) {
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
    println!("\nper-span breakdown (by self time):");
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "self ms", "mean µs"
    );
    let mut names: Vec<(&String, &Agg)> = rollup.by_name.iter().collect();
    names.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_us));
    for (name, a) in names {
        println!(
            "  {:<28} {:>8} {:>12.3} {:>12.3} {:>12.1}",
            name,
            a.count,
            ms(a.total_us),
            ms(a.self_us),
            a.total_us as f64 / a.count.max(1) as f64
        );
    }

    if let Some(out) = arg_value("--out") {
        let report = report_json(&instances, fragments_total, &stitched, &rollup);
        std::fs::write(&out, report + "\n").unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("\nwrote {out}");
    }

    if let Some(path) = arg_value("--perfetto") {
        let (doc, events) = perfetto_json(&instances, &stitched);
        std::fs::write(&path, doc + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path} ({events} events)");
    }

    if stitched.is_empty() {
        eprintln!("no traces (after --root) in any source: is ODT_TRACE_SAMPLE set?");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &JsonValue) -> Vec<&str> {
        match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn num(v: &JsonValue, key: &str) -> Option<u64> {
        v.get(key).and_then(JsonValue::as_u64)
    }

    fn load(payloads: &[&str]) -> (Vec<String>, Vec<Fragment>) {
        let mut instances = Vec::new();
        let mut fragments = Vec::new();
        for (i, body) in payloads.iter().enumerate() {
            let (instance, frags) = parse_payload(i, body);
            instances.push(instance);
            fragments.extend(frags);
        }
        (instances, fragments)
    }

    /// One source is a cluster of one: the rollup the JSONL-reading
    /// `trace_report` gave for the same spans, `--root` and the reasons.
    #[test]
    fn one_source_rolls_up_by_stage_and_span_and_honours_the_root_filter() {
        let bench = r#"{"schema":"odt-tracez/v1","instance":"pid-7","retained":2,"traces":[
            {"trace_id":"00ab","root":"serve.request","parent_span":0,"request_id":3,
             "start_us":10,"dur_us":900,"sampled":true,"truncated":0,
             "retain_reasons":["deadline_breach","fallback_rung"],"spans":[
               {"span_id":2,"parent_id":1,"name":"serve.queue_wait","start_us":10,"dur_us":100,"self_us":100,"tid":1},
               {"span_id":3,"parent_id":1,"name":"stage1.denoise_step","start_us":120,"dur_us":600,"self_us":600,"tid":1},
               {"span_id":1,"parent_id":0,"name":"serve.request","start_us":10,"dur_us":900,"self_us":200,"tid":1}]},
            {"trace_id":"00ac","root":"chaos.scenario","parent_span":0,"request_id":null,
             "start_us":2000,"dur_us":5,"sampled":true,"truncated":0,"retain_reasons":["deadline_breach"],
             "spans":[{"span_id":1,"parent_id":0,"name":"chaos.scenario","start_us":2000,"dur_us":5,"self_us":5,"tid":1}]}]}"#;
        let (instances, fragments) = load(&[bench]);
        let all = stitch_all(fragments, None);
        assert_eq!(all.len(), 2);
        assert_eq!(rollup(&all).retain_reasons["deadline_breach"], 2);

        let (_, fragments) = load(&[bench]);
        let stitched = stitch_all(fragments, Some("serve.request"));
        assert_eq!(stitched.len(), 1, "--root drops the other root");
        let text = report_json(&instances, 2, &stitched, &rollup(&stitched));
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(num(&doc, "cross_process"), Some(0));
        assert_eq!(doc.get("mean_root_us").unwrap().as_f64(), Some(900.0));
        let reasons = doc.get("retain_reasons").unwrap();
        assert_eq!(keys(reasons), ["deadline_breach", "fallback_rung"]);
        assert_eq!(num(reasons, "deadline_breach"), Some(1));
        let stages = doc.get("stages").unwrap();
        assert_eq!(keys(stages), ["denoise", "serving", "shard_queue"]);
        // Self time is the root's 900 µs minus its two children.
        assert_eq!(num(stages.get("serving").unwrap(), "self_us"), Some(200));
        assert_eq!(
            num(stages.get("shard_queue").unwrap(), "total_us"),
            Some(100)
        );
        let denoise = doc.get("spans").unwrap().get("stage1.denoise_step");
        assert_eq!(num(denoise.unwrap(), "total_us"), Some(600));
    }

    /// A routed request seen by the router and by one shard: the keys and
    /// value types `fed-smoke` reads from both documents.
    #[test]
    fn report_keys_and_types_are_pinned() {
        let router = r#"{"schema":"odt-tracez/v1","instance":"router","retained":1,"traces":[
            {"trace_id":"00ab","root":"router.request","parent_span":0,"request_id":9,
             "start_us":100,"dur_us":1000,"retain_reasons":["fallback_rung"],"spans":[
               {"span_id":1,"parent_id":0,"name":"router.request","start_us":100,"dur_us":1000,"tid":1},
               {"span_id":2,"parent_id":1,"name":"router.downstream","start_us":150,"dur_us":800,"tid":1}]}]}"#;
        let shard = r#"{"schema":"odt-tracez/v1","instance":"s11","retained":1,"traces":[
            {"trace_id":"00ab","root":"serve.request","parent_span":2,"request_id":null,
             "start_us":5000,"dur_us":700,"retain_reasons":["fallback_rung"],"spans":[
               {"span_id":1,"parent_id":0,"name":"serve.request","start_us":5000,"dur_us":700,"tid":4},
               {"span_id":2,"parent_id":1,"name":"oracle.estimator","start_us":5100,"dur_us":300,"tid":4}]}]}"#;
        let (instances, fragments) = load(&[router, shard]);
        let stitched = stitch_all(fragments, None);
        let text = report_json(&instances, 2, &stitched, &rollup(&stitched));
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "sources",
                "fragments",
                "stitched",
                "cross_process",
                "orphan_fragments",
                "mean_root_us",
                "retain_reasons",
                "stages",
                "spans",
                "traces"
            ]
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("odt-trace-report/v2")
        );
        // Both fragments were kept for one reason: one trace, counted once.
        assert_eq!(
            num(doc.get("retain_reasons").unwrap(), "fallback_rung"),
            Some(1)
        );
        assert_eq!(doc.get("sources").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(num(&doc, "fragments"), Some(2));
        assert_eq!(num(&doc, "stitched"), Some(1));
        assert_eq!(num(&doc, "cross_process"), Some(1));
        assert_eq!(num(&doc, "orphan_fragments"), Some(0));
        assert_eq!(doc.get("mean_root_us").unwrap().as_f64(), Some(1000.0));
        // The hop's self time is the hop minus the shard's whole fragment.
        let wire = doc.get("stages").unwrap().get("wire").unwrap();
        assert_eq!(keys(wire), ["count", "total_us", "self_us"]);
        assert_eq!(num(wire, "self_us"), Some(100));
        assert!(doc.get("spans").unwrap().get("oracle.estimator").is_some());
        let trace = &doc.get("traces").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            keys(trace),
            [
                "trace_id",
                "root",
                "request_id",
                "dur_us",
                "processes",
                "spans",
                "downstream_hops",
                "stages",
                "orphan_fragments"
            ]
        );
        assert_eq!(trace.get("trace_id").unwrap().as_str(), Some("00ab"));
        assert_eq!(num(trace, "request_id"), Some(9));
        assert_eq!(num(trace, "downstream_hops"), Some(1));
        let processes = trace.get("processes").unwrap().as_arr().unwrap();
        assert_eq!(processes[1].as_str(), Some("s11"));
        let stages = trace.get("stages").unwrap();
        assert_eq!(keys(stages), ["estimator", "router", "serving", "wire"]);
        assert_eq!(num(stages, "estimator"), Some(300));

        let (text, events) = perfetto_json(&instances, &stitched);
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(keys(&doc), ["traceEvents", "displayTimeUnit"]);
        let rows = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!((rows.len(), events), (6, 6));
        assert_eq!(
            keys(&rows[0]),
            ["name", "ph", "pid", "tid", "args"],
            "a process-name row"
        );
        let shard_span = &rows[4];
        assert_eq!(
            keys(shard_span),
            ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]
        );
        assert_eq!(shard_span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(num(shard_span, "pid"), Some(1));
        // Rebased onto the router's clock: the hop started 50 µs in.
        assert_eq!(num(shard_span, "ts"), Some(50));
        assert_eq!(
            keys(shard_span.get("args").unwrap()),
            ["trace_id", "span_id", "parent"]
        );
    }
}
