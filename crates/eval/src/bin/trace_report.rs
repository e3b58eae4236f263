//! Trace analysis: aggregate a span-stream JSONL file (written by
//! `odt_obs::trace::write_spans_jsonl`, e.g. `BENCH_serving_spans.jsonl`)
//! into a per-stage critical-path breakdown — where does a request's
//! wall-clock actually go: queue wait, denoise steps, the estimator head,
//! or the compute kernels under them?
//!
//! ```text
//! trace_report <spans.jsonl> [--root <name>] [--out <path>]
//! ```
//!
//! * `<spans.jsonl>` — the span stream to analyze.
//! * `--root`        — only analyze traces with this root span name
//!   (default: every trace in the file).
//! * `--out`         — also write the aggregate as one JSON object,
//!   schema `odt-trace-report/v1`.
//!
//! Per span name the report shows call count, total duration, and *self*
//! time (duration minus the duration of direct children, clamped at zero
//! — children running concurrently on pool workers can overlap their
//! parent, and overlap is attributed to the child). Self time is what a
//! stage actually costs on the critical path; total time is what a naive
//! flame graph would show. The stage rollup maps span names onto the
//! serving pipeline's coarse stages (queue / rung / denoise / estimator /
//! kernel) so the table answers the paper-level question directly.

use odt_obs::json::{self, JsonValue, Obj};
use std::collections::BTreeMap;

struct Span {
    span_id: u64,
    parent_id: u64,
    name: String,
    dur_us: u64,
}

struct Trace {
    root_name: String,
    dur_us: u64,
    retain_reasons: Vec<String>,
    spans: Vec<Span>,
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The serving-pipeline stage a span name belongs to.
fn stage_of(name: &str) -> &'static str {
    if name.starts_with("serve.queue") {
        "queue"
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

fn parse_traces(content: &str, root_filter: Option<&str>) -> Vec<Trace> {
    let mut traces: Vec<Trace> = Vec::new();
    let mut keep_current = false;
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON: {e}", lineno + 1));
        let text = |key: &str| v.get(key).and_then(JsonValue::as_str);
        let count = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        match text("kind") {
            Some("trace") => {
                let root = text("root").unwrap_or("?").to_string();
                keep_current = root_filter.is_none_or(|f| f == root);
                if keep_current {
                    let reasons = v.get("retain_reasons").and_then(JsonValue::as_arr);
                    traces.push(Trace {
                        root_name: root,
                        dur_us: count("dur_us"),
                        retain_reasons: reasons
                            .unwrap_or_default()
                            .iter()
                            .filter_map(|r| r.as_str().map(str::to_string))
                            .collect(),
                        spans: Vec::new(),
                    });
                }
            }
            Some("span") if keep_current => {
                let t = traces.last_mut().expect("span line before trace header");
                t.spans.push(Span {
                    span_id: count("span_id"),
                    parent_id: count("parent_id"),
                    name: text("name").unwrap_or("?").to_string(),
                    dur_us: count("dur_us"),
                });
            }
            _ => {}
        }
    }
    traces
}

#[derive(Default, Clone)]
struct Agg {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// What the report says about a set of traces.
struct Aggregate {
    root_total_us: u64,
    retained_by_reason: BTreeMap<String, u64>,
    by_stage: BTreeMap<&'static str, Agg>,
    by_name: BTreeMap<String, Agg>,
}

/// Per-name and per-stage aggregates with self time = dur − Σ
/// direct-children dur.
fn aggregate(traces: &[Trace]) -> Aggregate {
    let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
    let mut by_stage: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut root_total_us = 0u64;
    let mut retained_by_reason: BTreeMap<String, u64> = BTreeMap::new();
    for t in traces {
        root_total_us += t.dur_us;
        for r in &t.retain_reasons {
            *retained_by_reason.entry(r.clone()).or_default() += 1;
        }
        let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &t.spans {
            *child_sum.entry(s.parent_id).or_default() += s.dur_us;
        }
        for s in &t.spans {
            let own = s
                .dur_us
                .saturating_sub(child_sum.get(&s.span_id).copied().unwrap_or(0));
            for a in [
                by_name.entry(s.name.clone()).or_default(),
                by_stage.entry(stage_of(&s.name)).or_default(),
            ] {
                a.count += 1;
                a.total_us += s.dur_us;
                a.self_us += own;
            }
        }
    }
    Aggregate {
        root_total_us,
        retained_by_reason,
        by_stage,
        by_name,
    }
}

/// The `--out` document, schema `odt-trace-report/v1`.
fn report_json(source: &str, traces: usize, agg: &Aggregate) -> String {
    fn aggs<'a>(o: &mut Obj<'_, String>, rows: impl Iterator<Item = (&'a str, &'a Agg)>) {
        for (name, a) in rows {
            o.object(name, |o| {
                o.field("count", a.count)
                    .field("total_us", a.total_us)
                    .field("self_us", a.self_us);
            });
        }
    }
    json::object_string(|o| {
        o.field("schema", "odt-trace-report/v1")
            .field("source", source)
            .field("traces", traces)
            .field("mean_root_us", agg.root_total_us as f64 / traces as f64)
            .object("retain_reasons", |o| {
                for (reason, n) in &agg.retained_by_reason {
                    o.field(reason, *n);
                }
            })
            .object("stages", |o| {
                aggs(o, agg.by_stage.iter().map(|(k, a)| (*k, a)))
            })
            .object("spans", |o| {
                aggs(o, agg.by_name.iter().map(|(k, a)| (k.as_str(), a)))
            });
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| {
            eprintln!("usage: trace_report <spans.jsonl> [--root <name>] [--out <path>]");
            std::process::exit(2);
        });
    let root_filter = arg_value("--root");
    let content = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let traces = parse_traces(&content, root_filter.as_deref());
    if traces.is_empty() {
        eprintln!("no traces in {path} (after --root filter)");
        std::process::exit(1);
    }

    let agg = aggregate(&traces);

    let n = traces.len() as f64;
    let ms = |us: u64| us as f64 / 1_000.0;
    println!(
        "{} trace(s) from {path}, root {} — mean root latency {:.3} ms",
        traces.len(),
        traces.first().map(|t| t.root_name.as_str()).unwrap_or("?"),
        ms(agg.root_total_us) / n
    );
    if !agg.retained_by_reason.is_empty() {
        let reasons: Vec<String> = agg
            .retained_by_reason
            .iter()
            .map(|(r, c)| format!("{r}={c}"))
            .collect();
        println!("retain reasons: {}", reasons.join(", "));
    }

    println!("\nstage rollup (self time = critical-path share):");
    println!(
        "  {:<12} {:>8} {:>12} {:>12} {:>7}",
        "stage", "spans", "total ms", "self ms", "self %"
    );
    let denom = agg.root_total_us.max(1) as f64;
    for (stage, a) in &agg.by_stage {
        println!(
            "  {:<12} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            stage,
            a.count,
            ms(a.total_us),
            ms(a.self_us),
            a.self_us as f64 / denom * 100.0
        );
    }

    println!("\nper-span breakdown:");
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "self ms", "mean µs"
    );
    let mut names: Vec<(&String, &Agg)> = agg.by_name.iter().collect();
    names.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_us));
    for (name, a) in &names {
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
        let report = report_json(path, traces.len(), &agg);
        std::fs::write(&out, report + "\n").unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("\nwrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys and value types `trace-smoke` and `cache-smoke` read.
    #[test]
    fn report_keys_and_types_are_pinned() {
        let stream = concat!(
            r#"{"kind":"trace","trace_id":"00ab","root":"serve.request","dur_us":900,"retain_reasons":["slow"],"spans":3}"#,
            "\n",
            r#"{"kind":"span","trace_id":"00ab","span_id":1,"parent_id":0,"name":"serve.request","dur_us":900}"#,
            "\n",
            r#"{"kind":"span","trace_id":"00ab","span_id":2,"parent_id":1,"name":"serve.queue_wait","dur_us":100}"#,
            "\n",
            r#"{"kind":"span","trace_id":"00ab","span_id":3,"parent_id":1,"name":"stage1.denoise_step","dur_us":600}"#,
            "\n",
            r#"{"kind":"trace","trace_id":"00ac","root":"other.root","dur_us":5,"retain_reasons":[],"spans":0}"#,
            "\n",
        );
        let traces = parse_traces(stream, Some("serve.request"));
        assert_eq!(traces.len(), 1, "--root drops the other trace");
        let doc = JsonValue::parse(&report_json("spans.jsonl", 1, &aggregate(&traces))).unwrap();
        let keys = |v: &JsonValue| match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "source",
                "traces",
                "mean_root_us",
                "retain_reasons",
                "stages",
                "spans"
            ]
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("odt-trace-report/v1")
        );
        assert_eq!(doc.get("traces").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("mean_root_us").unwrap().as_f64(), Some(900.0));
        assert_eq!(
            doc.get("retain_reasons")
                .unwrap()
                .get("slow")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let stages = doc.get("stages").unwrap();
        assert_eq!(keys(stages), ["denoise", "queue", "serving"]);
        let serving = stages.get("serving").unwrap();
        assert_eq!(keys(serving), ["count", "total_us", "self_us"]);
        // Self time is the root's 900 µs minus its two children.
        assert_eq!(serving.get("self_us").unwrap().as_u64(), Some(200));
        assert_eq!(
            doc.get("spans")
                .unwrap()
                .get("stage1.denoise_step")
                .unwrap()
                .get("total_us")
                .unwrap()
                .as_u64(),
            Some(600)
        );
    }
}
