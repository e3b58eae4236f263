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
//!                     (default: every trace in the file).
//! * `--out`         — also write the aggregate as one JSON object,
//!                     schema `odt-trace-report/v1`.
//!
//! Per span name the report shows call count, total duration, and *self*
//! time (duration minus the duration of direct children, clamped at zero
//! — children running concurrently on pool workers can overlap their
//! parent, and overlap is attributed to the child). Self time is what a
//! stage actually costs on the critical path; total time is what a naive
//! flame graph would show. The stage rollup maps span names onto the
//! serving pipeline's coarse stages (queue / rung / denoise / estimator /
//! kernel) so the table answers the paper-level question directly.

use serde_json::{json, Value};
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
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON: {e}", lineno + 1));
        match v["kind"].as_str() {
            Some("trace") => {
                let root = v["root"].as_str().unwrap_or("?").to_string();
                keep_current = root_filter.is_none_or(|f| f == root);
                if keep_current {
                    traces.push(Trace {
                        root_name: root,
                        dur_us: v["dur_us"].as_u64().unwrap_or(0),
                        retain_reasons: v["retain_reasons"]
                            .as_array()
                            .map(|a| {
                                a.iter()
                                    .filter_map(|r| r.as_str().map(str::to_string))
                                    .collect()
                            })
                            .unwrap_or_default(),
                        spans: Vec::new(),
                    });
                }
            }
            Some("span") if keep_current => {
                let t = traces.last_mut().expect("span line before trace header");
                t.spans.push(Span {
                    span_id: v["span_id"].as_u64().unwrap_or(0),
                    parent_id: v["parent_id"].as_u64().unwrap_or(0),
                    name: v["name"].as_str().unwrap_or("?").to_string(),
                    dur_us: v["dur_us"].as_u64().unwrap_or(0),
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

    // Per-name aggregate with self time = dur − Σ direct-children dur.
    let mut by_name: BTreeMap<String, Agg> = BTreeMap::new();
    let mut by_stage: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut root_total_us = 0u64;
    let mut retained_by_reason: BTreeMap<String, u64> = BTreeMap::new();
    for t in &traces {
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
            let a = by_name.entry(s.name.clone()).or_default();
            a.count += 1;
            a.total_us += s.dur_us;
            a.self_us += own;
            let st = by_stage.entry(stage_of(&s.name)).or_default();
            st.count += 1;
            st.total_us += s.dur_us;
            st.self_us += own;
        }
    }

    let n = traces.len() as f64;
    let ms = |us: u64| us as f64 / 1_000.0;
    println!(
        "{} trace(s) from {path}, root {} — mean root latency {:.3} ms",
        traces.len(),
        traces.first().map(|t| t.root_name.as_str()).unwrap_or("?"),
        ms(root_total_us) / n
    );
    if !retained_by_reason.is_empty() {
        let reasons: Vec<String> = retained_by_reason
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
    let denom = root_total_us.max(1) as f64;
    for (stage, a) in &by_stage {
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
    let mut names: Vec<(&String, &Agg)> = by_name.iter().collect();
    names.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us));
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
        let agg_json = |m: &BTreeMap<String, Agg>| -> Value {
            Value::Object(
                m.iter()
                    .map(|(k, a)| {
                        (
                            k.clone(),
                            json!({
                                "count": a.count,
                                "total_us": a.total_us,
                                "self_us": a.self_us,
                            }),
                        )
                    })
                    .collect(),
            )
        };
        let stages: BTreeMap<String, Agg> = by_stage
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let report = json!({
            "schema": "odt-trace-report/v1",
            "source": path,
            "traces": traces.len(),
            "mean_root_us": root_total_us as f64 / n,
            "retain_reasons": retained_by_reason,
            "stages": agg_json(&stages),
            "spans": agg_json(&by_name),
        });
        std::fs::write(&out, format!("{report:#}\n"))
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("\nwrote {out}");
    }
}
