//! `odt_loadgen`: drive an `odt_server` over TCP and report throughput
//! vs latency (`--report`, default `BENCH_net_load.json`).
//!
//! ```text
//! odt_loadgen --addr <host:port> [--mode open|closed] [--rate <rps>]
//!             [--sweep <rps,rps,...>] [--conns <n>] [--secs <s>]
//!             [--deadline-ms <ms>] [--seed <u64>]
//!             [--region <lng0,lat0,lng1,lat1>] [--trace-every <n>]
//!             [--zipf-s <s>] [--drift <frac>] [--p-hot <p>]
//!             [--connect-retry-ms <ms>] [--report <path>]
//! ```
//!
//! `--connect-retry-ms` bounds the per-connection retry budget for
//! connect refusals during server warmup (doubling backoff; `0` = fail
//! fast on the first refusal; default 10000). The report records the
//! retries actually taken and a `failed_requests` roll-up (lost + typed
//! error replies) per run — cluster smoke tests gate it to zero.
//!
//! * `--mode open` (default) — Poisson arrivals at `--rate` rps with the
//!   full schedule fixed up-front; latency is measured from each
//!   request's *scheduled* send time, so queue buildup in a saturated
//!   server is charged to the server, not hidden by a stalled sender
//!   (no coordinated omission). `--mode closed` sends the next request
//!   only after the previous response.
//! * `--sweep`  — run the open loop once per listed rate (overrides
//!   `--rate`/`--mode`); the report then traces the throughput-latency
//!   curve.
//! * `--region` — the box ODs are drawn from; paste the server's
//!   `odt_server region ...` line so strict admission accepts them.
//! * `--zipf-s` — Zipf exponent for hotspot rank selection: `0` (the
//!   default) picks hotspot centers uniformly, larger values concentrate
//!   traffic on a few OD cells (the cache-friendly regime). `--drift`
//!   moves hotspot centers sinusoidally with the query's time of day
//!   (fraction of the region span), so the hot set slowly reshapes.
//!   The report records the *achieved* key skew (distinct coarse OD
//!   keys, top-1/top-10 traffic share) per run.
//! * Every `--trace-every`-th request carries a trace id the server
//!   adopts into its spans (end-to-end tracing across the wire).
//!
//! The report (`odt-bench-net/v1`) has one row per run: offered vs
//! achieved rps, p50/p90/p99 latency, typed error counts, per-rung
//! answer counts, OK replies per serving replica (the wire `served_by`
//! field — through a router this is the per-shard attribution), and the
//! worst sender lag vs the schedule (a large lag means the *generator*
//! saturated and offered less than configured).
//! Exit status is non-zero if any run got zero OK replies.

use odt_net::loadgen::{self, LoadConfig, LoadMode, LoadReport, Region};
use odt_obs::json;
use std::time::Duration;

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn counts(o: &mut json::Obj<'_, String>, key: &str, pairs: &[(String, u64)]) {
    o.object(key, |o| {
        for (k, v) in pairs {
            o.field(k, v);
        }
    });
}

fn row_members(o: &mut json::Obj<'_, String>, r: &LoadReport) {
    let l = &r.latency;
    // Every request that got no OK answer, whatever the failure mode —
    // the one number cluster smoke tests gate to zero.
    let failed_requests = r.lost + r.errors.iter().map(|(_, n)| n).sum::<u64>();
    o.field("mode", &r.mode)
        .field("offered_rps", r.offered_rps)
        .field("sent", r.sent)
        .field("ok", r.ok)
        .field("lost", r.lost)
        .field("failed_requests", failed_requests)
        .field("connect_retries", r.connect_retries);
    counts(o, "errors", &r.errors);
    o.field("wall_s", r.wall_s)
        .field("throughput_rps", r.throughput_rps)
        .object("latency", |o| {
            o.field("p50_ms", l.p50_ms)
                .field("p90_ms", l.p90_ms)
                .field("p99_ms", l.p99_ms)
                .field("max_ms", l.max_ms)
                .field("mean_ms", l.mean_ms);
        });
    counts(o, "rungs", &r.rungs);
    o.field("deadline_met", r.deadline_met)
        .field("send_lag_max_ms", r.send_lag_max_ms)
        .field("traces_sent", r.traces_sent);
    counts(o, "served_by", &r.served_by);
    o.object("key_skew", |o| {
        o.field("distinct", r.key_skew.distinct)
            .field("total", r.key_skew.total)
            .field("top1_share", r.key_skew.top1_share)
            .field("top10_share", r.key_skew.top10_share);
    });
}

fn main() {
    odt_obs::flightrec::install_panic_hook();
    odt_obs::trace::init_from_env();

    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let conns: usize = arg_value("--conns")
        .map(|v| v.parse().expect("--conns must be an integer"))
        .unwrap_or(4)
        .max(1);
    let secs: f64 = arg_value("--secs")
        .map(|v| v.parse().expect("--secs must be a number"))
        .unwrap_or(5.0);
    let deadline_ms: Option<u64> = match arg_value("--deadline-ms").as_deref() {
        Some("none") => None,
        Some(v) => Some(v.parse().expect("--deadline-ms must be an integer")),
        None => Some(200),
    };
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed must be an integer"))
        .unwrap_or(0xD07_CAFE);
    let trace_every: u64 = arg_value("--trace-every")
        .map(|v| v.parse().expect("--trace-every must be an integer"))
        .unwrap_or(64);
    let zipf_s: f64 = arg_value("--zipf-s")
        .map(|v| v.parse().expect("--zipf-s must be a number"))
        .unwrap_or(0.0);
    let center_drift: f64 = arg_value("--drift")
        .map(|v| v.parse().expect("--drift must be a number"))
        .unwrap_or(0.0);
    let p_hot: Option<f64> =
        arg_value("--p-hot").map(|v| v.parse().expect("--p-hot must be a number"));
    let connect_retry_ms: Option<u64> = arg_value("--connect-retry-ms")
        .map(|v| v.parse().expect("--connect-retry-ms must be an integer"));
    let report_path = arg_value("--report").unwrap_or_else(|| "BENCH_net_load.json".to_string());

    let region = match arg_value("--region") {
        None => Region::default(),
        Some(s) => {
            let parts: Vec<f64> = s
                .split(',')
                .map(|p| p.trim().parse().expect("--region must be 4 numbers"))
                .collect();
            assert_eq!(parts.len(), 4, "--region must be lng0,lat0,lng1,lat1");
            Region {
                lng0: parts[0],
                lat0: parts[1],
                lng1: parts[2],
                lat1: parts[3],
            }
        }
    };

    let modes: Vec<LoadMode> = match arg_value("--sweep") {
        Some(s) => s
            .split(',')
            .map(|r| LoadMode::Open {
                rate_rps: r.trim().parse().expect("--sweep must be numbers"),
            })
            .collect(),
        None => match arg_value("--mode").as_deref() {
            Some("closed") => vec![LoadMode::Closed],
            _ => vec![LoadMode::Open {
                rate_rps: arg_value("--rate")
                    .map(|v| v.parse().expect("--rate must be a number"))
                    .unwrap_or(200.0),
            }],
        },
    };

    let mut reports = Vec::new();
    let mut all_ok = true;
    for mode in modes {
        let mut cfg = LoadConfig {
            addr: addr.clone(),
            conns,
            duration: Duration::from_secs_f64(secs),
            mode,
            seed,
            deadline_ms,
            region,
            trace_every,
            zipf_s,
            center_drift,
            ..LoadConfig::default()
        };
        if let Some(p) = p_hot {
            cfg.p_hot = p;
        }
        if let Some(ms) = connect_retry_ms {
            cfg.connect_retry_ms = ms;
        }
        let report = loadgen::run(&cfg).expect("load run failed: no connection completed");
        println!(
            "{:>6} @ {:>7.1} rps: {} ok / {} sent ({} lost), {:.1} rps through, \
             p50 {:.2} ms  p99 {:.2} ms  lag {:.1} ms  top1 {:.0}% of {} keys",
            report.mode,
            report.offered_rps,
            report.ok,
            report.sent,
            report.lost,
            report.throughput_rps,
            report.latency.p50_ms,
            report.latency.p99_ms,
            report.send_lag_max_ms,
            report.key_skew.top1_share * 100.0,
            report.key_skew.distinct,
        );
        if report.ok == 0 {
            all_ok = false;
        }
        reports.push(report);
    }

    let quiet = arg_flag("--quiet");
    // Where the generator ran: latency over loopback on a shared two-core
    // box and over a network between idle machines are different numbers.
    let host = format!(
        "{} {}, {} cpus",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut json = json::object_string(|o| {
        o.field("schema", "odt-bench-net/v1")
            .field("host", &host)
            .field("addr", &addr)
            .field("conns", conns)
            .field("secs", secs)
            .field("deadline_ms", deadline_ms)
            .field("seed", seed)
            .field("zipf_s", zipf_s)
            .field("center_drift", center_drift)
            .array_lines("runs", |a| {
                for r in &reports {
                    a.object(|o| row_members(o, r));
                }
            })
            .field("pass", all_ok);
    });
    json.push('\n');
    std::fs::write(&report_path, json).unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    if !quiet {
        println!("wrote {report_path}");
    }

    if !all_ok {
        eprintln!("odt_loadgen: a run finished with zero OK replies");
        std::process::exit(1);
    }
}
