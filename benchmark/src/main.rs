//! The repository's benchmark. One process runs one workload:
//!
//! ```text
//! odt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced pass that measures the per-layer metrics. Every metric is printed
//! as `name value unit n=<samples>`; the last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). See README.md.

mod alloc;
mod inputs;
mod layers;
mod report;
mod serving;
mod spans;
mod stats;
mod workloads;

use report::{Check, Metric, Report};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryCold,
    QueryHot,
    BatchMatrix,
    Train,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::QueryCold,
        Workload::QueryHot,
        Workload::BatchMatrix,
        Workload::Train,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query_cold",
            Workload::QueryHot => "query_hot",
            Workload::BatchMatrix => "batch_matrix",
            Workload::Train => "train",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Hidden: set up once, print the seconds, exit (see `workloads::run`).
    setup_only: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::QueryCold, // replaced below: --workload is required
        seed: 11,
        seconds: 20.0,
        trace: false,
        setup_only: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("query_cold, query_hot, batch_matrix or train"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--setup-only" => args.setup_only = value == "1",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `(all, stolen)` CPU jiffies of the machine since boot (`/proc/stat`).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

fn end_to_end(args: &Args) -> Report {
    let out = workloads::run(args.workload, args.seed, args.seconds);
    let mut notes: Vec<String> = [("warm-up", out.warmup), ("timed", out.timed)]
        .iter()
        .map(|(name, p)| {
            format!(
                "phase {name} sent={} ok={} failed={}",
                p.sent, p.ok, p.failed
            )
        })
        .collect();
    notes.extend(out.failures.iter().map(|f| format!("failure {f}")));
    if out.op_ms.len() > 0 {
        // The whole distribution and the throughput, for the reader: the
        // result carries the fast decile only (README.md, "End-to-end metrics").
        let q = |q: f64| out.op_ms.quantile(q);
        notes.push(format!(
            "op_ms min={} p10={} p25={} p50={} p75={} p90={} max={}",
            q(0.0),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(1.0)
        ));
        notes.push(format!("ops_per_s {}", out.timed.ok as f64 / out.timed_s));
    }
    let mut checks = out.checks;
    checks.push(Check {
        name: "timed_operations",
        pass: out.op_ms.len() > 0,
        detail: format!("{} answered correctly", out.op_ms.len()),
    });
    let metrics = if out.op_ms.len() == 0 {
        Vec::new()
    } else {
        let n = out.op_ms.len();
        vec![
            Metric {
                name: "op_p10_ms",
                value: out.op_ms.quantile(0.10),
                unit: "ms",
                n,
            },
            Metric {
                name: "setup_s",
                value: out.setup_s.median(),
                unit: "s",
                n: out.setup_s.len(),
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
                n: 1,
            },
        ]
    };
    Report {
        metrics,
        notes,
        attempted: out.warmup.sent + out.timed.sent,
        failed: out.warmup.failed + out.timed.failed,
        checks,
    }
}

/// One compute lane unless the caller asks for more. The machines this runs
/// on are a few hyper-threads of a shared host: with a lane per hyper-thread
/// every parallel section waits for whichever lane the host served last, and
/// the same commit spread twice as far from run to run (README.md, "Threads").
/// Set here, before the pool's first use, so that set-up children inherit it.
fn pin_pool_width() {
    if std::env::var_os("ODT_THREADS").is_none() {
        std::env::set_var("ODT_THREADS", "1");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odt-benchmark: {e}");
            std::process::exit(2);
        }
    };
    pin_pool_width();
    if args.setup_only {
        println!("{}", workloads::setup_only(args.workload, args.seed));
        return;
    }
    let (all0, stolen0) = cpu_jiffies();
    let report = if args.trace {
        layers::run(args.workload, args.seed, &args.out)
    } else {
        end_to_end(&args)
    };
    let (all1, stolen1) = cpu_jiffies();
    let steal_share = (stolen1 - stolen0) as f64 / (all1 - all0).max(1) as f64;
    let name = args.workload.name();
    let run = format!(
        "\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        args.seed, args.seconds, args.trace
    );
    let file = args.out.join(format!(
        "{name}{}.json",
        if args.trace { ".trace" } else { "" }
    ));
    if !report.emit(&run, &file, steal_share) {
        std::process::exit(1);
    }
}
