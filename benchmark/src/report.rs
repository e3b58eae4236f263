//! What a run reports and how it is printed: `name value unit n=<samples>`
//! per metric, `#` lines for the reader, the result line, and the result
//! file with the host fingerprint.

use odt_obs::json::push_str_escaped;
use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a derived number).
    pub n: usize,
}

/// An output check: a failed one makes the whole run invalid.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Everything one run, end-to-end or traced, hands to [`Report::emit`].
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `# ...` lines: phase counts, failures, the parts of derived metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

/// `{"name": {"value": v, "unit": "u"}, ...}`. Names and units are this
/// program's own constants and need no escaping.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    s.push('}');
    s
}

/// The machine the numbers came from. `rustc` and the git sha are handed in
/// by `run.sh`; a driver's checkout is not a git repository.
fn host_json(steal_share: f64) -> String {
    let quoted = |key: &str, default: &str| {
        let mut s = String::new();
        push_str_escaped(
            &mut s,
            &std::env::var(key).unwrap_or_else(|_| default.to_string()),
        );
        s
    };
    format!(
        "{{\"nproc\": {}, \"pool_width\": {}, \"odt_threads\": {}, \"rustc\": {}, \"git_sha\": {}, \"steal_share\": {steal_share}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        odt_compute::num_threads(),
        quoted("ODT_THREADS", "unset"),
        quoted("ODT_BENCH_RUSTC", "unknown"),
        quoted("ODT_BENCH_GIT_SHA", "unknown"),
    )
}

impl Report {
    /// Print the run, write `file` (`run` is the leading fields of its JSON
    /// object: workload, seed, ...) and print the result line last. Returns
    /// whether the run was valid.
    pub fn emit(&self, run: &str, file: &Path, steal_share: f64) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        // CPU time the hypervisor gave to someone else while this run wanted
        // it: above a few percent the timings are the host's, not the program's.
        println!("# host steal_share {steal_share}");
        for m in &self.metrics {
            println!("{} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        for c in &self.checks {
            let verdict = if c.pass { "ok" } else { "FAILED" };
            println!("# check {} {verdict} {}", c.name, c.detail);
        }
        let correct = self.failed == 0
            && self.checks.iter().all(|c| c.pass)
            && self.metrics.iter().all(|m| m.value.is_finite());
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        );
        let doc = format!(
            "{{{run}, \"host\": {}, \"result\": {result}}}\n",
            host_json(steal_share)
        );
        let written = file
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(file, doc));
        if let Err(e) = written {
            eprintln!("odt-benchmark: writing {}: {e}", file.display());
        }
        println!("{result}");
        correct
    }
}
