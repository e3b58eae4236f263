//! Table 5: efficiency on Chengdu — model size, training time and
//! estimation speed of every method, plus a batched-serving throughput
//! comparison for DOT (`--batch <N>`, default 64).
//!
//! Besides the console table, writes `BENCH_table5.json` at the repo root:
//!
//! ```json
//! {
//!   "schema": "odt-bench-table5/v1",
//!   "profile": str,             // eval profile name
//!   "seed": u64,
//!   "threads": usize,           // odt-compute pool width for this run
//!   "batch_size": usize,        // N from --batch
//!   "sequential": { "queries": usize, "seconds": f64, "sec_per_k_queries": f64 },
//!   "batched":    { "queries": usize, "seconds": f64, "sec_per_k_queries": f64 },
//!   "speedup": f64,             // sequential / batched (sec/Kq ratio)
//!   "methods": [ { "name": str, "model_size_bytes": usize,
//!                  "train_seconds": f64, "sec_per_k_queries": f64 } ]
//! }
//! ```

use odt_eval::harness::{prepare_city, run_baselines, run_dot, City, MethodResult};
use odt_eval::profile::EvalProfile;
use odt_eval::report::{print_ordering_check, print_table};
use odt_obs::json::{self, Obj};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Paper Table 5: (method, size, train min/epoch, est s/K-queries).
const PAPER: &[(&str, &str, &str, f64)] = &[
    ("Dijkstra", "3.16M", "-", 0.95),
    ("DeepST", "5.40M", "2.33", 2.74),
    ("WDDRA", "6.79M", "1.43", 2.42),
    ("STDGCN", "5.50M", "2.97", 3.29),
    ("TEMP", "4.45M", "-", 5.73),
    ("LR", "0.59K", "0.22", 0.21),
    ("GBM", "0.76K", "1.23", 0.39),
    ("RNE", "0.78M", "0.42", 0.34),
    ("ST-NN", "0.30M", "0.34", 0.33),
    ("MURAT", "7.85M", "1.41", 1.65),
    ("DeepOD", "6.24M", "1.26", 1.62),
    ("DOT", "7.32M", "3.04/1.22", 1.85),
];

fn human_bytes(b: usize) -> String {
    if b >= 1_000_000 {
        format!("{:.2}M", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.2}K", b as f64 / 1e3)
    } else {
        format!("{b}B")
    }
}

/// Parse `--batch <N>` from the raw CLI args (default 64).
fn batch_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--batch")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--batch must be an integer"))
        .unwrap_or(64)
}

fn main() {
    let profile = EvalProfile::from_args();
    let batch_size = batch_arg().max(1);
    let _telemetry = odt_eval::telemetry::init(&profile);
    println!(
        "Table 5 — efficiency on Chengdu (profile: {}, seed {})",
        profile.name, profile.seed
    );
    let run = prepare_city(City::Chengdu, &profile);
    let (results, _) = run_baselines(&run, &profile, None, &mut |m| eprintln!("{m}"));
    let (dot_result, model, _pits) =
        run_dot(&run, &profile, City::Chengdu, &mut |m| eprintln!("{m}"));

    let mut rows = Vec::new();
    for r in results.iter().chain(std::iter::once(&dot_result)) {
        let paper = PAPER.iter().find(|(m, ..)| *m == r.name);
        let train = if r.name == "DOT" {
            format!(
                "{:.1}/{:.1}s",
                model.report().stage1_seconds,
                model.report().stage2_seconds
            )
        } else if r.train_seconds == 0.0 {
            "-".into()
        } else {
            format!("{:.1}s", r.train_seconds)
        };
        rows.push(vec![
            r.name.clone(),
            human_bytes(r.model_size_bytes),
            paper.map(|p| p.1.to_string()).unwrap_or_default(),
            train,
            paper.map(|p| p.2.to_string()).unwrap_or_default(),
            format!("{:.2}", r.sec_per_k_queries),
            paper.map(|p| format!("{:.2}", p.3)).unwrap_or_default(),
        ]);
    }
    print_table(
        "Table 5: efficiency (measured vs paper)",
        "Sizes/timings are at reduced profile scale; compare relative orderings, \
         not absolutes. DOT's training time lists stage1/stage2 as in the paper.",
        &[
            "method",
            "size",
            "p.size",
            "train",
            "p.train(min/ep)",
            "s/Kq",
            "p.s/Kq",
        ],
        &rows,
    );

    let find = |name: &str| {
        results
            .iter()
            .chain(std::iter::once(&dot_result))
            .find(|r| r.name == name)
    };
    // Shape checks from the paper's discussion.
    if let (Some(lr), Some(temp)) = (find("LR"), find("TEMP")) {
        print_ordering_check(
            "TEMP queries slower than LR (memorized data scan)",
            temp.sec_per_k_queries > lr.sec_per_k_queries,
        );
    }
    if let (Some(lr), Some(deepod)) = (find("LR"), find("DeepOD")) {
        print_ordering_check(
            "LR is smallest model",
            lr.model_size_bytes < deepod.model_size_bytes,
        );
    }
    if let (Some(dot), Some(stdgcn)) = (find("DOT"), find("STDGCN")) {
        print_ordering_check(
            "DOT estimation faster than RNN-based STDGCN",
            dot.sec_per_k_queries < stdgcn.sec_per_k_queries * 40.0,
        );
    }

    // Batched-vs-sequential DOT serving throughput. The same N queries
    // (test queries cycled up to the batch size) go through N sequential
    // `estimate` calls and one `estimate_batch` call; identical seeds so
    // the denoising work is comparable.
    let queries: Vec<_> = run
        .test_odts
        .iter()
        .cycle()
        .take(batch_size)
        .cloned()
        .collect();
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let t0 = Instant::now();
    for q in &queries {
        let _ = model.estimate(q, &mut rng);
    }
    let seq_s = t0.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let t0 = Instant::now();
    let batched = model.estimate_batch(&queries, &mut rng);
    let bat_s = t0.elapsed().as_secs_f64();
    assert_eq!(batched.len(), queries.len());
    let per_k = |s: f64| s / queries.len() as f64 * 1_000.0;
    let speedup = if bat_s > 0.0 { seq_s / bat_s } else { 0.0 };
    print_table(
        &format!("DOT serving: sequential vs batched (batch {batch_size})"),
        "Same queries and seed; batched funnels all PiT inference through one \
         denoising pass and one estimator forward.",
        &["mode", "queries", "seconds", "s/Kq"],
        &[
            vec![
                "sequential".into(),
                queries.len().to_string(),
                format!("{seq_s:.3}"),
                format!("{:.2}", per_k(seq_s)),
            ],
            vec![
                "batched".into(),
                queries.len().to_string(),
                format!("{bat_s:.3}"),
                format!("{:.2}", per_k(bat_s)),
            ],
        ],
    );
    println!("batched speedup: {speedup:.2}x over sequential");

    let methods: Vec<&MethodResult> = results.iter().chain([&dot_result]).collect();
    let report = report_json(
        &profile,
        batch_size,
        queries.len(),
        [seq_s, bat_s],
        speedup,
        &methods,
    );
    let path = "BENCH_table5.json";
    std::fs::write(path, report + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// The `BENCH_table5.json` document of the module docs, from the seconds the
/// same `queries` took one by one and in batches.
fn report_json(
    profile: &EvalProfile,
    batch_size: usize,
    queries: usize,
    [sequential, batched]: [f64; 2],
    speedup: f64,
    methods: &[&MethodResult],
) -> String {
    let mode = |o: &mut Obj<'_, String>, key: &str, seconds: f64| {
        o.object(key, |o| {
            o.field("queries", queries)
                .field("seconds", seconds)
                .field("sec_per_k_queries", seconds / queries as f64 * 1_000.0);
        });
    };
    json::object_string(|o| {
        o.field("schema", "odt-bench-table5/v1")
            .field("profile", &profile.name)
            .field("seed", profile.seed)
            .field("threads", odt_compute::num_threads())
            .field("batch_size", batch_size);
        mode(o, "sequential", sequential);
        mode(o, "batched", batched);
        o.field("speedup", speedup).array("methods", |a| {
            for r in methods {
                a.object(|o| {
                    o.field("name", &r.name)
                        .field("model_size_bytes", r.model_size_bytes)
                        .field("train_seconds", r.train_seconds)
                        .field("sec_per_k_queries", r.sec_per_k_queries);
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_obs::json::JsonValue;

    /// The document's keys and value types, as the module docs state them.
    #[test]
    fn report_keys_and_types_are_pinned() {
        let method = MethodResult {
            name: "LR".into(),
            accuracy: odt_eval::metrics::regression(&[(60.0, 90.0)]),
            predictions: vec![60.0],
            model_size_bytes: 590,
            train_seconds: 0.22,
            sec_per_k_queries: 0.21,
        };
        let text = report_json(&EvalProfile::fast(), 8, 8, [2.0, 0.5], 4.0, &[&method]);
        let doc = JsonValue::parse(&text).unwrap();
        let keys = |v: &JsonValue| match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "profile",
                "seed",
                "threads",
                "batch_size",
                "sequential",
                "batched",
                "speedup",
                "methods"
            ]
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("odt-bench-table5/v1")
        );
        assert_eq!(doc.get("profile").unwrap().as_str(), Some("fast"));
        for key in ["seed", "threads", "batch_size"] {
            assert!(doc.get(key).unwrap().as_u64().is_some(), "{key}");
        }
        assert_eq!(doc.get("speedup").unwrap().as_f64(), Some(4.0));
        for key in ["sequential", "batched"] {
            let mode = doc.get(key).unwrap();
            assert_eq!(keys(mode), ["queries", "seconds", "sec_per_k_queries"]);
            assert_eq!(mode.get("queries").unwrap().as_u64(), Some(8));
            assert!(mode.get("seconds").unwrap().as_f64().is_some());
        }
        let methods = doc.get("methods").unwrap().as_arr().unwrap();
        assert_eq!(
            keys(&methods[0]),
            [
                "name",
                "model_size_bytes",
                "train_seconds",
                "sec_per_k_queries"
            ]
        );
        assert_eq!(methods[0].get("name").unwrap().as_str(), Some("LR"));
        assert_eq!(
            methods[0].get("model_size_bytes").unwrap().as_u64(),
            Some(590)
        );
    }
}
