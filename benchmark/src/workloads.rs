//! The four end-to-end workloads. Each runs in its own process: set-up
//! (repeated in child processes, median reported), a discarded warm-up, a
//! timed closed loop, output checks.

use crate::inputs::{self, QueryGen, Zipf};
use crate::report::Check;
use crate::serving::{self, Client, Reply, Serving};
use crate::stats::Samples;
use crate::Workload;
use odt_core::Dot;
use odt_traj::{Dataset, OdtInput, Split};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// A set-up that trains nothing takes 20 ms, most of it a cold process
/// touching its pages: such a set-up is repeated until the repeats have
/// taken this many seconds together, or there are [`SETUP_REPEATS_MAX`].
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_REPEATS_MAX: usize = 15;

/// Operations sent, answered correctly and failed in one phase of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Phase {
    fn record(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// What one end-to-end run measured. Each closed loop fills one in (its
/// client thread returns it) and [`Outcome::absorb`] adds them up.
#[derive(Default)]
pub struct Outcome {
    /// Seconds per set-up, one sample per repeat.
    pub setup_s: Samples,
    /// Milliseconds per correct operation in the timed phase.
    pub op_ms: Samples,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    pub warmup: Phase,
    pub timed: Phase,
    pub checks: Vec<Check>,
    /// The first few failures, for the human reading the output.
    pub failures: Vec<String>,
}

impl Outcome {
    /// One closed loop: call `op` `warmup_ops` times untimed, then for
    /// `seconds`, timing each call. `op` returns `Err` for a failed operation.
    fn of_loop(
        warmup_ops: usize,
        seconds: f64,
        mut op: impl FnMut() -> Result<(), String>,
    ) -> Outcome {
        let mut out = Outcome::default();
        for _ in 0..warmup_ops {
            let r = op();
            out.warmup.record(r.is_ok());
            out.note(r);
        }
        let t0 = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        while t0.elapsed() < limit {
            let t = Instant::now();
            let r = op();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.timed.record(r.is_ok());
            if r.is_ok() {
                out.op_ms.0.push(ms);
            }
            out.note(r);
        }
        out.timed_s = t0.elapsed().as_secs_f64();
        out
    }

    fn note(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    /// Add the loops of concurrent callers to this run.
    fn absorb(&mut self, loops: Vec<Outcome>) {
        for l in loops {
            self.warmup.merge(l.warmup);
            self.timed.merge(l.timed);
            self.op_ms.0.extend(l.op_ms.0);
            self.timed_s = self.timed_s.max(l.timed_s);
            self.failures.extend(l.failures);
        }
    }

    fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { name, pass, detail });
    }
}

/// What one set-up leaves behind for the timed phase.
enum Ready {
    /// `query_cold`: a live server.
    Cold(Serving<()>),
    /// `query_hot`: a live server, the hot set, and the value pre-warmed for
    /// each of its keys.
    Hot(Serving<()>, Vec<OdtInput>, Vec<f64>),
    /// `batch_matrix`: a trained model on this thread.
    Model(Dataset, Box<Dot>),
    /// `train`: the dataset to train on.
    Data(Dataset),
}

fn boot_trained() -> Serving<()> {
    serving::boot(|data| (serving::train(data, inputs::MODEL_SEED), ()))
}

/// Everything `workload` needs before its first timed operation.
fn set_up(workload: Workload, seed: u64) -> Ready {
    match workload {
        Workload::QueryCold => Ready::Cold(boot_trained()),
        Workload::QueryHot => {
            let serving = boot_trained();
            // The hot set lies on the model's grid, which booting produces.
            let set = QueryGen::new(seed, serving.grid).hot_set(inputs::HOT_KEYS);
            let stored = serving.prewarm(&set);
            Ready::Hot(serving, set, stored)
        }
        Workload::BatchMatrix => {
            let data = inputs::dataset();
            let model = serving::train(&data, inputs::MODEL_SEED);
            Ready::Model(data, Box::new(model))
        }
        Workload::Train => Ready::Data(inputs::dataset()),
    }
}

/// Set up once, report the seconds it took, tear down: what the child
/// processes of [`run`] do.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let ready = set_up(workload, seed);
    let seconds = t0.elapsed().as_secs_f64();
    if let Ready::Cold(serving) | Ready::Hot(serving, ..) = ready {
        assert!(serving.shutdown(), "the set-up server did not drain clean");
    }
    seconds
}

/// One set-up in a process of its own (this executable with `--setup-only`),
/// so that every set-up starts cold and none leaves memory behind in the
/// process whose `peak_rss_mb` is reported. Waits for the child to end.
fn setup_in_child(workload: Workload, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--setup-only", "1"])
        .output()
        .expect("starting a set-up process");
    assert!(
        out.status.success(),
        "set-up process failed: {}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up process prints its seconds")
}

fn expect_rung(reply: &Reply, want: &str) -> Result<(), String> {
    if reply.rung == want {
        Ok(())
    } else {
        Err(format!(
            "answered by rung {:?}, expected {want:?}",
            reply.rung
        ))
    }
}

fn plausible(seconds: f64) -> Result<(), String> {
    if seconds.is_finite() && seconds > 0.0 {
        Ok(())
    } else {
        Err(format!("travel time {seconds} is not a positive number"))
    }
}

/// One end-to-end run of `workload`: [`SETUP_REPEATS`] set-ups or more (all
/// but the last in child processes), then the warm-up, the timed loop and
/// the checks.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut spent = 0.0;
    while out.setup_s.len() + 1 < SETUP_REPEATS
        || (spent < SETUP_MIN_SECONDS && out.setup_s.len() + 1 < SETUP_REPEATS_MAX)
    {
        let s = setup_in_child(workload, seed);
        spent += s;
        out.setup_s.0.push(s);
    }
    let t0 = Instant::now();
    let ready = set_up(workload, seed);
    out.setup_s.0.push(t0.elapsed().as_secs_f64());
    match ready {
        Ready::Cold(serving) => query_cold(&mut out, serving, seed, seconds),
        Ready::Hot(serving, set, stored) => {
            query_hot(&mut out, serving, &set, &stored, seed, seconds)
        }
        Ready::Model(data, model) => batch_matrix(&mut out, &data, &model, seed, seconds),
        Ready::Data(data) => train(&mut out, &data, seed, seconds),
    }
    out
}

/// `query_cold`: one connection, a never-repeating stream of OD pairs; every
/// request misses the cache and runs the full DDPM rung.
fn query_cold(out: &mut Outcome, serving: Serving<()>, seed: u64, seconds: f64) {
    let grid = serving.grid;
    let loops = serving::on_connections(serving.addr, 1, |_, client: &mut Client| {
        let mut gen = QueryGen::new(seed, grid);
        Outcome::of_loop(5, seconds, || {
            let reply = client.call(&gen.cold())?;
            expect_rung(&reply, "full_ddpm")
        })
    });
    out.absorb(loops);
    let stats = serving.cache.stats();
    out.check(
        "cache_bypassed",
        stats.hits + stats.stale_hits <= out.timed.sent / 100,
        format!(
            "{} cache hits, {} misses, {} evictions in {} requests",
            stats.hits + stats.stale_hits,
            stats.misses,
            stats.evictions,
            out.warmup.sent + out.timed.sent
        ),
    );
    out.check("server_drains_clean", serving.shutdown(), String::new());
}

/// `query_hot`: two connections, Zipf over a pre-warmed set of 64 keys; every
/// request is a cache read and the model does nothing.
fn query_hot(
    out: &mut Outcome,
    serving: Serving<()>,
    set: &[OdtInput],
    stored: &[f64],
    seed: u64,
    seconds: f64,
) {
    let before = serving.cache.stats();
    let loops = serving::on_connections(serving.addr, 2, |i, client: &mut Client| {
        let mut zipf = Zipf::new(set.len(), inputs::HOT_ZIPF_S, seed ^ (i as u64 + 1));
        Outcome::of_loop(10, seconds, || {
            let k = zipf.next();
            let reply = client.call(&set[k])?;
            expect_rung(&reply, "cached")?;
            if reply.seconds.to_bits() == stored[k].to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "key {k} answered {} but {} was stored",
                    reply.seconds, stored[k]
                ))
            }
        })
    });
    out.absorb(loops);
    let after = serving.cache.stats();
    let sent = out.warmup.sent + out.timed.sent;
    out.check(
        "cache_used",
        after.hits - before.hits == sent && after.misses == before.misses,
        format!(
            "{} cache hits and {} misses in {sent} requests",
            after.hits - before.hits,
            after.misses - before.misses
        ),
    );
    out.check("server_drains_clean", serving.shutdown(), String::new());
}

/// `batch_matrix`: in-process `Dot::estimate_batch` on fresh queries, one
/// caller; the model layers at batch size, no network and no frontend.
fn batch_matrix(out: &mut Outcome, data: &Dataset, model: &Dot, seed: u64, seconds: f64) {
    let mut gen = QueryGen::new(seed, data.grid);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = || -> Vec<OdtInput> { (0..inputs::BATCH).map(|_| gen.cold()).collect() };
    let l = Outcome::of_loop(1, seconds, || {
        let queries = batch();
        let estimates = model.estimate_batch(&queries, &mut rng);
        if estimates.len() != queries.len() {
            return Err(format!(
                "{} estimates for {} queries",
                estimates.len(),
                queries.len()
            ));
        }
        estimates.iter().try_for_each(|e| plausible(e.seconds))
    });
    out.absorb(vec![l]);
    // Same queries, same sampler seed, twice: the answers must agree bit for
    // bit, whatever the pool width.
    let queries = batch();
    let answer = || -> Vec<u64> {
        model
            .estimate_batch(&queries, &mut StdRng::seed_from_u64(seed))
            .iter()
            .map(|e| e.seconds.to_bits())
            .collect()
    };
    let (a, b) = (answer(), answer());
    let mismatches = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    out.check(
        "same_seed_bit_identical",
        mismatches == 0,
        format!(
            "{mismatches} of {} estimates differ between two runs",
            a.len()
        ),
    );
}

/// `train`: `Dot::train` of the `bench` model, one model seed after another;
/// the tape, the backward kernels and Adam.
fn train(out: &mut Outcome, data: &Dataset, seed: u64, seconds: f64) {
    let probe = OdtInput::from_trajectory(&data.split(Split::Test)[0]);
    let mut model_seed = seed;
    let l = Outcome::of_loop(1, seconds, || {
        let model = serving::train(data, model_seed);
        model_seed += 1;
        let report = model.report();
        if !(report.stage1_final_loss.is_finite() && report.best_val_mae.is_finite()) {
            return Err(format!(
                "training diverged: loss {}, validation MAE {}",
                report.stage1_final_loss, report.best_val_mae
            ));
        }
        if report.robustness.batches_skipped > 0 {
            return Err(format!(
                "{} batches skipped by the watchdog",
                report.robustness.batches_skipped
            ));
        }
        plausible(
            model
                .estimate(&probe, &mut StdRng::seed_from_u64(seed))
                .seconds,
        )
    });
    out.absorb(vec![l]);
}
