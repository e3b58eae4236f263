//! The standing resilience drills: what a drill is, what must hold, and how
//! it is reported, decided here and nowhere else.
//!
//! [`DRILLS`] is the whole catalog, in run order. A row is a name, a
//! description and one function from a [`DrillCtx`] (seed, `--quick`, the
//! trained drill [`Oracle`]) to a [`DrillOutcome`]: the head counts, the
//! evidence blocks the drill observed (each a snapshot spelled by its own
//! `ToJson`), and one string per violated expectation. Every expectation is
//! evaluated inside the drill that knows it; `violations.is_empty()` is the
//! verdict. The `chaos_drill` bin resolves `--scenario` against the table and
//! writes one `odt-chaos-drill/v3` line per outcome; `tests/drills.rs` walks
//! the same table under `cargo test`. A new drill is one more row.
//!
//! | rows | family | module |
//! |------|--------|--------|
//! | `baseline` … `breaker_recovery` | seeded fault mixes against the frontend over the oracle | [`serving`] |
//! | `quality_drift`, `cache_drift_invalidation` | synthetic model drift through the shadow scorer | [`serving`] |
//! | `cluster_corrupt_swap` | the hot-swap gates over a registry on disk | [`swap`] |
//! | `net_*` | client-side abuse of a real TCP server over the oracle | [`net`] |
//! | `cluster_replica_kill` … `cluster_trace_loss` | faults injected between requests into a loopback cluster of echo replicas | [`net`] |
//!
//! The drills run over real sockets and the real clock. The flight recorder,
//! the trace sampler and the panic hook are process-global, so one process
//! runs one drill at a time.

mod net;
mod serving;
mod swap;

use odt_core::{Dot, DotConfig};
use odt_net::{ClusterSnapshot, ConnStatsSnapshot, DrainReport, Region};
use odt_obs::json::{self, Obj, ToJson};
use odt_obs::QualitySnapshot;
use odt_serve::{CacheStats, FrontendSnapshot, SwapStats};
use odt_traj::{Dataset, OdtInput, Split};
use std::collections::BTreeMap;
use std::fmt;

/// The one oracle every drill serves from: an 8 x 8 simulated city, 180
/// trips, [`DotConfig::tiny`]. Training is deterministic, so a server that
/// must build its own copy on its dispatcher thread (the model is `!Send`)
/// gets the same model by calling [`Oracle::train`] there.
pub struct Oracle {
    /// The simulated city.
    pub data: Dataset,
    /// The trained model.
    pub model: Dot,
    /// The test split as queries: the traffic in-process drills replay.
    pub queries: Vec<OdtInput>,
    /// The test split with its observed travel times, for shadow scoring.
    pub holdout: Vec<(OdtInput, f64)>,
    /// Where strict admission accepts both endpoints: the model's grid,
    /// shrunk 5% so wire queries never land on the reject margin.
    pub region: Region,
}

impl Oracle {
    /// Simulate the city and train the model (well under a second).
    pub fn train() -> Oracle {
        let mut city = odt_traj::sim::CitySimConfig::chengdu_like();
        city.nx = 8;
        city.ny = 8;
        let data = Dataset::simulated(city, 180, 8, 41);
        let model = Dot::train(DotConfig::tiny(), &data, |_| {});
        let holdout = OdtInput::labelled(data.split(Split::Test));
        Oracle {
            queries: holdout.iter().map(|(q, _)| *q).collect(),
            holdout,
            region: Region::inside(data.grid.min, data.grid.max, 0.05),
            model,
            data,
        }
    }
}

/// What a drill is run with.
pub struct DrillCtx {
    /// Perturbs every fault stream; the same seed replays the same faults.
    pub seed: u64,
    /// Smaller waves (CI smoke mode).
    pub quick: bool,
    /// The in-process oracle.
    pub oracle: Oracle,
}

impl DrillCtx {
    /// A context over a freshly trained [`Oracle`].
    pub fn new(seed: u64, quick: bool) -> DrillCtx {
        DrillCtx {
            seed,
            quick,
            oracle: Oracle::train(),
        }
    }
}

/// What a socket drill's clients got back.
#[derive(Default)]
pub struct Replies {
    /// OK replies from a server (behind a router: from a shard replica).
    pub ok: u64,
    /// OK replies served by the router-local prior rung.
    pub prior: u64,
    /// Requests whose reply never arrived.
    pub lost: u64,
    /// Typed error replies by code name.
    pub errors: BTreeMap<&'static str, u64>,
}

impl ToJson for Replies {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        json::object(out, |o| {
            o.field("ok", self.ok)
                .field("prior", self.prior)
                .field("lost", self.lost)
                .object("errors", |o| {
                    for (code, n) in &self.errors {
                        o.field(code, n);
                    }
                });
        })
    }
}

/// What `cache_drift_invalidation` saw around the flush.
#[derive(Default)]
pub struct Flush {
    /// Cache generation before the drift.
    pub generation_before: u64,
    /// Cache generation after the invalidator ran.
    pub generation_after: u64,
    /// Cache-rung serves of the repeat wave before the drift.
    pub warm_cache_serves: u64,
    /// Cache-rung serves of the first wave after the flush (must be 0).
    pub post_flush_cache_serves: u64,
}

odt_obs::fields_to_json! {
    Flush: generation_before, generation_after, warm_cache_serves, post_flush_cache_serves
}

/// How `cluster_corrupt_swap`'s four candidates concluded.
#[derive(Default)]
pub struct Candidates {
    /// The bit-flipped candidate: `corrupt`.
    pub corrupt_code: String,
    /// The coarser-grid candidate: `shape_mismatch`.
    pub shape_code: String,
    /// The good candidate under an impossible gate: `drift_failed`.
    pub drift_code: String,
    /// The good candidate under the normal gate: `promoted v2`.
    pub promote_code: String,
    /// Whether a request made mid-swap was refused busy.
    pub busy_refused: bool,
    /// The slot's version at the end.
    pub serving_version: u64,
    /// The slot's install count at the end.
    pub serving_swaps: u64,
    /// Requests not answered `Served` while a swap was in flight.
    pub interruptions: u64,
}

odt_obs::fields_to_json! {
    Candidates: corrupt_code, shape_code, drift_code, promote_code, busy_refused, serving_version,
    serving_swaps, interruptions
}

/// What one drill observed and which expectations it violated.
#[derive(Default)]
pub struct DrillOutcome {
    /// Requests the drill submitted.
    pub submitted: u64,
    /// Requests a frontend admitted; `None` where no frontend took part.
    pub admitted: Option<u64>,
    /// Requests that got an answer.
    pub served: u64,
    /// One string per violated expectation; empty = pass.
    pub violations: Vec<String>,
    /// The frontend's counters at the end.
    pub frontend: Option<FrontendSnapshot>,
    /// Wire trace ids the server adopted.
    pub adopted_traces: Option<u64>,
    /// The shadow scorer's accuracy windows and alarms.
    pub quality: Option<QualitySnapshot>,
    /// The estimate cache's counters.
    pub cache: Option<CacheStats>,
    /// The cache flush the drift caused.
    pub flush: Option<Flush>,
    /// What the clients got back.
    pub replies: Option<Replies>,
    /// The wire port's connection counters after its drain (behind a
    /// router: the router's).
    pub conns: Option<ConnStatsSnapshot>,
    /// How that drain went.
    pub drain: Option<DrainReport>,
    /// The router's cluster counters at the end.
    pub cluster: Option<ClusterSnapshot>,
    /// The swap controller's counters.
    pub swap: Option<SwapStats>,
    /// How each swap candidate concluded.
    pub candidates: Option<Candidates>,
}

impl DrillOutcome {
    /// A drill that could not run: one violation, nothing observed.
    pub fn failed(why: String) -> DrillOutcome {
        DrillOutcome {
            violations: vec![why],
            ..DrillOutcome::default()
        }
    }

    /// `served / submitted`; 1 when nothing was submitted.
    pub fn answer_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.served as f64 / self.submitted as f64
        }
    }

    /// The head counts and the `frontend` block of one frontend's snapshot.
    fn of_frontend(s: FrontendSnapshot) -> DrillOutcome {
        DrillOutcome {
            submitted: s.submitted,
            admitted: Some(s.admitted),
            served: s.served,
            frontend: Some(s),
            ..DrillOutcome::default()
        }
    }

    /// Write every evidence block the drill filled in, each under its own
    /// key; a block the drill has no source for is absent.
    pub fn evidence<W: fmt::Write>(&self, o: &mut Obj<'_, W>) {
        fn block<W: fmt::Write>(o: &mut Obj<'_, W>, key: &str, v: &Option<impl ToJson>) {
            if let Some(v) = v {
                o.field(key, v);
            }
        }
        block(o, "frontend", &self.frontend);
        block(o, "adopted_traces", &self.adopted_traces);
        block(o, "quality", &self.quality);
        block(o, "cache", &self.cache);
        block(o, "flush", &self.flush);
        block(o, "replies", &self.replies);
        block(o, "conns", &self.conns);
        block(o, "drain", &self.drain);
        block(o, "cluster", &self.cluster);
        block(o, "swap", &self.swap);
        block(o, "candidates", &self.candidates);
    }
}

/// One row of [`DRILLS`].
pub struct Drill {
    /// Stable name: the `--scenario` argument and the report key.
    pub name: &'static str,
    /// What the drill demonstrates.
    pub description: &'static str,
    /// Run it.
    pub run: fn(&DrillCtx) -> DrillOutcome,
}

macro_rules! drill {
    ($family:ident :: $name:ident, $description:literal) => {
        Drill {
            name: stringify!($name),
            description: $description,
            run: $family::$name,
        }
    };
}

/// Every standing drill, in run order.
pub const DRILLS: [Drill; 16] = [
    drill!(
        serving::baseline,
        "no faults: everything serves at full fidelity"
    ),
    drill!(
        serving::nan_storm,
        "90% of model-rung calls return NaN: breakers trip, fallback answers"
    ),
    drill!(
        serving::latency_spike,
        "30ms injected latency against a 20ms deadline: the ladder routes down"
    ),
    drill!(
        serving::panic_wave,
        "70% of model-rung calls panic: panics are contained, requests still answer"
    ),
    drill!(
        serving::queue_flood,
        "10x queue capacity in one wave: overflow is shed, admitted requests serve"
    ),
    drill!(
        serving::breaker_recovery,
        "total NaN outage then recovery: breakers close and full fidelity resumes"
    ),
    drill!(
        serving::quality_drift,
        "shadow-scored holdout drifts; drift + accuracy-SLO alerts and a flightrec dump must fire"
    ),
    drill!(
        serving::cache_drift_invalidation,
        "drift alert flushes the estimate cache; zero pre-drift-generation serves afterwards"
    ),
    drill!(
        swap::cluster_corrupt_swap,
        "corrupt, misshapen and drift-failing swap candidates are refused with typed codes; \
         a good one promotes; serving never interrupted"
    ),
    drill!(
        net::net_conn_storm,
        "12 simultaneous connections against a cap of 4: over-cap connects get a typed \
         over_capacity frame, admitted ones are served, nothing leaks"
    ),
    drill!(
        net::net_slow_client,
        "a slowloris connection trickling half a header is cut at the frame deadline while a \
         healthy connection keeps being served"
    ),
    drill!(
        net::net_disconnect,
        "clients hanging up mid-request never wedge or leak their connections; concurrent \
         healthy traffic is unaffected"
    ),
    drill!(
        net::net_drain_under_load,
        "a drain issued mid-load flushes every admitted request inside the budget and closes \
         every connection"
    ),
    drill!(
        net::cluster_replica_kill,
        "a replica drains and dies mid-load: siblings absorb its traffic with zero \
         client-visible failures"
    ),
    drill!(
        net::cluster_router_partition,
        "a whole shard goes dark: its requests degrade to the router-local prior (never a \
         hang), the healthy shard is untouched, quorum reads false"
    ),
    drill!(
        net::cluster_trace_loss,
        "a replica dies mid-wave of traced requests: the retry is visible as sibling \
         downstream hops in one trace, and federation marks the replica stale without \
         dropping its history"
    ),
];
