//! The sharded oracle cluster: a router that spreads OD queries over
//! replicated shard workers, speaking `odt-wire/v1` downstream.
//!
//! One process and one model cannot serve a metro area. The cluster
//! splits the OD space by grid region ([`crate::shard::ShardMap`],
//! rendezvous-hashed `(origin_cell, dest_cell)` keys) across `N`
//! shards with `R` replicas each. The router is itself a wire server
//! (its backend, [`RouterBackend`], plugs into [`crate::server`]), so
//! clients need no cluster awareness at all — same protocol, same
//! port discipline, same drain semantics.
//!
//! ## Failover ladder
//!
//! Per request, replicas of the owning shard are tried in round-robin
//! order; a replica is skipped or abandoned when
//!
//! 1. the health prober last saw its `/readyz` as not-ready,
//! 2. its circuit breaker ([`odt_serve::CircuitBreaker`], the same
//!    state machine the single-process ladder uses per rung) is open,
//! 3. the call fails in transport (connect refused/timeout, reset,
//!    truncated reply, request deadline), or
//! 4. the replica answers with a *retryable* typed refusal
//!    (`queue_full`, `server_draining`, ... — exactly
//!    [`crate::wire::WireErrorCode::is_retryable`]).
//!
//! A success after any skip/failure counts one **failover**. Only when
//! every replica of the shard is exhausted — the shard is dark — does
//! the router degrade to its local prior (rung [`PRIOR_RUNG`]): the
//! number the shard's own `Fallback` rung would have given
//! ([`odt_serve::fallback_estimate_seconds`]), so the cluster's floor is
//! the single server's floor. An answer, always, never a hang.
//!
//! Non-retryable refusals (`invalid_query`, `malformed_frame`, ...)
//! are the client's problem, not the replica's: they propagate
//! verbatim and count as successful forwards.
//!
//! ## Health plane
//!
//! [`start_health_prober`] polls each replica's admin `/readyz`
//! (PR 7's plane) on an interval and publishes per-replica health into
//! [`ClusterShared`]; the router skips not-ready replicas *before*
//! burning a connect timeout on them, which is what makes drains
//! invisible to clients. [`ClusterShared::quorum_ready`] — every shard
//! has at least one ready replica — drives the router's own `/readyz`
//! aggregation.
//!
//! Everything is observable: per-replica health/breaker state and
//! forward/refusal/transport counters in [`ClusterSnapshot`] (rendered
//! by [`render_router_varz`] as `odt-router-varz/v2`), and cluster
//! totals as `cluster.*` metrics in the process registry.

use crate::admin::http_request;
use crate::loadgen::Region;
use crate::server::{instance_name, ConnStatsSnapshot, NetBackend, NetRequest};
use crate::shard::ShardMap;
use crate::wire::{Client, WireErrorCode, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES};
use odt_obs::json::{self, ToJson};
use odt_obs::{counter, event, gauge, Level};
use odt_serve::{fallback_estimate_seconds, BreakerConfig, BreakerState, CircuitBreaker, OdtInput};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Rung name the router reports when a whole shard is dark and the
/// request is answered by the router-local prior.
pub const PRIOR_RUNG: &str = "router_prior";

/// One shard replica's addresses.
#[derive(Clone, Debug)]
pub struct ReplicaAddr {
    /// The `odt-wire/v1` address queries are forwarded to.
    pub wire: String,
    /// The replica's admin-plane address (for `/readyz` probing); when
    /// absent the replica is never probed and health stays optimistic.
    pub admin: Option<String>,
}

impl ReplicaAddr {
    /// A replica with no admin plane (health learned only from calls).
    pub fn wire_only(wire: impl Into<String>) -> ReplicaAddr {
        ReplicaAddr {
            wire: wire.into(),
            admin: None,
        }
    }

    /// A replica with a probeable admin plane.
    pub fn with_admin(wire: impl Into<String>, admin: impl Into<String>) -> ReplicaAddr {
        ReplicaAddr {
            wire: wire.into(),
            admin: Some(admin.into()),
        }
    }
}

/// Cluster topology and router tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Replicas per shard: `shards[s][r]` is replica `r` of shard `s`.
    /// Every shard needs at least one replica.
    pub shards: Vec<Vec<ReplicaAddr>>,
    /// Geographic region the placement grid covers.
    pub region: Region,
    /// Per-axis cell count of the placement grid.
    pub cells: u32,
    /// Placement seed; all routers of one cluster must share it.
    pub seed: u64,
    /// Downstream TCP connect timeout, ms.
    pub connect_timeout_ms: u64,
    /// Per-forwarded-request deadline (write + read), ms.
    pub request_timeout_ms: u64,
    /// Per-replica circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Cap on downstream reply frames, bytes.
    pub max_frame_bytes: usize,
}

impl ClusterConfig {
    /// A config over `shards` with the default tuning.
    pub fn new(shards: Vec<Vec<ReplicaAddr>>) -> ClusterConfig {
        ClusterConfig {
            shards,
            region: Region::default(),
            cells: 64,
            seed: 0x0D75,
            connect_timeout_ms: 500,
            request_timeout_ms: 2_000,
            breaker: BreakerConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Last-probed health of one replica.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Never probed (or unprobeable: no admin address). The router
    /// tries these — refusing traffic on ignorance would turn a probe
    /// gap into an outage.
    Unknown,
    /// `/readyz` answered 200.
    Ready,
    /// `/readyz` answered non-200 or was unreachable.
    Unready,
}

impl ReplicaHealth {
    fn from_u8(v: u8) -> ReplicaHealth {
        match v {
            1 => ReplicaHealth::Ready,
            2 => ReplicaHealth::Unready,
            _ => ReplicaHealth::Unknown,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ReplicaHealth::Unknown => 0,
            ReplicaHealth::Ready => 1,
            ReplicaHealth::Unready => 2,
        }
    }

    /// Short tag for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaHealth::Unknown => "unknown",
            ReplicaHealth::Ready => "ready",
            ReplicaHealth::Unready => "unready",
        }
    }
}

#[derive(Default)]
struct ReplicaShared {
    health: AtomicU8,
    breaker_state: AtomicU8,
    breaker_trips: AtomicU64,
    forwarded: AtomicU64,
    refusals: AtomicU64,
    transport_errors: AtomicU64,
}

/// State shared between the router backend, the health prober, and the
/// admin plane (varz/readyz): per-replica health and counters, plus
/// cluster totals.
pub struct ClusterShared {
    topology: Vec<Vec<ReplicaAddr>>,
    replicas: Vec<Vec<ReplicaShared>>,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    prior_serves: AtomicU64,
    refusals: AtomicU64,
    transport_errors: AtomicU64,
}

impl ClusterShared {
    /// Shared state shaped like `cfg`'s topology, all-unknown health.
    pub fn new(cfg: &ClusterConfig) -> Arc<ClusterShared> {
        assert!(!cfg.shards.is_empty(), "a cluster needs at least one shard");
        for (s, replicas) in cfg.shards.iter().enumerate() {
            assert!(!replicas.is_empty(), "shard {s} has no replicas");
        }
        Arc::new(ClusterShared {
            topology: cfg.shards.clone(),
            replicas: cfg
                .shards
                .iter()
                .map(|rs| rs.iter().map(|_| ReplicaShared::default()).collect())
                .collect(),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            prior_serves: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            transport_errors: AtomicU64::new(0),
        })
    }

    /// The configured topology (shards × replicas).
    pub fn topology(&self) -> &[Vec<ReplicaAddr>] {
        &self.topology
    }

    /// Last-probed health of replica `r` of shard `s`.
    pub fn health(&self, s: usize, r: usize) -> ReplicaHealth {
        ReplicaHealth::from_u8(self.replicas[s][r].health.load(Ordering::Acquire))
    }

    /// Publish a health observation (the prober calls this; tests and
    /// drain hooks may too). Emits an event on every transition.
    pub fn set_health(&self, s: usize, r: usize, health: ReplicaHealth) {
        let was = self.replicas[s][r]
            .health
            .swap(health.as_u8(), Ordering::Release);
        if was != health.as_u8() {
            let level = if health == ReplicaHealth::Unready {
                Level::Warn
            } else {
                Level::Info
            };
            event(level, "cluster.replica_health")
                .field("shard", s as u64)
                .field("replica", r as u64)
                .field("addr", self.topology[s][r].wire.as_str())
                .field("health", health.name())
                .emit();
        }
    }

    /// Whether every shard has at least one routable replica: probed
    /// ready, or unprobeable (no admin address) and not known-bad. This
    /// drives the router's own `/readyz` aggregation — 503 until true.
    pub fn quorum_ready(&self) -> bool {
        self.topology.iter().enumerate().all(|(s, replicas)| {
            replicas.iter().enumerate().any(|(r, addr)| {
                match self.health(s, r) {
                    ReplicaHealth::Ready => true,
                    // No probe target: optimistic, same reasoning as
                    // routing to Unknown replicas.
                    ReplicaHealth::Unknown => addr.admin.is_none(),
                    ReplicaHealth::Unready => false,
                }
            })
        })
    }

    /// Total failovers (requests served by a non-first-choice replica).
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Total requests degraded to the router-local prior.
    pub fn prior_serves(&self) -> u64 {
        self.prior_serves.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of every counter for rendering.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            shards: self
                .topology
                .iter()
                .enumerate()
                .map(|(s, replicas)| {
                    replicas
                        .iter()
                        .enumerate()
                        .map(|(r, addr)| {
                            let rs = &self.replicas[s][r];
                            ReplicaSnapshot {
                                addr: addr.wire.clone(),
                                health: self.health(s, r).name(),
                                breaker: match rs.breaker_state.load(Ordering::Relaxed) {
                                    1 => "open",
                                    2 => "half_open",
                                    _ => "closed",
                                },
                                breaker_trips: rs.breaker_trips.load(Ordering::Relaxed),
                                forwarded: rs.forwarded.load(Ordering::Relaxed),
                                refusals: rs.refusals.load(Ordering::Relaxed),
                                transport_errors: rs.transport_errors.load(Ordering::Relaxed),
                            }
                        })
                        .collect()
                })
                .collect(),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            failovers: self.failovers(),
            prior_serves: self.prior_serves(),
            refusals: self.refusals.load(Ordering::Relaxed),
            transport_errors: self.transport_errors.load(Ordering::Relaxed),
            quorum_ready: self.quorum_ready(),
        }
    }

    fn publish_breaker(&self, s: usize, r: usize, state: BreakerState, trips: u64) {
        let code = match state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        self.replicas[s][r]
            .breaker_state
            .store(code, Ordering::Relaxed);
        self.replicas[s][r]
            .breaker_trips
            .store(trips, Ordering::Relaxed);
    }
}

/// One replica's row in [`ClusterSnapshot`].
#[derive(Clone, Debug)]
pub struct ReplicaSnapshot {
    /// Wire address.
    pub addr: String,
    /// Last-probed health tag.
    pub health: &'static str,
    /// Circuit-breaker state tag.
    pub breaker: &'static str,
    /// Breaker trips so far.
    pub breaker_trips: u64,
    /// Requests this replica answered (Ok or non-retryable Err).
    pub forwarded: u64,
    /// Retryable typed refusals from this replica.
    pub refusals: u64,
    /// Transport-level failures talking to this replica.
    pub transport_errors: u64,
}

odt_obs::fields_to_json! {
    ReplicaSnapshot: addr, health, breaker, breaker_trips, forwarded, refusals, transport_errors
}

/// Cluster counters at one instant (the `/varz` source).
#[derive(Clone, Debug, Default)]
pub struct ClusterSnapshot {
    /// Per-shard, per-replica rows.
    pub shards: Vec<Vec<ReplicaSnapshot>>,
    /// Requests answered by some replica.
    pub forwarded: u64,
    /// Requests served by a non-first-choice replica.
    pub failovers: u64,
    /// Requests degraded to the router-local prior.
    pub prior_serves: u64,
    /// Retryable refusals seen (pre-failover, so ≥ failovers' causes).
    pub refusals: u64,
    /// Transport failures seen.
    pub transport_errors: u64,
    /// Whether every shard had a routable replica.
    pub quorum_ready: bool,
}

/// The `cluster` block of the router's `/varz`, of its exit report and of
/// the cluster drills' lines.
impl ToJson for ClusterSnapshot {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        json::object(out, |o| {
            o.field("quorum_ready", self.quorum_ready)
                .field("forwarded_total", self.forwarded)
                .field("failovers_total", self.failovers)
                .field("prior_serves_total", self.prior_serves)
                .field("refusals_total", self.refusals)
                .field("transport_errors_total", self.transport_errors)
                .array("shards", |a| {
                    for replicas in &self.shards {
                        a.object(|o| {
                            o.field("replicas", &replicas[..]);
                        });
                    }
                });
        })
    }
}

/// A running background poller (the health prober here, the federation
/// scraper in [`crate::fed`]). [`PollerHandle::shutdown`] (or drop) stops
/// the thread.
pub struct PollerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl PollerHandle {
    /// Run `pass` on a thread called `name`: at once, then again
    /// `interval_ms` after each pass ends, until shut down.
    pub(crate) fn spawn(
        name: &str,
        interval_ms: u64,
        mut pass: impl FnMut() + Send + 'static,
    ) -> PollerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    pass();
                    // Sleep in short steps so shutdown stays prompt.
                    let mut slept = 0;
                    while slept < interval_ms.max(1) && !stop2.load(Ordering::Acquire) {
                        let step = (interval_ms.max(1) - slept).min(10);
                        thread::sleep(Duration::from_millis(step));
                        slept += step;
                    }
                }
            })
            .expect("spawn poller thread");
        PollerHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop polling and join the thread.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PollerHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Start the health prober: a thread that polls every probeable
/// replica's `/readyz` each `interval_ms` and publishes the result into
/// `shared`. Unreachable probes mark the replica unready.
pub fn start_health_prober(
    shared: Arc<ClusterShared>,
    interval_ms: u64,
    timeout_ms: u64,
) -> PollerHandle {
    let timeout = Duration::from_millis(timeout_ms.max(1));
    PollerHandle::spawn("odt-cluster-prober", interval_ms, move || {
        for (s, replicas) in shared.topology().iter().enumerate() {
            for (r, addr) in replicas.iter().enumerate() {
                let Some(admin) = &addr.admin else { continue };
                let health = match http_request(admin, "GET", "/readyz", timeout) {
                    Some((200, _)) => ReplicaHealth::Ready,
                    _ => ReplicaHealth::Unready,
                };
                shared.set_health(s, r, health);
            }
        }
        gauge("cluster.quorum_ready").set(if shared.quorum_ready() { 1.0 } else { 0.0 });
    })
}

struct ReplicaSlot {
    client: Client,
    breaker: CircuitBreaker,
}

/// The router's network backend: shard placement + replica failover.
/// Plug it into [`crate::server::start`] to get a wire-speaking router
/// process with the full frontend hardening for free.
pub struct RouterBackend {
    map: ShardMap,
    slots: Vec<Vec<ReplicaSlot>>,
    rr: Vec<usize>,
    dark_warned: Vec<bool>,
    shared: Arc<ClusterShared>,
    /// Per-forwarded-request deadline (write + read).
    request_timeout: Duration,
    epoch: Instant,
    /// Breaker trips already seen per replica; a trip beyond this fans a
    /// flight-recorder dump out to the implicated shard's replicas.
    seen_trips: Vec<Vec<u64>>,
}

impl RouterBackend {
    /// A router over `cfg`'s topology publishing into `shared` (build
    /// `shared` with [`ClusterShared::new`] from the same config).
    pub fn new(cfg: ClusterConfig, shared: Arc<ClusterShared>) -> RouterBackend {
        assert_eq!(
            cfg.shards.len(),
            shared.topology().len(),
            "shared state must come from the same topology"
        );
        let map = ShardMap::new(cfg.shards.len(), cfg.cells, cfg.region, cfg.seed);
        let slots: Vec<Vec<ReplicaSlot>> = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(s, replicas)| {
                replicas
                    .iter()
                    .enumerate()
                    .map(|(r, addr)| ReplicaSlot {
                        client: Client::new(
                            addr.wire.clone(),
                            Duration::from_millis(cfg.connect_timeout_ms.max(1)),
                            cfg.max_frame_bytes,
                        ),
                        // Breaker names are 'static for the event plane;
                        // one small leak per replica at startup.
                        breaker: CircuitBreaker::new(
                            Box::leak(format!("shard{s}_replica{r}").into_boxed_str()),
                            cfg.breaker,
                        ),
                    })
                    .collect()
            })
            .collect();
        let n_shards = slots.len();
        let seen_trips = slots.iter().map(|rs| vec![0u64; rs.len()]).collect();
        RouterBackend {
            map,
            slots,
            rr: vec![0; n_shards],
            dark_warned: vec![false; n_shards],
            shared,
            request_timeout: Duration::from_millis(cfg.request_timeout_ms.max(1)),
            epoch: Instant::now(),
            seen_trips,
        }
    }

    /// The router's placement map (tests and bins derive expected
    /// shards from it).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn note_failover(&self, shard: usize, attempts: u32) {
        self.shared.failovers.fetch_add(1, Ordering::Relaxed);
        counter("cluster.failovers").inc();
        event(Level::Warn, "cluster.failover")
            .field("shard", shard as u64)
            .field("attempts_before_success", attempts as u64)
            .emit();
    }

    fn note_forward_ok(&mut self, shard: usize, ri: usize, skipped_or_failed: u32) {
        self.shared.forwarded.fetch_add(1, Ordering::Relaxed);
        self.shared.replicas[shard][ri]
            .forwarded
            .fetch_add(1, Ordering::Relaxed);
        counter("cluster.forwarded").inc();
        self.dark_warned[shard] = false;
        if skipped_or_failed > 0 {
            self.note_failover(shard, skipped_or_failed);
        }
    }

    fn route_one(&mut self, nr: NetRequest) -> WireResponse {
        let req = nr.req;
        // Root span for the routed request. A client-propagated trace is
        // adopted (with the client's span as parent) so router and shard
        // fragments stitch into the caller's trace; otherwise the router
        // mints its own, subject to head sampling.
        let root = match req.trace {
            Some(t) => {
                odt_obs::trace::root_span_adopted("router.request", t, req.parent_span.unwrap_or(0))
            }
            None => odt_obs::trace::root_span("router.request"),
        };
        root.set_request_id(req.id);
        odt_obs::trace::record_backdated_span("router.queue_wait", nr.age_us);
        let q = req.query;
        if !(q.o_lng.is_finite()
            && q.o_lat.is_finite()
            && q.d_lng.is_finite()
            && q.d_lat.is_finite()
            && q.t_dep.is_finite())
        {
            // The oracle's admission check would reject this anyway;
            // answering locally saves a replica round trip.
            return WireResponse::error(req.id, WireErrorCode::InvalidQuery, "non-finite field");
        }
        let shard = self.map.shard_of(&q);
        let n = self.slots[shard].len();
        let start = self.rr[shard] % n;
        self.rr[shard] = self.rr[shard].wrapping_add(1);
        let mut skipped_or_failed = 0u32;
        for k in 0..n {
            let ri = (start + k) % n;
            if self.shared.health(shard, ri) == ReplicaHealth::Unready {
                skipped_or_failed += 1;
                continue;
            }
            let now = self.now_us();
            if !self.slots[shard][ri].breaker.allow(now) {
                skipped_or_failed += 1;
                continue;
            }
            // Each downstream attempt is its own child span, so a stitched
            // trace shows failover retries as sibling `router.downstream`
            // hops. The forwarded frame carries the router's live context
            // — trace id plus the hop span as `parent_span` — so the
            // shard's `serve.request` fragment attributes to this attempt;
            // when tracing is off the client's own fields pass through.
            let hop = odt_obs::span("router.downstream");
            let (d_trace, d_parent) = match odt_obs::trace::current_context() {
                Some(ctx) => (Some(ctx.trace_id()), Some(ctx.span_id().raw())),
                None => (req.trace, req.parent_span),
            };
            let d_req = WireRequest {
                id: req.id,
                query: req.query,
                deadline_ms: req.deadline_ms,
                trace: d_trace,
                parent_span: d_parent,
            };
            let outcome = self.slots[shard][ri]
                .client
                .call(&d_req, self.request_timeout);
            drop(hop);
            let now = self.now_us();
            match outcome {
                Ok(resp @ WireResponse::Ok { .. }) => {
                    self.slots[shard][ri].breaker.record_success(now);
                    self.note_forward_ok(shard, ri, skipped_or_failed);
                    return resp;
                }
                Ok(resp @ WireResponse::Err { code, .. }) => {
                    if code.is_retryable() {
                        // The replica refused for capacity/drain
                        // reasons — a sibling may well accept.
                        self.slots[shard][ri].breaker.record_failure(now);
                        self.shared.refusals.fetch_add(1, Ordering::Relaxed);
                        self.shared.replicas[shard][ri]
                            .refusals
                            .fetch_add(1, Ordering::Relaxed);
                        counter("cluster.replica_refusals").inc();
                        skipped_or_failed += 1;
                    } else {
                        // The request is at fault, not the replica:
                        // propagate the typed error verbatim.
                        self.slots[shard][ri].breaker.record_success(now);
                        self.note_forward_ok(shard, ri, skipped_or_failed);
                        return resp;
                    }
                }
                Err(_) => {
                    self.slots[shard][ri].breaker.record_failure(now);
                    self.shared.transport_errors.fetch_add(1, Ordering::Relaxed);
                    self.shared.replicas[shard][ri]
                        .transport_errors
                        .fetch_add(1, Ordering::Relaxed);
                    counter("cluster.replica_transport_errors").inc();
                    skipped_or_failed += 1;
                }
            }
        }
        // Every replica skipped, refused, or failed: the shard is dark.
        // Degrade to the router-local prior — an answer, never a hang.
        self.shared.prior_serves.fetch_add(1, Ordering::Relaxed);
        counter("cluster.prior_serves").inc();
        if !self.dark_warned[shard] {
            self.dark_warned[shard] = true;
            event(Level::Warn, "cluster.shard_dark")
                .field("shard", shard as u64)
                .field("replicas", n as u64)
                .emit();
        }
        WireResponse::Ok {
            id: req.id,
            seconds: fallback_estimate_seconds(&OdtInput::from(&q)),
            rung: PRIOR_RUNG.to_string(),
            queue_wait_us: nr.age_us,
            service_us: 0,
            deadline_met: true,
            trace: req.trace,
            // The router itself answered — attribute the prior serve to
            // this process, not to any replica.
            served_by: Some(instance_name().to_string()),
        }
    }

    fn publish(&mut self) {
        let mut tripped_shards = Vec::new();
        for (s, replicas) in self.slots.iter().enumerate() {
            for (r, slot) in replicas.iter().enumerate() {
                let trips = slot.breaker.trips();
                if trips > self.seen_trips[s][r] {
                    self.seen_trips[s][r] = trips;
                    if !tripped_shards.contains(&s) {
                        tripped_shards.push(s);
                    }
                }
                self.shared
                    .publish_breaker(s, r, slot.breaker.state(), trips);
            }
        }
        for s in tripped_shards {
            self.fanout_flightrec(s, "breaker_open");
        }
        gauge("cluster.quorum_ready").set(if self.shared.quorum_ready() { 1.0 } else { 0.0 });
    }

    /// Fan a flight-recorder dump out to every replica of `shard` (fire
    /// and forget, off the dispatcher thread): on a router-side incident
    /// alert — a replica breaker opening, or the binary's SLO monitor via
    /// this public hook — each replica of the implicated shard POSTs its
    /// own `/flightrec`, so the black boxes on both sides of the wire
    /// cover the same window and correlate by trace id.
    pub fn fanout_flightrec(&self, shard: usize, reason: &'static str) {
        let admins: Vec<String> = self.shared.topology()[shard]
            .iter()
            .filter_map(|a| a.admin.clone())
            .collect();
        counter("cluster.flightrec_fanout").inc();
        event(Level::Warn, "cluster.flightrec_fanout")
            .field("shard", shard as u64)
            .field("reason", reason)
            .field("replicas", admins.len() as u64)
            .emit();
        // Dump the router's own side too, so the correlation has both ends.
        let _ = odt_obs::flightrec::trigger(reason);
        if admins.is_empty() {
            return;
        }
        let _ = thread::Builder::new()
            .name("odt-flightrec-fanout".to_string())
            .spawn(move || {
                for a in admins {
                    let _ = http_request(&a, "POST", "/flightrec", Duration::from_millis(1_000));
                }
            });
    }
}

impl NetBackend for RouterBackend {
    fn process(&mut self, batch: Vec<NetRequest>) -> Vec<(usize, WireResponse)> {
        let out = batch
            .into_iter()
            .enumerate()
            .map(|(i, nr)| {
                let resp = self.route_one(nr);
                (i, resp)
            })
            .collect();
        self.publish();
        out
    }

    fn on_tick(&mut self) {
        self.publish();
    }
}

/// Render the router's `/varz` JSON body (`odt-router-varz/v2`): server
/// state, wire-port connection counters, and the cluster block.
pub fn render_router_varz(
    state: &str,
    conn: &ConnStatsSnapshot,
    cluster: &ClusterSnapshot,
) -> String {
    json::object_string(|o| {
        o.field("schema", "odt-router-varz/v2")
            .field("state", state)
            .field("conns", conn)
            .field("cluster", cluster);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{start_admin, AdminConfig, AdminSources};
    use crate::server::{start, EchoBackend, ServerConfig, ServerHandle};
    use crate::wire::WireQuery;
    use odt_obs::SplitMix64;

    fn echo_server() -> ServerHandle {
        let cfg = ServerConfig {
            drain_budget_ms: 500,
            ..ServerConfig::default()
        };
        start(cfg, EchoBackend::instant()).expect("echo server")
    }

    fn test_cluster_cfg(handles: &[Vec<&ServerHandle>]) -> ClusterConfig {
        let shards = handles
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(|h| ReplicaAddr::wire_only(h.addr().to_string()))
                    .collect()
            })
            .collect();
        let mut cfg = ClusterConfig::new(shards);
        // Fail fast in tests: a dead loopback port refuses instantly,
        // but keep timeouts tight anyway.
        cfg.connect_timeout_ms = 200;
        cfg.request_timeout_ms = 1_000;
        cfg
    }

    fn request(id: u64, q: WireQuery) -> NetRequest {
        NetRequest {
            req: WireRequest {
                id,
                query: q,
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
            age_us: 0,
        }
    }

    fn random_query(rng: &mut SplitMix64) -> WireQuery {
        let r = Region::default();
        WireQuery {
            o_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
            o_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
            d_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
            d_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
            t_dep: 28_800.0,
        }
    }

    #[test]
    fn a_dark_shard_is_answered_with_the_shards_own_fallback_prior() {
        // One shard whose only replica is a bound-then-dropped port.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut cfg = ClusterConfig::new(vec![vec![ReplicaAddr::wire_only(dead)]]);
        cfg.connect_timeout_ms = 200;
        let shared = ClusterShared::new(&cfg);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let mut rng = SplitMix64::new(5);
        // One degree of latitude is 111.2 km of crow line: 1.3 x that at
        // 8 m/s plus 60 s, where the router used to say crow line / 10 m/s.
        let one_degree = WireQuery {
            o_lng: 104.0,
            o_lat: 30.0,
            d_lng: 104.0,
            d_lat: 31.0,
            t_dep: 0.0,
        };
        let queries: Vec<WireQuery> = std::iter::once(one_degree)
            .chain((0..8).map(|_| random_query(&mut rng)))
            .collect();
        for (id, q) in queries.iter().enumerate() {
            let shard_says = fallback_estimate_seconds(&OdtInput::from(q));
            match &router.process(vec![request(id as u64, *q)])[0].1 {
                WireResponse::Ok { seconds, rung, .. } => {
                    assert_eq!(rung, PRIOR_RUNG);
                    assert_eq!(seconds.to_bits(), shard_says.to_bits(), "{q:?}");
                }
                other => panic!("dark shard must degrade, not error: {other:?}"),
            }
            if id == 0 {
                assert!((18_000.0..18_300.0).contains(&shard_says), "{shard_says}");
            }
        }
        assert_eq!(shared.prior_serves(), 9);
        // A non-finite query is refused before it can reach the prior.
        let nan = WireQuery {
            d_lat: f64::NAN,
            ..one_degree
        };
        assert!(matches!(
            router.process(vec![request(99, nan)])[0].1,
            WireResponse::Err {
                code: WireErrorCode::InvalidQuery,
                ..
            }
        ));
        assert_eq!(shared.prior_serves(), 9);
    }

    #[test]
    fn routes_requests_and_fails_over_when_replicas_die() {
        let mut handles: Vec<Vec<Option<ServerHandle>>> = vec![
            vec![Some(echo_server()), Some(echo_server())],
            vec![Some(echo_server()), Some(echo_server())],
        ];
        let cfg = test_cluster_cfg(&[
            vec![
                handles[0][0].as_ref().unwrap(),
                handles[0][1].as_ref().unwrap(),
            ],
            vec![
                handles[1][0].as_ref().unwrap(),
                handles[1][1].as_ref().unwrap(),
            ],
        ]);
        let shared = ClusterShared::new(&cfg);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let mut rng = SplitMix64::new(11);

        // Healthy cluster: every request is answered by a replica.
        let batch: Vec<NetRequest> = (0..40)
            .map(|i| request(i, random_query(&mut rng)))
            .collect();
        for (_, resp) in router.process(batch) {
            match resp {
                WireResponse::Ok { ref rung, .. } => assert_eq!(rung, "echo"),
                other => panic!("healthy cluster refused: {other:?}"),
            }
        }
        assert_eq!(shared.snapshot().forwarded, 40);
        assert_eq!(shared.failovers(), 0);

        // Kill one replica of shard 0: every request still succeeds,
        // and the ones that first tried the dead replica fail over.
        handles[0][0].take().unwrap().drain();
        let batch: Vec<NetRequest> = (100..180)
            .map(|i| request(i, random_query(&mut rng)))
            .collect();
        for (_, resp) in router.process(batch) {
            match resp {
                WireResponse::Ok { ref rung, .. } => assert_eq!(rung, "echo"),
                other => panic!("replica death became client-visible: {other:?}"),
            }
        }
        assert!(
            shared.failovers() > 0,
            "dead first-choice replicas must show up as failovers"
        );
        assert_eq!(shared.prior_serves(), 0, "sibling held the shard up");

        // Kill the sibling too: shard 0 is dark. Its requests degrade
        // to the router prior; shard 1 keeps being replica-served.
        handles[0][1].take().unwrap().drain();
        let map = router.map();
        let mut dark = Vec::new();
        let mut lit = Vec::new();
        let mut id = 1_000u64;
        while dark.len() < 5 || lit.len() < 5 {
            let q = random_query(&mut rng);
            id += 1;
            if map.shard_of(&q) == 0 {
                dark.push(request(id, q));
            } else {
                lit.push(request(id, q));
            }
        }
        for (_, resp) in router.process(dark) {
            match resp {
                WireResponse::Ok { ref rung, .. } => assert_eq!(rung, PRIOR_RUNG),
                other => panic!("dark shard must degrade, not error: {other:?}"),
            }
        }
        for (_, resp) in router.process(lit) {
            match resp {
                WireResponse::Ok { ref rung, .. } => assert_eq!(rung, "echo"),
                other => panic!("healthy shard affected by the other: {other:?}"),
            }
        }
        assert!(shared.prior_serves() >= 5);

        let snap = shared.snapshot();
        assert!(snap.transport_errors > 0);
        let body = render_router_varz("running", &ConnStatsSnapshot::default(), &snap);
        assert!(
            body.starts_with("{\"schema\":\"odt-router-varz/v2\""),
            "{body}"
        );
        assert!(body.contains("\"failovers_total\":"), "{body}");
        assert!(body.contains("\"breaker\":"), "{body}");

        for h in handles.into_iter().flatten().flatten() {
            h.drain();
        }
    }

    #[test]
    fn unready_replicas_are_skipped_without_a_connection_attempt() {
        let live = echo_server();
        // The "dead" replica address points at a bound-then-dropped
        // listener: connecting would refuse, but health says skip.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut cfg = test_cluster_cfg(&[vec![&live]]);
        cfg.shards[0].insert(0, ReplicaAddr::wire_only(dead_addr));
        let shared = ClusterShared::new(&cfg);
        shared.set_health(0, 0, ReplicaHealth::Unready);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let mut rng = SplitMix64::new(3);
        let batch: Vec<NetRequest> = (0..8).map(|i| request(i, random_query(&mut rng))).collect();
        for (_, resp) in router.process(batch) {
            assert!(matches!(resp, WireResponse::Ok { .. }), "{resp:?}");
        }
        let snap = shared.snapshot();
        assert_eq!(
            snap.transport_errors, 0,
            "skipping by health must not attempt connects"
        );
        assert!(snap.failovers > 0, "health skips still count as failovers");
        live.drain();
    }

    #[test]
    fn invalid_queries_are_answered_locally_with_a_typed_error() {
        let live = echo_server();
        let cfg = test_cluster_cfg(&[vec![&live]]);
        let shared = ClusterShared::new(&cfg);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let bad = request(
            7,
            WireQuery {
                o_lng: f64::NAN,
                o_lat: 30.7,
                d_lng: 104.1,
                d_lat: 30.7,
                t_dep: 0.0,
            },
        );
        match &router.process(vec![bad])[0].1 {
            WireResponse::Err { id, code, .. } => {
                assert_eq!(*id, 7);
                assert_eq!(*code, WireErrorCode::InvalidQuery);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(shared.snapshot().forwarded, 0, "never left the router");
        live.drain();
    }

    #[test]
    fn quorum_needs_one_routable_replica_per_shard() {
        let cfg = ClusterConfig::new(vec![
            vec![
                ReplicaAddr::with_admin("127.0.0.1:1", "127.0.0.1:2"),
                ReplicaAddr::with_admin("127.0.0.1:3", "127.0.0.1:4"),
            ],
            vec![ReplicaAddr::wire_only("127.0.0.1:5")],
        ]);
        let shared = ClusterShared::new(&cfg);
        // Shard 1's replica is unprobeable → optimistic. Shard 0 is all
        // unknown-but-probeable → not yet ready.
        assert!(!shared.quorum_ready(), "probeable replicas start unproven");
        shared.set_health(0, 1, ReplicaHealth::Ready);
        assert!(shared.quorum_ready());
        shared.set_health(0, 1, ReplicaHealth::Unready);
        assert!(!shared.quorum_ready(), "last ready replica of a shard gone");
        shared.set_health(0, 0, ReplicaHealth::Ready);
        assert!(shared.quorum_ready());
        // An unready *unprobeable* replica also counts against quorum.
        shared.set_health(1, 0, ReplicaHealth::Unready);
        assert!(!shared.quorum_ready());
    }

    #[test]
    fn prober_publishes_health_transitions() {
        let admin = start_admin(AdminConfig::default(), AdminSources::default()).unwrap();
        let cfg = ClusterConfig::new(vec![vec![ReplicaAddr::with_admin(
            "127.0.0.1:9",
            admin.addr().to_string(),
        )]]);
        let shared = ClusterShared::new(&cfg);
        let prober = start_health_prober(Arc::clone(&shared), 10, 200);
        let wait_for = |want: ReplicaHealth| {
            let t0 = Instant::now();
            while shared.health(0, 0) != want {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "health never became {:?}",
                    want
                );
                thread::sleep(Duration::from_millis(5));
            }
        };
        wait_for(ReplicaHealth::Unready);
        assert!(!shared.quorum_ready());
        admin.set_ready(true);
        wait_for(ReplicaHealth::Ready);
        assert!(shared.quorum_ready());
        admin.set_ready(false);
        wait_for(ReplicaHealth::Unready);
        prober.shutdown();
        admin.shutdown();
    }

    #[test]
    fn router_roots_spans_and_adopts_the_clients_trace_context() {
        odt_obs::trace::set_sample_every(1);
        let live = echo_server();
        let cfg = test_cluster_cfg(&[vec![&live]]);
        let shared = ClusterShared::new(&cfg);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let wire = odt_obs::TraceId::from_raw(0x00C1_0C1A_5E55_0001).unwrap();
        let mut nr = request(42, random_query(&mut SplitMix64::new(9)));
        nr.req.trace = Some(wire);
        nr.req.parent_span = Some(5);
        nr.age_us = 137;
        match &router.process(vec![nr])[0].1 {
            WireResponse::Ok {
                trace, served_by, ..
            } => {
                assert_eq!(*trace, Some(wire), "trace id must survive the hop");
                assert!(served_by.is_some(), "replica attribution missing");
            }
            other => panic!("traced request failed: {other:?}"),
        }
        let traces = odt_obs::trace::retained_traces();
        let t = traces
            .iter()
            .rev()
            .find(|t| t.trace_id == wire && t.root_name == "router.request")
            .expect("adopted router trace must be retained");
        assert_eq!(t.parent_span, 5, "client parent ordinal lost");
        assert_eq!(t.request_id, Some(42));
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"router.queue_wait"), "{names:?}");
        assert!(names.contains(&"router.downstream"), "{names:?}");
        live.drain();
    }

    #[test]
    fn breaker_trips_fan_flightrec_out_to_the_shards_admins() {
        // One shard whose only replica has a dead wire port but a live
        // admin plane: hammering it trips the breaker, and publish()
        // must react by POSTing /flightrec to that admin endpoint.
        let admin = start_admin(AdminConfig::default(), AdminSources::default()).unwrap();
        let dead_wire = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut cfg = ClusterConfig::new(vec![vec![ReplicaAddr::with_admin(
            dead_wire,
            admin.addr().to_string(),
        )]]);
        cfg.connect_timeout_ms = 200;
        cfg.request_timeout_ms = 500;
        let shared = ClusterShared::new(&cfg);
        let mut router = RouterBackend::new(cfg, Arc::clone(&shared));
        let mut rng = SplitMix64::new(21);
        let before = admin.requests();
        let batch: Vec<NetRequest> = (0..40)
            .map(|i| request(i, random_query(&mut rng)))
            .collect();
        for (_, resp) in router.process(batch) {
            match resp {
                WireResponse::Ok { ref rung, .. } => assert_eq!(rung, PRIOR_RUNG),
                other => panic!("dark shard must degrade: {other:?}"),
            }
        }
        // No health prober is running, so any admin-plane request can
        // only have come from the flight-recorder fan-out thread.
        let t0 = Instant::now();
        while admin.requests() == before {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "flightrec fan-out never reached the shard's admin plane"
            );
            thread::sleep(Duration::from_millis(10));
        }
        admin.shutdown();
    }

    #[test]
    fn router_varz_bytes_are_pinned() {
        let replica = |addr: &str, breaker: &'static str, n: u64| ReplicaSnapshot {
            addr: addr.to_string(),
            health: "ready",
            breaker,
            breaker_trips: n,
            forwarded: 10 * n,
            refusals: n + 1,
            transport_errors: n + 2,
        };
        let snap = ClusterSnapshot {
            shards: vec![
                vec![
                    replica("10.0.0.1:7000", "closed", 0),
                    replica("10.0.0.2:7000", "open", 3),
                ],
                vec![],
                vec![replica("host\"x\":7000", "half_open", 1)],
            ],
            forwarded: 40,
            failovers: 2,
            prior_serves: 1,
            refusals: 5,
            transport_errors: 6,
            quorum_ready: false,
        };
        let conn = ConnStatsSnapshot {
            opened: 3,
            closed: 2,
            active: 1,
            frames_in: 6,
            frames_out: 7,
            malformed: 8,
            rejected_capacity: 4,
            rejected_draining: 5,
            ..ConnStatsSnapshot::default()
        };
        assert_eq!(
            render_router_varz("draining", &conn, &snap),
            "{\"schema\":\"odt-router-varz/v2\",\"state\":\"draining\",\
             \"conns\":{\"opened\":3,\"closed\":2,\"active\":1,\"rejected_capacity\":4,\
             \"rejected_draining\":5,\"frames_in\":6,\"frames_out\":7,\"malformed\":8,\
             \"too_large\":0,\"timeouts_idle\":0,\"timeouts_frame\":0,\"read_errors\":0,\
             \"write_errors\":0,\"backpressure_stalls\":0,\"dispatch_shed\":0,\
             \"reply_drops\":0,\"forced_closes\":0},\
             \"cluster\":{\"quorum_ready\":false,\"forwarded_total\":40,\
             \"failovers_total\":2,\"prior_serves_total\":1,\"refusals_total\":5,\
             \"transport_errors_total\":6,\"shards\":[\
             {\"replicas\":[\
             {\"addr\":\"10.0.0.1:7000\",\"health\":\"ready\",\"breaker\":\"closed\",\
             \"breaker_trips\":0,\"forwarded\":0,\"refusals\":1,\"transport_errors\":2},\
             {\"addr\":\"10.0.0.2:7000\",\"health\":\"ready\",\"breaker\":\"open\",\
             \"breaker_trips\":3,\"forwarded\":30,\"refusals\":4,\"transport_errors\":5}]},\
             {\"replicas\":[]},\
             {\"replicas\":[\
             {\"addr\":\"host\\\"x\\\":7000\",\"health\":\"ready\",\"breaker\":\"half_open\",\
             \"breaker_trips\":1,\"forwarded\":10,\"refusals\":2,\"transport_errors\":3}]}]}}"
        );
    }
}
