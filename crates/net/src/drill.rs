//! Chaos drills over real loopback sockets: the four standing
//! network-fault scenarios and the three cluster-fault scenarios the chaos
//! harness runs on top of its serving-layer catalog. Every drill speaks
//! through [`crate::wire::Client`], tallies replies the same way and ends in
//! typed expectations; **zero leaked connections** after the drain is
//! enforced on all of them.
//!
//! ## Network drills
//!
//! Each boots a real server with the provided backend, applies a network
//! abuse pattern from the *client* side, then drains.
//!
//! | scenario              | abuse                                      |
//! |-----------------------|--------------------------------------------|
//! | `net_conn_storm`      | more simultaneous connections than the cap |
//! | `net_slow_client`     | a frame that trickles in forever           |
//! | `net_disconnect`      | clients that hang up mid-request           |
//! | `net_drain_under_load`| SIGTERM-style drain with clients attached  |
//!
//! ## Cluster drills
//!
//! Each boots a miniature cluster — echo-backed shard replicas (each with
//! its own admin plane), optionally a health prober, and a wire-speaking
//! router — and walks a short list of [`Phase`]s, injecting the fault
//! *between* client requests so outcomes are exactly reproducible:
//!
//! | scenario                   | fault                        | must hold                          |
//! |----------------------------|------------------------------|------------------------------------|
//! | `cluster_replica_kill`     | one replica drains + dies    | zero client-visible failures,      |
//! |                            | mid-load                     | failovers observed, quorum holds   |
//! |----------------------------|------------------------------|------------------------------------|
//! | `cluster_router_partition` | a whole shard goes dark      | every request still answered       |
//! |                            |                              | (prior rung, never a hang), quorum |
//! |                            |                              | reads false                        |
//! |----------------------------|------------------------------|------------------------------------|
//! | `cluster_trace_loss`       | a replica (wire + admin) dies| retained traces show the retry as  |
//! |                            | mid-wave of traced requests  | two downstream hops under one      |
//! |                            |                              | router span; federation marks the  |
//! |                            |                              | replica stale, keeps its history   |
//!
//! The replicas are echo-backed on purpose: these drills exercise the
//! routing/failover machinery, which is model-agnostic; the
//! model-dependent cluster drill (corrupt checkpoint swap) lives in the
//! `chaos_drill` binary where a trained model exists.

use crate::admin::{start_admin, AdminConfig, AdminHandle, AdminSources};
use crate::cluster::{
    start_health_prober, ClusterConfig, ClusterShared, PollerHandle, ReplicaAddr, ReplicaHealth,
    RouterBackend, PRIOR_RUNG,
};
use crate::fed::ClusterScraper;
use crate::loadgen::Region;
use crate::server::{
    start, start_with, ConnStatsSnapshot, EchoBackend, NetBackend, ServerConfig, ServerHandle,
};
use crate::wire::{
    Client, WireErrorCode, WireQuery, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a drill client waits for a connect or for one reply.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);

fn client(addr: SocketAddr) -> Client {
    Client::new(addr.to_string(), REPLY_DEADLINE, DEFAULT_MAX_FRAME_BYTES)
}

fn drill_query(region: &Region, i: u64) -> WireQuery {
    let fx = |f: f64| region.lng0 + (region.lng1 - region.lng0) * f;
    let fy = |f: f64| region.lat0 + (region.lat1 - region.lat0) * f;
    WireQuery {
        o_lng: fx(0.2 + 0.6 * (i % 7) as f64 / 7.0),
        o_lat: fy(0.3),
        d_lng: fx(0.7),
        d_lat: fy(0.2 + 0.6 * (i % 5) as f64 / 5.0),
        t_dep: 8.0 * 3600.0 + i as f64,
    }
}

fn drill_request(region: &Region, id: u64, traced: bool) -> WireRequest {
    WireRequest {
        id,
        query: drill_query(region, id),
        deadline_ms: Some(2_000),
        trace: traced
            .then(|| odt_obs::TraceId::from_raw(0xD811_0000_0000_0000 | id))
            .flatten(),
        parent_span: None,
    }
}

/// Reply tally of one drill, over all its clients.
#[derive(Default)]
struct Tally {
    /// OK replies from a server (behind a router: from a shard replica).
    ok: u64,
    /// OK replies served by the router-local prior rung.
    prior_ok: u64,
    /// Requests whose reply never arrived.
    lost: u64,
    /// Typed error replies by code name.
    errs: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn absorb(&mut self, reply: io::Result<WireResponse>) {
        match reply {
            Err(_) => self.lost += 1,
            Ok(WireResponse::Ok { rung, .. }) if rung == PRIOR_RUNG => self.prior_ok += 1,
            Ok(WireResponse::Ok { .. }) => self.ok += 1,
            Ok(WireResponse::Err { code, .. }) => *self.errs.entry(code.name()).or_insert(0) += 1,
        }
    }

    fn sorted_errs(&self) -> Vec<(String, u64)> {
        self.errs.iter().map(|(k, n)| (k.to_string(), *n)).collect()
    }
}

/// Which abuse pattern a network drill applies.
#[derive(Copy, Clone, Debug)]
pub enum NetScenarioKind {
    /// Open `conns` connections against a server capped well below that.
    ConnStorm {
        /// Simultaneous client connections.
        conns: usize,
    },
    /// One slowloris connection (partial frame, then silence) next to a
    /// healthy one.
    SlowClient,
    /// `victims` connections that send a request and hang up before the
    /// reply; a healthy connection rides along.
    Disconnect {
        /// Connections that disconnect mid-request.
        victims: usize,
    },
    /// Closed-loop load from `clients` connections while the server
    /// drains after `load_ms` of traffic.
    DrainUnderLoad {
        /// Hammering client connections.
        clients: usize,
        /// Load duration before the drain starts, ms.
        load_ms: u64,
    },
}

/// Typed pass/fail expectations for one network drill.
#[derive(Copy, Clone, Debug, Default)]
pub struct NetExpectations {
    /// At least this many OK replies across all clients.
    pub min_ok: u64,
    /// At least this many `over_capacity` connection rejections.
    pub min_capacity_rejections: u64,
    /// At least this many slow-frame cuts.
    pub min_frame_timeouts: u64,
    /// The drain must finish inside its budget with nothing forced.
    pub require_clean_drain: bool,
}

impl NetExpectations {
    /// Check the drill's observations; one string per violated
    /// expectation. The zero-leak invariant is always enforced.
    pub fn check(
        &self,
        stats: &ConnStatsSnapshot,
        drain_clean: bool,
        ok_replies: u64,
    ) -> Vec<String> {
        let mut v = Vec::new();
        if stats.active != 0 {
            v.push(format!("leaked {} connection(s) after drain", stats.active));
        }
        if ok_replies < self.min_ok {
            v.push(format!(
                "only {ok_replies} ok replies (wanted ≥ {})",
                self.min_ok
            ));
        }
        if stats.rejected_capacity < self.min_capacity_rejections {
            v.push(format!(
                "only {} capacity rejections (wanted ≥ {})",
                stats.rejected_capacity, self.min_capacity_rejections
            ));
        }
        if stats.timeouts_frame < self.min_frame_timeouts {
            v.push(format!(
                "only {} slow-frame cuts (wanted ≥ {})",
                stats.timeouts_frame, self.min_frame_timeouts
            ));
        }
        if self.require_clean_drain && !drain_clean {
            v.push("drain overran its budget and force-closed connections".to_string());
        }
        v
    }
}

/// One network drill.
#[derive(Clone, Debug)]
pub struct NetScenarioSpec {
    /// Stable scenario name (report key).
    pub name: &'static str,
    /// What the drill demonstrates.
    pub description: &'static str,
    /// The abuse pattern.
    pub kind: NetScenarioKind,
    /// Server tuning the scenario needs (cap, deadlines, budget).
    pub server: ServerConfig,
    /// Where drill queries land. Callers running a model-backed server
    /// with strict admission must shrink this onto the model's grid, or
    /// every query sheds as `invalid_query`.
    pub region: Region,
    /// Pass/fail expectations.
    pub expect: NetExpectations,
}

/// What one network drill observed.
#[derive(Clone, Debug)]
pub struct NetDrillOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// OK replies across all drill clients.
    pub ok_replies: u64,
    /// Typed error replies by code name, sorted.
    pub err_replies: Vec<(String, u64)>,
    /// Final server counters.
    pub stats: ConnStatsSnapshot,
    /// Whether the drain finished inside its budget.
    pub drain_clean: bool,
    /// Connections the drain had to cut.
    pub forced_conns: i64,
    /// Flight-recorder dump from a forced drain, if any.
    pub flightrec_dump: Option<String>,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Violated expectations (empty = pass).
    pub violations: Vec<String>,
    /// `violations.is_empty()`.
    pub pass: bool,
}

fn drill_server_config() -> ServerConfig {
    ServerConfig {
        acceptor_threads: 1,
        read_timeout_ms: 5,
        frame_deadline_ms: 150,
        write_timeout_ms: 1_000,
        drain_budget_ms: 4_000,
        ..ServerConfig::default()
    }
}

/// The standing network drill catalog.
pub fn net_scenarios() -> Vec<NetScenarioSpec> {
    vec![
        NetScenarioSpec {
            name: "net_conn_storm",
            description: "12 simultaneous connections against a cap of 4: \
                          over-cap connects get a typed over_capacity frame, \
                          admitted ones are served, nothing leaks",
            region: Region::default(),
            kind: NetScenarioKind::ConnStorm { conns: 12 },
            server: ServerConfig {
                max_connections: 4,
                ..drill_server_config()
            },
            expect: NetExpectations {
                min_ok: 1,
                min_capacity_rejections: 1,
                require_clean_drain: true,
                ..NetExpectations::default()
            },
        },
        NetScenarioSpec {
            name: "net_slow_client",
            description: "a slowloris connection trickling half a header is \
                          cut at the frame deadline while a healthy \
                          connection keeps being served",
            region: Region::default(),
            kind: NetScenarioKind::SlowClient,
            server: drill_server_config(),
            expect: NetExpectations {
                min_ok: 3,
                min_frame_timeouts: 1,
                require_clean_drain: true,
                ..NetExpectations::default()
            },
        },
        NetScenarioSpec {
            name: "net_disconnect",
            description: "clients hanging up mid-request never wedge or leak \
                          their connections; concurrent healthy traffic is \
                          unaffected",
            region: Region::default(),
            kind: NetScenarioKind::Disconnect { victims: 3 },
            server: drill_server_config(),
            expect: NetExpectations {
                min_ok: 3,
                require_clean_drain: true,
                ..NetExpectations::default()
            },
        },
        NetScenarioSpec {
            name: "net_drain_under_load",
            description: "a drain issued mid-load flushes every admitted \
                          request inside the budget and closes every \
                          connection",
            region: Region::default(),
            kind: NetScenarioKind::DrainUnderLoad {
                clients: 2,
                load_ms: 150,
            },
            server: drill_server_config(),
            expect: NetExpectations {
                min_ok: 1,
                require_clean_drain: true,
                ..NetExpectations::default()
            },
        },
    ]
}

/// Block until the server answers one probe request (any reply counts).
///
/// The factory-built barrier in [`run_net_scenario_with`] already
/// guarantees the backend exists; this probe additionally proves the
/// dispatch → backend → reply path flows end to end before the drill's
/// abuse pattern (and its request deadlines) start measuring.
fn wait_ready(addr: SocketAddr, region: &Region) -> bool {
    let patience = Duration::from_secs(120);
    let give_up = Instant::now() + patience;
    let probe = WireRequest {
        deadline_ms: Some(120_000),
        ..drill_request(region, 0, false)
    };
    let mut conn = client(addr);
    while conn.call(&probe, patience).is_err() {
        if Instant::now() >= give_up {
            return false;
        }
        thread::sleep(Duration::from_millis(50));
    }
    true
}

/// Run one network drill. The backend is built *on* the server's
/// dispatcher thread by a `Send` factory — required for backends over the
/// `Rc`-based DOT model (see [`crate::server::start_with`]); a `Send`
/// backend goes in as `move || backend`.
pub fn run_net_scenario_with<B, F>(spec: &NetScenarioSpec, make_backend: F) -> NetDrillOutcome
where
    B: NetBackend + 'static,
    F: FnOnce() -> B + Send + 'static,
{
    let t0 = Instant::now();
    let fail = |violations: Vec<String>| NetDrillOutcome {
        name: spec.name,
        ok_replies: 0,
        err_replies: Vec::new(),
        stats: ConnStatsSnapshot::default(),
        drain_clean: false,
        forced_conns: 0,
        flightrec_dump: None,
        wall_s: t0.elapsed().as_secs_f64(),
        violations,
        pass: false,
    };
    // Machine-readable readiness: the factory signals the instant the
    // backend exists, so the drill separates "backend still constructing"
    // (wait quietly, no deadline pressure) from "server mute" (a bug the
    // probe below would surface). This mirrors the server binary's
    // "ready" line / `/readyz` flip.
    let (built_tx, built_rx) = std::sync::mpsc::channel::<()>();
    let make_backend = move || {
        let backend = make_backend();
        let _ = built_tx.send(());
        backend
    };
    let handle = match start_with(spec.server.clone(), make_backend) {
        Ok(h) => h,
        Err(e) => return fail(vec![format!("server failed to start: {e}")]),
    };
    let addr = handle.addr();
    if built_rx.recv_timeout(Duration::from_secs(600)).is_err() {
        let _ = handle.drain();
        return fail(vec!["backend factory never finished".to_string()]);
    }
    if !wait_ready(addr, &spec.region) {
        let _ = handle.drain();
        return fail(vec!["server never answered the readiness probe".to_string()]);
    }

    let region = spec.region;
    let tally = Arc::new(Mutex::new(Tally::default()));
    let absorb = |reply| tally.lock().unwrap().absorb(reply);

    // Clients still attached when the drain starts; joined after it.
    let mut attached = Vec::new();
    match spec.kind {
        NetScenarioKind::ConnStorm { conns } => {
            // Everyone connects and exchanges one request, then waits at
            // a barrier before hanging up — admitted connections hold
            // their slots so the rest reliably hit the cap.
            let barrier = Arc::new(Barrier::new(conns));
            let threads: Vec<_> = (0..conns)
                .map(|i| {
                    let barrier = Arc::clone(&barrier);
                    let tally = Arc::clone(&tally);
                    let req = drill_request(&region, i as u64 + 1, true);
                    thread::spawn(move || {
                        let mut conn = client(addr);
                        // Not `call`: the refusal at the cap carries id 0,
                        // and it is tallied as the typed reply it is.
                        let reply = conn
                            .send(&req, REPLY_DEADLINE)
                            .and_then(|()| conn.recv(Instant::now() + REPLY_DEADLINE));
                        barrier.wait();
                        drop(conn);
                        tally.lock().unwrap().absorb(reply);
                    })
                })
                .collect();
            for t in threads {
                let _ = t.join();
            }
        }
        NetScenarioKind::SlowClient => {
            // The slowloris: half a header, then nothing.
            let mut slow = client(addr);
            if let Ok(s) = slow.stream() {
                let _ = s.write_all(&[0u8, 0]);
                // A healthy neighbor is served while the slow one waits
                // out its frame deadline.
                let mut healthy = client(addr);
                for i in 0..4u64 {
                    absorb(healthy.call(&drill_request(&region, i + 1, true), REPLY_DEADLINE));
                }
                // Wait past the deadline so the server provably cut us:
                // this read ends when it does.
                let patience = Duration::from_millis(spec.server.frame_deadline_ms * 3 + 500);
                let _ = slow.recv(Instant::now() + patience);
            }
        }
        NetScenarioKind::Disconnect { victims } => {
            for i in 0..victims {
                let mut victim = client(addr);
                let _ = victim.send(&drill_request(&region, i as u64 + 1, true), REPLY_DEADLINE);
                drop(victim); // hang up before the reply
            }
            let mut healthy = client(addr);
            for i in 0..4u64 {
                absorb(healthy.call(&drill_request(&region, 100 + i, true), REPLY_DEADLINE));
            }
        }
        NetScenarioKind::DrainUnderLoad { clients, load_ms } => {
            for c in 0..clients as u64 {
                let tally = Arc::clone(&tally);
                attached.push(thread::spawn(move || {
                    let mut conn = client(addr);
                    for id in c * 100_000 + 1..=(c + 1) * 100_000 {
                        let reply = conn.call(&drill_request(&region, id, false), REPLY_DEADLINE);
                        let over = matches!(
                            reply,
                            Err(_)
                                | Ok(WireResponse::Err {
                                    code: WireErrorCode::ServerDraining,
                                    ..
                                })
                        );
                        tally.lock().unwrap().absorb(reply);
                        if over {
                            return;
                        }
                    }
                }));
            }
            thread::sleep(Duration::from_millis(load_ms));
        }
    }

    let report = handle.drain();
    for t in attached {
        let _ = t.join();
    }
    let tally = tally.lock().unwrap();
    let violations = spec.expect.check(&report.stats, report.clean, tally.ok);
    NetDrillOutcome {
        name: spec.name,
        ok_replies: tally.ok,
        err_replies: tally.sorted_errs(),
        stats: report.stats.clone(),
        drain_clean: report.clean,
        forced_conns: report.forced_conns,
        flightrec_dump: report.flightrec_dump.clone(),
        wall_s: t0.elapsed().as_secs_f64(),
        pass: violations.is_empty(),
        violations,
    }
}

/// What one cluster drill observed.
#[derive(Clone, Debug)]
pub struct ClusterDrillOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// What the drill demonstrates.
    pub description: &'static str,
    /// OK replies that came from a shard replica.
    pub replica_replies: u64,
    /// OK replies served by the router-local prior rung.
    pub prior_replies: u64,
    /// Typed error replies by code name, sorted.
    pub err_replies: Vec<(String, u64)>,
    /// Requests whose reply never arrived (transport loss to the
    /// router — always a violation).
    pub lost: u64,
    /// Router failover counter at the end.
    pub failovers: u64,
    /// Router prior-serve counter at the end.
    pub prior_serves: u64,
    /// Router quorum aggregation at the end.
    pub quorum_ready_end: bool,
    /// The router's wire-port counters after its drain.
    pub router_stats: ConnStatsSnapshot,
    /// Whether the router's drain finished inside its budget.
    pub drain_clean: bool,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Violated expectations (empty = pass).
    pub violations: Vec<String>,
    /// `violations.is_empty()`.
    pub pass: bool,
}

impl ClusterDrillOutcome {
    /// Add the drill's own violated expectations to the scaffold's.
    fn judged(mut self, violations: Vec<String>) -> ClusterDrillOutcome {
        self.violations.extend(violations);
        self.pass = self.violations.is_empty();
        self
    }
}

/// The standing cluster drill names, in run order.
pub fn cluster_drill_names() -> Vec<&'static str> {
    vec![
        "cluster_replica_kill",
        "cluster_router_partition",
        "cluster_trace_loss",
    ]
}

/// One step of a cluster drill.
#[derive(Copy, Clone)]
enum Phase {
    /// This many closed-loop requests through the router.
    Send(u64),
    /// Take replica `.1` of shard `.0` out the way an orchestrator would:
    /// readiness off first (so a prober routes around it), then its wire
    /// port drains and its admin plane goes with it.
    Kill(usize, usize),
    /// Wait for the prober to mark that replica unready.
    WaitUnready(usize, usize),
    /// Wait for the router's quorum aggregation to read this.
    WaitQuorum(bool),
}

fn wait_for(budget: Duration, cond: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while !cond() {
        if t0.elapsed() > budget {
            return false;
        }
        thread::sleep(Duration::from_millis(5));
    }
    true
}

struct Replica {
    server: Option<ServerHandle>,
    admin: Option<AdminHandle>,
}

impl Replica {
    fn boot() -> Replica {
        let cfg = ServerConfig {
            acceptor_threads: 1,
            drain_budget_ms: 500,
            ..ServerConfig::default()
        };
        let server = start(cfg, EchoBackend::instant()).expect("replica server");
        let admin =
            start_admin(AdminConfig::default(), AdminSources::default()).expect("replica admin");
        admin.set_ready(true);
        Replica {
            server: Some(server),
            admin: Some(admin),
        }
    }

    fn addr(&self) -> ReplicaAddr {
        ReplicaAddr::with_admin(
            self.server.as_ref().expect("alive").addr().to_string(),
            self.admin.as_ref().expect("alive").addr().to_string(),
        )
    }

    fn kill(&mut self) {
        if let Some(admin) = &self.admin {
            admin.set_ready(false);
        }
        if let Some(server) = self.server.take() {
            let _ = server.drain();
        }
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
    }
}

/// The cluster drills' scaffold: boot, walk phases, tear down, report.
struct MiniCluster {
    t0: Instant,
    replicas: Vec<Vec<Replica>>,
    shared: Arc<ClusterShared>,
    prober: Option<PollerHandle>,
    router: ServerHandle,
    conn: Client,
    /// Whether requests carry a trace id.
    traced: bool,
    next_id: u64,
    tally: Tally,
    violations: Vec<String>,
}

impl MiniCluster {
    /// `shape[s]` replicas for shard `s`, behind a router. Without a
    /// prober health stays `Unknown`, so the router keeps attempting a
    /// dead replica until its breaker opens.
    fn boot(shape: &[usize], probed: bool, traced: bool) -> MiniCluster {
        let t0 = Instant::now();
        let replicas: Vec<Vec<Replica>> = shape
            .iter()
            .map(|&r| (0..r).map(|_| Replica::boot()).collect())
            .collect();
        let topology = replicas
            .iter()
            .map(|rs| rs.iter().map(Replica::addr).collect())
            .collect();
        let mut cfg = ClusterConfig::new(topology);
        cfg.connect_timeout_ms = 200;
        cfg.request_timeout_ms = 1_000;
        let shared = ClusterShared::new(&cfg);
        let prober = probed.then(|| start_health_prober(Arc::clone(&shared), 15, 200));
        let backend = RouterBackend::new(cfg, Arc::clone(&shared));
        let router_cfg = ServerConfig {
            acceptor_threads: 1,
            drain_budget_ms: 2_000,
            ..ServerConfig::default()
        };
        let router = start(router_cfg, backend).expect("router server");
        MiniCluster {
            t0,
            replicas,
            shared,
            prober,
            conn: client(router.addr()),
            router,
            traced,
            next_id: 0,
            tally: Tally::default(),
            violations: Vec::new(),
        }
    }

    fn run(&mut self, phases: &[Phase]) {
        for &phase in phases {
            match phase {
                Phase::Send(n) => {
                    for _ in 0..n {
                        self.next_id += 1;
                        let req = drill_request(&Region::default(), self.next_id, self.traced);
                        self.tally.absorb(self.conn.call(&req, REPLY_DEADLINE));
                    }
                }
                Phase::Kill(s, r) => self.replicas[s][r].kill(),
                Phase::WaitUnready(s, r) => {
                    if !wait_for(Duration::from_secs(5), || {
                        self.shared.health(s, r) == ReplicaHealth::Unready
                    }) {
                        self.violations
                            .push("prober never marked the killed replica unready".to_string());
                    }
                }
                Phase::WaitQuorum(want) => {
                    let budget = Duration::from_secs(if want { 10 } else { 5 });
                    if !wait_for(budget, || self.shared.quorum_ready() == want) {
                        self.violations.push(
                            if want {
                                "cluster never reached quorum"
                            } else {
                                "quorum stayed true with a dark shard"
                            }
                            .to_string(),
                        );
                    }
                }
            }
        }
    }

    /// Hang up, read the router's counters, drain everything and report;
    /// `violations` holds what the waits found.
    fn finish(self, name: &'static str, description: &'static str) -> ClusterDrillOutcome {
        drop(self.conn);
        let failovers = self.shared.failovers();
        let prior_serves = self.shared.prior_serves();
        let quorum_ready_end = self.shared.quorum_ready();
        let report = self.router.drain();
        if let Some(p) = self.prober {
            p.shutdown();
        }
        for mut replica in self.replicas.into_iter().flatten() {
            replica.kill();
        }
        ClusterDrillOutcome {
            name,
            description,
            replica_replies: self.tally.ok,
            prior_replies: self.tally.prior_ok,
            err_replies: self.tally.sorted_errs(),
            lost: self.tally.lost,
            failovers,
            prior_serves,
            quorum_ready_end,
            router_stats: report.stats.clone(),
            drain_clean: report.clean,
            wall_s: self.t0.elapsed().as_secs_f64(),
            pass: self.violations.is_empty(),
            violations: self.violations,
        }
    }
}

fn router_leak(o: &ClusterDrillOutcome) -> Option<String> {
    (o.router_stats.active != 0)
        .then(|| format!("router leaked {} connection(s)", o.router_stats.active))
}

/// Drill: 2 shards × 2 replicas; one replica of shard 0 is readiness-
/// drained and killed mid-load. Every one of the 120 closed-loop
/// requests must succeed on a replica (the sibling absorbs the dead
/// one's traffic as failovers), the prior must never engage, and the
/// quorum must hold throughout.
pub fn run_cluster_replica_kill() -> ClusterDrillOutcome {
    let mut cluster = MiniCluster::boot(&[2, 2], true, false);
    cluster.run(&[
        Phase::WaitQuorum(true),
        Phase::Send(40),
        Phase::Kill(0, 0),
        Phase::WaitUnready(0, 0),
        Phase::Send(80),
    ]);
    let o = cluster.finish(
        "cluster_replica_kill",
        "a replica drains and dies mid-load: siblings absorb \
         its traffic with zero client-visible failures",
    );
    let mut v = Vec::new();
    if o.replica_replies != 120 {
        v.push(format!(
            "only {} of 120 requests replica-served (prior {}, lost {}, errs {:?})",
            o.replica_replies, o.prior_replies, o.lost, o.err_replies
        ));
    }
    if o.failovers == 0 {
        v.push("no failovers recorded despite a dead replica".to_string());
    }
    if o.prior_serves > 0 {
        v.push(format!(
            "{} prior serves: the sibling replica should have held the shard",
            o.prior_serves
        ));
    }
    if !o.quorum_ready_end {
        v.push("quorum lost although every shard kept a live replica".to_string());
    }
    v.extend(router_leak(&o));
    o.judged(v)
}

/// Drill: 2 shards × 1 replica; shard 0's only replica dies, leaving
/// the shard dark. Every request must still get an answer — shard 0's
/// from the router-local prior rung, shard 1's from its replica — and
/// the router's quorum aggregation must read false (its `/readyz`
/// source), never a hang and never a lost reply.
pub fn run_cluster_router_partition() -> ClusterDrillOutcome {
    let mut cluster = MiniCluster::boot(&[1, 1], true, false);
    cluster.run(&[Phase::WaitQuorum(true), Phase::Send(30)]);
    let healthy_ok = cluster.tally.ok;
    cluster.run(&[
        Phase::Kill(0, 0),
        Phase::WaitUnready(0, 0),
        Phase::WaitQuorum(false),
    ]);
    let prior_before = cluster.tally.prior_ok;
    cluster.run(&[Phase::Send(30)]);
    let o = cluster.finish(
        "cluster_router_partition",
        "a whole shard goes dark: its requests degrade to the \
         router-local prior (never a hang), the healthy shard \
         is untouched, quorum reads false",
    );
    let mut v = Vec::new();
    if healthy_ok != 30 {
        v.push(format!(
            "healthy phase: only {healthy_ok} of 30 replica-served"
        ));
    }
    let answered = o.replica_replies + o.prior_replies;
    if answered != 60 || o.lost > 0 || !o.err_replies.is_empty() {
        v.push(format!(
            "only {answered} of 60 answered (lost {}, errs {:?})",
            o.lost, o.err_replies
        ));
    }
    if o.prior_replies == prior_before {
        v.push("dark shard never produced a prior serve".to_string());
    }
    if o.prior_serves == 0 {
        v.push("router counters show no prior serves".to_string());
    }
    if o.quorum_ready_end {
        v.push("quorum must read false while a shard is dark".to_string());
    }
    v.extend(router_leak(&o));
    o.judged(v)
}

/// Drill: 1 shard × 2 replicas, every request traced, NO health prober
/// (health stays Unknown, so the router keeps attempting the dead
/// replica until its breaker opens — exactly the window where the
/// observability plane must not lose the story). One replica's wire AND
/// admin ports die mid-wave. Must hold: every request still answered by
/// the sibling; at least one retained trace shows the failover as two
/// `router.downstream` child hops under a single router root; and the
/// metrics federation marks the dead replica stale while keeping its
/// last-good history in the federated body.
pub fn run_cluster_trace_loss() -> ClusterDrillOutcome {
    odt_obs::trace::set_sample_every(1);
    let mut cluster = MiniCluster::boot(&[2], false, true);
    let scraper = ClusterScraper::new(cluster.shared.topology(), 500);
    let mut v = Vec::new();

    // Healthy wave; both replicas scrape fresh.
    cluster.run(&[Phase::Send(20)]);
    if scraper.scrape_once() != 2 {
        v.push("healthy phase: not every replica scraped fresh".to_string());
    }
    // The loss, then a wave in which the router discovers the death
    // request by request: failed hops retry on the sibling inside the
    // same trace.
    cluster.run(&[Phase::Kill(0, 0), Phase::Send(30)]);

    // The stitched story, side 1 — traces: at least one router root must
    // carry the failover as two sibling downstream hops.
    let retry_traces = odt_obs::trace::retained_traces()
        .iter()
        .filter(|t| {
            t.root_name == "router.request"
                && t.spans
                    .iter()
                    .filter(|s| s.name == "router.downstream")
                    .count()
                    >= 2
        })
        .count();
    if retry_traces == 0 {
        v.push(
            "no retained trace shows the retry (two router.downstream hops \
             under one router span)"
                .to_string(),
        );
    }

    // Side 2 — federation: the dead replica goes stale, the sibling stays
    // fresh, and the dead replica's history survives in the body.
    scraper.scrape_once();
    let fed = scraper.federated();
    if !fed.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"0\"} 1") {
        v.push("federation did not mark the dead replica stale".to_string());
    }
    if !fed.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"1\"} 0") {
        v.push("federation wrongly staled the live sibling".to_string());
    }
    if fed.matches("replica=\"0\"").count() < 2 {
        v.push("the dead replica's metric history was dropped".to_string());
    }

    let o = cluster.finish(
        "cluster_trace_loss",
        "a replica dies mid-wave of traced requests: the retry \
         is visible as sibling downstream hops in one trace, \
         and federation marks the replica stale without \
         dropping its history",
    );
    if o.replica_replies != 50 {
        v.push(format!(
            "only {} of 50 requests replica-served (prior {}, lost {}, errs {:?})",
            o.replica_replies, o.prior_replies, o.lost, o.err_replies
        ));
    }
    if o.failovers == 0 {
        v.push("no failovers recorded despite the dead replica".to_string());
    }
    o.judged(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_has_the_four_standing_drills() {
        let names: Vec<_> = net_scenarios().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "net_conn_storm",
                "net_slow_client",
                "net_disconnect",
                "net_drain_under_load"
            ]
        );
    }

    #[test]
    fn all_net_drills_pass_against_an_echo_backend() {
        for spec in net_scenarios() {
            let delay = match spec.kind {
                // Give the drain something to actually flush.
                NetScenarioKind::DrainUnderLoad { .. } => Duration::from_millis(3),
                _ => Duration::ZERO,
            };
            let outcome = run_net_scenario_with(&spec, move || EchoBackend { delay });
            assert!(
                outcome.pass,
                "{} failed: {:?}\nstats: {:?}",
                spec.name, outcome.violations, outcome.stats
            );
            assert_eq!(outcome.stats.active, 0, "{} leaked", spec.name);
        }
    }

    #[test]
    fn expectations_catch_leaks_and_shortfalls() {
        let stats = ConnStatsSnapshot {
            active: 1,
            ..ConnStatsSnapshot::default()
        };
        let v = NetExpectations {
            min_ok: 5,
            ..NetExpectations::default()
        }
        .check(&stats, true, 2);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("leaked"));
        assert!(v[1].contains("ok replies"));
    }

    #[test]
    fn replica_kill_drill_passes() {
        let o = run_cluster_replica_kill();
        assert!(o.pass, "{:?}\nstats: {:?}", o.violations, o.router_stats);
        assert_eq!(o.lost, 0);
        assert!(o.failovers > 0);
    }

    #[test]
    fn router_partition_drill_passes() {
        let o = run_cluster_router_partition();
        assert!(o.pass, "{:?}\nstats: {:?}", o.violations, o.router_stats);
        assert!(o.prior_replies > 0);
        assert!(!o.quorum_ready_end);
    }

    #[test]
    fn trace_loss_drill_passes() {
        let o = run_cluster_trace_loss();
        assert!(o.pass, "{:?}\nstats: {:?}", o.violations, o.router_stats);
        assert_eq!(o.lost, 0);
        assert!(o.failovers > 0, "retry hops require failovers");
    }
}
