//! Drills over real loopback sockets. Every one speaks through
//! [`odt_net::wire::Client`], tallies replies into one [`Replies`] and
//! enforces **zero leaked connections** after the drain.
//!
//! The four `net_*` drills boot a real server over a freshly trained drill
//! oracle, apply an abuse pattern from the *client* side, then drain. The
//! three `cluster_*` drills boot a miniature cluster (echo-backed shard
//! replicas, each with its own admin plane; optionally a health prober; a
//! wire-speaking router) and walk a short list of [`Phase`]s, injecting the
//! fault *between* client requests so outcomes are exactly reproducible.
//! The replicas are echo-backed on purpose: routing and failover are
//! model-agnostic.

use super::{DrillCtx, DrillOutcome, Oracle, Replies};
use odt_net::admin::{start_admin, AdminConfig, AdminHandle, AdminSources};
use odt_net::cluster::{
    start_health_prober, ClusterConfig, ClusterShared, ClusterSnapshot, PollerHandle, ReplicaAddr,
    ReplicaHealth, RouterBackend, PRIOR_RUNG,
};
use odt_net::fed::ClusterScraper;
use odt_net::server::{
    start, start_with, ConnStatsSnapshot, DrainReport, EchoBackend, FrontendBridge, ServerConfig,
    ServerHandle,
};
use odt_net::wire::{
    Client, WireErrorCode, WireQuery, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES,
};
use odt_net::Region;
use odt_serve::{dot_frontend, ChaosConfig, DotFrontendConfig, FrontendConfig};
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::{self, JoinHandle};
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

impl Replies {
    fn absorb(&mut self, reply: io::Result<WireResponse>) {
        match reply {
            Err(_) => self.lost += 1,
            Ok(WireResponse::Ok { rung, .. }) if rung == PRIOR_RUNG => self.prior += 1,
            Ok(WireResponse::Ok { .. }) => self.ok += 1,
            Ok(WireResponse::Err { code, .. }) => *self.errors.entry(code.name()).or_insert(0) += 1,
        }
    }
}

/// Which abuse pattern a network drill applies.
enum Abuse {
    /// Open `conns` connections against a server capped well below that.
    ConnStorm { conns: usize },
    /// One slowloris connection (partial frame, then silence) next to a
    /// healthy one.
    SlowClient,
    /// `victims` connections that send a request and hang up before the
    /// reply; a healthy connection rides along.
    Disconnect { victims: usize },
    /// Closed-loop load from `clients` connections while the server drains
    /// after `load_ms` of traffic.
    DrainUnderLoad { clients: usize, load_ms: u64 },
}

/// What a network drill requires; the zero-leak invariant and a clean drain
/// are required of every one.
#[derive(Default)]
struct NetExpectations {
    /// At least this many OK replies across all clients.
    min_ok: u64,
    /// At least this many `over_capacity` connection rejections.
    min_capacity_rejections: u64,
    /// At least this many slow-frame cuts.
    min_frame_timeouts: u64,
}

impl NetExpectations {
    /// One string per expectation the drill's observations violate.
    fn check(&self, stats: &ConnStatsSnapshot, drain_clean: bool, ok_replies: u64) -> Vec<String> {
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
        if !drain_clean {
            v.push("drain overran its budget and force-closed connections".to_string());
        }
        v
    }
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

/// Block until the server answers one probe request (any reply counts): the
/// dispatch → backend → reply path flows end to end before the abuse
/// pattern (and its request deadlines) start measuring.
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

/// Run one network drill: a real TCP server over the drill oracle, the
/// client-side abuse pattern, a graceful drain, the expectations.
///
/// The oracle is trained *inside* the server's backend factory, on the
/// dispatcher thread: its parameters are `Rc`-based and cannot cross onto
/// it. The factory signals the instant the backend exists, which separates
/// "backend still constructing" (wait quietly, no deadline pressure) from
/// "server mute" (a bug the readiness probe surfaces).
fn net_drill(
    ctx: &DrillCtx,
    server: ServerConfig,
    abuse: Abuse,
    expect: NetExpectations,
) -> DrillOutcome {
    let region = ctx.oracle.region;
    let seed = ctx.seed;
    let frame_deadline_ms = server.frame_deadline_ms;
    let (built_tx, built_rx) = mpsc::channel();
    let make_backend = move || {
        let oracle: &'static Oracle = Box::leak(Box::new(Oracle::train()));
        let mut fe = dot_frontend(
            &oracle.model,
            DotFrontendConfig::default(),
            FrontendConfig::default(),
            ChaosConfig::quiet(seed),
        );
        fe.warmup(&oracle.queries[..2.min(oracle.queries.len())]);
        let mut bridge = FrontendBridge::new(fe, |q: &WireQuery| q.into());
        let _ = built_tx.send(bridge.shared_stats());
        bridge
    };
    let handle = match start_with(server, make_backend) {
        Ok(h) => h,
        Err(e) => return DrillOutcome::failed(format!("server failed to start: {e}")),
    };
    let addr = handle.addr();
    let Ok(frontend_stats) = built_rx.recv_timeout(Duration::from_secs(600)) else {
        let _ = handle.drain();
        return DrillOutcome::failed("backend factory never finished".to_string());
    };
    if !wait_ready(addr, &region) {
        let _ = handle.drain();
        return DrillOutcome::failed("server never answered the readiness probe".to_string());
    }

    let tally = Arc::new(Mutex::new(Replies::default()));
    let absorb = |reply| tally.lock().unwrap().absorb(reply);

    // Clients still attached when the drain starts; joined after it.
    let mut attached: Vec<JoinHandle<()>> = Vec::new();
    match abuse {
        Abuse::ConnStorm { conns } => {
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
        Abuse::SlowClient => {
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
                let patience = Duration::from_millis(frame_deadline_ms * 3 + 500);
                let _ = slow.recv(Instant::now() + patience);
            }
        }
        Abuse::Disconnect { victims } => {
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
        Abuse::DrainUnderLoad { clients, load_ms } => {
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
    let replies = std::mem::take(&mut *tally.lock().unwrap());
    let (frontend, adopted) = frontend_stats.get();
    DrillOutcome {
        violations: expect.check(&report.stats, report.clean, replies.ok),
        adopted_traces: Some(adopted),
        replies: Some(replies),
        conns: Some(report.stats.clone()),
        drain: Some(report),
        ..DrillOutcome::of_frontend(frontend)
    }
}

pub(super) fn net_conn_storm(ctx: &DrillCtx) -> DrillOutcome {
    let server = ServerConfig {
        max_connections: 4,
        ..drill_server_config()
    };
    let expect = NetExpectations {
        min_ok: 1,
        min_capacity_rejections: 1,
        ..NetExpectations::default()
    };
    net_drill(ctx, server, Abuse::ConnStorm { conns: 12 }, expect)
}

pub(super) fn net_slow_client(ctx: &DrillCtx) -> DrillOutcome {
    let expect = NetExpectations {
        min_ok: 3,
        min_frame_timeouts: 1,
        ..NetExpectations::default()
    };
    net_drill(ctx, drill_server_config(), Abuse::SlowClient, expect)
}

pub(super) fn net_disconnect(ctx: &DrillCtx) -> DrillOutcome {
    let expect = NetExpectations {
        min_ok: 3,
        ..NetExpectations::default()
    };
    let abuse = Abuse::Disconnect { victims: 3 };
    net_drill(ctx, drill_server_config(), abuse, expect)
}

pub(super) fn net_drain_under_load(ctx: &DrillCtx) -> DrillOutcome {
    let expect = NetExpectations {
        min_ok: 1,
        ..NetExpectations::default()
    };
    let abuse = Abuse::DrainUnderLoad {
        clients: 2,
        load_ms: 150,
    };
    net_drill(ctx, drill_server_config(), abuse, expect)
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
    replicas: Vec<Vec<Replica>>,
    shared: Arc<ClusterShared>,
    prober: Option<PollerHandle>,
    router: ServerHandle,
    conn: Client,
    /// Whether requests carry a trace id.
    traced: bool,
    next_id: u64,
    replies: Replies,
    violations: Vec<String>,
}

/// What a torn-down [`MiniCluster`] observed.
struct ClusterRun {
    replies: Replies,
    /// The router's counters, read after the client hung up.
    cluster: ClusterSnapshot,
    /// The router's drain.
    drain: DrainReport,
    /// What the scaffold's waits found, then what the drill adds.
    violations: Vec<String>,
}

impl MiniCluster {
    /// `shape[s]` replicas for shard `s`, behind a router. Without a
    /// prober health stays `Unknown`, so the router keeps attempting a
    /// dead replica until its breaker opens.
    fn boot(shape: &[usize], probed: bool, traced: bool) -> MiniCluster {
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
            replicas,
            shared,
            prober,
            conn: client(router.addr()),
            router,
            traced,
            next_id: 0,
            replies: Replies::default(),
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
                        self.replies.absorb(self.conn.call(&req, REPLY_DEADLINE));
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

    /// Hang up, read the router's counters, drain everything.
    fn finish(self) -> ClusterRun {
        drop(self.conn);
        let cluster = self.shared.snapshot();
        let drain = self.router.drain();
        if let Some(p) = self.prober {
            p.shutdown();
        }
        for mut replica in self.replicas.into_iter().flatten() {
            replica.kill();
        }
        ClusterRun {
            replies: self.replies,
            cluster,
            drain,
            violations: self.violations,
        }
    }
}

impl ClusterRun {
    fn check_router_leak(&mut self) {
        let active = self.drain.stats.active;
        if active != 0 {
            self.violations
                .push(format!("router leaked {active} connection(s)"));
        }
    }

    /// The outcome: what the one client counted (no frontend admitted
    /// anything), the router's counters and drain.
    fn outcome(self) -> DrillOutcome {
        let r = &self.replies;
        let served = r.ok + r.prior;
        DrillOutcome {
            submitted: served + r.errors.values().sum::<u64>() + r.lost,
            admitted: None,
            served,
            violations: self.violations,
            replies: Some(self.replies),
            conns: Some(self.drain.stats.clone()),
            drain: Some(self.drain),
            cluster: Some(self.cluster),
            ..DrillOutcome::default()
        }
    }
}

/// 2 shards × 2 replicas; one replica of shard 0 is readiness-drained and
/// killed mid-load. Every one of the 120 closed-loop requests must succeed
/// on a replica (the sibling absorbs the dead one's traffic as failovers),
/// the prior must never engage, and the quorum must hold throughout.
pub(super) fn cluster_replica_kill(_: &DrillCtx) -> DrillOutcome {
    let mut cluster = MiniCluster::boot(&[2, 2], true, false);
    cluster.run(&[
        Phase::WaitQuorum(true),
        Phase::Send(40),
        Phase::Kill(0, 0),
        Phase::WaitUnready(0, 0),
        Phase::Send(80),
    ]);
    let mut o = cluster.finish();
    if o.replies.ok != 120 {
        o.violations.push(format!(
            "only {} of 120 requests replica-served (prior {}, lost {}, errs {:?})",
            o.replies.ok, o.replies.prior, o.replies.lost, o.replies.errors
        ));
    }
    if o.cluster.failovers == 0 {
        o.violations
            .push("no failovers recorded despite a dead replica".to_string());
    }
    if o.cluster.prior_serves > 0 {
        o.violations.push(format!(
            "{} prior serves: the sibling replica should have held the shard",
            o.cluster.prior_serves
        ));
    }
    if !o.cluster.quorum_ready {
        o.violations
            .push("quorum lost although every shard kept a live replica".to_string());
    }
    o.check_router_leak();
    o.outcome()
}

/// 2 shards × 1 replica; shard 0's only replica dies, leaving the shard
/// dark. Every request must still get an answer — shard 0's from the
/// router-local prior rung, shard 1's from its replica — and the router's
/// quorum aggregation must read false (its `/readyz` source), never a hang
/// and never a lost reply.
pub(super) fn cluster_router_partition(_: &DrillCtx) -> DrillOutcome {
    let mut cluster = MiniCluster::boot(&[1, 1], true, false);
    cluster.run(&[Phase::WaitQuorum(true), Phase::Send(30)]);
    let healthy_ok = cluster.replies.ok;
    cluster.run(&[
        Phase::Kill(0, 0),
        Phase::WaitUnready(0, 0),
        Phase::WaitQuorum(false),
    ]);
    let prior_before = cluster.replies.prior;
    cluster.run(&[Phase::Send(30)]);
    let mut o = cluster.finish();
    if healthy_ok != 30 {
        o.violations.push(format!(
            "healthy phase: only {healthy_ok} of 30 replica-served"
        ));
    }
    let answered = o.replies.ok + o.replies.prior;
    if answered != 60 || o.replies.lost > 0 || !o.replies.errors.is_empty() {
        o.violations.push(format!(
            "only {answered} of 60 answered (lost {}, errs {:?})",
            o.replies.lost, o.replies.errors
        ));
    }
    if o.replies.prior == prior_before {
        o.violations
            .push("dark shard never produced a prior serve".to_string());
    }
    if o.cluster.prior_serves == 0 {
        o.violations
            .push("router counters show no prior serves".to_string());
    }
    if o.cluster.quorum_ready {
        o.violations
            .push("quorum must read false while a shard is dark".to_string());
    }
    o.check_router_leak();
    o.outcome()
}

/// 1 shard × 2 replicas, every request traced, NO health prober (health
/// stays Unknown, so the router keeps attempting the dead replica until its
/// breaker opens — exactly the window where the observability plane must
/// not lose the story). One replica's wire AND admin ports die mid-wave.
/// Must hold: every request still answered by the sibling; at least one
/// retained trace shows the failover as two `router.downstream` child hops
/// under a single router root; and the metrics federation marks the dead
/// replica stale while keeping its last-good history in the federated body.
pub(super) fn cluster_trace_loss(_: &DrillCtx) -> DrillOutcome {
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

    let mut o = cluster.finish();
    o.violations.extend(v);
    if o.replies.ok != 50 {
        o.violations.push(format!(
            "only {} of 50 requests replica-served (prior {}, lost {}, errs {:?})",
            o.replies.ok, o.replies.prior, o.replies.lost, o.replies.errors
        ));
    }
    if o.cluster.failovers == 0 {
        o.violations
            .push("no failovers recorded despite the dead replica".to_string());
    }
    o.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short observation produces a violation: the expectations can fail.
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
        let v = NetExpectations::default().check(&ConnStatsSnapshot::default(), false, 0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("force-closed"));
    }
}
