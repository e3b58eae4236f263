//! Cluster chaos drills: kill a replica under load, partition a whole
//! shard away from the router.
//!
//! Each drill boots a real miniature cluster on loopback — echo-backed
//! shard replicas (each with its own admin plane), a health prober, and
//! a wire-speaking router — then injects the fault *between* client
//! requests so outcomes are exactly reproducible:
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
    start_health_prober, ClusterConfig, ClusterShared, ReplicaAddr, RouterBackend, PRIOR_RUNG,
};
use crate::loadgen::Region;
use crate::server::{start, ConnStatsSnapshot, EchoBackend, ServerConfig, ServerHandle};
use crate::wire::{
    read_frame, tune_stream, write_frame, FrameRead, WireQuery, WireRequest, WireResponse,
    DEFAULT_MAX_FRAME_BYTES,
};
use odt_obs::SplitMix64;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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

/// The standing cluster drill names, in run order.
pub fn cluster_drill_names() -> Vec<&'static str> {
    vec![
        "cluster_replica_kill",
        "cluster_router_partition",
        "cluster_trace_loss",
    ]
}

/// Run the standing cluster drills.
pub fn run_cluster_drills() -> Vec<ClusterDrillOutcome> {
    vec![
        run_cluster_replica_kill(),
        run_cluster_router_partition(),
        run_cluster_trace_loss(),
    ]
}

struct Replica {
    server: Option<ServerHandle>,
    admin: AdminHandle,
}

fn replica_server_config() -> ServerConfig {
    ServerConfig {
        acceptor_threads: 1,
        drain_budget_ms: 500,
        ..ServerConfig::default()
    }
}

fn boot_replica() -> Replica {
    let server = start(replica_server_config(), EchoBackend::instant()).expect("replica server");
    let admin =
        start_admin(AdminConfig::default(), AdminSources::default()).expect("replica admin");
    admin.set_ready(true);
    Replica {
        server: Some(server),
        admin,
    }
}

impl Replica {
    fn addr(&self) -> ReplicaAddr {
        ReplicaAddr::with_admin(
            self.server.as_ref().expect("alive").addr().to_string(),
            self.admin.addr().to_string(),
        )
    }

    /// Take the replica out the way an orchestrator would: readiness
    /// off first (so the prober routes around it), then drain.
    fn kill(&mut self) {
        self.admin.set_ready(false);
        if let Some(s) = self.server.take() {
            let _ = s.drain();
        }
    }
}

struct MiniCluster {
    replicas: Vec<Vec<Replica>>,
    shared: Arc<ClusterShared>,
    prober: Option<crate::cluster::ProberHandle>,
    router: Option<ServerHandle>,
}

fn boot_cluster(shape: &[usize]) -> MiniCluster {
    let replicas: Vec<Vec<Replica>> = shape
        .iter()
        .map(|&r| (0..r).map(|_| boot_replica()).collect())
        .collect();
    let topology = replicas
        .iter()
        .map(|rs| rs.iter().map(Replica::addr).collect())
        .collect();
    let mut cfg = ClusterConfig::new(topology);
    cfg.connect_timeout_ms = 200;
    cfg.request_timeout_ms = 1_000;
    let shared = ClusterShared::new(&cfg);
    let prober = start_health_prober(Arc::clone(&shared), 15, 200);
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
        prober: Some(prober),
        router: Some(router),
    }
}

impl MiniCluster {
    fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router alive").addr()
    }

    /// Wait until the prober has proven every shard routable.
    fn wait_quorum(&self, want: bool, budget: Duration) -> bool {
        let t0 = Instant::now();
        while self.shared.quorum_ready() != want {
            if t0.elapsed() > budget {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }

    fn wait_health_unready(&self, s: usize, r: usize, budget: Duration) -> bool {
        use crate::cluster::ReplicaHealth;
        let t0 = Instant::now();
        while self.shared.health(s, r) != ReplicaHealth::Unready {
            if t0.elapsed() > budget {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }

    fn teardown(mut self) -> (ConnStatsSnapshot, bool) {
        let report = self.router.take().expect("router alive").drain();
        if let Some(p) = self.prober.take() {
            p.shutdown();
        }
        for shard in &mut self.replicas {
            for r in shard {
                if let Some(s) = r.server.take() {
                    let _ = s.drain();
                }
            }
        }
        (report.stats.clone(), report.clean)
    }
}

/// Per-drill reply tally.
#[derive(Default)]
struct Tally {
    replica_ok: u64,
    prior_ok: u64,
    lost: u64,
    errs: HashMap<String, u64>,
}

impl Tally {
    fn absorb(&mut self, resp: Option<WireResponse>) {
        match resp {
            None => self.lost += 1,
            Some(WireResponse::Ok { rung, .. }) => {
                if rung == PRIOR_RUNG {
                    self.prior_ok += 1;
                } else {
                    self.replica_ok += 1;
                }
            }
            Some(WireResponse::Err { code, .. }) => {
                *self.errs.entry(code.name().to_string()).or_insert(0) += 1;
            }
        }
    }

    fn sorted_errs(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> = self.errs.iter().map(|(k, n)| (k.clone(), *n)).collect();
        v.sort();
        v
    }
}

fn drill_query(rng: &mut SplitMix64) -> WireQuery {
    let r = Region::default();
    WireQuery {
        o_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
        o_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
        d_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
        d_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
        t_dep: 28_800.0 + rng.next_f64() * 3_600.0,
    }
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                tune_stream(&s).ok()?;
                s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
                return Some(s);
            }
            Err(_) if Instant::now() < give_up => thread::sleep(Duration::from_millis(20)),
            Err(_) => return None,
        }
    }
}

fn exchange(s: &mut TcpStream, id: u64, q: WireQuery) -> Option<WireResponse> {
    let req = WireRequest {
        id,
        query: q,
        deadline_ms: Some(5_000),
        trace: None,
        parent_span: None,
    };
    write_frame(s, &req.to_json()).ok()?;
    match read_frame(s, DEFAULT_MAX_FRAME_BYTES) {
        Ok(FrameRead::Payload(p)) => WireResponse::from_json(&p).ok(),
        _ => None,
    }
}

/// Drill: 2 shards × 2 replicas; one replica of shard 0 is readiness-
/// drained and killed mid-load. Every one of the 120 closed-loop
/// requests must succeed on a replica (the sibling absorbs the dead
/// one's traffic as failovers), the prior must never engage, and the
/// quorum must hold throughout.
pub fn run_cluster_replica_kill() -> ClusterDrillOutcome {
    let name = "cluster_replica_kill";
    let description = "a replica drains and dies mid-load: siblings absorb \
                       its traffic with zero client-visible failures";
    let t0 = Instant::now();
    let mut cluster = boot_cluster(&[2, 2]);
    let mut violations = Vec::new();
    if !cluster.wait_quorum(true, Duration::from_secs(10)) {
        violations.push("cluster never reached quorum".to_string());
    }
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(0xC1D1);
    let mut conn = connect(cluster.router_addr());
    let send = |tally: &mut Tally,
                rng: &mut SplitMix64,
                conn: &mut Option<TcpStream>,
                n: u64,
                base: u64| {
        for i in 0..n {
            match conn.as_mut() {
                Some(s) => tally.absorb(exchange(s, base + i, drill_query(rng))),
                None => tally.lost += 1,
            }
        }
    };

    // Phase 1: healthy cluster, 40 requests.
    send(&mut tally, &mut rng, &mut conn, 40, 1);

    // The kill: readiness off, wait for the prober to notice, drain.
    cluster.replicas[0][0].kill();
    if !cluster.wait_health_unready(0, 0, Duration::from_secs(5)) {
        violations.push("prober never marked the killed replica unready".to_string());
    }

    // Phase 2: 80 requests against the degraded shard.
    send(&mut tally, &mut rng, &mut conn, 80, 1_000);
    drop(conn);

    let failovers = cluster.shared.failovers();
    let prior_serves = cluster.shared.prior_serves();
    let quorum_end = cluster.shared.quorum_ready();
    let (router_stats, drain_clean) = cluster.teardown();

    if tally.replica_ok != 120 {
        violations.push(format!(
            "only {} of 120 requests replica-served (prior {}, lost {}, errs {:?})",
            tally.replica_ok,
            tally.prior_ok,
            tally.lost,
            tally.sorted_errs()
        ));
    }
    if failovers == 0 {
        violations.push("no failovers recorded despite a dead replica".to_string());
    }
    if prior_serves > 0 {
        violations.push(format!(
            "{prior_serves} prior serves: the sibling replica should have held the shard"
        ));
    }
    if !quorum_end {
        violations.push("quorum lost although every shard kept a live replica".to_string());
    }
    if router_stats.active != 0 {
        violations.push(format!(
            "router leaked {} connection(s)",
            router_stats.active
        ));
    }
    ClusterDrillOutcome {
        name,
        description,
        replica_replies: tally.replica_ok,
        prior_replies: tally.prior_ok,
        err_replies: tally.sorted_errs(),
        lost: tally.lost,
        failovers,
        prior_serves,
        quorum_ready_end: quorum_end,
        router_stats,
        drain_clean,
        wall_s: t0.elapsed().as_secs_f64(),
        pass: violations.is_empty(),
        violations,
    }
}

/// Drill: 2 shards × 1 replica; shard 0's only replica dies, leaving
/// the shard dark. Every request must still get an answer — shard 0's
/// from the router-local prior rung, shard 1's from its replica — and
/// the router's quorum aggregation must read false (its `/readyz`
/// source), never a hang and never a lost reply.
pub fn run_cluster_router_partition() -> ClusterDrillOutcome {
    let name = "cluster_router_partition";
    let description = "a whole shard goes dark: its requests degrade to the \
                       router-local prior (never a hang), the healthy shard \
                       is untouched, quorum reads false";
    let t0 = Instant::now();
    let mut cluster = boot_cluster(&[1, 1]);
    let mut violations = Vec::new();
    if !cluster.wait_quorum(true, Duration::from_secs(10)) {
        violations.push("cluster never reached quorum".to_string());
    }
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(0x9A27);
    let mut conn = connect(cluster.router_addr());

    for i in 0..30u64 {
        match conn.as_mut() {
            Some(s) => tally.absorb(exchange(s, 1 + i, drill_query(&mut rng))),
            None => tally.lost += 1,
        }
    }
    if tally.replica_ok != 30 {
        violations.push(format!(
            "healthy phase: only {} of 30 replica-served",
            tally.replica_ok
        ));
    }

    // Partition: shard 0's only replica goes away entirely.
    cluster.replicas[0][0].kill();
    if !cluster.wait_health_unready(0, 0, Duration::from_secs(5)) {
        violations.push("prober never marked the dead replica unready".to_string());
    }
    if !cluster.wait_quorum(false, Duration::from_secs(5)) {
        violations.push("quorum stayed true with a dark shard".to_string());
    }

    let before_prior = tally.prior_ok;
    for i in 0..30u64 {
        match conn.as_mut() {
            Some(s) => tally.absorb(exchange(s, 1_000 + i, drill_query(&mut rng))),
            None => tally.lost += 1,
        }
    }
    drop(conn);

    let failovers = cluster.shared.failovers();
    let prior_serves = cluster.shared.prior_serves();
    let quorum_end = cluster.shared.quorum_ready();
    let (router_stats, drain_clean) = cluster.teardown();

    let answered = tally.replica_ok + tally.prior_ok;
    if answered != 60 || tally.lost > 0 || !tally.errs.is_empty() {
        violations.push(format!(
            "only {answered} of 60 answered (lost {}, errs {:?})",
            tally.lost,
            tally.sorted_errs()
        ));
    }
    if tally.prior_ok == before_prior {
        violations.push("dark shard never produced a prior serve".to_string());
    }
    if prior_serves == 0 {
        violations.push("router counters show no prior serves".to_string());
    }
    if quorum_end {
        violations.push("quorum must read false while a shard is dark".to_string());
    }
    if router_stats.active != 0 {
        violations.push(format!(
            "router leaked {} connection(s)",
            router_stats.active
        ));
    }
    ClusterDrillOutcome {
        name,
        description,
        replica_replies: tally.replica_ok,
        prior_replies: tally.prior_ok,
        err_replies: tally.sorted_errs(),
        lost: tally.lost,
        failovers,
        prior_serves,
        quorum_ready_end: quorum_end,
        router_stats,
        drain_clean,
        wall_s: t0.elapsed().as_secs_f64(),
        pass: violations.is_empty(),
        violations,
    }
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
    let name = "cluster_trace_loss";
    let description = "a replica dies mid-wave of traced requests: the retry \
                       is visible as sibling downstream hops in one trace, \
                       and federation marks the replica stale without \
                       dropping its history";
    let t0 = Instant::now();
    odt_obs::trace::set_sample_every(1);
    let mut violations = Vec::new();

    // Boot by hand (not boot_cluster): no prober, and the dead replica's
    // admin plane must die with it so the scraper sees a real outage.
    let mut servers: Vec<Option<ServerHandle>> = (0..2)
        .map(|_| Some(start(replica_server_config(), EchoBackend::instant()).expect("replica")))
        .collect();
    let mut admins: Vec<Option<AdminHandle>> = (0..2)
        .map(|_| {
            let a = start_admin(AdminConfig::default(), AdminSources::default()).expect("admin");
            a.set_ready(true);
            Some(a)
        })
        .collect();
    let topology: Vec<Vec<ReplicaAddr>> = vec![servers
        .iter()
        .zip(&admins)
        .map(|(s, a)| {
            ReplicaAddr::with_admin(
                s.as_ref().expect("alive").addr().to_string(),
                a.as_ref().expect("alive").addr().to_string(),
            )
        })
        .collect()];
    let scraper = crate::fed::ClusterScraper::new(&topology, 500);
    let mut cfg = ClusterConfig::new(topology);
    cfg.connect_timeout_ms = 200;
    cfg.request_timeout_ms = 1_000;
    let shared = ClusterShared::new(&cfg);
    let backend = RouterBackend::new(cfg, Arc::clone(&shared));
    let router_cfg = ServerConfig {
        acceptor_threads: 1,
        drain_budget_ms: 2_000,
        ..ServerConfig::default()
    };
    let router = start(router_cfg, backend).expect("router server");

    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(0x7AC3);
    let mut conn = connect(router.addr());
    let mut trace_k = 0u64;
    let send_traced = |tally: &mut Tally,
                       rng: &mut SplitMix64,
                       conn: &mut Option<TcpStream>,
                       n: u64,
                       base: u64,
                       trace_k: &mut u64| {
        for i in 0..n {
            *trace_k += 1;
            let trace = odt_obs::TraceId::from_raw(0xD811_0000 + *trace_k).expect("nonzero");
            match conn.as_mut() {
                Some(s) => {
                    let req = WireRequest {
                        id: base + i,
                        query: drill_query(rng),
                        deadline_ms: Some(5_000),
                        trace: Some(trace),
                        parent_span: None,
                    };
                    let resp = write_frame(s, &req.to_json()).ok().and_then(|_| {
                        match read_frame(s, DEFAULT_MAX_FRAME_BYTES) {
                            Ok(FrameRead::Payload(p)) => WireResponse::from_json(&p).ok(),
                            _ => None,
                        }
                    });
                    tally.absorb(resp);
                }
                None => tally.lost += 1,
            }
        }
    };

    // Phase 1: healthy wave; both replicas scrape fresh.
    send_traced(&mut tally, &mut rng, &mut conn, 20, 1, &mut trace_k);
    if scraper.scrape_once() != 2 {
        violations.push("healthy phase: not every replica scraped fresh".to_string());
    }

    // The loss: replica 0's wire and admin ports both die, abruptly.
    if let Some(s) = servers[0].take() {
        let _ = s.drain();
    }
    if let Some(a) = admins[0].take() {
        a.shutdown();
    }

    // Phase 2: the router discovers the death request-by-request (no
    // prober): failed hops retry on the sibling inside the same trace.
    send_traced(&mut tally, &mut rng, &mut conn, 30, 1_000, &mut trace_k);
    drop(conn);

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
        violations.push(
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
        violations.push("federation did not mark the dead replica stale".to_string());
    }
    if !fed.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"1\"} 0") {
        violations.push("federation wrongly staled the live sibling".to_string());
    }
    if fed.matches("replica=\"0\"").count() < 2 {
        violations.push("the dead replica's metric history was dropped".to_string());
    }

    let failovers = shared.failovers();
    let prior_serves = shared.prior_serves();
    let quorum_end = shared.quorum_ready();
    let report = router.drain();
    for s in servers.into_iter().flatten() {
        let _ = s.drain();
    }
    for a in admins.into_iter().flatten() {
        a.shutdown();
    }

    if tally.replica_ok != 50 {
        violations.push(format!(
            "only {} of 50 requests replica-served (prior {}, lost {}, errs {:?})",
            tally.replica_ok,
            tally.prior_ok,
            tally.lost,
            tally.sorted_errs()
        ));
    }
    if failovers == 0 {
        violations.push("no failovers recorded despite the dead replica".to_string());
    }
    ClusterDrillOutcome {
        name,
        description,
        replica_replies: tally.replica_ok,
        prior_replies: tally.prior_ok,
        err_replies: tally.sorted_errs(),
        lost: tally.lost,
        failovers,
        prior_serves,
        quorum_ready_end: quorum_end,
        router_stats: report.stats.clone(),
        drain_clean: report.clean,
        wall_s: t0.elapsed().as_secs_f64(),
        pass: violations.is_empty(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
