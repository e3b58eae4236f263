//! Network chaos drills: the four standing network-fault scenarios the
//! chaos harness runs on top of its serving-layer catalog.
//!
//! Each drill boots a real server on a loopback port with the provided
//! backend, applies a network abuse pattern from the *client* side, then
//! drains and checks typed expectations. The invariant every drill
//! enforces on top of its own: **zero leaked connections** — after the
//! drain, `active` must be 0 no matter what the clients did.
//!
//! | scenario              | abuse                                      |
//! |-----------------------|--------------------------------------------|
//! | `net_conn_storm`      | more simultaneous connections than the cap |
//! | `net_slow_client`     | a frame that trickles in forever           |
//! | `net_disconnect`      | clients that hang up mid-request           |
//! | `net_drain_under_load`| SIGTERM-style drain with clients attached  |

use crate::loadgen::Region;
use crate::server::{start_with, ConnStatsSnapshot, NetBackend, ServerConfig};
use crate::wire::{
    read_frame, tune_stream, write_frame, FrameRead, WireErrorCode, WireQuery, WireRequest,
    WireResponse, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Which abuse pattern a drill applies.
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

/// Typed pass/fail expectations for one drill.
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

/// What one drill observed.
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

/// Shared reply tally across drill client threads.
#[derive(Default)]
struct Tally {
    ok: u64,
    errs: HashMap<String, u64>,
}

impl Tally {
    fn absorb(&mut self, resp: &WireResponse) {
        match resp {
            WireResponse::Ok { .. } => self.ok += 1,
            WireResponse::Err { code, .. } => {
                *self.errs.entry(code.name().to_string()).or_insert(0) += 1;
            }
        }
    }
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

fn drill_request(region: &Region, id: u64, trace_seq: &AtomicU64) -> WireRequest {
    let raw = 0xD811_0000_0000_0000 | trace_seq.fetch_add(1, Ordering::Relaxed);
    WireRequest {
        id,
        query: drill_query(region, id),
        deadline_ms: Some(2_000),
        trace: odt_obs::TraceId::from_raw(raw),
        parent_span: None,
    }
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect(addr).ok()?;
    tune_stream(&s).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    Some(s)
}

/// One request/response exchange; `None` when the server closed on us.
fn exchange(s: &mut TcpStream, req: &WireRequest) -> Option<WireResponse> {
    write_frame(s, &req.to_json()).ok()?;
    match read_frame(s, DEFAULT_MAX_FRAME_BYTES) {
        Ok(FrameRead::Payload(p)) => WireResponse::from_json(&p).ok(),
        _ => None,
    }
}

/// Block until the server answers one probe request (any reply counts).
///
/// The factory-built barrier in [`run_net_scenario_with`] already
/// guarantees the backend exists; this probe additionally proves the
/// dispatch → backend → reply path flows end to end before the drill's
/// abuse pattern (and its request deadlines) start measuring.
fn wait_ready(addr: SocketAddr, region: &Region) -> bool {
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(mut s) = connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
            let req = WireRequest {
                id: 0,
                query: drill_query(region, 0),
                deadline_ms: Some(120_000),
                trace: None,
                parent_span: None,
            };
            if write_frame(&mut s, &req.to_json()).is_ok() {
                if let Ok(FrameRead::Payload(_)) = read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES) {
                    return true;
                }
            }
        }
        if Instant::now() >= give_up {
            return false;
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// Run one network drill with `backend` behind the server.
pub fn run_net_scenario<B: NetBackend + Send + 'static>(
    spec: &NetScenarioSpec,
    backend: B,
) -> NetDrillOutcome {
    run_net_scenario_with(spec, move || backend)
}

/// [`run_net_scenario`], but the backend is built *on* the server's
/// dispatcher thread by a `Send` factory — required for backends over
/// the `Rc`-based DOT model (see [`crate::server::start_with`]).
pub fn run_net_scenario_with<B, F>(spec: &NetScenarioSpec, make_backend: F) -> NetDrillOutcome
where
    B: NetBackend + 'static,
    F: FnOnce() -> B + Send + 'static,
{
    let t0 = Instant::now();
    let trace_seq = AtomicU64::new(1);
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

    let tally = Arc::new(Mutex::new(Tally::default()));

    match spec.kind {
        NetScenarioKind::ConnStorm { conns } => {
            // Everyone connects and exchanges one request, then waits at
            // a barrier before hanging up — admitted connections hold
            // their slots so the rest reliably hit the cap.
            let barrier = Arc::new(Barrier::new(conns));
            let mut threads = Vec::new();
            for i in 0..conns {
                let barrier = Arc::clone(&barrier);
                let tally = Arc::clone(&tally);
                let req = drill_request(&spec.region, i as u64 + 1, &trace_seq);
                threads.push(thread::spawn(move || {
                    let resp = connect(addr).and_then(|mut s| {
                        let r = exchange(&mut s, &req);
                        barrier.wait();
                        drop(s);
                        r
                    });
                    if resp.is_none() {
                        barrier.wait(); // connect failed: release the rest
                    }
                    if let Some(r) = resp {
                        tally.lock().unwrap().absorb(&r);
                    }
                }));
            }
            for t in threads {
                let _ = t.join();
            }
        }
        NetScenarioKind::SlowClient => {
            // The slowloris: half a header, then nothing.
            let slow = connect(addr);
            if let Some(mut s) = slow {
                let _ = s.write_all(&[0u8, 0]);
                // A healthy neighbor is served while the slow one waits
                // out its frame deadline.
                if let Some(mut healthy) = connect(addr) {
                    for i in 0..4u64 {
                        if let Some(r) = exchange(
                            &mut healthy,
                            &drill_request(&spec.region, i + 1, &trace_seq),
                        ) {
                            tally.lock().unwrap().absorb(&r);
                        }
                    }
                }
                // Wait past the deadline so the server provably cut us.
                let cut_by = Instant::now();
                let deadline = Duration::from_millis(spec.server.frame_deadline_ms * 3 + 500);
                loop {
                    match read_frame(&mut s, DEFAULT_MAX_FRAME_BYTES) {
                        Ok(FrameRead::Closed) | Err(_) => break,
                        Ok(FrameRead::Payload(_)) => {}
                    }
                    if cut_by.elapsed() > deadline {
                        break;
                    }
                }
            }
        }
        NetScenarioKind::Disconnect { victims } => {
            for i in 0..victims {
                if let Some(mut s) = connect(addr) {
                    let _ = write_frame(
                        &mut s,
                        &drill_request(&spec.region, i as u64 + 1, &trace_seq).to_json(),
                    );
                    drop(s); // hang up before the reply
                }
            }
            if let Some(mut healthy) = connect(addr) {
                for i in 0..4u64 {
                    if let Some(r) = exchange(
                        &mut healthy,
                        &drill_request(&spec.region, 100 + i, &trace_seq),
                    ) {
                        tally.lock().unwrap().absorb(&r);
                    }
                }
            }
        }
        NetScenarioKind::DrainUnderLoad { clients, load_ms } => {
            let mut threads = Vec::new();
            for c in 0..clients {
                let tally = Arc::clone(&tally);
                let region = spec.region;
                let seq = AtomicU64::new(c as u64 * 10_000 + 1);
                threads.push(thread::spawn(move || {
                    let Some(mut s) = connect(addr) else { return };
                    for i in 0..100_000u64 {
                        let id = seq.fetch_add(1, Ordering::Relaxed) + i;
                        let req = WireRequest {
                            id,
                            query: drill_query(&region, id),
                            deadline_ms: Some(2_000),
                            trace: None,
                            parent_span: None,
                        };
                        let Some(r) = exchange(&mut s, &req) else {
                            return;
                        };
                        let draining = matches!(
                            r,
                            WireResponse::Err {
                                code: WireErrorCode::ServerDraining,
                                ..
                            }
                        );
                        tally.lock().unwrap().absorb(&r);
                        if draining {
                            return;
                        }
                    }
                }));
            }
            thread::sleep(Duration::from_millis(load_ms));
            // Drain while the clients are mid-conversation.
            let report = handle.drain();
            for t in threads {
                let _ = t.join();
            }
            let tally = tally.lock().unwrap();
            let mut errs: Vec<_> = tally.errs.iter().map(|(k, v)| (k.clone(), *v)).collect();
            errs.sort();
            let violations = spec.expect.check(&report.stats, report.clean, tally.ok);
            return NetDrillOutcome {
                name: spec.name,
                ok_replies: tally.ok,
                err_replies: errs,
                stats: report.stats.clone(),
                drain_clean: report.clean,
                forced_conns: report.forced_conns,
                flightrec_dump: report.flightrec_dump.clone(),
                wall_s: t0.elapsed().as_secs_f64(),
                pass: violations.is_empty(),
                violations,
            };
        }
    }

    let report = handle.drain();
    let tally = tally.lock().unwrap();
    let mut errs: Vec<_> = tally.errs.iter().map(|(k, v)| (k.clone(), *v)).collect();
    errs.sort();
    let violations = spec.expect.check(&report.stats, report.clean, tally.ok);
    NetDrillOutcome {
        name: spec.name,
        ok_replies: tally.ok,
        err_replies: errs,
        stats: report.stats.clone(),
        drain_clean: report.clean,
        forced_conns: report.forced_conns,
        flightrec_dump: report.flightrec_dump.clone(),
        wall_s: t0.elapsed().as_secs_f64(),
        pass: violations.is_empty(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::EchoBackend;

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
            let outcome = run_net_scenario(&spec, EchoBackend { delay });
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
        let mut stats = ConnStatsSnapshot::default();
        stats.active = 1;
        let v = NetExpectations {
            min_ok: 5,
            ..NetExpectations::default()
        }
        .check(&stats, true, 2);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("leaked"));
        assert!(v[1].contains("ok replies"));
    }
}
