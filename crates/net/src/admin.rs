//! The live introspection plane: a hand-rolled HTTP/1.1 admin endpoint
//! served off-band from the wire protocol port.
//!
//! Production debugging of the oracle server needs answers *while the
//! incident is happening*: what are the latency histograms doing, which
//! breakers are open, is the model drifting, is the process even ready?
//! This module serves those answers over plain HTTP so `curl`,
//! Prometheus, and load-balancer health checks all work unmodified:
//!
//! | route             | answer                                           |
//! |-------------------|--------------------------------------------------|
//! | `GET /metrics`    | the whole metrics registry, Prometheus text
//!                       exposition 0.0.4 ([`odt_obs::expo`])              |
//! | `GET /healthz`    | liveness — `200 ok` whenever the process serves  |
//! | `GET /readyz`     | readiness — `503` until the backend factory (model
//!                       training/loading) finishes, `200 ready` after     |
//! | `GET /varz`       | JSON snapshot: server state, connection counters,
//!                       frontend/rung/breaker stats, model quality        |
//! | `GET /tracez`     | JSON: recently retained traces with per-span
//!                       self-times                                        |
//! | `GET /metrics/cluster` | routers only: federated exposition of every
//!                       replica's `/metrics` plus merged cluster
//!                       histograms ([`crate::fed`])                       |
//! | `GET /varz/cluster` | routers only: cluster topology/quality roll-up |
//! | `POST /flightrec` | trigger a flight-recorder dump, return its path  |
//! | `POST /swap`      | request a zero-downtime hot model swap; the body
//!                       is the candidate checkpoint path                  |
//!
//! ## Hardening
//!
//! The admin port is still a listening socket, so it gets the same class
//! of defenses as the wire port, scaled down: bounded header size (reject
//! oversized requests before buffering them), read/write timeouts, a cap
//! on concurrent handler threads (over-cap connections get `503` and an
//! immediate close), one request per connection (`Connection: close` —
//! no keep-alive state machine to abuse). Request bodies are read only
//! for `POST /swap`, bounded by the same byte cap as headers. The plane
//! is **read-only** except `POST /flightrec` (writes an incident dump to
//! the operator-configured directory) and `POST /swap` (hands the
//! candidate path to the server's swap controller, which validates and
//! shadow-scores it before anything changes).
//!
//! ## Liveness vs readiness
//!
//! `/healthz` answers 200 from the moment the admin socket is up — it
//! means "the process is alive and the introspection plane works", and
//! it deliberately stays green while the model trains so orchestrators
//! don't kill a booting server. `/readyz` is the routable signal: it
//! flips to 200 only when the owner calls [`AdminHandle::set_ready`]
//! (the server binary does this exactly when the backend factory
//! finishes) and back to 503 when a drain starts.

use crate::server::ConnStatsSnapshot;
use odt_obs::json;
use odt_obs::QualitySnapshot;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Admin endpoint tuning. `Default` binds an ephemeral loopback port.
#[derive(Clone, Debug)]
pub struct AdminConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    /// Bind this to loopback or an ops network — the plane has no auth.
    pub addr: String,
    /// Cap on a request's header bytes; larger requests get `431`.
    pub max_request_bytes: usize,
    /// Per-connection read timeout, ms (the whole request must arrive
    /// within one tick of this).
    pub read_timeout_ms: u64,
    /// Per-connection write timeout, ms.
    pub write_timeout_ms: u64,
    /// Cap on concurrent handler threads; over-cap connects get `503`.
    pub max_connections: usize,
    /// Most recent retained traces `/tracez` returns.
    pub tracez_limit: usize,
}

impl Default for AdminConfig {
    fn default() -> Self {
        AdminConfig {
            addr: "127.0.0.1:0".to_string(),
            max_request_bytes: 8 * 1024,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_connections: 8,
            tracez_limit: 32,
        }
    }
}

/// Closure rendering the `/varz` JSON body; installed by the server
/// binary so the admin plane stays decoupled from what it introspects.
pub type VarzFn = Box<dyn Fn() -> String + Send + Sync>;

/// Handler for `POST /swap`: takes the candidate checkpoint path (the
/// request body, trimmed) and returns `(http_status, json_body)`. The
/// server binary bridges this to its swap controller; the closure runs
/// on an admin handler thread, so it must only enqueue + wait, never
/// touch the (`!Send`) model directly.
pub type SwapFn = Box<dyn Fn(&str) -> (u16, String) + Send + Sync>;

/// Pluggable data sources for routes whose content the admin plane does
/// not own. `/metrics` and `/tracez` read the process-global `odt_obs`
/// state directly and need no source.
#[derive(Default)]
pub struct AdminSources {
    /// `/varz` body builder (see [`render_varz`]). When absent, `/varz`
    /// serves a stub that says so.
    pub varz: Option<VarzFn>,
    /// `POST /swap` handler. When absent, `/swap` answers `503` — the
    /// process has no swappable model (echo backends, routers).
    pub swap: Option<SwapFn>,
    /// `GET /metrics/cluster` body builder: the federated Prometheus
    /// exposition (router processes install [`crate::fed`]'s renderer).
    /// When absent — every non-router process — the route answers `503`.
    pub metrics_cluster: Option<VarzFn>,
    /// `GET /varz/cluster` body builder: the cluster topology/quality
    /// roll-up JSON. When absent, the route answers `503`.
    pub varz_cluster: Option<VarzFn>,
}

struct AdminShared {
    cfg: AdminConfig,
    sources: AdminSources,
    ready: AtomicBool,
    stopping: AtomicBool,
    active: AtomicI64,
    requests: AtomicU64,
}

/// A running admin endpoint. [`AdminHandle::shutdown`] stops it; dropping
/// without shutdown leaves the acceptor thread running (process-owned,
/// like the wire server).
pub struct AdminHandle {
    addr: SocketAddr,
    shared: Arc<AdminShared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Cap on a reply [`http_request`] will buffer — an admin plane gone
/// haywire must not balloon the memory of the router scraping it.
const MAX_SCRAPE_BYTES: usize = 4 * 1024 * 1024;

/// The admin plane's client: one bodyless `method path` request against an
/// admin endpoint (health probes, federation scrapes, flight-recorder
/// fan-out). Returns the status and body, or `None` when the endpoint is
/// unreachable, does not answer within `timeout`, or the reply is not
/// parseable HTTP or exceeds [`MAX_SCRAPE_BYTES`].
pub fn http_request(
    admin_addr: &str,
    method: &str,
    path: &str,
    timeout: Duration,
) -> Option<(u16, String)> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: odt\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    let (status, _head, body) = http_exchange(admin_addr, request.as_bytes(), timeout)?;
    Some((status, body))
}

/// Send `request` as is and read the reply to connection close (the plane
/// always answers `Connection: close`): `(status, head, body)`.
fn http_exchange(
    admin_addr: &str,
    request: &[u8],
    timeout: Duration,
) -> Option<(u16, String, String)> {
    let addr = admin_addr.to_socket_addrs().ok()?.next()?;
    let mut s = TcpStream::connect_timeout(&addr, timeout).ok()?;
    s.set_read_timeout(Some(timeout)).ok()?;
    s.set_write_timeout(Some(timeout)).ok()?;
    s.write_all(request).ok()?;
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() > MAX_SCRAPE_BYTES {
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some((status, head.to_string(), body.to_string()))
}

/// Start the admin endpoint: binds, spawns one acceptor thread (handler
/// threads are per-request, capped), returns immediately. Readiness
/// starts `false`.
pub fn start_admin(cfg: AdminConfig, sources: AdminSources) -> io::Result<AdminHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(AdminShared {
        cfg,
        sources,
        ready: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        active: AtomicI64::new(0),
        requests: AtomicU64::new(0),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("odt-admin".to_string())
            .spawn(move || accept_loop(listener, shared))
            .map_err(io::Error::other)?
    };
    odt_obs::event(odt_obs::Level::Info, "admin.start")
        .field("addr", addr.to_string())
        .emit();
    Ok(AdminHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

impl AdminHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flip the `/readyz` signal. The owner calls `set_ready(true)`
    /// exactly when the backend can answer queries, and `set_ready(false)`
    /// when a drain starts — load balancers then stop routing before the
    /// wire port refuses.
    pub fn set_ready(&self, ready: bool) {
        let was = self.shared.ready.swap(ready, Ordering::Release);
        if was != ready {
            odt_obs::event(odt_obs::Level::Info, "admin.ready")
                .field("ready", ready)
                .emit();
            odt_obs::gauge("admin.ready").set(if ready { 1.0 } else { 0.0 });
        }
    }

    /// Current readiness.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::Acquire)
    }

    /// Requests handled so far (any route, any status).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the acceptor. In-flight handlers finish
    /// on their own (bounded by the read/write timeouts).
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        odt_obs::event(odt_obs::Level::Info, "admin.stop").emit();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<AdminShared>) {
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let cur = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
                if cur > shared.cfg.max_connections as i64 {
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                    over_capacity(stream, &shared.cfg);
                    continue;
                }
                let shared2 = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("odt-admin-conn".to_string())
                    .spawn(move || {
                        handle_conn(stream, &shared2);
                        shared2.active.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn over_capacity(mut stream: TcpStream, cfg: &AdminConfig) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));
    let _ = stream.write_all(response(503, TEXT, "admin connection cap reached\n").as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json; charset=utf-8";

/// Serialize one HTTP/1.1 response; every admin reply closes the
/// connection (no keep-alive state to manage or abuse).
fn response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<AdminShared>) {
    let cfg = &shared.cfg;
    if stream
        .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))
        .is_err()
    {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));

    // Read the request head (everything through the blank line), bounded.
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break Some(pos);
        }
        if buf.len() > cfg.max_request_bytes {
            break None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break None, // timeout or reset: give up on the request
        }
    };
    let reply = match head_end {
        None if buf.len() > cfg.max_request_bytes => {
            odt_obs::counter("admin.errors").inc();
            response(431, TEXT, "request too large\n")
        }
        None => {
            odt_obs::counter("admin.errors").inc();
            response(400, TEXT, "incomplete request\n")
        }
        Some(pos) => {
            let head = String::from_utf8_lossy(&buf[..pos]).into_owned();
            shared.requests.fetch_add(1, Ordering::Relaxed);
            odt_obs::counter("admin.requests").inc();
            match read_body(&mut stream, &mut buf, pos + 4, &head, cfg) {
                Ok(body) => route(&head, &body, shared),
                Err(reply) => reply,
            }
        }
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read the request body declared by `Content-Length` (anything already
/// buffered past the head counts), bounded by the same byte cap as the
/// head. Returns the body as lossy UTF-8, or a ready-to-send error
/// response.
fn read_body(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    body_start: usize,
    head: &str,
    cfg: &AdminConfig,
) -> Result<String, String> {
    let declared = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if declared == 0 {
        return Ok(String::new());
    }
    if declared > cfg.max_request_bytes {
        odt_obs::counter("admin.errors").inc();
        return Err(response(431, TEXT, "request body too large\n"));
    }
    let mut chunk = [0u8; 1024];
    while buf.len() < body_start + declared {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break, // timeout or reset
        }
    }
    if buf.len() < body_start + declared {
        odt_obs::counter("admin.errors").inc();
        return Err(response(400, TEXT, "incomplete request body\n"));
    }
    Ok(String::from_utf8_lossy(&buf[body_start..body_start + declared]).into_owned())
}

fn route(head: &str, body: &str, shared: &Arc<AdminShared>) -> String {
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("");
    // Strip any query string: the plane takes no parameters.
    let path = first.next().unwrap_or("").split('?').next().unwrap_or("");
    match (method, path) {
        ("GET", "/metrics") => response(200, odt_obs::expo::CONTENT_TYPE, &odt_obs::expo::render()),
        ("GET", "/healthz") => response(200, TEXT, "ok\n"),
        ("GET", "/readyz") => {
            if shared.ready.load(Ordering::Acquire) {
                response(200, TEXT, "ready\n")
            } else {
                response(503, TEXT, "not ready: backend unavailable\n")
            }
        }
        ("GET", "/varz") => {
            let body = match &shared.sources.varz {
                Some(f) => f(),
                None => unavailable("odt-varz/v2"),
            };
            response(200, JSON, &body)
        }
        ("GET", "/tracez") => response(200, JSON, &render_tracez(shared.cfg.tracez_limit)),
        ("GET", "/metrics/cluster") => match &shared.sources.metrics_cluster {
            Some(f) => response(200, odt_obs::expo::CONTENT_TYPE, &f()),
            None => response(
                503,
                TEXT,
                "no cluster federation: this process is not a router\n",
            ),
        },
        ("GET", "/varz/cluster") => match &shared.sources.varz_cluster {
            Some(f) => response(200, JSON, &f()),
            None => response(503, JSON, &unavailable("odt-cluster-varz/v1")),
        },
        ("POST", "/flightrec") => match odt_obs::flightrec::trigger("admin_request") {
            Some(path) => response(
                200,
                JSON,
                &json::object_string(|o| {
                    o.field("schema", "odt-admin/v1")
                        .field("dump", json::Text(path.display()));
                }),
            ),
            None => response(
                503,
                JSON,
                &json::object_string(|o| {
                    o.field("schema", "odt-admin/v1")
                        .field("error", "flight recorder disabled");
                }),
            ),
        },
        ("POST", "/swap") => match &shared.sources.swap {
            Some(f) => {
                let candidate = body.trim();
                if candidate.is_empty() {
                    response(
                        400,
                        JSON,
                        &swap_refusal("bad_request", "body must be the candidate checkpoint path"),
                    )
                } else {
                    let (status, reply) = f(candidate);
                    response(status, JSON, &reply)
                }
            }
            None => response(
                503,
                JSON,
                &swap_refusal("unavailable", "this process has no swappable model"),
            ),
        },
        ("GET", "/") => response(
            200,
            TEXT,
            "odt admin plane\n\nGET  /metrics    Prometheus exposition\n\
             GET  /healthz    liveness\nGET  /readyz     readiness\n\
             GET  /varz       server/frontend/quality JSON\n\
             GET  /tracez     retained traces JSON\n\
             GET  /metrics/cluster  federated cluster exposition (routers)\n\
             GET  /varz/cluster     cluster topology/quality roll-up (routers)\n\
             POST /flightrec  trigger a flight-recorder dump\n\
             POST /swap       hot-swap the model (body: checkpoint path)\n",
        ),
        ("GET", _) | ("POST", _) => response(404, TEXT, "unknown admin route\n"),
        _ => response(405, TEXT, "method not allowed\n"),
    }
}

/// The body of a JSON route whose source this process does not have.
fn unavailable(schema: &str) -> String {
    json::object_string(|o| {
        o.field("schema", schema).field("available", false);
    })
}

/// An `odt-swap/v1` refusal body (`POST /swap` answers that never reached
/// a swap controller; the server binary renders the controller's own).
pub fn swap_refusal(code: &str, detail: &str) -> String {
    json::object_string(|o| {
        o.field("schema", "odt-swap/v1")
            .field("accepted", false)
            .field("code", code)
            .field("detail", detail);
    })
}

/// Render the `/varz` JSON body (`odt-varz/v2`) from the server's live
/// state, each block spelled by its snapshot's own `ToJson`. The server
/// binary wraps this in a closure over its stats handles; tests call it
/// directly. A block whose source is off (no frontend yet, no shadow
/// scorer, no `--cache`) renders as `null`, so consumers can tell
/// "disabled" from "cold".
pub fn render_varz(
    state: &str,
    conn: &ConnStatsSnapshot,
    inflight: i64,
    frontend: Option<(&odt_serve::FrontendSnapshot, u64)>,
    quality: Option<&QualitySnapshot>,
    cache: Option<&odt_serve::CacheStats>,
) -> String {
    json::object_string(|o| {
        o.field("schema", "odt-varz/v2")
            .field("state", state)
            .field("inflight", inflight)
            .field("conns", conn)
            .field("frontend", frontend.map(|(fe, _)| fe))
            .field("adopted_traces", frontend.map(|(_, adopted)| adopted))
            .field("quality", quality)
            .field("cache", cache);
    })
}

/// Render the `/tracez` JSON body (`odt-tracez/v1`): the most recent
/// `limit` retained traces, each as `odt_obs`'s trace object (per-span
/// *self* times: where inside the request the time actually went).
fn render_tracez(limit: usize) -> String {
    let traces = odt_obs::trace::retained_traces();
    let skip = traces.len().saturating_sub(limit);
    json::object_string(|o| {
        o.field("schema", "odt-tracez/v1")
            .field("instance", crate::server::instance_name())
            .field("retained", traces.len())
            .field("traces", &traces[skip..]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> (u16, String, String) {
        http_exchange(
            &addr.to_string(),
            request.as_bytes(),
            Duration::from_secs(5),
        )
        .expect("an HTTP reply")
    }

    fn simple_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        get(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"),
        )
    }

    fn boot(sources: AdminSources) -> AdminHandle {
        start_admin(AdminConfig::default(), sources).expect("admin start")
    }

    #[test]
    fn http_request_reads_statuses_and_refuses_dead_ports_and_oversized_bodies() {
        let t = Duration::from_millis(1_000);
        let h = boot(AdminSources {
            varz: Some(Box::new(|| "x".repeat(MAX_SCRAPE_BYTES + 1))),
            ..AdminSources::default()
        });
        let addr = h.addr().to_string();
        // (method, path, readiness to set first, acceptable statuses; none = refused)
        let rows: [(&str, &str, bool, &[u16]); 7] = [
            ("GET", "/healthz", false, &[200]),
            ("GET", "/nonesuch", false, &[404]),
            ("GET", "/readyz", false, &[503]),
            ("GET", "/readyz", true, &[200]),
            ("GET", "/readyz", false, &[503]),
            // 200 when the flight recorder is armed, 503 otherwise; tests
            // running beside this one toggle it.
            ("POST", "/flightrec", false, &[200, 503]),
            // A reply over MAX_SCRAPE_BYTES is refused, not buffered.
            ("GET", "/varz", false, &[]),
        ];
        for (method, path, ready, want) in rows {
            h.set_ready(ready);
            match http_request(&addr, method, path, t) {
                Some((st, _)) => assert!(want.contains(&st), "{method} {path}: {st}"),
                None => assert!(want.is_empty(), "{method} {path}: no reply"),
            }
        }
        let (_, body) = http_request(&addr, "GET", "/healthz", t).unwrap();
        assert_eq!(body, "ok\n");
        h.shutdown();
        // A bound-then-dropped port is unreachable whatever the verb.
        let free = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        for method in ["GET", "POST"] {
            assert!(http_request(&free, method, "/healthz", t).is_none());
        }
    }

    #[test]
    fn healthz_is_immediately_live_and_readyz_flips_with_set_ready() {
        let h = boot(AdminSources::default());
        let (st, _, body) = simple_get(h.addr(), "/healthz");
        assert_eq!((st, body.as_str()), (200, "ok\n"));

        let (st, _, _) = simple_get(h.addr(), "/readyz");
        assert_eq!(st, 503, "not ready until the owner says so");
        h.set_ready(true);
        let (st, _, body) = simple_get(h.addr(), "/readyz");
        assert_eq!((st, body.as_str()), (200, "ready\n"));
        h.set_ready(false);
        let (st, _, _) = simple_get(h.addr(), "/readyz");
        assert_eq!(st, 503, "drain flips readiness back off");
        assert!(h.requests() >= 4);
        h.shutdown();
    }

    #[test]
    fn metrics_route_serves_the_exposition_content_type() {
        // Touch the registry so the body is non-empty regardless of test
        // interleaving (the registry is process-global).
        odt_obs::counter("admin.test.metric").inc();
        let h = boot(AdminSources::default());
        let (st, head, body) = simple_get(h.addr(), "/metrics");
        assert_eq!(st, 200);
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            "{head}"
        );
        assert!(body.contains("odt_admin_test_metric_total"), "{body}");
        assert!(head.contains("Connection: close"));
        h.shutdown();
    }

    #[test]
    fn varz_uses_the_installed_source_and_query_strings_are_ignored() {
        let h = boot(AdminSources {
            varz: Some(Box::new(|| {
                render_varz(
                    "running",
                    &ConnStatsSnapshot::default(),
                    0,
                    None,
                    None,
                    None,
                )
            })),
            ..AdminSources::default()
        });
        let (st, head, body) = simple_get(h.addr(), "/varz?pretty=1");
        assert_eq!(st, 200);
        assert!(head.contains("Content-Type: application/json"));
        assert!(body.starts_with("{\"schema\":\"odt-varz/v2\""), "{body}");
        assert!(body.contains("\"state\":\"running\""));
        h.shutdown();
    }

    #[test]
    fn varz_without_a_source_says_unavailable() {
        let h = boot(AdminSources::default());
        let (st, _, body) = simple_get(h.addr(), "/varz");
        assert_eq!(st, 200);
        assert!(body.contains("\"available\":false"), "{body}");
        h.shutdown();
    }

    #[test]
    fn unknown_routes_and_methods_get_typed_statuses() {
        let h = boot(AdminSources::default());
        let (st, _, _) = simple_get(h.addr(), "/nope");
        assert_eq!(st, 404);
        let (st, _, _) = get(h.addr(), "DELETE /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 405);
        let (st, _, _) = get(
            h.addr(),
            &format!(
                "GET /metrics HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
                "j".repeat(16 * 1024)
            ),
        );
        assert_eq!(st, 431, "oversized request heads are refused");
        h.shutdown();
    }

    #[test]
    fn flightrec_route_posts_a_dump_when_enabled_and_503s_when_not() {
        let dir = std::env::temp_dir().join(format!("odt_admin_fr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = boot(AdminSources::default());
        // Disabled recorder: typed refusal.
        odt_obs::flightrec::disable();
        let (st, _, body) = get(h.addr(), "POST /flightrec HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 503);
        assert!(body.contains("disabled"), "{body}");
        // Enabled: the dump lands and its path comes back.
        odt_obs::flightrec::enable(&dir);
        let (st, _, body) = get(h.addr(), "POST /flightrec HTTP/1.1\r\nHost: x\r\n\r\n");
        odt_obs::flightrec::disable();
        assert_eq!(st, 200, "{body}");
        assert!(body.contains("\"dump\":"), "{body}");
        assert!(body.contains("admin_request"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
        h.shutdown();
    }

    #[test]
    fn swap_route_reads_the_body_and_bridges_to_the_installed_handler() {
        let h = boot(AdminSources {
            swap: Some(Box::new(|candidate| {
                assert_eq!(candidate, "/models/v9.dotckpt");
                (200, "{\"accepted\":true,\"version\":9}".to_string())
            })),
            ..AdminSources::default()
        });
        let body = "/models/v9.dotckpt\n";
        let (st, head, reply) = get(
            h.addr(),
            &format!(
                "POST /swap HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(st, 200, "{reply}");
        assert!(head.contains("Content-Type: application/json"));
        assert!(reply.contains("\"version\":9"), "{reply}");

        // An empty body is a typed 400, the handler never runs.
        let (st, _, reply) = get(h.addr(), "POST /swap HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 400);
        assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
        h.shutdown();
    }

    #[test]
    fn swap_route_without_a_handler_is_a_typed_503() {
        let h = boot(AdminSources::default());
        let (st, _, reply) = get(
            h.addr(),
            "POST /swap HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\n/x/y\n",
        );
        assert_eq!(st, 503);
        assert!(reply.contains("\"code\":\"unavailable\""), "{reply}");
        h.shutdown();
    }

    #[test]
    fn oversized_swap_bodies_are_refused() {
        let h = boot(AdminSources {
            swap: Some(Box::new(|_| (200, "{}".to_string()))),
            ..AdminSources::default()
        });
        let big = "p".repeat(16 * 1024);
        let (st, _, _) = get(
            h.addr(),
            &format!(
                "POST /swap HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{big}",
                big.len()
            ),
        );
        assert_eq!(st, 431);
        h.shutdown();
    }

    #[test]
    fn cluster_routes_503_without_a_router_and_serve_installed_sources() {
        // A plain shard process: no federation sources.
        let h = boot(AdminSources::default());
        let (st, _, body) = simple_get(h.addr(), "/metrics/cluster");
        assert_eq!(st, 503, "{body}");
        let (st, _, body) = simple_get(h.addr(), "/varz/cluster");
        assert_eq!(st, 503);
        assert!(body.contains("\"available\":false"), "{body}");
        h.shutdown();

        // A router process: both sources installed.
        let h = boot(AdminSources {
            metrics_cluster: Some(Box::new(|| {
                "# TYPE odt_cluster_up gauge\nodt_cluster_up 1\n".to_string()
            })),
            varz_cluster: Some(Box::new(|| {
                "{\"schema\":\"odt-cluster-varz/v1\",\"shards\":[]}".to_string()
            })),
            ..AdminSources::default()
        });
        let (st, head, body) = simple_get(h.addr(), "/metrics/cluster");
        assert_eq!(st, 200);
        assert!(head.contains("version=0.0.4"), "{head}");
        assert!(body.contains("odt_cluster_up 1"), "{body}");
        let (st, _, body) = simple_get(h.addr(), "/varz/cluster");
        assert_eq!(st, 200);
        assert!(
            body.starts_with("{\"schema\":\"odt-cluster-varz/v1\""),
            "{body}"
        );
        h.shutdown();
    }

    #[test]
    fn varz_renders_full_frontend_and_quality_blocks() {
        let fe = odt_serve::FrontendSnapshot {
            submitted: 10,
            admitted: 9,
            served: 8,
            shed_queue_full: 1,
            rung_hits: [3, 5, 2, 1, 0, 0],
            ladder_cost_us: [5, 4_000, 1_500, 700, 5, 10],
            breaker_states: ["closed", "closed", "open", "half_open", "closed"],
            deadline_met: 7,
            deadline_missed: 1,
            ..odt_serve::FrontendSnapshot::default()
        };
        let q = QualitySnapshot {
            samples: 100,
            window_len: 64,
            mae_s: 12.5,
            mape: 0.08,
            bias_s: -3.0,
            drift_score: 0.2,
            reference_frozen: true,
            ..QualitySnapshot::default()
        };
        let cache = odt_serve::CacheStats {
            hits: 60,
            stale_hits: 10,
            misses: 30,
            evictions: 7,
            admission_rejects: 3,
            prewarm_batches: 2,
            invalidations: 1,
            invalidated_entries: 5,
            len: 40,
            capacity: 64,
            generation: 1,
        };
        let body = render_varz(
            "draining",
            &ConnStatsSnapshot {
                opened: 3,
                active: 1,
                ..ConnStatsSnapshot::default()
            },
            2,
            Some((&fe, 4)),
            Some(&q),
            Some(&cache),
        );
        for needle in [
            "\"state\":\"draining\"",
            "\"inflight\":2",
            "\"opened\":3",
            "\"rung_hits\":{\"cached\":3,\"full_ddpm\":5,\"ddim\":2,\"ddim_reduced\":1,",
            "\"ladder_cost_us\":{\"cached\":5,\"full_ddpm\":4000,\"ddim\":1500,",
            "\"states\":[\"closed\",\"closed\",\"open\",\"half_open\",\"closed\"]",
            "\"adopted_traces\":4",
            "\"mae_s\":12.5",
            "\"drift_score\":0.2",
            "\"reference_frozen\":true",
            "\"cache\":{\"len\":40,\"capacity\":64,\"generation\":1,\"hits\":60",
            "\"hit_rate\":0.6",
            "\"prewarm_batches\":2",
            "\"invalidated_entries\":5",
        ] {
            assert!(body.contains(needle), "missing {needle} in {body}");
        }
        // Non-finite floats must not leak into the JSON.
        let nan_q = QualitySnapshot {
            mape: f64::NAN,
            ..QualitySnapshot::default()
        };
        let body = render_varz(
            "running",
            &ConnStatsSnapshot::default(),
            0,
            None,
            Some(&nan_q),
            None,
        );
        assert!(body.contains("\"mape\":null"), "{body}");
        // No cache attached: the block is null, not absent and not zeroed.
        assert!(body.contains("\"cache\":null"), "{body}");
    }

    #[test]
    fn varz_bytes_are_pinned() {
        let slo = odt_obs::slo::BurnRateSnapshot {
            fast_burn: 1.5,
            slow_burn: f64::NAN,
            alerting: true,
            alerts: 2,
            total: 50,
            errors: 4,
        };
        let fe = odt_serve::FrontendSnapshot {
            submitted: 10,
            admitted: 9,
            served: 8,
            shed_queue_full: 1,
            shed_deadline: 2,
            shed_invalid: 3,
            shed_internal: 4,
            rung_hits: [3, 5, 2, 1, 0, 0],
            rung_failures: [0, 1, 0, 0, 0, 0],
            ladder_cost_us: [5, 4_000, 1_500, 700, 5, 10],
            breaker_trips: [0, 0, 1, 2, 0],
            breaker_states: ["closed", "closed", "open", "half_open", "closed"],
            deadline_met: 7,
            deadline_missed: 1,
            slo: Some(slo),
        };
        let q = QualitySnapshot {
            samples: 100,
            window_len: 64,
            mae_s: 12.5,
            mape: 0.08,
            bias_s: -3.0,
            drift_score: 0.2,
            reference_frozen: true,
            drift_alerting: false,
            drift_alerts: 1,
            slo: None,
        };
        let cache = odt_serve::CacheStats {
            hits: 60,
            stale_hits: 10,
            misses: 30,
            evictions: 7,
            admission_rejects: 3,
            prewarm_batches: 2,
            invalidations: 1,
            invalidated_entries: 5,
            len: 40,
            capacity: 64,
            generation: 1,
        };
        let conn = ConnStatsSnapshot {
            opened: 3,
            closed: 2,
            active: 1,
            rejected_capacity: 4,
            rejected_draining: 5,
            frames_in: 6,
            frames_out: 7,
            malformed: 8,
            too_large: 9,
            timeouts_idle: 10,
            timeouts_frame: 11,
            read_errors: 12,
            write_errors: 13,
            backpressure_stalls: 14,
            dispatch_shed: 15,
            reply_drops: 16,
            forced_closes: 17,
        };
        assert_eq!(
            render_varz(
                "drain\"ing",
                &conn,
                -2,
                Some((&fe, 4)),
                Some(&q),
                Some(&cache)
            ),
            "{\"schema\":\"odt-varz/v2\",\"state\":\"drain\\\"ing\",\"inflight\":-2,\
             \"conns\":{\"opened\":3,\"closed\":2,\"active\":1,\"rejected_capacity\":4,\
             \"rejected_draining\":5,\"frames_in\":6,\"frames_out\":7,\"malformed\":8,\
             \"too_large\":9,\"timeouts_idle\":10,\"timeouts_frame\":11,\"read_errors\":12,\
             \"write_errors\":13,\"backpressure_stalls\":14,\"dispatch_shed\":15,\
             \"reply_drops\":16,\"forced_closes\":17},\
             \"frontend\":{\"submitted\":10,\"admitted\":9,\"served\":8,\
             \"shed\":{\"queue_full\":1,\"queue_expired\":2,\"invalid_query\":3,\
             \"internal\":4},\
             \"rung_hits\":{\"cached\":3,\"full_ddpm\":5,\"ddim\":2,\"ddim_reduced\":1,\
             \"cached_stale\":0,\"fallback\":0},\
             \"rung_failures\":{\"cached\":0,\"full_ddpm\":1,\"ddim\":0,\"ddim_reduced\":0,\
             \"cached_stale\":0,\"fallback\":0},\
             \"ladder_cost_us\":{\"cached\":5,\"full_ddpm\":4000,\"ddim\":1500,\
             \"ddim_reduced\":700,\"cached_stale\":5,\"fallback\":10},\
             \"breaker\":{\"trips\":[0,0,1,2,0],\
             \"states\":[\"closed\",\"closed\",\"open\",\"half_open\",\"closed\"]},\
             \"deadline\":{\"met\":7,\"missed\":1},\
             \"slo\":{\"fast_burn\":1.5,\"slow_burn\":null,\"alerting\":true,\"alerts\":2,\
             \"total\":50,\"errors\":4}},\"adopted_traces\":4,\
             \"quality\":{\"samples\":100,\"window_len\":64,\"mae_s\":12.5,\"mape\":0.08,\
             \"bias_s\":-3,\"drift_score\":0.2,\"reference_frozen\":true,\
             \"drift_alerting\":false,\"drift_alerts\":1,\"slo\":null},\
             \"cache\":{\"len\":40,\"capacity\":64,\"generation\":1,\"hits\":60,\
             \"stale_hits\":10,\"misses\":30,\"hit_rate\":0.6,\"evictions\":7,\
             \"admission_rejects\":3,\"prewarm_batches\":2,\"invalidations\":1,\
             \"invalidated_entries\":5}}"
        );
        assert_eq!(
            render_varz(
                "running",
                &ConnStatsSnapshot::default(),
                0,
                None,
                None,
                None
            ),
            "{\"schema\":\"odt-varz/v2\",\"state\":\"running\",\"inflight\":0,\
             \"conns\":{\"opened\":0,\"closed\":0,\"active\":0,\"rejected_capacity\":0,\
             \"rejected_draining\":0,\"frames_in\":0,\"frames_out\":0,\"malformed\":0,\
             \"too_large\":0,\"timeouts_idle\":0,\"timeouts_frame\":0,\"read_errors\":0,\
             \"write_errors\":0,\"backpressure_stalls\":0,\"dispatch_shed\":0,\
             \"reply_drops\":0,\"forced_closes\":0},\
             \"frontend\":null,\"adopted_traces\":null,\"quality\":null,\"cache\":null}"
        );
    }

    #[test]
    fn tracez_bytes_are_pinned() {
        odt_obs::trace::set_sample_every(1);
        {
            let root = odt_obs::trace::root_span("admin.golden.request");
            root.set_request_id(78);
            let _child = odt_obs::span("admin.golden.stage");
            odt_obs::trace::force_retain_current("admin_golden");
        }
        let body = render_tracez(usize::MAX);
        let t = odt_obs::trace::retained_traces()
            .into_iter()
            .find(|t| t.root_name == "admin.golden.request")
            .expect("trace retained");
        // The trace object's own bytes are pinned beside its `ToJson`.
        let mut want = String::new();
        odt_obs::json::ToJson::write_json(&t, &mut want).unwrap();
        assert!(want.contains("\"request_id\":78,") && want.contains("admin.golden.stage"));
        assert!(body.contains(&want), "missing {want} in {body}");
        let head = format!(
            "{{\"schema\":\"odt-tracez/v1\",\"instance\":\"{}\",\"retained\":",
            crate::server::instance_name()
        );
        assert!(body.starts_with(&head), "{body}");
        assert!(body.ends_with("]}"), "{body}");
    }
}
