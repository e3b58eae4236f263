//! The hardened TCP frontend: acceptor pool, per-connection limits,
//! bounded dispatch into a serving backend, and graceful drain.
//!
//! ## Threading model
//!
//! ```text
//!  acceptor × N ──accept──▶ conn thread (reader)
//!                             │  ▲
//!                 bounded     │  │ bounded reply channel
//!                 dispatch    │  │ (per connection)
//!                 channel     ▼  │
//!                          dispatcher (owns the backend, batches)
//!                             │
//!                             ▼
//!                          conn writer thread
//! ```
//!
//! Every hop is **bounded**: the reader stops reading once
//! `max_inflight_per_conn` requests are outstanding (kernel socket
//! buffers then exert true TCP backpressure on the client), the dispatch
//! channel is a fixed-depth `sync_channel` whose overflow is a typed
//! `backpressure` wire error, and each connection's reply channel is
//! sized to its inflight cap. Nothing buffers without a limit.
//!
//! ## Abuse defenses
//!
//! * **Oversized frames** — the length prefix is checked against
//!   `max_frame_bytes` *before* any payload allocation; the client gets a
//!   `frame_too_large` error and the connection closes (the stream cannot
//!   be resynchronized safely).
//! * **Slowloris** — a partial frame must complete within
//!   `frame_deadline_ms` of its first byte, regardless of how slowly the
//!   bytes trickle; idle connections (no partial frame) close after
//!   `idle_timeout_ms`.
//! * **Connection storms** — a global `max_connections` cap; over-cap
//!   accepts get a typed `over_capacity` error frame and an immediate
//!   close, never a thread.
//! * **Slow consumers** — response writes carry `write_timeout_ms`; a
//!   client that stops reading gets its connection marked dead and torn
//!   down instead of parking the writer forever.
//!
//! ## Graceful drain
//!
//! [`ServerHandle::drain`] flips the server to *draining*: acceptors
//! answer new connections with `server_draining`, readers stop consuming
//! frames, the dispatcher finishes everything already admitted, writers
//! flush, and connections close. If that takes longer than
//! `drain_budget_ms` the server force-stops, dumps the flight recorder,
//! and reports how many connections it had to cut.

use crate::wire::{
    tune_stream, WireErrorCode, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEADER_BYTES,
};
use odt_obs::{event, Level};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Process-wide serving-instance name, stamped into every
/// [`WireResponse::Ok`]'s `served_by` field so clients (and the router's
/// per-shard attribution) can tell *which* replica answered. Server
/// binaries set it once from `--instance` before accepting traffic.
static INSTANCE_NAME: OnceLock<String> = OnceLock::new();

/// Set this process's serving-instance name. First call wins (the name
/// must be stable for the process lifetime — it keys per-replica tallies
/// downstream); later calls are ignored.
pub fn set_instance_name(name: &str) {
    let _ = INSTANCE_NAME.set(name.to_string());
}

/// This process's serving-instance name. Defaults to `pid-<pid>` when the
/// binary never called [`set_instance_name`] — unique enough on one host
/// that two unconfigured replicas still tally separately.
pub fn instance_name() -> &'static str {
    INSTANCE_NAME.get_or_init(|| format!("pid-{}", std::process::id()))
}

/// Server tuning. `Default` is sized for tests and single-host serving.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Acceptor threads sharing the listener.
    pub acceptor_threads: usize,
    /// Global cap on concurrently served connections.
    pub max_connections: usize,
    /// Per-connection cap on requests admitted but not yet answered;
    /// reading stops (TCP backpressure) at the cap.
    pub max_inflight_per_conn: usize,
    /// Cap on a single frame's payload bytes.
    pub max_frame_bytes: usize,
    /// Socket read poll tick, ms (bounds how fast drain/stop is noticed).
    pub read_timeout_ms: u64,
    /// A partial frame must complete within this many ms of its first
    /// byte (slowloris defense).
    pub frame_deadline_ms: u64,
    /// Close connections with no traffic for this many ms.
    pub idle_timeout_ms: u64,
    /// Per-frame write timeout, ms (slow-consumer defense).
    pub write_timeout_ms: u64,
    /// Depth of the bounded dispatch queue feeding the backend.
    pub dispatch_depth: usize,
    /// Largest batch handed to the backend per dispatch cycle.
    pub max_batch: usize,
    /// Drain budget, ms: in-flight work gets this long to flush before
    /// the server force-stops.
    pub drain_budget_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            acceptor_threads: 2,
            max_connections: 256,
            max_inflight_per_conn: 32,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout_ms: 20,
            frame_deadline_ms: 2_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            dispatch_depth: 1_024,
            max_batch: 64,
            drain_budget_ms: 2_000,
        }
    }
}

/// One request as the backend sees it.
#[derive(Clone, Debug)]
pub struct NetRequest {
    /// The parsed wire request.
    pub req: WireRequest,
    /// Microseconds the request spent crossing the network boundary
    /// (read → dispatch → batch pickup); backends subtract this from the
    /// wire deadline budget and count it into the `queue_wait_us` they
    /// report, so queueing at the boundary still counts.
    pub age_us: u64,
}

/// What the dispatcher plugs requests into. One instance, owned by the
/// dispatcher thread; batching amortizes any per-call overhead.
///
/// Deliberately NOT `Send`: the backend never leaves the dispatcher
/// thread. Backends over thread-local model state (`Rc`-based tensors)
/// are constructed *on* that thread via [`start_with`]; `Send` backends
/// can take the simpler [`start`].
pub trait NetBackend {
    /// Answer a batch. Each reply is `(index into batch, response)`;
    /// order is free, but every request must be answered exactly once
    /// (the dispatcher fills `internal` errors for indices a buggy
    /// backend misses).
    fn process(&mut self, batch: Vec<NetRequest>) -> Vec<(usize, WireResponse)>;

    /// Housekeeping hook, called on the dispatcher thread after every
    /// processed batch and on every idle poll tick (~20 ms apart when no
    /// traffic flows). Backends use it for work that must share the
    /// backend's thread but not the request path: shadow-scoring a
    /// holdout for model-quality telemetry, refreshing published stats.
    /// Must stay cheap — requests queue behind it.
    fn on_tick(&mut self) {}
}

/// Connection/frame counters, all monotonic except `active`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConnStatsSnapshot {
    /// TCP connections accepted (including later-rejected ones).
    pub opened: u64,
    /// Admitted connections since closed.
    pub closed: u64,
    /// Admitted connections currently open (must be 0 after drain —
    /// the leak check).
    pub active: i64,
    /// Connections refused at the global cap.
    pub rejected_capacity: u64,
    /// Connections refused while draining.
    pub rejected_draining: u64,
    /// Complete frames read.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Payloads that failed UTF-8 or `odt-wire/v1` parsing.
    pub malformed: u64,
    /// Frames refused for size.
    pub too_large: u64,
    /// Connections closed idle.
    pub timeouts_idle: u64,
    /// Connections closed for a frame that never completed (slowloris).
    pub timeouts_frame: u64,
    /// Read-side I/O errors (including peer resets).
    pub read_errors: u64,
    /// Write-side I/O errors/timeouts.
    pub write_errors: u64,
    /// Reader stall episodes at the per-connection inflight cap.
    pub backpressure_stalls: u64,
    /// Requests shed with `backpressure` because the dispatch queue was
    /// full.
    pub dispatch_shed: u64,
    /// Replies dropped because a connection's reply channel was full or
    /// gone.
    pub reply_drops: u64,
    /// Connections cut by a force-stop after the drain budget lapsed.
    pub forced_closes: u64,
}

odt_obs::fields_to_json! {
    ConnStatsSnapshot: opened, closed, active, rejected_capacity, rejected_draining, frames_in,
    frames_out, malformed, too_large, timeouts_idle, timeouts_frame, read_errors, write_errors,
    backpressure_stalls, dispatch_shed, reply_drops, forced_closes
}

#[derive(Default)]
struct ConnStats {
    opened: AtomicU64,
    closed: AtomicU64,
    active: AtomicI64,
    rejected_capacity: AtomicU64,
    rejected_draining: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    malformed: AtomicU64,
    too_large: AtomicU64,
    timeouts_idle: AtomicU64,
    timeouts_frame: AtomicU64,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    backpressure_stalls: AtomicU64,
    dispatch_shed: AtomicU64,
    reply_drops: AtomicU64,
    forced_closes: AtomicU64,
}

impl ConnStats {
    fn snapshot(&self) -> ConnStatsSnapshot {
        ConnStatsSnapshot {
            opened: self.opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected_capacity: self.rejected_capacity.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            too_large: self.too_large.load(Ordering::Relaxed),
            timeouts_idle: self.timeouts_idle.load(Ordering::Relaxed),
            timeouts_frame: self.timeouts_frame.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            dispatch_shed: self.dispatch_shed.load(Ordering::Relaxed),
            reply_drops: self.reply_drops.load(Ordering::Relaxed),
            forced_closes: self.forced_closes.load(Ordering::Relaxed),
        }
    }
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

struct Shared {
    cfg: ServerConfig,
    state: AtomicU8,
    stats: ConnStats,
    /// Requests admitted to the dispatcher and not yet routed back.
    inflight: AtomicI64,
    /// Master dispatch sender; taken (dropped) at drain so the channel
    /// disconnects once the last connection's clone goes away.
    dispatch: Mutex<Option<SyncSender<WorkItem>>>,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Release);
    }
}

struct WorkItem {
    req: WireRequest,
    received: Instant,
    origin: Origin,
}

/// What stays with the dispatcher when a request moves on to the backend:
/// its id, where its reply goes and whose inflight count it holds.
struct Origin {
    id: u64,
    reply: SyncSender<WireResponse>,
    conn_inflight: Arc<AtomicI64>,
}

/// A writer stops adding replies to a burst once it is this long; what is
/// left in the channel goes out with the next write.
const MAX_BURST_BYTES: usize = 16 * 1024;

/// RAII guard for one admitted connection: increments `active` on
/// creation, decrements (and counts `closed`) on drop — whatever path
/// the connection thread exits by, the books balance.
struct ConnGuard {
    shared: Arc<Shared>,
}

impl ConnGuard {
    fn new(shared: Arc<Shared>) -> ConnGuard {
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        shared.stats.opened.fetch_add(1, Ordering::Relaxed);
        odt_obs::counter("net.conns.opened").inc();
        ConnGuard { shared }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        self.shared.stats.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server; dropping it without [`ServerHandle::drain`] leaves
/// the threads running (the process owns them — a server binary drains
/// on its shutdown signal instead).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

/// What [`ServerHandle::drain`] observed.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Every admitted request flushed and every connection closed within
    /// the budget.
    pub clean: bool,
    /// Connections force-closed after the budget lapsed.
    pub forced_conns: i64,
    /// Wall time the drain took, ms.
    pub wait_ms: u64,
    /// Final counters (leak check: `stats.active == 0`).
    pub stats: ConnStatsSnapshot,
    /// Flight-recorder dump path, when a force-stop triggered one.
    pub flightrec_dump: Option<String>,
}

// `stats` renders beside it as `conns`, wherever a drain is reported.
odt_obs::fields_to_json! {
    DrainReport: clean, forced_conns, wait_ms, flightrec_dump
}

/// Start a server: binds, spawns acceptors and the dispatcher, returns
/// immediately. The backend must be `Send` to move onto the dispatcher
/// thread; for backends that are not (the DOT model's tensors are
/// `Rc`-based), use [`start_with`].
pub fn start<B: NetBackend + Send + 'static>(
    cfg: ServerConfig,
    backend: B,
) -> io::Result<ServerHandle> {
    start_with(cfg, move || backend)
}

/// [`start`], but the backend is *constructed on the dispatcher thread*
/// by `make_backend`. Only the factory closure crosses threads, so the
/// backend itself need not be `Send` — this is how a trained DOT oracle
/// (whose parameters are `Rc`-based and thread-local) gets behind the
/// network boundary. The acceptors start immediately; requests arriving
/// while the factory is still running (e.g. training a model) wait in
/// the bounded dispatch queue.
pub fn start_with<B, F>(cfg: ServerConfig, make_backend: F) -> io::Result<ServerHandle>
where
    B: NetBackend + 'static,
    F: FnOnce() -> B + Send + 'static,
{
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let (tx, rx) = mpsc::sync_channel::<WorkItem>(cfg.dispatch_depth.max(1));
    let shared = Arc::new(Shared {
        cfg: cfg.clone(),
        state: AtomicU8::new(RUNNING),
        stats: ConnStats::default(),
        inflight: AtomicI64::new(0),
        dispatch: Mutex::new(Some(tx)),
    });

    let dispatcher = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("odt-net-dispatch".to_string())
            .spawn(move || dispatcher_main(make_backend(), rx, shared))
            .map_err(io::Error::other)?
    };

    let mut acceptors = Vec::new();
    for i in 0..cfg.acceptor_threads.max(1) {
        let listener = listener.try_clone()?;
        let shared = Arc::clone(&shared);
        acceptors.push(
            thread::Builder::new()
                .name(format!("odt-net-accept-{i}"))
                .spawn(move || acceptor_main(listener, shared))
                .map_err(io::Error::other)?,
        );
    }

    event(Level::Info, "net.server.start")
        .field("addr", addr.to_string())
        .field("acceptors", cfg.acceptor_threads.max(1) as u64)
        .emit();

    Ok(ServerHandle {
        addr,
        shared,
        acceptors,
        dispatcher: Some(dispatcher),
    })
}

/// A cloneable, read-only view of a running server's counters and state,
/// detached from the [`ServerHandle`]'s lifetime. The admin plane's
/// `/varz` closure holds one of these: [`ServerHandle::drain`] consumes
/// the handle, but the introspection plane must keep answering through
/// the drain.
#[derive(Clone)]
pub struct ServerStatsHandle {
    shared: Arc<Shared>,
}

impl ServerStatsHandle {
    /// Live connection/frame counters.
    pub fn stats(&self) -> ConnStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Requests admitted to the dispatcher and not yet answered.
    pub fn inflight(&self) -> i64 {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Lifecycle state as a stable string: `running`, `draining` or
    /// `stopped`.
    pub fn state_name(&self) -> &'static str {
        match self.shared.state() {
            RUNNING => "running",
            DRAINING => "draining",
            _ => "stopped",
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> ConnStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A counters/state view that outlives this handle (survives
    /// [`ServerHandle::drain`] — see [`ServerStatsHandle`]).
    pub fn stats_handle(&self) -> ServerStatsHandle {
        ServerStatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Requests admitted to the dispatcher and not yet answered.
    pub fn inflight(&self) -> i64 {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop admitting, flush in-flight within the
    /// configured budget, force-stop whatever remains. Consumes the
    /// handle; the listener closes when the last acceptor exits.
    pub fn drain(mut self) -> DrainReport {
        let t0 = Instant::now();
        let budget = Duration::from_millis(self.shared.cfg.drain_budget_ms);
        self.shared.set_state(DRAINING);
        event(Level::Info, "net.server.drain")
            .field("budget_ms", self.shared.cfg.drain_budget_ms)
            .emit();
        // Drop the master dispatch sender: the channel disconnects once
        // the last connection's clone is gone, which is what lets the
        // dispatcher exit after flushing everything already admitted.
        *self.shared.dispatch.lock().unwrap() = None;

        let mut clean = true;
        loop {
            let active = self.shared.stats.active.load(Ordering::Relaxed);
            let inflight = self.shared.inflight.load(Ordering::Relaxed);
            if active <= 0 && inflight <= 0 {
                break;
            }
            if t0.elapsed() > budget {
                clean = false;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }

        let forced_conns = self.shared.stats.active.load(Ordering::Relaxed).max(0);
        if forced_conns > 0 {
            self.shared
                .stats
                .forced_closes
                .fetch_add(forced_conns as u64, Ordering::Relaxed);
        }
        self.shared.set_state(STOPPED);

        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        // Give force-closed connection threads a bounded grace window to
        // notice STOPPED (their read/write timeouts bound how long that
        // takes) so `active` reflects reality in the report.
        let grace = Duration::from_millis(
            2 * (self.shared.cfg.read_timeout_ms + self.shared.cfg.write_timeout_ms) + 500,
        );
        let g0 = Instant::now();
        while self.shared.stats.active.load(Ordering::Relaxed) > 0 && g0.elapsed() < grace {
            thread::sleep(Duration::from_millis(2));
        }

        let flightrec_dump = if clean {
            None
        } else {
            odt_obs::flightrec::trigger("net_drain_forced").map(|p| p.display().to_string())
        };
        let stats = self.shared.stats.snapshot();
        event(Level::Info, "net.server.drained")
            .field("clean", clean)
            .field("forced_conns", forced_conns as u64)
            .field("wait_ms", t0.elapsed().as_millis() as u64)
            .emit();
        DrainReport {
            clean,
            forced_conns,
            wait_ms: t0.elapsed().as_millis() as u64,
            stats,
            flightrec_dump,
        }
    }
}

fn acceptor_main(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.state() == STOPPED {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, &shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Best-effort typed refusal on a connection that never gets a thread.
fn refuse(mut stream: TcpStream, code: WireErrorCode, detail: &str) {
    let _ = tune_stream(&stream);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut frame = Vec::new();
    WireResponse::error(0, code, detail).encode_frame_into(&mut frame);
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

fn admit(stream: TcpStream, shared: &Arc<Shared>) {
    if shared.state() != RUNNING {
        shared
            .stats
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        refuse(stream, WireErrorCode::ServerDraining, "server is draining");
        return;
    }
    // Optimistic reserve-then-check keeps the cap exact under racing
    // acceptors without a lock.
    let cur = shared.stats.active.fetch_add(1, Ordering::Relaxed) + 1;
    if cur > shared.cfg.max_connections as i64 {
        shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        shared
            .stats
            .rejected_capacity
            .fetch_add(1, Ordering::Relaxed);
        refuse(
            stream,
            WireErrorCode::OverCapacity,
            &format!("connection cap {} reached", shared.cfg.max_connections),
        );
        return;
    }
    // Hand the reservation to the RAII guard (undo the optimistic add —
    // the guard re-adds and also counts `opened`).
    shared.stats.active.fetch_sub(1, Ordering::Relaxed);
    let dispatch = shared.dispatch.lock().unwrap().clone();
    let Some(dispatch) = dispatch else {
        shared
            .stats
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        refuse(stream, WireErrorCode::ServerDraining, "server is draining");
        return;
    };
    let guard = ConnGuard::new(Arc::clone(shared));
    let shared2 = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("odt-net-conn".to_string())
        .spawn(move || conn_main(stream, shared2, guard, dispatch));
    if spawned.is_err() {
        // Guard moved into the closure that never ran? No: on spawn
        // failure the closure (owning guard + stream) is returned inside
        // the error and dropped here — the guard still balances.
        shared.stats.read_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn conn_main(
    stream: TcpStream,
    shared: Arc<Shared>,
    guard: ConnGuard,
    dispatch: SyncSender<WorkItem>,
) {
    let _guard = guard;
    let cfg = &shared.cfg;
    // A connection still answers if the option is refused, only slower.
    let _ = tune_stream(&stream);
    if stream
        .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))
        .is_err()
    {
        return;
    }
    let Ok(wstream) = stream.try_clone() else {
        return;
    };
    let _ = wstream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));

    let inflight = Arc::new(AtomicI64::new(0));
    let dead = Arc::new(AtomicBool::new(false));
    let (reply_tx, reply_rx) =
        mpsc::sync_channel::<WireResponse>(cfg.max_inflight_per_conn.max(1) + 4);

    let writer = {
        let shared = Arc::clone(&shared);
        let dead = Arc::clone(&dead);
        thread::Builder::new()
            .name("odt-net-write".to_string())
            .spawn(move || writer_main(wstream, reply_rx, shared, dead))
    };
    let Ok(writer) = writer else {
        return;
    };

    reader_loop(&stream, &shared, &dispatch, &reply_tx, &inflight, &dead);

    // Reader is done: stop feeding the dispatcher, release our reply
    // sender, and wait for the writer to flush whatever the dispatcher
    // still owes this connection (its WorkItems hold reply-sender
    // clones; the writer exits when the last one drops).
    drop(dispatch);
    drop(reply_tx);
    let _ = stream.shutdown(Shutdown::Read);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Write replies as they arrive, a burst at a time: after the blocking
/// `recv` everything already queued is encoded behind the first reply and
/// the lot goes out in one `write`. With `TCP_NODELAY` on, that write is
/// the only batching a pipelining client gets.
fn writer_main(
    mut stream: TcpStream,
    rx: Receiver<WireResponse>,
    shared: Arc<Shared>,
    dead: Arc<AtomicBool>,
) {
    let mut burst: Vec<u8> = Vec::with_capacity(4096);
    while let Ok(first) = rx.recv() {
        burst.clear();
        first.encode_frame_into(&mut burst);
        let mut frames = 1u64;
        while burst.len() < MAX_BURST_BYTES {
            let Ok(next) = rx.try_recv() else { break };
            next.encode_frame_into(&mut burst);
            frames += 1;
        }
        if dead.load(Ordering::Relaxed) || shared.state() == STOPPED {
            // Connection is unusable (or the server force-stopped):
            // drain the channel so senders never block, write nothing.
            shared
                .stats
                .reply_drops
                .fetch_add(frames, Ordering::Relaxed);
            continue;
        }
        match stream.write_all(&burst) {
            Ok(()) => {
                shared.stats.frames_out.fetch_add(frames, Ordering::Relaxed);
            }
            Err(_) => {
                shared.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .reply_drops
                    .fetch_add(frames - 1, Ordering::Relaxed);
                dead.store(true, Ordering::Relaxed);
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn reader_loop(
    mut stream: &TcpStream,
    shared: &Arc<Shared>,
    dispatch: &SyncSender<WorkItem>,
    reply_tx: &SyncSender<WireResponse>,
    inflight: &Arc<AtomicI64>,
    dead: &Arc<AtomicBool>,
) {
    let cfg = &shared.cfg;
    let frame_deadline = Duration::from_millis(cfg.frame_deadline_ms.max(1));
    let idle_timeout = Duration::from_millis(cfg.idle_timeout_ms.max(1));
    let max_inflight = cfg.max_inflight_per_conn.max(1) as i64;

    // Bytes read and not yet consumed are `acc[head..]`; frames are parsed
    // where they lie and the consumed prefix is dropped once per read.
    let mut acc: Vec<u8> = Vec::with_capacity(4096);
    let mut head = 0usize;
    let mut frame_started: Option<Instant> = None;
    let mut last_activity = Instant::now();
    let mut stalled = false;
    let mut chunk = [0u8; 4096];

    // Best-effort typed reply straight from the reader (protocol errors
    // that never reach the backend).
    let reader_error = |id: u64, code: WireErrorCode, detail: String| {
        if reply_tx
            .try_send(WireResponse::Err { id, code, detail })
            .is_err()
        {
            shared.stats.reply_drops.fetch_add(1, Ordering::Relaxed);
        }
    };

    loop {
        match shared.state() {
            RUNNING => {}
            // Draining: stop consuming; in-flight answers still flush
            // through the writer after we return. Stopped: bail.
            _ => return,
        }
        if dead.load(Ordering::Relaxed) {
            return;
        }

        // Process buffered complete frames first, stopping at the
        // inflight cap — unprocessed bytes stay in `acc` and, once the
        // kernel buffers fill behind them, the client feels real TCP
        // backpressure.
        loop {
            if inflight.load(Ordering::Relaxed) >= max_inflight {
                break;
            }
            let Some((header, rest)) = acc[head..].split_first_chunk::<FRAME_HEADER_BYTES>() else {
                break;
            };
            let declared = u32::from_be_bytes(*header) as usize;
            if declared > cfg.max_frame_bytes {
                shared.stats.too_large.fetch_add(1, Ordering::Relaxed);
                reader_error(
                    0,
                    WireErrorCode::FrameTooLarge,
                    format!(
                        "frame of {declared} bytes exceeds cap {}",
                        cfg.max_frame_bytes
                    ),
                );
                return; // cannot resync; close
            }
            let Some(payload) = rest.get(..declared) else {
                break;
            };
            head += FRAME_HEADER_BYTES + declared;
            frame_started = if head == acc.len() {
                None
            } else {
                Some(Instant::now())
            };
            shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
            if !handle_payload(payload, shared, dispatch, reply_tx, inflight, &reader_error) {
                return;
            }
        }
        acc.drain(..head);
        head = 0;

        if inflight.load(Ordering::Relaxed) >= max_inflight {
            if !stalled {
                stalled = true;
                shared
                    .stats
                    .backpressure_stalls
                    .fetch_add(1, Ordering::Relaxed);
            }
            // The stall is the server's own doing — don't let it count
            // against the client's slow-frame deadline.
            if frame_started.is_some() {
                frame_started = Some(Instant::now());
            }
            last_activity = Instant::now();
            thread::sleep(Duration::from_micros(500));
            continue;
        }
        stalled = false;

        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                let now = Instant::now();
                last_activity = now;
                if frame_started.is_none() {
                    frame_started = Some(now);
                }
                acc.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Timeout tick: enforce the slow-frame and idle limits.
                if let Some(t0) = frame_started {
                    if t0.elapsed() > frame_deadline {
                        shared.stats.timeouts_frame.fetch_add(1, Ordering::Relaxed);
                        event(Level::Warn, "net.conn.slow_frame")
                            .field("partial_bytes", acc.len() as u64)
                            .emit();
                        return;
                    }
                }
                if last_activity.elapsed() > idle_timeout {
                    shared.stats.timeouts_idle.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                shared.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Parse and dispatch one payload. Returns `false` when the connection
/// must close.
fn handle_payload(
    payload: &[u8],
    shared: &Arc<Shared>,
    dispatch: &SyncSender<WorkItem>,
    reply_tx: &SyncSender<WireResponse>,
    inflight: &Arc<AtomicI64>,
    reader_error: &impl Fn(u64, WireErrorCode, String),
) -> bool {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
            reader_error(
                0,
                WireErrorCode::MalformedFrame,
                "payload is not UTF-8".to_string(),
            );
            return true; // frame boundary intact; keep the connection
        }
    };
    let req = match WireRequest::from_json(text) {
        Ok(r) => r,
        Err((id, detail)) => {
            shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
            reader_error(id, WireErrorCode::MalformedFrame, detail);
            return true;
        }
    };
    let id = req.id;
    inflight.fetch_add(1, Ordering::Relaxed);
    shared.inflight.fetch_add(1, Ordering::Relaxed);
    let item = WorkItem {
        req,
        received: Instant::now(),
        origin: Origin {
            id,
            reply: reply_tx.clone(),
            conn_inflight: Arc::clone(inflight),
        },
    };
    match dispatch.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            inflight.fetch_sub(1, Ordering::Relaxed);
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            shared.stats.dispatch_shed.fetch_add(1, Ordering::Relaxed);
            reader_error(
                id,
                WireErrorCode::Backpressure,
                format!("dispatch queue at depth {}", shared.cfg.dispatch_depth),
            );
            true
        }
        Err(TrySendError::Disconnected(_)) => {
            inflight.fetch_sub(1, Ordering::Relaxed);
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            reader_error(
                id,
                WireErrorCode::ServerDraining,
                "server is draining".to_string(),
            );
            false
        }
    }
}

fn dispatcher_main<B: NetBackend>(mut backend: B, rx: Receiver<WorkItem>, shared: Arc<Shared>) {
    let max_batch = shared.cfg.max_batch.max(1);
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => {
                if shared.state() == STOPPED {
                    break;
                }
                backend.on_tick();
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut items = vec![first];
        while items.len() < max_batch {
            match rx.try_recv() {
                Ok(item) => items.push(item),
                Err(_) => break,
            }
        }
        let (batch, origins): (Vec<NetRequest>, Vec<Origin>) = items
            .into_iter()
            .map(|it| {
                let age_us = it.received.elapsed().as_micros() as u64;
                let req = it.req;
                (NetRequest { req, age_us }, it.origin)
            })
            .unzip();
        let replies = backend.process(batch);
        let mut answered = vec![false; origins.len()];
        for (idx, resp) in replies {
            if idx >= origins.len() || answered[idx] {
                continue; // backend bug guard: never double-answer
            }
            answered[idx] = true;
            if origins[idx].reply.try_send(resp).is_err() {
                shared.stats.reply_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (done, origin) in answered.iter().zip(&origins) {
            if !done
                && origin
                    .reply
                    .try_send(WireResponse::error(
                        origin.id,
                        WireErrorCode::Internal,
                        "backend returned no reply",
                    ))
                    .is_err()
            {
                shared.stats.reply_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        for origin in origins {
            origin.conn_inflight.fetch_sub(1, Ordering::Relaxed);
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        backend.on_tick();
    }
    // Force-stop path: the queue may still hold items whose counters
    // must balance (graceful drain never reaches here with a non-empty
    // queue — disconnection implies empty).
    while let Ok(item) = rx.try_recv() {
        item.origin.conn_inflight.fetch_sub(1, Ordering::Relaxed);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A model-free backend for loopback tests and loadgen self-checks:
/// answers with a deterministic pseudo travel time derived from the
/// coordinates, after an optional artificial service delay.
pub struct EchoBackend {
    /// Artificial per-batch-item service delay.
    pub delay: Duration,
}

impl EchoBackend {
    /// An echo backend with no artificial delay.
    pub fn instant() -> EchoBackend {
        EchoBackend {
            delay: Duration::ZERO,
        }
    }

    /// The deterministic pseudo estimate (Manhattan degrees at ~11.1 km
    /// per 0.1°, traversed at 10 m/s).
    pub fn estimate_seconds(q: &crate::wire::WireQuery) -> f64 {
        let deg = (q.d_lng - q.o_lng).abs() + (q.d_lat - q.o_lat).abs();
        let meters = deg * 111_000.0;
        meters / 10.0
    }
}

impl NetBackend for EchoBackend {
    fn process(&mut self, batch: Vec<NetRequest>) -> Vec<(usize, WireResponse)> {
        batch
            .iter()
            .enumerate()
            .map(|(idx, nr)| {
                if !self.delay.is_zero() {
                    thread::sleep(self.delay);
                }
                let seconds = EchoBackend::estimate_seconds(&nr.req.query);
                if !seconds.is_finite() {
                    return (
                        idx,
                        WireResponse::error(
                            nr.req.id,
                            WireErrorCode::InvalidQuery,
                            "non-finite coordinates",
                        ),
                    );
                }
                (
                    idx,
                    WireResponse::Ok {
                        id: nr.req.id,
                        seconds,
                        rung: "echo".to_string(),
                        queue_wait_us: nr.age_us,
                        service_us: self.delay.as_micros() as u64,
                        deadline_met: true,
                        trace: nr.req.trace,
                        served_by: Some(instance_name().to_string()),
                    },
                )
            })
            .collect()
    }
}

/// One registered idle-tick consumer: a named closure with its own
/// minimum re-run interval, so independent background jobs (shadow
/// scorer, cache prewarmer, drift watcher) share the dispatcher's tick
/// without stepping on each other's cadence.
struct TickConsumer {
    name: &'static str,
    min_interval: Duration,
    last_run: Option<Instant>,
    run: Box<dyn FnMut()>,
}

/// Bridge a [`odt_serve::ServeFrontend`] into the network boundary:
/// submits each batch through admission (propagating wire deadlines,
/// minus boundary age, that age itself and trace ids), drains, and maps
/// frontend responses back to wire responses.
pub struct FrontendBridge<E: odt_serve::RungExecutor, F> {
    fe: odt_serve::ServeFrontend<E>,
    make_query: F,
    adopted_traces: u64,
    shared: Option<SharedFrontendStats>,
    /// Idle-tick work (shadow quality scoring, cache prewarming, drift
    /// watching); runs on the dispatcher thread via
    /// [`NetBackend::on_tick`], so consumers may capture `!Send` state as
    /// long as the bridge is built on that thread ([`start_with`]).
    ticks: Vec<TickConsumer>,
}

/// Live frontend counters published out of the dispatcher thread.
///
/// [`start`] moves the backend into the dispatcher, so once a server is
/// running its [`FrontendBridge`] can no longer be inspected directly.
/// Callers that need end-of-run frontend numbers (the server binary's
/// final report, the chaos drills) take this handle *before* handing the
/// bridge to [`start`]; the bridge refreshes it after every batch.
#[derive(Clone)]
pub struct SharedFrontendStats(Arc<Mutex<(odt_serve::FrontendSnapshot, u64)>>);

impl SharedFrontendStats {
    /// The latest published `(frontend snapshot, adopted trace count)`.
    pub fn get(&self) -> (odt_serve::FrontendSnapshot, u64) {
        self.0.lock().unwrap().clone()
    }
}

impl<E, F> FrontendBridge<E, F>
where
    E: odt_serve::RungExecutor,
    F: FnMut(&crate::wire::WireQuery) -> E::Query,
{
    /// Wrap a frontend; `make_query` converts wire coordinates into the
    /// executor's query type.
    pub fn new(fe: odt_serve::ServeFrontend<E>, make_query: F) -> Self {
        FrontendBridge {
            fe,
            make_query,
            adopted_traces: 0,
            shared: None,
            ticks: Vec::new(),
        }
    }

    /// Register a named idle-tick consumer (see [`NetBackend::on_tick`]):
    /// the server binary hangs its shadow quality scorer, cache prewarmer
    /// and drift watcher here. Each consumer re-runs at most once per
    /// `min_interval_us` (0 = every tick); multiple consumers multiplex
    /// over the single dispatcher tick in registration order. Closures run
    /// on whatever thread owns the bridge — construct the bridge (and the
    /// closures' captures) inside the [`start_with`] factory and nothing
    /// needs `Send`.
    pub fn add_tick(
        &mut self,
        name: &'static str,
        min_interval_us: u64,
        run: impl FnMut() + 'static,
    ) {
        self.ticks.push(TickConsumer {
            name,
            min_interval: Duration::from_micros(min_interval_us),
            last_run: None,
            run: Box::new(run),
        });
    }

    /// Names of the registered idle-tick consumers, in run order.
    pub fn tick_consumers(&self) -> Vec<&'static str> {
        self.ticks.iter().map(|t| t.name).collect()
    }

    /// A handle this bridge will refresh after every processed batch;
    /// survives the bridge moving into a running server.
    pub fn shared_stats(&mut self) -> SharedFrontendStats {
        self.shared
            .get_or_insert_with(|| {
                SharedFrontendStats(Arc::new(Mutex::new((self.fe.snapshot(), 0))))
            })
            .clone()
    }

    /// The wrapped frontend's counters.
    pub fn snapshot(&self) -> odt_serve::FrontendSnapshot {
        self.fe.snapshot()
    }

    /// Requests whose wire trace id the server adopted.
    pub fn adopted_traces(&self) -> u64 {
        self.adopted_traces
    }

    /// The wrapped frontend, for drill assertions.
    pub fn frontend(&self) -> &odt_serve::ServeFrontend<E> {
        &self.fe
    }
}

fn shed_to_wire(wire_id: u64, reason: &odt_serve::ShedReason, detail: &str) -> WireResponse {
    WireResponse::error(
        wire_id,
        WireErrorCode::from_shed_name(reason.name()),
        detail,
    )
}

impl<E, F> NetBackend for FrontendBridge<E, F>
where
    E: odt_serve::RungExecutor,
    F: FnMut(&crate::wire::WireQuery) -> E::Query,
{
    fn process(&mut self, batch: Vec<NetRequest>) -> Vec<(usize, WireResponse)> {
        let mut out = Vec::with_capacity(batch.len());
        // Frontend id → (batch index, wire id, adopted trace).
        let mut pending: HashMap<u64, (usize, u64, Option<odt_obs::TraceId>)> = HashMap::new();
        for (idx, nr) in batch.iter().enumerate() {
            let budget_us = nr
                .req
                .deadline_ms
                .map(|ms| ms.saturating_mul(1_000).saturating_sub(nr.age_us));
            let trace = nr.req.trace;
            let parent = nr.req.parent_span.unwrap_or(0);
            let query = (self.make_query)(&nr.req.query);
            match self
                .fe
                .submit_traced(query, budget_us, nr.age_us, trace, parent)
            {
                Ok(fid) => {
                    if trace.is_some() {
                        self.adopted_traces += 1;
                    }
                    pending.insert(fid, (idx, nr.req.id, trace));
                }
                Err(odt_serve::Response::Shed { reason, detail, .. }) => {
                    out.push((idx, shed_to_wire(nr.req.id, &reason, &detail)));
                }
                Err(_) => {
                    out.push((
                        idx,
                        WireResponse::error(nr.req.id, WireErrorCode::Internal, "unexpected"),
                    ));
                }
            }
        }
        for resp in self.fe.drain() {
            let Some((idx, wire_id, trace)) = pending.remove(&resp.id()) else {
                continue;
            };
            let wr = match resp {
                odt_serve::Response::Served {
                    seconds,
                    rung,
                    queue_wait_us,
                    service_us,
                    deadline_met,
                    ..
                } => WireResponse::Ok {
                    id: wire_id,
                    seconds,
                    rung: rung.name().to_string(),
                    queue_wait_us,
                    service_us,
                    deadline_met,
                    trace,
                    served_by: Some(instance_name().to_string()),
                },
                odt_serve::Response::Shed { reason, detail, .. } => {
                    shed_to_wire(wire_id, &reason, &detail)
                }
            };
            out.push((idx, wr));
        }
        // Anything still pending got no frontend response (should not
        // happen — drain answers everything admitted).
        for (_, (idx, wire_id, _)) in pending {
            out.push((
                idx,
                WireResponse::error(wire_id, WireErrorCode::Internal, "lost in frontend"),
            ));
        }
        if let Some(shared) = &self.shared {
            *shared.0.lock().unwrap() = (self.fe.snapshot(), self.adopted_traces);
        }
        out
    }

    fn on_tick(&mut self) {
        let now = Instant::now();
        for c in &mut self.ticks {
            let due = match c.last_run {
                None => true,
                Some(t) => now.duration_since(t) >= c.min_interval,
            };
            if due {
                c.last_run = Some(now);
                (c.run)();
            }
        }
        // Refresh published stats on idle ticks too, so `/varz` reflects
        // breaker half-open transitions and SLO window decay even when no
        // traffic flows.
        if let Some(shared) = &self.shared {
            *shared.0.lock().unwrap() = (self.fe.snapshot(), self.adopted_traces);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{write_frame, Client, WireQuery};

    fn test_cfg() -> ServerConfig {
        ServerConfig {
            acceptor_threads: 1,
            max_connections: 8,
            read_timeout_ms: 5,
            frame_deadline_ms: 150,
            idle_timeout_ms: 60_000,
            write_timeout_ms: 500,
            drain_budget_ms: 3_000,
            ..ServerConfig::default()
        }
    }

    fn q(o_lng: f64) -> WireQuery {
        WireQuery {
            o_lng,
            o_lat: 39.9,
            d_lng: o_lng + 0.1,
            d_lat: 40.0,
            t_dep: 28_800.0,
        }
    }

    const DEADLINE: Duration = Duration::from_secs(5);

    fn connect(addr: SocketAddr) -> Client {
        let mut c = Client::new(addr.to_string(), DEADLINE, DEFAULT_MAX_FRAME_BYTES);
        c.connect(Duration::ZERO).expect("connect");
        c
    }

    fn plain_req(id: u64) -> WireRequest {
        WireRequest {
            id,
            query: q(116.0),
            deadline_ms: None,
            trace: None,
            parent_span: None,
        }
    }

    fn send_req(c: &mut Client, req: &WireRequest) {
        c.send(req, DEADLINE).expect("write");
    }

    fn recv_resp(c: &mut Client) -> WireResponse {
        c.recv(Instant::now() + DEADLINE).expect("reply")
    }

    /// The error a connection the server closed (or never answers) reads.
    fn recv_closed(c: &mut Client) -> io::Error {
        c.recv(Instant::now() + DEADLINE)
            .expect_err("no reply expected")
    }

    #[test]
    fn round_trips_pipelined_requests_and_drains_clean() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        for i in 1..=5u64 {
            send_req(
                &mut s,
                &WireRequest {
                    id: i,
                    query: q(116.0 + i as f64),
                    deadline_ms: Some(1_000),
                    trace: odt_obs::TraceId::from_raw(0xabc0 + i),
                    parent_span: None,
                },
            );
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5 {
            match recv_resp(&mut s) {
                WireResponse::Ok {
                    id, seconds, trace, ..
                } => {
                    assert!(seconds > 0.0);
                    // The echo backend reflects the adopted trace id.
                    assert_eq!(trace, odt_obs::TraceId::from_raw(0xabc0 + id));
                    seen.insert(id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 5);
        drop(s);
        let report = h.drain();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.stats.active, 0, "leaked connections: {report:?}");
        assert_eq!(report.stats.frames_in, 5);
        assert_eq!(report.stats.frames_out, 5);
    }

    #[test]
    fn sequential_round_trips_never_wait_for_a_kernel_timer() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        let mut rtts: Vec<Duration> = (1..=200u64)
            .map(|id| {
                let t0 = Instant::now();
                send_req(&mut s, &plain_req(id));
                assert_eq!(recv_resp(&mut s).id(), id);
                t0.elapsed()
            })
            .collect();
        rtts.sort();
        // A reply split over two writes to a Nagle socket waits for the
        // client's delayed ACK: 40 ms per round trip, every round trip.
        let median = rtts[rtts.len() / 2];
        assert!(median < Duration::from_millis(5), "median {median:?}");
        drop(s);
        assert_eq!(h.drain().stats.frames_out, 200);
    }

    #[test]
    fn a_pipelined_burst_is_answered_in_order_frame_for_frame() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        // One write, so the 32 requests reach the server together and its
        // replies queue up behind each other for the writer to coalesce.
        let mut burst = Vec::new();
        for id in 1..=32u64 {
            plain_req(id).encode_frame_into(&mut burst);
        }
        s.stream().unwrap().write_all(&burst).unwrap();
        for id in 1..=32u64 {
            match recv_resp(&mut s) {
                WireResponse::Ok { id: got, .. } => assert_eq!(got, id),
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(s);
        let report = h.drain();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.stats.frames_in, 32);
        assert_eq!(report.stats.frames_out, 32);
        assert_eq!(report.stats.reply_drops, 0);
    }

    #[test]
    fn frames_parse_however_the_bytes_are_cut_into_reads() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        // Longer than the server's 5 ms read tick, so each piece is a read
        // of its own.
        let gap = Duration::from_millis(15);
        let mut frame = Vec::new();
        plain_req(1).encode_frame_into(&mut frame);
        // Header in 2 + 2 bytes, payload in two pieces.
        let mid = FRAME_HEADER_BYTES + (frame.len() - FRAME_HEADER_BYTES) / 2;
        for piece in [&frame[..2], &frame[2..4], &frame[4..mid], &frame[mid..]] {
            s.stream().unwrap().write_all(piece).unwrap();
            thread::sleep(gap);
        }
        assert_eq!(recv_resp(&mut s).id(), 1);
        // Two frames and the head of a third in one read; its tail later.
        let mut three = Vec::new();
        for id in 2..=4u64 {
            plain_req(id).encode_frame_into(&mut three);
        }
        let cut = three.len() - 7;
        s.stream().unwrap().write_all(&three[..cut]).unwrap();
        assert_eq!(recv_resp(&mut s).id(), 2);
        assert_eq!(recv_resp(&mut s).id(), 3);
        thread::sleep(gap);
        s.stream().unwrap().write_all(&three[cut..]).unwrap();
        assert_eq!(recv_resp(&mut s).id(), 4);
        drop(s);
        let report = h.drain();
        assert_eq!(report.stats.frames_in, 4);
        assert_eq!(report.stats.malformed, 0);
        assert_eq!(report.stats.timeouts_frame, 0);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn oversized_frames_get_a_typed_error_and_a_close() {
        let mut cfg = test_cfg();
        cfg.max_frame_bytes = 256;
        let h = start(cfg, EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        // Declare a 1 MiB frame; never send the payload.
        s.stream()
            .unwrap()
            .write_all(&(1_048_576u32).to_be_bytes())
            .unwrap();
        match recv_resp(&mut s) {
            WireResponse::Err { code, .. } => assert_eq!(code, WireErrorCode::FrameTooLarge),
            other => panic!("unexpected {other:?}"),
        }
        let err = recv_closed(&mut s);
        assert_ne!(
            err.kind(),
            io::ErrorKind::TimedOut,
            "no close after the refusal"
        );
        let report = h.drain();
        assert_eq!(report.stats.too_large, 1);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn malformed_payloads_error_but_keep_the_connection() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        write_frame(s.stream().unwrap(), "this is not json").unwrap();
        match recv_resp(&mut s) {
            WireResponse::Err { code, .. } => assert_eq!(code, WireErrorCode::MalformedFrame),
            other => panic!("unexpected {other:?}"),
        }
        // The connection survives: a valid request still round-trips.
        send_req(
            &mut s,
            &WireRequest {
                id: 9,
                query: q(116.0),
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        match recv_resp(&mut s) {
            WireResponse::Ok { id, .. } => assert_eq!(id, 9),
            other => panic!("unexpected {other:?}"),
        }
        drop(s);
        let report = h.drain();
        assert_eq!(report.stats.malformed, 1);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn connection_cap_rejects_with_over_capacity() {
        let mut cfg = test_cfg();
        cfg.max_connections = 1;
        let h = start(cfg, EchoBackend::instant()).unwrap();
        let mut s1 = connect(h.addr());
        // Prove s1 is fully admitted before racing a second connect.
        send_req(
            &mut s1,
            &WireRequest {
                id: 1,
                query: q(116.0),
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        let _ = recv_resp(&mut s1);
        let mut s2 = connect(h.addr());
        match recv_resp(&mut s2) {
            WireResponse::Err { code, .. } => assert_eq!(code, WireErrorCode::OverCapacity),
            other => panic!("unexpected {other:?}"),
        }
        drop(s2);
        drop(s1);
        let report = h.drain();
        assert_eq!(report.stats.rejected_capacity, 1);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn slow_partial_frames_are_cut_by_the_frame_deadline() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let mut s = connect(h.addr());
        // First half of a header, then silence.
        s.stream().unwrap().write_all(&[0u8, 0]).unwrap();
        // Frame deadline is 150ms in the test config.
        let t0 = Instant::now();
        let err = recv_closed(&mut s);
        assert_ne!(
            err.kind(),
            io::ErrorKind::TimedOut,
            "server should cut the slow connection"
        );
        assert!(t0.elapsed() < Duration::from_secs(4));
        let report = h.drain();
        assert_eq!(report.stats.timeouts_frame, 1);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn disconnect_mid_request_never_leaks_the_connection() {
        let h = start(
            test_cfg(),
            EchoBackend {
                delay: Duration::from_millis(30),
            },
        )
        .unwrap();
        let mut s = connect(h.addr());
        send_req(
            &mut s,
            &WireRequest {
                id: 1,
                query: q(116.0),
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        // Hang up before the (delayed) reply can be written.
        drop(s);
        let report = h.drain();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.stats.active, 0, "leaked connection: {report:?}");
    }

    #[test]
    fn backpressure_stalls_the_reader_instead_of_buffering() {
        let mut cfg = test_cfg();
        cfg.max_inflight_per_conn = 2;
        let h = start(
            cfg,
            EchoBackend {
                delay: Duration::from_millis(10),
            },
        )
        .unwrap();
        let mut s = connect(h.addr());
        // Pipeline 10 requests without reading a single reply.
        for i in 1..=10u64 {
            send_req(
                &mut s,
                &WireRequest {
                    id: i,
                    query: q(116.0),
                    deadline_ms: None,
                    trace: None,
                    parent_span: None,
                },
            );
        }
        // All replies still arrive (bounded, not dropped).
        let mut got = 0;
        for _ in 0..10 {
            match recv_resp(&mut s) {
                WireResponse::Ok { .. } => got += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, 10);
        drop(s);
        let report = h.drain();
        assert!(
            report.stats.backpressure_stalls >= 1,
            "reader never stalled: {report:?}"
        );
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn drain_under_load_flushes_in_flight_and_refuses_new_connections() {
        let h = start(
            test_cfg(),
            EchoBackend {
                delay: Duration::from_millis(5),
            },
        )
        .unwrap();
        let addr = h.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        // A client hammering the server while we drain it.
        let client = thread::spawn(move || {
            let mut s = connect(addr);
            let mut ok = 0u64;
            let mut draining_seen = false;
            for i in 1..=1_000u64 {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                match s.call(&plain_req(i), DEADLINE) {
                    Ok(WireResponse::Ok { .. }) => ok += 1,
                    Ok(WireResponse::Err { code, .. }) => {
                        if code == WireErrorCode::ServerDraining {
                            draining_seen = true;
                        }
                        break;
                    }
                    Err(_) => break, // server closed on us mid-drain: fine
                }
            }
            (ok, draining_seen)
        });
        // Let some load flow, then drain mid-flight.
        thread::sleep(Duration::from_millis(100));
        let report = h.drain();
        stop.store(true, Ordering::Relaxed);
        let (ok, _draining_seen) = client.join().unwrap();
        assert!(ok > 0, "client never got a reply");
        assert!(report.clean, "drain was forced: {report:?}");
        assert_eq!(report.stats.active, 0, "leaked connections: {report:?}");
        // New connections after drain are refused outright.
        let mut late = Client::new(addr.to_string(), DEADLINE, DEFAULT_MAX_FRAME_BYTES);
        // Connection refused means the listener is closed: equally acceptable.
        if late.connect(Duration::ZERO).is_ok() {
            match late.recv(Instant::now() + Duration::from_millis(500)) {
                Ok(WireResponse::Err { code, .. }) => {
                    assert_eq!(code, WireErrorCode::ServerDraining)
                }
                Ok(other) => panic!("unexpected {other:?}"),
                Err(_) => {}
            }
        }
    }

    /// A trivial executor so the bridge can be exercised without a
    /// trained model: answers with the Manhattan degree-distance.
    struct GridExec;

    impl odt_serve::RungExecutor for GridExec {
        type Query = (f64, f64);

        fn admit(&mut self, q: &(f64, f64)) -> Result<(), String> {
            if q.0.abs() <= 360.0 && q.1.abs() <= 360.0 {
                Ok(())
            } else {
                Err("coordinates out of range".to_string())
            }
        }

        fn execute(&mut self, _rung: odt_serve::Rung, q: &(f64, f64)) -> Result<f64, String> {
            Ok((q.0 + q.1) * 100.0)
        }
    }

    #[test]
    fn frontend_bridge_serves_adopts_traces_and_types_sheds() {
        // The bridge can hold a `!Send` tick closure, so it is built on
        // the dispatcher thread via the factory (exactly how the real
        // model-backed server constructs it).
        let h = start_with(test_cfg(), || {
            let fe = odt_serve::ServeFrontend::new(GridExec, odt_serve::FrontendConfig::default());
            FrontendBridge::new(fe, |wq: &WireQuery| {
                ((wq.d_lng - wq.o_lng).abs(), (wq.d_lat - wq.o_lat).abs())
            })
        })
        .unwrap();
        let mut s = connect(h.addr());
        // A served request with a propagated trace id.
        let trace = odt_obs::TraceId::from_hex("0000000000c0ffee");
        send_req(
            &mut s,
            &WireRequest {
                id: 11,
                query: q(116.0),
                deadline_ms: Some(5_000),
                trace,
                parent_span: Some(0x77),
            },
        );
        match recv_resp(&mut s) {
            WireResponse::Ok {
                id,
                rung,
                trace: t,
                seconds,
                served_by,
                ..
            } => {
                assert_eq!(id, 11);
                assert_eq!(t, trace, "wire trace not propagated");
                assert_eq!(
                    served_by.as_deref(),
                    Some(instance_name()),
                    "replica attribution missing"
                );
                assert!(
                    // GridExec has no cache attached, so the cache rungs
                    // never serve; every model rung name is fair game.
                    ["full_ddpm", "ddim", "ddim_reduced", "fallback"].contains(&rung.as_str()),
                    "unexpected rung {rung}"
                );
                assert!((seconds - 20.0).abs() < 1e-9, "got {seconds}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // An admission-rejected query becomes a typed invalid_query error.
        send_req(
            &mut s,
            &WireRequest {
                id: 12,
                query: WireQuery {
                    o_lng: -999.0,
                    ..q(116.0)
                },
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        match recv_resp(&mut s) {
            WireResponse::Err { id, code, .. } => {
                assert_eq!(id, 12);
                assert_eq!(code, WireErrorCode::InvalidQuery);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(s);
        let report = h.drain();
        assert!(report.clean);
        assert_eq!(report.stats.active, 0);
    }

    #[test]
    fn bridge_queue_wait_runs_from_frame_read_wherever_the_batch_boundary_falls() {
        /// 30 ms per answer, so the third of three back-to-back requests
        /// waits ~60 ms: in the dispatch channel when batches are single
        /// requests, in the frontend's queue when one batch holds all three.
        struct SlowExec;
        impl odt_serve::RungExecutor for SlowExec {
            type Query = ();
            fn execute(&mut self, _rung: odt_serve::Rung, _q: &()) -> Result<f64, String> {
                thread::sleep(Duration::from_millis(30));
                Ok(1.0)
            }
        }
        for max_batch in [1, 64] {
            let cfg = ServerConfig {
                max_batch,
                ..test_cfg()
            };
            let h = start_with(cfg, || {
                let fe =
                    odt_serve::ServeFrontend::new(SlowExec, odt_serve::FrontendConfig::default());
                FrontendBridge::new(fe, |_: &WireQuery| ())
            })
            .unwrap();
            let mut s = connect(h.addr());
            for id in 1..=3 {
                send_req(&mut s, &plain_req(id));
            }
            let waits: Vec<u64> = (1..=3)
                .map(|want| match recv_resp(&mut s) {
                    WireResponse::Ok {
                        id, queue_wait_us, ..
                    } => {
                        assert_eq!(id, want);
                        queue_wait_us
                    }
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert!(waits[2] >= 50_000, "max_batch {max_batch}: {waits:?}");
            drop(s);
            assert!(h.drain().clean);
        }
    }

    #[test]
    fn dispatcher_ticks_the_backend_when_idle_and_after_batches() {
        struct TickBackend {
            echo: EchoBackend,
            ticks: Arc<AtomicU64>,
        }
        impl NetBackend for TickBackend {
            fn process(&mut self, batch: Vec<NetRequest>) -> Vec<(usize, WireResponse)> {
                self.echo.process(batch)
            }
            fn on_tick(&mut self) {
                self.ticks.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ticks = Arc::new(AtomicU64::new(0));
        let h = start(
            test_cfg(),
            TickBackend {
                echo: EchoBackend::instant(),
                ticks: Arc::clone(&ticks),
            },
        )
        .unwrap();
        // Idle ticks accumulate with no traffic at all (20 ms poll).
        thread::sleep(Duration::from_millis(150));
        let idle_ticks = ticks.load(Ordering::Relaxed);
        assert!(idle_ticks >= 2, "only {idle_ticks} idle ticks");
        // A served batch ticks once more on top.
        let mut s = connect(h.addr());
        send_req(
            &mut s,
            &WireRequest {
                id: 1,
                query: q(116.0),
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        let _ = recv_resp(&mut s);
        assert!(ticks.load(Ordering::Relaxed) > idle_ticks);
        drop(s);
        let report = h.drain();
        assert!(report.clean);
    }

    #[test]
    fn stats_handle_tracks_state_across_drain() {
        let h = start(test_cfg(), EchoBackend::instant()).unwrap();
        let sh = h.stats_handle();
        assert_eq!(sh.state_name(), "running");
        let mut s = connect(h.addr());
        send_req(
            &mut s,
            &WireRequest {
                id: 1,
                query: q(116.0),
                deadline_ms: None,
                trace: None,
                parent_span: None,
            },
        );
        let _ = recv_resp(&mut s);
        drop(s);
        let report = h.drain();
        // The detached handle keeps answering after the ServerHandle is
        // consumed — this is what /varz holds through shutdown.
        assert_eq!(sh.state_name(), "stopped");
        assert_eq!(sh.stats().frames_in, report.stats.frames_in);
        assert_eq!(sh.inflight(), 0);
    }

    #[test]
    fn bridge_tick_closure_runs_on_idle() {
        let ticked = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&ticked);
        let (stats_tx, stats_rx) = mpsc::channel();
        let h = start_with(test_cfg(), move || {
            let fe = odt_serve::ServeFrontend::new(GridExec, odt_serve::FrontendConfig::default());
            let mut bridge = FrontendBridge::new(fe, |wq: &WireQuery| {
                ((wq.d_lng - wq.o_lng).abs(), (wq.d_lat - wq.o_lat).abs())
            });
            bridge.add_tick("tick", 0, move || {
                t2.fetch_add(1, Ordering::Relaxed);
            });
            let _ = stats_tx.send(bridge.shared_stats());
            bridge
        })
        .unwrap();
        let stats = stats_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        thread::sleep(Duration::from_millis(120));
        assert!(ticked.load(Ordering::Relaxed) >= 2);
        // Idle ticks also refresh the published frontend snapshot.
        let (snap, _) = stats.get();
        assert_eq!(snap.submitted, 0);
        let _ = h.drain();
    }

    #[test]
    fn bridge_multiplexes_tick_consumers_with_per_consumer_throttles() {
        let fast = Arc::new(AtomicU64::new(0));
        let slow = Arc::new(AtomicU64::new(0));
        let (f2, s2) = (Arc::clone(&fast), Arc::clone(&slow));
        let h = start_with(test_cfg(), move || {
            let fe = odt_serve::ServeFrontend::new(GridExec, odt_serve::FrontendConfig::default());
            let mut bridge = FrontendBridge::new(fe, |wq: &WireQuery| {
                ((wq.d_lng - wq.o_lng).abs(), (wq.d_lat - wq.o_lat).abs())
            });
            // An unthrottled consumer and a heavily throttled one share
            // the dispatcher's tick.
            bridge.add_tick("fast", 0, move || {
                f2.fetch_add(1, Ordering::Relaxed);
            });
            bridge.add_tick("slow", 10_000_000, move || {
                s2.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(bridge.tick_consumers(), vec!["fast", "slow"]);
            bridge
        })
        .unwrap();
        // ~20 ms idle polls: the fast consumer runs many times, the slow
        // one exactly once (its 10 s interval cannot elapse in the test).
        thread::sleep(Duration::from_millis(200));
        let _ = h.drain();
        assert!(fast.load(Ordering::Relaxed) >= 3, "fast consumer starved");
        assert_eq!(slow.load(Ordering::Relaxed), 1, "throttle not honored");
    }

    #[test]
    fn echo_estimate_is_deterministic_and_finite() {
        let a = EchoBackend::estimate_seconds(&q(116.0));
        let b = EchoBackend::estimate_seconds(&q(116.0));
        assert_eq!(a, b);
        assert!(a.is_finite() && a > 0.0);
    }
}
