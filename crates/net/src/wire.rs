//! `odt-wire/v1`: the length-prefixed JSON protocol the TCP frontend
//! speaks.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON — one document per frame, pipelining allowed,
//! responses may arrive out of order (correlate by `id`).
//!
//! Request payload:
//!
//! ```json
//! {"v":"odt-wire/v1","id":7,"o":[116.35,39.92],"d":[116.41,39.99],
//!  "t_dep":28800.0,"deadline_ms":50,"trace":"1f00ab34cd56ef78",
//!  "parent_span":3}
//! ```
//!
//! `deadline_ms` (optional) is a budget from server receipt; `trace`
//! (optional) is a nonzero hex trace id the server *adopts* for the
//! request's root span, so client and server logs join on one id;
//! `parent_span` (optional, only meaningful alongside `trace`) is the
//! caller's span ordinal within that trace — a router forwarding a
//! request sends its own downstream-hop span here, so the shard's span
//! tree can be stitched under the router's (DESIGN.md §15).
//!
//! Success response:
//!
//! ```json
//! {"v":"odt-wire/v1","id":7,"seconds":512.3,"rung":"ddim",
//!  "queue_wait_us":120,"service_us":4800,"deadline_met":true,
//!  "trace":"1f00ab34cd56ef78","served_by":"s1a"}
//! ```
//!
//! `served_by` (optional) names the process instance that computed the
//! answer, so clients behind a router can see per-replica attribution.
//!
//! Error response (typed; codes below):
//!
//! ```json
//! {"v":"odt-wire/v1","id":7,"error":{"code":"queue_full","detail":"queue at capacity 64"}}
//! ```
//!
//! Wire error codes mirror the frontend's shed reasons one-for-one and
//! add the transport-level refusals:
//!
//! | code              | origin                                              |
//! |-------------------|-----------------------------------------------------|
//! | `queue_full`      | admission queue at capacity, request had budget left |
//! | `queue_expired`   | deadline expired while queued                        |
//! | `invalid_query`   | admission check rejected the query                   |
//! | `internal`        | every rung failed (should not happen)                |
//! | `over_capacity`   | global connection cap reached; connection closed     |
//! | `backpressure`    | dispatch queue full at the network boundary          |
//! | `frame_too_large` | length prefix exceeds `max_frame_bytes`; closed      |
//! | `malformed_frame` | payload not valid `odt-wire/v1` JSON                 |
//! | `server_draining` | server is draining; retry against another replica    |

use odt_obs::json::{self, JsonValue};
use odt_obs::TraceId;
use odt_serve::{LngLat, OdtInput};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

/// Protocol identifier carried in every payload's `v` field.
pub const WIRE_SCHEMA: &str = "odt-wire/v1";

/// Length-prefix size (4-byte big-endian payload length).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload (requests are ~200 bytes;
/// anything near this is hostile).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// The OD query as it crosses the wire.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WireQuery {
    /// Origin longitude, degrees.
    pub o_lng: f64,
    /// Origin latitude, degrees.
    pub o_lat: f64,
    /// Destination longitude, degrees.
    pub d_lng: f64,
    /// Destination latitude, degrees.
    pub d_lat: f64,
    /// Departure time, seconds since local midnight.
    pub t_dep: f64,
}

impl From<&WireQuery> for OdtInput {
    fn from(q: &WireQuery) -> OdtInput {
        OdtInput {
            origin: LngLat {
                lng: q.o_lng,
                lat: q.o_lat,
            },
            dest: LngLat {
                lng: q.d_lng,
                lat: q.d_lat,
            },
            t_dep: q.t_dep,
        }
    }
}

/// One parsed `odt-wire/v1` request.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id (echoed verbatim in the response).
    pub id: u64,
    /// The OD query.
    pub query: WireQuery,
    /// Optional deadline budget in milliseconds from server receipt.
    pub deadline_ms: Option<u64>,
    /// Optional client trace id for the server to adopt.
    pub trace: Option<TraceId>,
    /// Optional caller span ordinal within `trace` (the parent the
    /// server's root span attaches under in cross-process stitching).
    /// Ignored without `trace`.
    pub parent_span: Option<u64>,
}

/// Typed wire error codes (see module docs for the full table).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireErrorCode {
    /// Admission queue at capacity.
    QueueFull,
    /// Deadline expired while queued.
    QueueExpired,
    /// Admission check rejected the query.
    InvalidQuery,
    /// Every rung failed.
    Internal,
    /// Global connection cap reached.
    OverCapacity,
    /// Network dispatch queue full (per-boundary backpressure shed).
    Backpressure,
    /// Frame length prefix exceeded the configured cap.
    FrameTooLarge,
    /// Payload was not valid `odt-wire/v1` JSON.
    MalformedFrame,
    /// Server is draining and refusing new work.
    ServerDraining,
}

impl WireErrorCode {
    /// The wire string for this code.
    pub fn name(self) -> &'static str {
        match self {
            WireErrorCode::QueueFull => "queue_full",
            WireErrorCode::QueueExpired => "queue_expired",
            WireErrorCode::InvalidQuery => "invalid_query",
            WireErrorCode::Internal => "internal",
            WireErrorCode::OverCapacity => "over_capacity",
            WireErrorCode::Backpressure => "backpressure",
            WireErrorCode::FrameTooLarge => "frame_too_large",
            WireErrorCode::MalformedFrame => "malformed_frame",
            WireErrorCode::ServerDraining => "server_draining",
        }
    }

    /// Parse a wire string back to a code (load generators classify
    /// errors by this).
    pub fn from_name(s: &str) -> Option<WireErrorCode> {
        Some(match s {
            "queue_full" => WireErrorCode::QueueFull,
            "queue_expired" => WireErrorCode::QueueExpired,
            "invalid_query" => WireErrorCode::InvalidQuery,
            "internal" => WireErrorCode::Internal,
            "over_capacity" => WireErrorCode::OverCapacity,
            "backpressure" => WireErrorCode::Backpressure,
            "frame_too_large" => WireErrorCode::FrameTooLarge,
            "malformed_frame" => WireErrorCode::MalformedFrame,
            "server_draining" => WireErrorCode::ServerDraining,
            _ => return None,
        })
    }

    /// Map a frontend shed reason name to its wire code (the names were
    /// aligned deliberately; `Internal` is the safety net).
    pub fn from_shed_name(s: &str) -> WireErrorCode {
        WireErrorCode::from_name(s).unwrap_or(WireErrorCode::Internal)
    }

    /// Whether the client may retry the same request and plausibly
    /// succeed (capacity/queue conditions pass; protocol errors do not).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            WireErrorCode::QueueFull
                | WireErrorCode::QueueExpired
                | WireErrorCode::OverCapacity
                | WireErrorCode::Backpressure
                | WireErrorCode::ServerDraining
        )
    }
}

/// One `odt-wire/v1` response, either direction of the happy/sad split.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// The request was served.
    Ok {
        /// Correlation id.
        id: u64,
        /// Estimated travel time, seconds.
        seconds: f64,
        /// Name of the ladder rung that answered.
        rung: String,
        /// Time from the server reading the frame to a rung starting, µs.
        queue_wait_us: u64,
        /// Service time on the answering rung, µs.
        service_us: u64,
        /// Whether the answer landed within the deadline.
        deadline_met: bool,
        /// The trace id the server used (adopted or minted), hex.
        trace: Option<TraceId>,
        /// Instance name of the process that computed the answer (a
        /// router forwards the shard's name; prior-rung answers carry
        /// the router's own).
        served_by: Option<String>,
    },
    /// The request (or connection) was refused.
    Err {
        /// Correlation id (0 when the failure predates parsing an id).
        id: u64,
        /// Typed refusal code.
        code: WireErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl WireResponse {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match self {
            WireResponse::Ok { id, .. } | WireResponse::Err { id, .. } => *id,
        }
    }

    /// Shorthand for an error response.
    pub fn error(id: u64, code: WireErrorCode, detail: impl Into<String>) -> WireResponse {
        WireResponse::Err {
            id,
            code,
            detail: detail.into(),
        }
    }

    /// Serialize to an `odt-wire/v1` payload.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s)
            .expect("writing into a String cannot fail");
        s
    }

    /// Append this response to `buf` as one complete frame (length prefix,
    /// then payload), encoding the JSON straight into `buf`. Appending is
    /// what lets a writer coalesce a burst of replies into one `write`.
    pub fn encode_frame_into(&self, buf: &mut Vec<u8>) {
        frame_into(buf, |w| self.write_json(w));
    }

    fn write_json<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        json::object(w, |o| match self {
            WireResponse::Ok {
                id,
                seconds,
                rung,
                queue_wait_us,
                service_us,
                deadline_met,
                trace,
                served_by,
            } => {
                o.field("v", WIRE_SCHEMA)
                    .field("id", id)
                    .field("seconds", seconds)
                    .field("rung", rung)
                    .field("queue_wait_us", queue_wait_us)
                    .field("service_us", service_us)
                    .field("deadline_met", deadline_met);
                if let Some(t) = trace {
                    o.field("trace", t);
                }
                if let Some(by) = served_by {
                    o.field("served_by", by);
                }
            }
            WireResponse::Err { id, code, detail } => {
                o.field("v", WIRE_SCHEMA)
                    .field("id", id)
                    .object("error", |e| {
                        e.field("code", code.name()).field("detail", detail);
                    });
            }
        })
    }

    /// Parse a response payload (client side).
    pub fn from_json(text: &str) -> Result<WireResponse, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let id = v
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or("missing response id")?;
        if let Some(err) = v.get("error") {
            let code = err
                .get("code")
                .and_then(JsonValue::as_str)
                .and_then(WireErrorCode::from_name)
                .ok_or("missing or unknown error code")?;
            let detail = err
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string();
            return Ok(WireResponse::Err { id, code, detail });
        }
        let seconds = v
            .get("seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("missing seconds")?;
        Ok(WireResponse::Ok {
            id,
            seconds,
            rung: v
                .get("rung")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string(),
            queue_wait_us: v
                .get("queue_wait_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            service_us: v.get("service_us").and_then(JsonValue::as_u64).unwrap_or(0),
            deadline_met: v
                .get("deadline_met")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            trace: v
                .get("trace")
                .and_then(JsonValue::as_str)
                .and_then(TraceId::from_hex),
            served_by: v
                .get("served_by")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }
}

impl WireRequest {
    /// Serialize to an `odt-wire/v1` payload (client side).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s)
            .expect("writing into a String cannot fail");
        s
    }

    /// Append this request to `buf` as one complete frame (length prefix
    /// + payload), encoding the JSON straight into `buf`.
    pub fn encode_frame_into(&self, buf: &mut Vec<u8>) {
        frame_into(buf, |w| self.write_json(w));
    }

    fn write_json<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        let q = &self.query;
        json::object(w, |o| {
            o.field("v", WIRE_SCHEMA)
                .field("id", self.id)
                .field("o", [q.o_lng, q.o_lat])
                .field("d", [q.d_lng, q.d_lat])
                .field("t_dep", q.t_dep);
            if let Some(ms) = self.deadline_ms {
                o.field("deadline_ms", ms);
            }
            if let Some(t) = self.trace {
                o.field("trace", t);
                if let Some(p) = self.parent_span {
                    o.field("parent_span", p);
                }
            }
        })
    }

    /// Parse a request payload (server side). Errors are human-readable
    /// details for a `malformed_frame` / `invalid_query` wire error; the
    /// id, when recoverable, rides along so the error can correlate.
    pub fn from_json(text: &str) -> Result<WireRequest, (u64, String)> {
        let v = JsonValue::parse(text).map_err(|e| (0, e.to_string()))?;
        let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
        if let Some(ver) = v.get("v").and_then(JsonValue::as_str) {
            if ver != WIRE_SCHEMA {
                return Err((id, format!("unsupported wire version {ver:?}")));
            }
        }
        if id == 0 && v.get("id").is_none() {
            return Err((0, "missing request id".to_string()));
        }
        let pair = |key: &str| -> Result<(f64, f64), (u64, String)> {
            let arr = v
                .get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| (id, format!("missing {key:?} [lng,lat] pair")))?;
            if arr.len() != 2 {
                return Err((id, format!("{key:?} must be [lng,lat]")));
            }
            let lng = arr[0]
                .as_f64()
                .ok_or_else(|| (id, format!("{key:?} lng not a number")))?;
            let lat = arr[1]
                .as_f64()
                .ok_or_else(|| (id, format!("{key:?} lat not a number")))?;
            Ok((lng, lat))
        };
        let (o_lng, o_lat) = pair("o")?;
        let (d_lng, d_lat) = pair("d")?;
        let t_dep = v
            .get("t_dep")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| (id, "missing t_dep".to_string()))?;
        let trace = match v.get("trace") {
            None | Some(JsonValue::Null) => None,
            Some(t) => {
                let hex = t
                    .as_str()
                    .ok_or_else(|| (id, "trace must be a hex string".to_string()))?;
                Some(
                    TraceId::from_hex(hex)
                        .ok_or_else(|| (id, format!("invalid trace id {hex:?}")))?,
                )
            }
        };
        Ok(WireRequest {
            id,
            query: WireQuery {
                o_lng,
                o_lat,
                d_lng,
                d_lat,
                t_dep,
            },
            deadline_ms: v.get("deadline_ms").and_then(JsonValue::as_u64),
            // parent_span is a position inside `trace`; meaningless (and
            // dropped) without one.
            parent_span: trace
                .is_some()
                .then(|| v.get("parent_span").and_then(JsonValue::as_u64))
                .flatten()
                .filter(|&p| p != 0),
            trace,
        })
    }
}

/// The tail of a frame buffer as a formatter sink: the JSON encoders write
/// through this, so a frame is built in place with no intermediate `String`.
struct FrameTail<'a>(&'a mut Vec<u8>);

impl fmt::Write for FrameTail<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Append one frame to `buf`: reserve the length prefix, let `payload`
/// write the JSON behind it, then fill the prefix in.
fn frame_into(buf: &mut Vec<u8>, payload: impl FnOnce(&mut FrameTail) -> fmt::Result) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    payload(&mut FrameTail(buf)).expect("writing into a Vec cannot fail");
    let len = u32::try_from(buf.len() - start - FRAME_HEADER_BYTES)
        .expect("a wire payload fits the u32 length prefix");
    buf[start..start + FRAME_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
}

/// Write one frame (length prefix + payload) with **one** `write`: a
/// frame split over two writes leaves its second half waiting in the
/// kernel for the peer's delayed ACK of the first (DESIGN.md §11). The
/// payload must fit in `u32`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))?;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Socket set-up for every stream that speaks `odt-wire`, either end:
/// `TCP_NODELAY`. The protocol is request/reply with small frames, so
/// Nagle's algorithm only ever adds the peer's delayed-ACK timer (40 ms on
/// Linux) to a reply; batching is the sender's job (one write per frame,
/// one write per burst).
pub fn tune_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Outcome of a blocking frame read.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(String),
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
}

/// Why a frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeded the cap; the connection must close
    /// (the stream can no longer be resynchronized safely).
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload was not UTF-8.
    Utf8,
    /// The peer closed mid-frame.
    TruncatedEof,
    /// An I/O error (including timeouts surfaced by the caller's socket
    /// read timeout).
    Io(io::Error),
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::TooLarge { declared, max } => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {declared} bytes exceeds cap {max}"),
            ),
            FrameError::Utf8 => io::Error::new(io::ErrorKind::InvalidData, "frame not UTF-8"),
            FrameError::TruncatedEof => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame")
            }
            FrameError::Io(e) => e,
        }
    }
}

/// Blocking read of one frame from `r`, with payloads capped at `max`.
/// Used by clients and tests; the server's connection loop does its own
/// incremental reads so it can interleave timeout/drain checks.
///
/// Socket read timeouts (`WouldBlock`/`TimedOut`) surface as
/// [`FrameError::Io`] **only while no byte of the frame has arrived** —
/// an idle tick the caller can use for its own bookkeeping. Once a
/// frame has started, timeouts retry instead: returning mid-frame would
/// silently discard consumed bytes and desynchronize the stream.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<FrameRead, FrameError> {
    read_frame_by(r, max, None)
}

/// [`read_frame`], optionally with a hard `deadline`. With one, socket
/// read timeouts are never idle ticks: they recur until the deadline and
/// then surface as `TimedOut` wherever the frame stands, so a peer wedged
/// mid-frame cannot stall the caller. The bytes consumed by then are gone;
/// the caller must drop the stream ([`Client`] does).
fn read_frame_by(
    r: &mut impl Read,
    max: usize,
    deadline: Option<Instant>,
) -> Result<FrameRead, FrameError> {
    let timeoutish = |e: &io::Error| {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    };
    // A socket read timeout `started` bytes into the frame: `Ok` reads on.
    let on_timeout = |e: io::Error, started: bool| match deadline {
        Some(d) if Instant::now() >= d => Err(FrameError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "reply deadline",
        ))),
        None if !started => Err(FrameError::Io(e)),
        _ => Ok(()),
    };
    let mut hdr = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0;
    while got < hdr.len() {
        match r.read(&mut hdr[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Closed)
                } else {
                    Err(FrameError::TruncatedEof)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timeoutish(&e) => on_timeout(e, got > 0)?,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(hdr) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut buf = vec![0u8; declared];
    let mut got = 0;
    while got < declared {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(FrameError::TruncatedEof),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timeoutish(&e) => on_timeout(e, true)?,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    String::from_utf8(buf)
        .map(FrameRead::Payload)
        .map_err(|_| FrameError::Utf8)
}

/// How often a blocked reply read wakes up to look at its deadline.
const READ_TICK: Duration = Duration::from_millis(50);

/// The `odt-wire/v1` client: a lazily (re)connecting synchronous
/// connection to one server. Strictly one request in flight through
/// [`Client::call`]; any transport anomaly tears the connection down so
/// the next call starts clean.
pub struct Client {
    addr: String,
    connect_timeout: Duration,
    max_frame_bytes: usize,
    stream: Option<TcpStream>,
    /// The deadline the socket's timeouts are currently set for.
    armed: Option<Duration>,
    /// Request frame under construction, reused across calls.
    frame: Vec<u8>,
}

impl Client {
    /// A disconnected client for `addr`; the first [`Client::call`] (or
    /// [`Client::connect`]) dials it, each attempt bounded by
    /// `connect_timeout` (nonzero). Reply frames are capped at
    /// `max_frame_bytes`.
    pub fn new(
        addr: impl Into<String>,
        connect_timeout: Duration,
        max_frame_bytes: usize,
    ) -> Client {
        Client {
            addr: addr.into(),
            connect_timeout,
            max_frame_bytes,
            stream: None,
            armed: None,
            frame: Vec::new(),
        }
    }

    /// Whether a connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// One attempt per resolved address, first success wins.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut last = io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        );
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(s) => {
                    tune_stream(&s)?;
                    s.set_read_timeout(Some(READ_TICK))?;
                    self.stream = Some(s);
                    self.armed = None;
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Connect now, riding out a server that is still coming up:
    /// transient refusals (`ECONNREFUSED`, resets while the listener
    /// binds) back off 50 ms doubling to 1 s until `retry_budget` is
    /// spent, then the last error surfaces; a zero budget fails fast.
    /// Returns how many retries it took.
    pub fn connect(&mut self, retry_budget: Duration) -> io::Result<u64> {
        let t0 = Instant::now();
        let mut backoff = Duration::from_millis(50);
        let mut retries = 0u64;
        loop {
            let Err(e) = self.ensure_connected() else {
                return Ok(retries);
            };
            let retryable = matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::AddrNotAvailable
            );
            if !retryable || t0.elapsed() + backoff > retry_budget {
                return Err(e);
            }
            thread::sleep(backoff);
            retries += 1;
            backoff = (backoff * 2).min(Duration::from_millis(1_000));
        }
    }

    /// The connected socket, for callers that pipeline or hand-cut bytes.
    pub fn stream(&mut self) -> io::Result<&mut TcpStream> {
        self.ensure_connected()?;
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Disconnect when `outcome` is an error.
    fn settle<T>(&mut self, outcome: io::Result<T>) -> io::Result<T> {
        if outcome.is_err() {
            self.stream = None;
        }
        outcome
    }

    /// Write one request; a write may take up to `deadline` (nonzero).
    /// The socket options are only touched when the deadline changes.
    pub fn send(&mut self, req: &WireRequest, deadline: Duration) -> io::Result<()> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected above");
        self.frame.clear();
        req.encode_frame_into(&mut self.frame);
        let outcome = (|| {
            if self.armed != Some(deadline) {
                stream.set_read_timeout(Some(deadline.min(READ_TICK)))?;
                stream.set_write_timeout(Some(deadline))?;
                self.armed = Some(deadline);
            }
            stream.write_all(&self.frame)
        })();
        self.settle(outcome)
    }

    /// Read the next reply, whatever its id, giving up at `until`.
    pub fn recv(&mut self, until: Instant) -> io::Result<WireResponse> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no request was sent"))?;
        let outcome = match read_frame_by(stream, self.max_frame_bytes, Some(until)) {
            Ok(FrameRead::Payload(p)) => WireResponse::from_json(&p)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Ok(FrameRead::Closed) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer closed before replying",
            )),
            Err(e) => Err(e.into()),
        };
        self.settle(outcome)
    }

    /// Send one request and read its reply, bounded end to end by
    /// `deadline` (nonzero; a deadline under [`READ_TICK`] is checked at
    /// that granularity). Any error leaves the client disconnected.
    pub fn call(&mut self, req: &WireRequest, deadline: Duration) -> io::Result<WireResponse> {
        self.ensure_connected()?;
        let until = Instant::now() + deadline;
        self.send(req, deadline)?;
        let outcome = self.recv(until).and_then(|resp| {
            if resp.id() == req.id {
                Ok(resp)
            } else {
                // A reply for some other id means the stream is
                // desynchronized (e.g. a late reply to a timed-out
                // predecessor); drop the connection rather than hand
                // back someone else's estimate.
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "reply id mismatch; resetting connection",
                ))
            }
        });
        self.settle(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_query() -> WireQuery {
        WireQuery {
            o_lng: 116.35,
            o_lat: 39.92,
            d_lng: 116.41,
            d_lat: 39.99,
            t_dep: 28800.0,
        }
    }

    #[test]
    fn request_round_trips_with_and_without_options() {
        let full = WireRequest {
            id: 7,
            query: rt_query(),
            deadline_ms: Some(50),
            trace: TraceId::from_hex("1f00ab34cd56ef78"),
            parent_span: Some(3),
        };
        let back = WireRequest::from_json(&full.to_json()).unwrap();
        assert_eq!(back, full);

        let bare = WireRequest {
            id: 1,
            query: rt_query(),
            deadline_ms: None,
            trace: None,
            parent_span: None,
        };
        assert_eq!(WireRequest::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn parent_span_requires_a_trace_and_drops_zero() {
        // parent_span without trace is dropped on parse (a position in
        // no trace), and the serializer never emits it alone.
        let req =
            WireRequest::from_json(r#"{"id":2,"o":[0,0],"d":[0,0],"t_dep":0,"parent_span":5}"#)
                .unwrap();
        assert_eq!(req.parent_span, None);
        let orphan = WireRequest {
            id: 2,
            query: rt_query(),
            deadline_ms: None,
            trace: None,
            parent_span: Some(5),
        };
        assert!(!orphan.to_json().contains("parent_span"));
        // parent_span 0 means "root" and is normalized to absent.
        let req = WireRequest::from_json(
            r#"{"id":2,"o":[0,0],"d":[0,0],"t_dep":0,"trace":"c0ffee","parent_span":0}"#,
        )
        .unwrap();
        assert_eq!(req.parent_span, None);
        assert!(req.trace.is_some());
    }

    #[test]
    fn request_parse_rejects_junk_with_the_id_when_known() {
        // Unknown version string is refused but correlates.
        let (id, msg) =
            WireRequest::from_json(r#"{"v":"odt-wire/v9","id":3,"o":[0,0],"d":[0,0],"t_dep":0}"#)
                .unwrap_err();
        assert_eq!(id, 3);
        assert!(msg.contains("version"));
        // Missing coordinates.
        let (id, _) = WireRequest::from_json(r#"{"id":4,"t_dep":0}"#).unwrap_err();
        assert_eq!(id, 4);
        // Bad trace ids are typed errors, not adopted garbage.
        assert!(
            WireRequest::from_json(r#"{"id":5,"o":[0,0],"d":[0,0],"t_dep":0,"trace":"zzzz"}"#)
                .is_err()
        );
        // Zero ("absent") trace ids are refused by TraceId::from_hex.
        assert!(
            WireRequest::from_json(r#"{"id":6,"o":[0,0],"d":[0,0],"t_dep":0,"trace":"0"}"#)
                .is_err()
        );
        // Not JSON at all.
        assert!(WireRequest::from_json("hello").is_err());
    }

    #[test]
    fn responses_round_trip_both_arms() {
        let ok = WireResponse::Ok {
            id: 9,
            seconds: 512.25,
            rung: "ddim".to_string(),
            queue_wait_us: 120,
            service_us: 4800,
            deadline_met: true,
            trace: TraceId::from_hex("c0ffee"),
            served_by: Some("s1a".to_string()),
        };
        assert_eq!(WireResponse::from_json(&ok.to_json()).unwrap(), ok);
        // Absent served_by stays absent (older peers interop).
        let plain = WireResponse::Ok {
            id: 10,
            seconds: 1.0,
            rung: "echo".to_string(),
            queue_wait_us: 0,
            service_us: 0,
            deadline_met: true,
            trace: None,
            served_by: None,
        };
        let json = plain.to_json();
        assert!(!json.contains("served_by"));
        assert_eq!(WireResponse::from_json(&json).unwrap(), plain);

        let err = WireResponse::error(3, WireErrorCode::QueueExpired, "expired 40us in queue");
        let back = WireResponse::from_json(&err.to_json()).unwrap();
        assert_eq!(back, err);
        match back {
            WireResponse::Err { code, .. } => assert!(code.is_retryable()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn every_error_code_round_trips_and_shed_names_map() {
        use WireErrorCode::*;
        for code in [
            QueueFull,
            QueueExpired,
            InvalidQuery,
            Internal,
            OverCapacity,
            Backpressure,
            FrameTooLarge,
            MalformedFrame,
            ServerDraining,
        ] {
            assert_eq!(WireErrorCode::from_name(code.name()), Some(code));
        }
        // The four frontend shed reasons map onto wire codes by name.
        assert_eq!(WireErrorCode::from_shed_name("queue_full"), QueueFull);
        assert_eq!(WireErrorCode::from_shed_name("queue_expired"), QueueExpired);
        assert_eq!(WireErrorCode::from_shed_name("invalid_query"), InvalidQuery);
        assert_eq!(WireErrorCode::from_shed_name("internal"), Internal);
        assert_eq!(WireErrorCode::from_shed_name("???"), Internal);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r, 1024).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, "{\"a\":1}"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 1024).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, "second"),
            other => panic!("{other:?}"),
        }
        matches!(read_frame(&mut r, 1024).unwrap(), FrameRead::Closed)
            .then_some(())
            .unwrap();
    }

    /// Counts `write` calls; takes whatever it is given in one go, as a
    /// socket with room in its send buffer does.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_whatever_its_size() {
        let typical = WireResponse::Ok {
            id: 7,
            seconds: 512.3,
            rung: "cached".to_string(),
            queue_wait_us: 4,
            service_us: 1,
            deadline_met: true,
            trace: None,
            served_by: Some("pid-1".to_string()),
        }
        .to_json();
        let largest = "x".repeat(DEFAULT_MAX_FRAME_BYTES);
        for payload in ["", typical.as_str(), largest.as_str()] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{} byte payload", payload.len());
            match read_frame(&mut &w.bytes[..], DEFAULT_MAX_FRAME_BYTES).unwrap() {
                FrameRead::Payload(p) => assert_eq!(p, payload),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn encode_frame_into_appends_the_frame_write_frame_would_send() {
        let req = WireRequest {
            id: 7,
            query: rt_query(),
            deadline_ms: Some(50),
            trace: TraceId::from_hex("1f00ab34cd56ef78"),
            parent_span: Some(3),
        };
        let resp = WireResponse::error(7, WireErrorCode::QueueFull, "queue at \"capacity\" 64\n");
        let mut burst = Vec::new();
        req.encode_frame_into(&mut burst);
        resp.encode_frame_into(&mut burst);
        let mut want = Vec::new();
        write_frame(&mut want, &req.to_json()).unwrap();
        write_frame(&mut want, &resp.to_json()).unwrap();
        assert_eq!(burst, want);
        // The payload bytes are pinned, with every optional field present
        // and with every one absent.
        let bare = WireRequest {
            deadline_ms: None,
            trace: None,
            ..req.clone()
        };
        let full = WireResponse::Ok {
            id: 8,
            seconds: 0.1 + 0.2,
            rung: "dd\"im\n".to_string(),
            queue_wait_us: 12,
            service_us: 3_400,
            deadline_met: true,
            trace: TraceId::from_hex("abc123"),
            served_by: Some("s1\\a".to_string()),
        };
        let plain = WireResponse::Ok {
            id: 9,
            seconds: 512.0,
            rung: "cached".to_string(),
            queue_wait_us: 0,
            service_us: 0,
            deadline_met: false,
            trace: None,
            served_by: None,
        };
        bare.encode_frame_into(&mut burst);
        full.encode_frame_into(&mut burst);
        plain.encode_frame_into(&mut burst);
        let mut r = &burst[..];
        let payloads: Vec<String> =
            std::iter::from_fn(|| match read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES) {
                Ok(FrameRead::Payload(p)) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(
            payloads,
            [
                "{\"v\":\"odt-wire/v1\",\"id\":7,\"o\":[116.35,39.92],\"d\":[116.41,39.99],\
                 \"t_dep\":28800,\"deadline_ms\":50,\"trace\":\"1f00ab34cd56ef78\",\
                 \"parent_span\":3}",
                "{\"v\":\"odt-wire/v1\",\"id\":7,\"error\":{\"code\":\"queue_full\",\
                 \"detail\":\"queue at \\\"capacity\\\" 64\\n\"}}",
                "{\"v\":\"odt-wire/v1\",\"id\":7,\"o\":[116.35,39.92],\"d\":[116.41,39.99],\
                 \"t_dep\":28800}",
                "{\"v\":\"odt-wire/v1\",\"id\":8,\"seconds\":0.30000000000000004,\
                 \"rung\":\"dd\\\"im\\n\",\"queue_wait_us\":12,\"service_us\":3400,\
                 \"deadline_met\":true,\"trace\":\"0000000000abc123\",\
                 \"served_by\":\"s1\\\\a\"}",
                "{\"v\":\"odt-wire/v1\",\"id\":9,\"seconds\":512,\"rung\":\"cached\",\
                 \"queue_wait_us\":0,\"service_us\":0,\"deadline_met\":false}",
            ]
        );
        // Non-finite numbers still never reach the wire.
        let nan = WireResponse::Ok {
            id: 1,
            seconds: f64::NAN,
            rung: "echo".to_string(),
            queue_wait_us: 0,
            service_us: 0,
            deadline_met: false,
            trace: None,
            served_by: None,
        };
        assert!(nan.to_json().contains("\"seconds\":null"));
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed_errors() {
        // Declared length over the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1_000_000u32).to_be_bytes());
        match read_frame(&mut &buf[..], 65_536) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, 1_000_000);
                assert_eq!(max, 65_536);
            }
            other => panic!("{other:?}"),
        }
        // Truncated payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(10u32).to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameError::TruncatedEof)
        ));
        // Truncated header.
        assert!(matches!(
            read_frame(&mut &[0u8, 0][..], 1024),
            Err(FrameError::TruncatedEof)
        ));
        // Non-UTF-8 payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(2u32).to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameError::Utf8)
        ));
    }

    /// A scripted peer: accepts connection after connection, hands each
    /// (with the first frame read off it) to `script`.
    fn scripted_peer(
        connections: usize,
        script: impl Fn(usize, &mut TcpStream, WireRequest) + Send + 'static,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = thread::spawn(move || {
            for n in 0..connections {
                let (mut s, _) = listener.accept().unwrap();
                let FrameRead::Payload(p) = read_frame(&mut s, 1024).unwrap() else {
                    panic!("client hung up before sending");
                };
                script(n, &mut s, WireRequest::from_json(&p).unwrap());
            }
        });
        (addr, peer)
    }

    fn req(id: u64) -> WireRequest {
        WireRequest {
            id,
            query: rt_query(),
            deadline_ms: None,
            trace: None,
            parent_span: None,
        }
    }

    fn reply_for(id: u64) -> String {
        WireResponse::error(id, WireErrorCode::Internal, "scripted").to_json()
    }

    #[test]
    fn a_peer_wedged_mid_frame_costs_one_deadline_and_the_connection() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (addr, peer) = scripted_peer(1, move |_, s, _| {
            // Half a frame header, then silence until the client is done.
            s.write_all(&[0u8, 0]).unwrap();
            let _ = release_rx.recv();
        });
        let mut client = Client::new(addr, Duration::from_secs(1), 1024);
        let deadline = Duration::from_millis(120);
        let t0 = Instant::now();
        let err = client.call(&req(1), deadline).unwrap_err();
        let took = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(took >= deadline, "gave up early: {took:?}");
        // One socket-timeout tick of slack, plus scheduling noise.
        assert!(
            took < deadline + READ_TICK + Duration::from_millis(100),
            "{took:?}"
        );
        assert!(!client.is_connected(), "a desynchronised stream was kept");
        release_tx.send(()).unwrap();
        peer.join().unwrap();
    }

    #[test]
    fn a_reply_for_another_request_is_refused_and_the_next_call_reconnects() {
        let (addr, peer) = scripted_peer(2, |n, s, got| {
            // First connection answers for somebody else; the second is honest.
            let id = if n == 0 { got.id + 1 } else { got.id };
            write_frame(s, &reply_for(id)).unwrap();
        });
        let mut client = Client::new(addr, Duration::from_secs(1), 1024);
        let deadline = Duration::from_secs(2);
        let err = client.call(&req(7), deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(!client.is_connected());
        assert_eq!(client.call(&req(8), deadline).unwrap().id(), 8);
        assert!(client.is_connected());
        peer.join().unwrap();
    }

    #[test]
    fn connect_retries_refusals_until_its_budget_and_counts_them() {
        // Reserve a port, then leave it closed: connects get ECONNREFUSED.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut client = Client::new(addr.to_string(), Duration::from_secs(1), 1024);
        // No budget: the refusal surfaces at once.
        let err = client.connect(Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // A budget the listener never shows up within: retried, then surfaced.
        let t0 = Instant::now();
        let err = client.connect(Duration::from_millis(200)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(
            t0.elapsed() >= Duration::from_millis(150),
            "{:?}",
            t0.elapsed()
        );
        // A listener that comes up mid-backoff: absorbed, and counted.
        let late = thread::spawn(move || {
            thread::sleep(Duration::from_millis(120));
            let l = std::net::TcpListener::bind(addr).unwrap();
            let _ = l.accept().unwrap();
        });
        let retries = client.connect(Duration::from_secs(10)).unwrap();
        assert!(retries > 0, "the warmup race was not seen");
        assert!(client.is_connected());
        assert_eq!(
            client.connect(Duration::ZERO).unwrap(),
            0,
            "already connected"
        );
        late.join().unwrap();
    }
}
