//! Causal request tracing: trace/span identity, context propagation, head
//! sampling with force-retention, and trace export.
//!
//! A **trace** is one causally-linked unit of work (for the serving stack:
//! one admitted request; for drills: one scenario). It is minted by
//! [`root_span`], which installs a [`TraceContext`] on the current thread.
//! While a context is installed, every [`span`] becomes a **child
//! span** of the innermost open span, [`crate::Histogram::record_micros`]
//! attaches the current trace id as a per-bucket *exemplar*, and every
//! emitted [`crate::Event`] is tagged with `trace_id`/`span_id` fields.
//! Contexts hop threads explicitly: `odt-compute` captures the submitting
//! context and re-installs it inside pool workers via [`install_context`],
//! so kernel work is attributable to the originating request.
//!
//! **Identity is per-process but replayable.** Trace ids are SplitMix64
//! outputs of a process seed plus a process-global `AtomicU64` counter.
//! The seed defaults to per-process entropy (pid + wall clock, mixed
//! through SplitMix64) so two shards of one cluster cannot mint colliding
//! ids, and can be pinned with [`set_trace_seed`] or `ODT_TRACE_SEED`
//! (see [`init_from_env`]) for replayable runs — the CI `chaos-smoke`
//! job double-runs one drill under one explicit seed and compares the
//! ids. Span ids are small per-trace ordinals; a span's position in a
//! *cross-process* trace additionally records the remote parent span
//! ordinal carried by `odt-wire/v1` (see [`root_span_adopted`]).
//!
//! **Sampling.** `ODT_TRACE_SAMPLE=N` (see [`init_from_env`]) head-samples
//! 1-in-N traces (`0` = tracing off, `1` = everything). The keep/drop
//! decision is *deferred* to root close: an unsampled trace still buffers
//! its spans, and [`force_retain_current`] (called on deadline breaches,
//! fallback-rung answers, and breaker trips) promotes it to retained —
//! tail-latency outliers are never lost to head sampling. Retained traces
//! land in a bounded in-memory store ([`retained_traces`]); a
//! [`TraceRecord`]'s `ToJson` is the `odt-tracez/v1` trace object that
//! `GET /tracez` serves and the `trace_report` bin reads.
//!
//! **One guard.** A root, a child and a plain timer are all a
//! [`SpanTimer`]: its drop records the same-named histogram, traced or not,
//! and one function closes every span of a trace, back-dated ones included.

use crate::json;
use crate::metrics::{histogram, Histogram};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Base constant mixed into the per-process trace-id seed (and the seed
/// CI pins via `ODT_TRACE_SEED` for replayable id sequences).
pub const TRACE_ID_SEED: u64 = 0x0D07_0DC1_E0F5_11AA;

/// Spans buffered per trace before truncation (keeps a pathological trace
/// from holding the store lock and memory hostage).
const MAX_SPANS_PER_TRACE: usize = 1024;

/// Completed retained traces kept in memory (oldest evicted first).
const MAX_RETAINED_TRACES: usize = 4096;

use crate::rng::splitmix64;

/// Identity of one trace. Rendered as 16 lower-case hex digits in every
/// JSON surface (a raw `u64` can exceed 2^53 and lose precision in
/// JSON-number consumers like `jq` and Python).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw 64-bit id (0 is never minted).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// 16-digit lower-case hex rendering, the canonical JSON form.
    pub fn to_hex(&self) -> String {
        self.to_string()
    }

    /// Parse the canonical 16-hex-digit rendering (the wire form used by
    /// `odt-wire/v1` trace propagation). Rejects empty, oversized, non-hex
    /// and zero ids — `0` is never a valid trace identity.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        let raw = u64::from_str_radix(s, 16).ok()?;
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    /// A trace id from a raw non-zero u64 (`None` for 0).
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }
}

/// The canonical 16-hex-digit rendering, for writers that format straight
/// into a buffer.
impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// As JSON a trace id is its 16-hex-digit string.
impl json::ToJson for TraceId {
    fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        json::Text(self).write_json(out)
    }
}

/// Identity of one span within its trace: a small per-trace ordinal
/// (the root span is always 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw ordinal.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// The ambient trace position of the current thread: which trace, and
/// which span new children should parent under.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceContext {
    trace: TraceId,
    span: SpanId,
}

impl TraceContext {
    /// The trace this context belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// The innermost open span (parent of new children).
    pub fn span_id(&self) -> SpanId {
        self.span
    }
}

/// One completed span of a retained trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Per-trace ordinal (root = 1).
    pub span_id: u64,
    /// Parent ordinal (0 for the root).
    pub parent_id: u64,
    /// Span name (the histogram it also recorded into).
    pub name: &'static str,
    /// Start, µs on the process trace clock ([`now_us`]).
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Small per-thread ordinal (Perfetto `tid`).
    pub tid: u64,
}

/// One completed, retained trace.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Trace identity.
    pub trace_id: TraceId,
    /// Root span name.
    pub root_name: &'static str,
    /// Remote parent span ordinal this trace's root attaches under (the
    /// `parent_span` carried by the `odt-wire/v1` request that adopted
    /// this trace id); 0 for a locally-rooted trace.
    pub parent_span: u64,
    /// Request id attached via [`SpanTimer::set_request_id`], if any.
    pub request_id: Option<u64>,
    /// Root start, µs on the process trace clock.
    pub start_us: u64,
    /// Root duration, µs.
    pub dur_us: u64,
    /// Whether head sampling selected this trace.
    pub sampled: bool,
    /// Force-retention reasons (`deadline_breach`, `fallback_rung`,
    /// `breaker_open`, …); empty for purely head-sampled traces.
    pub retain_reasons: Vec<&'static str>,
    /// Completed spans, in completion order. Includes the root.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped beyond the per-trace buffer cap.
    pub truncated: u64,
}

/// A span that is currently open (for flight-recorder dumps).
#[derive(Clone, Debug)]
pub struct OpenSpanRecord {
    /// Owning trace.
    pub trace_id: TraceId,
    /// Span ordinal.
    pub span_id: u64,
    /// Span name.
    pub name: &'static str,
    /// Start, µs on the process trace clock.
    pub start_us: u64,
    /// Thread ordinal it was opened on.
    pub tid: u64,
}

struct ActiveTrace {
    parent_span: u64,
    request_id: Option<u64>,
    sampled: bool,
    retained: bool,
    retain_reasons: Vec<&'static str>,
    next_span: u64,
    spans: Vec<SpanRecord>,
    truncated: u64,
}

#[derive(Default)]
struct TraceStore {
    active: HashMap<u64, ActiveTrace>,
    open: HashMap<(u64, u64), OpenSpanRecord>,
    retained: VecDeque<TraceRecord>,
    finished: u64,
    dropped_unsampled: u64,
    evicted_retained: u64,
}

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Process trace-id seed; 0 means "not yet initialized" (lazily filled
/// from per-process entropy on first mint).
static TRACE_SEED: AtomicU64 = AtomicU64::new(0);

/// Mint the `k`-th trace id of the generator seeded with `seed`: a pure
/// SplitMix64 draw, never 0. This is the whole id scheme — exposed so
/// tests (and offline tools) can reproduce a process's id sequence from
/// its seed.
pub fn mint_trace_id(seed: u64, k: u64) -> u64 {
    splitmix64(seed.wrapping_add(k)).max(1)
}

/// A per-process entropy seed: pid and wall-clock nanos mixed through
/// SplitMix64 with [`TRACE_ID_SEED`]. Never 0.
fn entropy_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    splitmix64(TRACE_ID_SEED ^ splitmix64(nanos) ^ splitmix64(pid.rotate_left(32))).max(1)
}

/// The process trace-id seed. Initialized on first use from per-process
/// entropy (so concurrently-booted shards mint disjoint id sets) unless
/// previously pinned by [`set_trace_seed`] / `ODT_TRACE_SEED`.
pub fn trace_seed() -> u64 {
    let s = TRACE_SEED.load(Ordering::Relaxed);
    if s != 0 {
        return s;
    }
    let fresh = entropy_seed();
    match TRACE_SEED.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(racing) => racing,
    }
}

/// Pin the trace-id seed (0 is reserved and mapped to 1). Replayable
/// drills and the CI double-run determinism check set an explicit seed;
/// production processes leave it to entropy initialization.
pub fn set_trace_seed(seed: u64) {
    TRACE_SEED.store(seed.max(1), Ordering::Relaxed);
}

fn store() -> &'static Mutex<TraceStore> {
    static STORE: OnceLock<Mutex<TraceStore>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(TraceStore::default()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first use). All span
/// timestamps are on this clock.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

thread_local! {
    static CTX_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Small dense ordinal for the current thread (Perfetto `tid`).
pub fn thread_ordinal() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Whether tracing is on (a nonzero sampling rate). One relaxed atomic load —
/// cheap enough for hot paths to check first.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the head-sampling rate: keep 1-in-N traces (0 = tracing off, 1 = all).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
    ENABLED.store(n > 0, Ordering::Relaxed);
}

/// Read `ODT_TRACE_SAMPLE` (unset, empty, unparsable, or `0` all mean
/// "tracing off") and apply it via [`set_sample_every`]; read
/// `ODT_TRACE_SEED` (decimal, or hex with an `0x` prefix) and pin the
/// trace-id seed via [`set_trace_seed`] — unset or unparsable leaves the
/// default per-process entropy seeding in place.
pub fn init_from_env() {
    let n = std::env::var("ODT_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    set_sample_every(n);
    let seed = std::env::var("ODT_TRACE_SEED").ok().and_then(|v| {
        let v = v.trim();
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse::<u64>().ok(),
        }
    });
    if let Some(seed) = seed {
        set_trace_seed(seed);
    }
}

/// The innermost installed context on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    CTX_STACK.with(|s| s.borrow().last().copied())
}

fn push_ctx(ctx: TraceContext) {
    CTX_STACK.with(|s| s.borrow_mut().push(ctx));
}

fn pop_ctx(ctx: TraceContext) {
    CTX_STACK.with(|s| {
        let mut s = s.borrow_mut();
        // Guards drop in stack order on one thread, so the top matches;
        // fall back to a scan so a misuse cannot corrupt the stack.
        if s.last() == Some(&ctx) {
            s.pop();
        } else if let Some(pos) = s.iter().rposition(|c| *c == ctx) {
            s.remove(pos);
        }
    });
}

/// RAII guard of [`install_context`].
#[must_use = "dropping the guard uninstalls the context"]
pub struct ContextGuard {
    ctx: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop_ctx(self.ctx);
    }
}

/// Install a foreign context on this thread (how pool workers pick up the
/// submitting request's identity). Spans opened while the guard lives
/// parent under `ctx`'s span.
pub fn install_context(ctx: TraceContext) -> ContextGuard {
    push_ctx(ctx);
    ContextGuard { ctx }
}

/// Force-retain the current thread's trace (no-op without a context):
/// it survives root close even if head sampling would drop it. `reason`
/// is recorded once per trace (deduplicated).
pub fn force_retain_current(reason: &'static str) {
    let Some(ctx) = current_context() else {
        return;
    };
    let mut st = store().lock().expect("trace store poisoned");
    if let Some(t) = st.active.get_mut(&ctx.trace.raw()) {
        t.retained = true;
        if !t.retain_reasons.contains(&reason) {
            t.retain_reasons.push(reason);
        }
    }
}

/// Whether the current thread's trace is marked retained.
pub fn current_is_retained() -> bool {
    let Some(ctx) = current_context() else {
        return false;
    };
    let st = store().lock().expect("trace store poisoned");
    st.active
        .get(&ctx.trace.raw())
        .map(|t| t.retained)
        .unwrap_or(false)
}

/// Where an open span sits: its own context, its parent's ordinal (0 for
/// a root) and where and when it opened.
struct Position {
    ctx: TraceContext,
    parent: u64,
    start_us: u64,
    tid: u64,
}

/// What [`open_span`] opens: the root of a new trace, or the next child of
/// an installed context.
enum Open {
    Root {
        trace: TraceId,
        sampled: bool,
        parent_span: u64,
    },
    Child(TraceContext),
}

fn next_trace_id() -> (u64, TraceId) {
    let k = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    (k, TraceId(mint_trace_id(trace_seed(), k)))
}

/// Open a span in the store and make it the current context of this
/// thread. `None` for a child whose trace has already closed.
fn open_span(name: &'static str, at: Open) -> Option<Position> {
    let start_us = now_us();
    let tid = thread_ordinal();
    let mut st = store().lock().expect("trace store poisoned");
    let (trace, span_id, parent) = match at {
        Open::Child(p) => {
            let t = st.active.get_mut(&p.trace.raw())?;
            t.next_span += 1;
            (p.trace, t.next_span - 1, p.span.raw())
        }
        Open::Root {
            mut trace,
            sampled,
            mut parent_span,
        } => {
            // Checked and inserted under this one acquisition: of two
            // threads adopting one wire id, the second gets a fresh id. A
            // re-minted id no longer belongs to the remote trace, so the
            // remote parent ordinal would mislead stitchers: drop it.
            while st.active.contains_key(&trace.raw()) {
                (trace, parent_span) = (next_trace_id().1, 0);
            }
            st.active.insert(
                trace.raw(),
                ActiveTrace {
                    parent_span,
                    request_id: None,
                    sampled,
                    retained: false,
                    retain_reasons: Vec::new(),
                    next_span: 2, // root is span 1
                    spans: Vec::new(),
                    truncated: 0,
                },
            );
            (trace, 1, 0)
        }
    };
    let open = OpenSpanRecord {
        trace_id: trace,
        span_id,
        name,
        start_us,
        tid,
    };
    st.open.insert((trace.raw(), span_id), open);
    drop(st);
    let ctx = TraceContext {
        trace,
        span: SpanId(span_id),
    };
    push_ctx(ctx);
    Some(Position {
        ctx,
        parent,
        start_us,
        tid,
    })
}

/// Close a span: record it into its trace's buffer and, for a root,
/// finalize the trace (retain or drop per sampling + force-retention).
fn close_span(st: &mut TraceStore, pos: &Position, name: &'static str, dur_us: u64) {
    let (key, span_id) = (pos.ctx.trace.raw(), pos.ctx.span.raw());
    st.open.remove(&(key, span_id));
    let record = SpanRecord {
        span_id,
        parent_id: pos.parent,
        name,
        start_us: pos.start_us,
        dur_us,
        tid: pos.tid,
    };
    if pos.parent != 0 {
        match st.active.get_mut(&key) {
            Some(t) if t.spans.len() < MAX_SPANS_PER_TRACE => t.spans.push(record),
            Some(t) => t.truncated += 1,
            None => {}
        }
        return;
    }
    let Some(mut t) = st.active.remove(&key) else {
        return;
    };
    st.finished += 1;
    if !(t.sampled || t.retained) {
        st.dropped_unsampled += 1;
        return;
    }
    t.spans.push(record);
    if st.retained.len() >= MAX_RETAINED_TRACES {
        st.retained.pop_front();
        st.evicted_retained += 1;
    }
    st.retained.push_back(TraceRecord {
        trace_id: pos.ctx.trace,
        root_name: name,
        parent_span: t.parent_span,
        request_id: t.request_id,
        start_us: pos.start_us,
        dur_us,
        sampled: t.sampled,
        retain_reasons: t.retain_reasons,
        spans: t.spans,
        truncated: t.truncated,
    });
}

/// An RAII wall-clock span, the one guard of [`span`], [`root_span`] and
/// [`root_span_adopted`]. Dropping it records its elapsed time into the
/// histogram named after the span, whether or not a trace is being kept.
/// When it is part of a trace it is also the current context of its
/// thread while it lives (further spans nest under it) and lands in its
/// trace's span buffer on drop; a root then finalizes the trace.
#[must_use = "dropping the guard closes the span"]
pub struct SpanTimer {
    hist: &'static Histogram,
    name: &'static str,
    start: Instant,
    pos: Option<Position>,
}

fn timer(name: &'static str, at: Option<Open>) -> SpanTimer {
    SpanTimer {
        hist: histogram(name),
        name,
        pos: at.and_then(|at| open_span(name, at)),
        start: Instant::now(),
    }
}

/// Start a span feeding `histogram(name)`: a child of the innermost open
/// span when this thread carries a trace context, a plain timer otherwise.
pub fn span(name: &'static str) -> SpanTimer {
    timer(name, current_context().map(Open::Child))
}

/// Like [`span`], but returns `None` unless the current thread carries a
/// trace context — for hot paths that want per-request attribution when
/// traced but not even a histogram record otherwise (one relaxed atomic
/// load when tracing is off).
pub fn span_if_traced(name: &'static str) -> Option<SpanTimer> {
    current_context().map(|ctx| timer(name, Some(Open::Child(ctx))))
}

/// Mint a new trace with a root span named `name`. With tracing off the
/// guard is a plain timer (no context, no buffering, `trace_id() == None`).
pub fn root_span(name: &'static str) -> SpanTimer {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return timer(name, None);
    }
    let (k, trace) = next_trace_id();
    let sampled = every == 1 || k.is_multiple_of(every);
    timer(
        name,
        Some(Open::Root {
            trace,
            sampled,
            parent_span: 0,
        }),
    )
}

/// Open a root span *adopting* a caller-supplied trace id — how the
/// networked serving layer continues a trace begun by a remote client
/// (the id travels in the `odt-wire/v1` request frame). `parent_span` is
/// the remote caller's span ordinal within that trace (0 when the caller
/// did not say, i.e. the trace roots here): cross-process stitchers use
/// it to attach this process's span tree under the caller's span.
/// Adopted traces are always treated as head-sampled: the client
/// explicitly asked for this trace, so it is never dropped by local
/// 1-in-N sampling. If the id is already active in this process (two
/// clients reusing an id), a locally-minted id is used instead so the
/// traces stay separable.
pub fn root_span_adopted(name: &'static str, trace: TraceId, parent_span: u64) -> SpanTimer {
    timer(
        name,
        enabled().then_some(Open::Root {
            trace,
            sampled: true,
            parent_span,
        }),
    )
}

/// Record a span for an interval that was *measured elsewhere* and has
/// already elapsed (e.g. queue wait, timed by the admission queue before
/// the request's root span existed): a child of the current span,
/// back-dated to start `dur_us` ago. It feeds no histogram (whoever
/// measured the interval did). No-op without a context.
pub fn record_backdated_span(name: &'static str, dur_us: u64) {
    let Some(parent) = current_context() else {
        return;
    };
    let mut st = store().lock().expect("trace store poisoned");
    let Some(t) = st.active.get_mut(&parent.trace.raw()) else {
        return;
    };
    t.next_span += 1;
    let pos = Position {
        ctx: TraceContext {
            trace: parent.trace,
            span: SpanId(t.next_span - 1),
        },
        parent: parent.span.raw(),
        start_us: now_us().saturating_sub(dur_us),
        tid: thread_ordinal(),
    };
    close_span(&mut st, &pos, name, dur_us);
}

impl SpanTimer {
    /// Microseconds elapsed so far (the value recorded at drop keeps
    /// counting until then).
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// The trace this span belongs to (`None` for a plain timer).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.pos.as_ref().map(|p| p.ctx.trace)
    }

    /// Attach the serving-layer request id to this span's trace record.
    pub fn set_request_id(&self, id: u64) {
        let Some(trace) = self.trace_id() else {
            return;
        };
        let mut st = store().lock().expect("trace store poisoned");
        if let Some(t) = st.active.get_mut(&trace.raw()) {
            t.request_id = Some(id);
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let dur_us = self.elapsed_micros();
        // Record into the histogram *before* closing the trace span: the
        // span's own context is still current, so the exemplar of the
        // containing bucket points at this very trace.
        self.hist.record_micros(dur_us);
        if let Some(pos) = self.pos.take() {
            pop_ctx(pos.ctx);
            let mut st = store().lock().expect("trace store poisoned");
            close_span(&mut st, &pos, self.name, dur_us);
        }
    }
}

/// A copy of every retained trace, oldest first.
pub fn retained_traces() -> Vec<TraceRecord> {
    store()
        .lock()
        .expect("trace store poisoned")
        .retained
        .iter()
        .cloned()
        .collect()
}

/// Number of retained traces currently buffered.
pub fn retained_count() -> usize {
    store().lock().expect("trace store poisoned").retained.len()
}

/// Remove and return every retained trace (e.g. between benchmark phases).
pub fn take_retained() -> Vec<TraceRecord> {
    store()
        .lock()
        .expect("trace store poisoned")
        .retained
        .drain(..)
        .collect()
}

/// A copy of every currently open span, across all threads and traces.
pub fn open_spans() -> Vec<OpenSpanRecord> {
    let st = store().lock().expect("trace store poisoned");
    let mut v: Vec<OpenSpanRecord> = st.open.values().cloned().collect();
    v.sort_by_key(|s| (s.trace_id.raw(), s.span_id));
    v
}

/// `(finished, dropped_unsampled, evicted_retained)` lifetime counters.
pub fn trace_stats() -> (u64, u64, u64) {
    let st = store().lock().expect("trace store poisoned");
    (st.finished, st.dropped_unsampled, st.evicted_retained)
}

/// The `odt-tracez/v1` trace object, the one serialisation of a retained
/// trace (`GET /tracez`, the input of `trace_report`). Each span carries
/// its *self* time: its duration minus the durations of its direct
/// children, clamped at zero (children on pool workers can overlap their
/// parent, and overlap goes to the child).
impl json::ToJson for TraceRecord {
    fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            *child_us.entry(s.parent_id).or_insert(0) += s.dur_us;
        }
        json::object(out, |o| {
            o.field("trace_id", self.trace_id)
                .field("root", self.root_name)
                // Remote parent span ordinal (0 = rooted in this process):
                // a stitcher attaches this fragment under that span of the
                // same trace id in the caller's payload.
                .field("parent_span", self.parent_span)
                .field("request_id", self.request_id)
                .field("start_us", self.start_us)
                .field("dur_us", self.dur_us)
                .field("sampled", self.sampled)
                .field("truncated", self.truncated)
                .field("retain_reasons", &self.retain_reasons[..])
                .array("spans", |a| {
                    for s in &self.spans {
                        let children = child_us.get(&s.span_id).copied().unwrap_or(0);
                        a.object(|o| {
                            o.field("span_id", s.span_id)
                                .field("parent_id", s.parent_id)
                                .field("name", s.name)
                                .field("start_us", s.start_us)
                                .field("dur_us", s.dur_us)
                                .field("self_us", s.dur_us.saturating_sub(children))
                                .field("tid", s.tid);
                        });
                    }
                });
        })
    }
}

/// Serialize tests that toggle the process-global sampling state (shared
/// with other in-crate test modules that enable tracing).
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use std::time::Duration;

    fn rendered(t: &TraceRecord) -> String {
        let mut out = String::new();
        t.write_json(&mut out).unwrap();
        out
    }

    /// Serialize trace-store-global tests (sampling counters and the
    /// retained deque are process-wide).
    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        test_gate()
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = lock_tests();
        set_sample_every(0);
        assert!(!enabled());
        let root = root_span("test.trace.off");
        assert_eq!(root.trace_id(), None);
        assert_eq!(current_context(), None);
        force_retain_current("nope"); // must not panic
        drop(root);
    }

    #[test]
    fn root_and_children_form_one_retained_trace() {
        let _g = lock_tests();
        set_sample_every(1);
        let before = retained_count();
        let tid;
        {
            let root = root_span("test.trace.root");
            tid = root.trace_id().expect("sampled trace");
            root.set_request_id(42);
            assert_eq!(current_context().unwrap().trace_id(), tid);
            {
                let _child = crate::span("test.trace.child");
                assert_eq!(current_context().unwrap().span_id().raw(), 2);
                let _grand = crate::span("test.trace.grandchild");
                assert_eq!(current_context().unwrap().span_id().raw(), 3);
            }
            record_backdated_span("test.trace.backdated", 1_000);
        }
        assert_eq!(current_context(), None);
        set_sample_every(0);
        let traces = retained_traces();
        assert_eq!(traces.len(), before + 1);
        let t = traces.iter().find(|t| t.trace_id == tid).expect("retained");
        assert_eq!(t.root_name, "test.trace.root");
        assert_eq!(t.request_id, Some(42));
        assert!(t.sampled);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"test.trace.child"), "{names:?}");
        assert!(names.contains(&"test.trace.grandchild"), "{names:?}");
        assert!(names.contains(&"test.trace.backdated"), "{names:?}");
        assert!(names.contains(&"test.trace.root"), "{names:?}");
        let child = t
            .spans
            .iter()
            .find(|s| s.name == "test.trace.child")
            .unwrap();
        assert_eq!(child.parent_id, 1, "child parents under the root");
        let grand = t
            .spans
            .iter()
            .find(|s| s.name == "test.trace.grandchild")
            .unwrap();
        assert_eq!(grand.parent_id, child.span_id);
        let back = t
            .spans
            .iter()
            .find(|s| s.name == "test.trace.backdated")
            .unwrap();
        assert_eq!(back.dur_us, 1_000);
    }

    #[test]
    fn unsampled_traces_drop_unless_force_retained() {
        let _g = lock_tests();
        set_sample_every(u64::MAX); // k % N == 0 only for k = 0, long past
        let before = retained_count();
        {
            let _root = root_span("test.trace.dropme");
        }
        assert_eq!(retained_count(), before, "unsampled trace dropped");
        let tid;
        {
            let root = root_span("test.trace.keepme");
            tid = root.trace_id().unwrap();
            force_retain_current("deadline_breach");
            assert!(current_is_retained());
        }
        set_sample_every(0);
        let traces = retained_traces();
        let t = traces.iter().find(|t| t.trace_id == tid).expect("retained");
        assert!(!t.sampled);
        assert_eq!(t.retain_reasons, vec!["deadline_breach"]);
    }

    #[test]
    fn trace_ids_are_deterministic_in_mint_order() {
        // Under a pinned seed, two ids minted k apart must reproduce the
        // SplitMix64 stream of that seed: the property the CI double-run
        // check (ODT_TRACE_SEED exported for both runs) rests on.
        let _g = lock_tests();
        set_trace_seed(TRACE_ID_SEED);
        set_sample_every(1);
        let a = root_span("test.trace.det.a");
        let ka = a.trace_id().unwrap();
        drop(a);
        let b = root_span("test.trace.det.b");
        let kb = b.trace_id().unwrap();
        drop(b);
        set_sample_every(0);
        let k = (0..u64::MAX)
            .take(1 << 20)
            .find(|&k| mint_trace_id(TRACE_ID_SEED, k) == ka.raw())
            .expect("id derives from the pinned seed + counter");
        assert_eq!(mint_trace_id(TRACE_ID_SEED, k + 1), kb.raw());
    }

    #[test]
    fn differently_seeded_generators_mint_disjoint_ids() {
        // Two processes with different seeds (the entropy-seeding default)
        // must not mint colliding ids over any realistic window — the
        // cluster relies on this to stitch cross-process traces by id.
        let a: std::collections::BTreeSet<u64> =
            (0..4096).map(|k| mint_trace_id(0xDEAD_BEEF, k)).collect();
        let b: std::collections::BTreeSet<u64> =
            (0..4096).map(|k| mint_trace_id(0x5EED_0002, k)).collect();
        assert_eq!(a.len(), 4096, "no self-collisions");
        assert_eq!(b.len(), 4096, "no self-collisions");
        assert!(a.is_disjoint(&b), "different seeds share an id");
        assert!(!a.contains(&0) && !b.contains(&0), "0 is never minted");
    }

    #[test]
    fn env_seed_pins_the_generator_deterministically() {
        let _g = lock_tests();
        std::env::set_var("ODT_TRACE_SEED", "0x1234abcd");
        std::env::set_var("ODT_TRACE_SAMPLE", "0");
        init_from_env();
        std::env::remove_var("ODT_TRACE_SEED");
        std::env::remove_var("ODT_TRACE_SAMPLE");
        assert_eq!(trace_seed(), 0x1234_abcd);
        // Unset env leaves the pin in place (no unparsable override).
        init_from_env();
        assert_eq!(trace_seed(), 0x1234_abcd);
        set_trace_seed(TRACE_ID_SEED); // restore the suite's pinned seed
    }

    #[test]
    fn default_seed_is_lazily_initialized_entropy() {
        // trace_seed() never returns the 0 sentinel, whatever init order
        // the test suite ran in.
        assert_ne!(trace_seed(), 0);
    }

    #[test]
    fn adopted_root_spans_carry_the_wire_trace_id() {
        let _g = lock_tests();
        set_sample_every(u64::MAX); // local head sampling would drop all
        let wire = TraceId::from_hex("00000000deadbeef").expect("valid hex id");
        {
            let root = root_span_adopted("test.trace.adopted", wire, 7);
            assert_eq!(root.trace_id(), Some(wire));
            let _c = crate::span("test.trace.adopted_child");
        }
        // A collision (same id while the first is still open) re-mints
        // and drops the now-meaningless remote parent ordinal.
        let outer = root_span_adopted("test.trace.adopted", wire, 7);
        let inner = root_span_adopted("test.trace.adopted", wire, 7);
        let inner_id = inner.trace_id().unwrap();
        assert_ne!(inner_id, wire, "colliding adoption must re-mint");
        drop(inner);
        drop(outer);
        set_sample_every(0);
        let traces = retained_traces();
        let t = traces
            .iter()
            .find(|t| t.trace_id == wire && t.root_name == "test.trace.adopted")
            .expect("adopted trace retained despite 1-in-N sampling");
        assert!(t.sampled, "adoption implies sampling");
        assert_eq!(t.parent_span, 7, "remote parent ordinal retained");
        assert!(t.spans.iter().any(|s| s.name == "test.trace.adopted_child"));
        assert!(rendered(t).contains("\"parent_span\":7"), "{}", rendered(t));
        let reminted = traces
            .iter()
            .find(|t| t.trace_id == inner_id)
            .expect("re-minted trace retained");
        assert_eq!(reminted.parent_span, 0, "re-mint drops the remote parent");
    }

    #[test]
    fn from_hex_round_trips_and_rejects_junk() {
        let id = TraceId::from_raw(0xabc0_0000_0000_0001).unwrap();
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        for bad in ["", "0", "zz", "00000000000000000", "0x12"] {
            assert_eq!(TraceId::from_hex(bad), None, "{bad:?}");
        }
        assert_eq!(TraceId::from_raw(0), None);
        // Short forms parse (leading zeros optional on the wire).
        assert_eq!(TraceId::from_hex("ff").map(|t| t.raw()), Some(0xff));
    }

    #[test]
    fn installed_context_parents_cross_thread_spans() {
        let _g = lock_tests();
        set_sample_every(1);
        let tid;
        {
            let root = root_span("test.trace.xthread");
            tid = root.trace_id().unwrap();
            let ctx = current_context().unwrap();
            std::thread::spawn(move || {
                let _guard = install_context(ctx);
                let _s = crate::span("test.trace.worker_span");
            })
            .join()
            .unwrap();
        }
        set_sample_every(0);
        let traces = retained_traces();
        let t = traces.iter().find(|t| t.trace_id == tid).expect("retained");
        let w = t
            .spans
            .iter()
            .find(|s| s.name == "test.trace.worker_span")
            .expect("worker span attributed to the submitting trace");
        assert_eq!(w.parent_id, 1);
        let root_tid = t
            .spans
            .iter()
            .find(|s| s.name == "test.trace.xthread")
            .unwrap()
            .tid;
        assert_ne!(w.tid, root_tid, "worker span carries its own thread");
    }

    #[test]
    fn open_spans_are_visible_until_closed() {
        let _g = lock_tests();
        set_sample_every(1);
        let root = root_span("test.trace.openvis");
        let tid = root.trace_id().unwrap();
        let child = crate::span("test.trace.open_child");
        let open = open_spans();
        assert!(open
            .iter()
            .any(|s| s.trace_id == tid && s.name == "test.trace.openvis"));
        assert!(open
            .iter()
            .any(|s| s.trace_id == tid && s.name == "test.trace.open_child"));
        drop(child);
        drop(root);
        set_sample_every(0);
        assert!(!open_spans().iter().any(|s| s.trace_id == tid));
    }

    fn golden_trace(request_id: Option<u64>, retain_reasons: Vec<&'static str>) -> TraceRecord {
        let span = |span_id, parent_id, name, start_us, dur_us, tid| SpanRecord {
            span_id,
            parent_id,
            name,
            start_us,
            dur_us,
            tid,
        };
        TraceRecord {
            trace_id: TraceId::from_hex("abc123").unwrap(),
            root_name: "serve.\"request\"",
            parent_span: 4,
            request_id,
            start_us: 1_000,
            dur_us: 250,
            sampled: true,
            retain_reasons,
            spans: vec![
                span(2, 1, "stage1.denoise_step", 1_010, 200, 2),
                span(1, 0, "serve.\"request\"", 1_000, 250, 1),
            ],
            truncated: 3,
        }
    }

    #[test]
    fn tracez_trace_object_bytes_are_pinned() {
        assert_eq!(
            rendered(&golden_trace(
                Some(77),
                vec!["deadline_breach", "fallback_rung"]
            )),
            "{\"trace_id\":\"0000000000abc123\",\"root\":\"serve.\\\"request\\\"\",\
             \"parent_span\":4,\"request_id\":77,\"start_us\":1000,\"dur_us\":250,\
             \"sampled\":true,\"truncated\":3,\
             \"retain_reasons\":[\"deadline_breach\",\"fallback_rung\"],\"spans\":[\
             {\"span_id\":2,\"parent_id\":1,\"name\":\"stage1.denoise_step\",\
             \"start_us\":1010,\"dur_us\":200,\"self_us\":200,\"tid\":2},\
             {\"span_id\":1,\"parent_id\":0,\"name\":\"serve.\\\"request\\\"\",\
             \"start_us\":1000,\"dur_us\":250,\"self_us\":50,\"tid\":1}]}"
        );
        let bare = rendered(&golden_trace(None, Vec::new()));
        assert!(
            bare.contains("\"request_id\":null,") && bare.contains("\"retain_reasons\":[],"),
            "{bare}"
        );
    }

    #[test]
    fn spans_record_into_histograms_traced_or_not() {
        {
            let outer = span("test.span.outer");
            {
                let _inner = span("test.span.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(outer.elapsed_micros() >= 2_000);
            assert_eq!(outer.trace_id(), None, "no root on this thread");
        }
        assert_eq!(histogram("test.span.outer").count(), 1);
        assert_eq!(histogram("test.span.inner").count(), 1);
    }

    #[test]
    fn nested_span_timings_are_monotone() {
        // A parent's wall-clock must dominate the sum of its (sequential)
        // children — the property wall-clock attribution rests on.
        {
            let _parent = span("test.span.parent");
            for _ in 0..3 {
                let _child = span("test.span.child");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let parent = histogram("test.span.parent");
        let child = histogram("test.span.child");
        assert_eq!(parent.count(), 1);
        assert_eq!(child.count(), 3);
        assert!(
            parent.max_micros() >= child.sum_micros(),
            "parent {} µs < children sum {} µs",
            parent.max_micros(),
            child.sum_micros()
        );
    }

    #[test]
    fn span_if_traced_is_none_without_context() {
        let _g = lock_tests();
        set_sample_every(0);
        assert!(span_if_traced("test.span.untraced").is_none());
        assert_eq!(histogram("test.span.untraced").count(), 0);
        set_sample_every(1);
        // Enabled but no root installed on this thread: still None.
        assert!(span_if_traced("test.span.untraced").is_none());
        {
            let _root = root_span("test.span.traced_root");
            let sp = span_if_traced("test.span.traced_child");
            assert!(sp.is_some());
        }
        set_sample_every(0);
        assert_eq!(histogram("test.span.traced_child").count(), 1);
    }

    #[test]
    fn a_root_feeds_its_histogram_exactly_once_in_every_sampling_mode() {
        let _g = lock_tests();
        let hist = histogram("test.trace.root_hist");
        let wire = TraceId::from_hex("00000000feedf00d").unwrap();
        // Off, everything kept, and 1-in-N with this trace unsampled.
        for (every, roots) in [(0, 1), (1, 2), (u64::MAX, 3)] {
            set_sample_every(every);
            let before = retained_count();
            drop(root_span("test.trace.root_hist"));
            assert_eq!(hist.count(), roots, "sample_every = {every}");
            assert_eq!(retained_count() - before, usize::from(every == 1));
        }
        set_sample_every(0);
        drop(root_span_adopted("test.trace.root_hist", wire, 3));
        assert_eq!(hist.count(), 4, "an untraced adopted root");
        // A back-dated span was measured by someone else: no histogram.
        set_sample_every(1);
        {
            let _root = root_span("test.trace.root_hist");
            record_backdated_span("test.trace.backdated_hist", 500);
        }
        set_sample_every(0);
        assert_eq!(hist.count(), 5);
        assert_eq!(histogram("test.trace.backdated_hist").count(), 0);
    }

    #[test]
    fn concurrent_adoptions_of_one_wire_id_stay_separate_traces() {
        let _g = lock_tests();
        set_sample_every(1);
        let wire = TraceId::from_hex("00000000c0111de5").unwrap();
        let all_open = std::sync::Barrier::new(4);
        let ids: Vec<TraceId> = std::thread::scope(|s| {
            let adopters: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let root = root_span_adopted("test.trace.race", wire, 9);
                        let _child = span("test.trace.race_child");
                        all_open.wait(); // every root is open at once
                        root.trace_id().unwrap()
                    })
                })
                .collect();
            adopters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        set_sample_every(0);
        let distinct: std::collections::BTreeSet<TraceId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "{ids:?}");
        assert_eq!(ids.iter().filter(|&&id| id == wire).count(), 1, "{ids:?}");
        // No adopter's buffer was replaced: each trace kept its own child.
        let traces = retained_traces();
        for id in ids {
            let t = traces.iter().find(|t| t.trace_id == id).expect("retained");
            assert_eq!(t.spans.len(), 2, "{t:?}");
            assert_eq!(t.parent_span, if id == wire { 9 } else { 0 });
        }
    }
}
