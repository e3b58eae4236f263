//! Causal request tracing: trace/span identity, context propagation, head
//! sampling with force-retention, and trace export.
//!
//! A **trace** is one causally-linked unit of work (for the serving stack:
//! one admitted request; for drills: one scenario). It is minted by
//! [`root_span`], which installs a [`TraceContext`] on the current thread.
//! While a context is installed, every [`crate::span`] becomes a **child
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
//! (see [`init_from_env`]) for replayable runs — the CI `trace-smoke`
//! job double-runs `bench_serving` under one explicit seed and diffs the
//! id sets. Span ids are small per-trace ordinals; a span's position in a
//! *cross-process* trace additionally records the remote parent span
//! ordinal carried by `odt-wire/v1` (see [`root_span_adopted`]).
//!
//! **Sampling.** `ODT_TRACE_SAMPLE=N` (see [`init_from_env`]) head-samples
//! 1-in-N traces (`0` = tracing off, `1` = everything). The keep/drop
//! decision is *deferred* to root close: an unsampled trace still buffers
//! its spans, and [`force_retain_current`] (called on deadline breaches,
//! fallback-rung answers, and breaker trips) promotes it to retained —
//! tail-latency outliers are never lost to head sampling. Retained traces
//! land in a bounded in-memory store exported by [`write_chrome_trace`]
//! (Perfetto/chrome-tracing JSON) and [`write_spans_jsonl`] (the input of
//! the `trace_report` analysis bin).

use crate::json;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
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
    /// Request id attached via [`RootSpan::set_request_id`], if any.
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
    root_name: &'static str,
    parent_span: u64,
    request_id: Option<u64>,
    start_us: u64,
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

/// Whether tracing is on (`sample_every() > 0`). One relaxed atomic load —
/// cheap enough for hot paths to check first.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The head-sampling rate: keep 1-in-N traces (0 = tracing off, 1 = all).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Set the head-sampling rate (see [`sample_every`]).
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

/// Live child-span bookkeeping carried by [`crate::SpanTimer`].
pub(crate) struct SpanHandle {
    ctx: TraceContext,
    parent: u64,
    start_us: u64,
    tid: u64,
}

/// Open a child span under the current context, if one is installed.
pub(crate) fn begin_span(name: &'static str) -> Option<SpanHandle> {
    if !enabled() {
        return None;
    }
    let parent = CTX_STACK.with(|s| s.borrow().last().copied())?;
    let start_us = now_us();
    let tid = thread_ordinal();
    let span_id = {
        let mut st = store().lock().expect("trace store poisoned");
        let t = st.active.get_mut(&parent.trace.raw())?;
        let id = t.next_span;
        t.next_span += 1;
        st.open.insert(
            (parent.trace.raw(), id),
            OpenSpanRecord {
                trace_id: parent.trace,
                span_id: id,
                name,
                start_us,
                tid,
            },
        );
        id
    };
    let ctx = TraceContext {
        trace: parent.trace,
        span: SpanId(span_id),
    };
    push_ctx(ctx);
    Some(SpanHandle {
        ctx,
        parent: parent.span.raw(),
        start_us,
        tid,
    })
}

/// Close a span opened by [`begin_span`], recording it into its trace's
/// buffer.
pub(crate) fn end_span(h: SpanHandle, name: &'static str, dur_us: u64) {
    pop_ctx(h.ctx);
    let mut st = store().lock().expect("trace store poisoned");
    st.open.remove(&(h.ctx.trace.raw(), h.ctx.span.raw()));
    if let Some(t) = st.active.get_mut(&h.ctx.trace.raw()) {
        if t.spans.len() < MAX_SPANS_PER_TRACE {
            t.spans.push(SpanRecord {
                span_id: h.ctx.span.raw(),
                parent_id: h.parent,
                name,
                start_us: h.start_us,
                dur_us,
                tid: h.tid,
            });
        } else {
            t.truncated += 1;
        }
    }
}

/// Record a span for an interval that was *measured elsewhere* and has
/// already elapsed (e.g. queue wait, timed by the admission queue before
/// the request's root span existed): a child of the current span,
/// back-dated to start `dur_us` ago. No-op without a context.
pub fn record_backdated_span(name: &'static str, dur_us: u64) {
    let Some(parent) = current_context() else {
        return;
    };
    let end = now_us();
    let tid = thread_ordinal();
    let mut st = store().lock().expect("trace store poisoned");
    if let Some(t) = st.active.get_mut(&parent.trace.raw()) {
        let id = t.next_span;
        t.next_span += 1;
        if t.spans.len() < MAX_SPANS_PER_TRACE {
            t.spans.push(SpanRecord {
                span_id: id,
                parent_id: parent.span.raw(),
                name,
                start_us: end.saturating_sub(dur_us),
                dur_us,
                tid,
            });
        } else {
            t.truncated += 1;
        }
    }
}

/// The root-span guard minted by [`root_span`]. While alive, the current
/// thread carries the new trace's context; dropping it closes the root,
/// records its duration into the histogram named after the root, and
/// finalizes the trace (retain or drop per sampling + force-retention).
#[must_use = "dropping the guard closes the trace"]
pub struct RootSpan {
    inner: Option<RootInner>,
}

struct RootInner {
    ctx: TraceContext,
    start_us: u64,
    start: Instant,
    name: &'static str,
    tid: u64,
}

/// Mint a new trace with a root span named `name`. Inert (no context, no
/// buffering, `trace_id() == None`) when tracing is off.
pub fn root_span(name: &'static str) -> RootSpan {
    let every = sample_every();
    if every == 0 {
        return RootSpan { inner: None };
    }
    let k = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    let sampled = every == 1 || k.is_multiple_of(every);
    let trace = TraceId(mint_trace_id(trace_seed(), k));
    open_root(name, trace, sampled, 0)
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
pub fn root_span_adopted(name: &'static str, trace: TraceId, parent_span: u64) -> RootSpan {
    if sample_every() == 0 {
        return RootSpan { inner: None };
    }
    let collision = {
        let st = store().lock().expect("trace store poisoned");
        st.active.contains_key(&trace.raw())
    };
    let (trace, parent_span) = if collision {
        let k = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        // A re-minted id no longer belongs to the remote trace, so the
        // remote parent ordinal would mislead stitchers: drop it.
        (TraceId(mint_trace_id(trace_seed(), k)), 0)
    } else {
        (trace, parent_span)
    };
    open_root(name, trace, true, parent_span)
}

fn open_root(name: &'static str, trace: TraceId, sampled: bool, parent_span: u64) -> RootSpan {
    let start_us = now_us();
    let tid = thread_ordinal();
    {
        let mut st = store().lock().expect("trace store poisoned");
        st.active.insert(
            trace.raw(),
            ActiveTrace {
                root_name: name,
                parent_span,
                request_id: None,
                start_us,
                sampled,
                retained: false,
                retain_reasons: Vec::new(),
                next_span: 2, // root is span 1
                spans: Vec::new(),
                truncated: 0,
            },
        );
        st.open.insert(
            (trace.raw(), 1),
            OpenSpanRecord {
                trace_id: trace,
                span_id: 1,
                name,
                start_us,
                tid,
            },
        );
    }
    let ctx = TraceContext {
        trace,
        span: SpanId(1),
    };
    push_ctx(ctx);
    RootSpan {
        inner: Some(RootInner {
            ctx,
            start_us,
            start: Instant::now(),
            name,
            tid,
        }),
    }
}

impl RootSpan {
    /// This trace's id (`None` when tracing is off).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| i.ctx.trace)
    }

    /// Attach the serving-layer request id to the trace record.
    pub fn set_request_id(&self, id: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut st = store().lock().expect("trace store poisoned");
        if let Some(t) = st.active.get_mut(&inner.ctx.trace.raw()) {
            t.request_id = Some(id);
        }
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        // Record the root's wall-clock into the histogram of its name
        // while its context is still current, so the exemplar slot of the
        // containing latency bucket points at this very trace.
        crate::metrics::histogram(inner.name).record_micros(dur_us);
        pop_ctx(inner.ctx);
        let mut st = store().lock().expect("trace store poisoned");
        st.open.remove(&(inner.ctx.trace.raw(), 1));
        let Some(mut t) = st.active.remove(&inner.ctx.trace.raw()) else {
            return;
        };
        st.finished += 1;
        if !(t.sampled || t.retained) {
            st.dropped_unsampled += 1;
            return;
        }
        t.spans.push(SpanRecord {
            span_id: 1,
            parent_id: 0,
            name: inner.name,
            start_us: inner.start_us,
            dur_us,
            tid: inner.tid,
        });
        if st.retained.len() >= MAX_RETAINED_TRACES {
            st.retained.pop_front();
            st.evicted_retained += 1;
        }
        st.retained.push_back(TraceRecord {
            trace_id: inner.ctx.trace,
            root_name: t.root_name,
            parent_span: t.parent_span,
            request_id: t.request_id,
            start_us: t.start_us,
            dur_us,
            sampled: t.sampled,
            retain_reasons: std::mem::take(&mut t.retain_reasons),
            spans: std::mem::take(&mut t.spans),
            truncated: t.truncated,
        });
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

/// Serialize one retained trace as JSONL: a `kind:"trace"` header line
/// followed by one `kind:"span"` line per span (no trailing newline).
pub fn trace_to_jsonl(t: &TraceRecord) -> String {
    let mut out = String::with_capacity(128 * (t.spans.len() + 1));
    // Writing into a `String` cannot fail.
    let _ = json::object(&mut out, |o| {
        o.field("kind", "trace")
            .field("trace_id", t.trace_id)
            .field("root", t.root_name)
            .field("parent_span", t.parent_span)
            .field("request_id", t.request_id)
            .field("start_us", t.start_us)
            .field("dur_us", t.dur_us)
            .field("sampled", t.sampled)
            .field("retain_reasons", &t.retain_reasons[..])
            .field("spans", t.spans.len())
            .field("truncated", t.truncated);
    });
    for s in &t.spans {
        out.push('\n');
        // Writing into a `String` cannot fail.
        let _ = json::object(&mut out, |o| {
            o.field("kind", "span")
                .field("trace_id", t.trace_id)
                .field("span_id", s.span_id)
                .field("parent_id", s.parent_id)
                .field("name", s.name)
                .field("start_us", s.start_us)
                .field("dur_us", s.dur_us)
                .field("tid", s.tid);
        });
    }
    out
}

/// Write every retained trace as JSONL (see [`trace_to_jsonl`]) to `path`
/// atomically. Returns the number of traces written.
pub fn write_spans_jsonl(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let traces = retained_traces();
    let mut out = String::new();
    for t in &traces {
        out.push_str(&trace_to_jsonl(t));
        out.push('\n');
    }
    crate::atomic_write(path.as_ref(), out.as_bytes())?;
    Ok(traces.len())
}

/// Write every retained trace as a chrome-tracing / Perfetto-loadable JSON
/// object (`{"traceEvents":[...]}`, complete `ph:"X"` events) to `path`
/// atomically. Returns the number of trace events written.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let traces = retained_traces();
    let mut out = json::object_string(|o| {
        o.field("displayTimeUnit", "ms")
            .array_lines("traceEvents", |a| {
                for t in &traces {
                    let reasons = t.retain_reasons.join(",");
                    for s in &t.spans {
                        a.object(|o| {
                            o.field("ph", "X")
                                .field("pid", 1u8)
                                .field("cat", "odt")
                                .field("name", s.name)
                                .field("ts", s.start_us)
                                .field("dur", s.dur_us)
                                .field("tid", s.tid)
                                .object("args", |o| {
                                    o.field("trace_id", t.trace_id)
                                        .field("span_id", s.span_id)
                                        .field("parent_id", s.parent_id)
                                        .field("sampled", t.sampled)
                                        .field("retained", &reasons);
                                });
                        });
                    }
                }
            });
    });
    out.push('\n');
    crate::atomic_write(path.as_ref(), out.as_bytes())?;
    Ok(traces.iter().map(|t| t.spans.len()).sum())
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
    use std::fs;

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
        let jsonl = trace_to_jsonl(t);
        assert!(
            jsonl.lines().next().unwrap().contains("\"parent_span\":7"),
            "{jsonl}"
        );
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
    fn exports_are_loadable_shapes() {
        let _g = lock_tests();
        set_sample_every(1);
        {
            let _root = root_span("test.trace.export");
            let _c = crate::span("test.trace.export_child");
        }
        set_sample_every(0);
        let dir = std::env::temp_dir();
        let chrome = dir.join(format!("odt_trace_chrome_{}.json", std::process::id()));
        let jsonl = dir.join(format!("odt_trace_spans_{}.jsonl", std::process::id()));
        let n = write_chrome_trace(&chrome).unwrap();
        assert!(n >= 2);
        let content = fs::read_to_string(&chrome).unwrap();
        assert!(content.starts_with("{\"displayTimeUnit\""), "{content}");
        assert!(content.contains("\"ph\":\"X\""));
        assert!(content.contains("\"tid\":"));
        assert!(content.trim_end().ends_with("]}"));
        let t = write_spans_jsonl(&jsonl).unwrap();
        assert!(t >= 1);
        let content = fs::read_to_string(&jsonl).unwrap();
        assert!(content.lines().any(|l| l.contains("\"kind\":\"trace\"")));
        assert!(content.lines().any(|l| l.contains("\"kind\":\"span\"")));
        for line in content.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = fs::remove_file(&chrome);
        let _ = fs::remove_file(&jsonl);
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
    fn span_jsonl_bytes_are_pinned() {
        assert_eq!(
            trace_to_jsonl(&golden_trace(
                Some(77),
                vec!["deadline_breach", "fallback_rung"]
            )),
            "{\"kind\":\"trace\",\"trace_id\":\"0000000000abc123\",\
             \"root\":\"serve.\\\"request\\\"\",\"parent_span\":4,\"request_id\":77,\
             \"start_us\":1000,\"dur_us\":250,\"sampled\":true,\
             \"retain_reasons\":[\"deadline_breach\",\"fallback_rung\"],\"spans\":2,\
             \"truncated\":3}\n\
             {\"kind\":\"span\",\"trace_id\":\"0000000000abc123\",\"span_id\":2,\
             \"parent_id\":1,\"name\":\"stage1.denoise_step\",\"start_us\":1010,\
             \"dur_us\":200,\"tid\":2}\n\
             {\"kind\":\"span\",\"trace_id\":\"0000000000abc123\",\"span_id\":1,\
             \"parent_id\":0,\"name\":\"serve.\\\"request\\\"\",\"start_us\":1000,\
             \"dur_us\":250,\"tid\":1}"
        );
        let bare = trace_to_jsonl(&golden_trace(None, Vec::new()));
        assert!(
            bare.starts_with(
                "{\"kind\":\"trace\",\"trace_id\":\"0000000000abc123\",\
                 \"root\":\"serve.\\\"request\\\"\",\"parent_span\":4,\"request_id\":null,\
                 \"start_us\":1000,\"dur_us\":250,\"sampled\":true,\"retain_reasons\":[],\
                 \"spans\":2,\"truncated\":3}\n"
            ),
            "{bare}"
        );
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let _g = lock_tests();
        let path = std::env::temp_dir().join(format!(
            "odt_trace_chrome_golden_{}.json",
            std::process::id()
        ));
        let kept = take_retained();
        write_chrome_trace(&path).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
        store()
            .lock()
            .unwrap()
            .retained
            .push_back(golden_trace(None, vec!["deadline_breach", "fallback_rung"]));
        let n = write_chrome_trace(&path).unwrap();
        take_retained();
        store().lock().unwrap().retained.extend(kept);
        assert_eq!(n, 2);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"ph\":\"X\",\"pid\":1,\"cat\":\"odt\",\"name\":\"stage1.denoise_step\",\
             \"ts\":1010,\"dur\":200,\"tid\":2,\"args\":{\"trace_id\":\"0000000000abc123\",\
             \"span_id\":2,\"parent_id\":1,\"sampled\":true,\
             \"retained\":\"deadline_breach,fallback_rung\"}},\n\
             {\"ph\":\"X\",\"pid\":1,\"cat\":\"odt\",\"name\":\"serve.\\\"request\\\"\",\
             \"ts\":1000,\"dur\":250,\"tid\":1,\"args\":{\"trace_id\":\"0000000000abc123\",\
             \"span_id\":1,\"parent_id\":0,\"sampled\":true,\
             \"retained\":\"deadline_breach,fallback_rung\"}}\n]}\n"
        );
        let _ = fs::remove_file(&path);
    }
}
