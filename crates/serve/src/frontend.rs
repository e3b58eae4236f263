//! The deadline-aware serving frontend.
//!
//! [`ServeFrontend`] ties the resilience pieces together around any
//! [`RungExecutor`] (the production executor wraps [`odt_core::Dot`], see
//! [`crate::dot`]; tests use mocks):
//!
//! 1. **Admission** — requests pass the executor's `admit` check (strict
//!    query sanitization for the Dot executor) and then a bounded
//!    [`AdmissionQueue`], which refuses the incoming request when full.
//! 2. **Selection** — at dequeue time the remaining deadline budget picks
//!    a rung from the [`LatencyLadder`], skipping rungs whose
//!    [`CircuitBreaker`] is open.
//! 3. **Execution** — the rung runs under `catch_unwind`; a panic, error,
//!    or non-finite output counts as a rung failure and the request
//!    *descends* the ladder instead of failing. A served request that
//!    blew its deadline still answers, but feeds the breaker a failure so
//!    a persistently slow rung trips.
//!
//! All timing is microseconds since the frontend's construction epoch, so
//! the queue/breaker state machines stay deterministic under test.
//!
//! **Tracing.** When tracing is enabled (`odt_obs::trace`), every request
//! that reaches [`ServeFrontend::serve_one`] gets a root span
//! (`serve.request`) carrying its request id, a back-dated
//! `serve.queue_wait` child, and one child span per rung attempt — which
//! the compute pool extends down to kernel level via context propagation.
//! Traces that breach their deadline, expire in the queue, or answer from
//! the fallback rung are force-retained past head sampling; breaker trips
//! retain the triggering trace *and* dump the flight recorder (see
//! [`crate::breaker`]). An optional SLO burn-rate monitor
//! ([`FrontendConfig::slo`]) scores each outcome against the deadline SLA.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use odt_obs::json::{self, ToJson};
use odt_obs::{event, Level};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::ladder::{LadderConfig, LatencyLadder, Rung, MODEL_RUNGS, NUM_RUNGS};
use crate::queue::AdmissionQueue;

/// What an executor's cache probe found for a query (the frontend probes
/// once per request, before rung selection, and gates the two cache rungs
/// on the result).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheProbe {
    /// A fresh cached estimate exists: [`Rung::Cached`] is usable.
    Fresh,
    /// Only a slightly-stale estimate exists: [`Rung::CachedStale`] is
    /// usable, [`Rung::Cached`] is not.
    Stale,
    /// Nothing cached (or no cache at all): neither cache rung is usable.
    Miss,
}

/// One serving path the frontend can route a request to.
///
/// Implementations map each [`Rung`] to an actual estimation strategy and
/// may reject queries up front. `execute` returns the estimated travel
/// time in seconds; `Err`, a panic, or a non-finite value all count as a
/// rung failure and push the request down the ladder.
pub trait RungExecutor {
    /// The query type served (for the Dot executor: `OdtInput`).
    type Query: Clone;

    /// Validate a query before it is admitted; `Err(reason)` sheds it.
    fn admit(&mut self, _query: &Self::Query) -> Result<(), String> {
        Ok(())
    }

    /// Whether this executor can serve `rung` at all. The default opts
    /// out of the cache rungs (executors without a cache keep their exact
    /// pre-cache behavior) and into everything else.
    fn supports(&self, rung: Rung) -> bool {
        !rung.is_cache()
    }

    /// Probe the executor's estimate cache for `query`. Called once per
    /// request before rung selection; the result gates the cache rungs.
    /// Executors without a cache keep the default ([`CacheProbe::Miss`]).
    fn probe(&mut self, _query: &Self::Query) -> CacheProbe {
        CacheProbe::Miss
    }

    /// Serve `query` on `rung`, returning the travel time in seconds.
    fn execute(&mut self, rung: Rung, query: &Self::Query) -> Result<f64, String>;
}

/// Frontend tuning.
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Admission queue capacity (≥ 1).
    pub queue_capacity: usize,
    /// Deadline budget for requests that do not carry one, microseconds.
    pub default_deadline_us: u64,
    /// Degradation-ladder tuning.
    pub ladder: LadderConfig,
    /// Per-rung circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// When set, feed every served/shed outcome into an SLO burn-rate
    /// monitor (`ok` = served within deadline) on the frontend's epoch
    /// clock. `None` (the default) disables SLO accounting.
    pub slo: Option<odt_obs::slo::BurnRateConfig>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            queue_capacity: 256,
            default_deadline_us: 1_000_000,
            ladder: LadderConfig::default(),
            breaker: BreakerConfig::default(),
            slo: None,
        }
    }
}

/// A request admitted to the queue. `deadline_us` is absolute, on the
/// frontend's epoch clock.
pub struct Request<Q> {
    /// Frontend-assigned id, dense from 0 in submission order.
    pub id: u64,
    /// The query to serve.
    pub query: Q,
    /// Absolute deadline (µs since the frontend epoch).
    pub deadline_us: u64,
    /// How long ago the request arrived when it was submitted, µs; its
    /// reported queue wait starts there.
    pub age_us: u64,
    /// A caller-propagated trace id (the `odt-wire/v1` `trace` field):
    /// when set, the request's root span *adopts* it instead of minting a
    /// local id, so client and server observe the same trace.
    pub wire_trace: Option<odt_obs::TraceId>,
    /// The caller's span id (the `odt-wire/v1` `parent_span` field): when
    /// nonzero (and `wire_trace` is set), the adopted root span records it
    /// as its parent, so cross-process stitchers can hang this process's
    /// fragment under the originating span. `0` means locally rooted.
    pub wire_parent: u64,
}

/// Why a request was refused instead of served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was full, so the incoming request was refused.
    QueueFull,
    /// The request's deadline expired *while it sat in the queue*,
    /// discovered at dequeue. Distinct from [`ShedReason::QueueFull`] so
    /// overload accounting separates "refused for capacity" from "waited
    /// too long" (the wire error code mirrors this split).
    DeadlineExpiredInQueue,
    /// The executor's admission check rejected the query.
    InvalidQuery,
    /// Every rung including the terminal fallback failed (should not
    /// happen; kept so the frontend never panics outward).
    Internal,
}

impl ShedReason {
    /// Short tag for reports and wire error codes.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpiredInQueue => "queue_expired",
            ShedReason::InvalidQuery => "invalid_query",
            ShedReason::Internal => "internal",
        }
    }
}

/// The frontend's answer for one submitted request.
#[derive(Clone, Debug)]
pub enum Response {
    /// The request was served (possibly by a degraded rung).
    Served {
        /// Request id.
        id: u64,
        /// Estimated travel time, seconds. Always finite.
        seconds: f64,
        /// The rung that produced the answer.
        rung: Rung,
        /// Time from arrival (submission less its `age_us`) to dequeue, µs.
        queue_wait_us: u64,
        /// Service time on the answering rung (failed attempts on higher
        /// rungs are not included), µs.
        service_us: u64,
        /// Whether the answer landed within the deadline.
        deadline_met: bool,
        /// Whether a rung below full fidelity answered.
        downgraded: bool,
    },
    /// The request was refused.
    Shed {
        /// Request id (dense ids are assigned even to shed requests).
        id: u64,
        /// Why it was refused.
        reason: ShedReason,
        /// Human-readable detail (e.g. the admission rejection reason).
        detail: String,
    },
}

impl Response {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Served { id, .. } | Response::Shed { id, .. } => *id,
        }
    }

    /// Whether the request was served.
    pub fn is_served(&self) -> bool {
        matches!(self, Response::Served { .. })
    }
}

/// Aggregate frontend counters for reports and drills.
#[derive(Clone, Debug, Default)]
pub struct FrontendSnapshot {
    /// Requests submitted (served + shed).
    pub submitted: u64,
    /// Requests that passed admission and entered the queue.
    pub admitted: u64,
    /// Requests answered by some rung.
    pub served: u64,
    /// Sheds because the queue was full.
    pub shed_queue_full: u64,
    /// Sheds because the deadline expired while queued (`queue_expired`).
    pub shed_deadline: u64,
    /// Sheds by the executor's admission check.
    pub shed_invalid: u64,
    /// Sheds because every rung failed.
    pub shed_internal: u64,
    /// Answers per rung, ladder order.
    pub rung_hits: [u64; NUM_RUNGS],
    /// Failed attempts per rung, ladder order.
    pub rung_failures: [u64; NUM_RUNGS],
    /// Breaker trips per model-backed rung.
    pub breaker_trips: [u64; MODEL_RUNGS],
    /// Breaker state names per model-backed rung.
    pub breaker_states: [&'static str; MODEL_RUNGS],
    /// Served requests that landed within their deadline.
    pub deadline_met: u64,
    /// Served requests that blew their deadline.
    pub deadline_missed: u64,
    /// SLO burn-rate state, when [`FrontendConfig::slo`] is configured.
    pub slo: Option<odt_obs::slo::BurnRateSnapshot>,
    /// The latency ladder's live per-rung cost estimates (µs, ladder
    /// order) at snapshot time — what selection is currently using.
    pub ladder_cost_us: [u64; NUM_RUNGS],
}

/// The one JSON spelling of the snapshot (`/varz`, the server's exit report,
/// the drill lines): per-rung arrays keyed by [`Rung::name`], shed counters
/// by [`ShedReason::name`]; breakers stay arrays over the model rungs.
impl ToJson for FrontendSnapshot {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        fn by_rung<W: fmt::Write>(o: &mut json::Obj<'_, W>, key: &str, v: &[u64; NUM_RUNGS]) {
            o.object(key, |o| {
                for (rung, n) in Rung::ALL.iter().zip(v) {
                    o.field(rung.name(), n);
                }
            });
        }
        json::object(out, |o| {
            o.field("submitted", self.submitted)
                .field("admitted", self.admitted)
                .field("served", self.served)
                .object("shed", |o| {
                    o.field(ShedReason::QueueFull.name(), self.shed_queue_full)
                        .field(
                            ShedReason::DeadlineExpiredInQueue.name(),
                            self.shed_deadline,
                        )
                        .field(ShedReason::InvalidQuery.name(), self.shed_invalid)
                        .field(ShedReason::Internal.name(), self.shed_internal);
                });
            by_rung(o, "rung_hits", &self.rung_hits);
            by_rung(o, "rung_failures", &self.rung_failures);
            by_rung(o, "ladder_cost_us", &self.ladder_cost_us);
            o.object("breaker", |o| {
                o.field("trips", self.breaker_trips)
                    .field("states", self.breaker_states);
            })
            .object("deadline", |o| {
                o.field("met", self.deadline_met)
                    .field("missed", self.deadline_missed);
            })
            .field("slo", self.slo);
        })
    }
}

/// The deadline-aware serving frontend. See the module docs.
pub struct ServeFrontend<E: RungExecutor> {
    cfg: FrontendConfig,
    exec: E,
    queue: AdmissionQueue<Request<E::Query>>,
    ladder: LatencyLadder,
    breakers: [CircuitBreaker; MODEL_RUNGS],
    epoch: Instant,
    next_id: u64,
    snap: FrontendSnapshot,
    slo: Option<odt_obs::slo::BurnRateMonitor>,
}

impl<E: RungExecutor> ServeFrontend<E> {
    /// A frontend over `exec` with the given tuning.
    pub fn new(exec: E, cfg: FrontendConfig) -> Self {
        let breakers =
            std::array::from_fn(|i| CircuitBreaker::new(Rung::from_index(i).name(), cfg.breaker));
        ServeFrontend {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            ladder: LatencyLadder::new(cfg.ladder),
            breakers,
            exec,
            slo: cfg.slo.map(odt_obs::slo::BurnRateMonitor::new),
            cfg,
            epoch: Instant::now(),
            next_id: 0,
            snap: FrontendSnapshot::default(),
        }
    }

    /// Microseconds since the frontend epoch (the clock every internal
    /// state machine runs on).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The wrapped executor (e.g. to reconfigure chaos between phases).
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.exec
    }

    /// The live latency ladder.
    pub fn ladder(&self) -> &LatencyLadder {
        &self.ladder
    }

    /// The breaker state guarding a model-backed rung.
    pub fn breaker_state(&self, rung: Rung) -> Option<BreakerState> {
        if rung.is_terminal() {
            None
        } else {
            Some(self.breakers[rung.index()].state())
        }
    }

    /// Current aggregate counters.
    pub fn snapshot(&self) -> FrontendSnapshot {
        let mut s = self.snap.clone();
        for i in 0..MODEL_RUNGS {
            s.breaker_trips[i] = self.breakers[i].trips();
            s.breaker_states[i] = self.breakers[i].state().name();
        }
        s.slo = self.slo.as_ref().map(|m| m.snapshot(self.now_us()));
        s.ladder_cost_us = self.ladder.costs();
        s
    }

    /// Seed the latency ladder by running each query once per model-backed
    /// rung, outside deadline accounting. Failures are ignored (they still
    /// inform the breakers). Call before a drill or benchmark so selection
    /// starts from measured costs instead of priors.
    pub fn warmup(&mut self, queries: &[E::Query]) {
        for q in queries {
            for rung in Rung::ALL {
                // Cache rungs are probe-gated and near-free; executing
                // them cold would only feed their breakers spurious
                // failures, so warmup leaves their priors in place.
                if rung.is_cache() {
                    continue;
                }
                let now = self.now_us();
                let sp = odt_obs::span(rung.spec().hist);
                let exec = &mut self.exec;
                // Warmup probes rungs that may legitimately panic (chaos
                // executors): those panics are caught here and must not
                // each produce a flight-recorder dump.
                let suppress = odt_obs::flightrec::suppress_panic_dump();
                let outcome = catch_unwind(AssertUnwindSafe(|| exec.execute(rung, q)));
                drop(suppress);
                let micros = sp.elapsed_micros();
                drop(sp); // records `micros` (±ns) into the rung histogram
                self.ladder.observe(rung, micros);
                let ok = matches!(&outcome, Ok(Ok(v)) if v.is_finite());
                if !rung.is_terminal() {
                    if ok {
                        self.breakers[rung.index()].record_success(now);
                    } else {
                        self.breakers[rung.index()].record_failure(now);
                    }
                }
            }
        }
    }

    /// Submit one request. `deadline_us` is a *budget* from now (the
    /// configured default when `None`). Returns the assigned id, or the
    /// shed response if the request never made it into the queue.
    pub fn submit(&mut self, query: E::Query, deadline_us: Option<u64>) -> Result<u64, Response> {
        self.submit_traced(query, deadline_us, 0, None, 0)
    }

    /// [`Self::submit`] as the networked frontend calls it. `age_us` is how
    /// long ago the request arrived (its frame was read): the queue wait it
    /// reports and its `serve.queue_wait` span start there, while
    /// `deadline_us` still counts from now. `wire_trace` is the client's
    /// `odt-wire/v1` trace id, which the server's spans join instead of
    /// minting a fresh one; `wire_parent` is the caller's span id (`0` =
    /// locally rooted), meaningful only when `wire_trace` is set.
    pub fn submit_traced(
        &mut self,
        query: E::Query,
        deadline_us: Option<u64>,
        age_us: u64,
        wire_trace: Option<odt_obs::TraceId>,
        wire_parent: u64,
    ) -> Result<u64, Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.snap.submitted += 1;

        if let Err(detail) = self.exec.admit(&query) {
            self.snap.shed_invalid += 1;
            event(Level::Warn, "serve.request.shed")
                .field("reason", ShedReason::InvalidQuery.name())
                .emit();
            return Err(Response::Shed {
                id,
                reason: ShedReason::InvalidQuery,
                detail,
            });
        }

        let now = self.now_us();
        let budget = deadline_us.unwrap_or(self.cfg.default_deadline_us);
        let req = Request {
            id,
            query,
            deadline_us: now.saturating_add(budget),
            age_us,
            wire_trace,
            wire_parent,
        };
        match self.queue.push(req, now) {
            Ok(()) => {
                self.snap.admitted += 1;
                Ok(id)
            }
            Err(_) => {
                self.snap.shed_queue_full += 1;
                event(Level::Warn, "serve.request.shed")
                    .field("reason", ShedReason::QueueFull.name())
                    .emit();
                Err(Response::Shed {
                    id,
                    reason: ShedReason::QueueFull,
                    detail: format!("queue at capacity {}", self.queue.capacity()),
                })
            }
        }
    }

    /// Serve queued requests until the queue is empty.
    pub fn drain(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        loop {
            let now = self.now_us();
            let Some((req, wait)) = self.queue.pop(now) else {
                break;
            };
            let wait = wait + req.age_us;
            out.push(self.serve_one(req, wait));
        }
        out
    }

    /// Submit a wave of `(query, deadline budget)` pairs, then drain the
    /// queue. Shed and served responses are returned together.
    pub fn process_wave(
        &mut self,
        wave: impl IntoIterator<Item = (E::Query, Option<u64>)>,
    ) -> Vec<Response> {
        let mut out = Vec::new();
        for (query, deadline) in wave {
            if let Err(shed) = self.submit(query, deadline) {
                out.push(shed);
            }
        }
        out.extend(self.drain());
        out
    }

    fn serve_one(&mut self, req: Request<E::Query>, queue_wait_us: u64) -> Response {
        // Root span for the whole request (with tracing off, just the
        // `serve.request` histogram's timer). While a traced one lives,
        // every span/event/histogram sample on this thread, and via pool
        // context propagation on compute workers, is attributed to its
        // trace. A wire-propagated id is adopted: one trace, both ends.
        let root = match req.wire_trace {
            Some(id) => odt_obs::trace::root_span_adopted("serve.request", id, req.wire_parent),
            None => odt_obs::trace::root_span("serve.request"),
        };
        root.set_request_id(req.id);
        odt_obs::trace::record_backdated_span("serve.queue_wait", queue_wait_us);
        // One cache probe per request, before selection: the result gates
        // the two cache rungs for every iteration of the descent loop (a
        // cache-rung failure mid-descent must not re-probe).
        let probe = self.exec.probe(&req.query);
        let mut floor = 0usize;
        loop {
            let now = self.now_us();
            let remaining = req.deadline_us.saturating_sub(now);
            if remaining == 0 && floor == 0 {
                // Expired before any attempt: refuse rather than burn work.
                self.snap.shed_deadline += 1;
                odt_obs::trace::force_retain_current("deadline_expired_in_queue");
                event(Level::Warn, "serve.request.shed")
                    .field("reason", ShedReason::DeadlineExpiredInQueue.name())
                    .emit();
                self.record_slo(false);
                return Response::Shed {
                    id: req.id,
                    reason: ShedReason::DeadlineExpiredInQueue,
                    detail: format!("waited {queue_wait_us}us in queue"),
                };
            }

            // Breaker + probe + support gating, computed before selection
            // so the closure borrow does not conflict with
            // `&mut self.breakers`. A cache rung is usable only when the
            // executor has a cache (`supports`), its breaker allows, and
            // the probe found an entry of the right freshness.
            let mut usable = [true; NUM_RUNGS];
            for (i, usable_i) in usable.iter_mut().take(MODEL_RUNGS).enumerate() {
                let rung = Rung::from_index(i);
                let mut ok = i >= floor && self.exec.supports(rung) && self.breakers[i].allow(now);
                if rung.is_cache() {
                    ok = ok
                        && match rung {
                            Rung::Cached => probe == CacheProbe::Fresh,
                            _ => probe != CacheProbe::Miss,
                        };
                }
                *usable_i = ok;
            }
            let rung = self.ladder.select(remaining, |r| usable[r.index()]);
            let rung = if rung.index() < floor {
                Rung::from_index(floor.min(Rung::Fallback.index()))
            } else {
                rung
            };

            // The rung attempt is a trace child span; its drop records the
            // service time into the per-rung histogram exactly as the
            // manual record here used to.
            let sp = odt_obs::span(rung.spec().hist);
            let exec = &mut self.exec;
            // Executor panics (chaos-injected or real) are caught at this
            // boundary and handled as rung failures — suppress the panic
            // hook's flight-recorder dump for them.
            let suppress = odt_obs::flightrec::suppress_panic_dump();
            let outcome = catch_unwind(AssertUnwindSafe(|| exec.execute(rung, &req.query)));
            drop(suppress);
            let service_us = sp.elapsed_micros();
            drop(sp);
            self.ladder.observe(rung, service_us);
            let after = self.now_us();

            match outcome {
                Ok(Ok(seconds)) if seconds.is_finite() => {
                    self.snap.served += 1;
                    self.snap.rung_hits[rung.index()] += 1;
                    let deadline_met = after <= req.deadline_us;
                    if deadline_met {
                        self.snap.deadline_met += 1;
                    } else {
                        self.snap.deadline_missed += 1;
                        odt_obs::trace::force_retain_current("deadline_breach");
                    }
                    if rung == Rung::Fallback {
                        odt_obs::trace::force_retain_current("fallback_rung");
                    }
                    if !rung.is_terminal() {
                        // A served-but-late answer is a *latency* failure:
                        // it must push the breaker toward routing around
                        // this rung, even though the caller got an answer.
                        if deadline_met {
                            self.breakers[rung.index()].record_success(after);
                        } else {
                            self.breakers[rung.index()].record_failure(after);
                        }
                    }
                    self.record_slo(deadline_met);
                    return Response::Served {
                        id: req.id,
                        seconds,
                        rung,
                        queue_wait_us,
                        service_us,
                        deadline_met,
                        downgraded: rung.index() > Rung::Full.index(),
                    };
                }
                other => {
                    // Err(_), NaN/±inf output, or a caught panic.
                    self.snap.rung_failures[rung.index()] += 1;
                    odt_obs::counter("serve.rung.failures").inc();
                    let kind = match &other {
                        Ok(Ok(_)) => "non_finite",
                        Ok(Err(_)) => "error",
                        Err(_) => "panic",
                    };
                    event(Level::Warn, "serve.rung.failure")
                        .field("rung", rung.name())
                        .field("kind", kind)
                        .emit();
                    if !rung.is_terminal() {
                        self.breakers[rung.index()].record_failure(after);
                        floor = rung.index() + 1;
                        continue;
                    }
                    // Even the fallback failed: give up on this request.
                    self.snap.shed_internal += 1;
                    odt_obs::trace::force_retain_current("internal_shed");
                    self.record_slo(false);
                    return Response::Shed {
                        id: req.id,
                        reason: ShedReason::Internal,
                        detail: format!("terminal rung failed ({kind})"),
                    };
                }
            }
        }
    }

    /// Feed one terminal request outcome into the SLO monitor, if one is
    /// configured (`ok` = the request was served within its deadline).
    fn record_slo(&mut self, ok: bool) {
        let now = self.now_us();
        if let Some(m) = self.slo.as_mut() {
            m.record(ok, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the process-global trace sampling rate.
    fn trace_test_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Scriptable executor: per-rung behavior, switchable mid-test. The
    /// default `supports`/`probe` opt out of the cache rungs; set
    /// `probe_result` to gate them in.
    struct MockExec {
        /// seconds returned per rung; NaN simulates a poisoned output.
        value: [f64; NUM_RUNGS],
        /// rungs that return Err.
        fail: [bool; NUM_RUNGS],
        /// rungs that panic.
        panic: [bool; NUM_RUNGS],
        /// queries containing this marker are refused at admission.
        reject_marker: Option<&'static str>,
        /// `Some(probe)` makes the mock cache-capable with that probe
        /// result for every query; `None` keeps the trait defaults.
        probe_result: Option<CacheProbe>,
        calls: Vec<Rung>,
    }

    impl MockExec {
        fn healthy() -> Self {
            MockExec {
                value: [550.0, 600.0, 610.0, 620.0, 650.0, 900.0],
                fail: [false; NUM_RUNGS],
                panic: [false; NUM_RUNGS],
                reject_marker: None,
                probe_result: None,
                calls: Vec::new(),
            }
        }
    }

    impl RungExecutor for MockExec {
        type Query = &'static str;

        fn admit(&mut self, query: &Self::Query) -> Result<(), String> {
            match self.reject_marker {
                Some(m) if query.contains(m) => Err(format!("marker {m}")),
                _ => Ok(()),
            }
        }

        fn supports(&self, rung: Rung) -> bool {
            !rung.is_cache() || self.probe_result.is_some()
        }

        fn probe(&mut self, _query: &Self::Query) -> CacheProbe {
            self.probe_result.unwrap_or(CacheProbe::Miss)
        }

        fn execute(&mut self, rung: Rung, _query: &Self::Query) -> Result<f64, String> {
            self.calls.push(rung);
            if self.panic[rung.index()] {
                panic!("injected panic on {}", rung.name());
            }
            if self.fail[rung.index()] {
                return Err(format!("injected error on {}", rung.name()));
            }
            Ok(self.value[rung.index()])
        }
    }

    fn cfg() -> FrontendConfig {
        FrontendConfig {
            queue_capacity: 8,
            // Millisecond-scale priors so mock execution (≈ µs) always
            // "fits" and queue wait cannot starve the budget on slow CI.
            ladder: LadderConfig {
                prior_us: [1, 50_000, 20_000, 10_000, 1, 1],
                min_samples: u64::MAX, // pin costs to the priors
            },
            ..FrontendConfig::default()
        }
    }

    #[test]
    fn healthy_requests_serve_on_full_fidelity() {
        let mut fe = ServeFrontend::new(MockExec::healthy(), cfg());
        let out = fe.process_wave((0..4).map(|_| ("od", None)));
        assert_eq!(out.len(), 4);
        for r in &out {
            match r {
                Response::Served {
                    rung,
                    seconds,
                    deadline_met,
                    downgraded,
                    ..
                } => {
                    assert_eq!(*rung, Rung::Full);
                    assert_eq!(*seconds, 600.0);
                    assert!(*deadline_met);
                    assert!(!*downgraded);
                }
                other => panic!("expected Served, got {other:?}"),
            }
        }
        let s = fe.snapshot();
        assert_eq!(s.served, 4);
        assert_eq!(s.rung_hits[Rung::Full.index()], 4);
        assert_eq!(s.deadline_met, 4);
    }

    #[test]
    fn fresh_probe_serves_from_the_cached_rung() {
        let mut exec = MockExec::healthy();
        exec.probe_result = Some(CacheProbe::Fresh);
        let mut fe = ServeFrontend::new(exec, cfg());
        let out = fe.process_wave([("od", None)]);
        match &out[0] {
            Response::Served {
                rung,
                seconds,
                downgraded,
                ..
            } => {
                assert_eq!(*rung, Rung::Cached);
                assert_eq!(*seconds, 550.0);
                assert!(!*downgraded, "a fresh cache hit is not a downgrade");
            }
            other => panic!("expected Served, got {other:?}"),
        }
        assert_eq!(fe.snapshot().rung_hits[Rung::Cached.index()], 1);
    }

    #[test]
    fn stale_probe_only_answers_when_model_rungs_do_not_fit() {
        let mut exec = MockExec::healthy();
        exec.probe_result = Some(CacheProbe::Stale);
        let mut fe = ServeFrontend::new(exec, cfg());
        // Plenty of budget: live inference outranks the stale tier.
        let out = fe.process_wave([("od", None)]);
        assert!(matches!(
            &out[0],
            Response::Served {
                rung: Rung::Full,
                ..
            }
        ));
        // 5ms budget: no model rung fits the priors, the stale tier does.
        let out = fe.process_wave([("od", Some(5_000u64))]);
        match &out[0] {
            Response::Served {
                rung,
                seconds,
                downgraded,
                ..
            } => {
                assert_eq!(*rung, Rung::CachedStale);
                assert_eq!(*seconds, 650.0);
                assert!(*downgraded);
            }
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn cache_miss_leaves_cache_rungs_untouched() {
        let mut exec = MockExec::healthy();
        exec.probe_result = Some(CacheProbe::Miss);
        let mut fe = ServeFrontend::new(exec, cfg());
        let out = fe.process_wave([("od", None), ("od", Some(5_000u64))]);
        assert!(out.iter().all(Response::is_served));
        let s = fe.snapshot();
        assert_eq!(s.rung_hits[Rung::Cached.index()], 0);
        assert_eq!(s.rung_hits[Rung::CachedStale.index()], 0);
        assert!(!fe.executor_mut().calls.iter().any(|r| r.is_cache()));
    }

    #[test]
    fn cached_rung_failures_trip_its_breaker_and_fall_through() {
        let mut exec = MockExec::healthy();
        exec.probe_result = Some(CacheProbe::Fresh);
        exec.panic[Rung::Cached.index()] = true;
        let mut fe = ServeFrontend::new(
            exec,
            FrontendConfig {
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    base_backoff_us: 60_000_000,
                    ..BreakerConfig::default()
                },
                ..cfg()
            },
        );
        let out = fe.process_wave((0..4).map(|_| ("od", None)));
        assert!(out.iter().all(Response::is_served));
        let s = fe.snapshot();
        // Every request still answered — by Full once the cache rung's
        // own breaker opened.
        assert_eq!(s.rung_hits[Rung::Full.index()], 4);
        assert_eq!(s.breaker_trips[Rung::Cached.index()], 1);
        assert_eq!(s.rung_failures[Rung::Cached.index()], 2);
        assert_eq!(fe.breaker_state(Rung::Cached), Some(BreakerState::Open));
    }

    #[test]
    fn tight_deadline_selects_a_faster_rung() {
        let mut fe = ServeFrontend::new(MockExec::healthy(), cfg());
        // Budget 15ms: priors say only DdimReduced (10ms) and Fallback fit.
        // Queue wait eats into the budget, so accept either of the two.
        let out = fe.process_wave([("od", Some(15_000u64))]);
        match &out[0] {
            Response::Served {
                rung, downgraded, ..
            } => {
                assert!(rung.index() >= Rung::DdimReduced.index(), "{rung:?}");
                assert!(*downgraded);
            }
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn failures_descend_the_ladder_not_the_request() {
        let mut exec = MockExec::healthy();
        exec.fail[Rung::Full.index()] = true; // Full errors
        exec.panic[Rung::Ddim.index()] = true; // Ddim panics
        exec.value[Rung::DdimReduced.index()] = f64::NAN; // poisoned output
        let mut fe = ServeFrontend::new(exec, cfg());
        let out = fe.process_wave([("od", None)]);
        match &out[0] {
            Response::Served { rung, seconds, .. } => {
                assert_eq!(*rung, Rung::Fallback);
                assert_eq!(*seconds, 900.0);
            }
            other => panic!("expected Served, got {other:?}"),
        }
        let s = fe.snapshot();
        assert_eq!(
            s.rung_failures[Rung::Full.index()..=Rung::DdimReduced.index()],
            [1, 1, 1]
        );
        assert_eq!(s.rung_hits[Rung::Fallback.index()], 1);
    }

    #[test]
    fn repeated_failures_trip_the_breaker_and_route_around() {
        let mut exec = MockExec::healthy();
        exec.fail[Rung::Full.index()] = true;
        let mut fe = ServeFrontend::new(
            exec,
            FrontendConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    base_backoff_us: 60_000_000, // stays open for the test
                    ..BreakerConfig::default()
                },
                ..cfg()
            },
        );
        let out = fe.process_wave((0..5).map(|_| ("od", None)));
        assert!(out.iter().all(Response::is_served));
        assert_eq!(fe.breaker_state(Rung::Full), Some(BreakerState::Open));
        let s = fe.snapshot();
        assert_eq!(s.breaker_trips[Rung::Full.index()], 1);
        // Once open, Full is not attempted: exactly 3 failures recorded.
        assert_eq!(s.rung_failures[Rung::Full.index()], 3);
        assert_eq!(
            s.rung_hits[Rung::Ddim.index()],
            5,
            "all five served by Ddim"
        );
    }

    #[test]
    fn queue_flood_sheds_by_policy() {
        let mut fe = ServeFrontend::new(
            MockExec::healthy(),
            FrontendConfig {
                queue_capacity: 4,
                ..cfg()
            },
        );
        let out = fe.process_wave((0..10).map(|_| ("od", None)));
        let served = out.iter().filter(|r| r.is_served()).count();
        let shed = out.len() - served;
        assert_eq!((served, shed), (4, 6));
        let s = fe.snapshot();
        assert_eq!(s.shed_queue_full, 6);
        assert!(out.iter().any(|r| matches!(
            r,
            Response::Shed {
                reason: ShedReason::QueueFull,
                ..
            }
        )));
    }

    #[test]
    fn invalid_queries_are_refused_at_admission() {
        let mut exec = MockExec::healthy();
        exec.reject_marker = Some("bad");
        let mut fe = ServeFrontend::new(exec, cfg());
        let out = fe.process_wave([("ok", None), ("bad od", None), ("ok", None)]);
        let shed: Vec<_> = out.iter().filter(|r| !r.is_served()).collect();
        assert_eq!(shed.len(), 1);
        assert!(matches!(
            shed[0],
            Response::Shed {
                reason: ShedReason::InvalidQuery,
                ..
            }
        ));
        assert_eq!(fe.snapshot().shed_invalid, 1);
        // Invalid queries never reach the executor.
        assert_eq!(fe.executor_mut().calls.len(), 2);
    }

    #[test]
    fn tracing_attributes_request_spans_and_retains_breaches() {
        /// Sleeps long enough that a 1 ms budget is always breached.
        struct SlowExec;
        impl RungExecutor for SlowExec {
            type Query = &'static str;
            fn execute(&mut self, _r: Rung, _q: &Self::Query) -> Result<f64, String> {
                std::thread::sleep(std::time::Duration::from_millis(3));
                Ok(1.0)
            }
        }
        let _gate = trace_test_gate();
        odt_obs::trace::set_sample_every(1);
        let mut fe = ServeFrontend::new(
            SlowExec,
            FrontendConfig {
                slo: Some(odt_obs::slo::BurnRateConfig::for_drill()),
                ..cfg()
            },
        );
        let out = fe.process_wave([("od", Some(1_000u64))]);
        odt_obs::trace::set_sample_every(0);
        let traces = odt_obs::trace::retained_traces();
        let t = traces
            .iter()
            .rev()
            .find(|t| t.root_name == "serve.request" && t.request_id == Some(0))
            .expect("breached request force-retained");
        assert!(!t.retain_reasons.is_empty(), "{:?}", t.retain_reasons);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"serve.request"), "{names:?}");
        assert!(names.contains(&"serve.queue_wait"), "{names:?}");
        if let Response::Served { deadline_met, .. } = &out[0] {
            assert!(!deadline_met, "3ms service cannot meet a 1ms budget");
            assert!(
                names.iter().any(|n| n.starts_with("serve.rung.")),
                "rung attempt span present: {names:?}"
            );
            assert!(
                t.retain_reasons.contains(&"deadline_breach")
                    || t.retain_reasons.contains(&"fallback_rung"),
                "{:?}",
                t.retain_reasons
            );
        }
        // Every span except the root parents inside the trace.
        for s in &t.spans {
            if s.name != "serve.request" {
                assert!(s.parent_id >= 1, "{s:?}");
            }
        }
        let slo = fe.snapshot().slo.expect("slo monitor configured");
        assert_eq!(slo.total, 1);
        assert_eq!(slo.errors, 1, "breach counts against the SLO");
    }

    #[test]
    fn zero_budget_at_dequeue_is_a_typed_rejection_not_a_panic() {
        // A request whose budget is already gone when it is dequeued must
        // shed with the typed queue_expired reason — straight out, no rung
        // attempt, no panic (satellite: the zero/negative-budget boundary).
        let mut fe = ServeFrontend::new(MockExec::healthy(), cfg());
        let out = fe.process_wave([("od", Some(0u64))]);
        match &out[0] {
            Response::Shed { reason, .. } => {
                assert_eq!(*reason, ShedReason::DeadlineExpiredInQueue);
                assert_eq!(reason.name(), "queue_expired");
            }
            other => panic!("expected queue_expired shed, got {other:?}"),
        }
        let s = fe.snapshot();
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.served, 0);
        // The executor was never invoked for the expired request.
        assert!(fe.executor_mut().calls.is_empty());
    }

    #[test]
    fn wire_trace_ids_are_adopted_by_the_request_root_span() {
        let _gate = trace_test_gate();
        odt_obs::trace::set_sample_every(u64::MAX); // sampling would drop
        let wire = odt_obs::TraceId::from_hex("0000000000c0ffee").unwrap();
        let mut fe = ServeFrontend::new(MockExec::healthy(), cfg());
        fe.submit_traced("od", None, 0, Some(wire), 7).unwrap();
        let out = fe.drain();
        odt_obs::trace::set_sample_every(0);
        assert!(out[0].is_served());
        let traces = odt_obs::trace::retained_traces();
        let t = traces
            .iter()
            .find(|t| t.trace_id == wire)
            .expect("adopted wire trace retained");
        assert_eq!(t.root_name, "serve.request");
        assert_eq!(t.request_id, Some(0));
        assert_eq!(t.parent_span, 7);
    }

    #[test]
    fn an_untraced_request_still_feeds_the_request_histogram() {
        let _gate = trace_test_gate();
        odt_obs::trace::set_sample_every(0);
        let hist = odt_obs::histogram("serve.request");
        let before = hist.count();
        let mut fe = ServeFrontend::new(MockExec::healthy(), cfg());
        let out = fe.process_wave([("a", None), ("b", None), ("c", None)]);
        assert!(out.iter().all(Response::is_served));
        // At least: tests running beside this one serve requests too.
        assert!(hist.count() >= before + 3, "{} -> {}", before, hist.count());
    }

    #[test]
    fn terminal_rung_failure_sheds_internal() {
        let mut exec = MockExec::healthy();
        exec.fail = [true; NUM_RUNGS];
        let mut fe = ServeFrontend::new(exec, cfg());
        let out = fe.process_wave([("od", None)]);
        assert!(matches!(
            &out[0],
            Response::Shed {
                reason: ShedReason::Internal,
                ..
            }
        ));
        assert_eq!(fe.snapshot().shed_internal, 1);
    }
}
