//! # odt-obs — observability for the DOT stack
//!
//! Hand-rolled (the build environment has no crate-registry access, so no
//! `tracing`/`metrics`) and zero-dependency: everything here is `std` only.
//! Three coupled facilities share one global backend:
//!
//! * **Structured events** — [`event`] builds a leveled, named event with
//!   typed fields and an optional human-readable message. Emitted events
//!   land in a bounded in-memory ring buffer ([`recent_events`]) and are
//!   fanned out to pluggable [`Sink`]s: [`StderrSink`] pretty-prints,
//!   [`JsonlSink`] accumulates JSONL and flushes atomically
//!   (write-to-temp-then-rename, so the file on disk is always complete,
//!   valid JSONL), [`FnSink`] adapts any closure (used by tests and by the
//!   legacy `progress` callback shim in `odt-core`).
//! * **Metrics** — a global registry of [`Counter`]s, [`Gauge`]s and
//!   log-bucketed latency [`Histogram`]s keyed by `&'static str` names.
//!   Histograms answer p50/p95/p99/max/mean queries ([`Histogram::summary`]);
//!   [`snapshot`] returns everything for end-of-run reports.
//! * **Spans and request tracing** — [`span`] and [`trace::root_span`]
//!   return the one RAII guard, [`SpanTimer`], which records its wall-clock
//!   duration into the histogram of the same name on drop, so wall-clock
//!   can be attributed per stage (`stage1.denoise_step` inside
//!   `oracle.infer_pits` inside a query) whether or not a trace is kept.
//!   [`trace`] mints per-process trace/span ids (entropy-seeded so cluster
//!   peers never collide; pin the seed via `ODT_TRACE_SEED` for replayable
//!   runs), propagates a thread-local context (explicitly across thread
//!   pools via [`trace::install_context`]), head-samples 1-in-N with
//!   force-retention of anomalous traces, and serialises a retained trace
//!   one way, as the `odt-tracez/v1` trace object. While a context is
//!   installed, spans are children of the innermost open span, events
//!   carry `trace_id`/`span_id` fields, and histograms capture per-bucket
//!   trace-id exemplars ([`HistogramSummary::p99_exemplar`]).
//! * **Flight recorder** — [`flightrec`] dumps the event ring, open spans
//!   and a metrics snapshot as an `odt-flightrec/v1` JSONL black box on
//!   incident triggers (breaker open, SLO breach, panic).
//! * **SLO burn-rate monitor** — [`slo::BurnRateMonitor`] implements
//!   multi-window (fast + slow) error-budget burn alerting over a
//!   deterministic caller-supplied clock.
//! * **Prometheus exposition** — [`expo::render`] serializes the whole
//!   registry as text exposition format 0.0.4 (cumulative `le` buckets
//!   with exact integer-µs bounds, quantile/max gauges per histogram)
//!   for the admin plane's `GET /metrics`.
//! * **Model-quality windows** — [`quality::QualityTracker`] turns a
//!   shadow-scored `(predicted, actual)` travel-time stream into windowed
//!   MAE/MAPE/bias gauges plus a quantile-shift drift score against a
//!   frozen reference window, with edge-triggered alerts wired into the
//!   same SLO and flight-recorder machinery.
//!
//! ## Event taxonomy and metric names
//!
//! DESIGN.md §7 documents the event names (`train.*`, `serve.*`, `run.*`),
//! metric names and the JSONL schema used across the workspace.
//!
//! ```
//! let h = odt_obs::histogram("demo.step");
//! {
//!     let _span = odt_obs::span("demo.step");
//!     // ... timed work ...
//! }
//! assert_eq!(h.count(), 1);
//! odt_obs::event(odt_obs::Level::Info, "demo.done")
//!     .field("steps", 1u64)
//!     .emit();
//! assert!(odt_obs::recent_events().iter().any(|e| e.name == "demo.done"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod expo;
pub mod flightrec;
pub mod json;
mod metrics;
pub mod quality;
mod ring;
pub mod rng;
mod sink;
pub mod slo;
pub mod trace;

pub use event::{emit, event, min_level, set_min_level, Event, EventBuilder, FieldValue, Level};
pub use metrics::{
    bucket_le_us, counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramData,
    HistogramSummary, MetricsSnapshot, NUM_BUCKETS,
};
pub use quality::{QualityConfig, QualitySnapshot, QualityTracker};
pub use ring::{recent_events, ring_capacity, set_ring_capacity};
pub use rng::SplitMix64;
pub use sink::{
    add_sink, atomic_write, flush_sinks, remove_sink, FnSink, JsonlSink, Sink, SinkId, StderrSink,
};
pub use trace::{span, span_if_traced, SpanId, SpanTimer, TraceContext, TraceId};
