//! Flight recorder: on-incident black-box dumps.
//!
//! When something goes wrong at serving time — a circuit breaker opens, the
//! SLO burn rate crosses its alert thresholds, or a panic escapes — the
//! aggregate metrics that survive the run are not enough to reconstruct
//! *that incident*. The flight recorder freezes the forensic state at the
//! moment of the trigger: the full event ring buffer, every currently open
//! trace span (what each thread was doing), and a metrics snapshot, written
//! as one `odt-flightrec/v1` JSONL file per incident.
//!
//! Dumps are **off by default** (a library test tripping a breaker must not
//! litter the filesystem): nothing is written until [`enable`] points the
//! recorder at a directory, or [`init_from_env`] reads `ODT_FLIGHTREC_DIR`.
//! Dump files are named `flightrec_<seq>_<reason>.jsonl`, written
//! atomically (temp + rename), and capped at [`MAX_DUMPS`] per process so a
//! flapping breaker cannot fill the disk.
//!
//! [`install_panic_hook`] chains a hook that — for panics *not* marked
//! expected via [`suppress_panic_dump`] (chaos-injected faults are caught
//! at the request boundary and must not each produce a dump) — emits a
//! `run.panic` event, flushes all sinks (so JSONL telemetry of a crashed
//! run is never stranded in the autoflush window), and triggers a dump.

use crate::json;
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// JSONL schema tag written in every dump header line.
pub const SCHEMA: &str = "odt-flightrec/v1";

/// Maximum dumps per process; triggers beyond the cap are counted but not
/// written.
pub const MAX_DUMPS: u64 = 64;

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static SUPPRESSED_TRIGGERS: AtomicU64 = AtomicU64::new(0);

struct RecorderState {
    dir: Option<PathBuf>,
    last_dump: Option<PathBuf>,
}

fn state() -> &'static Mutex<RecorderState> {
    static STATE: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(RecorderState {
            dir: None,
            last_dump: None,
        })
    })
}

/// Point the recorder at `dir` (created if missing on first dump) and arm
/// it. Until this (or [`init_from_env`] with `ODT_FLIGHTREC_DIR` set) is
/// called, [`trigger`] is a no-op.
pub fn enable(dir: impl Into<PathBuf>) {
    state().lock().expect("flightrec state poisoned").dir = Some(dir.into());
}

/// Disarm the recorder (no further dumps are written).
pub fn disable() {
    state().lock().expect("flightrec state poisoned").dir = None;
}

/// Whether the recorder is armed.
pub fn enabled() -> bool {
    state()
        .lock()
        .expect("flightrec state poisoned")
        .dir
        .is_some()
}

/// Arm the recorder from `ODT_FLIGHTREC_DIR` (unset or empty leaves it
/// disarmed).
pub fn init_from_env() {
    if let Ok(dir) = std::env::var("ODT_FLIGHTREC_DIR") {
        if !dir.trim().is_empty() {
            enable(dir.trim());
        }
    }
}

/// Number of dumps written so far in this process.
pub fn dump_count() -> u64 {
    DUMP_SEQ.load(Ordering::Relaxed).min(MAX_DUMPS)
}

/// Path of the most recent dump, if any.
pub fn last_dump() -> Option<PathBuf> {
    state()
        .lock()
        .expect("flightrec state poisoned")
        .last_dump
        .clone()
}

fn render_dump(reason: &str, seq: u64) -> String {
    fn line(out: &mut String, members: impl FnOnce(&mut json::Obj<'_, String>)) {
        // Writing into a `String` cannot fail.
        let _ = json::object(out, members);
        out.push('\n');
    }
    let mut out = String::with_capacity(16 * 1024);

    // Header: schema, trigger, and the trace active on the triggering
    // thread (how a chaos-drill report line links to its dump).
    line(&mut out, |o| {
        o.field("schema", SCHEMA)
            .field("kind", "header")
            .field("reason", reason)
            .field("seq", seq)
            .field("ts_us", crate::trace::now_us())
            .field(
                "trace_id",
                crate::trace::current_context().map(|ctx| ctx.trace_id()),
            );
    });

    // The event ring, oldest first.
    for ev in crate::recent_events() {
        line(&mut out, |o| ev.write_members(o.field("kind", "event")));
    }

    // Every span currently open anywhere in the process: what each thread
    // was in the middle of when the incident fired.
    for s in crate::trace::open_spans() {
        line(&mut out, |o| {
            o.field("kind", "open_span")
                .field("trace_id", s.trace_id)
                .field("span_id", s.span_id)
                .field("name", s.name)
                .field("start_us", s.start_us)
                .field("tid", s.tid);
        });
    }

    // Metrics snapshot.
    let snap = crate::snapshot();
    fn scalars<V: json::ToJson>(out: &mut String, kind: &str, rows: &[(&'static str, V)]) {
        for (name, v) in rows {
            line(out, |o| {
                o.field("kind", kind).field("name", name).field("value", v);
            });
        }
    }
    scalars(&mut out, "counter", &snap.counters);
    scalars(&mut out, "gauge", &snap.gauges);
    for (name, s) in &snap.histograms {
        line(&mut out, |o| {
            o.field("kind", "histogram")
                .field("name", name)
                .field("count", s.count)
                .field("mean_us", s.mean_us)
                .field("p50_us", s.p50_us)
                .field("p95_us", s.p95_us)
                .field("p99_us", s.p99_us)
                .field("max_us", s.max_us)
                .field(
                    "p99_exemplar",
                    s.p99_exemplar.and_then(crate::TraceId::from_raw),
                );
        });
    }
    out
}

fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect()
}

/// Dump the black box now, tagged with `reason`. Returns the dump path,
/// or `None` when disarmed, over the [`MAX_DUMPS`] cap, or on I/O failure
/// (the recorder must never take the process down).
pub fn trigger(reason: &str) -> Option<PathBuf> {
    let dir = state()
        .lock()
        .expect("flightrec state poisoned")
        .dir
        .clone()?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_DUMPS {
        SUPPRESSED_TRIGGERS.fetch_add(1, Ordering::Relaxed);
        DUMP_SEQ.store(MAX_DUMPS, Ordering::Relaxed);
        return None;
    }
    let content = render_dump(reason, seq);
    if fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(format!(
        "flightrec_{seq:03}_{}.jsonl",
        sanitize_reason(reason)
    ));
    if crate::atomic_write(&path, content.as_bytes()).is_err() {
        return None;
    }
    crate::counter("flightrec.dumps").inc();
    state().lock().expect("flightrec state poisoned").last_dump = Some(path.clone());
    Some(path)
}

thread_local! {
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard of [`suppress_panic_dump`].
#[must_use = "dropping the guard re-enables panic dumps on this thread"]
pub struct SuppressGuard {
    _priv: (),
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
    }
}

/// Mark panics on this thread as *expected* while the guard lives: the
/// panic hook skips the flush + dump for them. Wrap `catch_unwind` regions
/// where panics are part of normal fault handling (the panic hook runs
/// even for caught panics, and a chaos drill injecting hundreds of panics
/// must not write hundreds of dumps).
pub fn suppress_panic_dump() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard { _priv: () }
}

/// Whether panic dumps are currently suppressed on this thread.
pub fn panic_dump_suppressed() -> bool {
    SUPPRESS.with(|s| s.get() > 0)
}

/// Install (once per process; later calls are no-ops) a panic hook that,
/// for unsuppressed panics, emits a `run.panic` event, flushes every sink,
/// and [`trigger`]s a `"panic"` dump — then chains to the previously
/// installed hook. Install *after* any hook that should run for every
/// panic (e.g. a drill's output silencer), since chaining runs the
/// previous hook last.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_dump_suppressed() {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let location = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                crate::event(crate::Level::Error, "run.panic")
                    .field("message", msg)
                    .field("location", location)
                    .emit();
                crate::flush_sinks();
                let _ = trigger("panic");
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_recorder_writes_nothing() {
        let _g = lock_tests();
        disable();
        assert!(!enabled());
        assert_eq!(trigger("test_disarmed"), None);
    }

    #[test]
    fn armed_trigger_writes_schema_dump() {
        let _g = lock_tests();
        let dir = std::env::temp_dir().join(format!("odt_flightrec_{}", std::process::id()));
        enable(&dir);
        crate::event(crate::Level::Warn, "test.flightrec.marker")
            .field("k", 7u64)
            .emit();
        crate::counter("test.flightrec.counter").inc();
        let path = trigger("unit test!").expect("armed recorder dumps");
        disable();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("unit_test_"));
        let content = fs::read_to_string(&path).unwrap();
        let mut lines = content.lines();
        let header = lines.next().unwrap();
        assert!(
            header.contains("\"schema\":\"odt-flightrec/v1\""),
            "{header}"
        );
        assert!(header.contains("\"kind\":\"header\""), "{header}");
        assert!(header.contains("\"reason\":\"unit test!\""), "{header}");
        assert!(
            content
                .lines()
                .any(|l| l.contains("\"kind\":\"event\"") && l.contains("test.flightrec.marker")),
            "ring events present"
        );
        assert!(
            content.lines().any(|l| l.contains("\"kind\":\"counter\"")
                && l.contains("test.flightrec.counter")),
            "metrics snapshot present"
        );
        for line in content.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(last_dump().as_deref(), Some(path.as_path()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_bytes_are_pinned() {
        let _t = crate::trace::test_gate();
        crate::trace::set_sample_every(1);
        crate::event(crate::Level::Warn, "test.flightrec.golden")
            .field("k", 7u64)
            .msg("marker")
            .emit();
        crate::counter("test.flightrec.golden_counter").add(3);
        crate::gauge("test.flightrec.golden_gauge").set(2.5);
        crate::gauge("test.flightrec.golden_nan").set(f64::NAN);
        crate::histogram("test.flightrec.golden_hist").record_micros(500);
        let untraced = render_dump("no trace", 3);
        let root = crate::trace::root_span("test.flightrec.golden_root");
        let hex = root.trace_id().unwrap().to_hex();
        let dump = render_dump("why \"now\"", 7);
        let open = crate::trace::open_spans()
            .into_iter()
            .find(|s| s.name == "test.flightrec.golden_root")
            .unwrap();
        drop(root);
        crate::trace::set_sample_every(0);

        // Header: the only moving part is the clock.
        let header = dump.lines().next().unwrap();
        let head = "{\"schema\":\"odt-flightrec/v1\",\"kind\":\"header\",\
                    \"reason\":\"why \\\"now\\\"\",\"seq\":7,\"ts_us\":";
        let tail = format!(",\"trace_id\":\"{hex}\"}}");
        assert!(
            header.starts_with(head) && header.ends_with(&tail),
            "{header}"
        );
        let ts = &header[head.len()..header.len() - tail.len()];
        assert!(ts.parse::<u64>().is_ok(), "{header}");
        let header = untraced.lines().next().unwrap();
        assert!(header.ends_with(",\"trace_id\":null}"), "{header}");

        // One line of every body kind.
        let ev = crate::recent_events()
            .into_iter()
            .rev()
            .find(|e| e.name == "test.flightrec.golden")
            .unwrap();
        let hist = crate::snapshot()
            .histograms
            .into_iter()
            .find(|(n, _)| *n == "test.flightrec.golden_hist")
            .unwrap()
            .1;
        for want in [
            format!(
                "{{\"kind\":\"event\",\"ts_us\":{},\"level\":\"warn\",\
                 \"name\":\"test.flightrec.golden\",\"msg\":\"marker\",\"fields\":{{\"k\":7}}}}",
                ev.ts_micros
            ),
            format!(
                "{{\"kind\":\"open_span\",\"trace_id\":\"{hex}\",\"span_id\":1,\
                 \"name\":\"test.flightrec.golden_root\",\"start_us\":{},\"tid\":{}}}",
                open.start_us, open.tid
            ),
            "{\"kind\":\"counter\",\"name\":\"test.flightrec.golden_counter\",\"value\":3}"
                .to_string(),
            "{\"kind\":\"gauge\",\"name\":\"test.flightrec.golden_gauge\",\"value\":2.5}"
                .to_string(),
            "{\"kind\":\"gauge\",\"name\":\"test.flightrec.golden_nan\",\"value\":null}"
                .to_string(),
            format!(
                "{{\"kind\":\"histogram\",\"name\":\"test.flightrec.golden_hist\",\"count\":1,\
                 \"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},\
                 \"p99_exemplar\":null}}",
                hist.mean_us, hist.p50_us, hist.p95_us, hist.p99_us, hist.max_us
            ),
        ] {
            assert!(dump.lines().any(|l| l == want), "missing {want} in {dump}");
        }
        assert!(dump.ends_with("}\n"), "{dump}");
    }

    #[test]
    fn suppression_guard_nests() {
        assert!(!panic_dump_suppressed());
        {
            let _a = suppress_panic_dump();
            assert!(panic_dump_suppressed());
            {
                let _b = suppress_panic_dump();
                assert!(panic_dump_suppressed());
            }
            assert!(panic_dump_suppressed());
        }
        assert!(!panic_dump_suppressed());
    }
}
