//! Pluggable event sinks: stderr pretty-printer, atomic JSONL file writer,
//! and a closure adapter.

use crate::{Event, Level};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An event consumer. Sinks receive every emitted event at or above the
/// global minimum level and may filter further themselves.
pub trait Sink: Send + Sync {
    /// Consume one event.
    fn accept(&self, event: &Event);
    /// Persist any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Handle returned by [`add_sink`], used to unregister.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SinkId(u64);

type SinkList = RwLock<Vec<(u64, Arc<dyn Sink>)>>;

fn sinks() -> &'static SinkList {
    static SINKS: OnceLock<SinkList> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Register a sink; it receives every subsequently emitted event.
pub fn add_sink(sink: Arc<dyn Sink>) -> SinkId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    sinks()
        .write()
        .expect("sink list poisoned")
        .push((id, sink));
    SinkId(id)
}

/// Unregister a sink, returning it so the caller can flush it one last
/// time.
pub fn remove_sink(id: SinkId) -> Option<Arc<dyn Sink>> {
    let mut list = sinks().write().expect("sink list poisoned");
    list.iter()
        .position(|(i, _)| *i == id.0)
        .map(|pos| list.remove(pos).1)
}

/// Flush every registered sink.
pub fn flush_sinks() {
    for (_, s) in sinks().read().expect("sink list poisoned").iter() {
        s.flush();
    }
}

pub(crate) fn dispatch(ev: &Event) {
    for (_, s) in sinks().read().expect("sink list poisoned").iter() {
        s.accept(ev);
    }
}

/// Pretty-prints events at or above its own level to stderr.
pub struct StderrSink {
    min_level: Level,
}

impl StderrSink {
    /// Build with a per-sink level filter.
    pub fn new(min_level: Level) -> Self {
        StderrSink { min_level }
    }
}

impl Sink for StderrSink {
    fn accept(&self, event: &Event) {
        if event.level >= self.min_level {
            eprintln!("{}", event.pretty());
        }
    }
}

/// Adapts any `Fn(&Event)` closure into a sink (test collectors, legacy
/// callback bridges).
pub struct FnSink<F: Fn(&Event) + Send + Sync>(F);

impl<F: Fn(&Event) + Send + Sync> FnSink<F> {
    /// Wrap a closure.
    pub fn new(f: F) -> Self {
        FnSink(f)
    }
}

impl<F: Fn(&Event) + Send + Sync> Sink for FnSink<F> {
    fn accept(&self, event: &Event) {
        (self.0)(event);
    }
}

/// Replace the file at `path` with `bytes`, all or nothing: the bytes go to
/// a temporary file in the same directory, are synced to disk, and only
/// then renamed over `path`. A reader (or a crash at any point) sees the
/// old content or the new, never a torn file, and a rename that reports
/// success names bytes that are on disk. The temporary file is removed
/// when any step fails.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
    let res = fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if res.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    res
}

/// Auto-flush cadence of [`JsonlSink`] (events between flushes), bounding
/// how much telemetry a crash can lose.
const JSONL_AUTOFLUSH_EVERY: usize = 128;

struct JsonlState {
    /// Every accepted event, one JSON line each.
    log: String,
    unflushed: usize,
}

/// Accumulates events as JSONL and flushes **atomically**: the full
/// accumulated log replaces `<path>` through [`atomic_write`], so
/// the file at `path` is always complete, valid JSONL — a crash mid-flush
/// leaves the previous complete version, never a torn line.
pub struct JsonlSink {
    path: PathBuf,
    state: Mutex<JsonlState>,
}

impl JsonlSink {
    /// Build a sink writing to `path` (flushes also happen automatically
    /// every [`JSONL_AUTOFLUSH_EVERY`] events and on drop).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlSink {
            path: path.into(),
            state: Mutex::new(JsonlState {
                log: String::new(),
                unflushed: 0,
            }),
        }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush_locked(&self, state: &mut JsonlState) -> std::io::Result<()> {
        if state.unflushed == 0 && state.log.is_empty() {
            return Ok(());
        }
        atomic_write(&self.path, state.log.as_bytes())?;
        state.unflushed = 0;
        Ok(())
    }
}

impl Sink for JsonlSink {
    fn accept(&self, event: &Event) {
        let mut state = self.state.lock().expect("jsonl sink poisoned");
        // Writing into a `String` cannot fail.
        let _ = crate::json::object(&mut state.log, |o| event.write_members(o));
        state.log.push('\n');
        state.unflushed += 1;
        if state.unflushed >= JSONL_AUTOFLUSH_EVERY {
            // Best-effort: telemetry must never take the run down.
            let _ = self.flush_locked(&mut state);
        }
    }

    fn flush(&self) {
        let mut state = self.state.lock().expect("jsonl sink poisoned");
        let _ = self.flush_locked(&mut state);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fn_sink_receives_emitted_events() {
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        let id = add_sink(Arc::new(FnSink::new(|e: &Event| {
            if e.name == "test.fnsink" {
                SEEN.fetch_add(1, Ordering::Relaxed);
            }
        })));
        event(Level::Info, "test.fnsink").emit();
        event(Level::Info, "test.other").emit();
        remove_sink(id).expect("sink registered");
        event(Level::Info, "test.fnsink").emit();
        assert_eq!(SEEN.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mid_run_sink_sees_only_subsequent_events() {
        // A sink registered mid-run must not replay history (the ring
        // holds the past; sinks are forward-only).
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        event(Level::Info, "test.midrun").field("i", 0u64).emit();
        let seen2 = Arc::clone(&seen);
        let id = add_sink(Arc::new(FnSink::new(move |e: &Event| {
            if e.name == "test.midrun" {
                if let Some(i) = e.field("i").and_then(crate::FieldValue::as_u64) {
                    seen2.lock().unwrap().push(i);
                }
            }
        })));
        event(Level::Info, "test.midrun").field("i", 1u64).emit();
        event(Level::Info, "test.midrun").field("i", 2u64).emit();
        remove_sink(id).expect("sink registered");
        event(Level::Info, "test.midrun").field("i", 3u64).emit();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
        // The pre-registration event is still in the ring, though.
        assert!(crate::recent_events()
            .iter()
            .any(|e| e.name == "test.midrun"
                && e.field("i").and_then(crate::FieldValue::as_u64) == Some(0)));
    }

    #[test]
    fn atomic_write_replaces_whole_files_and_cleans_up_after_a_failed_rename() {
        let dir = std::env::temp_dir().join(format!("odt_obs_atomic_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        // A destination that cannot be renamed over (a directory) is an
        // error, and the temporary file does not outlive it.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("occupied")).unwrap();
        assert!(atomic_write(&blocked, b"x").is_err());
        // So is a destination directory that does not exist.
        assert!(atomic_write(&dir.join("missing").join("file"), b"x").is_err());
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 2, "only `file` and `blocked` remain: {left:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_sink_flushes_atomically_via_rename() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("odt_obs_jsonl_{}.jsonl", std::process::id()));
        let tmp = PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        let _ = fs::remove_file(&path);
        let sink = JsonlSink::new(&path);
        for i in 0..5u64 {
            sink.accept(&event(Level::Info, "test.jsonl").field("i", i).build());
        }
        // Nothing on disk until a flush.
        assert!(!path.exists());
        Sink::flush(&sink);
        // Write-then-rename: the temp file must be gone, the target
        // complete.
        assert!(!tmp.exists(), "temp file must be renamed away");
        let content = fs::read_to_string(&path).expect("flushed file readable");
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with("{\"ts_us\":"), "line {i}: {line}");
            assert!(line.ends_with("}}"), "line {i}: {line}");
            assert!(line.contains(&format!("\"i\":{i}")), "line {i}: {line}");
        }
        // A second flush after more events rewrites the complete file.
        sink.accept(&event(Level::Info, "test.jsonl").field("i", 5u64).build());
        Sink::flush(&sink);
        let content = fs::read_to_string(&path).expect("reflushed file readable");
        assert_eq!(content.lines().count(), 6);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path =
            std::env::temp_dir().join(format!("odt_obs_jsonl_drop_{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        {
            let sink = JsonlSink::new(&path);
            sink.accept(&event(Level::Info, "test.drop").build());
        }
        let content = fs::read_to_string(&path).expect("dropped sink flushed");
        assert_eq!(content.lines().count(), 1);
        let _ = fs::remove_file(&path);
    }
}
