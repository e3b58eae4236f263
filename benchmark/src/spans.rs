//! The benchmark's own spans, recorded around its calls into each layer:
//! name, start, end, the span that caused it, and the operation it belongs
//! to. Spans stay in memory and are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NO_PARENT` marks a root.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder for one thread. `t0` is shared by every recorder of a run
/// so spans from the client and the dispatcher thread share a clock.
pub struct Tracer {
    t0: Instant,
    on: bool,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            on: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start recording the operation `op`, or stop recording (`None`).
    pub fn set_op(&mut self, op: Option<u32>) {
        self.on = op.is_some();
        self.op = op.unwrap_or(0);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the enclosing span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Record a span another layer measured and reported (the server's
    /// `service_us`, a training stage's seconds): `duration_us` long, ending
    /// `ends_before_now_us` ago, child of the enclosing span. Where the span
    /// sits inside its parent is an assumption; its length is not.
    pub fn reported(&mut self, name: &'static str, ends_before_now_us: u64, duration_us: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns().saturating_sub(ends_before_now_us * 1_000);
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: end_ns.saturating_sub(duration_us * 1_000),
            end_ns,
        });
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Write span sets (one per recording thread) as JSON lines. `self_ns` is a
/// span's duration minus the part its children cover.
pub fn write_jsonl(path: &Path, sets: &[(&str, Vec<SpanRec>)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in sets {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\":\"{thread}\",\"span\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            )?;
        }
    }
    w.flush()
}
