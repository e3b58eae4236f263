//! Leveled, structured events with named fields.

use crate::json::{self, ToJson as _};
use crate::ring;
use crate::sink;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least verbose.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// High-volume diagnostics (per-step timings, cache probes).
    Trace,
    /// Noteworthy internals (checkpoint writes, cache decisions).
    Debug,
    /// Normal progress (stage starts, periodic loss lines).
    Info,
    /// Defensive actions (watchdog trips, fallbacks, unusable checkpoints).
    Warn,
    /// Failures the run survives but must surface (write errors).
    Error,
}

impl Level {
    /// Lower-case name, as used in the JSONL schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// Global minimum level: events below it are dropped at the emit call.
static MIN_LEVEL: AtomicU8 = AtomicU8::new(0); // Trace: record everything

/// Set the global minimum event level.
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global minimum event level.
pub fn min_level() -> Level {
    Level::from_u8(MIN_LEVEL.load(Ordering::Relaxed))
}

/// A typed field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// The value as `i64`, converting integer variants.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldValue::I64(v) => Some(*v),
            FieldValue::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u64`, converting non-negative integer variants.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(v) => Some(*v),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl json::ToJson for FieldValue {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            FieldValue::I64(v) => v.write_json(out),
            FieldValue::U64(v) => v.write_json(out),
            FieldValue::F64(v) => v.write_json(out),
            FieldValue::Bool(v) => v.write_json(out),
            FieldValue::Str(s) => s.write_json(out),
        }
    }
}

macro_rules! impl_from_field {
    ($($ty:ty => $variant:ident via $conv:expr),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue {
                #[allow(clippy::redundant_closure_call)]
                FieldValue::$variant(($conv)(v))
            }
        })*
    };
}

impl_from_field! {
    i64 => I64 via |v| v,
    i32 => I64 via |v: i32| i64::from(v),
    u64 => U64 via |v| v,
    u32 => U64 via |v: u32| u64::from(v),
    u8 => U64 via |v: u8| u64::from(v),
    usize => U64 via |v: usize| v as u64,
    f64 => F64 via |v| v,
    f32 => F64 via |v: f32| f64::from(v),
    bool => Bool via |v| v,
    String => Str via |v| v,
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the UNIX epoch, stamped at build time.
    pub ts_micros: u64,
    /// Severity.
    pub level: Level,
    /// Dot-separated event name (`train.watchdog.trip`).
    pub name: &'static str,
    /// Optional human-readable message (what legacy `progress` callbacks
    /// receive).
    pub msg: String,
    /// Named, typed fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Look up a field by name.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The human-readable message: `msg` when set, otherwise the name plus
    /// rendered fields.
    pub fn message(&self) -> String {
        if !self.msg.is_empty() {
            return self.msg.clone();
        }
        let mut out = self.name.to_string();
        for (k, v) in &self.fields {
            let _ = write!(out, " {k}={v:?}");
        }
        out
    }

    /// Pretty one-line rendering for terminal sinks.
    pub fn pretty(&self) -> String {
        let mut out = format!("[{}] {}", self.level.as_str(), self.name);
        if !self.msg.is_empty() {
            let _ = write!(out, ": {}", self.msg);
        }
        if !self.fields.is_empty() {
            out.push_str(" (");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match v {
                    FieldValue::Str(s) => {
                        let _ = write!(out, "{k}={s}");
                    }
                    other => {
                        let _ = write!(out, "{k}=");
                        let _ = other.write_json(&mut out);
                    }
                }
            }
            out.push(')');
        }
        out
    }

    /// One JSONL line (no trailing newline):
    /// `{"ts_us":…,"level":"…","name":"…","msg":"…","fields":{…}}`.
    pub fn to_json(&self) -> String {
        json::object_string(|o| self.write_members(o))
    }

    /// The members of [`Event::to_json`]'s object, appended to one the
    /// caller opened (the flight recorder puts a `kind` in front).
    pub(crate) fn write_members<W: fmt::Write>(&self, o: &mut json::Obj<'_, W>) {
        o.field("ts_us", self.ts_micros)
            .field("level", self.level.as_str())
            .field("name", self.name)
            .field("msg", &self.msg)
            .object("fields", |f| {
                for (k, v) in &self.fields {
                    f.field(k, v);
                }
            });
    }
}

/// Builder returned by [`event`].
#[must_use = "call .emit() (or .build()) to record the event"]
pub struct EventBuilder {
    ev: Event,
}

impl EventBuilder {
    /// Attach a typed field.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.ev.fields.push((key, value.into()));
        self
    }

    /// Attach the human-readable message.
    pub fn msg(mut self, msg: impl Into<String>) -> Self {
        self.ev.msg = msg.into();
        self
    }

    /// Finalize with a timestamp without emitting (the caller dispatches via
    /// [`emit`] — used by shims that also need the message text). When the
    /// building thread carries a trace context, `trace_id` (16-hex string)
    /// and `span_id` fields are attached automatically unless the caller
    /// already set a `trace_id` field.
    pub fn build(mut self) -> Event {
        self.ev.ts_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        if let Some(ctx) = crate::trace::current_context() {
            if self.ev.field("trace_id").is_none() {
                self.ev
                    .fields
                    .push(("trace_id", FieldValue::Str(ctx.trace_id().to_hex())));
                self.ev
                    .fields
                    .push(("span_id", FieldValue::U64(ctx.span_id().raw())));
            }
        }
        self.ev
    }

    /// Timestamp and emit to the ring buffer and all sinks.
    pub fn emit(self) {
        emit(self.build());
    }
}

/// Start building an event.
pub fn event(level: Level, name: &'static str) -> EventBuilder {
    EventBuilder {
        ev: Event {
            ts_micros: 0,
            level,
            name,
            msg: String::new(),
            fields: Vec::new(),
        },
    }
}

/// Emit an already-built event: push into the ring buffer and fan out to
/// every registered sink. Events below [`min_level`] are dropped.
pub fn emit(ev: Event) {
    if ev.level < min_level() {
        return;
    }
    ring::push(ev.clone());
    sink::dispatch(&ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_fields_and_message() {
        let ev = event(Level::Warn, "test.ev")
            .field("iter", 7usize)
            .field("loss", 0.5f32)
            .field("ok", true)
            .field("who", "watchdog")
            .msg("something happened")
            .build();
        assert_eq!(ev.level, Level::Warn);
        assert_eq!(ev.name, "test.ev");
        assert_eq!(ev.field("iter").and_then(FieldValue::as_u64), Some(7));
        assert_eq!(ev.field("loss").and_then(FieldValue::as_f64), Some(0.5));
        assert_eq!(ev.field("ok").and_then(FieldValue::as_bool), Some(true));
        assert_eq!(
            ev.field("who").and_then(FieldValue::as_str),
            Some("watchdog")
        );
        assert_eq!(ev.message(), "something happened");
        assert!(ev.ts_micros > 0);
    }

    #[test]
    fn json_line_has_schema_fields() {
        let line = event(Level::Info, "a.b")
            .field("n", 3i64)
            .field("s", "x\"y")
            .build()
            .to_json();
        assert!(line.starts_with("{\"ts_us\":"), "{line}");
        assert!(line.contains("\"level\":\"info\""), "{line}");
        assert!(line.contains("\"name\":\"a.b\""), "{line}");
        assert!(line.contains("\"n\":3"), "{line}");
        assert!(line.contains("\"s\":\"x\\\"y\""), "{line}");
        assert!(line.ends_with("}}"), "{line}");
    }

    #[test]
    fn json_line_bytes_are_pinned() {
        let ev = Event {
            ts_micros: 1_700_000_000_123_456,
            level: Level::Warn,
            name: "train.watchdog.trip",
            msg: "stage 1 iter 7:\tloss \"NaN\"\n".to_string(),
            fields: vec![
                ("i", FieldValue::I64(-3)),
                ("u", FieldValue::U64(u64::MAX)),
                ("f", FieldValue::F64(0.1 + 0.2)),
                ("whole", FieldValue::F64(2.0)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("inf", FieldValue::F64(f64::NEG_INFINITY)),
                ("b", FieldValue::Bool(false)),
                ("s", FieldValue::Str("x\"y\\z\u{1}".to_string())),
            ],
        };
        assert_eq!(
            ev.to_json(),
            "{\"ts_us\":1700000000123456,\"level\":\"warn\",\"name\":\"train.watchdog.trip\",\
             \"msg\":\"stage 1 iter 7:\\tloss \\\"NaN\\\"\\n\",\"fields\":{\"i\":-3,\
             \"u\":18446744073709551615,\"f\":0.30000000000000004,\"whole\":2,\"nan\":null,\
             \"inf\":null,\"b\":false,\"s\":\"x\\\"y\\\\z\\u0001\"}}"
        );
        let bare = Event {
            msg: String::new(),
            fields: Vec::new(),
            ..ev
        };
        assert_eq!(
            bare.to_json(),
            "{\"ts_us\":1700000000123456,\"level\":\"warn\",\"name\":\"train.watchdog.trip\",\
             \"msg\":\"\",\"fields\":{}}"
        );
    }

    #[test]
    fn level_ordering_is_verbosity_ordering() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn events_inherit_the_current_trace_context() {
        let _g = crate::trace::test_gate();
        crate::trace::set_sample_every(1);
        let hex;
        {
            let root = crate::trace::root_span("test.event.trace_root");
            hex = root.trace_id().unwrap().to_hex();
            let ev = event(Level::Info, "test.event.traced").build();
            assert_eq!(
                ev.field("trace_id").and_then(FieldValue::as_str),
                Some(hex.as_str())
            );
            assert_eq!(ev.field("span_id").and_then(FieldValue::as_u64), Some(1));
            // An explicit trace_id wins over auto-attachment.
            let ev = event(Level::Info, "test.event.explicit")
                .field("trace_id", "cafe")
                .build();
            assert_eq!(
                ev.field("trace_id").and_then(FieldValue::as_str),
                Some("cafe")
            );
        }
        crate::trace::set_sample_every(0);
        let ev = event(Level::Info, "test.event.untraced").build();
        assert!(ev.field("trace_id").is_none());
    }

    #[test]
    fn message_falls_back_to_name_and_fields() {
        let ev = event(Level::Info, "bare.event").field("k", 1u64).build();
        assert!(ev.message().starts_with("bare.event"));
        assert!(ev.message().contains("k="));
    }
}
