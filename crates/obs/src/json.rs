//! The workspace's JSON codec, `std` only: one writer and one reader.
//!
//! **Writing.** [`object`] (or [`object_string`]) opens an object on any
//! [`fmt::Write`] sink and hands a closure its [`Obj`]. [`Obj`] and [`Arr`]
//! own the braces, the commas, key quoting, string escaping and the
//! non-finite → `null` rule, and nest by closure; a member is any [`ToJson`]
//! value. Nothing is buffered: every call formats straight into the sink,
//! which is how the `odt-wire/v1` encoders build a frame in place. Every
//! JSON document the workspace emits is written through it, so JSON syntax
//! is spelled here and nowhere else.
//!
//! **Reading.** [`JsonValue::parse`] reads what a peer sent, so it trusts
//! nothing: a strict recursive-descent reader with a depth limit, full
//! escape handling (including surrogate pairs) and a trailing-garbage
//! check. It never panics; every failure is a typed [`JsonError`].

use std::fmt::{self, Write as _};

/// Append `s` to `out` as a JSON string literal, with escaping.
pub fn push_str_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_str_escaped(out, s);
}

/// [`push_str_escaped`] for any formatter sink.
pub fn write_str_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    Escaper(&mut *out).write_str(s)?;
    out.write_char('"')
}

/// Append a finite JSON number; non-finite floats become `null` (JSON has
/// no NaN/Infinity).
pub fn push_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = write_f64(out, v);
}

/// [`push_f64`] for any formatter sink.
pub fn write_f64<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// The inside of a JSON string literal: forwards what is written to it,
/// escaped. Clean runs go through in one piece.
struct Escaper<'a, W>(&'a mut W);

impl<W: fmt::Write> fmt::Write for Escaper<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut clean = 0;
        // Everything that needs escaping is one ASCII byte, so slicing at
        // its index stays on a character boundary.
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.0.write_str(&s[clean..i])?;
            match b {
                b'"' => self.0.write_str("\\\""),
                b'\\' => self.0.write_str("\\\\"),
                b'\n' => self.0.write_str("\\n"),
                b'\r' => self.0.write_str("\\r"),
                b'\t' => self.0.write_str("\\t"),
                _ => write!(self.0, "\\u{b:04x}"),
            }?;
            clean = i + 1;
        }
        self.0.write_str(&s[clean..])
    }
}

/// A value that can spell itself as JSON.
pub trait ToJson {
    /// Write this value's JSON text to `out`.
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result;
}

macro_rules! to_json_via_display {
    ($($ty:ty)*) => {$(
        impl ToJson for $ty {
            fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
                write!(out, "{self}")
            }
        }
    )*};
}

to_json_via_display!(u8 u16 u32 u64 usize i32 i64 bool);

impl ToJson for f64 {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_f64(out, *self)
    }
}

/// An `f32` is written widened to `f64`: those digits read back
/// ([`JsonValue::as_f32`]) to the same bits, which the shortest `f32` digits
/// read through an `f64` do not always.
impl ToJson for f32 {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_f64(out, f64::from(*self))
    }
}

impl ToJson for str {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_str_escaped(out, self)
    }
}

impl ToJson for String {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_str_escaped(out, self)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        (**self).write_json(out)
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Some(v) => v.write_json(out),
            None => out.write_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        container(out, false, |a: &mut Arr<'_, W>| {
            for v in self {
                a.item(v);
            }
        })
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self[..].write_json(out)
    }
}

/// `impl ToJson for $ty`: one object holding the named fields in the order
/// given, each keyed by its own name, so a counter has one spelling.
#[macro_export]
macro_rules! fields_to_json {
    ($ty:ty: $($field:ident),* $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn write_json<W: ::std::fmt::Write>(&self, out: &mut W) -> ::std::fmt::Result {
                $crate::json::object(out, |o| {
                    $(o.field(stringify!($field), &self.$field);)*
                })
            }
        }
    };
}

/// A `Display` value written as a JSON string (a trace id, a socket
/// address): escaped like any other string, with no `String` in between.
pub struct Text<T>(pub T);

impl<T: fmt::Display> ToJson for Text<T> {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_char('"')?;
        write!(Escaper(&mut *out), "{}", self.0)?;
        out.write_char('"')
    }
}

/// An open JSON container, as [`Obj`] or as [`Arr`]: the sink, the
/// separator the next member needs, and the sink's first error (later calls
/// are then no-ops, and the function that opened the container returns it).
pub struct Members<'a, W, const OBJECT: bool> {
    out: &'a mut W,
    sep: &'static str,
    /// One member per line: a newline before each, and before the close.
    lines: bool,
    res: fmt::Result,
}

/// An open JSON object: each call appends one `"key":value` member.
pub type Obj<'a, W> = Members<'a, W, true>;

/// An open JSON array: each call appends one item.
pub type Arr<'a, W> = Members<'a, W, false>;

/// Write one container to `out`, its members written by `f`.
fn container<W: fmt::Write, const OBJECT: bool>(
    out: &mut W,
    lines: bool,
    f: impl FnOnce(&mut Members<'_, W, OBJECT>),
) -> fmt::Result {
    let sep = if lines { "\n" } else { "" };
    out.write_char(if OBJECT { '{' } else { '[' })?;
    let mut members = Members {
        out: &mut *out,
        sep,
        lines,
        res: Ok(()),
    };
    f(&mut members);
    members.res?;
    out.write_str(sep)?;
    out.write_char(if OBJECT { '}' } else { ']' })
}

impl<W: fmt::Write, const OBJECT: bool> Members<'_, W, OBJECT> {
    /// Write the separator, then let `f` write the member.
    fn member(&mut self, f: impl FnOnce(&mut W) -> fmt::Result) -> &mut Self {
        if self.res.is_ok() {
            self.res = self.out.write_str(self.sep).and_then(|()| f(self.out));
            self.sep = if self.lines { ",\n" } else { "," };
        }
        self
    }
}

impl<W: fmt::Write> Obj<'_, W> {
    /// Write `"key":`, then let `f` write the value.
    fn keyed(&mut self, key: &str, f: impl FnOnce(&mut W) -> fmt::Result) -> &mut Self {
        self.member(|out| {
            out.write_char('"')?;
            Escaper(&mut *out).write_str(key)?;
            out.write_str("\":")?;
            f(out)
        })
    }

    /// Append `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.keyed(key, |out| value.write_json(out))
    }

    /// Append `"key":{…}`, the members written by `f`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_, W>)) -> &mut Self {
        self.keyed(key, |out| container(out, false, f))
    }

    /// [`Obj::object`] over `Some(v)`, `"key":null` for `None` (a block
    /// whose source is switched off).
    pub fn object_or_null<T>(
        &mut self,
        key: &str,
        v: Option<T>,
        f: impl FnOnce(&mut Obj<'_, W>, T),
    ) -> &mut Self {
        match v {
            Some(v) => self.object(key, |o| f(o, v)),
            None => self.field(key, None::<bool>),
        }
    }

    /// Append `"key":[…]`, the items written by `f`.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_, W>)) -> &mut Self {
        self.keyed(key, |out| container(out, false, f))
    }

    /// [`Obj::array`] with every item on a line of its own (the shape
    /// chrome-tracing files are written in).
    pub fn array_lines(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_, W>)) -> &mut Self {
        self.keyed(key, |out| container(out, true, f))
    }
}

impl<W: fmt::Write> Arr<'_, W> {
    /// Append one value.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        self.member(|out| value.write_json(out))
    }

    /// Append one `{…}` item, the members written by `f`.
    pub fn object(&mut self, f: impl FnOnce(&mut Obj<'_, W>)) -> &mut Self {
        self.member(|out| container(out, false, f))
    }
}

/// Write one JSON object to `out`, its members written by `f`. Returns the
/// sink's first error, if it had one.
pub fn object<W: fmt::Write>(out: &mut W, f: impl FnOnce(&mut Obj<'_, W>)) -> fmt::Result {
    container(out, false, f)
}

/// [`object`] as a new `String`.
pub fn object_string(f: impl FnOnce(&mut Obj<'_, String>)) -> String {
    let mut out = String::with_capacity(128);
    // Writing into a `String` cannot fail.
    let _ = object(&mut out, f);
    out
}

/// Maximum nesting depth accepted (wire payloads are flat; anything deep
/// is hostile or broken).
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written as bare digits that fits `u64`, kept exact (a seed
    /// or a counter above 2^53 has no `f64`).
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (duplicate keys keep the last value
    /// via [`JsonValue::get`] scanning from the back).
    Obj(Vec<(String, JsonValue)>),
}

/// Why a payload failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl JsonValue {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error (a frame carries exactly one document).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins on duplicate keys);
    /// `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number narrowed to `f32` (what [`ToJson`] for `f32` wrote, bit
    /// for bit; a magnitude beyond `f32` becomes an infinity).
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|n| n as f32)
    }

    /// The number as a u64, if this is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Re-serialize this value onto `out` (see the [`ToJson`] impl).
    pub fn render(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.write_json(out);
    }
}

/// Lossless re-serialization: integers render without a fraction (exactly,
/// where the document spelled a `u64`), object keys in document order.
/// The federation roll-up embeds scraped `/varz` sub-objects through this.
impl ToJson for JsonValue {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            JsonValue::Null => out.write_str("null"),
            JsonValue::Bool(b) => b.write_json(out),
            JsonValue::Int(n) => n.write_json(out),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                (*n as i64).write_json(out)
            }
            JsonValue::Num(n) => n.write_json(out),
            JsonValue::Str(s) => s.write_json(out),
            JsonValue::Arr(items) => items[..].write_json(out),
            JsonValue::Obj(fields) => object(out, |o| {
                for (k, v) in fields {
                    o.field(k, v);
                }
            }),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn eat_lit(&mut self, lit: &str, msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => {
                self.eat_lit("true", "expected 'true'")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit("false", "expected 'false'")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.eat_lit("null", "expected 'null'")?;
                Ok(JsonValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require a low surrogate.
                                self.eat_lit("\\u", "lone high surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                            // hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Bare digits parse as `u64` unless they overflow it.
        if let Ok(n) = s.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
        let n: f64 = s.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(JsonValue::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, "null");
        }
        let mut out = String::new();
        push_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }

    #[test]
    fn writer_owns_braces_commas_and_nesting() {
        assert_eq!(object_string(|_| {}), "{}");
        assert_eq!(
            object_string(|o| {
                o.array("a", |_| {});
            }),
            "{\"a\":[]}"
        );
        assert_eq!(
            object_string(|o| {
                o.array_lines("a", |_| {});
            }),
            "{\"a\":[\n]}"
        );
        // Three deep, a sibling after every close.
        let doc = object_string(|o| {
            o.field("a", 1u64)
                .object("b", |o| {
                    o.array("c", |a| {
                        a.item(-1i64)
                            .object(|o| {
                                o.field("d", true);
                            })
                            .item("x");
                    })
                    .field("e", [1.5, 2.0]);
                })
                .array_lines("f", |a| {
                    a.item(1u8).item(2u8);
                })
                .field("g", Some("s"))
                .object_or_null("h", Some(3u8), |o, v| {
                    o.field("i", v);
                })
                .object_or_null("j", None::<u8>, |_, _| {});
        });
        assert_eq!(
            doc,
            "{\"a\":1,\"b\":{\"c\":[-1,{\"d\":true},\"x\"],\"e\":[1.5,2]},\
             \"f\":[\n1,\n2\n],\"g\":\"s\",\"h\":{\"i\":3},\"j\":null}"
        );
        // A skipped optional member leaves no comma behind, wherever it is.
        let with = |first: Option<u64>, mid: Option<u64>, last: Option<u64>| {
            object_string(|o| {
                if let Some(v) = first {
                    o.field("first", v);
                }
                o.field("a", 0u64);
                if let Some(v) = mid {
                    o.field("mid", v);
                }
                o.field("b", 0u64);
                if let Some(v) = last {
                    o.field("last", v);
                }
            })
        };
        assert_eq!(with(None, None, None), "{\"a\":0,\"b\":0}");
        assert_eq!(
            with(Some(1), Some(2), Some(3)),
            "{\"first\":1,\"a\":0,\"mid\":2,\"b\":0,\"last\":3}"
        );
    }

    #[test]
    fn writer_escapes_keys_and_text_and_nulls_what_json_cannot_say() {
        let doc = object_string(|o| {
            o.field("k\"\n", "a\"b\\c\nd\te\u{1}é😀")
                .field("text", Text(format_args!("{}\"{}", 1, "x\n")))
                .field("nan", f64::NAN)
                .field("inf", [f64::INFINITY, f64::NEG_INFINITY])
                .field("none", None::<u64>);
        });
        assert_eq!(
            doc,
            "{\"k\\\"\\n\":\"a\\\"b\\\\c\\nd\\te\\u0001é😀\",\"text\":\"1\\\"x\\n\",\
             \"nan\":null,\"inf\":[null,null],\"none\":null}"
        );
    }

    #[test]
    fn a_failed_sink_is_reported_once_by_the_opener() {
        /// Accepts `budget` bytes, then fails.
        struct Short(usize);
        impl fmt::Write for Short {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.checked_sub(s.len()).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let doc = |out: &mut Short| {
            object(out, |o| {
                o.field("a", 1u64)
                    .object("b", |o| {
                        o.field("c", "long enough to overflow");
                    })
                    .field("d", 2u64);
            })
        };
        assert!(doc(&mut Short(1_000)).is_ok());
        assert!(doc(&mut Short(12)).is_err());
        assert!(doc(&mut Short(0)).is_err());
    }

    /// One random document member: scalars, and containers while `depth`
    /// lasts. Numbers are drawn where the writer and [`JsonValue::render`]
    /// spell them alike (no `-0`, negative integers below 2^53).
    fn random_member(rng: &mut crate::SplitMix64, o: &mut Obj<'_, String>, depth: u32) {
        const KEYS: [&str; 6] = ["a", "key", "k\"q", "é", "tab\t", ""];
        let key = KEYS[rng.next_below(KEYS.len() as u64) as usize];
        match rng.next_below(if depth == 0 { 6 } else { 8 }) {
            0 => {
                o.field(key, rng.next_u64());
            }
            1 => {
                o.field(key, -(rng.next_below(1 << 40) as i64) - 1);
            }
            2 => {
                o.field(key, (rng.next_f64() - 0.5) * 1e6 + 0.25);
            }
            3 => {
                o.field(key, rng.next_below(2) == 0);
            }
            4 => {
                o.field(key, None::<u64>);
            }
            5 => {
                o.field(
                    key,
                    ["", "plain", "q\"b\\n\nr\rt\tc\u{2}", "π😀"][rng.next_below(4) as usize],
                );
            }
            6 => {
                o.object(key, |o| {
                    for _ in 0..rng.next_below(4) {
                        random_member(rng, o, depth - 1);
                    }
                });
            }
            _ => {
                o.array(key, |a| {
                    for _ in 0..rng.next_below(4) {
                        match rng.next_below(3) {
                            0 => a.item(rng.next_below(100)),
                            1 => a.item(rng.next_f64()),
                            _ => a.object(|o| random_member(rng, o, depth - 1)),
                        };
                    }
                });
            }
        }
    }

    #[test]
    fn written_documents_parse_and_render_back_to_the_same_bytes() {
        let mut rng = crate::SplitMix64::new(0x0d7_0b5);
        for case in 0..1_000 {
            let doc = object_string(|o| {
                for _ in 0..rng.next_below(6) {
                    random_member(&mut rng, o, 3);
                }
            });
            let parsed =
                JsonValue::parse(&doc).unwrap_or_else(|e| panic!("case {case}: {e}: {doc}"));
            let mut back = String::new();
            parsed.render(&mut back);
            assert_eq!(back, doc, "case {case}");
        }
    }

    #[test]
    fn parses_a_wire_shaped_request() {
        let v = JsonValue::parse(
            r#"{"v":"odt-wire/v1","id":42,"o":[116.3,39.9],"d":[116.5,40.0],
               "t_dep":28800.0,"deadline_ms":50,"trace":"c0ffee"}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("v").unwrap().as_str(), Some("odt-wire/v1"));
        let o = v.get("o").unwrap().as_arr().unwrap();
        assert_eq!(o[0].as_f64(), Some(116.3));
        assert_eq!(v.get("deadline_ms").unwrap().as_u64(), Some(50));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\c\nAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé😀"));
        // Lone surrogates are rejected, not panicked on.
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,]",
            "[1 2]",
            "truth",
            "nul",
            "\"unterminated",
            "1e999",
            "-",
            "1.2.3",
            "{\"a\":1} extra",
            "\u{1}",
            "\"ctrl\u{1}char\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not stack-overflowed.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn numbers_round_trip_and_u64_guards_hold() {
        let v = JsonValue::parse("[0, -1.5, 3e2, 9007199254740992, 1.25]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(0));
        assert_eq!(a[1].as_f64(), Some(-1.5));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[3].as_u64(), Some(1u64 << 53));
        assert_eq!(a[4].as_u64(), None);

        // Bare digits that fit a u64 are exact above 2^53; past it they
        // are an f64 like any other number.
        let v = JsonValue::parse("[18446744073709551615, 9007199254740993, 18446744073709551616]")
            .unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(u64::MAX));
        assert_eq!(a[1].as_u64(), Some((1 << 53) + 1));
        assert_eq!((a[2].as_u64(), a[2].as_f64()), (None, Some(2f64.powi(64))));

        // An f32 is written widened, so it reads back to the same bits.
        for x in [
            0.1f32,
            -0.0,
            f32::MAX,
            f32::MIN_POSITIVE,
            1.0e-45,
            16_777_217.0,
        ] {
            let back = JsonValue::parse(&object_string(|o| {
                o.field("x", x);
            }));
            let back = back.unwrap().get("x").and_then(JsonValue::as_f32).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
        }
        assert_eq!(
            JsonValue::parse("1e39").unwrap().as_f32(),
            Some(f32::INFINITY)
        );
    }

    #[test]
    fn duplicate_keys_last_wins_and_escaped_strings_round_trip() {
        let v = JsonValue::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));

        let mut out = String::new();
        push_str_escaped(&mut out, "he said \"hi\"\n\tπ\u{1}");
        let back = JsonValue::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("he said \"hi\"\n\tπ\u{1}"));
    }

    #[test]
    fn render_round_trips_parsed_documents() {
        let doc = r#"{"s":"a\"b","n":-2.5,"i":42,"b":true,"z":null,"a":[1,{"k":"v"}]}"#;
        let v = JsonValue::parse(doc).unwrap();
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(JsonValue::parse(&out).unwrap(), v, "{out}");
        // Integers stay integers (no trailing .0 noise in the roll-up).
        assert!(out.contains("\"i\":42"), "{out}");
    }
}
