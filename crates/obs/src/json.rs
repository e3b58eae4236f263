//! Minimal JSON rendering helpers (no serde in a zero-dependency crate).
//!
//! Shared across the workspace: the event sinks and flight recorder in
//! this crate, the `odt-wire/v1` writers in `odt-net`, and the admin
//! plane's `/varz`/`/tracez` renderers all build JSON through these two
//! functions, so string escaping exists exactly once.

use std::fmt;

/// Append `s` to `out` as a JSON string literal, with escaping.
pub fn push_str_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_str_escaped(out, s);
}

/// [`push_str_escaped`] for any formatter sink (the wire encoders write
/// straight into a frame buffer through this).
pub fn write_str_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
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
}
