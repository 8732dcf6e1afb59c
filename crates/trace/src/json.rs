//! Just-enough JSON for the workspace's hand-rolled documents.
//!
//! The offline build has no JSON crate, so every JSON surface in this
//! workspace — DAG files ([`crate::dag::TaskDag`]), churn deltas
//! ([`crate::edit::TraceDelta`]), the `pim-serve` request protocol, and
//! the metrics and bench reports — is written and parsed by hand. This
//! module is the one shared parser those surfaces build on: a
//! recursive-descent reader producing a [`Value`] tree, plus the
//! string-escaping helper every writer uses.
//!
//! Design constraints, in order:
//!
//! * **Never panic.** Malformed input must come back as `Err(String)`;
//!   the serve daemon feeds this parser raw bytes off a socket
//!   (property-tested in `crates/trace/tests/encode_props.rs`).
//! * **Bounded recursion.** Nesting deeper than [`MAX_DEPTH`] is rejected
//!   so an adversarial `[[[[…` line cannot blow the stack.
//! * **Integers are exact.** Unsigned integers that fit `u64` parse as
//!   [`Value::Num`]; everything else numeric (signs, fractions,
//!   exponents) parses as [`Value::Float`]. Schema code that wants an id
//!   calls [`Value::as_u64`] and naturally rejects `1.5` or `-1`.

/// Maximum object/array nesting accepted by [`parse`].
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer that fits `u64` exactly.
    Num(u64),
    /// Any other number (negative, fractional, or exponent form).
    Float(f64),
    /// A string value.
    Str(String),
    /// An array of values.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs (duplicates preserved in
    /// input order; schema code decides whether to reject them).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly up to 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

/// Append `s` to `out` with JSON string escaping (quotes not included).
/// The inverse of the parser's escape handling: control characters become
/// `\uXXXX`, quotes and backslashes are backslash-escaped.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use core::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] returning a fresh `String` (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key = string(b, pos)?;
                expect(b, pos, b':')?;
                out.push((key, value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => string(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let s = core::str::from_utf8(&b[start..*pos]).expect("ascii digits are utf8");
    if s == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if !fractional && !s.starts_with('-') {
        return s
            .parse::<u64>()
            .map(Value::Num)
            .map_err(|_| format!("number {s} overflows u64"));
    }
    match s.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(Value::Float(f)),
        _ => Err(format!("bad number {s:?} at byte {start}")),
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let start = *pos;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| core::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate halves are not paired up; reject them
                        // rather than emit invalid scalars.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| format!("bad \\u scalar at byte {}", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("unsupported escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c if c < 0x80 => {
                out.push(c as char);
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8: take the full scalar from the source
                // (the input is a &str, so the bytes are valid UTF-8).
                let rest = core::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid utf8 inside string starting at byte {start}"))?;
                let c = rest.chars().next().expect("non-empty by loop guard");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("42").unwrap(), Value::Num(42));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert_eq!(parse("-3").unwrap(), Value::Float(-3.0));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), Value::Float(2000.0));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse(r#"{"op":"load","n":3,"flag":true,"arr":[1,2]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("load"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("arr").and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\r\u{0001}é—";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::Str(nasty.to_string()));
        for (raw, escaped) in [
            ("a\"b\\c", "a\\\"b\\\\c"),
            ("x\ny", "x\\ny"),
            ("\u{1}", "\\u0001"),
        ] {
            assert_eq!(escape(raw), escaped);
        }
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Value::Str("Aé".into()));
        assert!(parse(r#""\ud800""#).is_err()); // lone surrogate
        assert!(parse(r#""\u00g1""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "tru",
            "nul",
            "-",
            "1..2",
            "1e",
            "{\"a\":1} x",
            "[1 2]",
            "\"\\q\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn huge_integer_rejected() {
        assert!(parse("99999999999999999999999").is_err());
    }
}
