//! The workspace's one JSON module (the build environment vendors no
//! `serde_json`): a recursive-descent reader, the string escaper and float
//! formatter every exporter shares, and a document writer.
//!
//! Objects preserve key order as a `Vec` of pairs — duplicate keys are
//! kept, lookups take the first match. The reader bounds nesting at
//! [`MAX_DEPTH`], so hostile input gets an `Err`, never a stack overflow.
//!
//! [`write`] has one fixed pretty layout: two-space indent, one array
//! element or object member per line, `": "` after keys, a trailing
//! newline. Exporters whose bytes a golden pins (the Chrome trace, the
//! registry snapshot, the event log) keep their own layouts but escape
//! and format numbers through [`json_str`] and [`fmt_f64`].

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes nest at most 6 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with the given members, in order.
    pub fn object<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Number(n as f64)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl FromIterator<JsonValue> for JsonValue {
    fn from_iter<I: IntoIterator<Item = JsonValue>>(iter: I) -> Self {
        JsonValue::Array(iter.into_iter().collect())
    }
}

/// Deterministic float formatting: integers without a fractional part,
/// everything else via Rust's shortest-roundtrip `Display` (stable across
/// platforms for the same bit pattern).
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON string literal with escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `v` as a complete document in the module's one pretty layout.
/// JSON has no non-finite numbers, so NaN and ±∞ are written as `null`.
pub fn write(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &JsonValue, indent: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) if n.is_finite() => out.push_str(&fmt_f64(*n)),
        JsonValue::Number(_) => out.push_str("null"),
        JsonValue::Str(s) => out.push_str(&json_str(s)),
        JsonValue::Array(items) => write_members(out, indent, '[', ']', items, |out, item| {
            write_value(out, item, indent + 2)
        }),
        JsonValue::Object(members) => {
            write_members(out, indent, '{', '}', members, |out, (k, item)| {
                out.push_str(&json_str(k));
                out.push_str(": ");
                write_value(out, item, indent + 2);
            })
        }
    }
}

fn write_members<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n(' ', indent + 2));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number '{s}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a char boundary and only its
                // own bytes are decoded.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny"}, "d": [true, false, null]}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_array().unwrap()[2], JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_bench_shapes() {
        let v = parse(
            r#"{"seed": 1, "points": [{"makespan_ms": 1.25, "ok": true, "name": "a\"b"}], "note": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("note"), Some(&JsonValue::Null));
        let points = v.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            points[0].get("name").and_then(JsonValue::as_str),
            Some("a\"b")
        );
        assert_eq!(
            points[0].get("makespan_ms").and_then(JsonValue::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn multibyte_utf8_and_every_escape_round_trip() {
        let text = "µs ≤ 2⁻¹⁰ — 頻譜 🚀 \" \\ / \n \r \t \u{8} \u{c} \u{1} \u{1f}";
        let parsed =
            parse(r#""µs ≤ 2⁻¹⁰ — 頻譜 🚀 \" \\ \/ \n \r \t \b \f \u0001 \u001F""#).unwrap();
        assert_eq!(parsed.as_str(), Some(text));
        let doc = JsonValue::object([("k→ü", text.into()), ("🚀", JsonValue::Array(vec![parsed]))]);
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn writer_layout_is_fixed() {
        let doc = JsonValue::object([
            ("seed", 7u64.into()),
            (
                "points",
                vec![JsonValue::object([("ms", 1.5.into()), ("ok", true.into())])]
                    .into_iter()
                    .collect(),
            ),
            ("empty", JsonValue::Array(Vec::new())),
            ("none", JsonValue::object([])),
            ("nan", f64::NAN.into()),
        ]);
        assert_eq!(
            write(&doc),
            "{\n  \"seed\": 7,\n  \"points\": [\n    {\n      \"ms\": 1.5,\n      \"ok\": true\n    }\n  ],\n  \"empty\": [],\n  \"none\": {},\n  \"nan\": null\n}\n"
        );
    }
}
