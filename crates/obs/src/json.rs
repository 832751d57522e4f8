//! Minimal JSON with ordered object fields and deterministic output.
//!
//! The serializer writes object fields in exactly the order they were
//! inserted and formats floats with the standard library's shortest
//! round-trip representation, so a value built from deterministic inputs
//! serializes to byte-identical text on every run and platform. The parser
//! exists for round-trip tests and for test harnesses that consume emitted
//! trace files; it accepts standard JSON.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order (`Vec` of pairs, not a
/// map): deterministic serialization is the whole point of this module.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (counters, byte counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point. Non-finite values serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects) and returns
    /// `self` for chaining.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object fields in order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes to compact JSON text, through the same scalar writers
    /// ([`write_u64`], [`write_f64`], [`write_str`], …) that records
    /// written straight to text use.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => write_null(out),
            Json::Bool(v) => write_bool(out, *v),
            Json::U64(v) => write_u64(out, *v),
            Json::I64(v) => write_i64(out, *v),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text (standard grammar; numbers without `.`/exponent
    /// become integer variants).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                at: pos,
                what: "trailing input",
            });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json> + Copy> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Arr(v.iter().map(|&x| x.into()).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Appends `null`.
pub fn write_null(out: &mut String) {
    out.push_str("null");
}

/// Appends `true` or `false`.
pub fn write_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// Appends a non-negative integer in decimal.
pub fn write_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends a signed integer in decimal.
pub fn write_i64(out: &mut String, v: i64) {
    let _ = write!(out, "{v}");
}

/// Appends a float in the standard library's shortest round-trip form
/// (never an exponent: `1e21` is written out in full), or `null` when it
/// is not finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        write_null(out);
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\` and control characters
/// escaped, everything else (non-ASCII included) verbatim.
pub fn write_str(out: &mut String, s: &str) {
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
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, what: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, what })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(ParseError {
            at: *pos,
            what: "unexpected end of input",
        });
    };
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':'")?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(ParseError {
            at: *pos,
            what: "unexpected character",
        }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            at: *pos,
            what: "invalid literal",
        })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ParseError {
                at: *pos,
                what: "unterminated string",
            });
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(ParseError {
                        at: *pos,
                        what: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError {
                                at: *pos,
                                what: "bad \\u escape",
                            })?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our traces;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Re-decode UTF-8 starting at the byte we consumed.
                let start = *pos - 1;
                let s = std::str::from_utf8(&bytes[start..]).map_err(|_| ParseError {
                    at: start,
                    what: "invalid UTF-8",
                })?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos = start + c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        // `-0` is the float negative zero (what `write_f64(-0.0)` writes),
        // so it re-serializes as written rather than as the integer `0`.
        if let Some(v) = text.parse::<i64>().ok().filter(|&v| v != 0) {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
        at: start,
        what: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_fields_serialize_in_order() {
        let j = Json::obj()
            .field("z", 1u64)
            .field("a", 2u64)
            .field("m", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(j.to_string(), r#"{"z":1,"a":2,"m":[true,null]}"#);
    }

    #[test]
    fn roundtrip() {
        let j = Json::obj()
            .field("rt", 3.25f64)
            .field("n", -7i64)
            .field("big", u64::MAX)
            .field("s", "a\"b\\c\nd")
            .field("nested", Json::obj().field("x", Json::Null));
        let text = j.to_string();
        assert_eq!(Json::parse(&text).expect("parses"), j);
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let mut s = String::new();
        Json::F64(0.1).write(&mut s);
        assert_eq!(s, "0.1");
        let mut s = String::new();
        Json::F64(f64::NAN).write(&mut s);
        assert_eq!(s, "null", "non-finite floats become null");
    }

    #[test]
    fn negative_zero_round_trips_as_written() {
        let mut s = String::new();
        write_f64(&mut s, -0.0);
        assert_eq!(s, "-0");
        let parsed = Json::parse(&s).expect("parses");
        assert_eq!(parsed.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(parsed.to_string(), "-0");
        assert_eq!(Json::parse("-7").expect("parses"), Json::I64(-7));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"a":1,"b":[2.5],"c":"x","d":true}"#).expect("parses");
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(j.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("missing"), None);
    }
}
