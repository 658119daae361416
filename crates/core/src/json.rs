//! The workspace's one JSON value type, with its writer and its parser.
//!
//! Every JSON document the system writes is a [`Json`] value rendered by
//! [`Json::render`]: the Chrome trace and metrics dumps of [`crate::trace`],
//! `zag --profile=json` and `--remarks=json`, and every `zagd` response.
//! Every document it reads (`zagd` request bodies, and the tests that check
//! the written ones) goes through [`Json::parse`]. Output is compact, with
//! object keys in sorted order; nothing promises a line layout.
//!
//! The parser takes the RFC 8259 grammar (surrogate pairs included) and
//! distinguishes integers from floats — the request decoder maps them onto
//! the VM's `Int`/`Float` value split, where `4` and `4.0` are different
//! types. It recurses once per nesting level, so it refuses documents
//! nested deeper than [`MAX_DEPTH`] rather than overflow its stack on
//! hostile input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep sorted key order (`BTreeMap`) so rendering
/// is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without `.`/`e` that fits an `i64`.
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep a decimal point so the value round-trips as a
                    // float rather than re-parsing as an integer.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Build an object from key/value pairs: `obj([("ok", Json::Bool(true))])`.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_escaped(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

/// One value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                    Some(b'u') => out.push(parse_unicode_escape(b, pos)?),
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote, escape or control
                // byte; those are ASCII, so the run is whole UTF-8.
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                {
                    *pos += 1;
                }
                if *pos == start {
                    return Err(format!("control character in string at byte {pos}"));
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid UTF-8")?);
            }
        }
    }
}

/// The character of the `\u` escape whose `u` is at `pos`: one BMP code
/// point, or a surrogate pair written as two escapes. Leaves `pos` on the
/// escape's last hex digit.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos;
    let unpaired = || format!("unpaired surrogate at byte {at}");
    let hi = parse_hex4(b, pos)?;
    let code = match hi {
        0xd800..=0xdbff => {
            if b.get(*pos + 1..*pos + 3) != Some(&b"\\u"[..]) {
                return Err(unpaired());
            }
            *pos += 2;
            let lo = parse_hex4(b, pos)?;
            if !(0xdc00..=0xdfff).contains(&lo) {
                return Err(unpaired());
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        }
        0xdc00..=0xdfff => return Err(unpaired()),
        _ => hi,
    };
    char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

/// The four hex digits after the `u` at `pos`; moves `pos` onto the last
/// of them.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let n = (b.get(*pos + 1..*pos + 5))
        .and_then(|h| {
            h.iter()
                .try_fold(0, |n, &c| Some(n * 16 + char::from(c).to_digit(16)?))
        })
        .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
    *pos += 4;
    Ok(n)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !is_float {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Float(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        let again = Json::parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn distinguishes_int_from_float() {
        assert_eq!(Json::parse("4").unwrap(), Json::Int(4));
        assert_eq!(Json::parse("4.0").unwrap(), Json::Float(4.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // A float that happens to be integral renders with a decimal
        // point so it re-parses as a float.
        assert_eq!(Json::Float(4.0).render(), "4.0");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "12 34",
            "nul",
            "",
            // RFC 8259: raw control characters must be escaped.
            "\"a\tb\"",
            "\"a\nb\"",
            // Lone or reversed surrogates encode no character, and a `\u`
            // takes exactly four hex digits.
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\u+123""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // Python's `json.dumps` writes non-BMP characters this way.
        let u = |hex: &str| format!("\\u{hex}");
        let text = format!("\"a{}{}b{}\"", u("d83d"), u("de00"), u("00e9"));
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b\u{e9}"));
        // Raw UTF-8 passes through and renders unescaped.
        let raw = Json::parse("\"\u{1f600}\"").unwrap();
        assert_eq!(raw, Json::from("\u{1f600}"));
        assert_eq!(raw.render(), "\"\u{1f600}\"");
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Objects count too, and the check fires long before the stack
        // depth a 100 000-deep document would need.
        let deep = "{\"a\":".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(s.render(), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
