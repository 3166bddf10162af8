//! A tiny hand-rolled JSON value, serializer and parser.
//!
//! Kept dependency-free like the rest of the crate (see [`crate::report`]).
//! The experiment harness uses it to emit machine-readable records and to
//! parse them back in its round-trip tests; the telemetry sinks use
//! [`escape`] for their line-oriented output.
//!
//! Numbers are stored as `f64`, which is exact for the integer counters this
//! crate produces up to 2⁵³ — far beyond any state count an exhaustive
//! enumeration reaches.
//!
//! The parser reads untrusted bytes (stored certificates and their index),
//! so nesting is capped at [`MAX_DEPTH`]: a deeper document is a
//! [`ParseError`], not a stack overflow.

use std::fmt;
use std::ops::Index;

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace itself writes is the lint SARIF export, at 9
/// levels (certificates reach 6, `--json` records 5).
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // f64 is exact up to 2^53; counters beyond that are saturated by the
        // cast, which is acceptable for telemetry.
        #[allow(clippy::cast_precision_loss)]
        Json::Number(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::String(v.to_string())
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Looks up an object member.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up an array element.
    #[must_use]
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 1.8446744073709552e19 =>
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Sorts every object's members by key, recursively, returning `self`.
    ///
    /// [`Json::Object`] preserves insertion order, so two semantically
    /// equal documents can render to different bytes. Record emitters
    /// (experiment records, sim run records, lint reports) canonicalize at
    /// the encoder boundary so equal records are byte-equal — the
    /// determinism contract golden files and the byte-stability tests rely
    /// on. Duplicate keys keep their relative order (the sort is stable);
    /// array element order is semantic and left untouched.
    #[must_use]
    pub fn canonicalize(mut self) -> Json {
        self.canonicalize_in_place();
        self
    }

    fn canonicalize_in_place(&mut self) {
        match self {
            Json::Object(members) => {
                for (_, v) in members.iter_mut() {
                    v.canonicalize_in_place();
                }
                members.sort_by(|(a, _), (b, _)| a.cmp(b));
            }
            Json::Array(items) => {
                for v in items {
                    v.canonicalize_in_place();
                }
            }
            _ => {}
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the byte offset of the first problem,
    /// including arrays/objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                message: "trailing characters after document",
            });
        }
        Ok(value)
    }
}

/// `Json::Null` when the key is missing — convenient for chained lookups in
/// tests (`record["counters"]["engine.states_visited"]`).
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `Json::Null` when out of bounds, matching [`Index<&str>`].
impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, index: usize) -> &Json {
        static NULL: Json = Json::Null;
        self.at(index).unwrap_or(&NULL)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    // Render integral values without a fractional part so
                    // counters read naturally.
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string for embedding between JSON double quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, message: &'static str) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError {
            offset: *pos,
            message,
        })
    }
}

/// Parses one value nested inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            offset: *pos,
            message: "unexpected end of input",
        }),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(ParseError {
            offset: *pos,
            message: "nesting deeper than MAX_DEPTH",
        }),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            offset: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        offset: start,
        message: "invalid number bytes",
    })?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| ParseError {
            offset: start,
            message: "invalid number",
        })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        // Surrogate pairs are not needed for the metric names
                        // and details this crate produces; map lone
                        // surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe: take bytes until
                // the next char boundary).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| ParseError {
                    offset: *pos,
                    message: "invalid utf-8 in string",
                })?;
                let c = rest.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5").unwrap(), Json::Number(-2.5));
        assert_eq!(Json::parse("\"a b\"").unwrap(), Json::String("a b".into()));
    }

    #[test]
    fn round_trip_nested_document() {
        let doc = Json::Object(vec![
            ("id".into(), Json::from("E-3.6")),
            ("ok".into(), Json::Bool(true)),
            (
                "counters".into(),
                Json::Object(vec![
                    ("engine.states_visited".into(), Json::from(123u64)),
                    ("engine.dedup_hits".into(), Json::from(0u64)),
                ]),
            ),
            (
                "list".into(),
                Json::Array(vec![Json::from(1u64), Json::Null, Json::from("x")]),
            ),
        ]);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("round trip");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed["counters"]["engine.states_visited"].as_u64(),
            Some(123)
        );
        assert_eq!(parsed["list"][2].as_str(), Some("x"));
        assert_eq!(parsed["missing"], Json::Null);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let original = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let rendered = Json::String(original.into()).to_string();
        let parsed = Json::parse(&rendered).expect("parses");
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let mut value = Json::parse(&nested_arrays(MAX_DEPTH)).expect("at the cap");
        let mut levels = 0;
        while let Json::Array(mut items) = value {
            levels += 1;
            value = items.pop().unwrap_or(Json::Null);
        }
        assert_eq!(levels, MAX_DEPTH);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_an_overflow() {
        let err = Json::parse(&nested_arrays(MAX_DEPTH + 1)).expect_err("one past the cap");
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past it: without the cap this overflows the stack and aborts.
        assert!(Json::parse(&nested_arrays(100_000)).is_err());
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(parsed["a"][1].as_u64(), Some(2));
        assert_eq!(parsed["b"], Json::Object(vec![]));
    }

    #[test]
    fn canonicalize_sorts_nested_object_keys() {
        let doc = Json::Object(vec![
            ("b".into(), Json::from(2u64)),
            (
                "a".into(),
                Json::Object(vec![
                    ("z".into(), Json::Null),
                    (
                        "y".into(),
                        Json::Array(vec![Json::Object(vec![
                            ("k2".into(), Json::from(1u64)),
                            ("k1".into(), Json::from(0u64)),
                        ])]),
                    ),
                ]),
            ),
        ]);
        let canon = doc.canonicalize();
        assert_eq!(
            canon.to_string(),
            "{\"a\":{\"y\":[{\"k1\":0,\"k2\":1}],\"z\":null},\"b\":2}"
        );
        // Idempotent, and array order is untouched.
        assert_eq!(canon.clone().canonicalize(), canon);
        let arr = Json::Array(vec![Json::from(2u64), Json::from(1u64)]);
        assert_eq!(arr.clone().canonicalize(), arr);
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::Number(1.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(7.0).as_u64(), Some(7));
        assert_eq!(Json::Bool(true).as_u64(), None);
    }
}
