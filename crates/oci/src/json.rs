//! A small, self-contained JSON implementation (RFC 8259 subset).
//!
//! `serde_json` is not in the approved offline dependency set, so this
//! module provides the parser/serializer the workspace needs — strings with
//! escapes, numbers, arrays, objects with stable (sorted) key order for
//! deterministic output. [`parse`] builds the generic [`Value`] tree, which
//! `benchmark/` reads its inter-process lines with; the writers also serve
//! `RuntimeSpec::to_json`, whose output length is a bundle's `config.json`
//! size.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub(crate) pos: usize,
    pub(crate) message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// 2^63, exactly: the first `f64` past `i64::MAX`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// A whole number in `u64`'s range; out of range is `None`, not clamped.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if n.fract() == 0.0 && (0.0..2.0 * TWO_63).contains(&n) => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member as a string list (common OCI shape).
    pub fn str_list(&self, key: &str) -> Vec<String> {
        self.get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
            .unwrap_or_default()
    }

    /// Build an object from pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array of strings.
    pub fn strings(items: impl IntoIterator<Item = String>) -> Value {
        Value::Array(items.into_iter().map(Value::String).collect())
    }

    /// Serialize compactly (sorted keys → deterministic bytes).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write_bool(out, *b),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(a) => write_seq(out, ['[', ']'], a, write_value),
        Value::Object(m) => write_seq(out, ['{', '}'], m, |out, (k, item)| {
            write_string(out, k);
            out.push(':');
            write_value(out, item);
        }),
    }
}

/// `items`, comma-separated between `brackets`, each written by `item`.
pub(crate) fn write_seq<T>(
    out: &mut String,
    brackets: [char; 2],
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push(brackets[0]);
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, it);
    }
    out.push(brackets[1]);
}

pub(crate) fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Integers in the `f64`-exact range print without a fraction. JSON has no
/// NaN or infinity: they are written as `null`, as serde_json does, so the
/// output always parses.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// A quoted string: runs that need no escape are copied whole.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    // Every byte that needs an escape is ASCII, so `run..i` and `i + 1..`
    // always fall on character boundaries.
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Arrays and objects may nest this deep; a document that goes deeper is
/// rejected instead of overflowing the stack of whoever parses it.
pub(crate) const MAX_DEPTH: u32 = 128;

/// A reader over one JSON document, building the tree as it goes.
struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: u32,
}

/// Parse a JSON document: one value, and nothing but whitespace after it.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut r = Reader { input, pos: 0, depth: 0 };
    r.skip_ws();
    let value = r.value()?;
    r.skip_ws();
    if r.pos != input.len() {
        return Err(r.err("trailing characters"));
    }
    Ok(value)
}

impl<'a> Reader<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { pos: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// The value as a tree. Of a repeated object key, the last one wins.
    fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek() {
            Some(b'"') => Value::String(self.scan_string()?),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.sequence(b'}', |r| {
                    let key = r.scan_string()?;
                    r.skip_ws();
                    r.expect(b':')?;
                    r.skip_ws();
                    map.insert(key, r.value()?);
                    Ok(())
                })?;
                Value::Object(map)
            }
            Some(b'-' | b'0'..=b'9') => Value::Number(self.scan_number()?),
            _ => self.scan_literal()?.map_or(Value::Null, Value::Bool),
        })
    }

    /// The comma-separated items between the bracket at `pos` and `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b) if b == close => break,
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err(&format!("expected ',' or '{}'", close as char)));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn scan_literal(&mut self) -> Result<Option<bool>, JsonError> {
        let (lit, v) = match self.peek() {
            Some(b'n') => ("null", None),
            Some(b't') => ("true", Some(true)),
            Some(b'f') => ("false", Some(false)),
            Some(other) => return Err(self.err(&format!("unexpected byte 0x{other:02x}"))),
            None => return Err(self.err("unexpected end of input")),
        };
        if self.input.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// A quoted string: each run between escapes is copied whole.
    fn scan_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let input = self.input;
        let mut out = String::new();
        // `run..pos` is the pending unescaped run. It starts after an ASCII
        // byte and ends before one, so slicing it cannot split a character.
        let mut run = self.pos;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&input[run..self.pos - 1]);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&input[run..self.pos - 1]);
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {}
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                // Surrogate pairs.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    char::from_u32(cp)
                };
                c.ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn scan_number(&mut self) -> Result<f64, JsonError> {
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
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| JsonError { pos: start, message: "bad number".into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Value {
        pub(crate) fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes() {
        let v = parse("\"a\\nb\\t\\\"c\\\"A\\\\\"").unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"c\"A\\"));
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo 世界"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"\x01\"").is_err());
    }

    /// Hostile nesting is an error, not a stack overflow: 1 MiB of open
    /// brackets on a 2 MiB stack.
    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let run = || {
            for unit in ["[", "{\"a\":"] {
                let doc = unit.repeat((1 << 20) / unit.len());
                let too_deep =
                    JsonError { pos: 128 * unit.len(), message: "nesting too deep".into() };
                assert_eq!(parse(&doc), Err(too_deep));
            }
            // The limit itself is fine, one more is not.
            let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
            assert!(parse(&nest(MAX_DEPTH as usize)).is_ok());
            assert!(parse(&nest(MAX_DEPTH as usize + 1)).is_err());
        };
        std::thread::Builder::new().stack_size(2 << 20).spawn(run).unwrap().join().unwrap();
    }

    /// JSON has no NaN or infinity; what is written must parse.
    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).to_json(), "null");
            let nested = Value::object([
                ("walls", Value::Array(vec![Value::Number(1.5), Value::Number(n)])),
                ("inner", Value::object([("x", Value::Number(n))])),
            ]);
            assert_eq!(nested.to_json(), r#"{"inner":{"x":null},"walls":[1.5,null]}"#);
            assert!(parse(&nested.to_json()).is_ok());
        }
    }

    #[test]
    fn serialize_roundtrip() {
        let src = r#"{"args":["app","--serve"],"limit":1048576,"nested":{"a":[true,null,-1.5]},"terminal":false}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn serializer_escapes() {
        let v = Value::String("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 7, "s": "x", "b": true, "l": ["p", "q"]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.str_list("l"), vec!["p", "q"]);
        assert_eq!(v.str_list("missing"), Vec::<String>::new());
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    /// Out of range reads as absent, not as the nearest bound.
    #[test]
    fn whole_number_accessors_do_not_saturate() {
        let n = |s: &str| parse(s).unwrap();
        assert_eq!(n("1e19").as_u64(), Some(10_000_000_000_000_000_000));
        assert_eq!(n("18446744073709551615").as_u64(), None, "rounds to 2^64");
        assert_eq!(n("-0").as_u64(), Some(0));
        assert_eq!(n("1e999").as_u64(), None);
    }

    #[test]
    fn object_builder() {
        let v = Value::object([("name", Value::from("crun")), ("count", Value::from(3i64))]);
        assert_eq!(v.to_json(), r#"{"count":3,"name":"crun"}"#);
    }

    #[test]
    fn deterministic_key_order() {
        let a = parse(r#"{"z":1,"a":2}"#).unwrap();
        let b = parse(r#"{"a":2,"z":1}"#).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }
}
