//! A tiny, dependency-free JSON tree with a deterministic writer and
//! a strict parser.
//!
//! The build environment vendors no serde, so the scenario layer
//! carries its own JSON: [`Value`] keeps object keys in insertion
//! order and the writer emits one canonical byte sequence per tree,
//! which is what makes `lru-leak run <id> --json` bit-identical
//! across repeated runs with the same seed. [`Fields`] reads one
//! object strictly: every key must be one the reader asks for.

use std::fmt;
use std::ops::RangeInclusive;

/// A JSON value. Integers keep their own variants so `u64` seeds
/// round-trip losslessly (an `f64` would truncate above 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved (and therefore
    /// deterministic).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style). Panics on
    /// non-objects — construction bugs, not data errors.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("with() on a non-object"),
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(u) => Some(u as f64),
            Value::Int(i) => Some(i as f64),
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: one value, nothing trailing).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax
    /// error, or of arrays/objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation (still
    /// deterministic).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            _ => out.push_str(&self.to_string()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::UInt(u64::from(u))
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::UInt(u)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::UInt(u as u64)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// A type [`Fields`] can read a field as.
pub trait Field<'a>: Sized {
    /// The type as an error names it ("a boolean").
    const WHAT: &'static str;
    /// `v` as this type, if it has it.
    fn read(v: &'a Value) -> Option<Self>;
}

macro_rules! field_types {
    ($($t:ty, $what:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> Field<'a> for $t {
            const WHAT: &'static str = $what;
            fn read($v: &'a Value) -> Option<$t> { $read }
        }
    )*};
}

field_types! {
    bool, "a boolean", |v| v.as_bool();
    u32, "a non-negative 32-bit integer", |v| v.as_u64().and_then(|u| u.try_into().ok());
    u64, "a non-negative integer", |v| v.as_u64();
    usize, "a non-negative integer", |v| v.as_u64().and_then(|u| u.try_into().ok());
    f64, "a number", |v| v.as_f64();
    &'a str, "a string", |v| v.as_str();
    Vec<bool>, "a string of 0s and 1s", |v| {
        v.as_str()?.chars().map(|c| matches!(c, '0' | '1').then_some(c == '1')).collect()
    };
    &'a Value, "a JSON value", |v| Some(v);
}

/// A strict reader over the pairs of one JSON object. Each read
/// consumes the pair it finds, and [`Fields::finish`] rejects the
/// first pair nothing consumed — a misspelled key, a second copy of a
/// key, or a key of another shape — so the reads are the only list of
/// a shape's keys. Every error names the full key path, e.g.
/// `"kind.flush-reload.to_mem" must be a boolean`.
#[must_use = "finish() rejects the keys nothing read"]
pub struct Fields<'a> {
    /// Where the object sits in the document (`""` at the root).
    path: String,
    pairs: &'a [(String, Value)],
    consumed: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Opens `v`, found at `path` (`""` for the document root), as an
    /// object. A root that is not an object has no keys, so its first
    /// required field is reported missing.
    pub fn open(v: &'a Value, path: &str) -> Result<Fields<'a>, String> {
        let pairs = match v {
            Value::Obj(pairs) => pairs,
            _ if path.is_empty() => &[][..],
            _ => return Err(format!("{path:?} must be an object")),
        };
        Ok(Fields {
            path: path.to_string(),
            pairs,
            consumed: vec![false; pairs.len()],
        })
    }

    /// Opens `v`, found at `path`, as a tagged object `{"tag": body}`
    /// with exactly one key, and returns the tag with a reader from
    /// which the caller reads the body as the field `tag`.
    pub fn tagged(v: &'a Value, path: &str) -> Result<(&'a str, Fields<'a>), String> {
        let fields = Fields::open(v, path)?;
        match fields.pairs {
            [(tag, _)] => Ok((tag, fields)),
            [(a, _), (b, _), ..] => Err(format!(
                "{path:?} must be an object with exactly one key, got {a:?} and {b:?}"
            )),
            [] => Err(format!("{path:?} must be an object with exactly one key")),
        }
    }

    fn key_path(&self, key: &str) -> String {
        match self.path.as_str() {
            "" => key.to_string(),
            path => format!("{path}.{key}"),
        }
    }

    /// An optional field: `None` when absent, an error when present
    /// with another type.
    pub fn opt<T: Field<'a>>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(at) = self.pairs.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.consumed[at] = true;
        T::read(&self.pairs[at].1)
            .map(Some)
            .ok_or_else(|| format!("{:?} must be {}", self.key_path(key), T::WHAT))
    }

    /// A required field.
    pub fn req<T: Field<'a>>(&mut self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing key {:?}", self.key_path(key)))
    }

    /// A required string field that `parse` maps to a named value.
    pub fn name<T>(&mut self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, String> {
        let name: &str = self.req(key)?;
        parse(name).ok_or_else(|| format!("unknown {} {name:?}", self.key_path(key)))
    }

    /// An optional integer field that must lie in `range`.
    pub fn opt_in(
        &mut self,
        key: &str,
        range: RangeInclusive<usize>,
    ) -> Result<Option<usize>, String> {
        let bound = match self.opt(key)? {
            Some(n) if n < *range.start() => format!(">= {}", range.start()),
            Some(n) if n > *range.end() => format!("<= {}", range.end()),
            n => return Ok(n),
        };
        Err(format!("{:?} must be {bound}", self.key_path(key)))
    }

    /// A required object field, opened as a reader of its own.
    pub fn object(&mut self, key: &str) -> Result<Fields<'a>, String> {
        let v = self.req(key)?;
        Fields::open(v, &self.key_path(key))
    }

    /// Ends the read: the first pair nothing consumed is an error,
    /// named a duplicate when an earlier pair has its key.
    pub fn finish(self) -> Result<(), String> {
        let Some(at) = self.consumed.iter().position(|&c| !c) else {
            return Ok(());
        };
        let key = &self.pairs[at].0;
        let dup = self.pairs[..at].iter().any(|(k, _)| k == key);
        let what = if dup { "duplicate" } else { "unknown" };
        Err(format!("{what} key {:?}", self.key_path(key)))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip formatting is
                    // deterministic; tag integral floats so they
                    // re-parse as the same variant class.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{n:.1}")
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    f.write_str("null") // JSON has no NaN/inf
                }
            }
            Value::Str(s) => {
                let mut out = String::new();
                write_escaped(&mut out, s);
                f.write_str(&out)
            }
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::new();
                    write_escaped(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`Value::parse`] accepts. Every
/// document the project reads (scenarios, requests, journal and cache
/// entries) nests a few levels; the cap turns a hostile document's
/// unbounded recursion into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-17", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn u64_seeds_round_trip_losslessly() {
        let seed = u64::MAX - 1;
        let v = Value::obj().with("seed", seed);
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn floats_keep_a_fraction_marker() {
        let v = Value::Num(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(Value::parse("2.0").unwrap(), Value::Num(2.0));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null,"d":true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        // And the parse of the serialization is the same tree.
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Value::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn rejects_trailing_garbage_and_syntax_errors() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("'single'").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", r#"{"a":"#] {
            let err = Value::parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn nesting_at_the_cap_still_parses() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Value::parse(&at_cap).unwrap().to_string(), at_cap);
        let objs = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert_eq!(Value::parse(&objs).unwrap().to_string(), objs);
        let over = format!("[{at_cap}]");
        assert!(Value::parse(&over).unwrap_err().contains("nesting"));
    }

    #[test]
    fn escapes_survive() {
        let v = Value::Str("tab\there \"quoted\" \\ back".into());
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let v = Value::parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
    }
}
