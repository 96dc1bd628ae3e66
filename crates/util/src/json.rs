//! A minimal JSON value model and writer.
//!
//! The bench harness emits machine-readable results with `--json`; this
//! module is the in-tree replacement for a serde stack. Output is
//! strictly valid: strings are escaped per RFC 8259, non-finite floats
//! serialize as `null`, and object key order is the insertion order (so
//! output is deterministic). A small recursive-descent [`Json::parse`]
//! reads values back — the campaign runner's `--resume` path consumes
//! its own checkpoint manifest with it.
//!
//! # Examples
//!
//! ```
//! use redsim_util::Json;
//!
//! let j = Json::obj()
//!     .field("app", "gzip")
//!     .field("ipc", 1.25)
//!     .field("modes", Json::from_iter(["sie", "die"]));
//! assert_eq!(
//!     j.to_string(),
//!     r#"{"app":"gzip","ipc":1.25,"modes":["sie","die"]}"#
//! );
//! ```

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts (serde_json's
/// default). The parser recurses once per level, so without a cap a
/// line of `[` could overflow the reading thread's stack; past it the
/// parse fails with a [`JsonParseError`] instead.
pub const MAX_NESTING: usize = 128;

/// A structural misuse of the [`Json`] mutation API: writing a field
/// on a non-object or appending to a non-array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonTypeError {
    /// [`Json::set`] was called on a value that is not [`Json::Obj`].
    NotAnObject,
    /// [`Json::push`] was called on a value that is not [`Json::Arr`].
    NotAnArray,
}

impl fmt::Display for JsonTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonTypeError::NotAnObject => write!(f, "Json::set on a non-object"),
            JsonTypeError::NotAnArray => write!(f, "Json::push on a non-array"),
        }
    }
}

impl std::error::Error for JsonTypeError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer (serialized without a decimal point).
    UInt(u64),
    /// A double. Non-finite values serialize as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::field`] chaining.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array, ready for [`Json::item`] chaining.
    #[must_use]
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Adds (or replaces) a field on an object, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object; use [`Json::set`] for the
    /// fallible form.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Err(e) = self.set(key, value) {
            panic!("{e}");
        }
        self
    }

    /// Adds (or replaces) a field on an object, in place.
    ///
    /// # Errors
    ///
    /// Returns [`JsonTypeError::NotAnObject`] if `self` is not an
    /// object; the value is unchanged.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> Result<(), JsonTypeError> {
        let Json::Obj(fields) = self else {
            return Err(JsonTypeError::NotAnObject);
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_owned(), value));
        }
        Ok(())
    }

    /// Appends an element to an array, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array; use [`Json::push`] for the
    /// fallible form.
    #[must_use]
    pub fn item(mut self, value: impl Into<Json>) -> Json {
        if let Err(e) = self.push(value) {
            panic!("{e}");
        }
        self
    }

    /// Appends an element to an array, in place.
    ///
    /// # Errors
    ///
    /// Returns [`JsonTypeError::NotAnArray`] if `self` is not an
    /// array; the value is unchanged.
    pub fn push(&mut self, value: impl Into<Json>) -> Result<(), JsonTypeError> {
        let Json::Arr(items) = self else {
            return Err(JsonTypeError::NotAnArray);
        };
        items.push(value.into());
        Ok(())
    }

    /// Looks a field up on an object (test convenience).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a
    /// non-negative signed integer).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a double (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements of an array, if the value is one.
    #[must_use]
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// Integers without a fraction or exponent parse to
    /// [`Json::UInt`]/[`Json::Int`] so counter values round-trip
    /// exactly; everything else numeric becomes [`Json::Num`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] locating the first offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes `.0` for whole
                    // numbers — both valid JSON.
                    out.push_str(&format!("{x:?}"));
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

/// A malformed JSON document: what was wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What the parser expected or found.
    pub msg: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonParseError {
        JsonParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An array or object one level deeper, refused past [`MAX_NESTING`].
    fn nested(&mut self) -> Result<Json, JsonParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 (no escapes, no quote).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired up — the writer
                            // never emits them; reject rather than
                            // corrupt.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !fractional {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<i32> for Json {
    fn from(i: i32) -> Json {
        Json::Int(i64::from(i))
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u64::from(u))
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(
            Json::from(18_446_744_073_709_551_615u64).to_string(),
            "18446744073709551615"
        );
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from(2.0).to_string(), "2.0");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        let j = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(j.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn object_preserves_insertion_order_and_replaces() {
        let j = Json::obj()
            .field("b", 1i64)
            .field("a", 2i64)
            .field("b", 3i64);
        assert_eq!(j.to_string(), r#"{"b":3,"a":2}"#);
        assert_eq!(j.get("a"), Some(&Json::Int(2)));
        assert_eq!(j.get("zz"), None);
    }

    #[test]
    fn arrays_nest() {
        let j = Json::arr()
            .item(Json::from_iter([1i64, 2]))
            .item(Json::obj().field("k", "v"));
        assert_eq!(j.to_string(), r#"[[1,2],{"k":"v"}]"#);
    }

    #[test]
    fn set_on_a_non_object_is_a_typed_error() {
        let mut j = Json::arr();
        assert_eq!(j.set("k", 1i64), Err(JsonTypeError::NotAnObject));
        assert_eq!(j, Json::arr(), "failed set leaves the value unchanged");
        assert_eq!(
            JsonTypeError::NotAnObject.to_string(),
            "Json::set on a non-object"
        );
    }

    #[test]
    fn push_on_a_non_array_is_a_typed_error() {
        let mut j = Json::obj();
        assert_eq!(j.push(1i64), Err(JsonTypeError::NotAnArray));
        assert_eq!(j, Json::obj(), "failed push leaves the value unchanged");
        assert_eq!(
            JsonTypeError::NotAnArray.to_string(),
            "Json::push on a non-array"
        );
    }

    #[test]
    fn round_trip_shape_is_parseable() {
        // A light structural check: balanced braces, valid escapes.
        let j = Json::obj()
            .field("name", "fig \"x\"")
            .field("vals", Json::from_iter([0.5, 1.0, f64::NAN]));
        let s = j.to_string();
        assert_eq!(s, r#"{"name":"fig \"x\"","vals":[0.5,1.0,null]}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .field("title", "coverage \"x\"\n")
            .field("quick", true)
            .field("count", 18_446_744_073_709_551_615u64)
            .field("delta", -3i64)
            .field("ipc", 1.25)
            .field("none", Json::Null)
            .field("rows", Json::from_iter([1u64, 2, 3]))
            .field("nested", Json::obj().field("k", "v"));
        let parsed = Json::parse(&j.to_string()).expect("writer output parses");
        assert_eq!(parsed, j);
        // And the text round-trips byte-identically.
        assert_eq!(parsed.to_string(), j.to_string());
    }

    #[test]
    fn parse_accessors_expose_scalars() {
        let j = Json::parse(r#"{"a": 7, "b": -2, "c": 1.5, "d": "s", "e": [true]}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("b").and_then(Json::as_u64), None);
        assert_eq!(j.get("b").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(j.get("c").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("d").and_then(Json::as_str), Some("s"));
        let items = j.get("e").and_then(Json::items).unwrap();
        assert_eq!(items[0].as_bool(), Some(true));
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let j = Json::parse(" { \"k\\n\\u0041\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            j.get("k\nA").and_then(Json::items).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nulll",
            "\"bad \\x escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = Json::parse("[1, oops]").unwrap_err();
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn parse_accepts_nesting_up_to_the_cap_and_refuses_one_more() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_NESTING)).is_ok());
            let e = Json::parse(&nest(open, close, MAX_NESTING + 1)).unwrap_err();
            assert_eq!(e.msg, "nesting deeper than 128 levels");
        }
    }

    #[test]
    fn a_max_length_request_line_of_brackets_is_an_error_not_a_stack_overflow() {
        // 64 KiB − 1 bytes: the longest line the serve daemon reads, on a
        // thread with the default 2 MiB stack its connections run on.
        let line = "[".repeat(64 * 1024 - 1);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&line))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread finished");
        let e = parsed.unwrap_err();
        assert_eq!(e.pos, MAX_NESTING, "{e}");
    }

    #[test]
    fn parse_keeps_integer_fidelity() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-9").unwrap(), Json::Int(-9));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
    }
}
