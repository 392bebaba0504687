//! A minimal JSON value + serializer (no external deps) for the bench
//! harness's machine-readable output and the bench bins' stat dumps,
//! plus [`validate`], a syntax-only check tests run over emitted
//! documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite serializes as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Insert a field (builder style). No-op on non-objects.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(m) = &mut self {
            m.insert(key.to_string(), value.into());
        }
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
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
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl core::fmt::Display for Json {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Where and why [`validate`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset of the first character that breaks the grammar.
    pub offset: usize,
    /// What the grammar allows there.
    pub expected: &'static str,
}

impl core::fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

/// Check that `text` is exactly one JSON value (RFC 8259 grammar),
/// optionally surrounded by whitespace. A recursive-descent syntax check
/// only: it builds no values, so it accepts any document the grammar
/// does, duplicate keys and lone `\u` surrogates included.
///
/// # Errors
/// The first offset at which `text` leaves the grammar.
pub fn validate(text: &str) -> Result<(), SyntaxError> {
    let mut v = Validator {
        s: text.as_bytes(),
        i: 0,
    };
    v.ws();
    v.value()?;
    v.ws();
    if v.i == v.s.len() {
        Ok(())
    } else {
        Err(v.err("end of document"))
    }
}

struct Validator<'a> {
    s: &'a [u8],
    i: usize,
}

impl Validator<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn err(&self, expected: &'static str) -> SyntaxError {
        SyntaxError {
            offset: self.i,
            expected,
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(b'{') => self.members(b'}', true),
            Some(b'[') => self.members(b']', false),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a value")),
        }
    }

    /// An object (`keyed`) or array, from its opening bracket.
    fn members(&mut self, close: u8, keyed: bool) -> Result<(), SyntaxError> {
        self.i += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            if keyed {
                if self.peek() != Some(b'"') {
                    return Err(self.err("a string key"));
                }
                self.string()?;
                self.ws();
                if !self.eat(b':') {
                    return Err(self.err("`:`"));
                }
                self.ws();
            }
            self.value()?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(if keyed { "`,` or `}`" } else { "`,` or `]`" }));
            }
            self.ws();
        }
    }

    fn string(&mut self) -> Result<(), SyntaxError> {
        self.i += 1;
        loop {
            match self.peek() {
                None => return Err(self.err("a closing `\"`")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.err("four hex digits"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("an escaped control character")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn literal(&mut self, word: &'static str) -> Result<(), SyntaxError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err(word))
        }
    }

    /// Consume a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> Result<(), SyntaxError> {
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.err("a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("an exponent digit"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_shapes() {
        let j = Json::obj()
            .field("name", "a\"b\\c\n")
            .field("n", 42u64)
            .field("x", 1.5)
            .field("ok", true)
            .field("items", Json::Arr(vec![Json::Null, Json::Num(2.0)]));
        assert_eq!(
            j.to_string(),
            r#"{"items":[null,2],"n":42,"name":"a\"b\\c\n","ok":true,"x":1.5}"#
        );
    }

    #[test]
    fn integers_stay_integral() {
        assert_eq!(Json::Num(1224.0).to_string(), "1224");
        assert_eq!(Json::Num(0.56).to_string(), "0.56");
    }

    #[test]
    fn validator_accepts_the_grammar() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-0.5e-3",
            "12E+2",
            "true",
            "null",
            r#""""#,
            "\"é ☃\"",
            r#""\"\\\/\b\f\n\r\t\u00e9\uD800""#,
            " \t\r\n{ \"a\" : [ 1 , -2.5 , { } , [ ] , false ] , \"a\" : null } \n",
            r#"{"k":{"k":{"k":[[[]]]}}}"#,
        ] {
            assert_eq!(validate(doc), Ok(()), "{doc}");
        }
        // Everything the writer produces, including non-finite numbers
        // (as null) and every escape it emits.
        let j = Json::obj()
            .field("s", "q\"b\\c\n\r\t\u{1}é")
            .field("nan", f64::NAN)
            .field("big", 1e300)
            .field("tiny", -1e-300)
            .field("items", Json::Arr(vec![Json::obj(), Json::Arr(vec![])]));
        assert_eq!(validate(&j.to_string()), Ok(()), "{j}");
    }

    #[test]
    fn validator_rejects_at_the_first_bad_byte() {
        for (doc, offset) in [
            ("", 0),
            ("   ", 3),
            ("{", 1),
            ("{\"a\":1,}", 7),
            ("[1,]", 3),
            ("[1 2]", 3),
            ("{a:1}", 1),
            ("{\"a\" 1}", 5),
            ("01", 1),
            ("1.", 2),
            (".5", 0),
            ("-", 1),
            ("1e", 2),
            ("+1", 0),
            ("tru", 0),
            ("nul", 0),
            ("NaN", 0),
            ("\"\\x\"", 2),
            ("\"\\u12g4\"", 5),
            ("\"a\u{1}\"", 2),
            ("\"open", 5),
            ("{} {}", 3),
            ("null x", 5),
            ("{\"a\":1}}", 7),
        ] {
            assert_eq!(
                validate(doc).map_err(|e| e.offset),
                Err(offset),
                "{doc:?} must be rejected at byte {offset}"
            );
        }
    }
}
