//! A minimal JSON value type with a serializer and a parser.
//!
//! The observability layer (and the bench `report` binary) emit JSON by
//! hand so that the workspace carries no external serialization
//! dependency — the build must succeed even when the crate registry is
//! unreachable. Only what snapshots and bench files need is
//! implemented: objects keep insertion order, numbers are
//! `u64`/`i64`/`f64`, strings are escaped per RFC 8259. [`Json::parse`]
//! reads back what [`Json::render`] writes: an integer literal parses
//! as `UInt` (or `Int` when negative), anything with a fraction or an
//! exponent as `Float`.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for metrics).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts a field (builder style); panics if `self` is not an
    /// object.
    pub fn set(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// The field `key` of an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a dotted path of object keys, e.g.
    /// `append.batch_speedup`.
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |at, key| at.get(key))
    }

    /// The value as a number: integers and floats as themselves,
    /// booleans as 1/0, anything else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(f) => Some(f),
            Json::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    /// Malformed input, trailing bytes, or nesting deeper than 128
    /// levels give `Err` with the byte offset; never a panic.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.at != p.s.len() {
            return Err(p.err("trailing bytes"));
        }
        Ok(v)
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` round-trips f64 (shortest representation).
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    nl(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    nl(out, depth);
                }
                out.push('}');
            }
        }
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

/// Nesting bound for [`Json::parse`]: deeper documents are rejected
/// instead of recursing toward a stack overflow.
const MAX_DEPTH: usize = 128;

/// Recursive-descent reader over the document's bytes.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(&format!("expected '{}'", b as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        let rest = &self.s[self.at..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(v);
            }
        }
        let close = match rest.first() {
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return self.number(),
        };
        self.at += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if close == b'}' {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.s.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        // Only ASCII bytes were admitted, so this cannot fail.
        let text = std::str::from_utf8(&self.s[start..self.at]).unwrap_or_default();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(self.err("bad number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.s.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            // Split only at ASCII delimiters of a `&str`, so still UTF-8.
            out.push_str(std::str::from_utf8(&self.s[start..self.at]).unwrap_or_default());
            let (stop, esc) = (self.s.get(self.at), self.s.get(self.at + 1).copied());
            self.at += 2;
            match (stop, esc) {
                (None, _) => return Err(self.err("unterminated string")),
                (Some(b'"'), _) => {
                    self.at -= 1;
                    return Ok(out);
                }
                (_, Some(b'u')) => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.s[self.at..].starts_with(b"\\u") {
                        self.at += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.err("bad surrogate pair"));
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                }
                (_, esc) => {
                    let i = b"\"\\/bfnrt".iter().position(|&e| Some(e) == esc);
                    let c = i.map(|i| ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
                    out.push(c.ok_or_else(|| self.err("bad escape"))?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .s
            .get(self.at..self.at + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| u32::from_str_radix(std::str::from_utf8(d).ok()?, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(code)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj()
            .set("name", "refine")
            .set("count", 3u64)
            .set("neg", -4i64)
            .set("ratio", 0.5)
            .set("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(
            j.render(),
            r#"{"name":"refine","count":3,"neg":-4,"ratio":0.5,"flags":[true,null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn pretty_output_is_indented() {
        let j = Json::obj().set("a", 1u64);
        assert_eq!(j.render_pretty(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn parses_and_follows_paths() {
        // Round trips and no-panic on damage are fuzzed in tests/fuzz_parsers.rs.
        let j = Json::parse(r#"{"a": {"b": 2.5, "t": true}, "k": "\ud83c\udf33"}"#).unwrap();
        assert_eq!(j.path("a.b").and_then(Json::as_f64), Some(2.5));
        assert_eq!(j.path("a.t").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.path("k").and_then(Json::as_str), Some("🌳"));
        assert!(j.path("k.b").is_none() && j.path("a.zz").is_none());
        let deep = "[".repeat(MAX_DEPTH + 2);
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\x\"", &deep] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn preserves_insertion_order() {
        let j = Json::obj().set("z", 1u64).set("a", 2u64);
        assert_eq!(j.render(), r#"{"z":1,"a":2}"#);
    }
}
