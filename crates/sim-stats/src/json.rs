//! A minimal JSON value: emitter and parser.
//!
//! The observability exporters ([`crate::obs`], [`crate::chrome`]) write
//! machine-readable reports; this module provides the small JSON subset they
//! need without external dependencies. Objects preserve insertion order so
//! emitted reports are deterministic, and integers are kept exact (no
//! float round-trip) because cycle counters are `u64`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (cycle counts, event counts).
    U64(u64),
    /// A floating-point number (rates, means).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}
impl From<u16> for Json {
    fn from(v: u16) -> Self {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items (`None` for other variants).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` (`None` for non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Recursively sorts every object's keys, returning the canonical
    /// form. Two semantically equal values render byte-identically after
    /// canonicalization regardless of insertion order; the profiler
    /// binaries canonicalize their `--json` output so repeated runs are
    /// byte-comparable.
    pub fn canonical(self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::canonical).collect()),
            Json::Obj(pairs) => {
                let mut pairs: Vec<(String, Json)> =
                    pairs.into_iter().map(|(k, v)| (k, v.canonical())).collect();
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(pairs)
            }
            other => other,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a JSON document (the subset this module emits, which is the
    /// standard grammar minus exotic number forms like `1e999`).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Keep integral floats readable and round-trippable.
            let _ = write!(out, "{:.1}", v);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let esc = rest.get(1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", *other as char)),
                    }
                }
                _ => {
                    // Copy the run of plain characters up to the next quote
                    // or escape. Both are ASCII, which never occurs inside
                    // a multi-byte character, so the run ends on a
                    // character boundary.
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    s.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact() {
        let v = Json::obj([
            ("cycles", Json::U64(42)),
            ("rate", Json::F64(0.5)),
            ("name", Json::from("mcs")),
            ("items", Json::Arr(vec![Json::U64(1), Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.render(), r#"{"cycles":42,"rate":0.5,"name":"mcs","items":[1,null,true]}"#);
    }

    #[test]
    fn round_trips() {
        let v = Json::obj([
            ("a", Json::U64(u64::MAX)),
            ("b", Json::F64(1.25)),
            ("s", Json::from("quote \" backslash \\ newline \n")),
            (
                "nested",
                Json::obj([("empty_arr", Json::Arr(vec![])), ("empty_obj", Json::obj::<_, String>([]))]),
            ),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        let parsed_pretty = Json::parse(&v.render_pretty()).unwrap();
        assert_eq!(parsed_pretty, v);
    }

    #[test]
    fn parses_hand_written_documents() {
        let v = Json::parse(" { \"x\" : [ 1 , -2.5 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(v.get("x").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("x").unwrap().as_arr().unwrap()[2].as_str(), Some("A"));
    }

    #[test]
    fn parses_a_multi_megabyte_string() {
        // A string is copied run by run: decoding each character from the
        // whole remaining input made a 5 MB trace take minutes to parse.
        let long = "slice é → ".repeat(400_000);
        assert!(long.len() > 4_000_000);
        let doc = Json::Arr(vec![Json::from(long.as_str()), Json::from("after \"quote\" and \\")]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
    }

    #[test]
    fn integral_floats_render_with_decimal_point() {
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::U64(2).render(), "2");
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let scrambled = Json::obj([
            ("z", Json::obj([("b", Json::U64(2)), ("a", Json::U64(1))])),
            ("a", Json::Arr(vec![Json::obj([("y", Json::Null), ("x", Json::Bool(true))])])),
        ]);
        let reordered = Json::obj([
            ("a", Json::Arr(vec![Json::obj([("x", Json::Bool(true)), ("y", Json::Null)])])),
            ("z", Json::obj([("a", Json::U64(1)), ("b", Json::U64(2))])),
        ]);
        assert_eq!(scrambled.clone().canonical().render(), reordered.clone().canonical().render());
        assert_eq!(scrambled.canonical().render(), r#"{"a":[{"x":true,"y":null}],"z":{"a":1,"b":2}}"#);
        assert_eq!(Json::U64(3).canonical(), Json::U64(3));
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("n", Json::U64(7))]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }
}
