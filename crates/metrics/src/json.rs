//! A minimal hand-rolled JSON reader — the parsing half of the scrape
//! plane's dependency-free contract.
//!
//! [`crate::TelemetryRegistry::render_json`] writes scrape documents with
//! a hand-rolled serializer; this module reads them back into a small
//! [`Json`] tree so the operator console (and any other in-repo consumer)
//! can type a scrape without pulling serde into the workspace. It is a
//! strict recursive-descent parser over the JSON grammar: objects, arrays,
//! strings with the standard escapes (including `\uXXXX` with surrogate
//! pairs), numbers (parsed as `f64`), `true`/`false`/`null`.
//!
//! Two deliberate limits keep it safe on hostile input:
//!
//! - nesting deeper than [`MAX_DEPTH`] is rejected instead of recursing
//!   toward a stack overflow, and
//! - every error carries the byte offset it was detected at, so a corrupt
//!   recording frame points at itself.

use std::fmt;

/// Maximum container nesting the parser will follow.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always read as `f64`; the scrape plane's counters
    /// stay exact up to 2^53, far beyond any realistic scrape).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (scrape documents never repeat keys).
    Obj(Vec<(String, Json)>),
}

/// Why a document failed to parse, and where.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions and
    /// anything past 2^53 (where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n <= 9.007_199_254_740_992e15 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool (`None` for non-bools).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte at value start")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn literal(&mut self, word: &'static [u8], v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped run in one slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on byte positions found by
            // scanning ASCII delimiters always lands on char boundaries.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control byte in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = (v << 4) | d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("number has no digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("number has an empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("number has an empty exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            msg: "unrepresentable number",
        })
    }
}

/// Append `s` to `out` as a JSON string literal (quotes and all) — the
/// escaping mirror of the parser's string reader, used by the scrape recorder to
/// embed journal-event text.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u00e9\"").unwrap(),
            Json::Str("a\n\"bé".to_string())
        );
        let doc = Json::parse("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}").unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(Json::parse("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (text, what) in [
            ("{", "truncated object"),
            ("[1,]", "trailing comma"),
            ("{\"a\" 1}", "missing colon"),
            ("01x", "trailing garbage"),
            ("\"abc", "unterminated string"),
            ("1.", "empty fraction"),
            ("1e", "empty exponent"),
            ("nul", "bad literal"),
            ("", "empty document"),
        ] {
            let e = Json::parse(text).expect_err(what);
            assert!(e.offset <= text.len(), "{what}: offset in range");
        }
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = Json::parse(&deep).expect_err("too deep");
        assert_eq!(e.msg, "nesting deeper than MAX_DEPTH");
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_guards_fractions_and_range() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn write_json_string_escapes_everything_parse_unescapes() {
        let nasty = "a\"b\\c\nd\te\u{1}f😀";
        let mut doc = String::new();
        write_json_string(&mut doc, nasty);
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn registry_render_json_parses() {
        let reg = crate::TelemetryRegistry::new();
        let t = reg.register(0);
        t.offered.add(10);
        t.processed.add(10);
        t.ring_occupancy.set_f64(f64::NAN); // renders as null
        t.batch_ns.record(512);
        let doc = Json::parse(&reg.render_json()).expect("scrape parses");
        assert!(doc.get("shards").and_then(Json::as_arr).is_some());
    }
}
