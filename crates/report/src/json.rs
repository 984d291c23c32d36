//! The workspace's one JSON codec.
//!
//! Everything grown around the CSV pipeline speaks JSON: trace files,
//! store records, the daemon journal, the run-registry
//! index, the store ledger, mc-scope profiles and the daemon's HTTP API.
//! They all go through this module: one value type ([`Json`]), one writer
//! ([`Json::write`], [`write_str`] and the key-ordered [`Object`]) and one
//! byte-cursor parser ([`Cursor`], with [`Json::parse`] on top).
//!
//! The wire rules are the ones the trace format has always persisted:
//!
//! * integers are written as integers; constructors normalize
//!   non-negative integers to [`Json::UInt`], so values survive a round
//!   trip structurally, not just numerically;
//! * finite floats use Rust's shortest round-trip formatting (`{:?}`, so
//!   integral floats keep their `.0`); JSON has no NaN or infinity, so
//!   those become the strings `"NaN"`, `"inf"` and `"-inf"`, which
//!   [`Json::as_f64`] reads back;
//! * strings escape C0 controls, DEL, U+2028 and U+2029 as `\uXXXX`, so
//!   every record stays one physical line for any line-oriented reader.
//!
//! The parser never slices the input at an arbitrary byte, reports errors
//! by byte offset, and returns `Err` — never panics — on malformed input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Negative integer (non-negative integers normalize to `UInt`).
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Float (non-finite values are written as strings).
    Float(f64),
    /// String, unescaped.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with sorted keys, which keeps renderings canonical. Writers
    /// that need a fixed key order use [`Object`].
    Obj(BTreeMap<String, Json>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::UInt(v as u64)
        } else {
            Json::Int(v)
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Parses `text` as one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut cursor = Cursor::new(text);
        let value = cursor.value()?;
        cursor.end()?;
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as u64, when a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as i64, when an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as f64, when numeric — including the strings `"NaN"`,
    /// `"inf"` and `"-inf"` that non-finite floats are written as.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            // `{:?}` is the shortest representation that parses back to
            // the same f64.
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Float(v) => write_str(out, &v.to_string()),
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
            Json::Obj(map) => {
                let mut object = Object::open(out);
                for (k, v) in map {
                    v.write(object.key(k));
                }
                object.close();
            }
        }
    }
}

/// Appends `s` as a quoted JSON string. C0 controls, DEL and the Unicode
/// line separators leave as `\uXXXX`: U+2028/U+2029 are legal raw in JSON
/// but terminate lines in JavaScript source and some JSONL consumers, and
/// raw DEL trips terminal pagers.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Unescaped text is copied in runs, not char by char.
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let escaped = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(escaped);
        }
        run = i + c.len_utf8();
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes one JSON object with its keys in call order — for the formats
/// whose field order is part of the wire contract (trace events, profile
/// records), where a sorted [`Json::Obj`] would reorder them.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Opens an object on `out`.
    pub fn open(out: &'a mut String) -> Object<'a> {
        out.push('{');
        Object { out, empty: true }
    }

    /// Writes `key` and its colon, and returns the buffer for the value.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes one `key: value` member.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        value.into().write(self.key(key));
        self
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Nesting beyond this depth is rejected rather than recursed into, so a
/// hostile document cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// A recursive-descent reader over the bytes of one JSON text.
///
/// [`Json::parse`] reads whole documents with it; readers of a fixed
/// record shape (trace events) walk it token by token and skip building
/// an intermediate tree. Every token method skips leading whitespace.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes the byte `b` or fails.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// Consumes the byte `b` when it is next.
    pub fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Succeeds only when nothing but whitespace remains.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing input at byte {}", self.pos))
        }
    }

    /// Reads one string.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            // `"` and `\` are ASCII, so `run..pos` is always a whole
            // number of chars.
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    self.escape(&mut out)?;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let at = self.pos;
        let Some(b) = self.peek() else { return Err("unterminated escape".into()) };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                // A surrogate pair combines into one scalar; a lone
                // surrogate degrades to U+FFFD rather than erroring.
                if (0xd800..0xdc00).contains(&unit) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        let c = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                        out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                    } else {
                        out.push('\u{fffd}');
                        out.push(char::from_u32(low).unwrap_or('\u{fffd}'));
                    }
                } else {
                    out.push(char::from_u32(unit).unwrap_or('\u{fffd}'));
                }
            }
            _ => return Err(format!("bad escape at byte {at}")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number_literal(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Reads one unsigned integer.
    pub fn u64(&mut self) -> Result<u64, String> {
        let lit = self.number_literal()?;
        lit.parse().map_err(|_| format!("invalid unsigned integer `{lit}`"))
    }

    /// Reads one value of any shape.
    pub fn value(&mut self) -> Result<Json, String> {
        self.nested(0)
    }

    fn nested(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if !self.eat(b'}') {
                    loop {
                        let key = self.string()?;
                        self.expect(b':')?;
                        map.insert(key, self.nested(depth + 1)?);
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b'}')?;
                }
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.nested(depth + 1)?);
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let lit = self.number_literal()?;
        let integral = !lit.contains(['.', 'e', 'E']);
        if integral {
            // `-0` is a float: no integer variant holds the sign.
            match lit.parse::<i64>() {
                Ok(0) if lit.starts_with('-') => return Ok(Json::Float(-0.0)),
                Ok(v) => return Ok(Json::from(v)),
                Err(_) => {
                    if let Ok(v) = lit.parse::<u64>() {
                        return Ok(Json::UInt(v));
                    }
                }
            }
        }
        // Fractions, exponents and integers beyond 64 bits.
        lit.parse().map(Json::Float).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, coin, pick, printable};
    use crate::rng::SplitMix64;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "3", "-2.5", "\"hi\"", "0.125", "4.0", "-7"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "{text}");
        }
    }

    #[test]
    fn integers_normalize_and_overflow_to_floats() {
        assert_eq!(Json::from(5i64), Json::UInt(5));
        assert_eq!(Json::from(-5i64), Json::Int(-5));
        assert_eq!(Json::from(0i64), Json::UInt(0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(Json::parse("100000000000000000000").unwrap(), Json::Float(1e20));
        assert!(
            matches!(Json::parse("-0").unwrap(), Json::Float(z) if z == 0.0 && z.is_sign_negative())
        );
        assert_eq!(Json::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Json::UInt(7).as_i64(), Some(7));
        assert_eq!(Json::Int(-7).as_u64(), None);
    }

    #[test]
    fn non_finite_floats_are_strings_that_read_back() {
        for (v, text) in
            [(f64::NAN, "\"NaN\""), (f64::INFINITY, "\"inf\""), (f64::NEG_INFINITY, "\"-inf\"")]
        {
            let rendered = Json::Float(v).render();
            assert_eq!(rendered, text);
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert!(!back.is_finite());
            assert_eq!(back.is_nan(), v.is_nan());
            assert_eq!(back.is_sign_negative(), v.is_sign_negative() && !v.is_nan());
        }
        assert_eq!(Json::Str("nan".into()).as_f64(), None);
    }

    #[test]
    fn nested_documents_parse() {
        let v = Json::parse(r#"{"a": [1, {"b": "x\ny"}], "c": {"d": null}}"#).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.as_array()).map(<[Json]>::len), Some(2));
        let inner = v.get("a").unwrap().as_array().unwrap()[1].get("b").unwrap();
        assert_eq!(inner.as_str(), Some("x\ny"));
        // Canonical rendering sorts keys and escapes the newline.
        assert_eq!(v.render(), r#"{"a":[1,{"b":"x\ny"}],"c":{"d":null}}"#);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
        // BMP escape and an astral surrogate pair.
        assert_eq!(Json::parse(r#""\u00e9 \ud83d\ude00""#).unwrap().as_str(), Some("é 😀"));
        // Lone surrogates degrade instead of failing.
        assert_eq!(Json::parse(r#""\ud83d!""#).unwrap().as_str(), Some("\u{fffd}!"));
        assert_eq!(Json::parse(r#""\ud83d\u0041""#).unwrap().as_str(), Some("\u{fffd}A"));
        assert_eq!(Json::parse(r#""\b\f\/""#).unwrap().as_str(), Some("\u{8}\u{c}/"));
    }

    #[test]
    fn hostile_strings_escape_and_stay_on_one_line() {
        let hostile =
            "a \"quoted\"\tline\nwith \\ and \u{1}\u{1f} del:\u{7f} ls:\u{2028} ps:\u{2029} é";
        let text = Json::from(hostile).render();
        for escaped in
            ["\\\"", "\\t", "\\n", "\\\\", "\\u0001", "\\u001f", "\\u007f", "\\u2028", "\\u2029"]
        {
            assert!(text.contains(escaped), "{escaped} missing in {text}");
        }
        assert!(text
            .chars()
            .all(|c| (c as u32) >= 0x20 && c != '\u{7f}' && c != '\u{2028}' && c != '\u{2029}'));
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn real_bench_snapshot_parses() {
        let text = r#"{"bench":"sweep","results":[{"config":"serial","sweep_ms":12.5},
            {"config":"jobs=8","sweep_ms":3.25}],"acceptance":{"pass":true}}"#;
        let v = Json::parse(text).unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("sweep_ms").and_then(Json::as_f64), Some(3.25));
        assert_eq!(v.get("acceptance").unwrap().get("pass").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "1 2",
            "tru",
            "{\"a\":}",
            "[1 2]",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "-",
            "1e",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_writer_keeps_call_order() {
        let mut out = String::new();
        let mut o = Object::open(&mut out);
        o.field("z", 1u64).field("a", "x").field("m", -2i64);
        let mut inner = Object::open(o.key("n"));
        inner.field("f", 0.5f64);
        inner.close();
        o.close();
        assert_eq!(out, r#"{"z":1,"a":"x","m":-2,"n":{"f":0.5}}"#);
        let mut empty = String::new();
        Object::open(&mut empty).close();
        assert_eq!(empty, "{}");
    }

    /// Strings rich in multi-byte characters, escapes and JSON syntax.
    fn hostile_text(rng: &mut SplitMix64, max: usize) -> String {
        let len = rng.gen_range(0..=max);
        let pieces = [
            "é", "€", "😀", "\u{2028}", "\u{7f}", "\\", "\"", "{", "}", "[", "]", ":", ",", "\\u",
            "\\ud83d", "-", "1", "e", ".", "\n", " ", "null", "tr",
        ];
        (0..len)
            .map(|_| if coin(rng) { pick(rng, &pieces).to_owned() } else { printable(rng, 3) })
            .collect()
    }

    fn arbitrary(rng: &mut SplitMix64, depth: u32) -> Json {
        match rng.gen_range(0..if depth == 0 { 6u32 } else { 8 }) {
            0 => Json::Null,
            1 => Json::Bool(coin(rng)),
            2 => Json::from((rng.next_u64() as i64) >> rng.gen_range(0..64u32)),
            3 => Json::UInt(rng.next_u64() >> rng.gen_range(0..64u32)),
            4 => Json::Float(match rng.gen_range(0..4u32) {
                0 => f64::from_bits(rng.next_u64()),
                1 => pick(rng, &[0.0, -0.0, f64::MIN, f64::MAX, f64::EPSILON, 1e300, -1e-300, 4.0]),
                _ => (rng.next_f64() - 0.5) * 10f64.powi(rng.gen_range(-30..30i32)),
            }),
            5 => Json::Str(hostile_text(rng, 12)),
            6 => {
                Json::Arr((0..rng.gen_range(0..4u32)).map(|_| arbitrary(rng, depth - 1)).collect())
            }
            _ => Json::Obj(
                (0..rng.gen_range(0..4u32))
                    .map(|_| (hostile_text(rng, 6), arbitrary(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Equality with floats compared by bits; non-finite floats come back
    /// as their strings.
    fn same(written: &Json, read: &Json) -> bool {
        match (written, read) {
            (Json::Float(a), b) if !a.is_finite() => {
                b.as_f64().is_some_and(|b| !b.is_finite() && a.is_nan() == b.is_nan())
            }
            (Json::Float(a), Json::Float(b)) => a.to_bits() == b.to_bits(),
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
            }
            (a, b) => a == b,
        }
    }

    #[test]
    fn prop_render_then_parse_is_identity() {
        check(512, |rng| {
            let value = arbitrary(rng, 3);
            let text = value.render();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert!(same(&value, &back), "{value:?} came back as {back:?} via {text}");
            assert!(!text.contains('\n'), "{text}");
        });
    }

    #[test]
    fn prop_every_finite_f64_round_trips_bit_exactly() {
        check(2048, |rng| {
            let v = f64::from_bits(rng.next_u64());
            if !v.is_finite() {
                return;
            }
            let back = Json::parse(&Json::Float(v).render()).unwrap();
            assert!(matches!(back, Json::Float(b) if b.to_bits() == v.to_bits()), "{v:?}");
        });
    }

    #[test]
    fn prop_malformed_input_errs_without_panicking() {
        let reproducer = format!("{{\"kind\":\"event\",\"name\":\"x\"}} a{}", "é".repeat(40));
        assert!(Json::parse(&reproducer).is_err());
        check(512, |rng| {
            let _ = Json::parse(&hostile_text(rng, 64));
            // Every proper prefix of a valid document is an error.
            let text = arbitrary(rng, 3).render();
            for (cut, _) in text.char_indices().skip(1) {
                let prefix = &text[..cut];
                if let Ok(v) = Json::parse(prefix) {
                    // Only a complete number can be a valid prefix.
                    assert!(matches!(v, Json::Int(_) | Json::UInt(_) | Json::Float(_)), "{prefix}");
                }
            }
        });
    }
}
