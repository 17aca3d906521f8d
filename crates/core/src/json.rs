//! The workspace's only JSON code: one escaper, one object writer, one
//! reader — dependency-free, so the CI gate keeps building with exactly
//! the seed dependency set.
//!
//! * [`Object`] writes one object with its keys in call order; every
//!   STATS line, the `memory_budget` and `shard_state` lines and the perf
//!   report are built with it, so every string passes through [`escape`].
//! * [`parse`] reads one document. It sits on the fleet router's probe
//!   path, where a shard's reply is outside input: it returns `Err` on
//!   anything malformed, bounds nesting at [`MAX_DEPTH`], and keeps
//!   non-negative integer literals exact as `u64`.

use std::fmt::Write as _;

/// Deepest nesting [`parse`] accepts; the deepest document in the
/// repository (the perf report) has depth 3.
pub const MAX_DEPTH: usize = 32;

/// Appends `s` to `out`, escaped for a JSON string literal.
pub fn escape(s: &str, out: &mut String) {
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
}

/// Writer for one JSON object; members appear in call order.
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An object with no members yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        self.0.push('"');
        escape(key, &mut self.0);
        self.0.push_str("\":");
    }

    /// Adds a string member.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.0.push('"');
        escape(value, &mut self.0);
        self.0.push('"');
        self
    }

    /// Adds an integer member (exact over the whole `u64` range).
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Adds a number with `decimals` fractional digits; a non-finite
    /// value has no JSON literal and is written as `null`.
    pub fn f64(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.0, "{value:.decimals$}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Adds a boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Adds an array of objects with `separator` between them: `","` keeps
    /// the object on one line, `",\n"` puts one item per line for
    /// documents a person diffs (the perf baseline).
    pub fn array(
        mut self,
        key: &str,
        separator: &str,
        items: impl IntoIterator<Item = Object>,
    ) -> Self {
        self.key(key);
        self.0.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push_str(separator);
            }
            self.0.push_str(&item.finish());
        }
        self.0.push(']');
        self
    }

    /// Closes the object and returns its text (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact.
    U64(u64),
    /// Any other number literal.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (`None` for a missing key or any other
    /// kind of value).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers convert; beyond 2^53 they round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses exactly one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

/// Recursive descent over the bytes of a `&str`; every slice it takes
/// starts and ends next to an ASCII byte, so it stays on char boundaries.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", ch as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.members(b'}', |r| {
                let key = r.string()?;
                r.expect(b':')?;
                Ok((key, r.value(depth + 1)?))
            })?)),
            Some(b'[') => Ok(Json::Arr(self.members(b']', |r| r.value(depth + 1))?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if literal.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = literal.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match literal.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }

    /// The character of a `\u` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate before byte {}", self.pos));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate before byte {}", self.pos))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        other => return Err(format!("unsupported escape {other:?}")),
                    });
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// The members of an array or object whose opener is at `pos`, each
    /// read by `member`, up to the matching `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            members.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(members);
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::splitmix64;

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::U64(1),
                Json::Num(-2500.0),
                Json::Str("x\"y".to_string())
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        for bad in ["{\"a\": }", "[1, 2] extra", "", "-", "1e999", "{\"a\":1,}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_stay_exact_and_floats_stay_floats() {
        let v = parse("[18446744073709551615, 18446744073709551616, 0, 1.0, -3]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Json::Num(18446744073709551616.0));
        assert_eq!(items[2].as_u64(), Some(0));
        assert_eq!(items[3].as_u64(), None);
        assert_eq!(items[3].as_f64(), Some(1.0));
        assert_eq!(items[4], Json::Num(-3.0));
    }

    #[test]
    fn every_standard_escape_decodes() {
        let v = parse(r#""\b\f\n\r\t\/\\\"\u0001\u00e9\ud83d\uDE00é""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{8}\u{c}\n\r\t/\\\"\u{1}é😀é"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dA""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x""#,
            "\"raw\u{1}control\"",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 2)).is_err());
        // One maximal probe line of nothing but `[` must not overflow the stack.
        assert!(parse(&"[".repeat(64 * 1024)).is_err());
        assert!(parse(&"{\"a\":".repeat(64 * 1024)).is_err());
    }

    #[test]
    fn writer_output_reads_back() {
        let nasty = "q\"b\\s/\u{0}\u{1f}\n\r\t\u{7f}é😀";
        let line = Object::new()
            .str(nasty, nasty)
            .u64("max", u64::MAX)
            .f64("ratio", 0.12345, 2)
            .f64("inf", f64::INFINITY, 1)
            .bool("yes", true)
            .array("items", ",", [Object::new().u64("ge", 4), Object::new()])
            .array("rows", ",\n", [Object::new().str("k", "v")])
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get(nasty).and_then(Json::as_str), Some(nasty));
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(0.12));
        assert_eq!(v.get("inf"), Some(&Json::Null));
        assert_eq!(v.get("yes"), Some(&Json::Bool(true)));
        let items = v.get("items").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0].get("ge").and_then(Json::as_u64), Some(4));
        assert_eq!(items[1], Json::Obj(Vec::new()));
        assert_eq!(
            v.get("rows").and_then(Json::as_arr).unwrap()[0].get("k"),
            Some(&Json::Str("v".to_string()))
        );
    }

    /// Seeded never-panic loop: random bytes, and truncations and
    /// bit-flips of valid lines. Whatever comes back, nothing unwinds; a
    /// string the writer escaped always reads back to itself.
    #[test]
    fn reader_never_panics_on_hostile_input() {
        let valid = Object::new()
            .str("label", "a\u{1}\"b\\")
            .str("metric", "memory_budget")
            .u64("value", u64::MAX)
            .f64("ratio", -2.5, 3)
            .array("buckets", ",", [Object::new().u64("ge", 1).u64("count", 2)])
            .finish();
        assert!(parse(&valid).is_ok());
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        for round in 0..20_000 {
            let r = next();
            let mut bytes = match round % 3 {
                0 => (0..r % 64).map(|_| next() as u8).collect(),
                1 => valid.as_bytes()[..(r as usize) % valid.len()].to_vec(),
                _ => valid.as_bytes().to_vec(),
            };
            if round % 3 == 2 {
                let at = (r as usize >> 8) % bytes.len();
                bytes[at] ^= 1 << (r % 8);
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));

            let text: String = (0..r % 16)
                .filter_map(|_| char::from_u32(next() as u32 % 0x11_0000))
                .collect();
            let line = Object::new().str("s", &text).finish();
            assert_eq!(
                parse(&line).unwrap().get("s").and_then(Json::as_str),
                Some(text.as_str())
            );
        }
    }
}
