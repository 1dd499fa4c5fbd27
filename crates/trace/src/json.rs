//! A tiny std-only JSON document model: build, render, parse.
//!
//! The workspace builds offline (DESIGN.md §6), so every JSON document the
//! repo writes — fuzz sweep summaries, bench results, query traces,
//! `/status` — goes through this one writer, and `rodb_top --check` and the
//! measured-wall benchmark parse them back with it.
//!
//! Object keys keep insertion order, so emitted files diff stably. Numbers
//! are `f64` (every counter fits exactly below 2^53); integral values render
//! without a trailing `.0`.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics when `self` is not an object —
    /// builder misuse, not data-dependent).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline (the shape
    /// the repo's checked-in `results/*.json` files use).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line (trace event streams, where density matters).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => render_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].render(out, ind)
            }),
            Json::Obj(fields) => render_seq(out, indent, '{', '}', fields.len(), |out, i, ind| {
                let (k, v) = &fields[i];
                render_str(k, out);
                out.push_str(": ");
                v.render(out, ind);
            }),
        }
    }

    /// Parse a JSON document (strict enough for the repo's own files).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
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
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i32> for Json {
    fn from(n: i32) -> Json {
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

fn render_num(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
        if i + 1 < len {
            out.push(',');
            if inner.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
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
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the repo's
                            // own ASCII artifacts; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let j = Json::obj()
            .set("bench", "demo")
            .set("rows", 1000u64)
            .set("frac", 0.25)
            .set("ok", true)
            .set("points", vec![Json::obj().set("threads", 4u64)]);
        let text = j.pretty();
        assert!(text.contains("\"rows\": 1000"));
        assert!(text.contains("\"frac\": 0.25"));
        assert!(!text.contains("1000.0"), "integral numbers render as ints");
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parse_round_trips_own_output() {
        let j = Json::obj()
            .set("s", "a \"quoted\"\n\tstring\\")
            .set("neg", -12.5)
            .set("exp", 1.0e-9)
            .set("empty_arr", Vec::<Json>::new())
            .set("empty_obj", Json::obj())
            .set("null", Json::Null);
        for text in [j.pretty(), j.compact()] {
            assert_eq!(Json::parse(&text).unwrap(), j);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn getters() {
        let j = Json::parse("{\"a\": [1, 2], \"b\": \"x\"}").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(j.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert!(j.get("zzz").is_none());
    }
}
