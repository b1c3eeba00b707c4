//! A minimal JSON reader for the wire layer.
//!
//! The workspace takes no serialization dependency, so every crate here
//! hand-writes its JSON *output* (`ra_obs::json_object`, the obs
//! `JsonlRecorder`). This module is the matching *input* side: a
//! small recursive-descent parser producing a [`Json`] tree, plus typed
//! accessors for the flat request/response objects the protocol uses.
//!
//! Scope: standard JSON minus exotica — no duplicate-key detection
//! (last write wins, like most parsers) and `\uXXXX` escapes decode the
//! BMP only (unpaired surrogates are replaced). Numbers are `f64`,
//! which is why job keys travel as 16-hex-digit *strings* on the wire:
//! a u64 hash does not survive an f64 round-trip past 2^53.

use std::collections::HashMap;
use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// protocol's messages nest about four deep; the cap keeps a hostile line
/// from recursing the parser off its thread's stack, an abort no
/// `catch_unwind` can stop.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and what went wrong, including an
    /// array or object opened deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut cursor = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        cursor.skip_ws();
        let value = cursor.value()?;
        cursor.skip_ws();
        if cursor.pos != cursor.bytes.len() {
            return Err(cursor.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants).
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer (`None` when
    /// negative, fractional, or beyond f64's 2^53 exact-integer range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: what and where (byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Cursor<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = text.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_wire_request() {
        let parsed = Json::parse(
            r#"{"verb":"submit","spec":"target=4x4 app=water","priority":"high","deadline_ms":250,"dry":false,"note":null}"#,
        )
        .unwrap();
        assert_eq!(parsed.get("verb").and_then(Json::as_str), Some("submit"));
        assert_eq!(
            parsed.get("spec").and_then(Json::as_str),
            Some("target=4x4 app=water")
        );
        assert_eq!(parsed.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(parsed.get("dry").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("note"), Some(&Json::Null));
        assert_eq!(parsed.get("absent"), None);
    }

    #[test]
    fn nested_arrays_objects_and_escapes_round_trip() {
        let parsed = Json::parse(
            r#"{ "rows" : [ {"x": 1.5}, {"x": -2e3} ], "s": "a\"b\\c\ndA" }"#,
        )
        .unwrap();
        let rows = match parsed.get("rows") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("rows should be an array, got {other:?}"),
        };
        assert_eq!(rows[0].get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(rows[1].get("x").and_then(Json::as_f64), Some(-2000.0));
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn bench_json_output_parses_back() {
        // The server emits with ra_obs's writer; the client parses with
        // this module. Keep the two ends compatible.
        let line = ra_obs::json_object(&[
            ("ok", ra_obs::JsonField::Raw("true".into())),
            ("job", ra_obs::JsonField::Str("00c0ffee00c0ffee".into())),
            ("depth", ra_obs::JsonField::Int(3)),
            ("ratio", ra_obs::JsonField::Num(0.625)),
        ]);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("job").and_then(Json::as_str),
            Some("00c0ffee00c0ffee")
        );
        assert_eq!(parsed.get("depth").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(0.625));
    }

    #[test]
    fn as_u64_guards_precision_and_sign() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn errors_carry_positions() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected `\"`"),
            (r#"{"a":1"#, "expected `,` or `}`"),
            ("[1 2]", "expected `,` or `]`"),
            ("tru", "expected `true`"),
            (r#"{"a":1} extra"#, "trailing"),
            (r#""\q""#, "bad escape"),
            (r#""\u00g1""#, "bad \\u"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{text}` -> `{err}` (wanted `{needle}`)"
            );
        }
    }

    /// Whole 64 KiB lines of `[` and of `{"a":`, which once overflowed the
    /// parsing thread's stack, are errors at the bracket past the cap.
    /// Arrays nested exactly [`MAX_DEPTH`] deep parse, and one more fails
    /// the same way.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        for unit in ["[", r#"{"a":"#] {
            let line = unit.repeat(64 * 1024 / unit.len());
            let err = Json::parse(&line).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH * unit.len(), "{unit}: {err}");
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nested deeper"), "{err}");
    }
}
