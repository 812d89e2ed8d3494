//! Minimal JSON reader for the sweep wire formats.
//!
//! The workspace has no serialization framework, so every JSON document it
//! reads goes through this hand-rolled reader: the child→supervisor JSONL
//! pipe protocol, the write-ahead checkpoint file, the `--json`/`--jsonl`
//! exports, `iss serve` request lines and the CI gate files. It covers the
//! JSON subset those formats emit (objects, arrays, strings with escapes,
//! numbers, booleans, `null`), is strict about everything else, and keeps
//! numbers as their raw source tokens so `u64` quantities (cycle counts)
//! round-trip exactly instead of passing through an `f64`.

use std::fmt::Write as _;

/// One parsed JSON value. Numbers keep their raw token (see
/// [`Json::as_u64`]/[`Json::as_f64`]); objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A number, kept as its raw source token.
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object's `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for string values.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number token parsed as `u64`, when it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`, when it is one exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f64` (accepts the `NaN`/`inf` tokens
    /// `f64`'s `Display` produces).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, for array values.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, for object values.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The wire formats nest
/// three levels at most; the bound keeps hostile input (one `iss serve`
/// request line of `[[[[…`) from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input, including
/// arrays and objects nested more than 128 deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent state over one document. `pos` only ever rests on a
/// UTF-8 boundary: it advances over ASCII syntax or whole string runs.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.nested(Self::obj),
            Some(b'[') => self.nested(Self::arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// Runs `body` one nesting level down, failing past [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        // `f64::Display` emits `NaN`, `inf` and `-inf`; accept them so any
        // float a record can carry survives a round trip.
        for special in ["NaN", "inf", "-inf"] {
            if self.bytes[start..].starts_with(special.as_bytes()) {
                self.pos += special.len();
                return Ok(Json::Num(special.to_string()));
            }
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        if raw.is_empty() || raw.parse::<f64>().is_err() {
            return Err(format!("malformed number `{raw}` at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        // Caller guarantees the current byte is the opening quote.
        self.pos += 1;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let bad = || format!("bad \\u escape at byte {}", self.pos);
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(bad)?;
                            // The writer only escapes control characters,
                            // which are never surrogate halves.
                            let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
                            out.push(char::from_u32(code).ok_or_else(bad)?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape:
                    // both are ASCII, so the run ends on a UTF-8 boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected `:` at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document (quotes, backslashes
/// and control characters).
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_shapes() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x"], "c": {"d": -2.5e3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let b = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x"));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(-2500.0)
        );
    }

    #[test]
    fn u64_counts_round_trip_exactly() {
        let huge = u64::MAX.to_string();
        let v = parse(&format!("{{\"n\": {huge}}}")).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn float_display_tokens_round_trip() {
        for raw in ["0.1", "2.0004", "1e-12", "NaN", "inf", "-inf"] {
            let v = parse(raw).unwrap();
            let parsed = v.as_f64().unwrap();
            let reparsed: f64 = raw.parse().unwrap();
            assert!(parsed == reparsed || (parsed.is_nan() && reparsed.is_nan()));
        }
    }

    #[test]
    fn escapes_round_trip_through_strings() {
        let nasty = "a \"quoted\\path\"\nwith\tcontrol \u{1} bytes and unicode \u{2603}";
        let doc = format!("{{\"s\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // A 2 MiB stack is the default for spawned threads (and smaller
        // than a main thread's), so this is the tightest realistic case.
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = parse(&"[".repeat(200_000));
                let objects = parse(&"{\"a\":".repeat(200_000));
                let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
                let past_bound = format!("[{at_bound}]");
                (deep, objects, parse(&at_bound), parse(&past_bound))
            })
            .unwrap()
            .join()
            .unwrap();
        let (deep, objects, at_bound, past_bound) = outcome;
        assert!(deep.unwrap_err().contains("nesting"));
        assert!(objects.unwrap_err().contains("nesting"));
        assert!(at_bound.is_ok(), "{MAX_DEPTH} levels are allowed");
        assert!(past_bound.unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_round_trip() {
        // 256 KiB of mixed ASCII, escapes and multi-byte characters: the
        // scan is linear, and every character survives.
        let unit = "plain \"quoted\" back\\slash\n\t\u{1} snow \u{2603} \u{1F600}";
        let mut long = String::new();
        while long.len() < 256 << 10 {
            long.push_str(unit);
        }
        let doc = format!("{{\"s\": \"{}\"}}", escape(&long));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(long.as_str()));
    }

    #[test]
    fn malformed_documents_fail_loudly() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nope",
            "12abc",
            "\"\\u+123\"",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
