//! Minimal hand-rolled JSON support: the trace file format, the
//! analyzer's report output and the `BENCH_*.json` envelopes.
//!
//! The workspace is hermetic (no network, and no serialization
//! dependency), so it carries its own tiny JSON layer: a string escaper
//! for writing and a recursive-descent parser producing a [`Json`] value
//! tree. Numbers keep their source lexeme so 64-bit integers (daemon
//! seeds) survive without `f64` precision loss. The parser is a byte
//! boundary — `pif-trace replay`, `pif-serve check` and `pif_chaos check`
//! feed it whatever file they are given — so it answers any input with
//! a value or a [`JsonError`]: nesting deeper than [`MAX_DEPTH`] is an
//! error, not a stack overflow.
//!
//! [`write_envelope`] and [`read_envelope`] are the one codec for the
//! versioned `{benchmark, version, seed, results}` envelope that
//! `pif-serve` and `pif-chaos` write around their result rows; each
//! crate keeps only its row (de)serialiser.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Traces, BENCH
/// envelopes and analyzer reports nest fewer than ten levels; the bound
/// caps the recursive descent's stack use on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A boolean literal.
    Bool(bool),
    /// The raw number lexeme (re-parsed on demand by [`Json::as_u64`]).
    Num(String),
    /// A string value (unescaped).
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// Key/value pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a [`Json::Num`] with an integer
    /// lexeme in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The items, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object (linear scan; objects here are tiny).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A JSON syntax error with its byte offset in the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input document.
    pub offset: usize,
    /// Static description of what was expected or found.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_string(s: &str, out: &mut String) {
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

/// Parses one complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// [`JsonError`] on malformed input, including arrays and objects
/// nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Why [`read_envelope`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The document is not JSON.
    Syntax(JsonError),
    /// `benchmark` is missing or names another benchmark.
    Benchmark(Option<String>),
    /// `version` is missing or not the supported one.
    Version(Option<u64>),
    /// A required field (`seed` or `results`) is missing or mistyped.
    Missing(&'static str),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Syntax(e) => e.fmt(f),
            EnvelopeError::Benchmark(found) => write!(f, "unexpected benchmark name {found:?}"),
            EnvelopeError::Version(found) => write!(f, "unsupported version {found:?}"),
            EnvelopeError::Missing(field) => write!(f, "missing envelope field {field:?}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Writes the versioned BENCH envelope: `benchmark`, `version` and
/// `seed`, then `results` holding one pre-serialised JSON row per line.
pub fn write_envelope<R: AsRef<str>>(
    benchmark: &str,
    version: u64,
    seed: u64,
    rows: impl IntoIterator<Item = R>,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": ");
    write_string(benchmark, &mut out);
    let _ = write!(out, ",\n  \"version\": {version},\n  \"seed\": {seed},\n  \"results\": [");
    let mut sep = "\n";
    for row in rows {
        out.push_str(sep);
        out.push_str("    ");
        out.push_str(row.as_ref());
        sep = ",\n";
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Reads an envelope written by [`write_envelope`]: checks the
/// benchmark name and version, then parses every result row with `row`.
/// Returns the envelope seed and the rows in document order.
///
/// # Errors
///
/// An [`EnvelopeError`] (converted into `E`) on malformed JSON, another
/// benchmark or version, or a missing `seed`/`results`; otherwise the
/// first error `row` returns.
pub fn read_envelope<T, E: From<EnvelopeError>>(
    text: &str,
    benchmark: &str,
    version: u64,
    row: impl FnMut(&Json) -> Result<T, E>,
) -> Result<(u64, Vec<T>), E> {
    let doc = parse(text).map_err(EnvelopeError::Syntax)?;
    let found = doc.get("benchmark").and_then(Json::as_str);
    if found != Some(benchmark) {
        return Err(EnvelopeError::Benchmark(found.map(str::to_string)).into());
    }
    let found = doc.get("version").and_then(Json::as_u64);
    if found != Some(version) {
        return Err(EnvelopeError::Version(found).into());
    }
    let seed = doc.get("seed").and_then(Json::as_u64).ok_or(EnvelopeError::Missing("seed"))?;
    let rows = doc.get("results").and_then(Json::as_array);
    let rows = rows.ok_or(EnvelopeError::Missing("results"))?;
    Ok((seed, rows.iter().map(row).collect::<Result<_, _>>()?))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { offset: self.pos, msg }
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

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':' after object key")?;
            let value = self.value(depth)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
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
            items.push(self.value(depth)?);
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
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired up; traces never
                            // emit them (the writer escapes only controls).
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number lexeme is ASCII");
        Ok(Json::Num(lexeme.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"v":1,"name":"torus-4x4","edges":[[0,1],[1,2]],"ok":true,"x":null}"#;
        let j = parse(doc).unwrap();
        assert_eq!(j.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("name").unwrap().as_str(), Some("torus-4x4"));
        let edges = j.get("edges").unwrap().as_array().unwrap();
        assert_eq!(edges[1].as_array().unwrap()[1].as_u64(), Some(2));
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(j.get("x"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn u64_seeds_survive_roundtrip() {
        let j = parse("18446744073709551615").unwrap();
        assert_eq!(j.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "a\"b\\c\nd\te\u{1}é";
        let mut encoded = String::new();
        write_string(original, &mut encoded);
        let j = parse(&encoded).unwrap();
        assert_eq!(j.as_str(), Some(original));
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Deep enough to overflow the stack of an unbounded descent.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn envelopes_round_trip_and_reject_mismatches() {
        let text = write_envelope("demo", 3, 7, ["{\"x\": 1}", "{\"x\": 2}"]);
        let x = |j: &Json| j.get("x").and_then(Json::as_u64).ok_or(EnvelopeError::Missing("x"));
        assert_eq!(read_envelope(&text, "demo", 3, x), Ok((7, vec![1, 2])));
        let empty = write_envelope("demo", 3, 7, std::iter::empty::<&str>());
        assert_eq!(read_envelope(&empty, "demo", 3, x), Ok((7, vec![])));
        assert_eq!(
            read_envelope(&text, "other", 3, x),
            Err(EnvelopeError::Benchmark(Some("demo".into())))
        );
        assert_eq!(read_envelope(&text, "demo", 4, x), Err(EnvelopeError::Version(Some(3))));
        let no_seed = text.replace("\"seed\"", "\"sed\"");
        assert_eq!(read_envelope(&no_seed, "demo", 3, x), Err(EnvelopeError::Missing("seed")));
        assert!(matches!(read_envelope("not json", "demo", 3, x), Err(EnvelopeError::Syntax(_))));
    }

    #[test]
    fn syntax_errors_are_reported_not_panicked() {
        for bad in ["", "{", "[1,", "\"open", "{\"k\" 1}", "tru", "{} garbage", "nul"] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }
}
