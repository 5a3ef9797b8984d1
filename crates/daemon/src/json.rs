//! The workspace's one JSON codec. Every trace line, analyzer report and
//! `BENCH_*.json` file is built as a [`Json`] value and written by its
//! compact [`Display`](fmt::Display) (`{"k":v}`, `[a,b]`); every reader
//! parses with [`parse`] and reads fields through the typed getter
//! [`Json::field`]. No other module writes JSON punctuation or quotes.
//!
//! The workspace is hermetic (no network, and no serialization
//! dependency), so it carries its own small JSON layer. Numbers keep
//! their lexeme: 64-bit integers (daemon seeds) survive without `f64`
//! precision loss, and a writer's fixed-precision floats
//! ([`Json::fixed`]) are written verbatim. The parser is a byte boundary
//! — `pif-trace replay`, `pif-serve check` and `pif_chaos check` feed it
//! whatever file they are given — so it answers any input with a value
//! or a [`JsonError`]: nesting deeper than [`MAX_DEPTH`] is an error, not
//! a stack overflow. The getters carry that past the syntax: a missing,
//! mistyped or out-of-range field is one [`FieldError`], and an integer
//! narrows to `u32` or `usize` only when it fits. Each crate maps that
//! error to its own.
//!
//! [`write_envelope`] lays out all five BENCH files: the header fields
//! one per line, then `results` with one compact row per line.
//! [`read_envelope`] reads the versioned `{benchmark, version, seed,
//! results}` envelope that `pif-serve` and `pif-chaos` write around
//! their result rows.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Traces, BENCH
/// envelopes and analyzer reports nest fewer than ten levels; the bound
/// caps the recursive descent's stack use on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value, as parsed or as built by a writer.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A boolean literal.
    Bool(bool),
    /// A number lexeme, written verbatim and re-parsed on demand by the
    /// getters.
    Num(String),
    /// A string value (unescaped).
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// Key/value pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object holding `pairs` in order.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `value` with `decimals` digits after the point, or `null` when it
    /// is not finite (JSON has no NaN or infinity).
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a [`Json::Num`] with an integer
    /// lexeme in range.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    fn as_array(&self) -> Option<&[Json]> {
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

    /// The value under `key`, read as a `T`.
    ///
    /// # Errors
    ///
    /// [`FieldError::Missing`] when this is not an object holding `key`;
    /// [`FieldError::Mistyped`] when the value is not a `T`: another type,
    /// or an integer outside `T`'s range.
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, FieldError> {
        let value = self.get(key).ok_or_else(|| FieldError::Missing(key.to_string()))?;
        T::from_json(value)
            .ok_or_else(|| FieldError::Mistyped { key: key.to_string(), expected: T::expected() })
    }
}

/// The compact form: no whitespace, strings escaped, number lexemes
/// verbatim.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(lexeme) => f.write_str(lexeme),
            Json::Str(s) => write_string(s, f),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(key, f)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

macro_rules! json_from {
    ($($t:ty),* => |$v:ident| $make:expr) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $make
            }
        }
    )*};
}

json_from!(bool => |b| Json::Bool(b));
json_from!(u32, u64, usize => |v| Json::Num(v.to_string()));
json_from!(&str, &String => |s| Json::Str(s.into()));
json_from!(String => |s| Json::Str(s));

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(items: [T; N]) -> Self {
        items.into_iter().collect()
    }
}

/// Collects into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// A type [`Json::field`] can read a value as.
pub trait FromJson<'a>: Sized {
    /// `value` as a `Self`, or `None` when it is not one.
    fn from_json(value: &'a Json) -> Option<Self>;

    /// What a value of this type looks like, for [`FieldError`].
    fn expected() -> String;
}

macro_rules! from_json {
    ($($t:ty => $expected:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json($v: &'a Json) -> Option<Self> {
                $read
            }
            fn expected() -> String {
                $expected.to_string()
            }
        }
    )*};
}

// Integers narrow only when they fit; `&Json` accepts any present value.
from_json! {
    u32 => "u32", |v| v.as_u64().and_then(|x| x.try_into().ok());
    u64 => "u64", |v| v.as_u64();
    usize => "usize", |v| v.as_u64().and_then(|x| x.try_into().ok());
    f64 => "number", |v| if let Json::Num(s) = v { s.parse().ok() } else { None };
    bool => "boolean", |v| if let Json::Bool(b) = v { Some(*b) } else { None };
    &'a str => "string", |v| v.as_str();
    String => "string", |v| v.as_str().map(str::to_string);
    &'a [Json] => "array", |v| v.as_array();
    &'a Json => "value", |v| Some(v);
}

/// An array whose every item reads as a `T`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(value: &'a Json) -> Option<Self> {
        value.as_array()?.iter().map(T::from_json).collect()
    }
    fn expected() -> String {
        format!("array of {}", T::expected())
    }
}

/// `null` reads as `None`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(value: &'a Json) -> Option<Self> {
        match value {
            Json::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
    fn expected() -> String {
        format!("null or {}", T::expected())
    }
}

/// A two-item array.
impl<'a, A: FromJson<'a>, B: FromJson<'a>> FromJson<'a> for (A, B) {
    fn from_json(value: &'a Json) -> Option<Self> {
        match value.as_array()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
    fn expected() -> String {
        format!("[{}, {}]", A::expected(), B::expected())
    }
}

/// A three-item array.
impl<'a, A: FromJson<'a>, B: FromJson<'a>, C: FromJson<'a>> FromJson<'a> for (A, B, C) {
    fn from_json(value: &'a Json) -> Option<Self> {
        match value.as_array()? {
            [a, b, c] => Some((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => None,
        }
    }
    fn expected() -> String {
        format!("[{}, {}, {}]", A::expected(), B::expected(), C::expected())
    }
}

/// Why [`Json::field`] could not read a field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldError {
    /// The key is absent, or the value read from is not an object.
    Missing(String),
    /// The key holds another type, or an integer out of range.
    Mistyped {
        /// The field's key.
        key: String,
        /// What the reader expected there.
        expected: String,
    },
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing(key) => write!(f, "missing field {key:?}"),
            FieldError::Mistyped { key, expected } => {
                write!(f, "field {key:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for FieldError {}

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

/// Writes `s` to `out` as a quoted, escaped JSON string.
fn write_string(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
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
    /// `seed` or `results` is missing or mistyped.
    Field(FieldError),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Syntax(e) => e.fmt(f),
            EnvelopeError::Benchmark(found) => write!(f, "unexpected benchmark name {found:?}"),
            EnvelopeError::Version(found) => write!(f, "unsupported version {found:?}"),
            EnvelopeError::Field(e) => write!(f, "envelope {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Lays out a BENCH file: the `header` fields one per line, then
/// `results` holding one compact row per line.
pub fn write_envelope(header: &[(&str, Json)], rows: impl IntoIterator<Item = Json>) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str("  ");
        let _ = write_string(key, &mut out);
        let _ = writeln!(out, ": {value},");
    }
    out.push_str("  \"results\": [");
    let mut sep = "\n";
    for row in rows {
        let _ = write!(out, "{sep}    {row}");
        sep = ",\n";
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Reads a versioned envelope: checks the benchmark name and version,
/// then parses every result row with `row`. Returns the envelope seed
/// and the rows in document order.
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
    let seed = doc.field("seed").map_err(EnvelopeError::Field)?;
    let rows: &[Json] = doc.field("results").map_err(EnvelopeError::Field)?;
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

    /// One number, held to the JSON grammar
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. A lexeme that
    /// breaks it is an error here, whether or not a reader ever asks for
    /// the field.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits("expected digit")?,
            _ => return Err(self.err("expected digit in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digit after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digit in exponent")?;
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number lexeme is ASCII");
        Ok(Json::Num(lexeme.to_string()))
    }

    /// Consumes a run of one or more decimal digits.
    fn digits(&mut self, msg: &'static str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(msg));
        }
        Ok(())
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
        let encoded = Json::from(original).to_string();
        assert_eq!(encoded, "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
        let j = parse(&encoded).unwrap();
        assert_eq!(j.as_str(), Some(original));
    }

    #[test]
    fn display_is_compact_and_parses_back() {
        let doc = Json::obj([
            ("k", "v".into()),
            ("n", 18_446_744_073_709_551_615u64.into()),
            ("pair", Json::from([1u32, 2])),
            ("none", Option::<u64>::None.into()),
            ("flag", true.into()),
            ("rate", Json::fixed(2.0 / 3.0, 3)),
            ("empty", Json::Obj(Vec::new())),
            ("list", ["a", "b"].into_iter().collect()),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            concat!(
                r#"{"k":"v","n":18446744073709551615,"pair":[1,2],"none":null,"flag":true,"#,
                r#""rate":0.667,"empty":{},"list":["a","b"]}"#
            )
        );
        assert_eq!(parse(&text), Ok(doc));
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 0), Json::Null);
    }

    #[test]
    fn field_getters_check_type_and_range() {
        let doc = parse(
            r#"{"big":4294967296,"small":7,"neg":-1,"s":"x","f":0.25,"b":false,"nil":null,
                "pairs":[[1,2],[3,4]],"bad_pairs":[[1,2],[3]],"triple":[1,2,3]}"#,
        )
        .unwrap();
        assert_eq!(doc.field::<u64>("big"), Ok(1 << 32));
        assert_eq!(
            doc.field::<u32>("big"),
            Err(FieldError::Mistyped { key: "big".into(), expected: "u32".into() })
        );
        assert_eq!(doc.field::<u32>("small"), Ok(7));
        assert_eq!(doc.field::<usize>("small"), Ok(7));
        assert!(doc.field::<u64>("neg").is_err());
        assert_eq!(doc.field::<&str>("s"), Ok("x"));
        assert_eq!(doc.field::<String>("s"), Ok("x".to_string()));
        assert!(doc.field::<u64>("s").is_err());
        assert_eq!(doc.field::<f64>("f"), Ok(0.25));
        assert_eq!(doc.field::<bool>("b"), Ok(false));
        assert_eq!(doc.field::<Option<u64>>("nil"), Ok(None));
        assert_eq!(doc.field::<Option<u64>>("small"), Ok(Some(7)));
        assert_eq!(doc.field::<Vec<(u32, u64)>>("pairs"), Ok(vec![(1, 2), (3, 4)]));
        assert!(doc.field::<Vec<(u32, u64)>>("bad_pairs").is_err());
        assert_eq!(doc.field::<(u64, u64, u64)>("triple"), Ok((1, 2, 3)));
        assert!(doc.field::<(u64, u64)>("triple").is_err());
        assert_eq!(doc.field::<u64>("absent"), Err(FieldError::Missing("absent".into())));
        assert_eq!(Json::Null.field::<u64>("k"), Err(FieldError::Missing("k".into())));
        let err = doc.field::<Vec<(u32, u32)>>("big").unwrap_err().to_string();
        assert_eq!(err, "field \"big\": expected array of [u32, u32]");
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
        let header =
            [("benchmark", "demo".into()), ("version", 3u64.into()), ("seed", 7u64.into())];
        let rows = || [1u64, 2].map(|x| Json::obj([("x", x.into())]));
        let text = write_envelope(&header, rows());
        assert_eq!(
            text,
            "{\n  \"benchmark\": \"demo\",\n  \"version\": 3,\n  \"seed\": 7,\n  \
             \"results\": [\n    {\"x\":1},\n    {\"x\":2}\n  ]\n}\n"
        );
        let x = |j: &Json| j.field::<u64>("x").map_err(EnvelopeError::Field);
        assert_eq!(read_envelope(&text, "demo", 3, x), Ok((7, vec![1, 2])));
        let empty = write_envelope(&header, std::iter::empty());
        assert_eq!(read_envelope(&empty, "demo", 3, x), Ok((7, vec![])));
        assert_eq!(
            read_envelope(&text, "other", 3, x),
            Err(EnvelopeError::Benchmark(Some("demo".into())))
        );
        assert_eq!(read_envelope(&text, "demo", 4, x), Err(EnvelopeError::Version(Some(3))));
        let no_seed = text.replace("\"seed\"", "\"sed\"");
        assert_eq!(
            read_envelope(&no_seed, "demo", 3, x),
            Err(EnvelopeError::Field(FieldError::Missing("seed".into())))
        );
        assert!(matches!(read_envelope("not json", "demo", 3, x), Err(EnvelopeError::Syntax(_))));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        let good = ["0", "-0", "7", "-12", "10.25", "0.5", "-0.000", "1e5", "1E+5", "2.5e-3"];
        for text in good.into_iter().chain(["18446744073709551615", "-1.5E-07"]) {
            assert_eq!(parse(text), Ok(Json::Num(text.into())), "{text}");
            assert_eq!(parse(&format!("[{text}]")), Ok(Json::Arr(vec![Json::Num(text.into())])));
        }
        let bad = ["-", "--1", "+1", "01", "-01", "00", "1.", ".5", "1.e3", "1.2.3", "1e", "1e+"];
        for text in bad.into_iter().chain(["1ee2", "1e5.0", "1-2", "0x10", "--1.2.3e", "-a"]) {
            assert!(parse(text).is_err(), "{text} must not parse");
            assert!(parse(&format!("[{text}]")).is_err(), "[{text}] must not parse");
            assert!(parse(&format!("{{\"k\":{text}}}")).is_err(), "{{k:{text}}} must not parse");
        }
        let err = parse("{\"junk\":--1.2.3e,\"k\":1}").unwrap_err();
        assert_eq!(err, JsonError { offset: 9, msg: "expected digit in number" });
        let err = parse("[2.5e]").unwrap_err();
        assert_eq!(err, JsonError { offset: 5, msg: "expected digit in exponent" });
    }

    #[test]
    fn syntax_errors_are_reported_not_panicked() {
        for bad in ["", "{", "[1,", "\"open", "{\"k\" 1}", "tru", "{} garbage", "nul"] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }
}
