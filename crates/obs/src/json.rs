//! Minimal hand-rolled JSON support shared across the observability layer.
//!
//! Two halves, both dependency-free by design (this crate may depend only
//! on `blap-types`):
//!
//! * **Writing** — the single escaper ([`escape_into`]) every renderer
//!   uses (trace JSONL and metrics JSON), so a hostile label cannot break
//!   artifact syntax in one renderer while surviving the other, and the
//!   integer writer ([`push_u64`]) that keeps the per-line trace
//!   renderers free of `fmt`.
//! * **Reading** — one RFC 8259 grammar, a small recursive-descent reader
//!   whose string, number and member-loop primitives return text borrowed
//!   from the input (a string is copied only when it has an escape). It
//!   has two consumers: [`parse`] builds a [`Value`] tree for whole
//!   documents (metrics, checkpoints, telemetry, `BENCHMARK.json`), and
//!   the crate-private `scan_object` walks one flat trace line without
//!   building anything, handing each member to a visitor (`scan_fields`
//!   keeps the ones its caller names). Both accept exactly the same
//!   inputs with the same errors, nesting is capped at [`MAX_DEPTH`]
//!   levels, and numbers are kept as their literal source text
//!   ([`Value::Num`]) so comparing two artifacts is exact: no float
//!   round-trip, no locale, no 2^53 cliff.

use std::borrow::Cow;
use std::fmt;

/// How deep arrays and objects may nest. The deepest document the
/// workspace writes is about six levels; the cap keeps a hostile input
/// from recursing the reader off the end of its stack.
pub const MAX_DEPTH: usize = 64;

/// Escapes a string into `out` for embedding in a JSON string literal.
/// Runs that need no escape are copied with one `push_str` each.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for a JSON string literal, borrowing when the input
/// needs no changes (the overwhelmingly common case for metric keys).
pub fn escape(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    escape_into(s, &mut out);
    Cow::Owned(out)
}

/// Appends the decimal digits of `n` to `out`.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// A parsed JSON value.
///
/// Object member order is preserved (`Vec`, not a map) so reports can cite
/// artifacts in their on-disk order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal source text for exact comparison.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: byte offset into the input plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// Parses one complete JSON value; trailing whitespace is allowed,
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(text);
    let value = p.value(0)?;
    p.end()?;
    Ok(value)
}

/// One member value as [`scan_fields`] keeps it: a scalar borrowed from
/// the input, or a marker for a nested array or object (validated, then
/// skipped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Scalar<'a> {
    Null,
    Bool(bool),
    /// A number's literal text.
    Num(&'a str),
    /// A string, borrowed unless it had an escape.
    Str(Cow<'a, str>),
    Nested,
}

impl Scalar<'_> {
    /// As [`Value::as_str`].
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As [`Value::as_u64`].
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// As [`Value::as_bool`].
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The members [`scan_fields`] kept, looked up by key like [`Value::get`].
pub(crate) struct Fields<'a, const N: usize> {
    keys: &'static [&'static str; N],
    values: [Option<Scalar<'a>>; N],
}

impl<'a, const N: usize> Fields<'a, N> {
    /// The first member named `key`, which must be one of the scanned
    /// keys; `None` when the document has no such member (or is not an
    /// object at all).
    pub(crate) fn get(&self, key: &str) -> Option<&Scalar<'a>> {
        let slot = self.keys.iter().position(|k| *k == key);
        debug_assert!(slot.is_some(), "{key:?} was not scanned for");
        slot.and_then(|i| self.values[i].as_ref())
    }
}

/// Reads one JSON document the way [`parse`] does — same grammar, same
/// errors — but builds no tree: each member of a top-level object goes to
/// `visit` as it is read, its value a [`Scalar`] borrowed from `text`. A
/// document that is not an object is checked and visits nothing.
pub(crate) fn scan_object<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, Scalar<'a>),
) -> Result<(), ParseError> {
    let mut p = Parser::new(text);
    if p.peek() == Some(b'{') {
        let depth = p.nest(0)?;
        p.members(|p, key| {
            let value = match p.peek() {
                Some(b'{' | b'[') => {
                    p.skip(depth)?;
                    Scalar::Nested
                }
                _ => p.scalar()?,
            };
            visit(&key, value);
            Ok(())
        })?;
    } else {
        p.skip(0)?;
    }
    p.end()
}

/// [`scan_object`] keeping, for each of `keys`, the first member with
/// that key — the member [`Value::get`] would find.
pub(crate) fn scan_fields<'a, const N: usize>(
    text: &'a str,
    keys: &'static [&'static str; N],
) -> Result<Fields<'a, N>, ParseError> {
    let mut values: [Option<Scalar<'a>>; N] = std::array::from_fn(|_| None);
    scan_object(text, |key, value| {
        if let Some(i) = keys.iter().position(|k| *k == key) {
            values[i].get_or_insert(value);
        }
    })?;
    Ok(Fields { keys, values })
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the first non-whitespace byte of `text`.
    fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// After the one value: only whitespace may follow.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after value"));
        }
        Ok(())
    }

    /// The depth inside the array or object that opens here, refused past
    /// [`MAX_DEPTH`].
    fn nest(&self, depth: usize) -> Result<usize, ParseError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(depth + 1)
    }

    /// A value as a tree; `depth` counts the containers around it.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let depth = self.nest(depth)?;
                let mut members = Vec::new();
                self.members(|p, key| {
                    members.push((key.into_owned(), p.value(depth)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                let depth = self.nest(depth)?;
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value(depth)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Num(n) => Value::Num(n.to_owned()),
                Scalar::Str(s) => Value::Str(s.into_owned()),
                Scalar::Nested => unreachable!("scalar() never yields a container"),
            }),
        }
    }

    /// A value checked against the grammar and dropped.
    fn skip(&mut self, depth: usize) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'{') => {
                let depth = self.nest(depth)?;
                self.members(|p, _| p.skip(depth))
            }
            Some(b'[') => {
                let depth = self.nest(depth)?;
                self.elements(|p| p.skip(depth))
            }
            _ => self.scalar().map(drop),
        }
    }

    /// Any value but an array or object.
    fn scalar(&mut self) -> Result<Scalar<'a>, ParseError> {
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Scalar<'a>) -> Result<Scalar<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// The object loop: `{`, then per member its key, `:` and whatever
    /// `member` reads as the value, then `,` or `}`.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// The array loop: `[`, then each element as `element` reads it, then
    /// `,` or `]`.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string literal, borrowed from the input unless it has an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Advances past bytes that stand for themselves inside a string.
    /// `"` and `\` are ASCII, so where this stops is a char boundary.
    fn skip_plain(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    /// The character one escape (after its `\`) stands for.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| self.err("bad \\u escape: want four hex digits"))?;
                let code = hex.iter().fold(0, |acc, &h| {
                    acc << 4 | char::from(h).to_digit(16).expect("checked hex digit")
                });
                self.pos += 4;
                // Surrogates never appear in our own artifacts; map
                // unpaired ones to U+FFFD rather than erroring.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A number per RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            _ => self.digits("expected a digit in number")?,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected a digit in exponent")?;
        }
        Ok(&self.text[start..self.pos])
    }

    /// One or more ASCII digits.
    fn digits(&mut self, missing: &str) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(missing));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_clean_strings() {
        assert!(matches!(escape("pages_started"), Cow::Borrowed(_)));
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("tab\there"), "tab\\there");
    }

    #[test]
    fn escape_into_copies_runs_and_escapes_controls() {
        let mut out = String::new();
        escape_into("no escapes", &mut out);
        assert_eq!(out, "no escapes");
        out.clear();
        escape_into("quote\" slash\\ nl\n\u{1}\u{1f}é", &mut out);
        assert_eq!(out, "quote\\\" slash\\\\ nl\\n\\u0001\\u001fé");
    }

    #[test]
    fn push_u64_writes_decimal() {
        for n in [0, 7, 10, 1250, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn parse_round_trips_trace_line_shape() {
        let v =
            parse(r#"{"t":1250,"dev":2,"ev":"lmp_send","peer":"cc:cc:cc:cc:cc:cc","raced":false}"#)
                .expect("parses");
        assert_eq!(v.get("t").and_then(Value::as_u64), Some(1250));
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("lmp_send"));
        assert_eq!(v.get("raced").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_preserves_number_literals() {
        let v = parse("[0, 18446744073709551615, -3, -0.5e+10, 1E2]").expect("parses");
        let Value::Array(items) = v else { panic!() };
        assert_eq!(items[1], Value::Num("18446744073709551615".to_owned()));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        assert_eq!(items[2].as_u64(), None, "negative is not a u64");
        assert_eq!(items[3], Value::Num("-0.5e+10".to_owned()));
        assert_eq!(items[4], Value::Num("1E2".to_owned()));
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\/""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}é/"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"unterminated\\").is_err());
    }

    #[test]
    fn parse_rejects_what_rfc_8259_rejects() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u04""#,
            r#""\u 041""#,
            "-",
            "1-2",
            "1.2.3",
            "00",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            "[1,]",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
            let line = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{bad}}}");
            assert!(parse(&line).is_err(), "{line:?} must not parse");
        }
        let err = parse(r#""\u+041""#).expect_err("signed hex");
        assert!(err.message.contains("four hex digits"), "{err}");
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).expect_err("one level too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("64 levels"), "{err}");
        // A megabyte of brackets fails the same way instead of
        // overflowing the stack — on a default-size test thread.
        let flood = "[".repeat(1 << 20);
        assert_eq!(parse(&flood).expect_err("too deep").offset, MAX_DEPTH);
        let line = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{flood}");
        assert!(parse(&line).is_err());
    }

    #[test]
    fn scan_fields_keeps_first_members_and_skips_the_rest() {
        const KEYS: [&str; 4] = ["t", "ev", "name", "nested"];
        let line = r#"{"t":5,"x":[1,{"y":null}],"\u0074":6,"ev":"a\u005fb","name":"plain","nested":{"k":1}}"#;
        let fields = scan_fields(line, &KEYS).expect("scans");
        assert_eq!(fields.get("t").and_then(Scalar::as_u64), Some(5));
        let ev = fields.get("ev").expect("present");
        assert_eq!(ev.as_str(), Some("a_b"));
        assert!(matches!(ev, Scalar::Str(Cow::Owned(_))), "escaped: owned");
        let name = fields.get("name").expect("present");
        assert!(matches!(name, Scalar::Str(Cow::Borrowed("plain"))));
        assert_eq!(fields.get("nested"), Some(&Scalar::Nested));
        // Not an object: nothing kept, but still validated.
        let fields = scan_fields("[1, 2]", &KEYS).expect("scans");
        assert_eq!(fields.get("t"), None);
        assert!(scan_fields("[1, 2", &KEYS).is_err());
    }

    #[test]
    fn scan_fields_fails_exactly_where_parse_fails() {
        const KEYS: [&str; 1] = ["t"];
        let flood = "[".repeat(1 << 20);
        for text in [
            "",
            "   ",
            "{",
            "{\"t\":1",
            "{\"t\":1,}",
            "{\"t\" 1}",
            "{\"t\":1} x",
            "{\"t\":-}",
            "{\"t\":\"\\u+041\"}",
            "{\"t\":[1,2,{\"a\":tru}]}",
            "\"\\q\"",
            &format!("{{\"t\":1,\"ev\":\"x\",\"a\":{flood}"),
        ] {
            let want = parse(text).expect_err("malformed");
            let got = scan_fields(text, &KEYS).err().expect("malformed");
            assert_eq!(got, want, "{text:.40?}");
        }
    }

    #[test]
    fn escaped_strings_reparse_to_the_original() {
        let hostile = "label\" with \\ hostile\n\tbytes\u{1}";
        let mut doc = String::from("\"");
        escape_into(hostile, &mut doc);
        doc.push('"');
        assert_eq!(parse(&doc).expect("parses").as_str(), Some(hostile));
    }
}
