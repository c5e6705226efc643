//! The one JSON codec of the observability layer, dependency-free by
//! design (this crate may depend only on `blap-types`):
//!
//! * **one writer**, [`Writer`], for every document: nested objects and
//!   arrays, compact or one member per line ([`Layout`]), fixed-decimal
//!   floats, `null`, and every key and string through the one escaper
//!   ([`escape_into`]), which the flat trace-line writer
//!   (`trace::LineWriter`) shares with it along with `push_u64`;
//! * **one reader**: one RFC 8259 grammar, nesting capped at
//!   [`MAX_DEPTH`] and numbers kept as their literal text ([`Value::Num`])
//!   so comparisons are exact. [`parse`] builds a [`Value`] that a
//!   decoder reads through [`Field`], and the reader of a whole document
//!   ends with [`Value::check_rendering`]; the crate-private
//!   `scan_fields` reads a flat trace line with the same grammar and
//!   errors but no tree; [`read_line`] reads JSONL up to a cap;
//! * **one error**, [`DecodeError`]: the key path of a fault and its
//!   [`Fault`].

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io;

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
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
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

/// How a [`Writer`] container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One line, no whitespace: `{"a":1,"b":[2,3]}`.
    Compact,
    /// One member per line, two more spaces of indent a level, `": "`
    /// after a key, the closing bracket on its own line. Inside a compact
    /// container everything is compact.
    Lines,
}

/// Writes the object document `members` writes onto `out`.
pub fn object(out: &mut String, layout: Layout, members: impl FnOnce(&mut Writer)) {
    Writer::new(out).object("", layout, members);
}

/// The one JSON document writer, lent to the closure that writes each
/// container (see [`object`]), so containers always close. Values are
/// written with their key, which an array's elements leave out (they pass
/// `""`).
pub struct Writer<'a> {
    out: &'a mut String,
    /// Containers open, and how many of the outermost use [`Layout::Lines`].
    depth: u32,
    lines: u32,
    /// One bit per open container, innermost lowest: set for an array.
    arrays: u64,
    /// Whether the innermost container has no member yet.
    first: bool,
}

impl<'a> Writer<'a> {
    fn new(out: &'a mut String) -> Writer<'a> {
        Writer {
            out,
            depth: 0,
            lines: 0,
            arrays: 0,
            first: true,
        }
    }

    /// An unsigned integer member.
    pub fn u64(&mut self, key: &str, n: u64) -> &mut Self {
        self.key(key);
        push_u64(self.out, n);
        self
    }

    /// A float member with exactly `decimals` digits after the point.
    pub fn f64(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value:.decimals$}");
        self
    }

    /// A `true`/`false` member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push_str("null");
        self
    }

    /// A string member, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape_into(value, self.out);
        self.out.push('"');
        self
    }

    /// An object member whose members `f` writes.
    pub fn object(&mut self, key: &str, layout: Layout, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(key, layout, false, f)
    }

    /// An array member whose elements `f` writes.
    pub fn array(&mut self, key: &str, layout: Layout, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(key, layout, true, f)
    }

    fn container(
        &mut self,
        key: &str,
        layout: Layout,
        array: bool,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.key(key);
        self.out.push(if array { '[' } else { '{' });
        if layout == Layout::Lines && self.lines == self.depth {
            self.lines += 1;
        }
        self.depth += 1;
        self.arrays = self.arrays << 1 | u64::from(array);
        self.first = true;
        body(self);
        if self.lines == self.depth {
            self.lines -= 1;
            self.newline(self.depth - 1);
        }
        self.depth -= 1;
        self.arrays >>= 1;
        self.first = false;
        self.out.push(if array { ']' } else { '}' });
        self
    }

    /// Writes what precedes a value: a `,`, a line break in a
    /// [`Layout::Lines`] container and, in an object, `"key":`.
    fn key(&mut self, key: &str) {
        if self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        let lines = self.lines == self.depth;
        if lines {
            self.newline(self.depth);
        }
        if self.arrays & 1 == 0 {
            self.out.push('"');
            escape_into(key, self.out);
            self.out.push_str(if lines { "\": " } else { "\":" });
        }
    }

    fn newline(&mut self, level: u32) {
        self.out.push('\n');
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }
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

    /// This value as the root of a typed read.
    pub fn field(&self) -> Field<'_> {
        Field {
            value: self,
            parent: None,
        }
    }

    /// Checks that `rendered` — the decoded document, written back out — is
    /// this document: the same members, order, numbers and strings. A
    /// decoder that ends with it accepts only what its writer writes.
    pub fn check_rendering(&self, rendered: &str) -> Result<(), DecodeError> {
        if parse(rendered)? == *self {
            return Ok(());
        }
        Err(DecodeError::new("", Fault::NonCanonical))
    }
}

/// The typed reader: a value of a parsed document with the key path that
/// reached it, which its failures name. A child borrows its parent, so
/// descending allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct Field<'a> {
    value: &'a Value,
    parent: Option<(&'a Field<'a>, Segment<'a>)>,
}

/// One step of a key path.
#[derive(Clone, Copy, Debug)]
enum Segment<'a> {
    Key(&'a str),
    Index(usize),
}

/// What a missing member's error path ends at.
static ABSENT: Value = Value::Null;

impl<'a> Field<'a> {
    /// The required member `key`.
    pub fn get<'s>(&'s self, key: &'s str) -> Result<Field<'s>, DecodeError> {
        match self.value.get(key) {
            Some(value) => Ok(self.child(value, Segment::Key(key))),
            None => Err(self.child(&ABSENT, Segment::Key(key)).error(Fault::Missing)),
        }
    }

    /// The required `u64` member `key`.
    pub fn u64(&self, key: &str) -> Result<u64, DecodeError> {
        self.get(key)?.as_u64()
    }

    /// The required string member `key`.
    pub fn str<'s>(&'s self, key: &'s str) -> Result<&'s str, DecodeError> {
        self.get(key)?.as_str()
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, DecodeError> {
        (self.value.as_u64()).ok_or_else(|| self.error(Fault::Type("a u64")))
    }

    /// This value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, DecodeError> {
        match self.value {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| self.error(Fault::Type("a number")))
    }

    /// This value as a string.
    pub fn as_str(&self) -> Result<&'a str, DecodeError> {
        (self.value.as_str()).ok_or_else(|| self.error(Fault::Type("a string")))
    }

    /// This object's members, in document order.
    pub fn members<'s>(
        &'s self,
    ) -> Result<impl Iterator<Item = (&'s str, Field<'s>)>, DecodeError> {
        let Value::Object(members) = self.value else {
            return Err(self.error(Fault::Type("an object")));
        };
        Ok(members
            .iter()
            .map(|(k, v)| (k.as_str(), self.child(v, Segment::Key(k)))))
    }

    /// This array's elements, in order.
    pub fn items<'s>(&'s self) -> Result<impl Iterator<Item = Field<'s>>, DecodeError> {
        let Value::Array(items) = self.value else {
            return Err(self.error(Fault::Type("an array")));
        };
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, v)| self.child(v, Segment::Index(i))))
    }

    /// An error at this value's key path: `a.b[2]."odd key"`.
    pub fn error(&self, fault: Fault) -> DecodeError {
        let mut path = match self.parent {
            Some((parent, _)) => parent.error(Fault::Missing).path,
            None => return DecodeError::new("", fault),
        };
        let _ = match self.parent.map(|(_, segment)| segment) {
            Some(Segment::Index(i)) => write!(path, "[{i}]"),
            Some(Segment::Key(key)) => {
                let dot = if path.is_empty() { "" } else { "." };
                match key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                    true if !key.is_empty() => write!(path, "{dot}{key}"),
                    _ => write!(path, "{dot}\"{}\"", escape(key)),
                }
            }
            None => Ok(()),
        };
        DecodeError { path, fault }
    }

    fn child<'s>(&'s self, value: &'s Value, segment: Segment<'s>) -> Field<'s> {
        Field {
            value,
            parent: Some((self, segment)),
        }
    }
}

/// Why a document, or one line of a JSONL stream, was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Where: the fault's key path (empty for the whole document) after
    /// any labels added by [`DecodeError::within`].
    pub path: String,
    /// What is wrong there.
    pub fault: Fault,
}

/// What a [`DecodeError`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Not RFC 8259 JSON: the byte offset and what the grammar wanted.
    Syntax {
        /// Byte offset of the fault.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A required member is absent.
    Missing,
    /// A value of another type (or a number out of range): what was wanted.
    Type(&'static str),
    /// A well-formed value the document does not allow.
    Invalid(String),
    /// A document its writer would render otherwise.
    NonCanonical,
    /// A line longer than its reader's cap, in bytes.
    TooLong(usize),
}

impl DecodeError {
    /// An error at `path`.
    pub fn new(path: &str, fault: Fault) -> DecodeError {
        DecodeError {
            path: path.to_owned(),
            fault,
        }
    }

    /// The same error with `label` — the document or line it came from —
    /// in front of its path.
    pub fn within(mut self, label: &str) -> DecodeError {
        self.path = match self.path.as_str() {
            "" => label.to_owned(),
            path => format!("{label}: {path}"),
        };
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        match &self.fault {
            Fault::Syntax { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            Fault::Missing => f.write_str("missing"),
            Fault::Type(want) => write!(f, "not {want}"),
            Fault::Invalid(message) => f.write_str(message),
            Fault::NonCanonical => f.write_str("not as its writer renders it"),
            Fault::TooLong(limit) => write!(f, "line is longer than the {limit}-byte limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parses one complete JSON value; trailing whitespace is allowed,
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    let mut p = Parser::new(text);
    let value = p.value(0)?;
    p.end()?;
    Ok(value)
}

/// Reads one JSONL line into `line` without its `\n` or `\r\n`: `Ok(None)`
/// at the end of the input, else `Ok(Some(terminated))`, where
/// `terminated` is false only for a last line with no newline (perhaps
/// the torn tail of a killed writer). A line longer than `limit` bytes is
/// an [`io::ErrorKind::InvalidData`] error carrying [`Fault::TooLong`],
/// raised before more than `limit + 3` of its bytes are held; so is a
/// line that is not UTF-8.
pub fn read_line<R: io::BufRead>(
    reader: &mut R,
    line: &mut String,
    limit: usize,
) -> io::Result<Option<bool>> {
    let invalid = |fault| io::Error::new(io::ErrorKind::InvalidData, DecodeError::new("", fault));
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    // The longest line, its `\r\n`, and one byte more to tell it is longer.
    let mut capped = io::Read::take(&mut *reader, limit as u64 + 3);
    if io::BufRead::read_until(&mut capped, b'\n', &mut bytes)? == 0 {
        return Ok(None);
    }
    let terminated = bytes.last() == Some(&b'\n');
    if terminated {
        bytes.pop();
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
    }
    if bytes.len() > limit {
        return Err(invalid(Fault::TooLong(limit)));
    }
    *line =
        String::from_utf8(bytes).map_err(|_| invalid(Fault::Invalid("not UTF-8".to_owned())))?;
    Ok(Some(terminated))
}

/// One member value as [`scan_fields`] keeps it: a scalar borrowed from
/// the input, or a marker for a nested array or object (checked, then
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

    /// The required member `key` as `read` takes it, failing as a
    /// [`Field`] read does.
    pub(crate) fn require<'s, T>(
        &'s self,
        key: &'static str,
        want: &'static str,
        read: impl FnOnce(&'s Scalar<'a>) -> Option<T>,
    ) -> Result<T, DecodeError> {
        let value = self
            .get(key)
            .ok_or_else(|| DecodeError::new(key, Fault::Missing))?;
        read(value).ok_or_else(|| DecodeError::new(key, Fault::Type(want)))
    }
}

/// Reads one JSON document the way [`parse`] does — same grammar, same
/// errors — but builds no tree: keeps, for each of `keys`, the first
/// member of a top-level object with that key (the member [`Value::get`]
/// would find) as a [`Scalar`] borrowed from `text`. Nested members, and
/// a document that is not an object, are checked and skipped.
pub(crate) fn scan_fields<'a, const N: usize>(
    text: &'a str,
    keys: &'static [&'static str; N],
) -> Result<Fields<'a, N>, DecodeError> {
    let mut values: [Option<Scalar<'a>>; N] = std::array::from_fn(|_| None);
    let mut p = Parser::new(text);
    if p.peek() == Some(b'{') {
        let depth = p.nest(0)?;
        p.members(|p, key| {
            let value = match p.peek() {
                Some(b'{' | b'[') => p.skip(depth).map(|()| Scalar::Nested)?,
                _ => p.scalar()?,
            };
            if let Some(i) = keys.iter().position(|k| *k == key) {
                values[i].get_or_insert(value);
            }
            Ok(())
        })?;
    } else {
        p.skip(0)?;
    }
    p.end()?;
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

    fn err(&self, message: &str) -> DecodeError {
        DecodeError::new(
            "",
            Fault::Syntax {
                offset: self.pos,
                message: message.to_owned(),
            },
        )
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DecodeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// After the one value: only whitespace may follow.
    fn end(&mut self) -> Result<(), DecodeError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after value"));
        }
        Ok(())
    }

    /// The depth inside the array or object that opens here, refused past
    /// [`MAX_DEPTH`].
    fn nest(&self, depth: usize) -> Result<usize, DecodeError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(depth + 1)
    }

    /// A value as a tree; `depth` counts the containers around it.
    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
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

    /// A value checked against the grammar and dropped, building nothing.
    fn skip(&mut self, depth: usize) -> Result<(), DecodeError> {
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
    fn scalar(&mut self) -> Result<Scalar<'a>, DecodeError> {
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Scalar<'a>) -> Result<Scalar<'a>, DecodeError> {
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
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
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
        mut element: impl FnMut(&mut Self) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
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
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
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
    fn escape(&mut self) -> Result<char, DecodeError> {
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
    fn number(&mut self) -> Result<&'a str, DecodeError> {
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
    fn digits(&mut self, missing: &str) -> Result<(), DecodeError> {
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

    fn syntax_offset(err: &DecodeError) -> usize {
        match err.fault {
            Fault::Syntax { offset, .. } => offset,
            ref other => panic!("not a syntax fault: {other:?}"),
        }
    }

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
        assert!(err.to_string().contains("four hex digits"), "{err}");
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).expect_err("one level too deep");
        assert_eq!(syntax_offset(&err), MAX_DEPTH);
        assert!(err.to_string().contains("64 levels"), "{err}");
        // A megabyte of brackets fails the same way instead of
        // overflowing the stack — on a default-size test thread.
        let flood = "[".repeat(1 << 20);
        assert_eq!(
            syntax_offset(&parse(&flood).expect_err("too deep")),
            MAX_DEPTH
        );
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
    #[test]
    fn writer_lays_out_compact_and_line_containers() {
        let mut out = String::new();
        object(&mut out, Layout::Compact, |w| {
            w.u64("t", 7).str("odd \"key\"", "a\nb");
            w.array("xs", Layout::Compact, |w| {
                w.bool("", true).null("").f64("", 0.25, 1);
            });
            w.object("empty", Layout::Compact, |_| {});
        });
        assert_eq!(
            out,
            "{\"t\":7,\"odd \\\"key\\\"\":\"a\\nb\",\"xs\":[true,null,0.2],\"empty\":{}}"
        );
        out.clear();
        object(&mut out, Layout::Lines, |w| {
            w.array("rows", Layout::Lines, |w| {
                w.object("", Layout::Compact, |w| {
                    w.u64("n", 1);
                });
                // A line container inside a compact one stays compact.
                w.array("", Layout::Compact, |w| {
                    w.array("", Layout::Lines, |w| {
                        w.u64("", 2);
                    });
                });
            });
            w.array("none", Layout::Lines, |_| {});
        });
        assert_eq!(
            out,
            "{\n  \"rows\": [\n    {\"n\":1},\n    [[2]]\n  ],\n  \"none\": [\n  ]\n}"
        );
    }

    #[test]
    fn written_documents_parse_back() {
        let hostile = "label\" with \\ hostile\n\tbytes\u{1}";
        let mut out = String::new();
        object(&mut out, Layout::Lines, |w| {
            w.array(hostile, Layout::Compact, |w| {
                w.str("", hostile).u64("", u64::MAX);
            });
        });
        let value = parse(&out).expect("parses");
        let root = value.field();
        let items = root.get(hostile).expect("present");
        let items: Vec<Field<'_>> = items.items().expect("array").collect();
        assert_eq!(items[0].as_str(), Ok(hostile));
        assert_eq!(items[1].as_u64(), Ok(u64::MAX));
    }

    #[test]
    fn field_reads_name_the_key_path() {
        let doc = parse(r#"{"a":{"n":-1,"s":"x","odd key":[1,"two"]},"f":1.5e1}"#).expect("parses");
        let root = doc.field();
        assert_eq!(root.get("f").and_then(|f| f.as_f64()), Ok(15.0));
        let a = root.get("a").expect("present");
        assert_eq!(a.str("s"), Ok("x"));
        let err = a.u64("n").expect_err("negative");
        assert_eq!(err, DecodeError::new("a.n", Fault::Type("a u64")));
        assert_eq!(err.to_string(), "a.n: not a u64");
        assert_eq!(
            a.u64("gone").expect_err("absent").to_string(),
            "a.gone: missing"
        );
        let odd = a.get("odd key").expect("present");
        let items: Vec<Field<'_>> = odd.items().expect("array").collect();
        assert_eq!(
            items[1].as_u64().expect_err("a string").to_string(),
            "a.\"odd key\"[1]: not a u64"
        );
        assert!(matches!(odd.members(), Err(e) if e.to_string() == "a.\"odd key\": not an object"));
        let err = root.str("a").expect_err("an object").within("doc.json");
        assert_eq!(err.to_string(), "doc.json: a: not a string");
        let syntax = parse("{").expect_err("truncated").within("baseline");
        assert!(
            syntax
                .to_string()
                .starts_with("baseline: JSON parse error at byte 1: "),
            "{syntax}"
        );
    }

    #[test]
    fn check_rendering_accepts_only_the_same_document() {
        let doc = parse(r#"{"a":{"b":[1,2.50]},"c":"A"}"#).expect("parses");
        assert_eq!(
            doc.check_rendering(r#"{ "a": {"b": [1, 2.50]}, "c": "A" }"#),
            Ok(())
        );
        for rendered in [
            r#"{"a":{"b":[1,2.5]},"c":"A"}"#,
            r#"{"a":{"b":[1]},"c":"A"}"#,
            r#"{"c":"A","a":{"b":[1,2.50]}}"#,
            r#"{"a":{"b":[1,2.50]}}"#,
        ] {
            assert_eq!(
                doc.check_rendering(rendered),
                Err(DecodeError::new("", Fault::NonCanonical)),
                "{rendered}"
            );
        }
    }

    #[test]
    fn read_line_splits_like_str_lines_and_stops_at_the_limit() {
        let text = "a\r\nbb\n\nlast\r";
        let mut reader = io::BufReader::with_capacity(2, text.as_bytes());
        let mut line = String::new();
        let mut got = Vec::new();
        while let Some(terminated) = read_line(&mut reader, &mut line, 8).expect("reads") {
            got.push((line.clone(), terminated));
        }
        let want: Vec<(String, bool)> = text
            .lines()
            .zip([true, true, true, false])
            .map(|(l, t)| (l.to_owned(), t))
            .collect();
        assert_eq!(got, want);
        // Exactly at the limit, with either ending, is fine; one byte
        // over is refused.
        for ok in ["abcd\n", "abcd\r\n", "abcd"] {
            let mut reader = ok.as_bytes();
            assert!(read_line(&mut reader, &mut line, 4)
                .expect("fits")
                .is_some());
            assert_eq!(line, "abcd");
        }
        for (bad, want) in [
            (&b"abcde\n"[..], Fault::TooLong(4)),
            (b"abcd\re\n", Fault::TooLong(4)),
            (b"abcde", Fault::TooLong(4)),
            (b"ab\xffd\n", Fault::Invalid("not UTF-8".to_owned())),
        ] {
            let mut reader = bad;
            let err = read_line(&mut reader, &mut line, 4).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let decode = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<DecodeError>())
                .expect("a decode error");
            assert_eq!(decode.fault, want, "{bad:?}");
        }
        // An endless line is refused after a few bytes past the limit.
        let mut endless = io::BufReader::new(io::repeat(b'x'));
        assert!(read_line(&mut endless, &mut line, 4).is_err());
        let mut rest = [0u8; 8];
        io::Read::read_exact(&mut endless, &mut rest).expect("still readable");
    }
}
