//! Compact length-prefixed binary trace encoding.
//!
//! JSONL is the canonical interchange format — human-greppable, diffable,
//! and what every committed fixture pins — but a campaign-scale sweep
//! emits gigabytes of it, most of which is repeated key names. This
//! module defines the equivalent binary form: an 8-byte magic
//! ([`MAGIC`], `b"BLAPTRC1"`) followed by frames, each a LEB128 varint
//! payload length and a payload of
//!
//! ```text
//! tag:u8  flags:u8  t:varint  [dev:varint]  members...
//! ```
//!
//! One table, `SCHEMA`, drives both directions. Its row index is the tag
//! (0 = `dispatch` … 16 = `span_close`, [`TraceEvent`] declaration
//! order), and a row holds the `ev` name and the members after `t`/`dev`
//! in JSONL key order, which is also their payload order. `flags` bit 0
//! marks a present device id; the k-th optional member of a row owns bit
//! k (so `span_open`'s `parent`/`detail` are bits 1 and 2). Integers are
//! varints, strings varint-length-prefixed UTF-8, booleans a strict
//! `0`/`1` byte. The length prefix lets a reader skip or validate frames
//! without understanding every tag, and makes torn final frames (killed
//! writer) detectable: a frame that ends early is a [`CodecError`], never
//! a panic or a silent truncation.
//!
//! A [`Frame`] is one canonical JSONL line together with its payload.
//! [`Frame::from_jsonl`] *verifies canonicality*: it encodes the line,
//! renders the payload back, and rejects the line on any byte mismatch
//! (non-canonical number spellings, reordered or extra keys). That check
//! is what makes `blap-trace convert` honestly byte-deterministic:
//! JSONL → binary → JSONL is the identity on every line it accepts —
//! everything [`TraceEvent::render_jsonl`] produces among them — and
//! anything else is refused loudly instead of silently rewritten.
//! [`FrameWriter`]/[`FrameReader`] are the streaming file surfaces
//! `blap-trace` uses.
//!
//! [`TraceEvent`]: crate::trace::TraceEvent
//! [`TraceEvent::render_jsonl`]: crate::trace::TraceEvent::render_jsonl

use std::fmt;
use std::io::{self, Read, Write};

use crate::json::{self, DecodeError, Fault, Scalar};
use crate::trace::LineWriter;

/// File magic: identifies a binary trace stream, version 1.
pub const MAGIC: [u8; 8] = *b"BLAPTRC1";

/// The one size limit per trace event, in both formats: a BLAPTRC1 frame
/// payload, the JSONL line it renders, and a JSONL line read from a file
/// are each refused past it. A payload is never longer than its line, so
/// `blap-trace convert` cannot write, in either direction, an event the
/// other format's reader refuses. Far above any real event (the largest
/// variant is a `warning` whose message is capped nowhere else, and even
/// pathological messages are kilobytes); it keeps a corrupt length prefix
/// or a hostile line from asking a reader for gigabytes.
pub const MAX_EVENT_BYTES: usize = 1 << 20;

/// The type of one event member, in JSONL and on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    /// A JSON unsigned integer; a varint.
    U64,
    /// A JSON boolean; a `0`/`1` byte.
    Bool,
    /// A JSON string; a varint length and that many UTF-8 bytes.
    Str,
    /// A `U64` that may be absent; its flag bit says whether it is there.
    OptU64,
    /// A `Str` that may be absent; its flag bit says whether it is there.
    OptStr,
}

use Ty::{Bool, OptStr, OptU64, Str, U64};

impl Ty {
    fn optional(self) -> bool {
        matches!(self, OptU64 | OptStr)
    }
}

/// The BLAPTRC1 schema. The row index is the frame tag; each row is an
/// `ev` name and the members that follow `t`/`dev`, in JSONL key order.
static SCHEMA: [(&str, &[(&str, Ty)]); 17] = [
    ("dispatch", &[("seq", U64), ("kind", Str)]),
    ("page_start", &[("target", Str)]),
    (
        "page_connect",
        &[
            ("target", Str),
            ("responder", U64),
            ("latency_us", U64),
            ("raced", Bool),
        ],
    ),
    ("page_timeout", &[("target", Str)]),
    ("race", &[("target", Str), ("attacker_won", Bool)]),
    ("scan", &[("page_scan", Bool), ("inquiry_scan", Bool)]),
    ("lmp_send", &[("peer", Str), ("pdu", Str)]),
    ("lmp_recv", &[("peer", Str), ("pdu", Str)]),
    ("lmp_timeout", &[("peer", Str)]),
    ("hci", &[("dir", Str), ("kind", Str), ("name", Str)]),
    ("link_drop", &[("reason", Str)]),
    ("keystore", &[("peer", Str), ("action", Str)]),
    ("attack_phase", &[("label", Str)]),
    ("warning", &[("message", Str)]),
    ("unit_start", &[("unit", U64), ("label", Str)]),
    (
        "span_open",
        &[
            ("span", U64),
            ("parent", OptU64),
            ("name", Str),
            ("detail", OptStr),
        ],
    ),
    ("span_close", &[("span", U64), ("status", Str)]),
];

/// Every member [`Frame::from_jsonl`] reads: `t`, `dev`, `ev`, then each
/// `SCHEMA` key where it first appears.
const FRAME_KEYS: [&str; 25] = [
    "t",
    "dev",
    "ev",
    "seq",
    "kind",
    "target",
    "responder",
    "latency_us",
    "raced",
    "attacker_won",
    "page_scan",
    "inquiry_scan",
    "peer",
    "pdu",
    "dir",
    "name",
    "reason",
    "action",
    "label",
    "message",
    "unit",
    "span",
    "parent",
    "detail",
    "status",
];

const FLAG_DEV: u8 = 1 << 0;

/// The `SCHEMA` row, and so the frame tag, of event kind `ev`; `None` for
/// a kind BLAPTRC1 does not name.
pub(crate) fn tag_of(ev: &str) -> Option<usize> {
    SCHEMA.iter().position(|(name, _)| *name == ev)
}

/// The members of schema row `tag`, each with the flag bit it owns (0 for
/// a required member).
fn members(tag: usize) -> impl Iterator<Item = (&'static str, Ty, u8)> {
    let mut bit = FLAG_DEV;
    SCHEMA[tag].1.iter().map(move |&(key, ty)| {
        if !ty.optional() {
            return (key, ty, 0);
        }
        bit <<= 1;
        (key, ty, bit)
    })
}

/// A malformed binary trace stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// 0-based index of the offending frame (0 also covers a bad magic).
    pub frame: usize,
    /// What went wrong.
    pub message: String,
    /// Whether the stream simply *ended* mid-frame — the torn final
    /// frame of a killed (or still-writing) producer — as opposed to
    /// structural corruption. Follow-mode readers tolerate exactly the
    /// truncated errors; everything else stays fatal.
    pub truncated: bool,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary trace frame {}: {}", self.frame, self.message)
    }
}

impl std::error::Error for CodecError {}

/// Whether a file prefix identifies a binary trace stream. Callers
/// should probe the first [`MAGIC`]`.len()` bytes; anything shorter is
/// not a valid binary stream (and is treated as JSONL by `blap-trace`).
pub fn is_binary(prefix: &[u8]) -> bool {
    prefix.starts_with(&MAGIC)
}

/// One trace event in both forms: its canonical JSONL line and its
/// BLAPTRC1 payload (everything after the length prefix).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    line: String,
    payload: Vec<u8>,
}

impl Frame {
    /// Parses one canonical JSONL trace line into a frame.
    ///
    /// Canonicality is *verified*, not assumed: the encoded payload is
    /// rendered back and must reproduce `line` byte for byte. A line with
    /// reordered keys, extra fields, or a non-canonical number spelling
    /// (`1e3`, `7.0`) is rejected — silently normalizing it would make
    /// `convert` round trips lossy — and so is a line longer than
    /// [`MAX_EVENT_BYTES`].
    pub fn from_jsonl(line: &str) -> Result<Frame, DecodeError> {
        if line.len() > MAX_EVENT_BYTES {
            return Err(DecodeError::new("", Fault::TooLong(MAX_EVENT_BYTES)));
        }
        let payload = encode_line(line)?;
        let mut rendered = String::with_capacity(line.len());
        render_payload(&payload, &mut rendered)
            .map_err(|message| DecodeError::new("", Fault::Invalid(message)))?;
        if rendered != line {
            return Err(DecodeError::new("", Fault::NonCanonical));
        }
        Ok(Frame {
            line: rendered,
            payload,
        })
    }

    /// The canonical JSONL line (no trailing newline).
    pub fn line(&self) -> &str {
        &self.line
    }

    /// Appends the canonical JSONL line (no trailing newline) to `out`.
    pub fn render_jsonl(&self, out: &mut String) {
        out.push_str(&self.line);
    }
}

/// Encodes the members of a JSONL line that its `ev` row names. Members
/// the row does not name are left to [`Frame::from_jsonl`]'s re-render
/// check, and so is the device-id range.
fn encode_line(line: &str) -> Result<Vec<u8>, DecodeError> {
    let fields = json::scan_fields(line, &FRAME_KEYS)?;
    let t = fields.require("t", "a u64", Scalar::as_u64)?;
    let ev = fields.require("ev", "a string", Scalar::as_str)?;
    let tag = tag_of(ev).ok_or_else(|| unknown_kind(ev))?;
    let mut out = Vec::with_capacity(line.len());
    out.extend([tag as u8, 0]);
    put_varint(&mut out, t);
    if let Some(dev) = fields.get("dev").and_then(Scalar::as_u64) {
        out[1] |= FLAG_DEV;
        put_varint(&mut out, dev);
    }
    for (key, ty, bit) in members(tag) {
        let Some(value) = fields.get(key) else {
            if bit == 0 {
                return Err(DecodeError::new(key, Fault::Missing));
            }
            continue;
        };
        let wrong = |want| DecodeError::new(key, Fault::Type(want));
        match ty {
            U64 | OptU64 => put_varint(&mut out, value.as_u64().ok_or_else(|| wrong("a u64"))?),
            Bool => out.push(u8::from(value.as_bool().ok_or_else(|| wrong("a boolean"))?)),
            Str | OptStr => put_string(&mut out, value.as_str().ok_or_else(|| wrong("a string"))?),
        }
        out[1] |= bit;
    }
    Ok(out)
}

/// The error for an `ev` kind BLAPTRC1's schema does not name.
pub(crate) fn unknown_kind(ev: &str) -> DecodeError {
    DecodeError::new("ev", Fault::Invalid(format!("unknown event kind {ev:?}")))
}

/// Renders one payload as its JSONL line into `out`. The whole payload
/// must be consumed: trailing bytes are an error.
fn render_payload(payload: &[u8], out: &mut String) -> Result<(), String> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let tag = cur.u8("tag")?;
    let &(ev, _) = SCHEMA
        .get(usize::from(tag))
        .ok_or_else(|| format!("unknown frame tag {tag}"))?;
    let flags = cur.u8("flags")?;
    let known_flags = members(tag.into()).fold(FLAG_DEV, |known, (_, _, bit)| known | bit);
    if flags & !known_flags != 0 {
        return Err(format!("unknown flag bits {flags:#04x} for tag {tag}"));
    }
    let t = cur.varint("t")?;
    let dev = if flags & FLAG_DEV != 0 {
        let d = cur.varint("dev")?;
        Some(
            u32::try_from(d)
                .map_err(|_| format!("\"dev\" value {d} exceeds the u32 device-id range"))?,
        )
    } else {
        None
    };
    let mut line = LineWriter::open(out, t, dev).ev(ev);
    for (key, ty, bit) in members(tag.into()) {
        if flags & bit != bit {
            continue;
        }
        line = match ty {
            U64 | OptU64 => line.uint(key, cur.varint(key)?),
            Bool => line.boolean(key, cur.bool(key)?),
            Str | OptStr => line.string(key, cur.str(key)?),
        };
    }
    line.close();
    if cur.pos != payload.len() {
        return Err(format!(
            "{} trailing byte(s) after a complete frame payload",
            payload.len() - cur.pos
        ));
    }
    Ok(())
}

/// LEB128 unsigned varint append.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self, what: &str) -> Result<u8, String> {
        let byte = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("payload ends inside {what}"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("boolean {what} has value {other}, want 0 or 1")),
        }
    }

    fn varint(&mut self, what: &str) -> Result<u64, String> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(format!("varint {what} overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(format!("varint {what} runs past 10 bytes"))
    }

    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.varint(what)?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= self.buf.len() - self.pos)
            .ok_or_else(|| format!("string {what} length {len} exceeds the payload"))?;
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map_err(|_| format!("string {what} is not valid UTF-8"))
    }
}

/// Streaming binary trace writer: stamps [`MAGIC`], then one length-
/// prefixed frame per [`FrameWriter::write_frame`] call.
pub struct FrameWriter<W: Write> {
    inner: W,
    /// The length prefix of the frame being written.
    prefix: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`, writing the stream magic immediately.
    pub fn new(mut inner: W) -> io::Result<FrameWriter<W>> {
        inner.write_all(&MAGIC)?;
        Ok(FrameWriter {
            inner,
            prefix: Vec::with_capacity(10),
        })
    }

    /// Appends one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.prefix.clear();
        put_varint(&mut self.prefix, frame.payload.len() as u64);
        self.inner.write_all(&self.prefix)?;
        self.inner.write_all(&frame.payload)
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming binary trace reader: checks [`MAGIC`] up front, then yields
/// frames until a clean end of stream. A stream that ends inside a
/// length prefix or a payload (torn final frame from a killed writer) is
/// a [`CodecError`], not a silent stop.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    /// 0-based index of the next frame to read (error attribution).
    frame_no: usize,
    /// The payload buffer every frame is read into, grown to the largest
    /// payload seen (at most [`MAX_EVENT_BYTES`] bytes) and then reused.
    payload: Vec<u8>,
    /// The buffer every payload is rendered into, reused the same way.
    line: String,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, consuming and verifying the stream magic.
    pub fn new(mut inner: R) -> Result<FrameReader<R>, CodecError> {
        let mut magic = [0u8; 8];
        read_full(&mut inner, &mut magic).map_err(|partial| CodecError {
            frame: 0,
            message: match partial {
                Some(n) => format!("stream ends after {n} byte(s), before the 8-byte magic"),
                None => "unreadable stream magic".to_owned(),
            },
            truncated: partial.is_some(),
        })?;
        if magic != MAGIC {
            return Err(CodecError {
                frame: 0,
                message: format!("bad magic {magic:02x?}, want {MAGIC:02x?} (\"BLAPTRC1\")"),
                truncated: false,
            });
        }
        Ok(FrameReader {
            inner,
            frame_no: 0,
            payload: Vec::new(),
            line: String::new(),
        })
    }

    /// Reads and renders the next frame; `Ok(None)` on a clean end of
    /// stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        let err = |message: String| CodecError {
            frame: self.frame_no,
            message,
            truncated: false,
        };
        let torn = |message: String| CodecError {
            frame: self.frame_no,
            message,
            truncated: true,
        };
        // Length prefix, byte at a time: EOF before the first byte is a
        // clean end; EOF inside the varint is a torn frame.
        let mut len = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            match self.inner.read(&mut byte) {
                Ok(0) if shift == 0 => return Ok(None),
                Ok(0) => return Err(torn("stream ends inside a frame length prefix".to_owned())),
                Ok(_) => {
                    let bits = u64::from(byte[0] & 0x7f);
                    if shift >= 63 && bits > 1 {
                        return Err(err("frame length prefix overflows u64".to_owned()));
                    }
                    len |= bits << shift;
                    if byte[0] & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                    if shift > 63 {
                        return Err(err("frame length prefix runs past 10 bytes".to_owned()));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(err(format!("read error: {e}"))),
            }
        }
        if len > MAX_EVENT_BYTES as u64 {
            return Err(err(format!(
                "frame payload length {len} exceeds the {MAX_EVENT_BYTES}-byte limit"
            )));
        }
        // Shrinking leaves the bytes alone and growing zero-fills only the
        // new tail; `read_full` overwrites all `len` bytes either way.
        self.payload.resize(len as usize, 0);
        read_full(&mut self.inner, &mut self.payload).map_err(|partial| match partial {
            Some(n) => torn(format!(
                "stream ends {} byte(s) into a {len}-byte frame payload (torn frame)",
                n
            )),
            None => err("read error inside a frame payload".to_owned()),
        })?;
        self.line.clear();
        render_payload(&self.payload, &mut self.line).map_err(err)?;
        if self.line.len() > MAX_EVENT_BYTES {
            return Err(err(format!(
                "frame renders a {}-byte line, over the {MAX_EVENT_BYTES}-byte limit",
                self.line.len()
            )));
        }
        self.frame_no += 1;
        Ok(Some(Frame {
            line: self.line.clone(),
            payload: self.payload.clone(),
        }))
    }
}

/// Reads exactly `buf.len()` bytes. On failure returns `Some(n)` with the
/// number of bytes that were read before EOF, or `None` for an I/O error.
fn read_full<R: Read>(inner: &mut R, buf: &mut [u8]) -> Result<(), Option<usize>> {
    let mut filled = 0;
    while filled < buf.len() {
        match inner.read(&mut buf[filled..]) {
            Ok(0) => return Err(Some(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(None),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;
    use crate::trace::TraceEvent;
    use blap_types::{BdAddr, Instant};

    fn sample_frames() -> Vec<Frame> {
        let lines = [
            "{\"t\":0,\"ev\":\"unit_start\",\"unit\":0,\"label\":\"trial_pair\"}",
            "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"blocking\"}",
            "{\"t\":5,\"dev\":2,\"ev\":\"span_open\",\"span\":2,\"parent\":1,\"name\":\"page\"}",
            "{\"t\":10,\"dev\":0,\"ev\":\"dispatch\",\"seq\":7,\"kind\":\"PageScan\"}",
            "{\"t\":12,\"dev\":0,\"ev\":\"page_start\",\"target\":\"aa:aa:aa:aa:aa:aa\"}",
            "{\"t\":20,\"dev\":0,\"ev\":\"page_connect\",\"target\":\"aa:aa:aa:aa:aa:aa\",\"responder\":2,\"latency_us\":1250,\"raced\":true}",
            "{\"t\":21,\"dev\":1,\"ev\":\"page_timeout\",\"target\":\"bb:bb:bb:bb:bb:bb\"}",
            "{\"t\":22,\"ev\":\"race\",\"target\":\"aa:aa:aa:aa:aa:aa\",\"attacker_won\":false}",
            "{\"t\":23,\"dev\":1,\"ev\":\"scan\",\"page_scan\":true,\"inquiry_scan\":false}",
            "{\"t\":30,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"cc:cc:cc:cc:cc:cc\",\"pdu\":\"LMP_au_rand\"}",
            "{\"t\":1280,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"cc:cc:cc:cc:cc:cc\",\"pdu\":\"LMP_au_rand\"}",
            "{\"t\":1300,\"dev\":1,\"ev\":\"lmp_timeout\",\"peer\":\"cc:cc:cc:cc:cc:cc\"}",
            "{\"t\":1400,\"dev\":0,\"ev\":\"hci\",\"dir\":\"sent\",\"kind\":\"command\",\"name\":\"Create_Connection\"}",
            "{\"t\":1500,\"dev\":1,\"ev\":\"link_drop\",\"reason\":\"supervision_timeout\"}",
            "{\"t\":1600,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"cc:cc:cc:cc:cc:cc\",\"action\":\"store\"}",
            "{\"t\":1700,\"ev\":\"attack_phase\",\"label\":\"ploc_hold\"}",
            "{\"t\":1800,\"ev\":\"warning\",\"message\":\"odd \\\"quoted\\\" message\\nwith newline\"}",
            "{\"t\":1900,\"dev\":2,\"ev\":\"span_close\",\"span\":2,\"status\":\"connected\"}",
            "{\"t\":18446744073709551615,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_lost\"}",
        ];
        lines
            .iter()
            .map(|l| Frame::from_jsonl(l).expect(l))
            .collect()
    }

    fn write_stream(frames: &[Frame]) -> Vec<u8> {
        let mut writer = FrameWriter::new(Vec::new()).expect("vec write");
        for frame in frames {
            writer.write_frame(frame).expect("vec write");
        }
        writer.finish().expect("vec flush")
    }

    /// Reads the one frame of a stream holding just `payload`.
    fn read_payload(payload: &[u8]) -> Result<Option<Frame>, CodecError> {
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
        FrameReader::new(&bytes[..]).expect("magic").next_frame()
    }

    #[test]
    fn every_kind_round_trips_binary_and_jsonl() {
        let frames = sample_frames();
        let bytes = write_stream(&frames);
        assert!(is_binary(&bytes));
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let mut decoded = Vec::new();
        while let Some(frame) = reader.next_frame().expect("well-formed stream") {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
        // And each decoded line parses back to the same frame.
        for frame in &decoded {
            assert_eq!(Frame::from_jsonl(frame.line()).expect("canonical"), *frame);
        }
    }

    #[test]
    fn every_trace_event_variant_survives_the_binary_form() {
        let addr = BdAddr::new([0x00, 0x1b, 0x7d, 0xda, 0x71, 0x0a]);
        let at = Instant::from_micros;
        let events = [
            TraceEvent::SchedulerDispatch {
                time: at(1),
                seq: 7,
                kind: "PageScan",
            },
            TraceEvent::PageStarted {
                time: at(2),
                target: addr,
            },
            TraceEvent::PageConnected {
                time: at(3),
                target: addr,
                responder: u32::MAX,
                latency_us: 1250,
                raced: true,
            },
            TraceEvent::PageTimeout {
                time: at(4),
                target: addr,
            },
            TraceEvent::RaceOutcome {
                time: at(5),
                target: addr,
                attacker_won: false,
            },
            TraceEvent::ScanTransition {
                time: at(6),
                page_scan: true,
                inquiry_scan: false,
            },
            TraceEvent::LmpSend {
                time: at(7),
                peer: addr,
                pdu: "LMP_au_rand",
            },
            TraceEvent::LmpRecv {
                time: at(8),
                peer: addr,
                pdu: "LMP_sres",
            },
            TraceEvent::LmpTimeout {
                time: at(9),
                peer: addr,
            },
            TraceEvent::HciSeam {
                time: at(10),
                direction: "sent",
                kind: "command",
                name: "HCI_Create_Connection",
            },
            TraceEvent::LinkDropped {
                time: at(11),
                reason: "detach",
            },
            TraceEvent::KeystoreMutation {
                time: at(12),
                peer: addr,
                action: "install",
            },
            TraceEvent::AttackPhase {
                time: at(13),
                label: "ploc_hold",
            },
            TraceEvent::Warning {
                time: at(14),
                message: "quote \" and\nnewline".to_owned(),
            },
            TraceEvent::UnitStart {
                unit: 3,
                label: "blocking",
            },
            TraceEvent::SpanOpen {
                time: at(15),
                span: SpanId::from_raw(2),
                parent: SpanId::from_raw(1),
                name: "page",
                detail: "00:1b:7d:da:71:0a".to_owned(),
            },
            TraceEvent::SpanOpen {
                time: at(16),
                span: SpanId::from_raw(1),
                parent: SpanId::NONE,
                name: "trial",
                detail: String::new(),
            },
            TraceEvent::SpanClose {
                time: at(u64::MAX),
                span: SpanId::from_raw(1),
                status: "done",
            },
        ];
        let mut lines = Vec::new();
        for event in &events {
            for dev in [None, Some(3)] {
                let mut line = String::new();
                event.render_jsonl(dev, &mut line);
                lines.push(line);
            }
        }
        let frames: Vec<Frame> = lines
            .iter()
            .map(|line| Frame::from_jsonl(line).expect(line))
            .collect();
        let bytes = write_stream(&frames);
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        for line in &lines {
            let frame = reader.next_frame().expect("well-formed").expect("a frame");
            assert_eq!(frame.line(), line);
        }
        assert!(reader.next_frame().expect("clean end").is_none());
        // Every schema row was exercised.
        for (ev, _) in SCHEMA {
            let ev = format!("\"ev\":\"{ev}\"");
            assert!(lines.iter().any(|line| line.contains(&ev)), "no {ev} line");
        }
    }

    #[test]
    fn frame_keys_are_t_dev_ev_and_the_schema_keys() {
        let mut keys = vec!["t", "dev", "ev"];
        for (_, members) in SCHEMA {
            for &(key, _) in members {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        assert_eq!(keys, FRAME_KEYS);
    }

    #[test]
    fn non_canonical_lines_are_rejected() {
        // Leading-zero number.
        assert!(Frame::from_jsonl("{\"t\":007,\"ev\":\"attack_phase\",\"label\":\"x\"}").is_err());
        // Reordered keys.
        assert!(Frame::from_jsonl("{\"ev\":\"attack_phase\",\"t\":7,\"label\":\"x\"}").is_err());
        // Extra key.
        assert!(
            Frame::from_jsonl("{\"t\":7,\"ev\":\"attack_phase\",\"label\":\"x\",\"z\":1}").is_err()
        );
        // Unknown event kind.
        assert!(Frame::from_jsonl("{\"t\":7,\"ev\":\"nonsense\"}").is_err());
        // The canonical spelling passes.
        assert!(Frame::from_jsonl("{\"t\":7,\"ev\":\"attack_phase\",\"label\":\"x\"}").is_ok());
    }

    #[test]
    fn from_jsonl_rejects_deep_nesting_and_non_rfc_input() {
        let flood = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{}", "[".repeat(1 << 16));
        let err = Frame::from_jsonl(&flood).expect_err("too deep");
        assert!(err.to_string().contains("64 levels"), "{err}");
        // Past the one size limit, a line is refused before it is read.
        let flood = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{}", "[".repeat(1 << 20));
        let err = Frame::from_jsonl(&flood).expect_err("too long");
        assert_eq!(err.fault, Fault::TooLong(MAX_EVENT_BYTES));
        for bad in [
            "{\"t\":7,\"ev\":\"attack_phase\",\"label\":\"\\u+041\"}",
            "{\"t\":-,\"ev\":\"attack_phase\",\"label\":\"x\"}",
        ] {
            assert!(Frame::from_jsonl(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_reuses_its_payload_buffer() {
        let bytes = write_stream(&sample_frames());
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let mut largest = 0;
        while reader.next_frame().expect("well-formed").is_some() {
            largest = largest.max(reader.payload.len());
        }
        assert!(reader.payload.capacity() >= largest);
        assert!(
            reader.payload.capacity() < 4 * largest,
            "one buffer, not one per frame"
        );
    }

    #[test]
    fn torn_streams_error_instead_of_truncating() {
        let bytes = write_stream(&sample_frames());
        // Chopping anywhere strictly inside the stream must yield an error
        // (never a clean end, never a panic) — except exactly at frame
        // boundaries, where the stream is validly shorter.
        let mut boundary_ends = 0;
        for cut in 0..bytes.len() {
            let mut reader = match FrameReader::new(&bytes[..cut]) {
                Ok(reader) => reader,
                Err(e) => {
                    assert!(cut < MAGIC.len(), "magic failed at cut {cut}: {e}");
                    continue;
                }
            };
            let mut result = Ok(());
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if result.is_ok() {
                boundary_ends += 1;
            }
        }
        // Only frame boundaries (one per frame, counting the bare magic)
        // read cleanly.
        assert_eq!(boundary_ends, sample_frames().len());
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let frame = Frame::from_jsonl("{\"t\":7,\"ev\":\"attack_phase\",\"label\":\"x\"}")
            .expect("canonical");
        let mut payload = frame.payload.clone();
        payload.push(0); // one stray byte inside the declared length
        let err = read_payload(&payload).expect_err("stray byte must error");
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn payloads_outside_the_schema_are_rejected() {
        // Tag 12 is `attack_phase` (no optional members), 15 `span_open`
        // (optional `parent` and `detail` on bits 1 and 2).
        let cases: [(&[u8], &str); 9] = [
            (&[17, 0, 0], "unknown frame tag 17"),
            (&[255, 0, 0], "unknown frame tag 255"),
            (&[12, 0b010, 0, 1, b'x'], "unknown flag bits"),
            (&[15, 0b1000, 0, 1, 1, b'x'], "unknown flag bits"),
            (&[5, 0, 0, 1, 2], "want 0 or 1"),
            (&[12, 0, 0, 2, b'x'], "exceeds the payload"),
            (&[12, 0, 0, 1, 0xff], "not valid UTF-8"),
            (
                &[
                    12, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
                ],
                "overflows u64",
            ),
            (
                &[12, FLAG_DEV, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 1, b'x'],
                "exceeds the u32 device-id range",
            ),
        ];
        for (payload, want) in cases {
            let err = read_payload(payload).expect_err(want);
            assert!(err.message.contains(want), "{payload:02x?}: {err}");
        }
        // The same shapes within the schema decode.
        let ok: [&[u8]; 3] = [
            &[12, 0, 0, 1, b'x'],
            &[15, 0b110, 0, 2, 1, 4, b'p', b'a', b'g', b'e', 0],
            &[12, FLAG_DEV, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, b'x'],
        ];
        for payload in ok {
            read_payload(payload).expect("in-schema payload");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, u64::MAX);
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let err = reader.next_frame().expect_err("absurd length must error");
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = FrameReader::new(&b"NOTMAGIC rest"[..]).expect_err("bad magic");
        assert!(err.message.contains("bad magic"), "{err}");
        let err = FrameReader::new(&b"BLA"[..]).expect_err("short magic");
        assert!(err.message.contains("before the 8-byte magic"), "{err}");
        assert!(!is_binary(b"{\"t\":0"));
        assert!(!is_binary(b"BLA"));
        assert!(is_binary(b"BLAPTRC1\x00"));
    }
}
