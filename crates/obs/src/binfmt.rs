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
//! tag:u8  flags:u8  t:varint  [dev:varint]  per-tag fields...
//! ```
//!
//! One tag per [`TraceEvent`] variant (0 = `dispatch` … 16 =
//! `span_close`, declaration order). `flags` bit 0 marks a present
//! device id, bits 1 and 2 the optional `parent`/`detail` of a
//! `span_open`. Strings are varint-length-prefixed UTF-8; booleans are a
//! strict `0`/`1` byte. The length prefix lets a reader skip or validate
//! frames without understanding every tag, and makes torn final frames
//! (killed writer) detectable: a frame that ends early is a
//! [`CodecError`], never a panic or a silent truncation.
//!
//! The bridge type is [`Frame`]: an owned, self-contained event decoded
//! from either format. `Frame::render_jsonl` reproduces
//! [`TraceEvent::render_jsonl`] byte for byte, and [`Frame::from_jsonl`]
//! *verifies canonicality* — it re-renders what it parsed and rejects the
//! line on any byte mismatch (non-canonical number spellings, reordered
//! or extra keys). That check is what makes `blap-trace convert`
//! honestly byte-deterministic: JSONL → binary → JSONL is the identity
//! on every artifact our tracer can produce, and anything else is
//! refused loudly instead of silently rewritten.
//!
//! [`BinaryBuffer`] is the in-memory [`TraceSink`] counterpart of
//! [`crate::trace::JsonlBuffer`]; [`FrameWriter`]/[`FrameReader`] are the
//! streaming file surfaces `blap-trace` uses.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

use crate::json::{self, Fields, Scalar};
use crate::trace::{LineWriter, TraceEvent, TraceSink};

/// File magic: identifies a binary trace stream, version 1.
pub const MAGIC: [u8; 8] = *b"BLAPTRC1";

/// Upper bound on one frame's payload, far above any real event (the
/// largest variant is a `warning` whose message we cap nowhere, but even
/// pathological messages are kilobytes). Prevents a corrupt length
/// prefix from asking the reader to allocate gigabytes.
const MAX_PAYLOAD: u64 = 1 << 20;

/// Every member [`Frame::from_jsonl`] reads, over all event kinds.
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
const FLAG_PARENT: u8 = 1 << 1;
const FLAG_DETAIL: u8 = 1 << 2;

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

/// One decoded trace event, owned and format-independent: the meeting
/// point of the JSONL and binary codecs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Virtual timestamp in microseconds.
    pub t: u64,
    /// Emitting device index, when the line was device-scoped.
    pub dev: Option<u32>,
    /// The event payload.
    pub kind: FrameKind,
}

/// The per-event payload of a [`Frame`], mirroring [`TraceEvent`] with
/// owned strings (a decoded frame outlives no borrowed source).
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // Field meanings are documented on `TraceEvent`.
pub enum FrameKind {
    Dispatch {
        seq: u64,
        kind: String,
    },
    PageStart {
        target: String,
    },
    PageConnect {
        target: String,
        responder: u64,
        latency_us: u64,
        raced: bool,
    },
    PageTimeout {
        target: String,
    },
    Race {
        target: String,
        attacker_won: bool,
    },
    Scan {
        page_scan: bool,
        inquiry_scan: bool,
    },
    LmpSend {
        peer: String,
        pdu: String,
    },
    LmpRecv {
        peer: String,
        pdu: String,
    },
    LmpTimeout {
        peer: String,
    },
    Hci {
        dir: String,
        kind: String,
        name: String,
    },
    LinkDrop {
        reason: String,
    },
    Keystore {
        peer: String,
        action: String,
    },
    AttackPhase {
        label: String,
    },
    Warning {
        message: String,
    },
    UnitStart {
        unit: u64,
        label: String,
    },
    SpanOpen {
        span: u64,
        parent: Option<u64>,
        name: String,
        detail: Option<String>,
    },
    SpanClose {
        span: u64,
        status: String,
    },
}

impl Frame {
    /// Condenses a live [`TraceEvent`] into a frame — the
    /// [`BinaryBuffer`] sink's ingestion path.
    pub fn from_event(device: Option<u32>, event: &TraceEvent) -> Frame {
        let t = event.time().as_micros();
        let kind = match event {
            TraceEvent::SchedulerDispatch { seq, kind, .. } => FrameKind::Dispatch {
                seq: *seq,
                kind: (*kind).to_owned(),
            },
            TraceEvent::PageStarted { target, .. } => FrameKind::PageStart {
                target: target.to_string(),
            },
            TraceEvent::PageConnected {
                target,
                responder,
                latency_us,
                raced,
                ..
            } => FrameKind::PageConnect {
                target: target.to_string(),
                responder: u64::from(*responder),
                latency_us: *latency_us,
                raced: *raced,
            },
            TraceEvent::PageTimeout { target, .. } => FrameKind::PageTimeout {
                target: target.to_string(),
            },
            TraceEvent::RaceOutcome {
                target,
                attacker_won,
                ..
            } => FrameKind::Race {
                target: target.to_string(),
                attacker_won: *attacker_won,
            },
            TraceEvent::ScanTransition {
                page_scan,
                inquiry_scan,
                ..
            } => FrameKind::Scan {
                page_scan: *page_scan,
                inquiry_scan: *inquiry_scan,
            },
            TraceEvent::LmpSend { peer, pdu, .. } => FrameKind::LmpSend {
                peer: peer.to_string(),
                pdu: (*pdu).to_owned(),
            },
            TraceEvent::LmpRecv { peer, pdu, .. } => FrameKind::LmpRecv {
                peer: peer.to_string(),
                pdu: (*pdu).to_owned(),
            },
            TraceEvent::LmpTimeout { peer, .. } => FrameKind::LmpTimeout {
                peer: peer.to_string(),
            },
            TraceEvent::HciSeam {
                direction,
                kind,
                name,
                ..
            } => FrameKind::Hci {
                dir: (*direction).to_owned(),
                kind: (*kind).to_owned(),
                name: (*name).to_owned(),
            },
            TraceEvent::LinkDropped { reason, .. } => FrameKind::LinkDrop {
                reason: (*reason).to_owned(),
            },
            TraceEvent::KeystoreMutation { peer, action, .. } => FrameKind::Keystore {
                peer: peer.to_string(),
                action: (*action).to_owned(),
            },
            TraceEvent::AttackPhase { label, .. } => FrameKind::AttackPhase {
                label: (*label).to_owned(),
            },
            TraceEvent::Warning { message, .. } => FrameKind::Warning {
                message: message.clone(),
            },
            TraceEvent::UnitStart { unit, label } => FrameKind::UnitStart {
                unit: *unit,
                label: (*label).to_owned(),
            },
            TraceEvent::SpanOpen {
                span,
                parent,
                name,
                detail,
                ..
            } => FrameKind::SpanOpen {
                span: span.raw(),
                parent: (!parent.is_none()).then(|| parent.raw()),
                name: (*name).to_owned(),
                detail: (!detail.is_empty()).then(|| detail.clone()),
            },
            TraceEvent::SpanClose { span, status, .. } => FrameKind::SpanClose {
                span: span.raw(),
                status: (*status).to_owned(),
            },
        };
        Frame {
            t,
            dev: device,
            kind,
        }
    }

    /// Renders the frame as one JSONL object (no trailing newline),
    /// byte-identical to what [`TraceEvent::render_jsonl`] would have
    /// produced for the originating event.
    pub fn render_jsonl(&self, out: &mut String) {
        let line = LineWriter::open(out, self.t, self.dev);
        match &self.kind {
            FrameKind::Dispatch { seq, kind } => {
                line.ev("dispatch").uint("seq", *seq).string("kind", kind)
            }
            FrameKind::PageStart { target } => line.ev("page_start").string("target", target),
            FrameKind::PageConnect {
                target,
                responder,
                latency_us,
                raced,
            } => line
                .ev("page_connect")
                .string("target", target)
                .uint("responder", *responder)
                .uint("latency_us", *latency_us)
                .boolean("raced", *raced),
            FrameKind::PageTimeout { target } => line.ev("page_timeout").string("target", target),
            FrameKind::Race {
                target,
                attacker_won,
            } => line
                .ev("race")
                .string("target", target)
                .boolean("attacker_won", *attacker_won),
            FrameKind::Scan {
                page_scan,
                inquiry_scan,
            } => line
                .ev("scan")
                .boolean("page_scan", *page_scan)
                .boolean("inquiry_scan", *inquiry_scan),
            FrameKind::LmpSend { peer, pdu } => {
                line.ev("lmp_send").string("peer", peer).string("pdu", pdu)
            }
            FrameKind::LmpRecv { peer, pdu } => {
                line.ev("lmp_recv").string("peer", peer).string("pdu", pdu)
            }
            FrameKind::LmpTimeout { peer } => line.ev("lmp_timeout").string("peer", peer),
            FrameKind::Hci { dir, kind, name } => line
                .ev("hci")
                .string("dir", dir)
                .string("kind", kind)
                .string("name", name),
            FrameKind::LinkDrop { reason } => line.ev("link_drop").string("reason", reason),
            FrameKind::Keystore { peer, action } => line
                .ev("keystore")
                .string("peer", peer)
                .string("action", action),
            FrameKind::AttackPhase { label } => line.ev("attack_phase").string("label", label),
            FrameKind::Warning { message } => line.ev("warning").string("message", message),
            FrameKind::UnitStart { unit, label } => line
                .ev("unit_start")
                .uint("unit", *unit)
                .string("label", label),
            FrameKind::SpanOpen {
                span,
                parent,
                name,
                detail,
            } => line
                .ev("span_open")
                .uint("span", *span)
                .opt_uint("parent", *parent)
                .string("name", name)
                .opt_string("detail", detail.as_deref()),
            FrameKind::SpanClose { span, status } => line
                .ev("span_close")
                .uint("span", *span)
                .string("status", status),
        }
        .close();
    }

    /// Parses one canonical JSONL trace line back into a frame.
    ///
    /// Canonicality is *verified*, not assumed: the parsed frame is
    /// re-rendered and must reproduce `line` byte for byte. A line with
    /// reordered keys, extra fields, or a non-canonical number spelling
    /// (`1e3`, `7.0`) is rejected — silently normalizing it would make
    /// `convert` round trips lossy.
    pub fn from_jsonl(line: &str) -> Result<Frame, String> {
        let fields = json::scan_fields(line, &FRAME_KEYS).map_err(|e| e.to_string())?;
        let frame = Frame::from_fields(&fields)?;
        let mut rendered = String::with_capacity(line.len());
        frame.render_jsonl(&mut rendered);
        if rendered != line {
            return Err(format!(
                "non-canonical trace line: parsed frame re-renders as {rendered:?}"
            ));
        }
        Ok(frame)
    }

    fn from_fields(fields: &Fields<'_, { FRAME_KEYS.len() }>) -> Result<Frame, String> {
        let str_field = |key: &str| {
            fields
                .get(key)
                .and_then(Scalar::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string {key:?} field"))
        };
        let u64_field = |key: &str| {
            fields
                .get(key)
                .and_then(Scalar::as_u64)
                .ok_or_else(|| format!("missing integer {key:?} field"))
        };
        let bool_field = |key: &str| {
            fields
                .get(key)
                .and_then(Scalar::as_bool)
                .ok_or_else(|| format!("missing boolean {key:?} field"))
        };
        let t = u64_field("t")?;
        let dev = match fields.get("dev").and_then(Scalar::as_u64) {
            Some(d) => Some(
                u32::try_from(d)
                    .map_err(|_| format!("\"dev\" value {d} exceeds the u32 device-id range"))?,
            ),
            None => None,
        };
        let ev = fields
            .get("ev")
            .and_then(Scalar::as_str)
            .ok_or_else(|| "missing string \"ev\" field".to_owned())?;
        let kind = match ev {
            "dispatch" => FrameKind::Dispatch {
                seq: u64_field("seq")?,
                kind: str_field("kind")?,
            },
            "page_start" => FrameKind::PageStart {
                target: str_field("target")?,
            },
            "page_connect" => FrameKind::PageConnect {
                target: str_field("target")?,
                responder: u64_field("responder")?,
                latency_us: u64_field("latency_us")?,
                raced: bool_field("raced")?,
            },
            "page_timeout" => FrameKind::PageTimeout {
                target: str_field("target")?,
            },
            "race" => FrameKind::Race {
                target: str_field("target")?,
                attacker_won: bool_field("attacker_won")?,
            },
            "scan" => FrameKind::Scan {
                page_scan: bool_field("page_scan")?,
                inquiry_scan: bool_field("inquiry_scan")?,
            },
            "lmp_send" => FrameKind::LmpSend {
                peer: str_field("peer")?,
                pdu: str_field("pdu")?,
            },
            "lmp_recv" => FrameKind::LmpRecv {
                peer: str_field("peer")?,
                pdu: str_field("pdu")?,
            },
            "lmp_timeout" => FrameKind::LmpTimeout {
                peer: str_field("peer")?,
            },
            "hci" => FrameKind::Hci {
                dir: str_field("dir")?,
                kind: str_field("kind")?,
                name: str_field("name")?,
            },
            "link_drop" => FrameKind::LinkDrop {
                reason: str_field("reason")?,
            },
            "keystore" => FrameKind::Keystore {
                peer: str_field("peer")?,
                action: str_field("action")?,
            },
            "attack_phase" => FrameKind::AttackPhase {
                label: str_field("label")?,
            },
            "warning" => FrameKind::Warning {
                message: str_field("message")?,
            },
            "unit_start" => FrameKind::UnitStart {
                unit: u64_field("unit")?,
                label: str_field("label")?,
            },
            "span_open" => FrameKind::SpanOpen {
                span: u64_field("span")?,
                parent: fields.get("parent").and_then(Scalar::as_u64),
                name: str_field("name")?,
                detail: fields
                    .get("detail")
                    .and_then(Scalar::as_str)
                    .map(str::to_owned),
            },
            "span_close" => FrameKind::SpanClose {
                span: u64_field("span")?,
                status: str_field("status")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(Frame { t, dev, kind })
    }

    /// Encodes the frame's payload (everything after the length prefix).
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let (tag, parent, detail): (u8, Option<u64>, Option<&str>) = match &self.kind {
            FrameKind::Dispatch { .. } => (0, None, None),
            FrameKind::PageStart { .. } => (1, None, None),
            FrameKind::PageConnect { .. } => (2, None, None),
            FrameKind::PageTimeout { .. } => (3, None, None),
            FrameKind::Race { .. } => (4, None, None),
            FrameKind::Scan { .. } => (5, None, None),
            FrameKind::LmpSend { .. } => (6, None, None),
            FrameKind::LmpRecv { .. } => (7, None, None),
            FrameKind::LmpTimeout { .. } => (8, None, None),
            FrameKind::Hci { .. } => (9, None, None),
            FrameKind::LinkDrop { .. } => (10, None, None),
            FrameKind::Keystore { .. } => (11, None, None),
            FrameKind::AttackPhase { .. } => (12, None, None),
            FrameKind::Warning { .. } => (13, None, None),
            FrameKind::UnitStart { .. } => (14, None, None),
            FrameKind::SpanOpen { parent, detail, .. } => (15, *parent, detail.as_deref()),
            FrameKind::SpanClose { .. } => (16, None, None),
        };
        out.push(tag);
        let mut flags = 0u8;
        if self.dev.is_some() {
            flags |= FLAG_DEV;
        }
        if parent.is_some() {
            flags |= FLAG_PARENT;
        }
        if detail.is_some() {
            flags |= FLAG_DETAIL;
        }
        out.push(flags);
        put_varint(out, self.t);
        if let Some(dev) = self.dev {
            put_varint(out, u64::from(dev));
        }
        match &self.kind {
            FrameKind::Dispatch { seq, kind } => {
                put_varint(out, *seq);
                put_string(out, kind);
            }
            FrameKind::PageStart { target } => put_string(out, target),
            FrameKind::PageConnect {
                target,
                responder,
                latency_us,
                raced,
            } => {
                put_string(out, target);
                put_varint(out, *responder);
                put_varint(out, *latency_us);
                out.push(u8::from(*raced));
            }
            FrameKind::PageTimeout { target } => put_string(out, target),
            FrameKind::Race {
                target,
                attacker_won,
            } => {
                put_string(out, target);
                out.push(u8::from(*attacker_won));
            }
            FrameKind::Scan {
                page_scan,
                inquiry_scan,
            } => {
                out.push(u8::from(*page_scan));
                out.push(u8::from(*inquiry_scan));
            }
            FrameKind::LmpSend { peer, pdu } | FrameKind::LmpRecv { peer, pdu } => {
                put_string(out, peer);
                put_string(out, pdu);
            }
            FrameKind::LmpTimeout { peer } => put_string(out, peer),
            FrameKind::Hci { dir, kind, name } => {
                put_string(out, dir);
                put_string(out, kind);
                put_string(out, name);
            }
            FrameKind::LinkDrop { reason } => put_string(out, reason),
            FrameKind::Keystore { peer, action } => {
                put_string(out, peer);
                put_string(out, action);
            }
            FrameKind::AttackPhase { label } => put_string(out, label),
            FrameKind::Warning { message } => put_string(out, message),
            FrameKind::UnitStart { unit, label } => {
                put_varint(out, *unit);
                put_string(out, label);
            }
            FrameKind::SpanOpen {
                span,
                parent,
                name,
                detail,
            } => {
                put_varint(out, *span);
                if let Some(parent) = parent {
                    put_varint(out, *parent);
                }
                put_string(out, name);
                if let Some(detail) = detail {
                    put_string(out, detail);
                }
            }
            FrameKind::SpanClose { span, status } => {
                put_varint(out, *span);
                put_string(out, status);
            }
        }
    }

    /// Decodes one payload (everything after the length prefix). The
    /// whole payload must be consumed: trailing bytes are an error.
    fn decode_payload(payload: &[u8]) -> Result<Frame, String> {
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let tag = cur.u8("tag")?;
        let flags = cur.u8("flags")?;
        let known_flags = FLAG_DEV
            | if tag == 15 {
                FLAG_PARENT | FLAG_DETAIL
            } else {
                0
            };
        if flags & !known_flags != 0 {
            return Err(format!("unknown flag bits {:#04x} for tag {tag}", flags));
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
        let kind = match tag {
            0 => FrameKind::Dispatch {
                seq: cur.varint("seq")?,
                kind: cur.string("kind")?,
            },
            1 => FrameKind::PageStart {
                target: cur.string("target")?,
            },
            2 => FrameKind::PageConnect {
                target: cur.string("target")?,
                responder: cur.varint("responder")?,
                latency_us: cur.varint("latency_us")?,
                raced: cur.bool("raced")?,
            },
            3 => FrameKind::PageTimeout {
                target: cur.string("target")?,
            },
            4 => FrameKind::Race {
                target: cur.string("target")?,
                attacker_won: cur.bool("attacker_won")?,
            },
            5 => FrameKind::Scan {
                page_scan: cur.bool("page_scan")?,
                inquiry_scan: cur.bool("inquiry_scan")?,
            },
            6 => FrameKind::LmpSend {
                peer: cur.string("peer")?,
                pdu: cur.string("pdu")?,
            },
            7 => FrameKind::LmpRecv {
                peer: cur.string("peer")?,
                pdu: cur.string("pdu")?,
            },
            8 => FrameKind::LmpTimeout {
                peer: cur.string("peer")?,
            },
            9 => FrameKind::Hci {
                dir: cur.string("dir")?,
                kind: cur.string("kind")?,
                name: cur.string("name")?,
            },
            10 => FrameKind::LinkDrop {
                reason: cur.string("reason")?,
            },
            11 => FrameKind::Keystore {
                peer: cur.string("peer")?,
                action: cur.string("action")?,
            },
            12 => FrameKind::AttackPhase {
                label: cur.string("label")?,
            },
            13 => FrameKind::Warning {
                message: cur.string("message")?,
            },
            14 => FrameKind::UnitStart {
                unit: cur.varint("unit")?,
                label: cur.string("label")?,
            },
            15 => {
                let span = cur.varint("span")?;
                let parent = if flags & FLAG_PARENT != 0 {
                    Some(cur.varint("parent")?)
                } else {
                    None
                };
                let name = cur.string("name")?;
                let detail = if flags & FLAG_DETAIL != 0 {
                    Some(cur.string("detail")?)
                } else {
                    None
                };
                FrameKind::SpanOpen {
                    span,
                    parent,
                    name,
                    detail,
                }
            }
            16 => FrameKind::SpanClose {
                span: cur.varint("span")?,
                status: cur.string("status")?,
            },
            other => return Err(format!("unknown frame tag {other}")),
        };
        if cur.pos != payload.len() {
            return Err(format!(
                "{} trailing byte(s) after a complete frame payload",
                payload.len() - cur.pos
            ));
        }
        Ok(Frame { t, dev, kind })
    }
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

impl Cursor<'_> {
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

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.varint(what)?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= self.buf.len() - self.pos)
            .ok_or_else(|| format!("string {what} length {len} exceeds the payload"))?;
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("string {what} is not valid UTF-8"))
    }
}

/// Streaming binary trace writer: stamps [`MAGIC`], then one length-
/// prefixed frame per [`FrameWriter::write_frame`] call.
pub struct FrameWriter<W: Write> {
    inner: W,
    scratch: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`, writing the stream magic immediately.
    pub fn new(mut inner: W) -> io::Result<FrameWriter<W>> {
        inner.write_all(&MAGIC)?;
        Ok(FrameWriter {
            inner,
            scratch: Vec::with_capacity(128),
        })
    }

    /// Appends one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.scratch.clear();
        frame.encode_payload(&mut self.scratch);
        let mut prefix = Vec::with_capacity(4);
        put_varint(&mut prefix, self.scratch.len() as u64);
        self.inner.write_all(&prefix)?;
        self.inner.write_all(&self.scratch)
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
    /// payload seen (at most [`MAX_PAYLOAD`] bytes) and then reused.
    payload: Vec<u8>,
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
        })
    }

    /// Reads the next frame; `Ok(None)` on a clean end of stream.
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
        if len > MAX_PAYLOAD {
            return Err(err(format!(
                "frame payload length {len} exceeds the {MAX_PAYLOAD}-byte limit"
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
        let frame = Frame::decode_payload(&self.payload).map_err(err)?;
        self.frame_no += 1;
        Ok(Some(frame))
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

/// An in-memory binary-trace [`TraceSink`] — the [`MAGIC`]-stamped
/// counterpart of [`crate::trace::JsonlBuffer`]. Clone it before
/// attaching to keep a handle for [`BinaryBuffer::contents`].
#[derive(Clone)]
pub struct BinaryBuffer {
    inner: Arc<Mutex<Vec<u8>>>,
}

impl BinaryBuffer {
    /// A fresh buffer holding just the stream magic.
    pub fn new() -> BinaryBuffer {
        BinaryBuffer {
            inner: Arc::new(Mutex::new(MAGIC.to_vec())),
        }
    }

    /// A copy of the accumulated stream (magic included) — a complete
    /// binary trace artifact.
    pub fn contents(&self) -> Vec<u8> {
        self.inner.lock().expect("binary buffer lock").clone()
    }
}

impl Default for BinaryBuffer {
    fn default() -> BinaryBuffer {
        BinaryBuffer::new()
    }
}

impl TraceSink for BinaryBuffer {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        let frame = Frame::from_event(device, event);
        let mut payload = Vec::with_capacity(64);
        frame.encode_payload(&mut payload);
        let mut buf = self.inner.lock().expect("binary buffer lock");
        put_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_types::Instant;

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

    #[test]
    fn every_kind_round_trips_binary_and_jsonl() {
        let frames = sample_frames();
        let mut writer = FrameWriter::new(Vec::new()).expect("vec write");
        for frame in &frames {
            writer.write_frame(frame).expect("vec write");
        }
        let bytes = writer.finish().expect("vec flush");
        assert!(is_binary(&bytes));
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let mut decoded = Vec::new();
        while let Some(frame) = reader.next_frame().expect("well-formed stream") {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
        // And each decoded frame re-renders to the original line bytes.
        for frame in &decoded {
            let mut line = String::new();
            frame.render_jsonl(&mut line);
            assert_eq!(Frame::from_jsonl(&line).expect("canonical"), *frame);
        }
    }

    #[test]
    fn binary_buffer_sink_matches_frame_writer() {
        let tracer = crate::trace::Tracer::new();
        let jsonl = crate::trace::JsonlBuffer::new();
        let bin = BinaryBuffer::new();
        tracer.attach(jsonl.clone());
        tracer.attach(bin.clone());
        tracer.emit(TraceEvent::AttackPhase {
            time: Instant::from_micros(40),
            label: "ploc_hold",
        });
        let scoped = tracer.scoped(3);
        scoped.emit(TraceEvent::LinkDropped {
            time: Instant::from_micros(99),
            reason: "detach",
        });
        // Decoding the binary buffer reproduces the JSONL buffer exactly.
        let bytes = bin.contents();
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let mut rebuilt = String::new();
        while let Some(frame) = reader.next_frame().expect("well-formed") {
            frame.render_jsonl(&mut rebuilt);
            rebuilt.push('\n');
        }
        assert_eq!(rebuilt, jsonl.contents());
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
        let flood = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{}", "[".repeat(1 << 20));
        let err = Frame::from_jsonl(&flood).expect_err("too deep");
        assert!(err.contains("64 levels"), "{err}");
        for bad in [
            "{\"t\":7,\"ev\":\"attack_phase\",\"label\":\"\\u+041\"}",
            "{\"t\":-,\"ev\":\"attack_phase\",\"label\":\"x\"}",
        ] {
            assert!(Frame::from_jsonl(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_reuses_its_payload_buffer() {
        let mut writer = FrameWriter::new(Vec::new()).expect("vec write");
        for frame in sample_frames() {
            writer.write_frame(&frame).expect("vec write");
        }
        let bytes = writer.finish().expect("vec flush");
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
        let mut writer = FrameWriter::new(Vec::new()).expect("vec write");
        for frame in sample_frames() {
            writer.write_frame(&frame).expect("vec write");
        }
        let bytes = writer.finish().expect("vec flush");
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
        let frame = Frame {
            t: 7,
            dev: None,
            kind: FrameKind::AttackPhase {
                label: "x".to_owned(),
            },
        };
        let mut payload = Vec::new();
        frame.encode_payload(&mut payload);
        payload.push(0); // one stray byte inside the declared length
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        let mut reader = FrameReader::new(&bytes[..]).expect("magic");
        let err = reader.next_frame().expect_err("stray byte must error");
        assert!(err.message.contains("trailing"), "{err}");
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
