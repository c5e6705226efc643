//! Structured tracing: typed events, sinks, and the flight recorder.
//!
//! Events are stamped with **virtual** time ([`Instant`]) at the emission
//! site, never with wall-clock time, so a trace is a pure function of the
//! world seed: byte-identical across runs, machines, and worker counts.
//! The [`Tracer`] handle is cheap to clone and cheap to ignore — a disabled
//! tracer is one `Option` discriminant check per call site.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use blap_types::{BdAddr, Instant};

use crate::json::{escape_into, push_u64};
use crate::span::{SpanId, SpanState};

/// One typed trace event.
///
/// Variants mirror the seams the BLAP attacks are diagnosed from: the
/// scheduler, the baseband page/scan machinery, the LMP channel, the HCI
/// transport, the bond store, and the attack drivers themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The world scheduler dispatched one queued event.
    SchedulerDispatch {
        /// Virtual dispatch time.
        time: Instant,
        /// Scheduling sequence number (tiebreaker order).
        seq: u64,
        /// Event kind name.
        kind: &'static str,
    },
    /// A device started paging a target address.
    PageStarted {
        /// Virtual time.
        time: Instant,
        /// Paged (claimed) address.
        target: BdAddr,
    },
    /// A page resolved to a responder.
    PageConnected {
        /// Virtual time of resolution.
        time: Instant,
        /// Paged address.
        target: BdAddr,
        /// Winning responder's device index.
        responder: u32,
        /// Sampled page latency in microseconds.
        latency_us: u64,
        /// Whether two listeners raced for the page.
        raced: bool,
    },
    /// A page found no responder and will time out.
    PageTimeout {
        /// Virtual time.
        time: Instant,
        /// Paged address.
        target: BdAddr,
    },
    /// Outcome of a two-listener page race (the Table II baseline event).
    RaceOutcome {
        /// Virtual time.
        time: Instant,
        /// Raced address.
        target: BdAddr,
        /// Whether the spoofing attacker won.
        attacker_won: bool,
    },
    /// A controller's scan state changed.
    ScanTransition {
        /// Virtual time.
        time: Instant,
        /// New page-scan state.
        page_scan: bool,
        /// New inquiry-scan state.
        inquiry_scan: bool,
    },
    /// An LMP PDU was queued for the peer.
    LmpSend {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
        /// PDU name.
        pdu: &'static str,
    },
    /// An LMP PDU arrived from the peer.
    LmpRecv {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
        /// PDU name.
        pdu: &'static str,
    },
    /// An LMP procedure died by response timeout (the §IV-C extraction
    /// primitive: disconnect *without* authentication failure).
    LmpTimeout {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
    },
    /// A packet crossed the HCI seam of a device.
    HciSeam {
        /// Virtual time.
        time: Instant,
        /// `"sent"` (host→controller) or `"received"`.
        direction: &'static str,
        /// Packet kind: `"command"`, `"event"` or `"acl"`.
        kind: &'static str,
        /// Command/event name (`"acl"` packets carry the handle instead).
        name: &'static str,
    },
    /// A link died (supervision timeout, detach).
    LinkDropped {
        /// Virtual time.
        time: Instant,
        /// Why the link dropped.
        reason: &'static str,
    },
    /// The bond store changed.
    KeystoreMutation {
        /// Virtual time.
        time: Instant,
        /// Peer whose bond changed.
        peer: BdAddr,
        /// `"store"`, `"remove"` or `"install"` (attacker-planted).
        action: &'static str,
    },
    /// An attack driver crossed a phase boundary.
    AttackPhase {
        /// Virtual time.
        time: Instant,
        /// Phase label (e.g. `"ploc_hold"`, `"fig9_drop_link_key_request"`).
        label: &'static str,
    },
    /// A non-fatal configuration or runtime warning.
    Warning {
        /// Virtual time (EPOCH for pre-simulation warnings).
        time: Instant,
        /// Human-readable message.
        message: String,
    },
    /// Marks the start of one experiment unit in a concatenated trace.
    UnitStart {
        /// Unit index within the experiment.
        unit: u64,
        /// Condition label (e.g. `"baseline"`, `"blocking"`).
        label: &'static str,
    },
    /// A causal span opened (see [`crate::span`]).
    SpanOpen {
        /// Virtual open time.
        time: Instant,
        /// Span identifier (unique within one unit's trace).
        span: SpanId,
        /// Enclosing span ([`SpanId::NONE`] for a root span).
        parent: SpanId,
        /// Span kind (`"trial"`, `"page"`, `"lmp_auth"`, `"host_pairing"`,
        /// `"ploc"`, `"hci_cmd"`).
        name: &'static str,
        /// Free-form qualifier (peer address, trial condition, command
        /// name); empty when the kind says it all.
        detail: String,
    },
    /// A causal span closed.
    SpanClose {
        /// Virtual close time.
        time: Instant,
        /// The span being closed.
        span: SpanId,
        /// Outcome (`"ok"`, `"timeout"`, `"failed"`, ...).
        status: &'static str,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp ([`Instant::EPOCH`] for unit markers).
    pub fn time(&self) -> Instant {
        match self {
            TraceEvent::SchedulerDispatch { time, .. }
            | TraceEvent::PageStarted { time, .. }
            | TraceEvent::PageConnected { time, .. }
            | TraceEvent::PageTimeout { time, .. }
            | TraceEvent::RaceOutcome { time, .. }
            | TraceEvent::ScanTransition { time, .. }
            | TraceEvent::LmpSend { time, .. }
            | TraceEvent::LmpRecv { time, .. }
            | TraceEvent::LmpTimeout { time, .. }
            | TraceEvent::HciSeam { time, .. }
            | TraceEvent::LinkDropped { time, .. }
            | TraceEvent::KeystoreMutation { time, .. }
            | TraceEvent::AttackPhase { time, .. }
            | TraceEvent::Warning { time, .. }
            | TraceEvent::SpanOpen { time, .. }
            | TraceEvent::SpanClose { time, .. } => *time,
            TraceEvent::UnitStart { .. } => Instant::EPOCH,
        }
    }

    /// Renders the event as one JSONL object (no trailing newline).
    ///
    /// Key order is fixed so output is byte-comparable. `device` is the
    /// emitting device's world index, when the tracer was scoped to one.
    pub fn render_jsonl(&self, device: Option<u32>, out: &mut String) {
        let line = LineWriter::open(out, self.time().as_micros(), device);
        match self {
            TraceEvent::SchedulerDispatch { seq, kind, .. } => {
                line.ev("dispatch").uint("seq", *seq).string("kind", kind)
            }
            TraceEvent::PageStarted { target, .. } => line.ev("page_start").addr("target", *target),
            TraceEvent::PageConnected {
                target,
                responder,
                latency_us,
                raced,
                ..
            } => line
                .ev("page_connect")
                .addr("target", *target)
                .uint("responder", u64::from(*responder))
                .uint("latency_us", *latency_us)
                .boolean("raced", *raced),
            TraceEvent::PageTimeout { target, .. } => {
                line.ev("page_timeout").addr("target", *target)
            }
            TraceEvent::RaceOutcome {
                target,
                attacker_won,
                ..
            } => line
                .ev("race")
                .addr("target", *target)
                .boolean("attacker_won", *attacker_won),
            TraceEvent::ScanTransition {
                page_scan,
                inquiry_scan,
                ..
            } => line
                .ev("scan")
                .boolean("page_scan", *page_scan)
                .boolean("inquiry_scan", *inquiry_scan),
            TraceEvent::LmpSend { peer, pdu, .. } => {
                line.ev("lmp_send").addr("peer", *peer).string("pdu", pdu)
            }
            TraceEvent::LmpRecv { peer, pdu, .. } => {
                line.ev("lmp_recv").addr("peer", *peer).string("pdu", pdu)
            }
            TraceEvent::LmpTimeout { peer, .. } => line.ev("lmp_timeout").addr("peer", *peer),
            TraceEvent::HciSeam {
                direction,
                kind,
                name,
                ..
            } => line
                .ev("hci")
                .string("dir", direction)
                .string("kind", kind)
                .string("name", name),
            TraceEvent::LinkDropped { reason, .. } => line.ev("link_drop").string("reason", reason),
            TraceEvent::KeystoreMutation { peer, action, .. } => line
                .ev("keystore")
                .addr("peer", *peer)
                .string("action", action),
            TraceEvent::AttackPhase { label, .. } => line.ev("attack_phase").string("label", label),
            TraceEvent::Warning { message, .. } => line.ev("warning").string("message", message),
            TraceEvent::UnitStart { unit, label, .. } => line
                .ev("unit_start")
                .uint("unit", *unit)
                .string("label", label),
            TraceEvent::SpanOpen {
                span,
                parent,
                name,
                detail,
                ..
            } => line
                .ev("span_open")
                .uint("span", span.raw())
                .opt_uint("parent", (!parent.is_none()).then(|| parent.raw()))
                .string("name", name)
                .opt_string("detail", (!detail.is_empty()).then_some(detail.as_str())),
            TraceEvent::SpanClose { span, status, .. } => line
                .ev("span_close")
                .uint("span", span.raw())
                .string("status", status),
        }
        .close();
    }
}

/// Writes one JSONL trace line without `fmt`: the fixed head
/// `{"t":…[,"dev":…]` on [`LineWriter::open`], then `"ev"` and one member
/// per call, and the closing `}` on [`LineWriter::close`]. Both
/// renderers — [`TraceEvent::render_jsonl`] and
/// [`crate::binfmt::Frame::render_jsonl`] — write through it, so their
/// bytes cannot drift apart.
pub(crate) struct LineWriter<'a>(&'a mut String);

impl<'a> LineWriter<'a> {
    /// Starts a line at virtual time `t` (µs).
    pub(crate) fn open(out: &'a mut String, t: u64, dev: Option<u32>) -> Self {
        out.push_str("{\"t\":");
        push_u64(out, t);
        if let Some(dev) = dev {
            out.push_str(",\"dev\":");
            push_u64(out, u64::from(dev));
        }
        LineWriter(out)
    }

    /// The event name, which every line carries right after its head.
    pub(crate) fn ev(self, name: &str) -> Self {
        self.0.push_str(",\"ev\":\"");
        self.0.push_str(name);
        self.0.push('"');
        self
    }

    fn key(&mut self, key: &str) {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
    }

    pub(crate) fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        push_u64(self.0, value);
        self
    }

    pub(crate) fn opt_uint(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(value) => self.uint(key, value),
            None => self,
        }
    }

    pub(crate) fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.0.push_str(if value { "true" } else { "false" });
        self
    }

    /// A string member, escaped.
    pub(crate) fn string(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.0.push('"');
        escape_into(value, self.0);
        self.0.push('"');
        self
    }

    pub(crate) fn opt_string(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(value) => self.string(key, value),
            None => self,
        }
    }

    /// An address member in its display form, `"aa:bb:cc:dd:ee:ff"`.
    fn addr(mut self, key: &str, addr: BdAddr) -> Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = [b':'; 17];
        for (i, byte) in addr.to_bytes().into_iter().enumerate() {
            text[3 * i] = HEX[usize::from(byte >> 4)];
            text[3 * i + 1] = HEX[usize::from(byte & 0xf)];
        }
        self.key(key);
        self.0.push('"');
        self.0
            .push_str(std::str::from_utf8(&text).expect("ASCII address"));
        self.0.push('"');
        self
    }

    pub(crate) fn close(self) {
        self.0.push('}');
    }
}

/// A consumer of trace events.
///
/// Sinks run under the tracer's lock, so implementations should be quick;
/// both provided sinks just append to an in-memory buffer.
pub trait TraceSink: Send {
    /// Records one event. `device` is the emitting device's world index
    /// when the tracer handle was scoped with [`Tracer::scoped`].
    fn record(&mut self, device: Option<u32>, event: &TraceEvent);
}

struct TracerShared {
    sinks: Mutex<Vec<Box<dyn TraceSink>>>,
    spans: Mutex<SpanState>,
}

/// A cloneable handle that fans events out to attached sinks.
///
/// The default handle is **disabled**: [`Tracer::emit`] is one `Option`
/// check and call sites guard event construction behind
/// [`Tracer::enabled`], so instrumented hot paths cost nothing measurable
/// when observability is off.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
    device: Option<u32>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("device", &self.device)
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer with no sinks yet (attach with [`Tracer::attach`]).
    pub fn new() -> Tracer {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                sinks: Mutex::new(Vec::new()),
                spans: Mutex::new(SpanState::new()),
            })),
            device: None,
        }
    }

    /// The disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events will reach any sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Attaches a sink; all clones of this tracer feed it from now on.
    ///
    /// No-op on a disabled tracer.
    pub fn attach<S: TraceSink + 'static>(&self, sink: S) {
        if let Some(shared) = &self.shared {
            shared
                .sinks
                .lock()
                .expect("tracer lock")
                .push(Box::new(sink));
        }
    }

    /// A clone scoped to one device index: events it emits are attributed
    /// to that device in rendered output.
    pub fn scoped(&self, device: usize) -> Tracer {
        Tracer {
            shared: self.shared.clone(),
            device: Some(device as u32),
        }
    }

    /// Emits one event to every attached sink.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(shared) = &self.shared {
            let mut sinks = shared.sinks.lock().expect("tracer lock");
            for sink in sinks.iter_mut() {
                sink.record(self.device, &event);
            }
        }
    }

    /// Opens a **root** span (a trial boundary): subsequent non-root spans
    /// opened through any clone of this tracer get it as their parent,
    /// until it is closed. Returns [`SpanId::NONE`] when disabled.
    pub fn open_root_span(&self, time: Instant, name: &'static str, detail: &str) -> SpanId {
        let Some(shared) = &self.shared else {
            return SpanId::NONE;
        };
        let span = {
            let mut spans = shared.spans.lock().expect("span lock");
            let span = spans.alloc();
            spans.set_root(span);
            span
        };
        self.emit(TraceEvent::SpanOpen {
            time,
            span,
            parent: SpanId::NONE,
            name,
            detail: detail.to_owned(),
        });
        span
    }

    /// Opens a span parented to the current root (or parentless when no
    /// root is open). Returns [`SpanId::NONE`] when disabled.
    pub fn open_span(&self, time: Instant, name: &'static str, detail: &str) -> SpanId {
        let Some(shared) = &self.shared else {
            return SpanId::NONE;
        };
        let (span, parent) = {
            let mut spans = shared.spans.lock().expect("span lock");
            (spans.alloc(), spans.root())
        };
        self.emit(TraceEvent::SpanOpen {
            time,
            span,
            parent,
            name,
            detail: detail.to_owned(),
        });
        span
    }

    /// Closes a span with an outcome status. No-op for [`SpanId::NONE`]
    /// (the disabled-tracer return value), so call sites need no guards.
    pub fn close_span(&self, time: Instant, span: SpanId, status: &'static str) {
        if span.is_none() {
            return;
        }
        if let Some(shared) = &self.shared {
            shared.spans.lock().expect("span lock").clear_root_if(span);
        }
        self.emit(TraceEvent::SpanClose { time, span, status });
    }
}

struct RecorderInner {
    capacity: usize,
    lines: VecDeque<String>,
    total: u64,
}

/// A fixed-capacity ring buffer of rendered events — the flight recorder.
///
/// Keeps the last `capacity` events; [`FlightRecorder::dump_on_assert`]
/// arms a guard that prints them when a test assertion (any panic) unwinds
/// through its scope, which turns "trial 17 failed" into the actual event
/// tail that led there.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                capacity: capacity.max(1),
                lines: VecDeque::new(),
                total: 0,
            })),
        }
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("recorder lock").total
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").lines.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last `n` rendered events, oldest first.
    pub fn last(&self, n: usize) -> Vec<String> {
        let inner = self.inner.lock().expect("recorder lock");
        let skip = inner.lines.len().saturating_sub(n);
        inner.lines.iter().skip(skip).cloned().collect()
    }

    /// A human-readable dump of the last `n` events.
    pub fn dump(&self, n: usize) -> String {
        let lines = self.last(n);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "--- flight recorder: last {} of {} events ---",
            lines.len(),
            self.total_recorded()
        );
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("--- end flight recorder ---");
        out
    }

    /// Arms a [`DumpOnAssert`] guard: if a panic (failed `assert!`)
    /// unwinds while the guard is alive, the last `n` events are printed
    /// to stderr alongside the assertion message.
    pub fn dump_on_assert(&self, n: usize) -> DumpOnAssert {
        DumpOnAssert {
            recorder: self.clone(),
            n,
        }
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        let mut line = String::with_capacity(64);
        event.render_jsonl(device, &mut line);
        let mut inner = self.inner.lock().expect("recorder lock");
        inner.total += 1;
        if inner.lines.len() == inner.capacity {
            inner.lines.pop_front();
        }
        inner.lines.push_back(line);
    }
}

/// Guard returned by [`FlightRecorder::dump_on_assert`]. On drop during a
/// panic it prints the recorder tail to stderr; on normal drop it is
/// silent.
pub struct DumpOnAssert {
    recorder: FlightRecorder,
    n: usize,
}

impl Drop for DumpOnAssert {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.recorder.dump(self.n));
        }
    }
}

/// A sink that appends rendered events as JSONL into a shared string
/// buffer. Clone it before attaching to keep a read handle.
#[derive(Clone, Default)]
pub struct JsonlBuffer {
    inner: Arc<Mutex<String>>,
}

impl JsonlBuffer {
    /// An empty buffer.
    pub fn new() -> JsonlBuffer {
        JsonlBuffer::default()
    }

    /// The accumulated JSONL text (one event per line).
    pub fn contents(&self) -> String {
        self.inner.lock().expect("jsonl lock").clone()
    }

    /// Whether any event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("jsonl lock").is_empty()
    }
}

impl TraceSink for JsonlBuffer {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        let mut buf = self.inner.lock().expect("jsonl lock");
        event.render_jsonl(device, &mut buf);
        buf.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> BdAddr {
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address")
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit(TraceEvent::AttackPhase {
            time: Instant::EPOCH,
            label: "noop",
        });
        // Attaching to a disabled tracer is a no-op, not a panic.
        tracer.attach(JsonlBuffer::new());
    }

    #[test]
    fn jsonl_buffer_renders_fixed_key_order() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        tracer.scoped(2).emit(TraceEvent::LmpSend {
            time: Instant::from_micros(1250),
            peer: addr(),
            pdu: "LMP_au_rand",
        });
        assert_eq!(
            buf.contents(),
            "{\"t\":1250,\"dev\":2,\"ev\":\"lmp_send\",\"peer\":\"cc:cc:cc:cc:cc:cc\",\"pdu\":\"LMP_au_rand\"}\n"
        );
    }

    #[test]
    fn warning_messages_are_escaped() {
        let mut out = String::new();
        TraceEvent::Warning {
            time: Instant::EPOCH,
            message: "quote \" slash \\ newline \n".to_owned(),
        }
        .render_jsonl(None, &mut out);
        assert_eq!(
            out,
            "{\"t\":0,\"ev\":\"warning\",\"message\":\"quote \\\" slash \\\\ newline \\n\"}"
        );
    }

    #[test]
    fn flight_recorder_keeps_last_n() {
        let tracer = Tracer::new();
        let recorder = FlightRecorder::new(3);
        tracer.attach(recorder.clone());
        for i in 0..10u64 {
            tracer.emit(TraceEvent::SchedulerDispatch {
                time: Instant::from_micros(i * 625),
                seq: i,
                kind: "TimerFire",
            });
        }
        assert_eq!(recorder.total_recorded(), 10);
        assert_eq!(recorder.len(), 3);
        let tail = recorder.last(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("\"seq\":8"), "{:?}", tail);
        assert!(tail[1].contains("\"seq\":9"), "{:?}", tail);
        assert!(recorder.dump(2).contains("last 2 of 10 events"));
    }

    #[test]
    fn dump_on_assert_silent_on_success() {
        let recorder = FlightRecorder::new(4);
        let _guard = recorder.dump_on_assert(4);
        // Dropping without a panic must not print or panic.
    }

    #[test]
    fn scoped_tracers_share_sinks() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let scoped = tracer.scoped(5);
        scoped.emit(TraceEvent::PageTimeout {
            time: Instant::from_micros(100),
            target: addr(),
        });
        tracer.emit(TraceEvent::PageStarted {
            time: Instant::from_micros(200),
            target: addr(),
        });
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dev\":5"));
        assert!(
            !lines[1].contains("\"dev\""),
            "unscoped line has no dev key"
        );
    }

    #[test]
    fn hostile_labels_cannot_break_jsonl_syntax() {
        // Regression: label fields used to be interpolated raw. A hostile
        // PDU/kind label must render as valid JSON that parses back to the
        // original string.
        let hostile = "pdu\",\"ev\":\"forged\u{1}\\";
        let mut out = String::new();
        TraceEvent::LmpSend {
            time: Instant::from_micros(625),
            peer: addr(),
            pdu: hostile,
        }
        .render_jsonl(Some(3), &mut out);
        let parsed = crate::json::parse(&out).expect("hostile label stays valid JSON");
        assert_eq!(parsed.get("ev").and_then(|v| v.as_str()), Some("lmp_send"));
        assert_eq!(parsed.get("pdu").and_then(|v| v.as_str()), Some(hostile));

        let mut out = String::new();
        TraceEvent::HciSeam {
            time: Instant::EPOCH,
            direction: "sent",
            kind: "command\"",
            name: "a\\b",
        }
        .render_jsonl(None, &mut out);
        let parsed = crate::json::parse(&out).expect("hostile hci labels stay valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(|v| v.as_str()),
            Some("command\"")
        );
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("a\\b"));
    }

    #[test]
    fn flight_recorder_wraparound_ordering_and_totals() {
        let recorder = FlightRecorder::new(4);
        let tracer = Tracer::new();
        tracer.attach(recorder.clone());
        for i in 0..11u64 {
            tracer.emit(TraceEvent::SchedulerDispatch {
                time: Instant::from_micros(i * 625),
                seq: i,
                kind: "TimerFire",
            });
        }
        // Capacity exceeded: only the last 4 survive, oldest first.
        assert_eq!(recorder.total_recorded(), 11);
        assert_eq!(recorder.len(), 4);
        let all = recorder.last(100);
        assert_eq!(all.len(), 4, "last(n > len) returns everything held");
        for (slot, seq) in all.iter().zip(7..=10u64) {
            assert!(slot.contains(&format!("\"seq\":{seq}")), "{all:?}");
        }
        let dump = recorder.dump(3);
        assert!(dump.contains("last 3 of 11 events"), "{dump}");
        let dumped: Vec<&str> = dump.lines().collect();
        assert_eq!(dumped.len(), 5, "header + 3 events + footer");
        assert!(dumped[1].contains("\"seq\":8"), "{dump}");
        assert!(dumped[3].contains("\"seq\":10"), "{dump}");
    }

    #[test]
    fn flight_recorder_zero_capacity_still_keeps_one() {
        // capacity == 0 is clamped to 1: the recorder never panics and
        // always holds the most recent event.
        let recorder = FlightRecorder::new(0);
        let tracer = Tracer::new();
        tracer.attach(recorder.clone());
        assert!(recorder.is_empty());
        for i in 0..3u64 {
            tracer.emit(TraceEvent::SchedulerDispatch {
                time: Instant::from_micros(i),
                seq: i,
                kind: "TimerFire",
            });
        }
        assert_eq!(recorder.total_recorded(), 3);
        assert_eq!(recorder.len(), 1);
        assert!(recorder.last(5)[0].contains("\"seq\":2"));
    }

    #[test]
    fn span_open_close_renders_fixed_key_order() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let trial = tracer.open_root_span(Instant::EPOCH, "trial", "baseline");
        let page =
            tracer
                .scoped(1)
                .open_span(Instant::from_micros(625), "page", "cc:cc:cc:cc:cc:cc");
        tracer
            .scoped(1)
            .close_span(Instant::from_micros(2500), page, "connected");
        tracer.close_span(Instant::from_micros(5000), trial, "done");
        assert_eq!(
            buf.contents(),
            "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
             {\"t\":625,\"dev\":1,\"ev\":\"span_open\",\"span\":2,\"parent\":1,\"name\":\"page\",\"detail\":\"cc:cc:cc:cc:cc:cc\"}\n\
             {\"t\":2500,\"dev\":1,\"ev\":\"span_close\",\"span\":2,\"status\":\"connected\"}\n\
             {\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"done\"}\n"
        );
    }

    #[test]
    fn span_parenting_follows_the_root() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let t1 = tracer.open_root_span(Instant::EPOCH, "trial", "baseline");
        tracer.close_span(Instant::from_micros(10), t1, "done");
        // After the root closes, a new span is parentless.
        let orphan = tracer.open_span(Instant::from_micros(20), "page", "");
        tracer.close_span(Instant::from_micros(30), orphan, "timeout");
        let t2 = tracer.open_root_span(Instant::from_micros(40), "trial", "blocking");
        let child = tracer.open_span(Instant::from_micros(50), "lmp_auth", "");
        tracer.close_span(Instant::from_micros(60), child, "ok");
        tracer.close_span(Instant::from_micros(70), t2, "done");
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[2].contains("parent"), "orphan has no parent: {text}");
        assert!(
            lines[5].contains(&format!("\"parent\":{}", t2.raw())),
            "child parented to second trial: {text}"
        );
    }

    #[test]
    fn disabled_tracer_spans_are_inert() {
        let tracer = Tracer::disabled();
        let span = tracer.open_root_span(Instant::EPOCH, "trial", "x");
        assert!(span.is_none());
        assert!(tracer.open_span(Instant::EPOCH, "page", "").is_none());
        tracer.close_span(Instant::EPOCH, span, "done"); // no panic
    }
}
