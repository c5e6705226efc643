//! Single-pass streaming trace analysis: the constant-memory core the
//! batch [`crate::analyze`] tier is a thin wrapper over.
//!
//! [`StreamAnalyzer`] consumes a trace one line (or one typed
//! [`TraceEvent`]) at a time and keeps state **per in-flight trial only**:
//! a segment's span table, its LMP send/recv ledgers, link drops and
//! keystore mutations. The moment a segment boundary arrives — a
//! `unit_start` marker, or a root `trial` span opening while a trial is
//! already open — the finished segment is *retired*: its invariant checks
//! run, its spans fold into the phase profile, and its buffered state is
//! cleared (the ledgers keep their capacity for the next trial). Memory
//! is therefore bounded by the largest single trial, never by the
//! artifact length, which is what lets `blap-trace check` walk a
//! campaign-scale trace and lets invariant checking run *inside*
//! `blap::campaign` while trials execute.
//!
//! The analysis is deliberately deferred to retirement rather than run
//! eagerly per line: the batch analyzer's checks are whole-segment
//! (an `lmp_recv` may match a send that appears later in line order, and
//! `keystore-after-auth` consults the segment's full span table), so
//! retiring a segment and then checking it reproduces the batch reports
//! byte for byte. Unmatched `lmp_send` violations are emitted in artifact
//! line order.
//!
//! Two ingestion paths feed the same state machine and are pinned
//! equivalent in tests:
//!
//! * [`StreamAnalyzer::push_line`] — scans one JSONL artifact line in
//!   place (no per-line tree; see [`crate::json`]).
//! * [`StreamAnalyzer::push_event`] — consumes a typed [`TraceEvent`]
//!   directly (no render/parse round trip), the campaign hot path. The
//!   [`StreamSink`] adapter attaches it to a [`crate::trace::Tracer`].
//!
//! [`ViolationSummary`] is the bounded-memory aggregate the campaign
//! engine merges in shard order: per-invariant counts plus a capped list
//! of example violations, with a deterministic JSON form for checkpoints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::analyze::{AnalyzeError, PhaseProfile, TraceAnalysis, Violation, LMP_LATENCY_US};
use crate::binfmt;
use crate::json::{self, DecodeError, Fault, Field, Layout, Scalar, Value, Writer};
use crate::trace::{TraceEvent, TraceSink};

/// A reconstructed span within the in-flight segment.
#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    dev: Option<u32>,
    open_t: u64,
    open_line: usize,
    /// The `detail` qualifier from the open line (`None` when absent).
    detail: Option<String>,
    close: Option<(u64, String)>,
    close_line: Option<usize>,
}

/// One `lmp_send`, condensed to what the matching consumes.
#[derive(Clone, Debug)]
struct SendRec {
    pdu: String,
    t: u64,
    line_no: usize,
    /// Whether a matching `lmp_recv` consumed it (set at retirement).
    received: bool,
}

/// One keystore mutation, condensed to what the checks consume.
#[derive(Clone, Debug)]
struct KeystoreRec {
    action: String,
    dev: Option<u32>,
    t: u64,
    line_no: usize,
}

/// Buffered state for the one in-flight segment — everything the
/// whole-segment checks need, and nothing else (scheduler dispatch and
/// HCI seam lines, the bulk of a trace, contribute only to `last_t`).
#[derive(Debug, Default)]
struct SegState {
    /// Whether any line landed in this segment yet.
    non_empty: bool,
    spans: BTreeMap<u64, SpanRec>,
    /// `lmp_send` ledger in artifact order.
    sends: Vec<SendRec>,
    /// `lmp_recv` ledger in artifact order: `(pdu, t, line_no)`.
    recvs: Vec<(String, u64, usize)>,
    /// `link_drop` timestamps.
    drops: Vec<u64>,
    /// Whether any page race in this segment went to the attacker — the
    /// second win path `blocking-implies-win` accepts (a user whose
    /// pairing delay undercuts the attacker's PLOC page can still lose
    /// the page race itself).
    race_won: bool,
    /// `page_connect` ledger: `(responder device, link-registration
    /// time)`. The registration time is the event's `t` plus its page
    /// latency — `page_connect` is stamped when the page *resolves*, but
    /// the link only exists once delivery lands.
    page_connects: Vec<(u64, u64)>,
    /// Keystore mutations in artifact order.
    keystores: Vec<KeystoreRec>,
    /// Max timestamp over every line in the segment (the world deadline).
    last_t: u64,
}

impl SegState {
    /// Empties the segment for the next one. The ledgers keep their
    /// capacity: trials in one trace are alike, so after the first they
    /// rarely need to grow.
    fn clear(&mut self) {
        let SegState {
            non_empty,
            spans,
            sends,
            recvs,
            drops,
            race_won,
            page_connects,
            keystores,
            last_t,
        } = self;
        *non_empty = false;
        spans.clear();
        sends.clear();
        recvs.clear();
        drops.clear();
        *race_won = false;
        page_connects.clear();
        keystores.clear();
        *last_t = 0;
    }
}

/// Every member [`StreamAnalyzer::push_line`] reads.
const LINE_KEYS: [&str; 13] = [
    "t",
    "dev",
    "ev",
    "span",
    "parent",
    "name",
    "detail",
    "status",
    "pdu",
    "attacker_won",
    "responder",
    "latency_us",
    "action",
];

/// The per-line fields the state machine consumes, extracted once from
/// either a scanned JSONL line or a typed event.
pub(crate) struct LineView<'a> {
    line_no: usize,
    t: u64,
    dev: Option<u32>,
    kind: LineKind<'a>,
}

enum LineKind<'a> {
    UnitStart,
    SpanOpen {
        id: Option<u64>,
        parent_absent: bool,
        name: Option<&'a str>,
        detail: Option<&'a str>,
    },
    SpanClose {
        id: Option<u64>,
        status: &'a str,
    },
    LmpSend {
        pdu: Option<&'a str>,
    },
    LmpRecv {
        pdu: Option<&'a str>,
    },
    LinkDrop,
    Race {
        attacker_won: bool,
    },
    PageConnect {
        responder: Option<u64>,
        latency_us: Option<u64>,
    },
    Keystore {
        action: &'a str,
    },
    Other,
}

impl LineView<'_> {
    /// Whether this line is a root `trial` span open — the segment
    /// boundary rule shared with the batch analyzer: name must be
    /// `"trial"` and the `parent` key absent (the span id itself is not
    /// required, matching the historical segmentation).
    fn is_root_trial(&self) -> bool {
        matches!(
            self.kind,
            LineKind::SpanOpen {
                parent_absent: true,
                name: Some("trial"),
                ..
            }
        )
    }
}

/// Reads one raw line (numbered `line_no`) for the analyzer and for
/// [`crate::TraceDiff`], so both refuse the same lines with the same
/// errors, and hands its fields to `view`; `Ok(None)` for a blank line.
pub(crate) fn scan_line<T>(
    raw: &str,
    line_no: usize,
    view: impl FnOnce(LineView<'_>) -> T,
) -> Result<Option<T>, AnalyzeError> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    let decode = |err: DecodeError| AnalyzeError {
        line: line_no,
        message: err.to_string(),
    };
    if raw.len() > binfmt::MAX_EVENT_BYTES {
        return Err(decode(DecodeError::new(
            "",
            Fault::TooLong(binfmt::MAX_EVENT_BYTES),
        )));
    }
    let fields = json::scan_fields(raw, &LINE_KEYS).map_err(decode)?;
    let str_field = |key: &str| fields.get(key).and_then(Scalar::as_str);
    let u64_field = |key: &str| fields.get(key).and_then(Scalar::as_u64);
    let t = fields
        .require("t", "a u64", Scalar::as_u64)
        .map_err(decode)?;
    let ev = fields
        .require("ev", "a string", Scalar::as_str)
        .map_err(decode)?;
    // Device ids are u32 everywhere else in the pipeline; a larger
    // value is a corrupt or forged line, and truncating it would
    // silently attribute the event to an unrelated device.
    let dev = u64_field("dev")
        .map(|d| {
            u32::try_from(d).map_err(|_| {
                decode(DecodeError::new(
                    "dev",
                    Fault::Invalid(format!("value {d} exceeds the u32 device-id range")),
                ))
            })
        })
        .transpose()?;
    let kind = match ev {
        "unit_start" => LineKind::UnitStart,
        "span_open" => LineKind::SpanOpen {
            id: u64_field("span"),
            parent_absent: fields.get("parent").is_none(),
            name: str_field("name"),
            detail: str_field("detail"),
        },
        "span_close" => LineKind::SpanClose {
            id: u64_field("span"),
            status: str_field("status").unwrap_or(""),
        },
        "lmp_send" => LineKind::LmpSend {
            pdu: str_field("pdu"),
        },
        "lmp_recv" => LineKind::LmpRecv {
            pdu: str_field("pdu"),
        },
        "link_drop" => LineKind::LinkDrop,
        "race" => LineKind::Race {
            attacker_won: fields.get("attacker_won").and_then(Scalar::as_bool) == Some(true),
        },
        "page_connect" => LineKind::PageConnect {
            responder: u64_field("responder"),
            latency_us: u64_field("latency_us"),
        },
        "keystore" => LineKind::Keystore {
            action: str_field("action").unwrap_or(""),
        },
        // Only the kinds the state machine skips pay the schema lookup.
        _ if binfmt::tag_of(ev).is_some() => LineKind::Other,
        _ => return Err(decode(binfmt::unknown_kind(ev))),
    };
    Ok(Some(view(LineView {
        line_no,
        t,
        dev,
        kind,
    })))
}

/// Single-pass streaming trace analyzer with constant memory per
/// in-flight trial. See the [module docs](self) for the memory model and
/// retirement rule.
#[derive(Debug, Default)]
pub struct StreamAnalyzer {
    /// 1-based number of raw lines seen (blank lines included), so
    /// [`AnalyzeError`]/[`Violation`] line numbers match the artifact.
    next_line_no: usize,
    /// Parsed (non-blank) lines consumed.
    line_count: usize,
    /// Segments already retired.
    segment_count: usize,
    /// Whether a root trial span opened in the current segment.
    trial_open_in_current: bool,
    seg: SegState,
    profile: PhaseProfile,
    violations: Vec<Violation>,
    notes: Vec<String>,
}

impl StreamAnalyzer {
    /// A fresh analyzer with no state.
    pub fn new() -> StreamAnalyzer {
        StreamAnalyzer::default()
    }

    /// Parsed (non-blank) lines consumed so far.
    pub fn lines_seen(&self) -> usize {
        self.line_count
    }

    /// Consumes one raw artifact line (blank lines are counted and
    /// skipped). Returns the parse error for a malformed line, for a line
    /// longer than [`binfmt::MAX_EVENT_BYTES`], or for an `ev` kind the
    /// BLAPTRC1 schema does not name (as `blap-trace convert` does);
    /// analyzer state is unchanged by a failed push except for the line
    /// counter, so a caller may report and stop.
    ///
    /// The line is scanned in place, never built into a [`Value`] tree:
    /// only the members the state machine reads are kept, borrowed from
    /// `raw`, and the first member of each name wins, as with
    /// [`Value::get`]. A line costs no allocation unless the segment keeps
    /// one of its strings (a span name, PDU, status or keystore action) or
    /// the line has a string escape.
    pub fn push_line(&mut self, raw: &str) -> Result<(), AnalyzeError> {
        self.next_line_no += 1;
        let counted = scan_line(raw, self.next_line_no, |view| self.ingest(&view))?;
        self.line_count += usize::from(counted.is_some());
        Ok(())
    }

    /// Consumes one typed event directly — the render/parse-free path the
    /// campaign engine uses. Equivalent to rendering the event as JSONL
    /// and calling [`StreamAnalyzer::push_line`] (pinned in tests), but
    /// it cannot fail: typed events are well-formed by construction.
    pub fn push_event(&mut self, device: Option<u32>, event: &TraceEvent) {
        self.next_line_no += 1;
        self.line_count += 1;
        let line_no = self.next_line_no;
        let t = event.time().as_micros();
        let kind = match event {
            TraceEvent::UnitStart { .. } => LineKind::UnitStart,
            TraceEvent::SpanOpen {
                span,
                parent,
                name,
                detail,
                ..
            } => LineKind::SpanOpen {
                id: Some(span.raw()),
                parent_absent: parent.is_none(),
                name: Some(name),
                detail: (!detail.is_empty()).then_some(detail.as_str()),
            },
            TraceEvent::SpanClose { span, status, .. } => LineKind::SpanClose {
                id: Some(span.raw()),
                status,
            },
            TraceEvent::LmpSend { pdu, .. } => LineKind::LmpSend { pdu: Some(pdu) },
            TraceEvent::LmpRecv { pdu, .. } => LineKind::LmpRecv { pdu: Some(pdu) },
            TraceEvent::LinkDropped { .. } => LineKind::LinkDrop,
            TraceEvent::RaceOutcome { attacker_won, .. } => LineKind::Race {
                attacker_won: *attacker_won,
            },
            TraceEvent::PageConnected {
                responder,
                latency_us,
                ..
            } => LineKind::PageConnect {
                responder: Some(u64::from(*responder)),
                latency_us: Some(*latency_us),
            },
            TraceEvent::KeystoreMutation { action, .. } => LineKind::Keystore { action },
            _ => LineKind::Other,
        };
        self.ingest(&LineView {
            line_no,
            t,
            dev: device,
            kind,
        });
    }

    /// Retires the final segment and returns the completed analysis.
    pub fn finish(mut self) -> TraceAnalysis {
        self.retire();
        TraceAnalysis {
            line_count: self.line_count,
            segment_count: self.segment_count,
            profile: self.profile,
            violations: self.violations,
            notes: self.notes,
        }
    }

    fn ingest(&mut self, line: &LineView<'_>) {
        let is_unit = matches!(line.kind, LineKind::UnitStart);
        let is_root_trial = line.is_root_trial();
        if is_unit || (is_root_trial && self.trial_open_in_current) {
            self.retire();
            self.trial_open_in_current = is_root_trial;
        } else if is_root_trial {
            self.trial_open_in_current = true;
        }
        self.absorb(line);
    }

    /// Folds one line into the in-flight segment's condensed state.
    fn absorb(&mut self, line: &LineView<'_>) {
        let seg = &mut self.seg;
        seg.non_empty = true;
        seg.last_t = seg.last_t.max(line.t);
        match &line.kind {
            LineKind::SpanOpen {
                id: Some(id),
                name: Some(name),
                detail,
                ..
            } => {
                if seg.spans.contains_key(id) {
                    self.violations.push(Violation {
                        invariant: "span-structure",
                        segment: self.segment_count,
                        line: Some(line.line_no),
                        message: format!("span {id} opened twice"),
                    });
                } else {
                    seg.spans.insert(
                        *id,
                        SpanRec {
                            name: (*name).to_owned(),
                            dev: line.dev,
                            open_t: line.t,
                            open_line: line.line_no,
                            detail: detail.map(str::to_owned),
                            close: None,
                            close_line: None,
                        },
                    );
                }
            }
            LineKind::SpanClose {
                id: Some(id),
                status,
            } => match seg.spans.get_mut(id) {
                None => self.violations.push(Violation {
                    invariant: "span-structure",
                    segment: self.segment_count,
                    line: Some(line.line_no),
                    message: format!("span {id} closed but never opened in this segment"),
                }),
                Some(span) if span.close.is_some() => self.violations.push(Violation {
                    invariant: "span-structure",
                    segment: self.segment_count,
                    line: Some(line.line_no),
                    message: format!("span {id} closed twice"),
                }),
                Some(span) => {
                    span.close = Some((line.t, (*status).to_owned()));
                    span.close_line = Some(line.line_no);
                }
            },
            LineKind::LmpSend { pdu: Some(pdu) } if *pdu != "LMP_detach" => {
                seg.sends.push(SendRec {
                    pdu: (*pdu).to_owned(),
                    t: line.t,
                    line_no: line.line_no,
                    received: false,
                });
            }
            LineKind::LmpRecv { pdu: Some(pdu) } if *pdu != "LMP_detach" => {
                seg.recvs.push(((*pdu).to_owned(), line.t, line.line_no));
            }
            LineKind::LinkDrop => seg.drops.push(line.t),
            LineKind::Race { attacker_won } => seg.race_won |= attacker_won,
            LineKind::PageConnect {
                responder: Some(responder),
                latency_us: Some(latency_us),
            } => seg
                .page_connects
                .push((*responder, line.t.saturating_add(*latency_us))),
            LineKind::PageConnect { .. } => {}
            LineKind::Keystore { action } => seg.keystores.push(KeystoreRec {
                action: (*action).to_owned(),
                dev: line.dev,
                t: line.t,
                line_no: line.line_no,
            }),
            _ => {}
        }
    }

    /// Retires the in-flight segment: folds its spans into the profile
    /// and runs the whole-segment invariant checks, in the same order the
    /// batch analyzer did, then clears all buffered state.
    fn retire(&mut self) {
        if !self.seg.non_empty {
            return;
        }
        let seg = &mut self.seg;
        let seg_idx = self.segment_count;
        self.segment_count += 1;

        for span in seg.spans.values() {
            let stats = self.profile.stats_mut(&span.name);
            match &span.close {
                Some((close_t, _)) => stats.durations.observe(close_t.saturating_sub(span.open_t)),
                None => stats.unclosed += 1,
            }
        }
        let unclosed = seg.spans.values().filter(|s| s.close.is_none()).count();
        if unclosed > 0 {
            self.notes.push(format!(
                "segment {seg_idx}: {unclosed} span(s) still open at segment end (world deadline)"
            ));
        }
        check_lmp_matching(seg_idx, seg, &mut self.violations);
        check_ploc_no_pairing(seg_idx, &seg.spans, &mut self.violations);
        check_keystore_after_auth(seg_idx, seg, &mut self.violations);
        check_blocking_implies_win(seg_idx, seg, &mut self.violations);
        seg.clear();
    }
}

fn check_lmp_matching(seg_idx: usize, seg: &mut SegState, violations: &mut Vec<Violation>) {
    // Multiset matching: a recv at (pdu, t) consumes a send at
    // (pdu, t - LMP_LATENCY_US), the latest line first; LMP_detach was
    // already filtered at ingest (supervision timeouts inject it on both
    // ends). Sorted by (pdu, t, line), each multiset is one run.
    let sends = &mut seg.sends;
    sends.sort_unstable_by(|a, b| (&a.pdu, a.t, a.line_no).cmp(&(&b.pdu, b.t, b.line_no)));
    for (pdu, t, line_no) in &seg.recvs {
        let send = t.checked_sub(LMP_LATENCY_US).and_then(|sent_t| {
            let key = |s: &SendRec| (s.pdu.as_str(), s.t).cmp(&(pdu.as_str(), sent_t));
            let start = sends.partition_point(|s| key(s).is_lt());
            let len = sends[start..].partition_point(|s| key(s).is_eq());
            sends[start..start + len]
                .iter_mut()
                .rev()
                .find(|s| !s.received)
        });
        match send {
            Some(send) => send.received = true,
            None => violations.push(Violation {
                invariant: "lmp-matching",
                segment: seg_idx,
                line: Some(*line_no),
                message: format!(
                    "lmp_recv of {pdu} at t={t} has no matching lmp_send at t={}",
                    t.saturating_sub(LMP_LATENCY_US)
                ),
            }),
        }
    }
    // Unmatched sends, in artifact line order.
    let mut unmatched: Vec<&SendRec> = sends.iter().filter(|s| !s.received).collect();
    unmatched.sort_unstable_by_key(|s| s.line_no);
    for send in unmatched {
        let in_flight_at_deadline = send.t + LMP_LATENCY_US > seg.last_t;
        let link_died = seg.drops.iter().any(|&drop_t| drop_t >= send.t);
        if !in_flight_at_deadline && !link_died {
            violations.push(Violation {
                invariant: "lmp-matching",
                segment: seg_idx,
                line: Some(send.line_no),
                message: format!(
                    "lmp_send of {} at t={} was never received, \
                     yet no link died and the world outlived the delivery",
                    send.pdu, send.t
                ),
            });
        }
    }
}

fn check_ploc_no_pairing(
    seg_idx: usize,
    spans: &BTreeMap<u64, SpanRec>,
    violations: &mut Vec<Violation>,
) {
    for span in spans.values() {
        if span.name != "host_pairing" {
            continue;
        }
        // A PLOC hold is "active" at the pairing span's open if it opened
        // earlier and had not closed yet — line order is event order within
        // a trial's single-threaded tracer.
        let held_during = spans.values().any(|p| {
            p.name == "ploc"
                && p.dev == span.dev
                && p.open_line < span.open_line
                && p.close_line.is_none_or(|cl| cl > span.open_line)
        });
        if held_during {
            violations.push(Violation {
                invariant: "ploc-no-pairing",
                segment: seg_idx,
                line: Some(span.open_line),
                message: format!(
                    "device {:?} holds a PLOC link but opened a host_pairing span",
                    span.dev
                ),
            });
        }
    }
}

fn check_keystore_after_auth(seg_idx: usize, seg: &SegState, violations: &mut Vec<Violation>) {
    for ks in &seg.keystores {
        if ks.action != "store" && ks.action != "remove" {
            continue; // "install" is the Fig. 10 attack: exempt by design.
        }
        let authed = seg
            .spans
            .values()
            .any(|s| s.name == "lmp_auth" && s.dev == ks.dev && s.open_t <= ks.t);
        if !authed {
            violations.push(Violation {
                invariant: "keystore-after-auth",
                segment: seg_idx,
                line: Some(ks.line_no),
                message: format!(
                    "keystore {} on device {:?} at t={} without a preceding lmp_auth span",
                    ks.action, ks.dev, ks.t
                ),
            });
        }
    }
}

fn check_blocking_implies_win(seg_idx: usize, seg: &SegState, violations: &mut Vec<Violation>) {
    let spans = &seg.spans;
    let Some(trial) = spans
        .values()
        .find(|s| s.name == "trial")
        .filter(|s| s.detail.as_deref() == Some("blocking"))
    else {
        return;
    };
    let trial_status = trial.close.as_ref().map(|(_, s)| s.as_str());
    // The attacker's PLOC link, and the victim pairing spans it overlaps.
    let plocs: Vec<&SpanRec> = spans.values().filter(|s| s.name == "ploc").collect();
    let blocked_pairing = |ploc: &SpanRec| {
        spans.values().any(|s| {
            s.name == "host_pairing"
                && s.dev != ploc.dev
                && s.open_t > ploc.open_t
                && ploc.close.as_ref().is_none_or(|(t, _)| *t >= s.open_t)
        })
    };
    let attacker_stole_key = |ploc: &SpanRec| {
        seg.keystores
            .iter()
            .any(|ks| ks.action == "store" && ks.dev == ploc.dev)
    };
    for ploc in &plocs {
        if blocked_pairing(ploc) && attacker_stole_key(ploc) && trial_status != Some("attacker_won")
        {
            violations.push(Violation {
                invariant: "blocking-implies-win",
                segment: seg_idx,
                line: Some(ploc.open_line),
                message: format!(
                    "PLOC link predates the victim's pairing and the attacker captured a \
                     link key, but the trial closed {trial_status:?} instead of attacker_won"
                ),
            });
        }
    }
    // The converse: an attacker_won verdict needs a mechanism — one of
    //  (a) a PLOC link blocking the victim's pairing (the classic attack);
    //  (b) an outright page-race win (a pairing delay shorter than the
    //      attacker's PLOC page leaves no PLOC to block with, yet the
    //      race can still go to the attacker);
    //  (c) a "late PLOC": a page that connects *onto* the victim device
    //      after its honest pairing already finished. The spoofed
    //      address routes the attacker's Connection_Complete to the real
    //      peer, so no `ploc` span ever opens — but the raw link is
    //      registered and, with no drop after its registration time,
    //      still stands at judgment.
    let victim = spans
        .values()
        .find(|s| s.name == "host_pairing")
        .and_then(|s| s.dev)
        .map(u64::from);
    let trial_close_t = trial.close.as_ref().map(|(t, _)| *t).unwrap_or(u64::MAX);
    let late_link_stands = seg.page_connects.iter().any(|&(responder, connect_t)| {
        Some(responder) == victim
            && connect_t <= trial_close_t
            && seg.drops.iter().all(|&drop_t| drop_t < connect_t)
    });
    if trial_status == Some("attacker_won")
        && !seg.race_won
        && !late_link_stands
        && !plocs.iter().any(|p| blocked_pairing(p))
    {
        violations.push(Violation {
            invariant: "blocking-implies-win",
            segment: seg_idx,
            line: Some(trial.open_line),
            message: "trial closed attacker_won but no PLOC link predates the victim's pairing, \
                      the attacker won no page race, and no surviving link onto the victim was \
                      established"
                .to_owned(),
        });
    }
}

/// A [`TraceSink`] adapter that feeds a [`StreamAnalyzer`] typed events
/// as they are emitted. Clone it before attaching to keep a handle for
/// [`StreamSink::finish`].
#[derive(Clone, Default)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamAnalyzer>>,
}

impl StreamSink {
    /// A sink over a fresh analyzer.
    pub fn new() -> StreamSink {
        StreamSink::default()
    }

    /// Retires the final segment and returns the analysis, resetting the
    /// shared analyzer to a fresh one.
    pub fn finish(&self) -> TraceAnalysis {
        std::mem::take(&mut *self.inner.lock().expect("stream sink lock")).finish()
    }
}

impl TraceSink for StreamSink {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        self.inner
            .lock()
            .expect("stream sink lock")
            .push_event(device, event);
    }
}

/// How many example violations a [`ViolationSummary`] retains. The cap
/// keeps campaign memory bounded; truncation keeps the earliest examples
/// (shard-merge order), so summaries are split-invariant.
pub const MAX_SUMMARY_EXAMPLES: usize = 16;

/// Bounded-memory aggregate of per-trial invariant checks — the
/// campaign-engine counterpart of a [`crate::metrics::Metrics`] bag:
/// per-shard summaries merge in shard-index order, so the result is
/// byte-identical at any worker count and across checkpoint/resume
/// splits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationSummary {
    /// Trials whose traces were checked.
    pub trials_checked: u64,
    /// Total violations across all checked trials.
    pub violations: u64,
    /// Violation counts keyed by invariant name.
    pub by_invariant: BTreeMap<String, u64>,
    /// Up to [`MAX_SUMMARY_EXAMPLES`] example violations, earliest first.
    pub examples: Vec<String>,
}

impl ViolationSummary {
    /// An empty summary.
    pub fn new() -> ViolationSummary {
        ViolationSummary::default()
    }

    /// Whether every checked trial passed every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Folds one checked trial in. `label` identifies the trial in
    /// example lines (e.g. `"trial 1234"`).
    pub fn record(&mut self, label: &str, analysis: &TraceAnalysis) {
        self.trials_checked += 1;
        for v in &analysis.violations {
            self.violations += 1;
            *self.by_invariant.entry(v.invariant.to_owned()).or_insert(0) += 1;
            if self.examples.len() < MAX_SUMMARY_EXAMPLES {
                self.examples.push(format!("{label}: {v}"));
            }
        }
    }

    /// Merges another summary in (commutative on the counts; the example
    /// list keeps the first [`MAX_SUMMARY_EXAMPLES`] in merge order, so
    /// merge summaries in shard-index order for determinism).
    pub fn merge(&mut self, other: &ViolationSummary) {
        self.trials_checked += other.trials_checked;
        self.violations += other.violations;
        for (inv, n) in &other.by_invariant {
            *self.by_invariant.entry(inv.clone()).or_insert(0) += n;
        }
        for example in &other.examples {
            if self.examples.len() >= MAX_SUMMARY_EXAMPLES {
                break;
            }
            self.examples.push(example.clone());
        }
    }

    /// Renders the deterministic human-readable report section.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "invariants: clean — 0 violations across {} checked trial(s)\n",
                self.trials_checked
            );
        }
        let mut out = format!(
            "invariants: {} violation(s) across {} checked trial(s)\n",
            self.violations, self.trials_checked
        );
        for (inv, n) in &self.by_invariant {
            let _ = writeln!(out, "  {inv}: {n}");
        }
        for example in &self.examples {
            let _ = writeln!(out, "  example {example}");
        }
        if self.violations > self.examples.len() as u64 {
            let _ = writeln!(
                out,
                "  ... {} more violation(s) not shown",
                self.violations - self.examples.len() as u64
            );
        }
        out
    }

    /// Renders the summary as a deterministic JSON object (fixed key
    /// order, sorted invariant names) for checkpoint embedding.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        json::object(&mut out, Layout::Compact, |w| self.write_members(w));
        out
    }

    /// Writes [`ViolationSummary::to_json`]'s members, for a document that
    /// embeds the summary.
    pub fn write_members(&self, w: &mut Writer) {
        w.u64("trials_checked", self.trials_checked);
        w.u64("violations", self.violations);
        w.object("by_invariant", Layout::Compact, |w| {
            for (inv, n) in &self.by_invariant {
                w.u64(inv, *n);
            }
        });
        w.array("examples", Layout::Compact, |w| {
            for example in &self.examples {
                w.str("", example);
            }
        });
    }

    /// Reconstructs a summary from the object [`ViolationSummary::to_json`]
    /// produced. Exact inverse: only what `to_json` renders is accepted.
    pub fn from_value(value: &Value) -> Result<ViolationSummary, DecodeError> {
        let summary = ViolationSummary::from_field(&value.field())?;
        value.check_rendering(&summary.to_json())?;
        Ok(summary)
    }

    /// Reads the members [`ViolationSummary::write_members`] wrote, for a
    /// document that embeds the summary (the checkpoint/resume reload
    /// path) and checks its own rendering.
    pub fn from_field(doc: &Field) -> Result<ViolationSummary, DecodeError> {
        let mut summary = ViolationSummary {
            trials_checked: doc.u64("trials_checked")?,
            violations: doc.u64("violations")?,
            ..ViolationSummary::default()
        };
        let by_invariant = doc.get("by_invariant")?;
        for (inv, n) in by_invariant.members()? {
            summary.by_invariant.insert(inv.to_owned(), n.as_u64()?);
        }
        let examples = doc.get("examples")?;
        for example in examples.items()? {
            summary.examples.push(example.as_str()?.to_owned());
        }
        if summary.examples.len() > MAX_SUMMARY_EXAMPLES {
            return Err(examples.error(Fault::Invalid(format!(
                "{} examples exceed the cap of {MAX_SUMMARY_EXAMPLES}",
                summary.examples.len()
            ))));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_trace;
    use crate::trace::Tracer;
    use blap_types::Instant;

    fn addr() -> blap_types::BdAddr {
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address")
    }

    /// Emits a representative multi-trial event stream through a tracer
    /// wired to both a JSONL buffer and a stream sink.
    fn emit_sample(tracer: &Tracer) {
        for unit in 0..3u64 {
            tracer.emit(TraceEvent::UnitStart {
                unit,
                label: "trial_pair",
            });
            let trial = tracer.open_root_span(Instant::EPOCH, "trial", "blocking");
            let scoped = tracer.scoped(2);
            scoped.emit(TraceEvent::LmpSend {
                time: Instant::from_micros(100),
                peer: addr(),
                pdu: "LMP_au_rand",
            });
            scoped.emit(TraceEvent::LmpRecv {
                time: Instant::from_micros(1350),
                peer: addr(),
                pdu: "LMP_au_rand",
            });
            let auth = scoped.open_span(Instant::from_micros(1500), "lmp_auth", "");
            scoped.emit(TraceEvent::KeystoreMutation {
                time: Instant::from_micros(1600),
                peer: addr(),
                action: "store",
            });
            scoped.close_span(Instant::from_micros(1700), auth, "ok");
            tracer.close_span(Instant::from_micros(5000), trial, "attacker_lost");
        }
    }

    #[test]
    fn push_event_matches_push_line() {
        let tracer = Tracer::new();
        let jsonl = crate::trace::JsonlBuffer::new();
        let sink = StreamSink::new();
        tracer.attach(jsonl.clone());
        tracer.attach(sink.clone());
        emit_sample(&tracer);
        let from_events = sink.finish();
        let from_lines = analyze_trace(&jsonl.contents()).expect("rendered trace parses");
        assert_eq!(from_events.report(), from_lines.report());
        assert_eq!(from_events.profile.render(), from_lines.profile.render());
        assert_eq!(from_events.line_count, from_lines.line_count);
        assert_eq!(from_events.segment_count, from_lines.segment_count);
        assert_eq!(from_events.violations, from_lines.violations);
    }

    #[test]
    fn stream_sink_finish_resets() {
        let tracer = Tracer::new();
        let sink = StreamSink::new();
        tracer.attach(sink.clone());
        emit_sample(&tracer);
        let first = sink.finish();
        assert_eq!(first.segment_count, 3);
        let empty = sink.finish();
        assert_eq!(empty.line_count, 0);
        assert_eq!(empty.segment_count, 0);
    }

    #[test]
    fn incremental_pushes_match_batch_analysis() {
        // A torn-up trace pushed line by line must equal the batch result,
        // including a violation (recv with no send) in the middle trial.
        let text = "\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":0,\"label\":\"x\"}\n\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
{\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_lost\"}\n\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":1,\"label\":\"x\"}\n\
{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_au_rand\"}\n\
\n\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":2,\"label\":\"x\"}\n\
{\"t\":9,\"dev\":0,\"ev\":\"span_open\",\"span\":7,\"name\":\"page\"}\n";
        let batch = analyze_trace(text).expect("parses");
        let mut streaming = StreamAnalyzer::new();
        for line in text.lines() {
            streaming.push_line(line).expect("parses");
        }
        let streaming = streaming.finish();
        assert_eq!(streaming.report(), batch.report());
        assert_eq!(streaming.violations, batch.violations);
        assert_eq!(streaming.notes, batch.notes);
        assert_eq!(streaming.segment_count, 3);
        assert_eq!(streaming.violations.len(), 1);
    }

    #[test]
    fn unmatched_sends_report_in_line_order() {
        // Three unmatched sends whose (pdu, t) order is not their line
        // order; the violations must still come out in artifact order.
        let text = "\
{\"t\":100,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_zulu\"}\n\
{\"t\":200,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_alpha\"}\n\
{\"t\":300,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_mike\"}\n\
{\"t\":99999,\"ev\":\"attack_phase\",\"label\":\"end\"}\n";
        for _ in 0..16 {
            let a = analyze_trace(text).expect("parses");
            let lines: Vec<usize> = a.violations.iter().map(|v| v.line.unwrap()).collect();
            assert_eq!(lines, vec![1, 2, 3], "{}", a.report());
        }
    }

    #[test]
    fn failed_push_does_not_corrupt_state() {
        let mut s = StreamAnalyzer::new();
        s.push_line(
            "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}",
        )
        .expect("valid line");
        let err = s.push_line("{torn").expect_err("malformed line errors");
        assert_eq!(err.line, 2);
        // The analyzer is still usable and line numbering still advances.
        s.push_line("{\"t\":10,\"ev\":\"span_close\",\"span\":1,\"status\":\"done\"}")
            .expect("valid line");
        let a = s.finish();
        assert_eq!(a.line_count, 2);
        assert!(a.ok(), "{}", a.report());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let line = format!("{{\"t\":1,\"ev\":\"x\",\"a\":{}", "[".repeat(1 << 16));
        let mut s = StreamAnalyzer::new();
        let err = s.push_line(&line).expect_err("too deep");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("64 levels"), "{err}");
        let err = s.push_line(&"[".repeat(1 << 16)).expect_err("too deep");
        assert_eq!(err.line, 2);
        // Past the one size limit, a line is refused before it is scanned.
        let err = s
            .push_line(&"[".repeat(binfmt::MAX_EVENT_BYTES + 1))
            .expect_err("too long");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("1048576-byte limit"), "{err}");
        assert_eq!(s.finish().line_count, 0);
    }

    #[test]
    fn escaped_fields_read_as_their_unescaped_text() {
        // `\u0074` is `t`, `\u005f` is `_`: escapes change the spelling,
        // never the meaning, so this is an ordinary LMP exchange.
        let text = "\
{\"\\u0074\":100,\"dev\":0,\"ev\":\"lmp\\u005fsend\",\"pdu\":\"LMP_au\\u005frand\"}\n\
{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"pdu\":\"LMP_au_rand\"}\n\
{\"t\":99999,\"ev\":\"attack_phase\"}\n";
        let a = analyze_trace(text).expect("parses");
        assert!(a.ok(), "{}", a.report());
        // The same pair with the send's PDU spelled differently does not
        // match — proof the escaped fields were read, not dropped.
        let mismatched = text.replace("au\\u005frand", "au\\u005fother");
        assert_eq!(
            analyze_trace(&mismatched).expect("parses").violations.len(),
            2
        );
    }

    #[test]
    fn first_member_of_a_name_wins() {
        // As with `Value::get`: a later duplicate never overrides, even
        // when the first one has the wrong type.
        let mut s = StreamAnalyzer::new();
        s.push_line("{\"t\":5,\"t\":\"x\",\"ev\":\"attack_phase\"}")
            .expect("first t is an integer");
        let err = s
            .push_line("{\"t\":\"x\",\"t\":5,\"ev\":\"attack_phase\"}")
            .expect_err("first t is a string");
        assert!(err.message.contains("t: not a u64"), "{err}");
    }

    #[test]
    fn violation_summary_records_and_renders() {
        let clean = analyze_trace("").expect("parses");
        let dirty = analyze_trace(
            "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n",
        )
        .expect("parses");
        let mut summary = ViolationSummary::new();
        summary.record("trial 0", &clean);
        assert!(summary.is_clean());
        assert!(summary.render().starts_with("invariants: clean"));
        summary.record("trial 1", &dirty);
        assert!(!summary.is_clean());
        assert_eq!(summary.trials_checked, 2);
        assert_eq!(summary.violations, 1);
        assert_eq!(summary.by_invariant.get("keystore-after-auth"), Some(&1));
        let text = summary.render();
        assert!(text.contains("keystore-after-auth: 1"), "{text}");
        assert!(text.contains("example trial 1: "), "{text}");
    }

    #[test]
    fn violation_summary_merge_caps_examples_prefix_stable() {
        let dirty = analyze_trace(
            "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n",
        )
        .expect("parses");
        // 3 shards × 10 violating trials: a straight fold and a split
        // merge must produce identical summaries (prefix-stable cap).
        let shard = |base: u64| {
            let mut s = ViolationSummary::new();
            for i in 0..10 {
                s.record(&format!("trial {}", base + i), &dirty);
            }
            s
        };
        let mut straight = ViolationSummary::new();
        straight.merge(&shard(0));
        straight.merge(&shard(10));
        straight.merge(&shard(20));
        let mut split = shard(0);
        let mut rest = shard(10);
        rest.merge(&shard(20));
        split.merge(&rest);
        assert_eq!(straight, split);
        assert_eq!(straight.examples.len(), MAX_SUMMARY_EXAMPLES);
        assert_eq!(straight.violations, 30);
        assert!(straight.render().contains("14 more violation(s)"));
    }

    #[test]
    fn violation_summary_json_round_trips() {
        let dirty = analyze_trace(
            "{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"bb:bb:bb:bb:bb:bb\",\"pdu\":\"LMP\\\"quote\"}\n",
        )
        .expect("parses");
        let mut summary = ViolationSummary::new();
        summary.record("trial \"7\"", &dirty);
        let json = summary.to_json();
        let value = crate::json::parse(&json).expect("own rendering parses");
        let reloaded = ViolationSummary::from_value(&value).expect("round trips");
        assert_eq!(reloaded, summary);
        assert_eq!(reloaded.to_json(), json, "byte-exact round trip");
        // Empty summaries round-trip too.
        let empty = ViolationSummary::new();
        let value = crate::json::parse(&empty.to_json()).expect("parses");
        assert_eq!(ViolationSummary::from_value(&value).expect("parses"), empty);
    }
}
