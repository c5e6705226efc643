//! Streaming ≡ batch analyzer equivalence properties.
//!
//! `analyze_trace` is a thin wrapper over `StreamAnalyzer`, but the
//! analyzer itself has three ingestion paths that can drift
//! independently: whole-artifact text, incremental `push_line`, and the
//! render-free typed `push_event` path the campaign engine drives. The
//! properties here generate interleaved multi-trial traces — matched and
//! orphaned LMP exchanges, nested spans, keystore mutations, races,
//! page connects, link drops — and pin all three paths to the same
//! violations, phase profile, and counts. A composition property checks
//! that segment retirement is history-free (analyzing two traces
//! back-to-back equals analyzing each alone), and a fault-injection
//! property checks that a torn final line fails the push without
//! corrupting everything already analyzed.
//!
//! A last property pins the in-place line scanner under `push_line`
//! against the tree parser: hostile spellings of trace lines (escaped
//! keys and values, duplicate keys, nested values, non-object documents,
//! non-u64 numbers, malformed JSON) must analyze exactly like the
//! canonical line `json::parse` + `Value::get` make of them.

use blap_obs::json::{self, Value};
use blap_obs::trace::TraceEvent;
use blap_obs::{analyze_trace, SpanId, StreamAnalyzer, TraceAnalysis};
use blap_types::{BdAddr, Instant};
use proptest::collection::vec;
use proptest::prelude::*;

/// Fixed vocabularies for the `&'static str` event fields. Hostile
/// strings are the binary-codec round-trip suite's territory; here the
/// point is structural interleaving.
const PDUS: &[&str] = &[
    "LMP_au_rand",
    "LMP_sres",
    "LMP_detach",
    "LMP_host_connection_req",
];
const SPAN_NAMES: &[&str] = &["page", "lmp_auth", "host_pairing", "ploc", "hci_cmd"];
const STATUSES: &[&str] = &["ok", "connected", "timeout", "status"];
const TRIAL_STATUSES: &[&str] = &["attacker_won", "attacker_lost"];
const ACTIONS: &[&str] = &["store", "remove", "install"];

fn addr(i: u8) -> BdAddr {
    format!("00:11:22:33:44:{i:02x}")
        .parse()
        .expect("valid address")
}

/// One generated instruction; the builder expands these into timed,
/// span-id-allocated trace events.
#[derive(Clone, Debug)]
enum Op {
    /// `lmp_send`, optionally matched by an `lmp_recv` one LMP latency
    /// later (an unmatched send exercises the lmp-matching checker).
    Lmp {
        dev: u32,
        pdu: usize,
        matched: bool,
    },
    /// Child span open (and optional close) under the current trial.
    Span {
        dev: u32,
        name: usize,
        status: Option<usize>,
    },
    Keystore {
        dev: u32,
        action: usize,
    },
    Race {
        dev: u32,
        attacker_won: bool,
    },
    PageConnect {
        dev: u32,
        responder: u32,
        latency_us: u64,
    },
    LinkDrop,
    Hci {
        dev: u32,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3u32, 0..PDUS.len(), any::<bool>()).prop_map(|(dev, pdu, matched)| Op::Lmp {
            dev,
            pdu,
            matched
        }),
        (
            0..3u32,
            0..SPAN_NAMES.len(),
            any::<bool>(),
            0..STATUSES.len()
        )
            .prop_map(|(dev, name, close, status)| Op::Span {
                dev,
                name,
                status: close.then_some(status),
            }),
        (0..3u32, 0..ACTIONS.len()).prop_map(|(dev, action)| Op::Keystore { dev, action }),
        (0..3u32, any::<bool>()).prop_map(|(dev, attacker_won)| Op::Race { dev, attacker_won }),
        (0..3u32, 0..3u32, 0..2_000_000u64).prop_map(|(dev, responder, latency_us)| {
            Op::PageConnect {
                dev,
                responder,
                latency_us,
            }
        }),
        Just(Op::LinkDrop),
        (0..3u32).prop_map(|dev| Op::Hci { dev }),
    ]
}

/// One trial segment: an optional `unit_start` marker, a root trial
/// span, interleaved ops, and an optional trial close.
#[derive(Clone, Debug)]
struct SegPlan {
    unit_marker: bool,
    blocking: bool,
    ops: Vec<Op>,
    close: Option<usize>,
}

fn seg_plan() -> impl Strategy<Value = SegPlan> {
    (
        any::<bool>(),
        any::<bool>(),
        vec(op(), 0..10),
        any::<bool>(),
        0..TRIAL_STATUSES.len(),
    )
        .prop_map(|(unit_marker, blocking, ops, closes, close)| SegPlan {
            unit_marker,
            blocking,
            ops,
            close: closes.then_some(close),
        })
}

/// Expands segment plans into a `(device, event)` stream with strictly
/// scheduled times and per-trace-unique span ids. `unit` and `span`
/// counters seed from the caller so two traces can be concatenated
/// without colliding ids (the analyzer must not care either way).
fn build(plans: &[SegPlan], mut unit: u64, mut span: u64) -> Vec<(Option<u32>, TraceEvent)> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for plan in plans {
        if plan.unit_marker {
            unit += 1;
            events.push((
                None,
                TraceEvent::UnitStart {
                    unit,
                    label: "trial_pair",
                },
            ));
        }
        span += 1;
        let trial = span;
        t += 1000;
        events.push((
            None,
            TraceEvent::SpanOpen {
                time: Instant::from_micros(t),
                span: SpanId::from_raw(trial),
                parent: SpanId::from_raw(0),
                name: "trial",
                detail: if plan.blocking {
                    "blocking"
                } else {
                    "baseline"
                }
                .to_owned(),
            },
        ));
        for op in &plan.ops {
            t += 625;
            match *op {
                Op::Lmp { dev, pdu, matched } => {
                    events.push((
                        Some(dev),
                        TraceEvent::LmpSend {
                            time: Instant::from_micros(t),
                            peer: addr(dev as u8 + 1),
                            pdu: PDUS[pdu],
                        },
                    ));
                    if matched {
                        events.push((
                            Some((dev + 1) % 3),
                            TraceEvent::LmpRecv {
                                time: Instant::from_micros(t + 1250),
                                peer: addr(dev as u8),
                                pdu: PDUS[pdu],
                            },
                        ));
                    }
                }
                Op::Span { dev, name, status } => {
                    span += 1;
                    events.push((
                        Some(dev),
                        TraceEvent::SpanOpen {
                            time: Instant::from_micros(t),
                            span: SpanId::from_raw(span),
                            parent: SpanId::from_raw(trial),
                            name: SPAN_NAMES[name],
                            detail: addr(dev as u8).to_string(),
                        },
                    ));
                    if let Some(status) = status {
                        events.push((
                            Some(dev),
                            TraceEvent::SpanClose {
                                time: Instant::from_micros(t + 625),
                                span: SpanId::from_raw(span),
                                status: STATUSES[status],
                            },
                        ));
                    }
                }
                Op::Keystore { dev, action } => events.push((
                    Some(dev),
                    TraceEvent::KeystoreMutation {
                        time: Instant::from_micros(t),
                        peer: addr(dev as u8 + 1),
                        action: ACTIONS[action],
                    },
                )),
                Op::Race { dev, attacker_won } => events.push((
                    Some(dev),
                    TraceEvent::RaceOutcome {
                        time: Instant::from_micros(t),
                        target: addr(dev as u8 + 1),
                        attacker_won,
                    },
                )),
                Op::PageConnect {
                    dev,
                    responder,
                    latency_us,
                } => events.push((
                    Some(dev),
                    TraceEvent::PageConnected {
                        time: Instant::from_micros(t),
                        target: addr(responder as u8),
                        responder,
                        latency_us,
                        raced: responder != dev,
                    },
                )),
                Op::LinkDrop => events.push((
                    None,
                    TraceEvent::LinkDropped {
                        time: Instant::from_micros(t),
                        reason: "supervision_timeout",
                    },
                )),
                Op::Hci { dev } => events.push((
                    Some(dev),
                    TraceEvent::HciSeam {
                        time: Instant::from_micros(t),
                        direction: "sent",
                        kind: "command",
                        name: "HCI_Create_Connection",
                    },
                )),
            }
        }
        if let Some(status) = plan.close {
            t += 625;
            events.push((
                None,
                TraceEvent::SpanClose {
                    time: Instant::from_micros(t),
                    span: SpanId::from_raw(trial),
                    status: TRIAL_STATUSES[status],
                },
            ));
        }
    }
    events
}

fn render(events: &[(Option<u32>, TraceEvent)]) -> String {
    let mut text = String::new();
    for (dev, event) in events {
        event.render_jsonl(*dev, &mut text);
        text.push('\n');
    }
    text
}

/// Full equality over everything `TraceAnalysis` reports.
fn assert_same(a: &TraceAnalysis, b: &TraceAnalysis) {
    assert_eq!(a.line_count, b.line_count);
    assert_eq!(a.segment_count, b.segment_count);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.notes, b.notes);
    assert_eq!(a.profile.render(), b.profile.render());
    assert_eq!(a.report(), b.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch text, per-line pushes, and typed events all yield the same
    /// analysis for arbitrary interleaved multi-trial traces.
    #[test]
    fn three_ingestion_paths_agree(plans in vec(seg_plan(), 1..5)) {
        let events = build(&plans, 0, 0);
        let text = render(&events);
        let batch = analyze_trace(&text).expect("canonical lines parse");

        let mut by_line = StreamAnalyzer::new();
        for line in text.lines() {
            by_line.push_line(line).expect("canonical line pushes");
        }
        assert_same(&batch, &by_line.finish());

        let mut by_event = StreamAnalyzer::new();
        for (dev, event) in &events {
            by_event.push_event(*dev, event);
        }
        assert_same(&batch, &by_event.finish());
    }

    /// Retirement is history-free: a trace analyzed after another trace
    /// (second one opening with a `unit_start` boundary) reports exactly
    /// the sum of the two independent analyses, with segment indices and
    /// line numbers shifted.
    #[test]
    fn segment_retirement_is_compositional(
        first in vec(seg_plan(), 1..4),
        second in vec(seg_plan(), 1..4),
    ) {
        let a = build(&first, 0, 0);
        // Force a boundary so the concatenation point is deterministic,
        // and seed counters past `a`'s so ids stay unique.
        let mut second = second;
        second[0].unit_marker = true;
        let b = build(&second, 100, 1000);

        let solo_a = analyze_trace(&render(&a)).expect("parses");
        let solo_b = analyze_trace(&render(&b)).expect("parses");
        let joint = analyze_trace(&format!("{}{}", render(&a), render(&b))).expect("parses");

        prop_assert_eq!(joint.line_count, solo_a.line_count + solo_b.line_count);
        prop_assert_eq!(joint.segment_count, solo_a.segment_count + solo_b.segment_count);
        prop_assert_eq!(
            joint.violations.len(),
            solo_a.violations.len() + solo_b.violations.len()
        );
        // The joint suffix must be `b`'s violations with reindexed
        // segments/lines; the prefix must be `a`'s verbatim.
        for (joint_v, solo_v) in joint.violations.iter().zip(&solo_a.violations) {
            prop_assert_eq!(joint_v, solo_v);
        }
        for (joint_v, solo_v) in joint.violations[solo_a.violations.len()..]
            .iter()
            .zip(&solo_b.violations)
        {
            prop_assert_eq!(joint_v.invariant, solo_v.invariant);
            prop_assert_eq!(joint_v.segment, solo_v.segment + solo_a.segment_count);
            prop_assert_eq!(joint_v.line, solo_v.line.map(|l| l + solo_a.line_count));
            prop_assert_eq!(&joint_v.message, &solo_v.message);
        }
        prop_assert_eq!(joint.profile.render(), {
            let mut merged = solo_a.profile.clone();
            merged.merge(&solo_b.profile);
            merged.render()
        });
    }

    /// A torn final line (the crash-truncation shape) errors instead of
    /// being half-absorbed: the analyzer still reports exactly what the
    /// intact prefix contained.
    #[test]
    fn torn_final_line_fails_without_corrupting_state(
        plans in vec(seg_plan(), 1..4),
        cut in 1usize..64,
    ) {
        let text = render(&build(&plans, 0, 0));
        let lines: Vec<&str> = text.lines().collect();
        let (intact, last) = lines.split_at(lines.len() - 1);
        let last = last[0];
        // A strict proper prefix of a canonical JSON object line is
        // always unbalanced, hence unparseable.
        prop_assume!(cut < last.len());
        let torn = &last[..cut];

        let mut analyzer = StreamAnalyzer::new();
        for line in intact {
            analyzer.push_line(line).expect("intact line pushes");
        }
        prop_assert!(analyzer.push_line(torn).is_err(), "torn line must fail");

        let mut clean = StreamAnalyzer::new();
        for line in intact {
            clean.push_line(line).expect("intact line pushes");
        }
        assert_same(&clean.finish(), &analyzer.finish());
    }
}

/// Every member `push_line` reads: all a canonical line keeps.
const ANALYZER_KEYS: &[&str] = &[
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

/// Timestamps: mostly schedule-like u64s (so LMP sends and receives can
/// pair up), some numbers that are valid JSON but not u64.
const TIMES: &[&str] = &[
    "0",
    "100",
    "1350",
    "2600",
    "5000",
    "-1",
    "1.0",
    "18446744073709551616",
    "1e3",
    "\"100\"",
];
const DEVS: &[Option<&str>] = &[
    None,
    Some("0"),
    Some("1"),
    Some("2"),
    Some("4294967295"),
    Some("4294967296"),
    Some("-1"),
    Some("\"2\""),
];
/// Replacement values for duplicated or overwritten members.
const ODD_VALUES: &[&str] = &[
    "\"x\"",
    "5",
    "true",
    "null",
    "[1]",
    "-1",
    "{\"k\":[null,{}]}",
    "\"LMP_au_rand\"",
];
/// Whole lines that are not an ordinary trace object.
const ODD_LINES: &[&str] = &[
    "",
    "   ",
    "\t \t",
    "[1]",
    "\"x\"",
    "5",
    "null",
    "{}",
    "{\"t\":1,\"ev\":\"x\",\"a\":\"\\u+041\"}",
    "{\"t\":1,\"ev\":\"x\",\"a\":-}",
    "{\"t\":1,\"ev\":\"x\",\"a\":1.2.3}",
    "{\"t\":007,\"ev\":\"x\"}",
    "{\"t\":1,\"ev\":\"x\"} trailing",
    "{\"t\":1,\"ev\":\"x\",}",
    "{\"t\":1,\"ev\":\"x\\q\"}",
];

/// The members of one trace-shaped line, before any hostile rewrite.
fn event_members(event: usize, span: u64, pick: usize) -> Vec<(String, String)> {
    let s = |v: &str| format!("\"{v}\"");
    let member = |k: &str, v: String| (k.to_owned(), v);
    match event {
        0 => vec![member("ev", s("unit_start")), member("unit", "0".into())],
        1 => vec![
            member("ev", s("span_open")),
            member("span", span.to_string()),
            member("name", s("trial")),
            member("detail", s(["blocking", "baseline"][pick % 2])),
        ],
        2 => vec![
            member("ev", s("span_open")),
            member("span", span.to_string()),
            member("parent", "1".into()),
            member("name", s(SPAN_NAMES[pick % SPAN_NAMES.len()])),
            member("detail", s("00:11:22:33:44:55")),
        ],
        3 => vec![
            member("ev", s("span_close")),
            member("span", span.to_string()),
            member("status", s([STATUSES, TRIAL_STATUSES].concat()[pick % 6])),
        ],
        4 | 5 => vec![
            member("ev", s(["lmp_send", "lmp_recv"][event - 4])),
            member("peer", s("00:11:22:33:44:55")),
            member("pdu", s(PDUS[pick % PDUS.len()])),
        ],
        6 => vec![member("ev", s("link_drop")), member("reason", s("detach"))],
        7 => vec![
            member("ev", s("race")),
            member("target", s("00:11:22:33:44:55")),
            member("attacker_won", ["true", "false"][pick % 2].into()),
        ],
        8 => vec![
            member("ev", s("page_connect")),
            member("target", s("00:11:22:33:44:55")),
            member("responder", (pick % 3).to_string()),
            member("latency_us", "1250".into()),
            member("raced", "false".into()),
        ],
        9 => vec![
            member("ev", s("keystore")),
            member("peer", s("00:11:22:33:44:55")),
            member("action", s(ACTIONS[pick % ACTIONS.len()])),
        ],
        10 => vec![
            member("ev", s("hci")),
            member("dir", s("sent")),
            member("kind", s("command")),
            member("name", s("HCI_Create_Connection")),
        ],
        _ => vec![
            member("ev", s("dispatch")),
            member("seq", pick.to_string()),
            member("kind", s("TimerFire")),
        ],
    }
}

/// Spells the first character of a key, or of a string literal's body,
/// as a `\uXXXX` escape — same text, different bytes.
fn escape_first(body: &str) -> String {
    match body.chars().next() {
        Some(first) => format!("\\u{:04x}{}", first as u32, &body[first.len_utf8()..]),
        None => String::new(),
    }
}

/// One generated line: a trace-shaped object put through one hostile
/// rewrite, or one of the odd whole lines.
fn hostile_line() -> impl Strategy<Value = String> {
    (
        (0..12usize, 1..4u64, 0..12usize),
        (0..TIMES.len(), 0..DEVS.len()),
        0..9usize,
        0..8usize,
        0..ODD_VALUES.len(),
        0..ODD_LINES.len(),
    )
        .prop_map(
            |((event, span, pick), (t, dev), rewrite, at, odd, odd_line)| {
                let mut members = vec![("t".to_owned(), TIMES[t].to_owned())];
                if let Some(dev) = DEVS[dev] {
                    members.push(("dev".to_owned(), dev.to_owned()));
                }
                members.extend(event_members(event, span, pick));
                let at = at % members.len();
                match rewrite {
                    0 => return ODD_LINES[odd_line].to_owned(),
                    1 => members[at].0 = escape_first(&members[at].0),
                    2 => {
                        if let Some(body) = members[at].1.strip_prefix('"') {
                            members[at].1 = format!("\"{}", escape_first(body));
                        }
                    }
                    // A duplicate before the original shadows it; after, it
                    // is shadowed.
                    3 => members.insert(at, (members[at].0.clone(), ODD_VALUES[odd].to_owned())),
                    4 => {
                        members.insert(at + 1, (members[at].0.clone(), ODD_VALUES[odd].to_owned()))
                    }
                    5 => members[at].1 = "[[1,{\"a\":[]}],{\"b\":{\"c\":null}}]".to_owned(),
                    6 => members.insert(at, ("parent".to_owned(), "null".to_owned())),
                    7 => members.insert(at, ("extra".to_owned(), ODD_VALUES[odd].to_owned())),
                    _ => {}
                }
                let body: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                // Rewrite 8: legal whitespace between members.
                let sep = if rewrite == 8 { " ,\t" } else { "," };
                format!("{{{}}}", body.join(sep))
            },
        )
}

/// Canonical JSON text of a parsed value: escapes as the renderers
/// write them, numbers as their literal text.
fn render_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(n),
        Value::Str(s) => {
            out.push('"');
            json::escape_into(s, out);
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json::escape_into(key, out);
                out.push_str("\":");
                render_value(item, out);
            }
            out.push('}');
        }
    }
}

/// The line the tree parser says `line` means to the analyzer: only the
/// members it reads, first occurrence of each, canonically spelled.
fn canonical_line(value: &Value) -> String {
    let mut out = String::from("{");
    for key in ANALYZER_KEYS {
        if let Some(member) = value.get(key) {
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":"));
            render_value(member, &mut out);
        }
    }
    out.push('}');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The line scanner reads every hostile spelling exactly as the tree
    /// parser's canonical form of it, and fails exactly where the tree
    /// parser fails, with the same error.
    #[test]
    fn hostile_lines_analyze_like_their_canonical_form(lines in vec(hostile_line(), 1..40)) {
        let mut hostile = StreamAnalyzer::new();
        let mut canonical = StreamAnalyzer::new();
        for (i, line) in lines.iter().enumerate() {
            let pushed = hostile.push_line(line);
            if line.trim().is_empty() {
                prop_assert!(pushed.is_ok());
                canonical.push_line(line).expect("blank lines are skipped");
                continue;
            }
            match json::parse(line) {
                Err(want) => {
                    let err = pushed.expect_err("the tree parser rejects this line");
                    prop_assert_eq!(err.line, i + 1);
                    prop_assert_eq!(&err.message, &want.to_string(), "{:?}", line);
                    prop_assert!(canonical.push_line(line).is_err());
                }
                Ok(value) => {
                    let canon = canonical_line(&value);
                    let from_canon = canonical.push_line(&canon);
                    prop_assert_eq!(&pushed, &from_canon, "{:?} vs {:?}", line, canon);
                }
            }
        }
        prop_assert_eq!(hostile.lines_seen(), canonical.lines_seen());
        assert_same(&hostile.finish(), &canonical.finish());
    }
}
