//! Binary ⇄ JSONL trace codec round-trip properties, plus the committed
//! byte-exact fixture pair.
//!
//! One schema table drives both directions of the BLAPTRC1 codec, while
//! the lines it must reproduce come from [`TraceEvent::render_jsonl`].
//! The properties here generate live events on all 17 variants — hostile
//! labels (quotes, backslashes, control characters, non-ASCII) leaked
//! into every `&'static str` slot, hostile messages and span details,
//! random addresses, `u64::MAX` times and span ids, every device id —
//! render them, and pin:
//!
//! * binary: write → read returns the identical frames;
//! * JSONL: every rendered line parses to a frame carrying that line;
//! * the full convert cycle JSONL → binary → JSONL is byte-identical.
//!
//! Hand-written lines pin what `convert` accepts beyond what the tracer
//! emits, and what it refuses. The committed fixture pair
//! (`fixtures/trace_small.jsonl` / `.bin`) pins the *encoding itself*: a
//! codec change that silently reshapes bytes fails here even if it
//! round-trips. Regenerate deliberately with
//! `BLAP_REGEN_FIXTURES=1 cargo test -p blap-obs --test binfmt_roundtrip`.

use std::io::Read;
use std::path::Path;

use blap_obs::trace::TraceEvent;
use blap_obs::{Frame, FrameReader, FrameWriter, SpanId};
use blap_types::{BdAddr, Instant};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings that stress both codecs: every JSON escape class, UTF-8
/// multibyte, and plain identifier-ish names.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_.:]{1,16}".prop_map(|s| s),
        Just(String::new()),
        Just("he said \"hi\"".to_owned()),
        Just("back\\slash\\".to_owned()),
        Just("tab\there and new\nline".to_owned()),
        Just("ctrl\u{1}\u{1f}char".to_owned()),
        Just("snowman ☃ naïve — em".to_owned()),
        Just("\"\\\"".to_owned()),
        Just("pdu\",\"ev\":\"forged".to_owned()),
    ]
}

/// A [`text`] leaked into a `&'static str` label slot.
fn label() -> impl Strategy<Value = &'static str> {
    text().prop_map(|s| &*Box::leak(s.into_boxed_str()))
}

/// Values biased toward the edges: zero, small, and `u64::MAX` (varint
/// encoding uses all ten bytes there).
fn big() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0..10_000_000u64,
        Just(u64::MAX),
        Just(u64::MAX - 1),
    ]
}

fn time() -> impl Strategy<Value = Instant> {
    big().prop_map(Instant::from_micros)
}

fn span() -> impl Strategy<Value = SpanId> {
    big().prop_map(SpanId::from_raw)
}

fn addr() -> impl Strategy<Value = BdAddr> {
    any::<[u8; 6]>().prop_map(BdAddr::new)
}

fn device() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        Just(None),
        Just(Some(0u32)),
        Just(Some(u32::MAX)),
        any::<u32>().prop_map(Some),
    ]
}

/// All 17 event variants, with hostile text in every string slot and
/// extreme values in every numeric one.
fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (time(), big(), label()).prop_map(|(time, seq, kind)| TraceEvent::SchedulerDispatch {
            time,
            seq,
            kind
        }),
        (time(), addr()).prop_map(|(time, target)| TraceEvent::PageStarted { time, target }),
        (time(), addr(), any::<u32>(), big(), any::<bool>()).prop_map(
            |(time, target, responder, latency_us, raced)| TraceEvent::PageConnected {
                time,
                target,
                responder,
                latency_us,
                raced,
            }
        ),
        (time(), addr()).prop_map(|(time, target)| TraceEvent::PageTimeout { time, target }),
        (time(), addr(), any::<bool>()).prop_map(|(time, target, attacker_won)| {
            TraceEvent::RaceOutcome {
                time,
                target,
                attacker_won,
            }
        }),
        (time(), any::<bool>(), any::<bool>()).prop_map(|(time, page_scan, inquiry_scan)| {
            TraceEvent::ScanTransition {
                time,
                page_scan,
                inquiry_scan,
            }
        }),
        (time(), addr(), label()).prop_map(|(time, peer, pdu)| TraceEvent::LmpSend {
            time,
            peer,
            pdu
        }),
        (time(), addr(), label()).prop_map(|(time, peer, pdu)| TraceEvent::LmpRecv {
            time,
            peer,
            pdu
        }),
        (time(), addr()).prop_map(|(time, peer)| TraceEvent::LmpTimeout { time, peer }),
        (time(), label(), label(), label()).prop_map(|(time, direction, kind, name)| {
            TraceEvent::HciSeam {
                time,
                direction,
                kind,
                name,
            }
        }),
        (time(), label()).prop_map(|(time, reason)| TraceEvent::LinkDropped { time, reason }),
        (time(), addr(), label()).prop_map(|(time, peer, action)| {
            TraceEvent::KeystoreMutation { time, peer, action }
        }),
        (time(), label()).prop_map(|(time, label)| TraceEvent::AttackPhase { time, label }),
        (time(), text()).prop_map(|(time, message)| TraceEvent::Warning { time, message }),
        (big(), label()).prop_map(|(unit, label)| TraceEvent::UnitStart { unit, label }),
        (time(), span(), span(), label(), text()).prop_map(|(time, span, parent, name, detail)| {
            TraceEvent::SpanOpen {
                time,
                span,
                parent,
                name,
                detail,
            }
        }),
        (time(), span(), label()).prop_map(|(time, span, status)| TraceEvent::SpanClose {
            time,
            span,
            status
        }),
    ]
}

/// A device-attributed event, as a tracer sink receives it.
fn record() -> impl Strategy<Value = (Option<u32>, TraceEvent)> {
    (device(), event())
}

/// Renders records as a JSONL trace, one line each.
fn render(records: &[(Option<u32>, TraceEvent)]) -> String {
    let mut text = String::new();
    for (dev, event) in records {
        event.render_jsonl(*dev, &mut text);
        text.push('\n');
    }
    text
}

/// Parses every line of a JSONL trace, which must be canonical.
fn frames_of(jsonl: &str) -> Vec<Frame> {
    jsonl
        .lines()
        .map(|line| {
            Frame::from_jsonl(line)
                .unwrap_or_else(|e| panic!("canonical line must parse: {e}\n{line}"))
        })
        .collect()
}

/// Writes frames to an in-memory binary stream.
fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new()).expect("vec write");
    for frame in frames {
        writer.write_frame(frame).expect("vec write");
    }
    writer.finish().expect("vec write")
}

/// Reads every frame of a binary stream.
fn decode(bytes: &[u8]) -> Vec<Frame> {
    let mut reader = FrameReader::new(bytes).expect("valid magic");
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().expect("valid stream") {
        frames.push(frame);
    }
    frames
}

/// The JSONL trace the frames carry.
fn lines_of(frames: &[Frame]) -> String {
    let mut text = String::new();
    for frame in frames {
        frame.render_jsonl(&mut text);
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Binary write → read is the identity on frames, hostile strings
    /// and `u64::MAX` timestamps included.
    #[test]
    fn binary_codec_is_identity(records in vec(record(), 0..12)) {
        let frames = frames_of(&render(&records));
        prop_assert_eq!(decode(&encode(&frames)), frames);
    }

    /// Every line the live renderer emits parses to a frame carrying
    /// exactly that line: every escape it writes, the codec inverts.
    #[test]
    fn jsonl_codec_is_identity(records in vec(record(), 1..12)) {
        for (dev, event) in &records {
            let mut line = String::new();
            event.render_jsonl(*dev, &mut line);
            let frame = Frame::from_jsonl(&line)
                .unwrap_or_else(|e| panic!("own render must parse: {e}\n{line}"));
            prop_assert_eq!(frame.line(), line.as_str());
        }
    }

    /// The full `blap-trace convert` cycle — JSONL → binary → JSONL — is
    /// byte-identical, so converting there and back loses nothing.
    #[test]
    fn convert_cycle_is_byte_identical(records in vec(record(), 0..12)) {
        let jsonl = render(&records);
        let binary = encode(&frames_of(&jsonl));
        prop_assert_eq!(lines_of(&decode(&binary)), jsonl);
    }
}

/// Canonical lines the tracer never emits but `convert` has always
/// accepted: the codec stores text, not addresses, and takes any `u64`
/// where the tracer happens to use a narrower type or a sentinel.
const HAND_WRITTEN: [&str; 8] = [
    "{\"t\":1,\"ev\":\"page_start\",\"target\":\"not an address\"}",
    "{\"t\":2,\"dev\":1,\"ev\":\"lmp_send\",\"peer\":\"he said \\\"hi\\\"\\n\",\"pdu\":\"LMP_au_rand\"}",
    "{\"t\":3,\"ev\":\"keystore\",\"peer\":\"\",\"action\":\"store\"}",
    "{\"t\":7,\"ev\":\"unit_start\",\"unit\":0,\"label\":\"baseline\"}",
    "{\"t\":8,\"ev\":\"span_open\",\"span\":2,\"parent\":0,\"name\":\"page\"}",
    "{\"t\":9,\"ev\":\"span_open\",\"span\":3,\"name\":\"page\",\"detail\":\"\"}",
    "{\"t\":10,\"ev\":\"span_open\",\"span\":4,\"parent\":0,\"name\":\"ploc\",\"detail\":\"\"}",
    "{\"t\":11,\"dev\":4294967295,\"ev\":\"page_connect\",\"target\":\"aa:bb\",\"responder\":18446744073709551615,\"latency_us\":0,\"raced\":false}",
];

#[test]
fn hand_written_canonical_lines_round_trip() {
    let jsonl: String = HAND_WRITTEN
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    let frames = frames_of(&jsonl);
    for (frame, line) in frames.iter().zip(HAND_WRITTEN) {
        assert_eq!(frame.line(), line);
    }
    assert_eq!(lines_of(&decode(&encode(&frames))), jsonl);
}

#[test]
fn lines_outside_the_schema_are_rejected() {
    for bad in [
        // Optional members present with the wrong type.
        "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"parent\":null,\"name\":\"page\"}",
        "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"parent\":\"1\",\"name\":\"page\"}",
        "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"page\",\"detail\":5}",
        // Required members missing or mistyped.
        "{\"t\":0,\"ev\":\"span_open\",\"name\":\"page\"}",
        "{\"t\":0,\"ev\":\"race\",\"target\":\"x\",\"attacker_won\":1}",
        "{\"t\":0,\"ev\":\"lmp_send\",\"peer\":5,\"pdu\":\"x\"}",
        // A device id past u32, an unknown kind, a member of another row.
        "{\"t\":0,\"dev\":4294967296,\"ev\":\"attack_phase\",\"label\":\"x\"}",
        "{\"t\":0,\"ev\":\"nonsense\",\"label\":\"x\"}",
        "{\"t\":0,\"ev\":\"attack_phase\",\"label\":\"x\",\"seq\":1}",
    ] {
        assert!(Frame::from_jsonl(bad).is_err(), "{bad}");
    }
}

/// The committed fixture pair pins the byte-level encoding of both
/// formats for a small representative trace. `BLAP_REGEN_FIXTURES=1`
/// rewrites both files from the in-tree sample.
#[test]
fn committed_binary_fixture_is_byte_exact() {
    // One event per variant, deterministic values — edits here must be
    // paired with a fixture regen and show up in review as byte diffs.
    let victim: BdAddr = "00:1b:7d:da:71:0a".parse().expect("valid");
    let attacker: BdAddr = "48:90:12:34:56:78".parse().expect("valid");
    let at = Instant::from_micros;
    let records = vec![
        (
            None,
            TraceEvent::UnitStart {
                unit: 0,
                label: "trial_pair",
            },
        ),
        (
            None,
            TraceEvent::SpanOpen {
                time: at(0),
                span: SpanId::from_raw(1),
                parent: SpanId::NONE,
                name: "trial",
                detail: "blocking".to_owned(),
            },
        ),
        (
            Some(0),
            TraceEvent::SchedulerDispatch {
                time: at(0),
                seq: 1,
                kind: "Script",
            },
        ),
        (
            Some(2),
            TraceEvent::PageStarted {
                time: at(625),
                target: victim,
            },
        ),
        (
            Some(2),
            TraceEvent::SpanOpen {
                time: at(625),
                span: SpanId::from_raw(2),
                parent: SpanId::from_raw(1),
                name: "page",
                detail: victim.to_string(),
            },
        ),
        (
            Some(2),
            TraceEvent::PageConnected {
                time: at(1250),
                target: victim,
                responder: 0,
                latency_us: 493606,
                raced: false,
            },
        ),
        (
            Some(0),
            TraceEvent::RaceOutcome {
                time: at(1250),
                target: victim,
                attacker_won: true,
            },
        ),
        (
            Some(0),
            TraceEvent::ScanTransition {
                time: at(1875),
                page_scan: true,
                inquiry_scan: false,
            },
        ),
        (
            Some(0),
            TraceEvent::LmpSend {
                time: at(2500),
                peer: victim,
                pdu: "LMP_au_rand",
            },
        ),
        (
            Some(2),
            TraceEvent::LmpRecv {
                time: at(3750),
                peer: attacker,
                pdu: "LMP_au_rand",
            },
        ),
        (
            Some(2),
            TraceEvent::LmpTimeout {
                time: at(5000),
                peer: attacker,
            },
        ),
        (
            Some(0),
            TraceEvent::HciSeam {
                time: at(5625),
                direction: "sent",
                kind: "command",
                name: "HCI_Create_Connection",
            },
        ),
        (
            None,
            TraceEvent::LinkDropped {
                time: at(6250),
                reason: "supervision_timeout",
            },
        ),
        (
            Some(2),
            TraceEvent::KeystoreMutation {
                time: at(6875),
                peer: attacker,
                action: "install",
            },
        ),
        (
            Some(2),
            TraceEvent::AttackPhase {
                time: at(7500),
                label: "ploc_hold",
            },
        ),
        (
            None,
            TraceEvent::Warning {
                time: at(8125),
                message: "clock drift \"high\"\n".to_owned(),
            },
        ),
        (
            Some(2),
            TraceEvent::PageTimeout {
                time: at(8750),
                target: victim,
            },
        ),
        (
            Some(0),
            TraceEvent::SpanClose {
                time: at(u64::MAX),
                span: SpanId::from_raw(1),
                status: "attacker_won",
            },
        ),
    ];
    let jsonl = render(&records);
    let binary = encode(&frames_of(&jsonl));

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let jsonl_path = dir.join("trace_small.jsonl");
    let bin_path = dir.join("trace_small.bin");
    if std::env::var_os("BLAP_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(&dir).expect("fixture dir");
        std::fs::write(&jsonl_path, &jsonl).expect("write jsonl fixture");
        std::fs::write(&bin_path, &binary).expect("write binary fixture");
    }

    let want_jsonl = std::fs::read_to_string(&jsonl_path)
        .expect("fixture missing — run with BLAP_REGEN_FIXTURES=1 to create it");
    let want_bin = std::fs::read(&bin_path)
        .expect("fixture missing — run with BLAP_REGEN_FIXTURES=1 to create it");
    assert_eq!(jsonl, want_jsonl, "JSONL fixture drifted");
    assert_eq!(binary, want_bin, "binary fixture drifted");

    // And the committed binary fixture decodes back to the JSONL one —
    // the same check CI's convert smoke performs through the CLI.
    let mut bytes = Vec::new();
    std::fs::File::open(&bin_path)
        .expect("fixture opens")
        .read_to_end(&mut bytes)
        .expect("fixture reads");
    assert_eq!(lines_of(&decode(&bytes)), want_jsonl);
}
