//! One never-panic harness for the JSON document readers: the metrics
//! bag, the campaign checkpoint, the invariant summary, the telemetry
//! snapshot line and the hotpaths comparison.
//!
//! Each reader is fed arbitrary bytes and byte-level mutations of the
//! committed documents. It must return `Ok` or a `DecodeError` — never
//! panic — and every document it accepts must re-render to the same
//! document, byte for byte up to insignificant whitespace and the
//! spelling of string escapes: a reader accepts only what its writer
//! writes.

use blap::campaign::{Campaign, Population};
use blap_bench::checkpoint;
use blap_bench::compare::{compare, CompareConfig, CompareError};
use blap_obs::json;
use blap_obs::telemetry::parse_snapshot_line;
use blap_obs::{Metrics, ViolationSummary};
use proptest::prelude::*;

/// The committed documents the mutations start from.
const SEEDS: [&str; 7] = [
    include_str!("../../../tests/fixtures/table2_metrics.json"),
    include_str!("../../../tests/fixtures/fleet_campaign_metrics.json"),
    include_str!("fixtures/checkpoint_plain.json"),
    include_str!("fixtures/checkpoint_invariants.json"),
    include_str!("fixtures/telemetry_snapshot.jsonl"),
    include_str!("fixtures/violation_summary.json"),
    include_str!("../../../BENCH_hotpaths.json"),
];

/// The campaign the checkpoint fixtures were taken from.
fn golden_campaign() -> Campaign {
    let mut campaign = Campaign::new(Population::fleet(), 64, 2022);
    campaign.shards = 4;
    campaign
}

/// Fails unless `rendered` is the document `input` is: the same members
/// in the same order with the same number spellings and strings, so the
/// same bytes up to insignificant whitespace and the spelling of string
/// escapes, which the readers' rendering check (`Value::check_rendering`)
/// compares as parsed documents.
fn same_document(reader: &str, input: &str, rendered: &str) {
    assert_eq!(
        json::parse(rendered).ok(),
        json::parse(input).ok(),
        "{reader} accepted a document it does not re-render: {input:?}"
    );
}

/// Runs every reader on `input`; an accepted document must re-render.
fn check_every_reader(input: &str) {
    if let Ok(metrics) = Metrics::parse_json(input) {
        same_document("Metrics::parse_json", input, &metrics.to_json());
    }
    let campaign = golden_campaign();
    for check_invariants in [false, true] {
        if let Ok(ck) = checkpoint::parse(input, &campaign, check_invariants) {
            let rendered = checkpoint::render(
                &campaign,
                ck.next_shard,
                &ck.metrics,
                ck.invariants.as_ref(),
            );
            same_document("checkpoint::parse", input, &rendered);
        }
    }
    let summary = json::parse(input).and_then(|value| ViolationSummary::from_value(&value));
    if let Ok(summary) = summary {
        same_document("ViolationSummary::from_value", input, &summary.to_json());
    }
    for line in input.lines() {
        if let Ok(snapshot) = parse_snapshot_line(line) {
            same_document("parse_snapshot_line", line, &snapshot.to_json_line());
        }
    }
    let config = CompareConfig::default();
    let hotpaths = SEEDS[6];
    let _: Result<_, CompareError> = compare(input, hotpaths, &config);
    let _: Result<_, CompareError> = compare(hotpaths, input, &config);
    let strict = CompareConfig {
        strict: true,
        ..config
    };
    let _: Result<_, CompareError> = compare(input, input, &strict);
}

/// One byte-level edit: replace, insert or delete at a position.
#[derive(Clone, Debug)]
enum Edit {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

/// The bytes JSON syntax is made of.
const SYNTAX: &[u8] = b"0123456789 \"{}[],:-.e\n";

/// Any byte half the time, a syntax byte otherwise, so edits often keep a
/// document well-formed and reach the typed reads.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..SYNTAX.len()).prop_map(|i| SYNTAX[i])]
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), byte()).prop_map(|(at, b)| Edit::Replace(at, b)),
        (any::<usize>(), byte()).prop_map(|(at, b)| Edit::Insert(at, b)),
        any::<usize>().prop_map(Edit::Delete),
    ]
}

fn mutate(seed: &str, edits: &[Edit]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for edit in edits {
        let len = bytes.len();
        match *edit {
            Edit::Replace(at, b) if len > 0 => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn committed_documents_are_accepted_and_re_render() {
    assert!(Metrics::parse_json(SEEDS[0]).is_ok());
    assert!(Metrics::parse_json(SEEDS[1]).is_ok());
    let campaign = golden_campaign();
    assert!(checkpoint::parse(SEEDS[2], &campaign, false).is_ok());
    assert!(checkpoint::parse(SEEDS[3], &campaign, true).is_ok());
    for line in SEEDS[4].lines().chain(SEEDS[5].lines()) {
        assert!(
            parse_snapshot_line(line).is_ok()
                || ViolationSummary::from_value(&json::parse(line).expect("JSON")).is_ok(),
            "{line}"
        );
    }
    for seed in SEEDS {
        check_every_reader(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        check_every_reader(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn readers_never_panic_on_mutated_documents(
        seed in 0..SEEDS.len(),
        edits in proptest::collection::vec(edit(), 1..4)
    ) {
        check_every_reader(&mutate(SEEDS[seed], &edits));
    }
}
