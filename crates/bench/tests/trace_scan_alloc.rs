//! Reading a trace line builds no tree. A nested member, which no trace
//! event has, is checked against the grammar and skipped without a heap
//! allocation per value, so a hostile line under the size cap costs the
//! line readers no more memory than a plain one. Counted with the shared
//! counting allocator from `blap_obs::prof` (feature `prof-alloc`).

use blap_obs::{prof, Frame, StreamAnalyzer};

#[global_allocator]
static GLOBAL: prof::CountingAlloc = prof::CountingAlloc;

const PLAIN: &str = r#"{"t":0,"ev":"warning","message":"m"}"#;

/// `PLAIN` with a nested array of `n` numbers and a nested object.
fn nested(n: usize) -> String {
    let numbers = vec!["0"; n].join(",");
    format!(
        r#"{{"t":0,"ev":"warning","message":"m","a":[{numbers}],"o":{{"k":[[1],{{"x":null}}]}}}}"#
    )
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    prof::allocations_during(f).0
}

#[test]
fn push_line_skips_nested_members_without_allocating() {
    let line = nested(10_000);
    let mut analyzer = StreamAnalyzer::new();
    analyzer.push_line(PLAIN).expect("plain line");
    let plain = allocations_during(|| analyzer.push_line(PLAIN).expect("plain line"));
    let hostile = allocations_during(|| analyzer.push_line(&line).expect("valid JSON"));
    assert_eq!(hostile, plain, "a nested member allocated");
}

#[test]
fn from_jsonl_skips_nested_members_without_allocating() {
    let line = nested(10_000);
    // The frame re-renders without the nested members, so the line is
    // refused, but only after a scan that builds nothing.
    let mut refused = None;
    let hostile = allocations_during(|| refused = Some(Frame::from_jsonl(&line)));
    assert!(refused.expect("ran").is_err());
    let plain = allocations_during(|| drop(Frame::from_jsonl(PLAIN).expect("canonical")));
    assert!(
        hostile <= plain,
        "{hostile} allocations for a nested line, {plain} for a plain one"
    );
}
