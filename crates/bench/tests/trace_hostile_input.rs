//! `blap-trace` on hostile input: a line the JSON grammar rejects —
//! nesting past the reader's depth cap, a signed `\u` escape, a bare
//! `-` —, an `ev` kind the trace schema does not name, or an event past
//! the one size limit in either format is an error with the documented
//! exit code 2 from every reader, never a crash and never a silently
//! accepted line.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blap-trace-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs `blap-trace check` on `trace`, returning its exit code and stderr.
fn check(name: &str, trace: &str) -> (Option<i32>, String) {
    blap_trace(&["check"], name, trace)
}

/// Runs `blap-trace <command> <trace> [extra..]` on `trace` written to a
/// temporary file, returning the exit code and stderr.
fn blap_trace(command: &[&str], name: &str, trace: impl AsRef<[u8]>) -> (Option<i32>, String) {
    let path = temp_path(name);
    std::fs::write(&path, trace).expect("write trace");
    let (subcommand, extra) = command.split_first().expect("a subcommand");
    let output = Command::new(env!("CARGO_BIN_EXE_blap-trace"))
        .arg(subcommand)
        .arg(&path)
        .args(extra)
        .output()
        .expect("run blap-trace");
    let _ = std::fs::remove_file(&path);
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn deeply_nested_line_is_a_parse_error_not_a_stack_overflow() {
    let trace = format!(
        "{{\"t\":0,\"ev\":\"attack_phase\",\"label\":\"x\"}}\n{{\"t\":1,\"ev\":\"x\",\"a\":{}\n",
        "[".repeat(1_000_000)
    );
    let (code, stderr) = check("nested.jsonl", &trace);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("trace line 2"), "{stderr}");
    assert!(stderr.contains("64 levels"), "{stderr}");
}

#[test]
fn non_rfc_8259_lines_are_parse_errors() {
    for (name, line) in [
        ("signed-escape.jsonl", r#"{"t":1,"ev":"x","a":"\u+041"}"#),
        ("bare-minus.jsonl", r#"{"t":1,"ev":"x","a":-}"#),
        ("two-dots.jsonl", r#"{"t":1,"ev":"x","a":1.2.3}"#),
    ] {
        let (code, stderr) = check(name, &format!("{line}\n"));
        assert_eq!(code, Some(2), "{line}: {stderr}");
        assert!(stderr.contains("JSON parse error"), "{line}: {stderr}");
    }
    // The same shape with valid JSON in the odd member, on a kind the
    // schema names, checks clean.
    let (code, stderr) = check(
        "valid.jsonl",
        "{\"t\":1,\"ev\":\"warning\",\"a\":\"\\u0041\"}\n",
    );
    assert_eq!(code, Some(0), "{stderr}");
}

/// Runs every trace reader on `trace` (written under `name`): `check`,
/// `timeline`, `convert` and `diff` against a copy of itself. Each must
/// exit 2 with every one of `wants` in its stderr.
fn every_reader_refuses(name: &str, trace: &[u8], wants: &[&str]) {
    let out = temp_path(&format!("{name}.out"));
    let copy = temp_path(&format!("{name}.copy"));
    std::fs::write(&copy, trace).expect("write copy");
    let (out, copy) = (out.to_str().expect("utf8"), copy.to_str().expect("utf8"));
    for command in [
        &["check"][..],
        &["timeline"],
        &["convert", out],
        &["diff", copy],
    ] {
        let (code, stderr) = blap_trace(command, name, trace);
        assert_eq!(code, Some(2), "{command:?}: {stderr}");
        for want in wants {
            assert!(stderr.contains(want), "{command:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(out);
    let _ = std::fs::remove_file(copy);
}

#[test]
fn unknown_event_kinds_are_rejected_by_every_reader() {
    let trace = "{\"t\":0,\"ev\":\"nonsense\"}\n{\"t\":1,\"ev\":\"nonsense\"}\n";
    every_reader_refuses(
        "unknown-kind.jsonl",
        trace.as_bytes(),
        &["line 1", "unknown event kind \"nonsense\""],
    );
}

#[test]
fn an_event_past_the_size_limit_is_refused_as_jsonl() {
    // A 2 MiB warning: `check` used to pass it, and `convert` wrote it
    // as a BLAPTRC1 frame that `check` then refused.
    let trace = format!(
        "{{\"t\":0,\"ev\":\"warning\",\"message\":\"{}\"}}\n",
        "x".repeat(2 << 20)
    );
    every_reader_refuses(
        "huge-line.jsonl",
        trace.as_bytes(),
        &["trace line 1", "line is longer than the 1048576-byte limit"],
    );
}

/// Appends `n` as a LEB128 varint.
fn varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push((n as u8 & 0x7f) | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

#[test]
fn an_event_past_the_size_limit_is_refused_as_blaptrc1() {
    // A `warning` frame of 200 000 control bytes: its payload is under
    // the limit, but each byte renders as a six-byte `\u00XX` escape, so
    // its JSONL line is over it. No reader may pass it on.
    let message = vec![0x01u8; 200_000];
    let mut payload = vec![13, 0]; // the `warning` tag, no flags
    varint(&mut payload, 0); // t
    varint(&mut payload, message.len() as u64);
    payload.extend_from_slice(&message);
    let mut trace = b"BLAPTRC1".to_vec();
    varint(&mut trace, payload.len() as u64);
    trace.extend_from_slice(&payload);
    every_reader_refuses(
        "huge-frame.bin",
        &trace,
        &["binary trace frame 0", "over the 1048576-byte limit"],
    );
}
