//! `blap-trace` on hostile JSONL: a line the JSON grammar rejects —
//! nesting past the reader's depth cap, a signed `\u` escape, a bare
//! `-` — or an `ev` kind the trace schema does not name is an error with
//! the documented exit code 2, never a crash and never a silently
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
fn blap_trace(command: &[&str], name: &str, trace: &str) -> (Option<i32>, String) {
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

#[test]
fn unknown_event_kinds_are_rejected_by_every_reader() {
    let trace = "{\"t\":0,\"ev\":\"nonsense\"}\n{\"t\":1,\"ev\":\"nonsense\"}\n";
    let out = temp_path("unknown-kind.bin");
    let out = out.to_str().expect("utf8");
    for command in [&["check"][..], &["timeline"], &["convert", out]] {
        let (code, stderr) = blap_trace(command, "unknown-kind.jsonl", trace);
        assert_eq!(code, Some(2), "{command:?}: {stderr}");
        assert!(stderr.contains("line 1"), "{command:?}: {stderr}");
        assert!(
            stderr.contains("unknown event kind \"nonsense\""),
            "{command:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(out);
}
