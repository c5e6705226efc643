//! `blap-trace check` on hostile JSONL: a line the JSON grammar rejects —
//! nesting past the reader's depth cap, a signed `\u` escape, a bare
//! `-` — is a parse error with the documented exit code 2, never a crash
//! and never a silently accepted line.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blap-trace-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs `blap-trace check` on `trace`, returning its exit code and stderr.
fn check(name: &str, trace: &str) -> (Option<i32>, String) {
    let path = temp_path(name);
    std::fs::write(&path, trace).expect("write trace");
    let output = Command::new(env!("CARGO_BIN_EXE_blap-trace"))
        .args(["check", path.to_str().expect("utf8")])
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
    // The same shape with valid JSON in the odd member checks clean.
    let (code, stderr) = check("valid.jsonl", "{\"t\":1,\"ev\":\"x\",\"a\":\"\\u0041\"}\n");
    assert_eq!(code, Some(0), "{stderr}");
}
