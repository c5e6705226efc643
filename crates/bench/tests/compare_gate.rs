//! Exit-code contract of the `blap-bench compare` gate, end to end: the
//! same invocations CI runs, against real artifacts on disk.

use std::process::Command;

fn blap_bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_blap-bench"))
}

/// The committed baseline at the repository root.
fn committed_baseline() -> String {
    format!("{}/../../BENCH_hotpaths.json", env!("CARGO_MANIFEST_DIR"))
}

fn scratch_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("blap_compare_gate_{}_{name}", std::process::id()))
}

/// Byte range of the numeric value following `needle` in `artifact`,
/// ending at the first comma or newline so the metric may sit anywhere in
/// its section.
fn value_span(artifact: &str, needle: &str) -> (usize, usize) {
    let at = artifact.find(needle).expect("artifact has the metric") + needle.len();
    let len = artifact[at..].find([',', '\n']).expect("value terminated");
    (at, at + len)
}

#[test]
fn committed_baseline_against_itself_exits_zero() {
    let baseline = committed_baseline();
    let output = blap_bench()
        .args(["compare", &baseline, &baseline])
        .output()
        .expect("gate binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "self-comparison must pass:\n{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("verdict: pass"), "{stdout}");
}

#[test]
fn synthetic_regression_exits_nonzero_and_appends_history() {
    let baseline = std::fs::read_to_string(committed_baseline()).expect("baseline readable");
    // Triple one kernel metric: far past the 35% ns budget. The fresh
    // artifact keeps the baseline's host block (or lack of one), so under
    // --strict the breach cannot be excused either way.
    let needle = "\"legacy_e1\": ";
    let at = baseline.find(needle).expect("baseline has legacy_e1") + needle.len();
    let end = at + baseline[at..].find(',').expect("value terminated");
    let value: f64 = baseline[at..end].trim().parse().expect("numeric value");
    let regressed = format!("{}{:.1}{}", &baseline[..at], value * 3.0, &baseline[end..]);
    let fresh_path = scratch_path("regressed.json");
    let history_path = scratch_path("history.jsonl");
    let _ = std::fs::remove_file(&history_path);
    std::fs::write(&fresh_path, regressed).expect("scratch artifact written");

    let output = blap_bench()
        .args([
            "compare",
            &committed_baseline(),
            fresh_path.to_str().expect("utf8 path"),
            "--strict",
            "--history",
            history_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("gate binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a same-host regression must exit 1:\n{stdout}"
    );
    assert!(stdout.contains("verdict: regressed"), "{stdout}");
    assert!(stdout.contains("legacy_e1"), "{stdout}");

    let history = std::fs::read_to_string(&history_path).expect("history written");
    assert_eq!(history.trim_end().lines().count(), 1);
    assert!(history.contains("\"verdict\":\"regressed\""), "{history}");
    assert!(history.contains("blap-bench-history-v1"), "{history}");

    let _ = std::fs::remove_file(&fresh_path);
    let _ = std::fs::remove_file(&history_path);
}

#[test]
fn synthetic_throughput_drop_trips_the_floor() {
    let baseline = std::fs::read_to_string(committed_baseline()).expect("baseline readable");
    // Halve the sweep throughput: far below the -25% floor. Unlike the
    // latency metrics a *larger* value must never trip this gate, so the
    // companion check doubles it and expects a pass.
    let (at, end) = value_span(&baseline, "\"pincrack_candidates_per_sec\": ");
    let value: f64 = baseline[at..end].trim().parse().expect("numeric value");
    for (factor, expected_code, expected_verdict) in
        [(0.5, 1, "verdict: regressed"), (2.0, 0, "verdict: pass")]
    {
        let fresh = format!(
            "{}{:.1}{}",
            &baseline[..at],
            value * factor,
            &baseline[end..]
        );
        let fresh_path = scratch_path(&format!("throughput_{expected_code}.json"));
        std::fs::write(&fresh_path, fresh).expect("scratch artifact written");
        let output = blap_bench()
            .args([
                "compare",
                &committed_baseline(),
                fresh_path.to_str().expect("utf8 path"),
                "--strict",
            ])
            .output()
            .expect("gate binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            output.status.code(),
            Some(expected_code),
            "throughput x{factor} must exit {expected_code}:\n{stdout}"
        );
        assert!(stdout.contains(expected_verdict), "{stdout}");
        let _ = std::fs::remove_file(&fresh_path);
    }
}

#[test]
fn zero_baseline_skips_lax_and_exits_two_strict() {
    let baseline = std::fs::read_to_string(committed_baseline()).expect("baseline readable");
    // Zero out the throughput metric in a baseline copy: the ratio divides
    // by it, so the gate must either skip it loudly (lax) or refuse the
    // artifact (strict) — never let inf/NaN comparisons decide.
    let (at, end) = value_span(&baseline, "\"pincrack_candidates_per_sec\": ");
    let zeroed = format!("{}0.0{}", &baseline[..at], &baseline[end..]);
    let zero_path = scratch_path("zero_baseline.json");
    std::fs::write(&zero_path, zeroed).expect("scratch artifact written");
    let zero_path = zero_path.to_str().expect("utf8 path");

    let lax = blap_bench()
        .args(["compare", zero_path, &committed_baseline()])
        .output()
        .expect("gate binary runs");
    let stdout = String::from_utf8_lossy(&lax.stdout);
    assert_eq!(
        lax.status.code(),
        Some(0),
        "lax mode skips the metric:\n{stdout}"
    );
    assert!(stdout.contains("ratio undefined"), "{stdout}");
    assert!(stdout.contains("verdict: pass"), "{stdout}");

    let strict = blap_bench()
        .args(["compare", zero_path, &committed_baseline(), "--strict"])
        .output()
        .expect("gate binary runs");
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert_eq!(
        strict.status.code(),
        Some(2),
        "strict mode must reject the artifact:\n{stderr}"
    );
    assert!(stderr.contains("ratio undefined"), "{stderr}");

    let _ = std::fs::remove_file(zero_path);
}

#[test]
fn bad_artifacts_exit_two_without_usage() {
    // A truncated artifact, an unreadable path and (under --strict) an
    // ungateable metric are input faults, not command-line mistakes: the
    // error alone, no usage text.
    let baseline = std::fs::read_to_string(committed_baseline()).expect("baseline readable");
    let truncated = scratch_path("truncated.json");
    std::fs::write(&truncated, &baseline[..100]).expect("scratch artifact written");
    let missing = scratch_path("missing.json");
    let _ = std::fs::remove_file(&missing);
    let (at, end) = value_span(&baseline, "\"pincrack_candidates_per_sec\": ");
    let zeroed = scratch_path("zeroed.json");
    std::fs::write(
        &zeroed,
        format!("{}0.0{}", &baseline[..at], &baseline[end..]),
    )
    .expect("scratch artifact written");
    let committed = committed_baseline();
    let path = |p: &std::path::PathBuf| p.to_str().expect("utf8 path").to_owned();
    for (args, expected) in [
        (
            vec![committed.clone(), path(&truncated)],
            "error: fresh: JSON parse error at byte 100",
        ),
        (
            vec![committed.clone(), path(&missing)],
            "error: cannot read",
        ),
        (
            vec![path(&zeroed), committed.clone(), "--strict".to_owned()],
            "ratio undefined",
        ),
    ] {
        let output = blap_bench()
            .arg("compare")
            .args(&args)
            .output()
            .expect("gate binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&truncated);
    let _ = std::fs::remove_file(&zeroed);
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["compare"] as &[&str],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let output = blap_bench().args(args).output().expect("gate binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?} must be a usage error"
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("usage:"),
            "args {args:?} must print usage"
        );
    }
}
