//! Byte pins for the JSON documents no other fixture covers: campaign
//! checkpoints with and without an invariant summary, the `profile.json`
//! sidecar, a telemetry snapshot line, a `BENCH_history.jsonl` record,
//! the hotpaths host fingerprint, a dirty violation summary and an
//! exported `metrics.json` document.
//!
//! Every input is fixed, so every byte is too. Regenerate (only when an
//! *intentional* format change lands) with:
//!
//! ```text
//! BLAP_REGEN_FIXTURES=1 cargo test -p blap-bench --test json_goldens
//! ```

use std::path::PathBuf;
use std::process::Command;

use blap_bench::compare::{compare, history_record, CompareConfig, HostFingerprint};
use blap_obs::prof::{PoolReport, Report, ReportNode, WorkerReport};
use blap_obs::telemetry::{RaceCell, TelemetrySnapshot, WorkerLane, SCHEMA_VERSION};
use blap_obs::{analyze_trace, export_json, MetaValue, Metrics, ViolationSummary};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `BLAP_REGEN_FIXTURES` is set.
fn check_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("BLAP_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixtures dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run BLAP_REGEN_FIXTURES=1 cargo test")
    });
    assert!(
        expected == actual,
        "{name} diverged from its golden fixture:\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blap-json-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs a 64-trial, four-shard campaign that stops after two shards and
/// returns the checkpoint it left behind.
fn stopped_campaign_checkpoint(name: &str, extra: &[&str]) -> String {
    let path = temp_path(name);
    let _ = std::fs::remove_file(&path);
    let output = Command::new(env!("CARGO_BIN_EXE_blap-campaign"))
        .args(["--trials", "64", "--shards", "4", "--seed", "2022"])
        .args(["--checkpoint", path.to_str().expect("utf8")])
        .args(["--checkpoint-every", "1", "--stop-after", "2"])
        .args(extra)
        .env("BLAP_JOBS", "1")
        .output()
        .expect("blap-campaign runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let checkpoint = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    checkpoint
}

#[test]
fn checkpoint_without_invariants_is_pinned() {
    check_fixture(
        "checkpoint_plain.json",
        &stopped_campaign_checkpoint("plain.json", &[]),
    );
}

#[test]
fn checkpoint_with_invariants_is_pinned() {
    check_fixture(
        "checkpoint_invariants.json",
        &stopped_campaign_checkpoint("checked.json", &["--check-invariants"]),
    );
}

fn node(name: &str, calls: u64, total_ns: u64, children: Vec<ReportNode>) -> ReportNode {
    let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
    ReportNode {
        name: name.to_owned(),
        calls,
        total_ns,
        self_ns: total_ns - child_total,
        alloc_count: calls * 3,
        alloc_bytes: calls * 96,
        children,
    }
}

#[test]
fn profile_json_is_pinned() {
    let report = Report {
        roots: vec![
            node(
                "trial",
                4,
                9_000_000,
                vec![
                    node("crypto.p256", 12, 6_500_000, vec![]),
                    node("lmp \"auth\"", 4, 1_250_000, vec![]),
                ],
            ),
            node("unit", 1, 12_345, vec![]),
        ],
        pools: vec![
            PoolReport {
                pool: "campaign_shards".to_owned(),
                runs: 2,
                wall_ns: 10_000_000,
                workers: vec![
                    WorkerReport {
                        worker: 0,
                        tasks: 3,
                        busy_ns: 9_000_000,
                        imbalance: 1.2857142857,
                    },
                    WorkerReport {
                        worker: 1,
                        tasks: 1,
                        busy_ns: 5_000_000,
                        imbalance: 0.7142857143,
                    },
                ],
            },
            PoolReport {
                pool: "idle".to_owned(),
                runs: 0,
                wall_ns: 0,
                workers: vec![],
            },
        ],
    };
    let empty = Report {
        roots: vec![],
        pools: vec![],
    };
    check_fixture(
        "profile.json",
        &format!("{}{}", report.to_json(), empty.to_json()),
    );
}

fn snapshot(workers: Vec<WorkerLane>, races: Vec<(String, RaceCell)>) -> TelemetrySnapshot {
    TelemetrySnapshot {
        version: SCHEMA_VERSION,
        seq: 7,
        wall_ms: 3_250,
        virtual_us: 81_000_000,
        trials: 4_520,
        trials_total: 10_000,
        shards: 3,
        shards_total: 8,
        trials_per_sec: 1_391.076_9,
        eta_ms: 3_941,
        violations: 1,
        dropped: 2,
        workers,
        races,
    }
}

#[test]
fn telemetry_snapshot_line_is_pinned() {
    let busy = snapshot(
        vec![
            WorkerLane {
                worker: 0,
                tasks: 2,
                busy_ms: 3_100,
                utilization: 0.953_846,
            },
            WorkerLane {
                worker: 3,
                tasks: 1,
                busy_ms: 1_600,
                utilization: 0.492_307_7,
            },
        ],
        vec![
            (
                "Galaxy S8/blocking".to_owned(),
                RaceCell {
                    wins: 120,
                    trials: 120,
                },
            ),
            (
                "odd \"label\"\\".to_owned(),
                RaceCell { wins: 0, trials: 3 },
            ),
        ],
    );
    let idle = snapshot(vec![], vec![]);
    check_fixture(
        "telemetry_snapshot.jsonl",
        &format!("{}\n{}\n", busy.to_json_line(), idle.to_json_line()),
    );
}

fn host() -> HostFingerprint {
    HostFingerprint {
        rustc: "rustc 1.95.0 (59807616e 2026-04-14)".to_owned(),
        target: "x86_64-unknown-linux-gnu".to_owned(),
        cpu: "Intel(R) Xeon(R) \"Processor\"".to_owned(),
        cores: 2,
    }
}

/// A hotpaths artifact with the given schema, host block and one value
/// per section.
fn artifact(schema: &str, host: Option<&HostFingerprint>, e1_ns: f64) -> String {
    let host_block = host
        .map(|h| format!("  \"host\": {},\n", h.render_json("  ")))
        .unwrap_or_default();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n{host_block}  \"ns_per_op\": {{\n    \"legacy_e1\": {e1_ns:.1},\n    \"odd \\\"kernel\\\"\": 60.0\n  }},\n  \"wall_ms\": {{\n    \"table1\": 3.5,\n    \"table1_units\": null\n  }},\n  \"throughput\": {{\n    \"campaign_trials_per_sec\": 4912.3\n  }}\n}}\n"
    )
}

#[test]
fn history_record_is_pinned() {
    let config = CompareConfig::default();
    let host = host();
    let v2 = compare(
        &artifact("blap-bench-hotpaths-v2", Some(&host), 363.3),
        &artifact("blap-bench-hotpaths-v2", Some(&host), 1250.55),
        &config,
    )
    .expect("v2 artifacts compare");
    let v1 = compare(
        &artifact("blap-bench-hotpaths-v1", None, 363.3),
        &artifact("blap-bench-hotpaths-v1", None, 300.0),
        &config,
    )
    .expect("v1 artifacts compare");
    let empty = compare(
        "{\"schema\":\"blap-bench-hotpaths-v1\"}",
        "{\"schema\":\"blap-bench-hotpaths-v1\"}",
        &config,
    )
    .expect("empty artifacts compare");
    check_fixture(
        "history_record.jsonl",
        &[
            history_record(&v2, 1_700_000_000),
            history_record(&v1, 1_700_000_001),
            history_record(&empty, 0),
        ]
        .concat(),
    );
}

#[test]
fn host_fingerprint_is_pinned() {
    let host = host();
    check_fixture(
        "host_fingerprint.json",
        &format!("{}\n{}\n", host.render_json("  "), host.render_json("")),
    );
}

#[test]
fn dirty_violation_summary_is_pinned() {
    let dirty = analyze_trace(
        "{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"bb:bb:bb:bb:bb:bb\",\"pdu\":\"LMP\\\"quote\"}\n\
         {\"t\":1400,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_au_rand\"}\n",
    )
    .expect("parses");
    let mut summary = ViolationSummary::new();
    summary.record("trial \"7\"", &dirty);
    summary.record("trial 8", &dirty);
    check_fixture(
        "violation_summary.json",
        &format!(
            "{}\n{}\n",
            summary.to_json(),
            ViolationSummary::new().to_json()
        ),
    );
}

#[test]
fn exported_metrics_document_is_pinned() {
    let mut metrics = Metrics::new();
    metrics.add("campaign.trials", 64);
    metrics.add("odd \"key\"", 0);
    metrics.gauge_max("peak", 17);
    for v in [0, 1, 3, 900, u64::MAX] {
        metrics.observe("latency_us", v);
    }
    let doc = export_json(
        &[
            (
                "experiment",
                MetaValue::Str("table2 \"observed\"".to_owned()),
            ),
            ("seed", MetaValue::Int(2022)),
        ],
        &metrics,
    );
    check_fixture(
        "exported_metrics.json",
        &format!("{doc}{}", export_json(&[], &Metrics::new())),
    );
}
