//! Golden-seed fixtures for the hot-path performance work.
//!
//! The zero-copy / table-kernel refactor (ISSUE 3) is only safe because
//! every observable artifact is pinned: btsnoop bytes, USB capture
//! streams, Table I/II stdout, the `--trace` JSONL, and the merged
//! metrics document. These tests compare today's output against fixtures
//! captured from the pre-refactor tree, at `BLAP_JOBS=1` and
//! `BLAP_JOBS=8`, so a perf change that shifts a single byte fails
//! loudly.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```text
//! BLAP_REGEN_FIXTURES=1 cargo test --test golden_outputs
//! ```

use blap::campaign::{Campaign, Population};
use blap::legacy_pin::{crack_numeric_pin_with, LegacyPairingCapture};
use blap::report;
use blap::runner::Jobs;
use blap_bench::{
    run_table1_observed_with, run_table1_with, run_table2_observed_with, run_table2_with,
};
use blap_repro::attacks::eavesdrop::EavesdropScenario;
use blap_repro::sim::{profiles, World};
use blap_repro::types::{Duration, ServiceUuid};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture, or rewrites the fixture
/// when `BLAP_REGEN_FIXTURES` is set. Failure messages report the first
/// differing offset instead of dumping kilobytes of bytes.
fn check_fixture(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("BLAP_REGEN_FIXTURES").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures dir");
        fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run BLAP_REGEN_FIXTURES=1 cargo test")
    });
    if expected != actual {
        let first_diff = expected
            .iter()
            .zip(actual.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        panic!(
            "{name} diverged from golden fixture: expected {} bytes, got {} bytes, \
             first difference at offset {first_diff}",
            expected.len(),
            actual.len()
        );
    }
}

/// The Fig 11 world: a USB-transport Windows PC bonding with a
/// snoop-enabled Android phone, including a disconnect/reconnect cycle,
/// so both observation taps (USB analyzer and btsnoop dump) see the
/// link key cross HCI.
fn fig11_world() -> (World, blap_repro::sim::DeviceId, blap_repro::sim::DeviceId) {
    let mut world = World::new(11);
    let pc = world.add_device(profiles::windows_ms_driver().soft_target("00:1b:7d:da:71:0a"));
    let phone =
        world.add_device(profiles::lg_velvet().victim_phone_with_snoop("48:90:12:34:56:78"));
    let phone_addr = "48:90:12:34:56:78".parse().expect("valid address");
    world.device_mut(pc).host.pair_with(phone_addr);
    world.run_for(Duration::from_secs(5));
    world.device_mut(pc).host.disconnect(phone_addr);
    world.run_for(Duration::from_secs(2));
    world
        .device_mut(pc)
        .host
        .connect_profile(phone_addr, ServiceUuid::HANDS_FREE);
    world.run_for(Duration::from_secs(5));
    (world, pc, phone)
}

#[test]
fn golden_btsnoop_and_usb_capture_bytes() {
    let (world, pc, phone) = fig11_world();
    let snoop = world.device(phone).bug_report().expect("snoop on");
    let usb = world.device(pc).usb_capture().expect("USB transport");
    check_fixture("fig11_phone.btsnoop", &snoop);
    check_fixture("fig11_pc_usb.bin", &usb);
}

/// The campaign path, which the other fixtures leave to self-comparison
/// (jobs 1 vs 8): a 96-trial fleet campaign's merged metrics document.
/// Every trial runs SSP Authentication Stage 1, one ECDH per pairing
/// through the world's DHKey memo; `fig11_phone.btsnoop` above already
/// pins one `f2(DHKey)` link key byte for byte.
#[test]
fn golden_fleet_campaign_metrics() {
    let campaign = Campaign {
        population: Population::fleet(),
        trials: 96,
        shards: 6,
        seed: 1701,
    };
    let metrics = campaign.run(Jobs::serial()).to_json();
    check_fixture("fleet_campaign_metrics.json", metrics.as_bytes());
}

#[test]
fn golden_table1_stdout() {
    for jobs in [1, 8] {
        let rendered = report::table1(&run_table1_with(2022, Jobs::new(jobs)));
        check_fixture("table1.txt", rendered.as_bytes());
    }
}

#[test]
fn golden_table2_stdout() {
    for jobs in [1, 8] {
        let rendered = report::table2(&run_table2_with(2022, 4, Jobs::new(jobs)));
        check_fixture("table2.txt", rendered.as_bytes());
    }
}

#[test]
fn golden_table2_trace_and_metrics() {
    for jobs in [1, 8] {
        let observed = run_table2_observed_with(2022, 2, Jobs::new(jobs));
        check_fixture("table2_trace.jsonl", observed.trace.as_bytes());
        check_fixture("table2_metrics.json", observed.metrics.to_json().as_bytes());
    }
}

#[test]
fn golden_table1_trace() {
    // The extraction trace (with its causal spans) is pinned too, so the
    // CI `blap-trace check` step has a representative Table I artifact.
    let observed = run_table1_observed_with(2022, Jobs::new(8));
    check_fixture("table1_trace.jsonl", observed.trace.as_bytes());
}

#[test]
fn golden_trace_check_and_timeline_reports() {
    // Mirrors `blap-trace check` / `blap-trace timeline` over the pinned
    // Table I/II traces: the streaming analyzer's rendered reports are
    // fixtures too, and CI diffs the CLI's actual stdout against the same
    // files — so the library and the binary are pinned to each other.
    for table in ["table1", "table2"] {
        let trace = fs::read_to_string(fixture_path(&format!("{table}_trace.jsonl")))
            .expect("trace fixture present");
        let mut analyzer = blap_obs::StreamAnalyzer::new();
        for line in trace.lines() {
            analyzer.push_line(line).expect("fixture lines parse");
        }
        let analysis = analyzer.finish();
        assert!(analysis.ok(), "pinned traces are violation-free");
        let check = format!("{}OK: all invariants hold\n", analysis.report());
        check_fixture(&format!("{table}_check.txt"), check.as_bytes());
        let timeline = format!(
            "{} lines, {} trial segments\n{}",
            analysis.line_count,
            analysis.segment_count,
            analysis.profile.render()
        );
        check_fixture(&format!("{table}_timeline.txt"), timeline.as_bytes());
    }
}

#[test]
fn golden_eavesdrop_report() {
    // Locks the sniffer's AES-CCM seal path and the offline decrypt path:
    // a summary of the stolen key and every recovered plaintext.
    let report = EavesdropScenario::new(404).run();
    let mut summary = String::new();
    writeln!(summary, "frames={}", report.captured_encrypted_frames).unwrap();
    writeln!(
        summary,
        "ciphertext_contains_secrets={}",
        report.ciphertext_contains_secrets
    )
    .unwrap();
    writeln!(summary, "stolen_key={:?}", report.stolen_key).unwrap();
    for secret in &report.decrypted_secrets {
        writeln!(summary, "secret={}", String::from_utf8_lossy(secret)).unwrap();
    }
    check_fixture("eavesdrop_404.txt", summary.as_bytes());
}

#[test]
fn golden_pincrack_result() {
    // Locks the SAFER+/E1/E21/E22 kernel chain end to end: the recovered
    // PIN and link key for a fixed synthesized capture must never move.
    let capture = LegacyPairingCapture::synthesize(
        "11:11:11:11:11:11".parse().expect("valid address"),
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address"),
        b"73019",
        [0x11; 16],
        [0x22; 16],
        [0x33; 16],
        [0x44; 16],
    );
    for jobs in [1, 8] {
        let hit = crack_numeric_pin_with(&capture, 5, Jobs::new(jobs)).expect("PIN cracks");
        let summary = format!(
            "pin={}\nkey={}\nattempts={}\n",
            String::from_utf8_lossy(&hit.pin),
            hit.link_key,
            hit.attempts
        );
        check_fixture("pincrack_73019.txt", summary.as_bytes());
    }
}
