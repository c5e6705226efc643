//! Output contract of the `blap-campaign` binary's worker report.

use std::process::Command;

#[test]
fn a_single_worker_reports_zero_imbalance() {
    // Imbalance is a worker's busy time against the pool mean, printed
    // as a signed deviation: one worker is the mean, so +0.0%.
    let output = Command::new(env!("CARGO_BIN_EXE_blap-campaign"))
        .args(["--trials", "64"])
        .env("BLAP_JOBS", "1")
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let workers: Vec<&str> = stdout
        .lines()
        .filter(|line| line.contains("imbalance"))
        .collect();
    assert_eq!(workers.len(), 1, "one worker line: {stdout}");
    assert!(workers[0].contains("imbalance +0.0%"), "{stdout}");
}
