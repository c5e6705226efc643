//! `blap-top` — a live terminal dashboard over a campaign's telemetry
//! sidecar.
//!
//! ```text
//! blap-top telemetry.jsonl [--once] [--interval MS] [--idle-ms MS]
//! ```
//!
//! Tail-follows the JSONL sidecar `blap-campaign --telemetry` appends
//! to, redrawing the dashboard in place every `--interval` milliseconds
//! (default 500): throughput with a sparkline, per-worker utilization,
//! win rates, violation counts, and the ETA. Follows until interrupted,
//! or — with `--idle-ms N` — until the sidecar stops growing for N
//! milliseconds (the campaign finished).
//!
//! `--once` is the non-interactive mode for CI and scripts: read the
//! whole file, render the latest complete snapshot once, and exit —
//! status 0 on a render, 1 when the file holds no complete snapshot,
//! 2 on a malformed file. A torn final line (the campaign was killed
//! mid-append, or is still writing) is tolerated in both modes: the
//! complete prefix renders, the torn tail waits or is skipped.

use std::time::{Duration, Instant};

use blap_bench::cli::Args;
use blap_bench::top::{self, TailReader};
use blap_obs::telemetry::TelemetrySnapshot;

/// How much snapshot history the follower retains for the sparkline.
const HISTORY: usize = 256;

fn main() {
    let args = Args::parse_with(&["--interval", "--idle-ms"], &["--once"]);
    let Some(path) = args.positional.first().cloned() else {
        die("usage: blap-top <telemetry.jsonl> [--once] [--interval MS] [--idle-ms MS]".to_owned())
    };
    let interval_ms: u64 = args.extra_or("--interval", 500).unwrap_or_else(die);
    let idle_ms: u64 = args.extra_or("--idle-ms", 0).unwrap_or_else(die);

    let mut reader = TailReader::new();
    if args.has_switch("--once") {
        let mut snapshots = reader
            .poll(&path)
            .unwrap_or_else(|err| die(format!("{path}: {err}")));
        let torn = reader.finish().map(|last| snapshots.extend(last)).is_err();
        if snapshots.is_empty() {
            eprintln!("blap-top: {path} holds no complete snapshot yet");
            std::process::exit(1);
        }
        if torn {
            eprintln!("blap-top: note: skipped a torn final line (writer mid-append)");
        }
        print!("{}", top::render(&snapshots));
        return;
    }

    let mut history: Vec<TelemetrySnapshot> = Vec::new();
    let mut last_growth = Instant::now();
    loop {
        match reader.poll(&path) {
            Ok(fresh) if !fresh.is_empty() => {
                history.extend(fresh);
                if history.len() > HISTORY {
                    let excess = history.len() - HISTORY;
                    history.drain(..excess);
                }
                last_growth = Instant::now();
                // Redraw in place: home the cursor, repaint, clear the
                // remainder so a shrinking table leaves no residue.
                print!("\x1b[H\x1b[2J{}", top::render(&history));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Ok(_) => {
                if history.is_empty() {
                    // Nothing yet: keep waiting for the first snapshot.
                    last_growth = Instant::now();
                }
                if idle_ms > 0 && last_growth.elapsed() >= Duration::from_millis(idle_ms) {
                    eprintln!("blap-top: {path} idle for {idle_ms} ms, exiting");
                    return;
                }
            }
            Err(err) => die(format!("{path}: {err}")),
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}

fn die<T>(message: String) -> T {
    eprintln!("error: {message}");
    std::process::exit(2);
}
