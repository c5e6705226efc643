//! `blap-bench` — perf tooling over the bench artifacts.
//!
//! ```text
//! blap-bench compare <baseline.json> <fresh.json> [--strict]
//!     [--ns-threshold F] [--wall-threshold F] [--throughput-threshold F]
//!     [--history PATH]
//! blap-bench prof <table1|table2> [positionals] [--jobs N] [--profile PREFIX]
//! ```
//!
//! `compare` diffs two `BENCH_hotpaths.json` artifacts and gates on the
//! per-metric thresholds: exit 0 on pass (or a cross-host excusal), 1 on a
//! same-host regression, 2 on a usage error or an artifact it cannot read,
//! decode or (under `--strict`) gate. `--history` appends one
//! JSONL record per run to the given file. `--strict` turns cross-host
//! excusals into failures.
//!
//! `prof` runs a table workload with wall-time profiling force-enabled and
//! prints the scope tree plus worker-utilization summary; `--profile PREFIX`
//! additionally writes the `PREFIX.json` + `PREFIX.folded` sidecar pair.

use std::time::{SystemTime, UNIX_EPOCH};

use blap_bench::cli::Args;
use blap_bench::compare::{compare, history_record, CompareConfig};
use blap_obs::prof;

const USAGE: &str = "usage:\n  blap-bench compare <baseline.json> <fresh.json> [--strict] \
                     [--ns-threshold F] [--wall-threshold F] [--throughput-threshold F] \
                     [--history PATH]\n  \
                     blap-bench prof <table1|table2> [positionals] [--jobs N] [--profile PREFIX]";

/// A command-line mistake: the error, then the usage text.
fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// A well-formed command that cannot run on its inputs: the error alone.
fn error_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("compare") => run_compare(argv),
        Some("prof") => run_prof(argv),
        Some(other) => usage_exit(&format!("unknown subcommand {other:?}")),
        None => usage_exit("missing subcommand"),
    }
}

fn run_compare(mut argv: impl Iterator<Item = String>) -> ! {
    let mut paths: Vec<String> = Vec::new();
    let mut config = CompareConfig::default();
    let mut history: Option<String> = None;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--strict" => config.strict = true,
            "--ns-threshold" => config.ns_threshold = parse_threshold(&value("--ns-threshold")),
            "--wall-threshold" => {
                config.wall_threshold = parse_threshold(&value("--wall-threshold"))
            }
            "--throughput-threshold" => {
                config.throughput_threshold = parse_threshold(&value("--throughput-threshold"))
            }
            "--history" => history = Some(value("--history")),
            flag if flag.starts_with("--") => usage_exit(&format!("unknown flag {flag}")),
            _ => paths.push(arg),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        usage_exit("compare takes exactly two artifact paths");
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|err| error_exit(&format!("cannot read {path}: {err}")))
    };
    let comparison = compare(&read(baseline_path), &read(fresh_path), &config)
        .unwrap_or_else(|err| error_exit(&err.to_string()));
    print!("{}", comparison.render());
    if let Some(history_path) = history {
        let unix_time = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let record = history_record(&comparison, unix_time);
        append_line(&history_path, &record);
        eprintln!("history: appended to {history_path}");
    }
    std::process::exit(match comparison.verdict {
        blap_bench::compare::Verdict::Regressed => 1,
        _ => 0,
    });
}

fn parse_threshold(text: &str) -> f64 {
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() && value >= 0.0 => value,
        _ => usage_exit(&format!(
            "threshold must be a non-negative number, got {text:?}"
        )),
    }
}

fn append_line(path: &str, line: &str) {
    use std::io::Write as _;
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(line.as_bytes()));
    if let Err(err) = result {
        error_exit(&format!("cannot append to {path}: {err}"));
    }
}

fn run_prof(argv: impl Iterator<Item = String>) -> ! {
    let args = match Args::try_from_iter(argv) {
        Ok(args) => args,
        Err(message) => usage_exit(&message),
    };
    let Some(workload) = args.positional.first().cloned() else {
        usage_exit("prof needs a workload (table1 or table2)");
    };
    prof::set_enabled(true);
    let jobs = args.resolve_jobs(usize::MAX);
    match workload.as_str() {
        "table1" => {
            let seed: u64 = args.positional_or(1, 2022);
            let observed = blap_bench::run_table1_observed_with(seed, jobs);
            eprintln!(
                "profiled table1: seed {seed}, {} rows, {} workers",
                observed.rows.len(),
                jobs.get()
            );
        }
        "table2" => {
            let trials: usize = args.positional_or(1, 4);
            let seed: u64 = args.positional_or(2, 2022);
            let observed = blap_bench::run_table2_observed_with(seed, trials, jobs);
            eprintln!(
                "profiled table2: {trials} trials, seed {seed}, {} rows, {} workers",
                observed.rows.len(),
                jobs.get()
            );
        }
        other => usage_exit(&format!("unknown workload {other:?} (table1 or table2)")),
    }
    print!("{}", prof::report().render_table());
    args.write_profile();
    std::process::exit(0);
}
