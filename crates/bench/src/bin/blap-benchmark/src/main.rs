//! `blap-benchmark` — the end-to-end and per-layer benchmark of the BLAP
//! reproduction, defined by `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/blap-benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--repeat N] \
//!     [--traced | --trace 0|1] [--out PATH]
//! ```
//!
//! Without `--workload` it runs every workload, each in its own child
//! process (a re-exec of this binary), one after another, so the peak RSS
//! it reports is per workload. `--repeat N` runs the whole set N times on
//! seeds `seed`, `seed + 1`, … and prints each metric's median and
//! quartiles; `--out` writes them as JSON.
//!
//! With `--workload` it runs that one workload in this process and prints
//! every metric by name with its unit, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. An untraced run reports the end-to-end metrics, a traced one
//! (`--traced`, `--trace 1`) the per-layer metrics. A failed correctness
//! check or operation exits 1; a usage or I/O error exits 2 without a
//! result line.
//!
//! Temporary files and a traced run's spans go under `target/` in this
//! package's directory, never outside the checkout.

mod checks;
mod config;
mod layers;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use blap_bench::cli::Args;
use blap_bench::compare::HostFingerprint;
use blap_obs::json::{self, Value};

use config::{Config, Metric};
use workloads::{Run, Workload};

/// Set-up-only child processes whose set-up times give the `setup_s`
/// median. Each is a fresh process, so one-time lazy work counts.
const SETUP_SAMPLES: usize = 3;

/// Where temporary files and spans go: inside the checkout, ignored by git.
const SCRATCH_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/blap-benchmark");

const USAGE: &str = "usage: blap-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--repeat N] [--traced | --trace 0|1] [--out PATH]";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    repeat: usize,
    traced: bool,
    out: Option<String>,
    setup_only: bool,
}

impl Options {
    fn parse(config: &Config) -> Result<Options, String> {
        let args = Args::try_from_iter_with(
            std::env::args().skip(1),
            &["--workload", "--seed", "--seconds", "--repeat", "--out"],
            &["--traced", "--setup-only"],
        )?;
        if !args.positional.is_empty()
            || args.metrics_path.is_some()
            || args.jobs.is_some()
            || args.profile_prefix.is_some()
        {
            return Err(USAGE.to_owned());
        }
        let workload = match args.extra.iter().find(|(flag, _)| flag == "--workload") {
            None => None,
            Some((_, name)) => Some(Workload::from_name(name).ok_or_else(|| {
                format!("unknown workload {name:?}; BENCHMARK.json defines {:?}", {
                    config
                        .workloads
                        .iter()
                        .map(|w| w.name.as_str())
                        .collect::<Vec<_>>()
                })
            })?),
        };
        let traced = match args.trace_path.as_deref() {
            None | Some("0") => args.has_switch("--traced"),
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let seconds = args.extra_or("--seconds", config.run_seconds)?;
        let repeat = args.extra_or("--repeat", 1)?;
        if seconds == 0 || repeat == 0 {
            return Err("--seconds and --repeat must be at least 1".to_owned());
        }
        let out: String = args.extra_or("--out", String::new())?;
        Ok(Options {
            workload,
            seed: args.extra_or("--seed", 2022)?,
            seconds,
            repeat,
            traced,
            out: (!out.is_empty()).then_some(out),
            setup_only: args.has_switch("--setup-only"),
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let config = Config::embedded();
    let options = match Options::parse(&config) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // Every workload the definition names must exist here, and back.
    let defined: Vec<&str> = config.workloads.iter().map(|w| w.name.as_str()).collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if defined != built {
        eprintln!("error: BENCHMARK.json defines {defined:?}, this build runs {built:?}");
        return ExitCode::from(2);
    }
    match options.workload {
        Some(workload) => run_one(&config, &options, workload, started),
        None => run_all(&config, &options),
    }
}

// --- one workload, in this process -------------------------------------------------

fn run_one(config: &Config, options: &Options, workload: Workload, started: Instant) -> ExitCode {
    let scratch = PathBuf::from(SCRATCH_ROOT).join(std::process::id().to_string());
    let run = Run {
        seed: options.seed,
        seconds: options.seconds as f64,
        traced: options.traced,
        scratch: scratch.clone(),
    };
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|err| format!("cannot create {}: {err}", scratch.display()))
        .and_then(|()| {
            // Set-up is timed in the children first, so this process's own
            // set-up runs right before the loop it warms up for.
            let timed_setup = !options.setup_only && !options.traced;
            let setup_samples = (0..if timed_setup { SETUP_SAMPLES } else { 0 })
                .map(|_| setup_in_child(options, workload))
                .collect::<Result<Vec<f64>, String>>()?;
            let prepared = workloads::setup(workload, &run)?;
            if options.setup_only {
                println!("{}", started.elapsed().as_secs_f64());
                return Ok(None);
            }
            let mut outcome = workloads::measure(workload, &run, prepared, config)?;
            if timed_setup {
                let values = &mut outcome.values;
                values.insert("setup_s".to_owned(), stats::median(&setup_samples));
                values.insert("peak_rss_mib".to_owned(), sys::peak_rss_mib());
            }
            Ok(Some(outcome))
        });
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(outcome)) => report(config, workload, options.traced, outcome),
        Err(message) => {
            eprintln!("error: {}: {message}", workload.name());
            ExitCode::from(2)
        }
    }
}

/// Runs the workload's set-up in a fresh process and returns its time.
fn setup_in_child(options: &Options, workload: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find this binary: {err}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--setup-only"])
        .args(["--seed", &options.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot run a set-up child: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(seconds)) if output.status.success() => Ok(seconds),
        _ => Err(format!("set-up child failed ({}): {stdout}", output.status)),
    }
}

/// Prints every metric of the run's section, the notes and failed
/// checks, then the result line.
fn report(
    config: &Config,
    workload: Workload,
    traced: bool,
    outcome: workloads::Outcome,
) -> ExitCode {
    let name = workload.name();
    let section = if traced {
        &config.per_layer
    } else {
        &config.end_to_end
    };
    let values = outcome.values;
    if let Some(stray) = values
        .keys()
        .find(|k| !section.iter().any(|m| &m.name == *k))
    {
        eprintln!("error: {name} measured {stray}, which BENCHMARK.json does not define here");
        return ExitCode::from(2);
    }
    let mut fields = Vec::with_capacity(section.len());
    for metric in section {
        // A layer a workload never enters reports zero.
        let value = match values.get(&metric.name) {
            Some(value) => *value,
            None if traced => 0.0,
            None => {
                eprintln!("error: {name} did not measure {}", metric.name);
                return ExitCode::from(2);
            }
        };
        if !value.is_finite() {
            eprintln!("error: {name} measured {} = {value}", metric.name);
            return ExitCode::from(2);
        }
        println!(
            "{name:<15} {:<36} {value:>16.4} {}",
            metric.name, metric.unit
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    for note in &outcome.notes {
        println!("{name:<15} # {note}");
    }
    if traced {
        let path = PathBuf::from(SCRATCH_ROOT).join(format!("{name}.spans.jsonl"));
        match std::fs::write(&path, outcome.spans.to_jsonl()) {
            Ok(()) => println!("{name:<15} # spans: {}", path.display()),
            Err(err) => eprintln!("warning: cannot write {}: {err}", path.display()),
        }
    }
    let verdict = &outcome.verdict;
    for problem in &verdict.problems {
        eprintln!("CHECK FAILED ({name}): {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        fields.join(", ")
    );
    if verdict.correct() && verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// --- every workload, one child process each ----------------------------------------

/// A child's result line.
struct ChildResult {
    correct: bool,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn run_all(config: &Config, options: &Options) -> ExitCode {
    let host = HostFingerprint::current();
    println!(
        "== blap-benchmark: {} workloads x {} run(s) of {} s, seed {}{} ==",
        config.workloads.len(),
        options.repeat,
        options.seconds,
        options.seed,
        if options.traced { ", traced" } else { "" }
    );
    println!("host: {} ({} cores), {}", host.cpu, host.cores, host.rustc);
    let section = if options.traced {
        &config.per_layer
    } else {
        &config.end_to_end
    };
    // samples[workload][metric] over the repetitions.
    let mut samples = vec![vec![Vec::new(); section.len()]; config.workloads.len()];
    let mut clean = true;
    for rep in 0..options.repeat {
        let seed = options.seed.wrapping_add(rep as u64);
        for (w, workload) in config.workloads.iter().enumerate() {
            match run_child(options, &workload.name, seed) {
                Ok(result) => {
                    clean &= result.correct && result.failed == 0;
                    for (metric, value) in result.values {
                        if let Some(m) = section.iter().position(|s| s.name == metric) {
                            samples[w][m].push(value);
                        }
                    }
                }
                Err(message) => {
                    eprintln!("error: {}: {message}", workload.name);
                    clean = false;
                }
            }
        }
    }
    // Each run was printed in full above; the table adds the spread over
    // repetitions.
    if options.repeat > 1 {
        println!(
            "\n{:<15} {:<36} {:>14} {:>14} {:>14} {:>8} {:>3} unit (bound)",
            "workload", "metric", "median", "q1", "q3", "rel_iqr", "n"
        );
        for (w, workload) in config.workloads.iter().enumerate() {
            for (metric, values) in section.iter().zip(&samples[w]) {
                if values.is_empty() {
                    continue;
                }
                let (q1, q2, q3) = stats::quartiles(values);
                println!(
                    "{:<15} {:<36} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4} {:>3} {}{}",
                    workload.name,
                    metric.name,
                    stats::relative_iqr(values),
                    values.len(),
                    metric.unit,
                    metric.bound.map_or(String::new(), |b| format!(" ({b})")),
                );
            }
        }
    }
    if let Some(path) = &options.out {
        let body = render_out(config, section, &samples, options, &host);
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a workload failed its checks (see above)");
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process, echoing its report lines.
fn run_child(options: &Options, workload: &str, seed: u64) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find this binary: {err}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot run the workload: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = json::parse(last)
        .map_err(|err| format!("exited {} without a result line ({err})", output.status))?;
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    let failed = result
        .get("failed")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    let values = match result.get("metrics") {
        Some(Value::Object(members)) => members
            .iter()
            .filter_map(|(name, metric)| match metric.get("value") {
                Some(Value::Num(text)) => text.parse().ok().map(|v| (name.clone(), v)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        correct: correct && output.status.success(),
        failed,
        values,
    })
}

/// The `--out` document: the host, the run shape and, per workload and
/// metric, the median and quartiles over the repetitions.
fn render_out(
    config: &Config,
    section: &[Metric],
    samples: &[Vec<Vec<f64>>],
    options: &Options,
    host: &HostFingerprint,
) -> String {
    let workloads: Vec<String> = config
        .workloads
        .iter()
        .enumerate()
        .map(|(w, workload)| {
            let metrics: Vec<String> = section
                .iter()
                .enumerate()
                .filter(|(m, _)| !samples[w][*m].is_empty())
                .map(|(m, metric)| {
                    let (q1, q2, q3) = stats::quartiles(&samples[w][m]);
                    format!(
                        "      \"{}\": {{\"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {}, \"unit\": \"{}\"}}",
                        metric.name,
                        samples[w][m].len(),
                        json::escape(&metric.unit)
                    )
                })
                .collect();
            format!("    \"{}\": {{\n{}\n    }}", workload.name, metrics.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"host\": {},\n  \"seed\": {},\n  \"runs\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.render_json("  "),
        options.seed,
        options.repeat,
        options.seconds,
        options.traced,
        workloads.join(",\n")
    )
}
