//! `blap-campaign` — fleet-scale population sweeps over the page blocking
//! attack, with streaming aggregation and checkpoint/resume.
//!
//! ```text
//! cargo run --release -p blap-bench --bin blap-campaign -- \
//!     [--population fleet|table2|mitigated] [--trials N] [--shards N] \
//!     [--seed N] [--jobs N] [--metrics out/metrics.json] \
//!     [--checkpoint ck.json] [--checkpoint-every N] [--resume] \
//!     [--stop-after N] [--check-invariants] \
//!     [--telemetry telemetry.jsonl] [--telemetry-interval MS]
//! ```
//!
//! Trials are sharded across workers; each shard runs its own worlds and
//! folds them into one metrics bag, so memory stays bounded at any trial
//! count. The metrics artifact and the checkpoint file are byte-identical
//! at any `--jobs`/`BLAP_JOBS` value and across an interrupt/resume split
//! (merge associativity; pinned in `tests/parallel_determinism.rs`).
//!
//! `--checkpoint` writes the running aggregate (atomically, tmp+rename)
//! every `--checkpoint-every` shards (default 64); `--resume` continues
//! from it after an interrupt. `--stop-after N` exits cleanly after N
//! shards — deterministic interrupt injection for the CI resume smoke.
//!
//! `--check-invariants` streams every trial's trace through the
//! per-trial invariant checkers *while the campaign runs*: violations
//! surface live on stderr (capped per shard), and the merged
//! [`ViolationSummary`] — byte-identical at any `--jobs` value — is
//! printed with the final report, embedded in the checkpoint, and turns
//! the exit status to 1 (after all artifacts are written). Metrics bytes
//! are unchanged by the flag.
//!
//! Live progress is always on: a one-line stderr heartbeat redraws every
//! `--telemetry-interval` milliseconds (default 1000). `--telemetry
//! <path>` additionally appends each sampled
//! [`blap_obs::telemetry::TelemetrySnapshot`] as a JSONL line for
//! `blap-top` to tail-follow. Telemetry is wall-time sidecar data, like
//! `profile.json`: the metrics artifact and checkpoint stay
//! byte-identical with it on or off, at any worker count. The worker
//! utilization lines printed at the end come from the session's final
//! snapshot; the wall-time profiler runs only under `--profile <prefix>`
//! or `BLAP_PROF=1`.

use std::time::{Duration, Instant};

use blap::campaign::{Campaign, Population};
use blap_bench::checkpoint::{self, Checkpoint};
use blap_bench::cli::{self, Args};
use blap_obs::telemetry::{self, TelemetrySnapshot};
use blap_obs::{MetaValue, Metrics, ViolationSummary};

/// Default shard count between checkpoint writes.
const DEFAULT_CHECKPOINT_EVERY: u64 = 64;

/// Default telemetry sampling interval in milliseconds.
const DEFAULT_TELEMETRY_INTERVAL_MS: u64 = 1000;

fn main() {
    let args = Args::parse_with(
        &[
            "--population",
            "--trials",
            "--shards",
            "--seed",
            "--checkpoint",
            "--checkpoint-every",
            "--stop-after",
            "--telemetry",
            "--telemetry-interval",
        ],
        &["--resume", "--check-invariants"],
    );
    let population_name: String = args
        .extra_or("--population", "fleet".to_owned())
        .unwrap_or_else(die);
    let population = Population::by_name(&population_name).unwrap_or_else(|| {
        die(format!(
            "--population {population_name:?} is not one of {:?}",
            Population::names()
        ))
    });
    let trials: u64 = args.extra_or("--trials", 10_000).unwrap_or_else(die);
    let seed: u64 = args.extra_or("--seed", 2022).unwrap_or_else(die);
    let shards: u64 = args.extra_or("--shards", 0).unwrap_or_else(die);
    let checkpoint_every: u64 = args
        .extra_or("--checkpoint-every", DEFAULT_CHECKPOINT_EVERY)
        .unwrap_or_else(die);
    let stop_after: u64 = args.extra_or("--stop-after", u64::MAX).unwrap_or_else(die);
    let checkpoint_path: String = args
        .extra_or("--checkpoint", String::new())
        .unwrap_or_else(die);
    let checkpoint_path = (!checkpoint_path.is_empty()).then_some(checkpoint_path);
    if checkpoint_every == 0 {
        die::<u64>("--checkpoint-every must be at least 1".to_owned());
    }
    if args.has_switch("--resume") && checkpoint_path.is_none() {
        die::<u64>("--resume needs --checkpoint <path> to resume from".to_owned());
    }
    let check_invariants = args.has_switch("--check-invariants");
    let telemetry_path: String = args
        .extra_or("--telemetry", String::new())
        .unwrap_or_else(die);
    let telemetry_path = (!telemetry_path.is_empty()).then_some(telemetry_path);
    let telemetry_interval_ms: u64 = args
        .extra_or("--telemetry-interval", DEFAULT_TELEMETRY_INTERVAL_MS)
        .unwrap_or_else(die);
    if telemetry_interval_ms == 0 {
        die::<u64>("--telemetry-interval must be at least 1 (milliseconds)".to_owned());
    }

    let mut campaign = Campaign::new(population, trials, seed);
    if shards > 0 {
        campaign.shards = shards;
    }
    let total_shards = campaign.shard_count();
    let jobs = args.resolve_jobs(usize::MAX);
    args.init_profiling();

    println!(
        "== blap-campaign: population {:?}, {trials} trials, {total_shards} shards, seed {seed} ==",
        campaign.population.name
    );

    let (mut next_shard, mut merged, mut summary) = if args.has_switch("--resume") {
        let path = checkpoint_path.as_deref().expect("checked above");
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| die(format!("cannot read checkpoint {path}: {err}")));
        let Checkpoint {
            next_shard,
            metrics,
            invariants,
        } = checkpoint::parse(&text, &campaign, check_invariants)
            .unwrap_or_else(|err| die(format!("checkpoint {path}: {err}")));
        println!("resumed from {path}: {next_shard}/{total_shards} shards already aggregated");
        let invariants = invariants.filter(|_| check_invariants);
        (next_shard, metrics, invariants.unwrap_or_default())
    } else {
        (0, Metrics::new(), ViolationSummary::new())
    };

    let stop_at = next_shard.saturating_add(stop_after).min(total_shards);
    // Live telemetry rides beside the run: the heartbeat is always on,
    // the JSONL sidecar only under --telemetry. Sidecar-only, so the
    // artifacts below never see it.
    telemetry::begin_session(telemetry::SessionTotals {
        trials_total: trials,
        shards_total: total_shards,
        trials_done: merged.counter("campaign.trials"),
        shards_done: next_shard,
    });
    let collector = telemetry::Collector::start(
        telemetry_path.clone(),
        Duration::from_millis(telemetry_interval_ms),
        true,
    )
    .unwrap_or_else(|err| {
        die(format!(
            "cannot open telemetry sidecar {}: {err}",
            telemetry_path.as_deref().unwrap_or("?")
        ))
    });
    let started = Instant::now();
    let resumed_from = next_shard;
    while next_shard < stop_at {
        let wave_end = next_shard
            .saturating_add(checkpoint_every)
            .min(stop_at)
            .max(next_shard + 1);
        if check_invariants {
            let (metrics, violations) = campaign.run_shards_checked(jobs, next_shard, wave_end);
            merged.merge(&metrics);
            summary.merge(&violations);
        } else {
            merged.merge(&campaign.run_shards(jobs, next_shard, wave_end));
        }
        next_shard = wave_end;
        if let Some(path) = &checkpoint_path {
            let invariants = check_invariants.then_some(&summary);
            write_checkpoint(
                path,
                &checkpoint::render(&campaign, next_shard, &merged, invariants),
            );
        }
    }
    let wall = started.elapsed();
    let telemetry_report = collector.stop();
    if let Some(path) = &telemetry_path {
        eprintln!(
            "telemetry sidecar: {path} ({} snapshots written, {} dropped from the ring)",
            telemetry_report.lines_written,
            telemetry_report.ring.dropped()
        );
    }

    let already_swept = if resumed_from >= total_shards {
        trials
    } else {
        campaign.shard_range(resumed_from).0
    };
    let swept = merged.counter("campaign.trials") - already_swept;
    println!(
        "ran {swept} trials across {} shards in {wall:.2?} ({:.0} trials/s, {} workers)",
        next_shard - resumed_from,
        swept as f64 / wall.as_secs_f64().max(1e-9),
        jobs.get()
    );
    print_utilization(telemetry_report.ring.latest());

    if next_shard < total_shards {
        println!(
            "stopped after {} shards ({next_shard}/{total_shards} aggregated); \
             rerun with --resume to finish",
            next_shard - resumed_from
        );
        return;
    }

    print_summary(&campaign, &merged);
    if check_invariants {
        print!("\n{}", summary.render());
    }
    if let Some(path) = &args.metrics_path {
        cli::write_metrics(
            path,
            &[
                ("experiment", MetaValue::Str("campaign".to_owned())),
                (
                    "population",
                    MetaValue::Str(campaign.population.name.to_owned()),
                ),
                ("trials", MetaValue::Int(trials)),
                ("shards", MetaValue::Int(total_shards)),
                ("seed", MetaValue::Int(seed)),
            ],
            &merged,
            wall,
        );
    }
    args.write_profile();
    // Violations flip the exit status, but only after every artifact is
    // on disk — a dirty campaign is still a complete one.
    if check_invariants && !summary.is_clean() {
        std::process::exit(1);
    }
}

/// Prints the campaign verdict counters and the per-device win table.
fn print_summary(campaign: &Campaign, merged: &Metrics) {
    let total = merged.counter("campaign.trials").max(1);
    let percent = |n: u64| 100.0 * n as f64 / total as f64;
    println!(
        "\nmitm established: {}/{} ({:.1}%)  paired with attacker: {} ({:.1}%)",
        merged.counter("campaign.mitm_established"),
        total,
        percent(merged.counter("campaign.mitm_established")),
        merged.counter("campaign.paired_with_attacker"),
        percent(merged.counter("campaign.paired_with_attacker")),
    );
    println!(
        "modes: {} blocking / {} baseline   downgraded to Just Works: {}   security alerts: {}",
        merged.counter("campaign.mode.blocking"),
        merged.counter("campaign.mode.baseline"),
        merged.counter("campaign.downgraded_to_just_works"),
        merged.counter("campaign.security_alert"),
    );
    println!(
        "\n{:<24} {:>18} {:>18}",
        "device", "blocking wins", "baseline wins"
    );
    for (profile, _) in &campaign.population.pool {
        let scoped =
            |suffix: &str| merged.counter(&format!("campaign.device.{}.{suffix}", profile.name));
        let cell = |wins: u64, runs: u64| {
            if runs == 0 {
                "-".to_owned()
            } else {
                format!("{wins}/{runs} ({:.0}%)", 100.0 * wins as f64 / runs as f64)
            }
        };
        println!(
            "{:<24} {:>18} {:>18}",
            profile.name,
            cell(scoped("blocking_wins"), scoped("blocking_trials")),
            cell(scoped("baseline_wins"), scoped("baseline_trials")),
        );
    }
}

/// Prints per-worker shards, busy time and imbalance for the shard pool,
/// from the telemetry session's final snapshot. Imbalance is a worker's
/// busy time against the mean over the workers that ran.
fn print_utilization(snapshot: Option<&TelemetrySnapshot>) {
    let Some(snapshot) = snapshot.filter(|s| !s.workers.is_empty()) else {
        return;
    };
    let lanes = snapshot.workers.len() as f64;
    let mean_busy_ms = snapshot.workers.iter().map(|w| w.busy_ms).sum::<u64>() as f64 / lanes;
    println!(
        "worker utilization: {:.1}% of {:.2?} wall",
        100.0 * snapshot.workers.iter().map(|w| w.utilization).sum::<f64>() / lanes,
        Duration::from_millis(snapshot.wall_ms)
    );
    for worker in &snapshot.workers {
        let imbalance = if mean_busy_ms > 0.0 {
            worker.busy_ms as f64 / mean_busy_ms
        } else {
            1.0
        };
        println!(
            "  worker {:>2}: {:>5} shards  {:>8.2?} busy  imbalance {:+.1}%",
            worker.worker,
            worker.tasks,
            Duration::from_millis(worker.busy_ms),
            100.0 * (imbalance - 1.0),
        );
    }
}

/// Atomically writes a rendered checkpoint: tmp file, then rename.
fn write_checkpoint(path: &str, body: &str) {
    let tmp = format!("{path}.tmp");
    cli::write_artifact(&tmp, body);
    if let Err(err) = std::fs::rename(&tmp, path) {
        eprintln!("error: cannot move {tmp} into place: {err}");
        std::process::exit(1);
    }
}

fn die<T>(message: String) -> T {
    eprintln!("error: {message}");
    std::process::exit(2);
}
