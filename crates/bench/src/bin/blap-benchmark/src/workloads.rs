//! The four workloads.
//!
//! Each is a closed loop with one client on one worker thread: it starts
//! its next unit (a campaign shard, a trace pass, a paper reproduction)
//! only when the previous one has finished, until the run's seconds are
//! spent. Inputs come from the seed alone. Every unit runs inside one of
//! the benchmark's own [`Spans`], and the rates are taken from those
//! spans' first-quartile time (see [`unit_time`]).
//!
//! A traced run pairs every unit with a twin run under `prof`: the twin
//! gives the per-layer numbers, the pair gives the tracing overhead, and
//! the untraced unit keeps the workload's checks exactly as in an
//! end-to-end run.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use blap::campaign::{Campaign, Population};
use blap::link_key_extraction::ExtractionReport;
use blap::page_blocking::PageBlockingRow;
use blap::runner::Jobs;
use blap_bench::{run_table1_observed_with, run_table2_observed_with, Observed};
use blap_obs::prof::{self, Report};
use blap_obs::telemetry::{self, Collector, SessionTotals};
use blap_obs::{
    Frame, FrameReader, FrameWriter, Metrics, StreamAnalyzer, TraceAnalysis, ViolationSummary,
};

use crate::checks::{self, fnv1a, Verdict};
use crate::config::Config;
use crate::layers::{self, Fold};
use crate::stats::{median, percentile, quartiles, reported_percentiles};

/// Trials per campaign: six default 2048-trial shards.
const CAMPAIGN_TRIALS: u64 = 12_288;
/// Trials per timed campaign unit. Shorter than the default shard so a
/// run holds enough units for a steady quartile.
const SHARD_TRIALS: u64 = 256;
/// Trials of the set-up campaign that warms caches and lazy state: one
/// unit's worth, as the other workloads warm up with one unit.
const WARMUP_TRIALS: u64 = SHARD_TRIALS;
/// Telemetry sampling interval on `fleet_observed`, the CLI's default.
const TELEMETRY_INTERVAL: Duration = Duration::from_millis(1000);
/// Table II trials per condition in the trace `trace_check` reads.
const TRACE_TRIALS: usize = 100;
/// Table II trials per condition in a paper reproduction: the paper's.
const REPRO_TRIALS: usize = 100;
/// Units every run measures, however short its seconds.
const MIN_UNITS: usize = 3;

/// A workload, by the name `BENCHMARK.json` gives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Campaign trials on the plain path.
    Fleet,
    /// The same trials with live invariant checking and telemetry.
    FleetObserved,
    /// A Table II trace streamed through the analyzer in both formats.
    TraceCheck,
    /// Table I and Table II as a paper reader runs them.
    PaperRepro,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::FleetObserved,
        Workload::TraceCheck,
        Workload::PaperRepro,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::FleetObserved => "fleet_observed",
            Workload::TraceCheck => "trace_check",
            Workload::PaperRepro => "paper_repro",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run of a workload is given.
pub struct Run {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds to keep starting units.
    pub seconds: f64,
    /// Whether to pair each unit with a `prof`-traced twin.
    pub traced: bool,
    /// This process's directory for temporary files.
    pub scratch: PathBuf,
}

/// What one run of a workload measured.
pub struct Outcome {
    /// Operations attempted and failed, and failed checks.
    pub verdict: Verdict,
    /// Metric values by name: end-to-end on an untraced run, per-layer on
    /// a traced one. A per-layer metric absent here did not run.
    pub values: BTreeMap<String, f64>,
    /// Extra lines for the human report.
    pub notes: Vec<String>,
    /// The benchmark's spans around its calls into the program.
    pub spans: Spans,
}

/// State set-up leaves for the measured loop.
pub enum Prepared {
    /// A campaign workload: the running telemetry collector, if observed.
    Campaign(Option<Collector>),
    /// `trace_check`: the trace on disk in both formats.
    Trace(TraceFiles),
    /// `paper_repro`: digests of the warm-up reproduction.
    Paper(Digests),
}

/// Sets a workload up: warms caches and lazy state, writes its inputs.
pub fn setup(workload: Workload, run: &Run) -> Result<Prepared, String> {
    match workload {
        Workload::Fleet | Workload::FleetObserved => {
            let observed = workload == Workload::FleetObserved;
            let warmup = Campaign::new(Population::fleet(), WARMUP_TRIALS, !run.seed);
            run_shards(&warmup, 0, warmup.shard_count(), observed);
            if !observed {
                return Ok(Prepared::Campaign(None));
            }
            telemetry::begin_session(SessionTotals::default());
            let sidecar = run.scratch.join("telemetry.jsonl");
            Collector::start(
                Some(sidecar.display().to_string()),
                TELEMETRY_INTERVAL,
                false,
            )
            .map(|collector| Prepared::Campaign(Some(collector)))
            .map_err(|err| format!("cannot start telemetry at {}: {err}", sidecar.display()))
        }
        Workload::TraceCheck => {
            let observed = run_table2_observed_with(run.seed, TRACE_TRIALS, Jobs::serial());
            let files = TraceFiles::write(&run.scratch, &observed)?;
            // One warm-up pass over each file.
            check_jsonl(&files.jsonl, None)?;
            check_bin(&files.bin, None)?;
            Ok(Prepared::Trace(files))
        }
        Workload::PaperRepro => Ok(Prepared::Paper(reproduce(run.seed).digests())),
    }
}

/// Runs the workload's measured loop and its checks.
pub fn measure(
    workload: Workload,
    run: &Run,
    prepared: Prepared,
    config: &Config,
) -> Result<Outcome, String> {
    prof::reset();
    match (workload, prepared) {
        (Workload::Fleet, Prepared::Campaign(_)) => measure_campaign(run, None, config),
        (Workload::FleetObserved, Prepared::Campaign(Some(collector))) => {
            measure_campaign(run, Some(collector), config)
        }
        (Workload::TraceCheck, Prepared::Trace(files)) => measure_trace(run, &files, config),
        (Workload::PaperRepro, Prepared::Paper(reference)) => {
            measure_paper(run, &reference, config)
        }
        _ => unreachable!("setup prepares each workload's own state"),
    }
}

// --- spans --------------------------------------------------------------------

/// The benchmark's own spans: one around each call it makes into the
/// program. Kept in memory; a traced run writes them out when it ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Wall seconds of every span named `name`, in order.
    fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// One JSON line per span: id, parent, name, and start and end in ns
    /// from the run's start.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.name,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect()
    }
}

/// Whether a run that started at `start` and has measured `units` units
/// starts another.
fn keep_going(start: Instant, seconds: f64, units: usize) -> bool {
    units < MIN_UNITS || start.elapsed().as_secs_f64() < seconds
}

/// The time of one unit as the rates use it: the first quartile of the
/// units' wall times. On a shared host, bursts of contention from other
/// tenants slow a varying share of units; the fast quartile tracks the
/// program's own cost, and still moves one-for-one with it.
fn unit_time(seconds: &[f64]) -> f64 {
    quartiles(seconds).0
}

/// `100 × (median of traced ÷ untraced − 1)` over paired unit times.
fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
    100.0 * (median(&ratios) - 1.0)
}

/// A note with the median and reported tail of unit times in ms.
fn timing_note(what: &str, seconds: &[f64]) -> String {
    let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    let tails: Vec<String> = reported_percentiles(ms.len())
        .into_iter()
        .map(|p| format!("p{p} {:.2} ms", percentile(&ms, p)))
        .collect();
    format!("{what}: {} over {} units", tails.join(", "), ms.len())
}

// --- per-layer values -----------------------------------------------------------

/// Per-layer values from a traced run's `prof` report: each layer's self
/// time (and, for crypto kernels, entries) per traced trial, the runner's
/// pool accounting, and per-trial counts from the run's metrics bag.
/// Crypto kernels `BENCHMARK.json` does not list fold into `crypto.other`.
fn layer_values(
    config: &Config,
    report: &Report,
    traced_trials: f64,
    counts: &Metrics,
    counted_trials: f64,
) -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let fold: Fold = layers::fold(report)?;
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    let per_trial_us = |ns: u64| ns as f64 / 1e3 / traced_trials;
    for (layer, time) in &fold.layers {
        let self_key = format!("{layer}.self_us_per_trial");
        if config.metric(&self_key).is_some() {
            values.insert(self_key, per_trial_us(time.self_ns));
            if layer.starts_with("crypto.") {
                values.insert(
                    format!("{layer}.calls_per_trial"),
                    time.calls as f64 / traced_trials,
                );
            }
        } else if layer.starts_with("crypto.") {
            *values
                .entry("crypto.other.self_us_per_trial".to_owned())
                .or_insert(0.0) += per_trial_us(time.self_ns);
            notes.push(format!(
                "layer {layer}: {:.2} us/trial self, {:.2} calls/trial (in crypto.other)",
                per_trial_us(time.self_ns),
                time.calls as f64 / traced_trials
            ));
        } else {
            return Err(format!("layer {layer} has no {self_key} in BENCHMARK.json"));
        }
    }
    if fold.total_ns > 0 {
        values.insert(
            "core.trial.total_us_per_trial".to_owned(),
            per_trial_us(fold.total_ns),
        );
        notes.push(format!(
            "layer self times sum to {:.2}% of the traced trial total",
            100.0 * fold.self_ns() as f64 / fold.total_ns as f64
        ));
    }
    if let Some(pool) = report.pool("parallel_map") {
        values.insert(
            "core.runner.self_us_per_trial".to_owned(),
            per_trial_us(pool.busy_ns().saturating_sub(fold.total_ns)),
        );
    }
    if counted_trials > 0.0 {
        let devices = counts.gauge("devices");
        let per_device = |suffix: &str| -> u64 {
            (0..devices)
                .map(|i| counts.counter(&format!("dev{i}.{suffix}")))
                .sum()
        };
        let per_trial = |n: u64| n as f64 / counted_trials;
        let mut put = |key: &str, value: f64| values.insert(key.to_owned(), value);
        put(
            "controller.lmp_pdus_per_trial",
            per_trial(per_device("lmp_sent")),
        );
        put(
            "snoop.packets_per_trial",
            per_trial(per_device("snoop_packets")),
        );
        put(
            "baseband.pages_per_trial",
            per_trial(counts.counter("pages_started")),
        );
        put(
            "sim.events_per_trial",
            per_trial(counts.counter("events_dispatched")),
        );
        put(
            "sim.virtual_s_per_trial",
            per_trial(counts.counter("virtual_us")) / 1e6,
        );
    }
    Ok((values, notes))
}

// --- fleet and fleet_observed --------------------------------------------------

/// The `index`-th campaign of a run: consecutive campaigns take
/// consecutive seeds, each split into [`SHARD_TRIALS`]-trial shards.
fn campaign(seed: u64, index: u64) -> Campaign {
    let mut campaign = Campaign::new(
        Population::fleet(),
        CAMPAIGN_TRIALS,
        seed.wrapping_add(index),
    );
    campaign.shards = CAMPAIGN_TRIALS / SHARD_TRIALS;
    campaign
}

/// Shards `[first, last)` on one worker, checked or plain.
fn run_shards(
    campaign: &Campaign,
    first: u64,
    last: u64,
    checked: bool,
) -> (Metrics, ViolationSummary) {
    if checked {
        campaign.run_shards_checked(Jobs::serial(), first, last)
    } else {
        (
            campaign.run_shards(Jobs::serial(), first, last),
            ViolationSummary::new(),
        )
    }
}

fn measure_campaign(
    run: &Run,
    collector: Option<Collector>,
    config: &Config,
) -> Result<Outcome, String> {
    let observed = collector.is_some();
    let pool = Population::fleet().pool;
    let shards_per_campaign = CAMPAIGN_TRIALS / SHARD_TRIALS;
    let mut spans = Spans::new();
    let measure = spans.open("measure", None);
    let mut merged = Metrics::new();
    let mut summary = ViolationSummary::new();
    let mut first_shard_digest = 0;
    // (span, profiled, checked) of the twins a traced run adds per shard;
    // on fleet_observed the plain twin prices the observation.
    let twins: &[(&'static str, bool, bool)] = match (run.traced, observed) {
        (false, _) => &[],
        (true, false) => &[("shard.traced", true, false)],
        (true, true) => &[("shard.traced", true, true), ("shard.plain", false, false)],
    };
    let start = Instant::now();
    let mut units = 0;
    while keep_going(start, run.seconds, units) {
        let unit = units as u64;
        let campaign = campaign(run.seed, unit / shards_per_campaign);
        let shard = unit % shards_per_campaign;
        let run_twins = |spans: &mut Spans| {
            for &(name, profiled, checked) in twins {
                // The plain twin runs as `fleet` does: no telemetry either.
                let telemetry_on = telemetry::enabled();
                telemetry::set_enabled(telemetry_on && checked);
                prof::set_enabled(profiled);
                spans.time(name, measure, || {
                    run_shards(&campaign, shard, shard + 1, checked)
                });
                prof::set_enabled(false);
                telemetry::set_enabled(telemetry_on);
            }
        };
        // Twins alternate sides of the measured shard, so neither side
        // always runs second on the same work.
        if !unit.is_multiple_of(2) {
            run_twins(&mut spans);
        }
        let (bag, violations) = spans.time("shard", measure, || {
            run_shards(&campaign, shard, shard + 1, observed)
        });
        if unit.is_multiple_of(2) {
            run_twins(&mut spans);
        }
        if unit == 0 {
            first_shard_digest = fnv1a(bag.to_json().as_bytes());
        }
        merged.merge(&bag);
        summary.merge(&violations);
        units += 1;
    }
    spans.close(measure);
    if let Some(collector) = collector {
        let report = collector.stop();
        let _ = std::fs::remove_file(run.scratch.join("telemetry.jsonl"));
        if report.lines_written == 0 {
            return Err("the telemetry collector wrote no snapshot".to_owned());
        }
    }

    let trials = merged.counter("campaign.trials");
    let mut verdict = Verdict::default();
    verdict.campaign(&merged, &pool);
    if observed {
        verdict.invariants(&summary);
        verdict.require(summary.trials_checked == trials, || {
            format!(
                "the invariant checker saw {} of {trials} trials",
                summary.trials_checked
            )
        });
        let plain = campaign(run.seed, 0).run_shards(Jobs::serial(), 0, 1);
        verdict.same_digest(
            "first shard metrics, checked vs plain",
            fnv1a(plain.to_json().as_bytes()),
            first_shard_digest,
        );
    }
    let race_err_pp = checks::campaign_rate_error_pp(&merged, &pool);
    let shard_s = spans.seconds("shard");
    let mut notes = vec![
        format!("{trials} trials in {units} shards of {SHARD_TRIALS}"),
        timing_note("shard time", &shard_s),
        format!("baseline win rate error against the paper: {race_err_pp:.2} pp"),
    ];
    let mut values = BTreeMap::new();
    if run.traced {
        let traced_trials = (units as u64 * SHARD_TRIALS) as f64;
        let (layer_values, layer_notes) = layer_values(
            config,
            &prof::report(),
            traced_trials,
            &merged,
            trials as f64,
        )?;
        values = layer_values;
        notes.extend(layer_notes);
        values.insert(
            "trace_overhead_pct".to_owned(),
            overhead_pct(&shard_s, &spans.seconds("shard.traced")),
        );
        values.insert("baseband.race_err_pp".to_owned(), race_err_pp);
        if observed {
            let observe_us: Vec<f64> = shard_s
                .iter()
                .zip(spans.seconds("shard.plain"))
                .map(|(checked, plain)| (checked - plain) * 1e6 / SHARD_TRIALS as f64)
                .collect();
            values.insert("obs.observe_us_per_trial".to_owned(), median(&observe_us));
        }
    } else {
        values.insert(
            "trials_per_s".to_owned(),
            SHARD_TRIALS as f64 / unit_time(&shard_s),
        );
    }
    Ok(Outcome {
        verdict,
        values,
        notes,
        spans,
    })
}

// --- trace_check -----------------------------------------------------------------

/// The `trace_check` input: a Table II trace written as JSONL and
/// converted to BLAPTRC1. Both files are removed when this is dropped.
pub struct TraceFiles {
    jsonl: PathBuf,
    bin: PathBuf,
    lines: u64,
    trials: u64,
    race_err_pp: f64,
}

impl TraceFiles {
    /// Writes a Table II run's trace into `dir` in both formats.
    fn write(dir: &Path, observed: &Observed<PageBlockingRow>) -> Result<TraceFiles, String> {
        let files = TraceFiles {
            jsonl: dir.join("trace.jsonl"),
            bin: dir.join("trace.bin"),
            lines: observed.trace.lines().count() as u64,
            trials: observed.rows.iter().map(|row| 2 * row.trials as u64).sum(),
            race_err_pp: checks::table2_rate_error_pp(&observed.rows),
        };
        let io = |path: &Path, err: std::io::Error| format!("{}: {err}", path.display());
        std::fs::write(&files.jsonl, &observed.trace).map_err(|e| io(&files.jsonl, e))?;
        let file = File::create(&files.bin).map_err(|e| io(&files.bin, e))?;
        let mut writer = FrameWriter::new(BufWriter::new(file)).map_err(|e| io(&files.bin, e))?;
        for line in observed.trace.lines() {
            let frame = Frame::from_jsonl(line).map_err(|err| format!("trace line: {err}"))?;
            writer.write_frame(&frame).map_err(|e| io(&files.bin, e))?;
        }
        writer.finish().map_err(|e| io(&files.bin, e))?;
        Ok(files)
    }
}

impl Drop for TraceFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.jsonl);
        let _ = std::fs::remove_file(&self.bin);
    }
}

/// Count and total time of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
struct CallStat {
    calls: u64,
    ns: u64,
}

impl CallStat {
    fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Calls into the read side of `blap-obs`, each timed from outside.
#[derive(Debug, Default)]
struct CallTimes {
    read_line: CallStat,
    decode: CallStat,
    render: CallStat,
    push_line: CallStat,
    finish: CallStat,
}

/// Runs `f`, adding its duration to `stat` when there is one.
fn timed<T>(stat: Option<&mut CallStat>, f: impl FnOnce() -> T) -> T {
    let Some(stat) = stat else {
        return f();
    };
    let started = Instant::now();
    let out = f();
    stat.ns += started.elapsed().as_nanos() as u64;
    stat.calls += 1;
    out
}

/// One pass of the analyzer over a trace file.
struct Check {
    analysis: TraceAnalysis,
    pushed: u64,
    rejected: u64,
}

/// Streams a JSONL trace through a fresh analyzer, reading as
/// `blap-trace check` does.
fn check_jsonl(path: &Path, mut times: Option<&mut CallTimes>) -> Result<Check, String> {
    let file = File::open(path).map_err(|err| format!("{}: {err}", path.display()))?;
    let mut reader = BufReader::new(file);
    let mut analyzer = StreamAnalyzer::new();
    let (mut pushed, mut rejected) = (0, 0);
    let mut line = String::new();
    loop {
        line.clear();
        let read = timed(times.as_deref_mut().map(|t| &mut t.read_line), || {
            reader.read_line(&mut line)
        });
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(err) => return Err(format!("{}: {err}", path.display())),
        }
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
        }
        pushed += 1;
        let push = timed(times.as_deref_mut().map(|t| &mut t.push_line), || {
            analyzer.push_line(&line)
        });
        rejected += u64::from(push.is_err());
    }
    let analysis = timed(times.map(|t| &mut t.finish), || analyzer.finish());
    Ok(Check {
        analysis,
        pushed,
        rejected,
    })
}

/// Streams a BLAPTRC1 trace through a fresh analyzer: each frame renders
/// to its canonical JSONL line, as `blap-trace check` does.
fn check_bin(path: &Path, mut times: Option<&mut CallTimes>) -> Result<Check, String> {
    let file = File::open(path).map_err(|err| format!("{}: {err}", path.display()))?;
    let mut frames = FrameReader::new(BufReader::new(file))
        .map_err(|err| format!("{}: {err}", path.display()))?;
    let mut analyzer = StreamAnalyzer::new();
    let (mut pushed, mut rejected) = (0, 0);
    let mut line = String::new();
    loop {
        let next = timed(times.as_deref_mut().map(|t| &mut t.decode), || {
            frames.next_frame()
        });
        let frame = match next {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // A frame that does not decode is a rejected line; the
            // stream cannot continue past it.
            Err(_) => {
                rejected += 1;
                break;
            }
        };
        line.clear();
        timed(times.as_deref_mut().map(|t| &mut t.render), || {
            frame.render_jsonl(&mut line)
        });
        pushed += 1;
        let push = timed(times.as_deref_mut().map(|t| &mut t.push_line), || {
            analyzer.push_line(&line)
        });
        rejected += u64::from(push.is_err());
    }
    let analysis = timed(times.map(|t| &mut t.finish), || analyzer.finish());
    Ok(Check {
        analysis,
        pushed,
        rejected,
    })
}

fn measure_trace(run: &Run, files: &TraceFiles, config: &Config) -> Result<Outcome, String> {
    // A traced run pairs each format's plain pass with a pass whose every
    // call is timed from outside, alternating which of the two goes first.
    let kinds: &[&'static str] = if run.traced {
        &[
            "jsonl",
            "jsonl.timed",
            "bin",
            "bin.timed",
            "jsonl.timed",
            "jsonl",
            "bin.timed",
            "bin",
        ]
    } else {
        &["jsonl", "bin"]
    };
    let mut spans = Spans::new();
    let measure = spans.open("measure", None);
    let mut times = CallTimes::default();
    let mut verdict = Verdict::default();
    let mut reference: Option<String> = None;
    let start = Instant::now();
    let mut passes: usize = 0;
    // Whole cycles only, so every kind of pass is measured equally often.
    while !passes.is_multiple_of(kinds.len())
        || keep_going(start, run.seconds, passes / kinds.len())
    {
        let kind = kinds[passes % kinds.len()];
        let timing = kind.ends_with(".timed").then_some(&mut times);
        prof::set_enabled(timing.is_some());
        let check = spans.time(kind, measure, || {
            if kind.starts_with("bin") {
                check_bin(&files.bin, timing)
            } else {
                check_jsonl(&files.jsonl, timing)
            }
        })?;
        prof::set_enabled(false);
        let analysis = &check.analysis;
        verdict.attempted += check.pushed + check.rejected;
        verdict.failed += check.rejected + analysis.violations.len() as u64;
        verdict.require(check.rejected == 0 && analysis.ok(), || {
            format!(
                "{kind} pass: {} rejected lines\n{}",
                check.rejected,
                analysis.report()
            )
        });
        verdict.require(analysis.line_count as u64 == files.lines, || {
            format!(
                "{kind} pass read {} lines of the {} generated",
                analysis.line_count, files.lines
            )
        });
        let report = analysis.report();
        match &reference {
            None => reference = Some(report),
            Some(first) => verdict.require(*first == report, || {
                format!("{kind} pass report differs from the first pass:\n{report}")
            }),
        }
        passes += 1;
    }
    spans.close(measure);

    let (jsonl_s, bin_s) = (spans.seconds("jsonl"), spans.seconds("bin"));
    let lines = files.lines as f64;
    let jsonl_rate = lines / unit_time(&jsonl_s);
    let bin_rate = lines / unit_time(&bin_s);
    let mut notes = vec![
        format!(
            "{} lines, {} trials per pass; {} JSONL and {} BLAPTRC1 passes",
            files.lines,
            files.trials,
            jsonl_s.len(),
            bin_s.len()
        ),
        format!("check_jsonl_lines_per_s {jsonl_rate:.0}, check_bin_lines_per_s {bin_rate:.0}"),
        timing_note("JSONL pass", &jsonl_s),
        timing_note("BLAPTRC1 pass", &bin_s),
    ];
    let mut values = BTreeMap::new();
    if run.traced {
        let timed_passes = spans.seconds("jsonl.timed").len() + spans.seconds("bin.timed").len();
        let traced_trials = (files.trials * timed_passes as u64) as f64;
        let (layer_values, layer_notes) =
            layer_values(config, &prof::report(), traced_trials, &Metrics::new(), 0.0)?;
        values = layer_values;
        notes.extend(layer_notes);
        let mut put = |key: &str, value: f64| values.insert(key.to_owned(), value);
        put("io.read_line_ns", times.read_line.mean_ns());
        put("obs.binfmt.decode_ns", times.decode.mean_ns());
        put("obs.binfmt.render_ns", times.render.mean_ns());
        put("obs.stream.push_line_ns", times.push_line.mean_ns());
        put("obs.stream.finish_ms", times.finish.mean_ns() / 1e6);
        put("obs.check_jsonl_lines_per_s", jsonl_rate);
        put("obs.check_bin_lines_per_s", bin_rate);
        put("baseband.race_err_pp", files.race_err_pp);
        let untraced = unit_time(&jsonl_s) + unit_time(&bin_s);
        let traced =
            unit_time(&spans.seconds("jsonl.timed")) + unit_time(&spans.seconds("bin.timed"));
        put("trace_overhead_pct", 100.0 * (traced / untraced - 1.0));
    } else {
        let both = unit_time(&jsonl_s) + unit_time(&bin_s);
        values.insert("trials_per_s".to_owned(), 2.0 * files.trials as f64 / both);
    }
    Ok(Outcome {
        verdict,
        values,
        notes,
        spans,
    })
}

// --- paper_repro -----------------------------------------------------------------

/// One paper reproduction: Table I and Table II with their artifacts.
struct Reproduction {
    table1: Observed<ExtractionReport>,
    table2: Observed<PageBlockingRow>,
    metrics_json: [String; 2],
}

/// Digests of a reproduction's artifacts: traces, then metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digests([u64; 4]);

fn reproduce(seed: u64) -> Reproduction {
    let table1 = run_table1_observed_with(seed, Jobs::serial());
    let table2 = run_table2_observed_with(seed, REPRO_TRIALS, Jobs::serial());
    let metrics_json = [table1.metrics.to_json(), table2.metrics.to_json()];
    Reproduction {
        table1,
        table2,
        metrics_json,
    }
}

impl Reproduction {
    fn digests(&self) -> Digests {
        Digests([
            fnv1a(self.table1.trace.as_bytes()),
            fnv1a(self.table2.trace.as_bytes()),
            fnv1a(self.metrics_json[0].as_bytes()),
            fnv1a(self.metrics_json[1].as_bytes()),
        ])
    }

    /// Trial worlds one reproduction runs: one extraction per Table I row,
    /// a baseline and a blocking trial per Table II trial.
    fn trials(&self) -> u64 {
        let table2: usize = self.table2.rows.iter().map(|row| 2 * row.trials).sum();
        (self.table1.rows.len() + table2) as u64
    }

    fn metrics(&self) -> Metrics {
        let mut merged = self.table1.metrics.clone();
        merged.merge(&self.table2.metrics);
        merged
    }
}

fn measure_paper(run: &Run, reference: &Digests, config: &Config) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let measure = spans.open("measure", None);
    let mut verdict = Verdict::default();
    let mut trials = 0;
    let mut counts = Metrics::new();
    let mut race_err_pp = 0.0;
    let start = Instant::now();
    let mut units = 0;
    let run_twin = |spans: &mut Spans| {
        if run.traced {
            prof::set_enabled(true);
            spans.time("repro.traced", measure, || reproduce(run.seed));
            prof::set_enabled(false);
        }
    };
    while keep_going(start, run.seconds, units) {
        // The traced twin alternates sides of the measured repetition.
        if !units.is_multiple_of(2) {
            run_twin(&mut spans);
        }
        let repro = spans.time("repro", measure, || reproduce(run.seed));
        if units.is_multiple_of(2) {
            run_twin(&mut spans);
        }
        verdict.paper(&repro.table1.rows, &repro.table2.rows);
        let labels = [
            "Table I trace",
            "Table II trace",
            "Table I metrics",
            "Table II metrics",
        ];
        for ((label, want), got) in labels.iter().zip(reference.0).zip(repro.digests().0) {
            verdict.same_digest(label, want, got);
        }
        trials = repro.trials();
        race_err_pp = checks::table2_rate_error_pp(&repro.table2.rows);
        if run.traced {
            counts.merge(&repro.metrics());
        }
        units += 1;
    }
    spans.close(measure);

    let repro_s = spans.seconds("repro");
    let mut notes = vec![
        format!(
            "repro_s {:.4} (first quartile of {} repetitions after 1 warm-up), {trials} trial worlds each",
            unit_time(&repro_s),
            repro_s.len()
        ),
        timing_note("reproduction", &repro_s),
        format!("Table II baseline win rate error against the paper: {race_err_pp:.2} pp"),
    ];
    let mut values = BTreeMap::new();
    if run.traced {
        let all_trials = (trials * units as u64) as f64;
        let (layer_values, layer_notes) =
            layer_values(config, &prof::report(), all_trials, &counts, all_trials)?;
        values = layer_values;
        notes.extend(layer_notes);
        values.insert(
            "trace_overhead_pct".to_owned(),
            overhead_pct(&repro_s, &spans.seconds("repro.traced")),
        );
        values.insert("baseband.race_err_pp".to_owned(), race_err_pp);
    } else {
        values.insert(
            "trials_per_s".to_owned(),
            trials as f64 / unit_time(&repro_s),
        );
    }
    Ok(Outcome {
        verdict,
        values,
        notes,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with `prof` on and folds the scope tree it recorded.
    fn folded(f: impl FnOnce()) -> (Report, Fold) {
        prof::reset();
        prof::set_enabled(true);
        f();
        prof::set_enabled(false);
        let report = prof::report();
        let fold = layers::fold(&report).unwrap_or_else(|err| panic!("{err}"));
        (report, fold)
    }

    /// Every key is a per-layer metric `BENCHMARK.json` defines.
    fn assert_declared(config: &Config, values: &BTreeMap<String, f64>) {
        for key in values.keys() {
            assert!(
                config.per_layer.iter().any(|m| &m.name == key),
                "{key} is not a per-layer metric in BENCHMARK.json"
            );
        }
    }

    /// The layer map over the scope trees of a 1%-size in-process run of
    /// each workload: every path folds into a layer (or `fold` errors),
    /// layer self times partition the trial total, and the values a traced
    /// run would print are all declared. One test, because `prof` is
    /// process-wide.
    #[test]
    fn layer_map_covers_every_workload_at_one_percent() {
        let config = Config::embedded();
        let seed = 2022;

        // fleet, then fleet_observed: 1% of a campaign.
        let campaign = Campaign::new(Population::fleet(), CAMPAIGN_TRIALS / 100, seed);
        let trials = campaign.trials as f64;
        for checked in [false, true] {
            let mut bag = Metrics::new();
            let (report, fold) = folded(|| {
                bag = run_shards(&campaign, 0, campaign.shard_count(), checked).0;
            });
            assert!(fold.total_ns > 0 && fold.layers.contains_key("crypto.p256"));
            let share = fold.self_ns() as f64 / fold.total_ns as f64;
            assert!((0.999..1.05).contains(&share), "self/total {share}");
            let (values, _) = layer_values(&config, &report, trials, &bag, trials)
                .expect("every campaign layer is declared");
            assert_declared(&config, &values);
        }

        // paper_repro: Table I plus one Table II trial per condition.
        let mut bag = Metrics::new();
        let (report, fold) = folded(|| {
            bag = run_table1_observed_with(seed, Jobs::serial()).metrics;
            bag.merge(&run_table2_observed_with(seed, 1, Jobs::serial()).metrics);
        });
        let share = fold.self_ns() as f64 / fold.total_ns as f64;
        assert!((0.999..1.05).contains(&share), "self/total {share}");
        let (values, _) =
            layer_values(&config, &report, 23.0, &bag, 23.0).expect("every layer is declared");
        assert_declared(&config, &values);

        // trace_check: both formats of a 1%-size trace give one report,
        // and the read side records no scope, so no crypto layer.
        let observed = run_table2_observed_with(seed, 1, Jobs::serial());
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/target/test-layer-map"
        ));
        std::fs::create_dir_all(&dir).expect("test directory");
        let files = TraceFiles::write(&dir, &observed).expect("trace written");
        let mut times = CallTimes::default();
        let mut checks = Vec::new();
        let (report, fold) = folded(|| {
            checks.push(check_jsonl(&files.jsonl, Some(&mut times)).expect("JSONL pass"));
            checks.push(check_bin(&files.bin, Some(&mut times)).expect("binary pass"));
        });
        drop(files);
        let _ = std::fs::remove_dir(&dir);
        assert!(
            report.is_empty() && fold.layers.is_empty(),
            "{:?}",
            fold.layers
        );
        let [jsonl, bin] = &checks[..] else {
            unreachable!("two passes")
        };
        assert_eq!(jsonl.analysis.report(), bin.analysis.report());
        assert!(jsonl.analysis.ok(), "{}", jsonl.analysis.report());
        assert_eq!((jsonl.rejected, bin.rejected), (0, 0));
        let lines = observed.trace.lines().count() as u64;
        assert_eq!((jsonl.pushed, bin.pushed), (lines, lines));
        assert_eq!(
            times.read_line.calls,
            lines + 1,
            "one read per line, one at EOF"
        );
        assert_eq!(
            times.decode.calls,
            lines + 1,
            "one decode per frame, one at EOF"
        );
        assert_eq!(times.push_line.calls, 2 * lines);
        assert_eq!(times.finish.calls, 2);
    }

    #[test]
    fn workloads_match_the_definition() {
        let config = Config::embedded();
        let defined: Vec<&str> = config.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(defined, built);
        for name in built {
            assert_eq!(Workload::from_name(name).map(Workload::name), Some(name));
        }
    }

    #[test]
    fn overhead_pairs_units_by_index() {
        assert!((overhead_pct(&[1.0, 2.0, 4.0], &[1.1, 2.2, 4.4]) - 10.0).abs() < 1e-9);
        assert!(overhead_pct(&[1.0, 1.0], &[0.9, 0.9]) < 0.0);
    }
}
