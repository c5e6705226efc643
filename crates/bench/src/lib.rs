//! Shared helpers for the BLAP benchmark binaries.
//!
//! The actual experiment logic lives in the `blap` crate; this crate only
//! holds the entry points that regenerate each table/figure
//! (`cargo run -p blap-bench --bin <target>`) and the `hotpaths` timing
//! binary with its `blap-bench compare` gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blap::link_key_extraction::{ExtractionReport, ExtractionScenario};
use blap::page_blocking::{PageBlockingRow, PageBlockingScenario};
use blap::runner::{parallel_map, seed_for, Jobs};
use blap_obs::{JsonlBuffer, Metrics, TraceEvent, Tracer};
use blap_sim::profiles;

pub mod checkpoint;
pub mod cli;
pub mod compare;
pub mod top;

/// An experiment run with observability attached: the rows the unobserved
/// runner would have produced, plus the merged metrics and the
/// concatenated JSONL trace.
///
/// Both artifacts are assembled in unit-index order after the parallel
/// phase, so they are byte-identical at any worker count.
pub struct Observed<T> {
    /// The experiment rows (same values as the unobserved runner).
    pub rows: Vec<T>,
    /// Per-world metrics merged across all units, in unit-index order.
    pub metrics: Metrics,
    /// Per-unit JSONL traces concatenated in unit-index order. Each unit
    /// opens with a `unit_start` line marking its boundary.
    pub trace: String,
}

fn collect_units<T>(units: Vec<(T, Metrics, String)>) -> (Vec<T>, Metrics, String) {
    let mut rows = Vec::with_capacity(units.len());
    let mut metrics = Metrics::new();
    let mut trace = String::new();
    for (row, unit_metrics, unit_trace) in units {
        rows.push(row);
        metrics.merge(&unit_metrics);
        trace.push_str(&unit_trace);
    }
    (rows, metrics, trace)
}

fn observed_unit<T>(
    unit: usize,
    label: &'static str,
    run: impl FnOnce(&Tracer) -> (T, Metrics),
) -> (T, Metrics, String) {
    let tracer = Tracer::new();
    let buffer = JsonlBuffer::new();
    tracer.attach(buffer.clone());
    tracer.emit(TraceEvent::UnitStart {
        unit: unit as u64,
        label,
    });
    let wall_started = std::time::Instant::now();
    let (row, mut metrics) = run(&tracer);
    // Per-unit duration histograms: virtual time always (deterministic),
    // wall time only on request — it varies run to run, so recording it
    // would break the byte-identical artifact guarantee.
    let virtual_us = metrics.counter("virtual_us");
    metrics.observe("unit_virtual_us", virtual_us);
    if std::env::var("BLAP_METRICS_WALL").is_ok_and(|v| v == "1") {
        metrics.observe("unit_wall_us", wall_started.elapsed().as_micros() as u64);
    }
    (row, metrics, buffer.contents())
}

/// Runs the full Table I experiment: one extraction per Table I profile
/// across `jobs` workers. Each profile's scenario seed is derived from the
/// profile index alone, so the report list is byte-identical at any
/// parallelism.
pub fn run_table1_with(seed: u64, jobs: Jobs) -> Vec<ExtractionReport> {
    let profiles = profiles::table1_profiles();
    parallel_map(jobs, profiles.len(), |i| {
        ExtractionScenario::new(profiles[i], seed_for(seed, i as u64)).run()
    })
}

/// [`run_table1_with`] with observability: every extraction world traces
/// into a per-unit buffer and snapshots its metrics; the artifacts are
/// merged in profile-index order.
pub fn run_table1_observed_with(seed: u64, jobs: Jobs) -> Observed<ExtractionReport> {
    let profiles = profiles::table1_profiles();
    let units = parallel_map(jobs, profiles.len(), |i| {
        observed_unit(i, "extraction", |tracer| {
            ExtractionScenario::new(profiles[i], seed_for(seed, i as u64)).run_observed(tracer)
        })
    });
    let (rows, metrics, trace) = collect_units(units);
    Observed {
        rows,
        metrics,
        trace,
    }
}

/// Runs the full Table II experiment with `trials` per condition per
/// device across `jobs` workers.
///
/// The experiment flattens to (device, trial) units rather than handing
/// each device row to one worker: rows × trials units keep every worker
/// busy even when the device count is smaller than the job count. Each
/// unit's world seed depends only on its (device, trial) coordinates, so
/// the rows are byte-identical at any parallelism.
pub fn run_table2_with(seed: u64, trials: usize, jobs: Jobs) -> Vec<PageBlockingRow> {
    let scenarios: Vec<PageBlockingScenario> = profiles::table2_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let mut scenario = PageBlockingScenario::new(profile, seed_for(seed, i as u64));
            scenario.trials = trials;
            scenario
        })
        .collect();
    let outcomes = parallel_map(jobs, scenarios.len() * trials, |unit| {
        scenarios[unit / trials].run_trial_pair(unit % trials)
    });
    scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| scenario.aggregate(&outcomes[i * trials..(i + 1) * trials]))
        .collect()
}

/// [`run_table2_with`] with observability: each (device, trial) unit runs
/// its baseline+blocking world pair under a per-unit tracer; metrics and
/// traces are merged in unit-index order, so both artifacts are
/// byte-identical at any worker count.
pub fn run_table2_observed_with(seed: u64, trials: usize, jobs: Jobs) -> Observed<PageBlockingRow> {
    let scenarios: Vec<PageBlockingScenario> = profiles::table2_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let mut scenario = PageBlockingScenario::new(profile, seed_for(seed, i as u64));
            scenario.trials = trials;
            scenario
        })
        .collect();
    let units = parallel_map(jobs, scenarios.len() * trials, |unit| {
        observed_unit(unit, "trial_pair", |tracer| {
            scenarios[unit / trials].run_trial_pair_observed(unit % trials, tracer)
        })
    });
    let mut outcomes = Vec::with_capacity(units.len());
    let mut metrics = Metrics::new();
    let mut trace = String::new();
    for (unit, (pair, unit_metrics, unit_trace)) in units.into_iter().enumerate() {
        // Global totals plus a per-device section (scoped by the Table II
        // row's device name), so race counters are inspectable per row.
        metrics.merge(&unit_metrics);
        metrics.merge_scoped(scenarios[unit / trials].victim.name, &unit_metrics);
        trace.push_str(&unit_trace);
        outcomes.push(pair);
    }
    let rows = scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| scenario.aggregate(&outcomes[i * trials..(i + 1) * trials]))
        .collect();
    Observed {
        rows,
        metrics,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_all_rows_vulnerable() {
        // Smoke-test the driver on a single profile to keep unit tests
        // quick; the binary runs all nine.
        let report = ExtractionScenario::new(profiles::ubuntu_bluez(), 99).run();
        assert!(report.vulnerable());
    }

    #[test]
    fn table2_driver_produces_rows() {
        let rows = run_table2_with(5, 4, Jobs::new(2));
        assert_eq!(rows.len(), 7);
        for row in rows {
            assert_eq!(row.measured_blocking_rate, 1.0, "{}", row.device);
        }
    }
}
