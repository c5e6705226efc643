//! Integration checks for the wall-time profiler (`blap_obs::prof`).
//!
//! The profiler is a sidecar: it must *observe* the attack pipeline's
//! wall-clock shape without ever perturbing the deterministic artifacts
//! (that half of the guarantee is pinned in `parallel_determinism.rs`).
//! These tests pin the observing half:
//!
//! * a profiled Table I run produces the trial→phase scope hierarchy the
//!   scope-naming contract promises, with self-times that sum to no more
//!   than the run's wall time, and
//! * the worker-utilization accounting in `blap::runner` notices a
//!   deliberately skewed workload — the worker stuck with the slow task
//!   reports imbalance above 1, and busy time stays within the pool's
//!   wall envelope, and
//! * each unit is timed once: the profiler's pool table and the live
//!   telemetry lanes see the same tasks and busy time per worker.
//!
//! The profiler's and the telemetry hub's state is process-global, so
//! every test here serializes on one lock and resets the registry around
//! its measurements.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use blap::runner::{parallel_map, parallel_search_scratch, Jobs};
use blap_obs::{prof, telemetry};

static PROF: Mutex<()> = Mutex::new(());

#[test]
fn folded_table1_profile_has_trial_phase_hierarchy_within_wall_time() {
    let _serial = PROF.lock().unwrap();
    prof::reset();
    prof::set_enabled(true);
    let wall_started = Instant::now();
    let observed = blap_bench::run_table1_observed_with(2022, Jobs::serial());
    let wall = wall_started.elapsed();
    prof::set_enabled(false);
    assert_eq!(observed.rows.len(), 9, "Table I runs nine profiles");

    let report = prof::report();
    let folded = report.to_folded();
    prof::reset();

    // Scope-naming contract: trials at the root, dispatch phases beneath
    // them, handler and crypto scopes beneath those.
    let paths: Vec<&str> = folded
        .lines()
        .filter_map(|line| line.rsplit_once(' ').map(|(path, _)| path))
        .collect();
    assert!(paths.contains(&"trial"), "root trial scope:\n{folded}");
    assert!(
        paths.contains(&"trial;lmp_deliver"),
        "LMP dispatch nests under the trial:\n{folded}"
    );
    assert!(
        paths.contains(&"trial;lmp_deliver;lmp_auth"),
        "authentication handling nests under LMP dispatch:\n{folded}"
    );
    assert!(
        paths.contains(&"trial;lmp_deliver;lmp_auth;crypto.p256"),
        "the P-256 kernel nests under authentication:\n{folded}"
    );
    assert!(
        paths.contains(&"trial;page"),
        "paging dispatch nests under the trial:\n{folded}"
    );

    // Self-times are disjoint slices of the run, so their sum is bounded
    // by the wall clock that enclosed it.
    let total_self_us: u64 = folded
        .lines()
        .filter_map(|line| {
            line.rsplit_once(' ')
                .and_then(|(_, us)| us.parse::<u64>().ok())
        })
        .sum();
    assert!(total_self_us > 0, "a full Table I run records time");
    assert!(
        u128::from(total_self_us) <= wall.as_micros(),
        "self-time sum {total_self_us}us exceeds wall {}us",
        wall.as_micros()
    );
}

#[test]
fn serial_search_accounts_chunks_and_excludes_init_from_busy() {
    let _serial = PROF.lock().unwrap();
    prof::reset();
    prof::set_enabled(true);
    // Scratch setup spins for 25 ms — an order of magnitude longer than
    // the scan itself. The serial fast path used to charge all of it
    // (init included) as one busy task with busy == wall; it must now
    // report one task per chunk scanned and keep init out of busy time,
    // exactly like the parallel path.
    let init = || {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(25) {
            std::hint::black_box(0u64);
        }
        0u64
    };
    let wall_started = Instant::now();
    let found = parallel_search_scratch(Jobs::serial(), 1000, 100, init, |_, start, end| {
        (start..end).find(|&i| i == 550).map(|i| (i, i))
    });
    let wall = wall_started.elapsed();
    prof::set_enabled(false);
    assert_eq!(found, Some(550), "early exit still finds the hit");

    let report = prof::report();
    prof::reset();
    let pool = report.pool("parallel_search").expect("pool stats recorded");
    assert_eq!(pool.workers.len(), 1, "serial run has one worker");
    let worker = &pool.workers[0];
    // Chunks 0..=5 are scanned before the hit in chunk 5 stops the sweep.
    assert_eq!(
        worker.tasks, 6,
        "one task per chunk scanned, not one for the whole run"
    );
    // The 25 ms init dominates the wall clock; busy time must exclude it.
    assert!(
        worker.busy_ns < Duration::from_millis(20).as_nanos() as u64,
        "init time leaked into busy: {}ns busy vs {}ns wall",
        worker.busy_ns,
        wall.as_nanos()
    );
    assert!(
        pool.wall_ns >= Duration::from_millis(25).as_nanos() as u64,
        "the pool envelope still covers the whole run including init"
    );
}

#[test]
fn skewed_parallel_map_reports_imbalance_within_wall_envelope() {
    let _serial = PROF.lock().unwrap();
    prof::reset();
    prof::set_enabled(true);
    const WORKERS: usize = 4;
    // One task spins an order of magnitude longer than the rest combined:
    // whichever worker draws it must dominate the pool's busy time.
    let out = parallel_map(Jobs::new(WORKERS), 8, |i| {
        if i == 0 {
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_millis(25) {
                std::hint::black_box(i);
            }
        }
        i
    });
    prof::set_enabled(false);
    assert_eq!(out, (0..8).collect::<Vec<_>>());

    let report = prof::report();
    prof::reset();
    let pool = report.pool("parallel_map").expect("pool stats recorded");
    assert_eq!(pool.runs, 1, "exactly the one profiled run");
    assert_eq!(pool.workers.len(), WORKERS, "every worker reports");
    let tasks: u64 = pool.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(tasks, 8, "every task is accounted to some worker");

    // Busy time can never exceed the wall envelope: each worker was busy
    // at most for the pool's whole wall time.
    assert!(
        pool.busy_ns() <= pool.wall_ns.saturating_mul(WORKERS as u64),
        "busy {}ns exceeds wall envelope {}ns x {WORKERS}",
        pool.busy_ns(),
        pool.wall_ns
    );

    // The slow worker's share is far above the mean.
    let max_imbalance = pool
        .workers
        .iter()
        .map(|w| w.imbalance)
        .fold(0.0_f64, f64::max);
    assert!(
        max_imbalance > 1.0,
        "the worker that drew the slow task must exceed the mean, got {max_imbalance:.2}"
    );
}

#[test]
fn prof_pool_and_telemetry_lanes_see_the_same_units() {
    let _serial = PROF.lock().unwrap();
    let spin = || {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(2) {
            std::hint::black_box(0u64);
        }
    };
    for workers in [1, 4] {
        for pool in ["parallel_map", "parallel_search"] {
            prof::reset();
            telemetry::begin_session(telemetry::SessionTotals::default());
            prof::set_enabled(true);
            telemetry::set_enabled(true);
            if pool == "parallel_map" {
                let out = parallel_map(Jobs::new(workers), 16, |i| {
                    spin();
                    i
                });
                assert_eq!(out, (0..16).collect::<Vec<_>>());
            } else {
                let found = parallel_search_scratch(
                    Jobs::new(workers),
                    1000,
                    100,
                    || (),
                    |_, start, end| {
                        spin();
                        (start..end).find(|&i| i == 550).map(|i| (i, i))
                    },
                );
                assert_eq!(found, Some(550));
            }
            prof::set_enabled(false);
            let lanes = telemetry::sample(0, None, 0).workers;
            telemetry::reset();
            let report = prof::report();
            prof::reset();

            // Per worker that ran a unit: (worker, tasks, busy ms).
            let from_prof: Vec<(u64, u64, u64)> = report
                .pool(pool)
                .expect("pool stats recorded")
                .workers
                .iter()
                .filter(|w| w.tasks > 0)
                .map(|w| (w.worker as u64, w.tasks, w.busy_ns / 1_000_000))
                .collect();
            let from_lanes: Vec<(u64, u64, u64)> = lanes
                .iter()
                .map(|lane| (lane.worker, lane.tasks, lane.busy_ms))
                .collect();
            assert!(!from_prof.is_empty(), "{pool} at {workers} workers ran");
            assert_eq!(from_prof, from_lanes, "{pool} at {workers} workers");
        }
    }
}
