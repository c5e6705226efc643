//! Deterministic parallel experiment engine.
//!
//! Every experiment in this repo is a map over independent units (a trial,
//! a device profile, a sweep point, a PIN chunk) whose per-unit randomness
//! comes from a seed derived *only* from the experiment seed and the unit
//! index — never from execution order. That property makes the parallel
//! schedule invisible: [`parallel_map`] over any [`Jobs`] count produces
//! output byte-identical to the serial loop it replaced, so Table I/II and
//! the ablation sweeps stay reproducible while scaling across cores.
//! [`parallel_search_scratch`] is the early-exit variant PIN cracking
//! uses: ascending chunks with a shared best-candidate bound.
//!
//! Both run on one private worker loop. Workers pull units from an atomic
//! counter (work stealing, no per-unit channel traffic); one worker runs
//! inline on the calling thread, more run on [`std::thread::scope`]
//! threads. `parallel_map` results land in index-addressed slots, so
//! output order never depends on completion order. The loop is also the
//! one place a unit's wall time is taken: a single measurement per unit,
//! only while profiling or telemetry is on, feeds both the telemetry lane
//! and the `prof` pool table.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use blap_obs::{prof, telemetry};

/// Worker-thread count for an experiment run.
///
/// Resolution order: an explicit [`Jobs::new`], the `BLAP_JOBS` environment
/// variable, then [`std::thread::available_parallelism`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Jobs(usize);

/// The environment variable overriding the default worker count.
pub const JOBS_ENV_VAR: &str = "BLAP_JOBS";

impl Jobs {
    /// An explicit worker count (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// One worker: the serial schedule.
    pub fn serial() -> Jobs {
        Jobs(1)
    }

    /// Reads `BLAP_JOBS`, falling back to the machine's available
    /// parallelism. Unparseable or zero values fall back too, so a broken
    /// environment degrades to a sensible default instead of panicking.
    pub fn from_env() -> Jobs {
        Jobs::resolve_from(None, std::env::var(JOBS_ENV_VAR).ok().as_deref()).jobs
    }

    /// Resolves the worker count from an optional CLI argument and the
    /// optional `BLAP_JOBS` environment value, in that precedence order,
    /// falling back to [`Jobs::default`].
    ///
    /// Zero and unparseable values are treated identically at *both*
    /// levels: the level is skipped (falling through to the next) and a
    /// warning is reported. This is the one resolution path every binary
    /// uses, so `--jobs 0` and `BLAP_JOBS=0` can no longer disagree.
    ///
    /// Pure function of its inputs — pass `std::env::var(JOBS_ENV_VAR)`
    /// yourself — so resolution order is unit-testable without mutating
    /// process environment.
    pub fn resolve_from(cli: Option<&str>, env: Option<&str>) -> JobsResolution {
        let mut warnings = Vec::new();
        for (source, value) in [("cli", cli), ("env", env)] {
            let Some(raw) = value else { continue };
            match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => {
                    return JobsResolution {
                        jobs: Jobs(n),
                        source,
                        warnings,
                    };
                }
                Ok(_) => warnings.push(format!(
                    "ignoring {source} jobs value 0: falling back (use 1 for serial)"
                )),
                Err(_) => {
                    warnings.push(format!("ignoring unparseable {source} jobs value {raw:?}"))
                }
            }
        }
        JobsResolution {
            jobs: Jobs::default(),
            source: "default",
            warnings,
        }
    }

    /// The worker count.
    pub fn get(&self) -> usize {
        self.0
    }
}

/// Outcome of [`Jobs::resolve_from`]: the resolved count, which level
/// supplied it, and any warnings about skipped levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobsResolution {
    /// The resolved worker count.
    pub jobs: Jobs,
    /// `"cli"`, `"env"` or `"default"`.
    pub source: &'static str,
    /// One message per invalid (zero or unparseable) level skipped.
    pub warnings: Vec<String>,
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Derives the seed for one unit of an experiment.
///
/// A SplitMix64-style mix: every (experiment, unit) pair lands on an
/// uncorrelated 64-bit stream, unlike the `seed + i` arithmetic it
/// replaces, where adjacent experiments could alias each other's units.
/// The derivation is a pure function of its inputs, which is what lets a
/// parallel schedule reproduce serial output exactly.
pub fn seed_for(experiment: u64, unit_index: u64) -> u64 {
    let mut z = experiment
        .wrapping_add(unit_index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps `f` over `0..units` across `jobs` workers, preserving index order.
///
/// `f(i)` must be a pure function of `i` (derive randomness with
/// [`seed_for`]); under that contract the output is byte-identical for any
/// worker count. Panics in `f` propagate.
pub fn parallel_map<R, F>(jobs: Jobs, units: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let buckets = run_pool(
        "parallel_map",
        jobs.get().min(units),
        || (),
        || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < units),
        |(), i| (i, f(i)),
    );
    // Reassemble in unit order; completion order is irrelevant.
    let mut slots: Vec<Option<R>> = (0..units).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every unit index produced exactly once"))
        .collect()
}

/// Searches `0..total` for the lowest-index hit, scanning in ascending
/// chunks of `chunk_size` across `jobs` workers, each with its own scratch.
///
/// `search_chunk(scratch, start, end)` scans `[start, end)` in ascending
/// order and returns the first hit as `(global_index, payload)`. Workers
/// claim chunks in ascending order and skip any chunk that starts at or
/// past the best hit found so far, so the search ends early — but because
/// the winner is the *minimum* index over all hits, the result equals the
/// serial scan's first hit regardless of which worker found what first.
///
/// `init()` runs once per worker; the resulting value is passed `&mut` to
/// every chunk that worker scans, so buffers survive chunk boundaries
/// instead of being rebuilt per chunk. The scratch must not affect the
/// scan's *result*.
pub fn parallel_search_scratch<S, R, I, F>(
    jobs: Jobs,
    total: u64,
    chunk_size: u64,
    init: I,
    search_chunk: F,
) -> Option<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64, u64) -> Option<(u64, R)> + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = total.div_ceil(chunk_size);
    let next_chunk = AtomicU64::new(0);
    let best_index = AtomicU64::new(u64::MAX);
    let best: Mutex<Option<(u64, R)>> = Mutex::new(None);
    run_pool(
        "parallel_search",
        jobs.get().min(n_chunks as usize),
        init,
        || {
            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                return None;
            }
            // Chunks ascend, so nothing at or past the current best can
            // beat it; this worker is finished.
            let start = chunk * chunk_size;
            (start < best_index.load(Ordering::Acquire))
                .then(|| (start, (start + chunk_size).min(total)))
        },
        |scratch, (start, end)| {
            if let Some((index, payload)) = search_chunk(scratch, start, end) {
                let mut best = best.lock().expect("search lock");
                if best.as_ref().is_none_or(|(i, _)| index < *i) {
                    *best = Some((index, payload));
                    best_index.fetch_min(index, Ordering::Release);
                }
            }
        },
    );
    best.into_inner()
        .expect("search lock")
        .map(|(_, payload)| payload)
}

/// The one worker loop under both pools. Each of `workers` workers builds
/// its scratch with `init`, then runs units from `claim` through `run`
/// until `claim` says none are left, and hands back the outputs in the
/// order it ran them. With `workers` ≤ 1 one worker runs inline on the
/// calling thread; more run on [`std::thread::scope`] threads.
///
/// Accounting is sidecar-only and never touches a result, so determinism
/// is unaffected. The profiling and telemetry states are read once, at
/// pool start, so a mid-run toggle cannot half-account a pool; with both
/// off no clock is read. Otherwise each unit is timed once, and that one
/// measurement feeds both the worker's telemetry lane and its busy total
/// in the `pool` table: one task per unit, with `init` outside busy time
/// but inside the pool's wall envelope.
fn run_pool<S, U, O>(
    pool: &'static str,
    workers: usize,
    init: impl Fn() -> S + Sync,
    claim: impl Fn() -> Option<U> + Sync,
    run: impl Fn(&mut S, U) -> O + Sync,
) -> Vec<Vec<O>>
where
    O: Send,
{
    let prof_on = prof::enabled();
    let telemetry_on = telemetry::enabled();
    let timed = prof_on || telemetry_on;
    let pool_started = prof_on.then(Instant::now);
    let work = |worker: usize| {
        let mut scratch = init();
        let mut done = Vec::new();
        let mut busy = Duration::ZERO;
        while let Some(unit) = claim() {
            let unit_started = timed.then(Instant::now);
            done.push(run(&mut scratch, unit));
            if let Some(started) = unit_started {
                let took = started.elapsed();
                busy += took;
                if telemetry_on {
                    telemetry::record_unit(worker, took);
                }
            }
        }
        if prof_on {
            prof::record_worker(pool, worker, busy, done.len() as u64);
        }
        done
    };
    let outputs = if workers <= 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let work = &work;
                    scope.spawn(move || {
                        let done = work(worker);
                        // Drain before the closure returns: thread::scope
                        // signals completion ahead of TLS destructors, so
                        // the Drop-merge backstop would race a report()
                        // right after this join. The inline worker is the
                        // caller's own thread, whose open scopes stay put.
                        if prof_on {
                            prof::drain_thread();
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment worker panicked"))
                .collect()
        })
    };
    if let Some(started) = pool_started {
        prof::record_pool(pool, started.elapsed());
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scratch-free search most tests below drive.
    fn parallel_search<R: Send>(
        jobs: Jobs,
        total: u64,
        chunk_size: u64,
        scan: impl Fn(u64, u64) -> Option<(u64, R)> + Sync,
    ) -> Option<R> {
        parallel_search_scratch(
            jobs,
            total,
            chunk_size,
            || (),
            |(), start, end| scan(start, end),
        )
    }

    #[test]
    fn seed_for_is_pure_and_spread() {
        assert_eq!(seed_for(1, 2), seed_for(1, 2));
        assert_ne!(seed_for(1, 2), seed_for(1, 3));
        assert_ne!(seed_for(1, 2), seed_for(2, 2));
        // Adjacent experiments must not alias adjacent units, the flaw of
        // `seed + i` derivations.
        assert_ne!(seed_for(1, 1), seed_for(2, 0));
    }

    #[test]
    fn parallel_map_matches_serial_at_any_width() {
        let f = |i: usize| seed_for(42, i as u64) as u128 * 3;
        let serial: Vec<u128> = (0..97).map(f).collect();
        for jobs in [1, 2, 4, 8, 13] {
            assert_eq!(parallel_map(Jobs::new(jobs), 97, f), serial, "{jobs} jobs");
        }
        assert_eq!(parallel_map(Jobs::new(4), 0, f), Vec::<u128>::new());
    }

    #[test]
    fn parallel_search_finds_lowest_index() {
        // Hits at 113 and 611: every schedule must report 113.
        let scan = |start: u64, end: u64| {
            (start..end)
                .find(|&i| i == 113 || i == 611)
                .map(|i| (i, i * 10))
        };
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                parallel_search(Jobs::new(jobs), 1000, 64, scan),
                Some(1130),
                "{jobs} jobs"
            );
        }
        assert_eq!(parallel_search(Jobs::new(4), 100, 64, scan), None);
    }

    #[test]
    fn parallel_search_chunk_larger_than_space() {
        // One chunk covers everything; every worker count degenerates to
        // the serial scan and must agree with it.
        let scan = |start: u64, end: u64| (start..end).find(|&i| i == 7).map(|i| (i, i));
        for jobs in [1, 2, 8] {
            assert_eq!(
                parallel_search(Jobs::new(jobs), 10, 64, scan),
                Some(7),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn parallel_search_space_not_divisible_by_chunk() {
        // 1000 = 15 × 64 + 40: the last chunk is short, and a hit inside
        // it must still surface at any worker count.
        let scan = |start: u64, end: u64| (start..end).find(|&i| i == 993).map(|i| (i, i * 3));
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                parallel_search(Jobs::new(jobs), 1000, 64, scan),
                Some(2979),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn parallel_search_hit_at_last_index() {
        let scan = |start: u64, end: u64| (start..end).find(|&i| i == 999).map(|i| (i, i));
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                parallel_search(Jobs::new(jobs), 1000, 64, scan),
                Some(999),
                "{jobs} jobs"
            );
        }
        // ...but one past the end is out of reach.
        for jobs in [1, 8] {
            assert_eq!(parallel_search(Jobs::new(jobs), 999, 64, scan), None);
        }
    }

    #[test]
    fn parallel_search_scratch_persists_per_worker_and_stays_deterministic() {
        use std::sync::atomic::AtomicUsize;
        // Scratch counts the chunks each worker scanned; it must persist
        // across chunk boundaries (strictly increasing per worker) without
        // changing which hit wins.
        let inits = AtomicUsize::new(0);
        let scan = |chunks_seen: &mut usize, start: u64, end: u64| {
            *chunks_seen += 1;
            (start..end).find(|&i| i == 113 || i == 611).map(|i| (i, i))
        };
        for jobs in [1, 2, 4, 8] {
            let result = parallel_search_scratch(
                Jobs::new(jobs),
                1000,
                64,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                scan,
            );
            assert_eq!(result, Some(113), "{jobs} jobs");
        }
        // One init per worker per run, never per chunk: 1000/64 = 16 chunks
        // per run would blow well past this bound if scratch were rebuilt.
        assert!(inits.load(Ordering::Relaxed) <= 1 + 2 + 4 + 8);
    }

    #[test]
    fn jobs_resolution() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::serial().get(), 1);
        assert_eq!(Jobs::resolve_from(Some("6"), None).jobs.get(), 6);
        assert!(Jobs::default().get() >= 1);
    }

    #[test]
    fn zero_jobs_string_matches_env_semantics() {
        // Regression: `--jobs 0` used to clamp to serial while
        // `BLAP_JOBS=0` fell back to available parallelism. Both spellings
        // must now resolve identically.
        assert_eq!(Jobs::resolve_from(Some("0"), None).jobs, Jobs::default());
        assert_eq!(
            Jobs::resolve_from(Some("0"), None).jobs,
            Jobs::resolve_from(None, Some("0")).jobs
        );
    }

    #[test]
    fn resolve_order_is_cli_env_default() {
        let r = Jobs::resolve_from(Some("3"), Some("5"));
        assert_eq!((r.jobs.get(), r.source), (3, "cli"));
        assert!(r.warnings.is_empty());

        let r = Jobs::resolve_from(None, Some("5"));
        assert_eq!((r.jobs.get(), r.source), (5, "env"));

        let r = Jobs::resolve_from(None, None);
        assert_eq!((r.jobs, r.source), (Jobs::default(), "default"));
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn resolve_skips_invalid_levels_with_warnings() {
        // Zero CLI falls through to a valid env value.
        let r = Jobs::resolve_from(Some("0"), Some("5"));
        assert_eq!((r.jobs.get(), r.source), (5, "env"));
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("cli"), "{:?}", r.warnings);

        // Unparseable CLI and zero env both fall through to the default.
        let r = Jobs::resolve_from(Some("lots"), Some("0"));
        assert_eq!((r.jobs, r.source), (Jobs::default(), "default"));
        assert_eq!(r.warnings.len(), 2);
        assert!(r.warnings[1].contains("env"), "{:?}", r.warnings);

        // Whitespace is tolerated, not a warning.
        let r = Jobs::resolve_from(Some(" 2 "), None);
        assert_eq!((r.jobs.get(), r.source), (2, "cli"));
        assert!(r.warnings.is_empty());
    }
}
