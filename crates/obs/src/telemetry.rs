//! Live wall-clock telemetry: the snapshot bus behind `blap-campaign
//! --telemetry` and the `blap-top` dashboard.
//!
//! A fleet campaign sweeps 10^6+ trials for minutes at a time, and until
//! this tier existed the operator saw nothing between the banner and the
//! final summary. This module samples the run **from the side**, on a
//! wall-clock interval, into versioned [`TelemetrySnapshot`] documents:
//! trials and shards completed, throughput, per-worker busy time (the
//! same accounting the PR 5 profiler pools use), win-rate counters,
//! invariant-violation counts from the streaming checkers, and an ETA.
//! Snapshots land in a fixed-capacity [`SnapshotRing`] (an explicit
//! dropped-snapshot counter — never silent truncation) and, when a
//! sidecar path is given, are appended as JSONL one atomic line write at
//! a time so a tail-follower never sees an interleaved line.
//!
//! The same hard rules as [`crate::prof`] apply, enforced by
//! construction:
//!
//! * **Sidecar only.** Nothing recorded here reaches a `--trace`,
//!   `--metrics`, or checkpoint artifact; those stay byte-identical with
//!   telemetry on or off at any `BLAP_JOBS` (pinned in
//!   `tests/parallel_determinism.rs`).
//! * **Zero-cost when disabled.** Every recording hook starts with one
//!   relaxed atomic load and a branch ([`enabled`]); no clock is read,
//!   no lock taken. `BENCH_hotpaths.json` pins the disabled-path cost as
//!   `telemetry_disabled`.
//! * **Observation, never participation.** The hub is written with
//!   relaxed atomics from worker threads and read by the sampler thread;
//!   trial *results* never flow through it, so a torn read can at worst
//!   make one snapshot momentarily stale.
//!
//! The reader half is [`parse_snapshot_line`]; `blap-top`'s one sidecar
//! reader feeds it complete lines only and tolerates a torn final line —
//! the file is being appended to while it is read, and a `--stop-after`
//! kill can leave a half-written tail — so the dashboard keeps rendering
//! from whatever prefix is complete.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::{self, DecodeError, Fault, Layout, Value};

/// Snapshot schema version stamped into every line (`"v":1`).
pub const SCHEMA_VERSION: u64 = 1;

/// Per-worker lanes the hub tracks; workers past the last lane fold into
/// it, so memory stays fixed no matter what `BLAP_JOBS` says.
pub const MAX_WORKER_LANES: usize = 64;

/// Default ring capacity: enough history for a dashboard sparkline while
/// bounding memory to a few hundred KiB even with hostile label sets.
pub const DEFAULT_RING_CAPACITY: usize = 512;

// --- enable switch ----------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently collecting. One relaxed load — this is
/// the entire cost of every hook when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// --- the hub ----------------------------------------------------------------

#[derive(Default)]
struct Lane {
    tasks: AtomicU64,
    busy_ns: AtomicU64,
}

/// Process-wide live counters, written by worker threads with relaxed
/// atomics and read by the sampler. One instance for the process, like
/// the profiler registry.
struct Hub {
    started: Mutex<Option<Instant>>,
    trials: AtomicU64,
    trials_total: AtomicU64,
    shards: AtomicU64,
    shards_total: AtomicU64,
    virtual_us: AtomicU64,
    violations: AtomicU64,
    lanes: Vec<Lane>,
    /// Win-rate counters keyed by free-form label (`device/mode`); the
    /// key space is bounded by the campaign's device pool, not the trial
    /// count.
    races: Mutex<BTreeMap<String, (u64, u64)>>,
}

fn hub() -> &'static Hub {
    static HUB: OnceLock<Hub> = OnceLock::new();
    HUB.get_or_init(|| Hub {
        started: Mutex::new(None),
        trials: AtomicU64::new(0),
        trials_total: AtomicU64::new(0),
        shards: AtomicU64::new(0),
        shards_total: AtomicU64::new(0),
        virtual_us: AtomicU64::new(0),
        violations: AtomicU64::new(0),
        lanes: (0..MAX_WORKER_LANES).map(|_| Lane::default()).collect(),
        races: Mutex::new(BTreeMap::new()),
    })
}

/// Starts a telemetry session: zeroes the hub, stamps the wall-clock
/// origin, and seeds the totals (and the already-done counts, so a
/// `--resume` run reports honest progress and ETA).
pub fn begin_session(totals: SessionTotals) {
    let h = hub();
    *h.started.lock().expect("telemetry hub lock") = Some(Instant::now());
    h.trials.store(totals.trials_done, Ordering::Relaxed);
    h.trials_total.store(totals.trials_total, Ordering::Relaxed);
    h.shards.store(totals.shards_done, Ordering::Relaxed);
    h.shards_total.store(totals.shards_total, Ordering::Relaxed);
    h.virtual_us.store(0, Ordering::Relaxed);
    h.violations.store(0, Ordering::Relaxed);
    for lane in &h.lanes {
        lane.tasks.store(0, Ordering::Relaxed);
        lane.busy_ns.store(0, Ordering::Relaxed);
    }
    h.races.lock().expect("telemetry hub lock").clear();
}

/// The sweep shape a telemetry session reports progress against.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionTotals {
    /// Trials the whole sweep will run.
    pub trials_total: u64,
    /// Shards the whole sweep will run.
    pub shards_total: u64,
    /// Trials already aggregated before this session (resume).
    pub trials_done: u64,
    /// Shards already aggregated before this session (resume).
    pub shards_done: u64,
}

/// Clears the hub and stops the session clock. Tests use this to
/// isolate runs; production code just starts the next session.
pub fn reset() {
    set_enabled(false);
    begin_session(SessionTotals::default());
    *hub().started.lock().expect("telemetry hub lock") = None;
}

/// Records one completed pool unit from a runner worker: which worker
/// ran it and how long it was busy. Inert (one relaxed load) when
/// telemetry is off.
#[inline]
pub fn record_unit(worker: usize, busy: Duration) {
    if !enabled() {
        return;
    }
    let lane = &hub().lanes[worker.min(MAX_WORKER_LANES - 1)];
    lane.tasks.fetch_add(1, Ordering::Relaxed);
    lane.busy_ns
        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
}

/// Records one completed campaign trial: the win-rate label it falls
/// under (`device/mode`), whether the attacker established MITM, and
/// the trial world's final virtual time.
#[inline]
pub fn record_trial(label: &str, won: bool, virtual_us: u64) {
    if !enabled() {
        return;
    }
    let h = hub();
    h.trials.fetch_add(1, Ordering::Relaxed);
    h.virtual_us.fetch_add(virtual_us, Ordering::Relaxed);
    let mut races = h.races.lock().expect("telemetry hub lock");
    let cell = races.entry(label.to_owned()).or_insert((0, 0));
    cell.0 += u64::from(won);
    cell.1 += 1;
}

/// Records one completed campaign shard.
#[inline]
pub fn record_shard() {
    if !enabled() {
        return;
    }
    hub().shards.fetch_add(1, Ordering::Relaxed);
}

/// Records invariant violations surfaced by the streaming checkers.
#[inline]
pub fn record_violations(count: u64) {
    if !enabled() || count == 0 {
        return;
    }
    hub().violations.fetch_add(count, Ordering::Relaxed);
}

// --- snapshots --------------------------------------------------------------

/// One worker's cumulative contribution at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerLane {
    /// Worker index (lane index; workers past [`MAX_WORKER_LANES`] fold
    /// into the last lane).
    pub worker: u64,
    /// Pool units completed.
    pub tasks: u64,
    /// Wall time spent inside unit bodies, milliseconds.
    pub busy_ms: u64,
    /// `busy / session wall` — the fraction of the session this worker
    /// spent executing units.
    pub utilization: f64,
}

/// One win-rate counter cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceCell {
    /// Trials that established MITM under this label.
    pub wins: u64,
    /// Trials run under this label.
    pub trials: u64,
}

/// One sampled point of a running sweep — the versioned unit of the
/// telemetry sidecar and the `blap-top` wire format.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Snapshot sequence number within the session.
    pub seq: u64,
    /// Wall milliseconds since the session began.
    pub wall_ms: u64,
    /// Cumulative *virtual* microseconds simulated by completed trials.
    pub virtual_us: u64,
    /// Trials completed so far (includes resumed-in work).
    pub trials: u64,
    /// Trials the whole sweep will run (0 when unknown).
    pub trials_total: u64,
    /// Shards completed so far.
    pub shards: u64,
    /// Shards the whole sweep will run (0 when unknown).
    pub shards_total: u64,
    /// Throughput over the last sampling interval (cumulative average
    /// for the first snapshot).
    pub trials_per_sec: f64,
    /// Estimated wall milliseconds to completion from the cumulative
    /// rate; 0 when unknown (no progress yet, or no total).
    pub eta_ms: u64,
    /// Invariant violations counted by the streaming checkers so far.
    pub violations: u64,
    /// Snapshots evicted from the ring before this one (no silent
    /// truncation: a consumer can always see what it missed).
    pub dropped: u64,
    /// Per-worker lanes, in worker order; idle lanes are omitted.
    pub workers: Vec<WorkerLane>,
    /// Win-rate counters in label order.
    pub races: Vec<(String, RaceCell)>,
}

/// Samples the hub into a snapshot. `prev` supplies the previous sample
/// for the interval rate; `dropped` is the ring's eviction count.
pub fn sample(seq: u64, prev: Option<&TelemetrySnapshot>, dropped: u64) -> TelemetrySnapshot {
    let h = hub();
    let wall = h
        .started
        .lock()
        .expect("telemetry hub lock")
        .map(|t| t.elapsed())
        .unwrap_or(Duration::ZERO);
    let wall_ms = wall.as_millis() as u64;
    let trials = h.trials.load(Ordering::Relaxed);
    let trials_total = h.trials_total.load(Ordering::Relaxed);
    let rate_window = |t0: u64, w0: u64| {
        let dt = trials.saturating_sub(t0);
        let dw = wall_ms.saturating_sub(w0);
        if dw == 0 {
            0.0
        } else {
            dt as f64 * 1000.0 / dw as f64
        }
    };
    let trials_per_sec = match prev {
        Some(p) => rate_window(p.trials, p.wall_ms),
        None => rate_window(0, 0),
    };
    let cumulative = rate_window(0, 0);
    let eta_ms = if cumulative > 0.0 && trials_total > trials {
        ((trials_total - trials) as f64 * 1000.0 / cumulative) as u64
    } else {
        0
    };
    let workers = h
        .lanes
        .iter()
        .enumerate()
        .filter(|(_, lane)| lane.tasks.load(Ordering::Relaxed) > 0)
        .map(|(i, lane)| {
            let busy_ns = lane.busy_ns.load(Ordering::Relaxed);
            WorkerLane {
                worker: i as u64,
                tasks: lane.tasks.load(Ordering::Relaxed),
                busy_ms: busy_ns / 1_000_000,
                utilization: if wall_ms == 0 {
                    0.0
                } else {
                    (busy_ns as f64 / 1e6 / wall_ms as f64).min(1.0)
                },
            }
        })
        .collect();
    let races = h
        .races
        .lock()
        .expect("telemetry hub lock")
        .iter()
        .map(|(label, &(wins, trials))| (label.clone(), RaceCell { wins, trials }))
        .collect();
    TelemetrySnapshot {
        version: SCHEMA_VERSION,
        seq,
        wall_ms,
        virtual_us: h.virtual_us.load(Ordering::Relaxed),
        trials,
        trials_total,
        shards: h.shards.load(Ordering::Relaxed),
        shards_total: h.shards_total.load(Ordering::Relaxed),
        trials_per_sec,
        eta_ms,
        violations: h.violations.load(Ordering::Relaxed),
        dropped,
        workers,
        races,
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot as one JSONL line (no trailing newline):
    /// deterministic member order, every label through the shared
    /// escaper, floats at fixed precision so render → parse → render is
    /// byte-exact.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        json::object(&mut out, Layout::Compact, |w| {
            w.u64("v", self.version).u64("seq", self.seq);
            w.u64("wall_ms", self.wall_ms)
                .u64("virtual_us", self.virtual_us);
            w.u64("trials", self.trials)
                .u64("trials_total", self.trials_total);
            w.u64("shards", self.shards)
                .u64("shards_total", self.shards_total);
            w.f64("trials_per_sec", self.trials_per_sec, 1);
            w.u64("eta_ms", self.eta_ms)
                .u64("violations", self.violations);
            w.u64("dropped", self.dropped);
            w.array("workers", Layout::Compact, |w| {
                for lane in &self.workers {
                    w.object("", Layout::Compact, |w| {
                        w.u64("worker", lane.worker).u64("tasks", lane.tasks);
                        w.u64("busy_ms", lane.busy_ms);
                        w.f64("utilization", lane.utilization, 4);
                    });
                }
            });
            w.object("races", Layout::Compact, |w| {
                for (label, cell) in &self.races {
                    w.object(label, Layout::Compact, |w| {
                        w.u64("wins", cell.wins).u64("trials", cell.trials);
                    });
                }
            });
        });
        out
    }

    /// Parses a snapshot back from a parsed JSON value — the exact
    /// inverse of [`TelemetrySnapshot::to_json_line`]: only what it
    /// renders is accepted.
    pub fn from_value(value: &Value) -> Result<TelemetrySnapshot, DecodeError> {
        let doc = value.field();
        let version = doc.u64("v")?;
        if version != SCHEMA_VERSION {
            return Err(doc.get("v")?.error(Fault::Invalid(format!(
                "snapshot version {version} is not the supported {SCHEMA_VERSION}"
            ))));
        }
        let mut snapshot = TelemetrySnapshot {
            version,
            seq: doc.u64("seq")?,
            wall_ms: doc.u64("wall_ms")?,
            virtual_us: doc.u64("virtual_us")?,
            trials: doc.u64("trials")?,
            trials_total: doc.u64("trials_total")?,
            shards: doc.u64("shards")?,
            shards_total: doc.u64("shards_total")?,
            trials_per_sec: doc.get("trials_per_sec")?.as_f64()?,
            eta_ms: doc.u64("eta_ms")?,
            violations: doc.u64("violations")?,
            dropped: doc.u64("dropped")?,
            workers: Vec::new(),
            races: Vec::new(),
        };
        let workers = doc.get("workers")?;
        for lane in workers.items()? {
            snapshot.workers.push(WorkerLane {
                worker: lane.u64("worker")?,
                tasks: lane.u64("tasks")?,
                busy_ms: lane.u64("busy_ms")?,
                utilization: lane.get("utilization")?.as_f64()?,
            });
        }
        let races = doc.get("races")?;
        for (label, cell) in races.members()? {
            let wins = cell.u64("wins")?;
            let trials = cell.u64("trials")?;
            snapshot
                .races
                .push((label.to_owned(), RaceCell { wins, trials }));
        }
        value.check_rendering(&snapshot.to_json_line())?;
        Ok(snapshot)
    }
}

/// Parses one sidecar line into a snapshot.
pub fn parse_snapshot_line(line: &str) -> Result<TelemetrySnapshot, DecodeError> {
    TelemetrySnapshot::from_value(&json::parse(line)?)
}

// --- the ring ---------------------------------------------------------------

/// A fixed-capacity snapshot history. Publishing to a full ring evicts
/// the oldest snapshot and counts it in [`SnapshotRing::dropped`] — the
/// count rides inside every later snapshot, so truncation is always
/// visible to consumers.
#[derive(Debug)]
pub struct SnapshotRing {
    capacity: usize,
    buf: VecDeque<TelemetrySnapshot>,
    dropped: u64,
}

impl SnapshotRing {
    /// A ring holding at most `capacity` snapshots (at least one).
    pub fn new(capacity: usize) -> SnapshotRing {
        SnapshotRing {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a snapshot, evicting (and counting) the oldest when full.
    pub fn publish(&mut self, snapshot: TelemetrySnapshot) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(snapshot);
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&TelemetrySnapshot> {
        self.buf.back()
    }

    /// Snapshots currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TelemetrySnapshot> {
        self.buf.iter()
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Snapshots evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// --- the collector ----------------------------------------------------------

/// What a stopped [`Collector`] hands back: the in-memory ring and the
/// session's final snapshot (one is always taken at stop, so even a
/// sub-interval run produces at least one line).
#[derive(Debug)]
pub struct CollectorReport {
    /// The retained snapshot history.
    pub ring: SnapshotRing,
    /// Lines appended to the sidecar file (0 without a sidecar).
    pub lines_written: u64,
}

struct CollectorShared {
    stop: AtomicBool,
}

/// A background sampler: wakes on a wall-clock interval, samples the
/// hub, publishes to the ring, appends a JSONL line to the sidecar (one
/// `write_all` per line — a tail-follower never sees two interleaved
/// lines), and optionally redraws a one-line stderr heartbeat.
pub struct Collector {
    shared: std::sync::Arc<CollectorShared>,
    handle: Option<std::thread::JoinHandle<CollectorReport>>,
}

impl Collector {
    /// Enables telemetry and starts the sampler thread. `path` is the
    /// JSONL sidecar (`None` keeps snapshots in memory only);
    /// `heartbeat` redraws a progress line on stderr each tick.
    pub fn start(
        path: Option<String>,
        interval: Duration,
        heartbeat: bool,
    ) -> std::io::Result<Collector> {
        let mut file = match &path {
            Some(p) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?,
            ),
            None => None,
        };
        set_enabled(true);
        let shared = std::sync::Arc::new(CollectorShared {
            stop: AtomicBool::new(false),
        });
        let thread_shared = shared.clone();
        let interval = interval.max(Duration::from_millis(10));
        let handle = std::thread::Builder::new()
            .name("blap-telemetry".to_owned())
            .spawn(move || {
                let mut ring = SnapshotRing::new(DEFAULT_RING_CAPACITY);
                let mut seq = 0u64;
                let mut prev: Option<TelemetrySnapshot> = None;
                let mut lines_written = 0u64;
                let mut next_tick = Instant::now() + interval;
                loop {
                    let stopping = thread_shared.stop.load(Ordering::Relaxed);
                    if !stopping && Instant::now() < next_tick {
                        std::thread::sleep(Duration::from_millis(10).min(interval));
                        continue;
                    }
                    next_tick += interval;
                    let snapshot = sample(seq, prev.as_ref(), ring.dropped());
                    seq += 1;
                    if let Some(file) = &mut file {
                        let mut line = snapshot.to_json_line();
                        line.push('\n');
                        // One write per line: the append-mode file offset
                        // makes this atomic with respect to a reader
                        // scanning for complete lines.
                        if file.write_all(line.as_bytes()).is_ok() {
                            let _ = file.flush();
                            lines_written += 1;
                        }
                    }
                    if heartbeat {
                        eprint!("\r{}\x1b[K", heartbeat_line(&snapshot));
                    }
                    prev = Some(snapshot.clone());
                    ring.publish(snapshot);
                    if stopping {
                        if heartbeat {
                            eprintln!();
                        }
                        return CollectorReport {
                            ring,
                            lines_written,
                        };
                    }
                }
            })?;
        Ok(Collector {
            shared,
            handle: Some(handle),
        })
    }

    /// Stops the sampler after one final snapshot, disables telemetry,
    /// and returns what was collected.
    pub fn stop(mut self) -> CollectorReport {
        self.shared.stop.store(true, Ordering::Relaxed);
        let report = self
            .handle
            .take()
            .expect("collector stopped once")
            .join()
            .expect("telemetry sampler panicked");
        set_enabled(false);
        report
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            set_enabled(false);
        }
    }
}

/// The one-line stderr heartbeat `blap-campaign` redraws each tick.
pub fn heartbeat_line(s: &TelemetrySnapshot) -> String {
    let percent = if s.trials_total > 0 {
        100.0 * s.trials as f64 / s.trials_total as f64
    } else {
        0.0
    };
    let mut line = format!(
        "campaign: {}/{} trials ({percent:.1}%)  {:.0} trials/s  shards {}/{}",
        s.trials, s.trials_total, s.trials_per_sec, s.shards, s.shards_total
    );
    if s.violations > 0 {
        let _ = write!(line, "  VIOLATIONS {}", s.violations);
    }
    if s.eta_ms > 0 {
        let _ = write!(line, "  eta {:.1}s", s.eta_ms as f64 / 1000.0);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The hub is process-global; serialize the tests that enable it.
    static TELEMETRY_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TELEMETRY_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            version: SCHEMA_VERSION,
            seq: 3,
            wall_ms: 2500,
            virtual_us: 190_000_000,
            trials: 4520,
            trials_total: 10_000,
            shards: 2,
            shards_total: 5,
            trials_per_sec: 1503.2,
            eta_ms: 3600,
            violations: 1,
            dropped: 7,
            workers: vec![
                WorkerLane {
                    worker: 0,
                    tasks: 2,
                    busy_ms: 2100,
                    utilization: 0.84,
                },
                WorkerLane {
                    worker: 3,
                    tasks: 1,
                    busy_ms: 900,
                    utilization: 0.36,
                },
            ],
            races: vec![
                (
                    "Galaxy S8/blocking".to_owned(),
                    RaceCell {
                        wins: 45,
                        trials: 80,
                    },
                ),
                (
                    "hostile \"label\"\n/baseline".to_owned(),
                    RaceCell { wins: 0, trials: 3 },
                ),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let snapshot = sample_snapshot();
        let line = snapshot.to_json_line();
        assert!(!line.contains('\n'), "one line per snapshot: {line}");
        let back = parse_snapshot_line(&line).expect("parses");
        assert_eq!(back, snapshot);
        assert_eq!(back.to_json_line(), line, "render→parse→render is exact");
    }

    #[test]
    fn disabled_hooks_record_nothing() {
        let _guard = locked();
        reset();
        begin_session(SessionTotals {
            trials_total: 10,
            shards_total: 2,
            ..Default::default()
        });
        record_unit(0, Duration::from_millis(5));
        record_trial("dev/blocking", true, 100);
        record_shard();
        record_violations(3);
        let snapshot = sample(0, None, 0);
        assert_eq!(snapshot.trials, 0);
        assert_eq!(snapshot.shards, 0);
        assert_eq!(snapshot.violations, 0);
        assert!(snapshot.workers.is_empty());
        assert!(snapshot.races.is_empty());
        reset();
    }

    #[test]
    fn hub_accumulates_and_samples() {
        let _guard = locked();
        reset();
        begin_session(SessionTotals {
            trials_total: 100,
            shards_total: 4,
            ..Default::default()
        });
        set_enabled(true);
        record_unit(1, Duration::from_millis(20));
        record_unit(1, Duration::from_millis(10));
        record_unit(70 + MAX_WORKER_LANES, Duration::from_millis(1));
        for i in 0..10 {
            record_trial("dev/blocking", i % 2 == 0, 1000);
        }
        record_shard();
        record_violations(2);
        set_enabled(false);
        let snapshot = sample(5, None, 3);
        assert_eq!(snapshot.seq, 5);
        assert_eq!(snapshot.dropped, 3);
        assert_eq!(snapshot.trials, 10);
        assert_eq!(snapshot.trials_total, 100);
        assert_eq!(snapshot.shards, 1);
        assert_eq!(snapshot.shards_total, 4);
        assert_eq!(snapshot.virtual_us, 10_000);
        assert_eq!(snapshot.violations, 2);
        assert_eq!(snapshot.workers.len(), 2, "lane 1 and the overflow lane");
        assert_eq!(snapshot.workers[0].worker, 1);
        assert_eq!(snapshot.workers[0].tasks, 2);
        assert_eq!(snapshot.workers[0].busy_ms, 30);
        assert_eq!(
            snapshot.workers[1].worker,
            MAX_WORKER_LANES as u64 - 1,
            "out-of-range workers fold into the last lane"
        );
        assert_eq!(snapshot.races.len(), 1);
        assert_eq!(
            snapshot.races[0].1,
            RaceCell {
                wins: 5,
                trials: 10
            }
        );
        reset();
    }

    #[test]
    fn resumed_session_seeds_progress() {
        let _guard = locked();
        reset();
        begin_session(SessionTotals {
            trials_total: 100,
            shards_total: 10,
            trials_done: 40,
            shards_done: 4,
        });
        let snapshot = sample(0, None, 0);
        assert_eq!(snapshot.trials, 40);
        assert_eq!(snapshot.shards, 4);
        reset();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = SnapshotRing::new(2);
        for seq in 0..5 {
            ring.publish(TelemetrySnapshot {
                seq,
                ..Default::default()
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let held: Vec<u64> = ring.iter().map(|s| s.seq).collect();
        assert_eq!(held, [3, 4], "oldest evicted first");
        assert_eq!(ring.latest().map(|s| s.seq), Some(4));
    }

    #[test]
    fn collector_writes_at_least_one_line_and_final_snapshot() {
        let _guard = locked();
        reset();
        let dir = std::env::temp_dir().join(format!("blap-telemetry-coll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("telemetry.jsonl");
        let path_str = path.to_str().expect("utf8").to_owned();
        begin_session(SessionTotals {
            trials_total: 4,
            shards_total: 1,
            ..Default::default()
        });
        let collector = Collector::start(
            Some(path_str),
            Duration::from_secs(3600), // longer than the test: only the stop tick fires
            false,
        )
        .expect("collector starts");
        assert!(enabled(), "collector enables the hub");
        record_trial("dev/blocking", true, 10);
        record_shard();
        let report = collector.stop();
        assert!(!enabled(), "stop disables the hub");
        assert_eq!(report.lines_written, 1, "stop always takes a final sample");
        assert_eq!(report.ring.len(), 1);
        let sidecar = std::fs::read_to_string(&path).expect("sidecar written");
        let snapshots: Vec<TelemetrySnapshot> = sidecar
            .lines()
            .map(|line| parse_snapshot_line(line).expect("sidecar parses"))
            .collect();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].trials, 1);
        assert_eq!(snapshots[0].shards, 1);
        let _ = std::fs::remove_dir_all(&dir);
        reset();
    }

    #[test]
    fn heartbeat_line_reports_progress_and_violations() {
        let snapshot = sample_snapshot();
        let line = heartbeat_line(&snapshot);
        assert!(line.contains("4520/10000"), "{line}");
        assert!(line.contains("45.2%"), "{line}");
        assert!(line.contains("VIOLATIONS 1"), "{line}");
        assert!(line.contains("eta 3.6s"), "{line}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let line = sample_snapshot()
            .to_json_line()
            .replacen("{\"v\":1,", "{\"v\":2,", 1);
        let err = parse_snapshot_line(&line).expect_err("future version rejected");
        assert!(err.to_string().contains("version 2"), "{err}");
    }
}
