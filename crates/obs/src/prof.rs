//! `blap-prof`: wall-clock scoped profiling, layered **beside** the
//! deterministic artifacts.
//!
//! The trace/metrics tier is stamped with virtual time only, so it can say
//! *what* a run did but never where real CPU time went. This module is the
//! wall-clock counterpart: RAII [`scope`] guards record self/child
//! wall-time attribution into a per-thread call tree, merged commutatively
//! into a process-wide registry when a thread exits (worker threads in
//! `blap::runner` are scoped and exit at the pool barrier) or when
//! [`report`] drains the calling thread explicitly.
//!
//! Hard rules, enforced by construction:
//!
//! * **Sidecar only.** Nothing recorded here ever reaches a `--trace` or
//!   `--metrics` artifact; profiles are written to their own
//!   `profile.json` / `profile.folded` files, so deterministic artifacts
//!   stay byte-identical whether profiling is on or off, at any
//!   `BLAP_JOBS`.
//! * **Zero-cost when disabled.** [`scope`] is one relaxed atomic load and
//!   a branch; no clock is read, no thread-local touched. The default
//!   state is disabled; enable with [`set_enabled`], the `--profile` flag
//!   on the experiment binaries, or `BLAP_PROF=1`
//!   ([`enable_from_env`]).
//! * **Commutative merge.** Per-thread trees are keyed by scope-name
//!   paths; merging is node-wise addition, so the aggregate is independent
//!   of worker scheduling (the *numbers* are still wall times and vary run
//!   to run — only the shape is schedule-independent).
//!
//! Scope names follow the span-name contract of the deterministic tier
//! (`trial`, `page`, `hci_cmd`, `lmp_auth`, `host_pairing`, `ploc`) plus
//! `crypto.*` kernel scopes and the scheduler's dispatch families, so a
//! flamegraph line like `trial;lmp_auth;crypto.e1` reads in the same
//! vocabulary as the virtual-time analyzer.
//!
//! With the `prof-alloc` feature, [`CountingAlloc`] additionally
//! attributes heap allocation counts and bytes to the innermost open
//! scope (and keeps exact process-wide totals), replacing the ad-hoc
//! counting allocators the regression tests used to carry.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::{self, Layout};

/// The environment variable that enables profiling (`BLAP_PROF=1`).
pub const ENV_VAR: &str = "BLAP_PROF";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide. Scopes already open keep the
/// state they observed at entry, so flipping mid-run never unbalances the
/// call tree.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables profiling when `BLAP_PROF=1`; returns the resulting state.
pub fn enable_from_env() -> bool {
    if std::env::var(ENV_VAR).is_ok_and(|v| v == "1") {
        set_enabled(true);
    }
    enabled()
}

// --- per-thread call tree ---------------------------------------------------

struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }
}

/// Thread-local profiling state: an arena call tree (node 0 is a synthetic
/// root) plus the stack of currently open node indices.
#[derive(Default)]
struct LocalProf {
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

impl LocalProf {
    fn enter(&mut self, name: &'static str) {
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(""));
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let child = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let node = match child {
            Some(c) => c,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node::new(name));
                self.nodes[parent].children.push(idx);
                idx
            }
        };
        self.stack.push(node);
    }

    fn exit(&mut self, elapsed: Duration) {
        if let Some(node) = self.stack.pop() {
            let n = &mut self.nodes[node];
            n.calls += 1;
            n.total_ns = n.total_ns.saturating_add(elapsed.as_nanos() as u64);
        }
    }

    #[cfg(feature = "prof-alloc")]
    fn note_alloc(&mut self, bytes: usize) {
        if let Some(&top) = self.stack.last() {
            let n = &mut self.nodes[top];
            n.alloc_count += 1;
            n.alloc_bytes = n.alloc_bytes.saturating_add(bytes as u64);
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
            || self
                .nodes
                .iter()
                .all(|n| n.calls == 0 && n.alloc_count == 0)
    }

    /// Folds this thread's arena into the global registry's merge tree.
    fn merge_into(&self, tree: &mut MergeNode) {
        if self.nodes.is_empty() {
            return;
        }
        fn fold(nodes: &[Node], idx: usize, into: &mut MergeNode) {
            for &c in &nodes[idx].children {
                let slot = into.children.entry(nodes[c].name).or_default();
                slot.calls += nodes[c].calls;
                slot.total_ns = slot.total_ns.saturating_add(nodes[c].total_ns);
                slot.alloc_count += nodes[c].alloc_count;
                slot.alloc_bytes = slot.alloc_bytes.saturating_add(nodes[c].alloc_bytes);
                fold(nodes, c, slot);
            }
        }
        fold(&self.nodes, 0, tree);
    }
}

impl Drop for LocalProf {
    fn drop(&mut self) {
        if !self.is_empty() {
            let mut global = registry().lock().expect("prof registry lock");
            self.merge_into(&mut global.tree);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalProf> = const {
        RefCell::new(LocalProf { nodes: Vec::new(), stack: Vec::new() })
    };
}

/// RAII guard for one profiled scope; see [`scope`].
///
/// Guards must be dropped in LIFO order (the natural block-scoped usage);
/// out-of-order drops would mis-attribute the interval to whichever scope
/// is innermost at drop time.
pub struct Scope {
    started: Option<Instant>,
}

/// Opens a wall-time scope named `name` on the current thread.
///
/// When profiling is disabled this is a relaxed atomic load and returns an
/// inert guard without reading the clock. When enabled, the interval from
/// this call to the guard's drop is attributed to `name` under the
/// innermost open scope.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope { started: None };
    }
    let entered = LOCAL
        .try_with(|local| {
            if let Ok(mut local) = local.try_borrow_mut() {
                local.enter(name);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    Scope {
        started: entered.then(Instant::now),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = started.elapsed();
        let _ = LOCAL.try_with(|local| {
            if let Ok(mut local) = local.try_borrow_mut() {
                local.exit(elapsed);
            }
        });
    }
}

// --- global registry --------------------------------------------------------

/// One merged node of the process-wide call tree.
#[derive(Clone, Debug, Default)]
struct MergeNode {
    calls: u64,
    total_ns: u64,
    alloc_count: u64,
    alloc_bytes: u64,
    children: BTreeMap<&'static str, MergeNode>,
}

#[derive(Clone, Debug, Default)]
struct PoolStats {
    runs: u64,
    wall_ns: u64,
    workers: BTreeMap<usize, WorkerSlot>,
}

#[derive(Clone, Debug, Default)]
struct WorkerSlot {
    busy_ns: u64,
    tasks: u64,
}

#[derive(Default)]
struct Registry {
    tree: MergeNode,
    pools: BTreeMap<&'static str, PoolStats>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Records one worker's contribution to a pool run: wall time spent
/// executing tasks (`busy`) and how many tasks it completed. Idle time is
/// derived at report time as the pool's wall envelope minus busy time.
pub fn record_worker(pool: &'static str, worker: usize, busy: Duration, tasks: u64) {
    if !enabled() {
        return;
    }
    let mut global = registry().lock().expect("prof registry lock");
    let slot = global
        .pools
        .entry(pool)
        .or_default()
        .workers
        .entry(worker)
        .or_default();
    slot.busy_ns = slot.busy_ns.saturating_add(busy.as_nanos() as u64);
    slot.tasks += tasks;
}

/// Records one completed pool run's wall-clock envelope.
pub fn record_pool(pool: &'static str, wall: Duration) {
    if !enabled() {
        return;
    }
    let mut global = registry().lock().expect("prof registry lock");
    let stats = global.pools.entry(pool).or_default();
    stats.runs += 1;
    stats.wall_ns = stats.wall_ns.saturating_add(wall.as_nanos() as u64);
}

/// Drains the calling thread's local tree into the global registry.
///
/// Threads that record scopes should call this before they finish.
/// A thread-exit `Drop` merge exists as a backstop, but it is *best
/// effort*: `std::thread::scope` (and `JoinHandle` packets) signal
/// completion when the closure returns, **before** thread-local
/// destructors run, so a reader calling [`report`] right after a join can
/// race a destructor-time merge. An explicit drain at the end of the
/// closure is sequenced before the join and never races. The `blap`
/// runner's workers do exactly that; [`report`] drains the calling thread
/// for you.
pub fn drain_thread() {
    let _ = LOCAL.try_with(|local| {
        if let Ok(mut local) = local.try_borrow_mut() {
            if !local.is_empty() {
                let mut global = registry().lock().expect("prof registry lock");
                local.merge_into(&mut global.tree);
            }
            // Emptied in place so the thread-exit Drop won't double-merge.
            local.nodes.clear();
            local.stack.clear();
        }
    });
}

/// Clears all recorded data (global registry and this thread's local
/// tree). Tests use this to isolate runs; production code never needs it.
pub fn reset() {
    let _ = LOCAL.try_with(|local| {
        if let Ok(mut local) = local.try_borrow_mut() {
            local.nodes.clear();
            local.stack.clear();
        }
    });
    let mut global = registry().lock().expect("prof registry lock");
    *global = Registry::default();
}

// --- report -----------------------------------------------------------------

/// One scope in a drained [`Report`], with its children.
#[derive(Clone, Debug)]
pub struct ReportNode {
    /// Scope name (one path segment).
    pub name: String,
    /// Times this scope was entered.
    pub calls: u64,
    /// Inclusive wall time.
    pub total_ns: u64,
    /// Exclusive wall time: `total_ns` minus children's inclusive time.
    pub self_ns: u64,
    /// Heap allocations attributed to this scope (`prof-alloc` only).
    pub alloc_count: u64,
    /// Heap bytes attributed to this scope (`prof-alloc` only).
    pub alloc_bytes: u64,
    /// Child scopes, in name order.
    pub children: Vec<ReportNode>,
}

/// Utilization of one worker across a pool's runs.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index within the pool.
    pub worker: usize,
    /// Tasks completed.
    pub tasks: u64,
    /// Wall time spent inside task bodies.
    pub busy_ns: u64,
    /// `busy / mean(busy)` across the pool's workers; > 1 marks the
    /// overloaded side of an imbalance.
    pub imbalance: f64,
}

/// Utilization of one worker pool (e.g. `parallel_map`).
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Pool name.
    pub pool: String,
    /// Completed runs aggregated here.
    pub runs: u64,
    /// Summed wall-clock envelope of those runs.
    pub wall_ns: u64,
    /// Per-worker breakdown, by worker index.
    pub workers: Vec<WorkerReport>,
}

impl PoolReport {
    /// Total busy time across all workers.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Busy fraction of the pool's total capacity
    /// (`Σbusy / (wall × workers)`), 0.0 when nothing ran.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if capacity == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / capacity as f64
    }
}

/// A drained snapshot of everything recorded so far.
#[derive(Clone, Debug)]
pub struct Report {
    /// Top-level scopes (no parent), in name order.
    pub roots: Vec<ReportNode>,
    /// Worker pools, in name order.
    pub pools: Vec<PoolReport>,
}

fn build_node(name: &str, node: &MergeNode) -> ReportNode {
    let children: Vec<ReportNode> = node
        .children
        .iter()
        .map(|(child_name, child)| build_node(child_name, child))
        .collect();
    let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
    ReportNode {
        name: name.to_owned(),
        calls: node.calls,
        total_ns: node.total_ns,
        self_ns: node.total_ns.saturating_sub(child_total),
        alloc_count: node.alloc_count,
        alloc_bytes: node.alloc_bytes,
        children,
    }
}

/// Drains the calling thread and snapshots the merged profile.
pub fn report() -> Report {
    drain_thread();
    let global = registry().lock().expect("prof registry lock");
    let roots = global
        .tree
        .children
        .iter()
        .map(|(name, node)| build_node(name, node))
        .collect();
    let pools = global
        .pools
        .iter()
        .map(|(pool, stats)| {
            let n = stats.workers.len().max(1) as u64;
            let total_busy: u64 = stats.workers.values().map(|w| w.busy_ns).sum();
            let mean = (total_busy / n).max(1);
            PoolReport {
                pool: (*pool).to_owned(),
                runs: stats.runs,
                wall_ns: stats.wall_ns,
                workers: stats
                    .workers
                    .iter()
                    .map(|(worker, slot)| WorkerReport {
                        worker: *worker,
                        tasks: slot.tasks,
                        busy_ns: slot.busy_ns,
                        imbalance: slot.busy_ns as f64 / mean as f64,
                    })
                    .collect(),
            }
        })
        .collect();
    Report { roots, pools }
}

impl Report {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.pools.is_empty()
    }

    /// Summed inclusive time of the top-level scopes.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Looks up a pool report by name.
    pub fn pool(&self, name: &str) -> Option<&PoolReport> {
        self.pools.iter().find(|p| p.pool == name)
    }

    /// Depth-first walk over `(path, node)` pairs, `;`-joined paths.
    pub fn walk(&self) -> Vec<(String, &ReportNode)> {
        fn descend<'a>(
            prefix: &str,
            node: &'a ReportNode,
            out: &mut Vec<(String, &'a ReportNode)>,
        ) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            out.push((path.clone(), node));
            for child in &node.children {
                descend(&path, child, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            descend("", root, &mut out);
        }
        out
    }

    /// Renders the sidecar `profile.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        json::object(&mut out, Layout::Lines, |w| {
            w.str("schema", "blap-prof-v1");
            w.array("scopes", Layout::Lines, |w| {
                for (path, node) in self.walk() {
                    w.object("", Layout::Compact, |w| {
                        w.str("path", &path).u64("calls", node.calls);
                        w.u64("total_ns", node.total_ns)
                            .u64("self_ns", node.self_ns);
                        w.u64("alloc_count", node.alloc_count);
                        w.u64("alloc_bytes", node.alloc_bytes);
                    });
                }
            });
            w.array("pools", Layout::Lines, |w| {
                for pool in &self.pools {
                    w.object("", Layout::Compact, |w| {
                        w.str("pool", &pool.pool).u64("runs", pool.runs);
                        w.u64("wall_ns", pool.wall_ns);
                        w.f64("utilization", pool.utilization(), 4);
                        w.array("workers", Layout::Compact, |w| {
                            for worker in &pool.workers {
                                w.object("", Layout::Compact, |w| {
                                    w.u64("worker", worker.worker as u64);
                                    w.u64("tasks", worker.tasks).u64("busy_ns", worker.busy_ns);
                                    w.f64("imbalance", worker.imbalance, 4);
                                });
                            }
                        });
                    });
                }
            });
        });
        out.push('\n');
        out
    }

    /// Renders the collapsed-stack `profile.folded` form: one line per
    /// scope path with its **self** time in microseconds — the format
    /// `flamegraph.pl` / `inferno` consume directly.
    pub fn to_folded(&self) -> String {
        let mut out = String::with_capacity(256);
        for (path, node) in self.walk() {
            let _ = writeln!(out, "{path} {}", node.self_ns / 1_000);
        }
        out
    }

    /// Renders the human summary table `blap-bench prof` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::from("wall-time profile (self/total per scope):\n");
        if self.roots.is_empty() {
            out.push_str("  (no scopes recorded)\n");
        }
        for (path, node) in self.walk() {
            let depth = path.matches(';').count();
            let _ = writeln!(
                out,
                "  {:indent$}{:<24} calls={:<8} total_ms={:<10.3} self_ms={:<10.3}{}",
                "",
                node.name,
                node.calls,
                node.total_ns as f64 / 1e6,
                node.self_ns as f64 / 1e6,
                if node.alloc_count > 0 {
                    format!(" allocs={} ({} B)", node.alloc_count, node.alloc_bytes)
                } else {
                    String::new()
                },
                indent = depth * 2
            );
        }
        if !self.pools.is_empty() {
            out.push_str("worker utilization:\n");
            for pool in &self.pools {
                let _ = writeln!(
                    out,
                    "  {:<16} runs={} wall_ms={:.3} utilization={:.1}%",
                    pool.pool,
                    pool.runs,
                    pool.wall_ns as f64 / 1e6,
                    pool.utilization() * 100.0
                );
                for w in &pool.workers {
                    let _ = writeln!(
                        out,
                        "    worker {:<3} tasks={:<8} busy_ms={:<10.3} imbalance={:.2}",
                        w.worker,
                        w.tasks,
                        w.busy_ns as f64 / 1e6,
                        w.imbalance
                    );
                }
            }
        }
        out
    }
}

// --- counting allocator (feature prof-alloc) --------------------------------

#[cfg(feature = "prof-alloc")]
mod alloc_counting {
    use super::LOCAL;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
    static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Const-initialized `Cell`s need no lazy setup and no destructor,
        // so touching them from inside the allocator never allocates.
        static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
        static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// A pass-through global allocator that counts every allocation and,
    /// when profiling is enabled, attributes it to the innermost open
    /// scope on the allocating thread.
    ///
    /// Install it from a binary or test crate:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static GLOBAL: blap_obs::prof::CountingAlloc = blap_obs::prof::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    fn note(bytes: usize) {
        TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
        TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        if !super::enabled() {
            return;
        }
        // try_with + try_borrow_mut: never allocate, never recurse, and
        // stay inert during thread-local destruction.
        let _ = LOCAL.try_with(|local| {
            if let Ok(mut local) = local.try_borrow_mut() {
                local.note_alloc(bytes);
            }
        });
    }

    // SAFETY: pure pass-through to `System`; the counting side effect
    // touches only atomics and (re-entrancy-guarded) thread-local
    // counters, never the allocator itself.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Process-wide `(allocation count, bytes)` since start.
    pub fn global_allocations() -> (u64, u64) {
        (
            TOTAL_COUNT.load(Ordering::Relaxed),
            TOTAL_BYTES.load(Ordering::Relaxed),
        )
    }

    /// The calling thread's `(allocation count, bytes)` since it started.
    fn thread_allocations() -> (u64, u64) {
        (THREAD_COUNT.with(Cell::get), THREAD_BYTES.with(Cell::get))
    }

    /// Allocations the calling thread performs while `f` runs, as a
    /// `(count, bytes)` delta of its own counters.
    ///
    /// Meaningful when [`CountingAlloc`] is installed as the global
    /// allocator. Other threads — libtest's harness threads, concurrently
    /// running tests — never leak into the window, but neither does work
    /// `f` hands to other threads: measure serial code paths (e.g. a
    /// runner at one worker, which executes inline on the caller).
    pub fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
        let (count_before, bytes_before) = thread_allocations();
        f();
        let (count_after, bytes_after) = thread_allocations();
        (count_after - count_before, bytes_after - bytes_before)
    }
}

#[cfg(feature = "prof-alloc")]
pub use alloc_counting::{allocations_during, global_allocations, CountingAlloc};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The profiler is process-global state; serialize the tests that
    // enable it so they cannot observe each other's scopes.
    static PROF_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        PROF_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _guard = locked();
        reset();
        set_enabled(false);
        {
            let _s = scope("trial");
            let _t = scope("page");
        }
        assert!(report().is_empty(), "disabled profiler records nothing");
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_times() {
        let _guard = locked();
        reset();
        set_enabled(true);
        {
            let _trial = scope("trial");
            {
                let _page = scope("page");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _lmp = scope("lmp_auth");
                let _e1 = scope("crypto.e1");
            }
        }
        set_enabled(false);
        let report = report();
        assert_eq!(report.roots.len(), 1);
        let trial = &report.roots[0];
        assert_eq!(trial.name, "trial");
        assert_eq!(trial.calls, 1);
        let names: Vec<&str> = trial.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["lmp_auth", "page"], "children in name order");
        let child_total: u64 = trial.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(trial.self_ns, trial.total_ns - child_total);
        assert!(trial.total_ns >= child_total, "inclusive ≥ children");
        let paths: Vec<String> = report.walk().into_iter().map(|(p, _)| p).collect();
        assert!(
            paths.contains(&"trial;lmp_auth;crypto.e1".to_owned()),
            "{paths:?}"
        );
        // Folded export carries the full hierarchy with self-times.
        let folded = report.to_folded();
        assert!(folded.contains("trial;page "), "{folded}");
        assert!(folded.contains("trial;lmp_auth;crypto.e1 "), "{folded}");
    }

    #[test]
    fn sibling_threads_merge_commutatively() {
        let _guard = locked();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    {
                        let _t = scope("trial");
                        let _p = scope("page");
                    }
                    // Explicit drain: scope() signals completion before
                    // TLS destructors run, so the Drop-merge backstop can
                    // race the report() below.
                    drain_thread();
                });
            }
        });
        set_enabled(false);
        let report = report();
        let trial = report
            .roots
            .iter()
            .find(|r| r.name == "trial")
            .expect("trial");
        assert_eq!(trial.calls, 2, "both threads' trees merged");
        assert_eq!(trial.children[0].calls, 2);
    }

    #[test]
    fn worker_pool_accounting_and_imbalance() {
        let _guard = locked();
        reset();
        set_enabled(true);
        record_worker("parallel_map", 0, Duration::from_millis(30), 1);
        record_worker("parallel_map", 1, Duration::from_millis(10), 3);
        record_pool("parallel_map", Duration::from_millis(32));
        set_enabled(false);
        let report = report();
        let pool = report.pool("parallel_map").expect("pool recorded");
        assert_eq!(pool.runs, 1);
        assert_eq!(pool.workers.len(), 2);
        assert_eq!(pool.busy_ns(), 40_000_000);
        let w0 = &pool.workers[0];
        assert!(w0.imbalance > 1.0, "slow worker above the mean: {w0:?}");
        assert!(pool.workers[1].imbalance < 1.0);
        assert!(pool.utilization() > 0.5 && pool.utilization() <= 1.0);
        let json = report.to_json();
        assert!(json.contains("\"pool\":\"parallel_map\""), "{json}");
        assert!(json.contains("\"schema\": \"blap-prof-v1\""), "{json}");
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = locked();
        reset();
        set_enabled(true);
        {
            let _s = scope("trial");
        }
        record_pool("parallel_map", Duration::from_millis(1));
        set_enabled(false);
        assert!(!report().is_empty());
        reset();
        assert!(report().is_empty());
    }

    #[test]
    fn render_table_lists_scopes_and_workers() {
        let _guard = locked();
        reset();
        set_enabled(true);
        {
            let _t = scope("trial");
            let _h = scope("hci_cmd");
        }
        record_worker("parallel_map", 0, Duration::from_millis(5), 7);
        record_pool("parallel_map", Duration::from_millis(6));
        set_enabled(false);
        let table = report().render_table();
        assert!(table.contains("trial"), "{table}");
        assert!(table.contains("hci_cmd"), "{table}");
        assert!(table.contains("worker 0"), "{table}");
        assert!(table.contains("tasks=7"), "{table}");
    }
}
