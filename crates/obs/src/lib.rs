//! Deterministic observability for the BLAP reproduction.
//!
//! Both BLAP attacks are diagnosed from what crosses the HCI seam, yet the
//! simulation itself was a black box: when a Table II trial lands outside
//! the 42–60% band, the only tool was `println!` archaeology through a
//! 625 µs-slotted event loop. This crate is the first-class replacement —
//! three parts, all deterministic:
//!
//! * [`trace`] — typed [`trace::TraceEvent`]s (scheduler dispatch, page and
//!   scan transitions, LMP send/recv, HCI seam crossings, keystore
//!   mutations, attack-phase markers) fanned out through a cloneable
//!   [`trace::Tracer`] handle to pluggable [`trace::TraceSink`]s: a
//!   ring-buffer [`trace::FlightRecorder`] for post-mortem dumps and a
//!   [`trace::JsonlBuffer`] for byte-comparable JSONL artifacts.
//! * [`metrics`] — counters, gauges and power-of-two [`metrics::Histogram`]s
//!   in a [`metrics::Metrics`] bag that merges commutatively, so per-world
//!   aggregates combined in unit-index order are identical at any worker
//!   count.
//! * Determinism rules — every event and metric is stamped with *virtual*
//!   time only. Wall-clock durations exist (the runner measures them) but
//!   are excluded from exported artifacts unless explicitly requested, so
//!   `--metrics` / trace output is byte-identical across runs, machines and
//!   `BLAP_JOBS` values.
//!
//! The whole layer is zero-cost when disabled: a disabled [`trace::Tracer`]
//! is a `None` check per call site, and the always-on counters are plain
//! `u64` increments on structs the hot loops already own.
//!
//! On top of the recording tier sits the **analysis tier** (PR 4):
//!
//! * [`span`] — causal spans (trial → page / LMP auth / host pairing /
//!   PLOC / HCI exchange) with parent links, allocated deterministically
//!   per tracer and rendered as `span_open` / `span_close` trace lines.
//! * [`analyze`] — reconstructs per-trial segments from trace JSONL,
//!   computes a virtual-time phase-latency profile, and runs the
//!   declarative invariant checker the attack arguments rest on (every
//!   LMP send matched, PLOC links never pairing, keystore writes only
//!   after auth, page blocking implying a stolen pairing).
//! * [`stream`] — the single-pass streaming core under [`analyze`]:
//!   [`stream::StreamAnalyzer`] scans each line in place without building
//!   a JSON tree, holds constant memory per in-flight trial,
//!   retires segments as their boundaries arrive, and (via
//!   [`stream::StreamSink`] + [`stream::ViolationSummary`]) lets the
//!   campaign engine check invariants live while trials execute.
//! * [`binfmt`] — the compact length-prefixed binary trace encoding and
//!   its streaming reader/writer; `blap-trace convert` round-trips it
//!   against JSONL byte-deterministically.
//! * [`diff`] — structural comparison of two trace/metrics artifacts, the
//!   CI gate that replaced ad-hoc byte diffs.
//! * [`json`] — the shared escaper and integer writer every renderer
//!   uses, plus the one dependency-free grammar artifacts are read back
//!   with: a tree parser for whole documents and an in-place field scanner
//!   for trace lines, nesting capped at [`json::MAX_DEPTH`].
//!
//! Beside the deterministic tier — never inside it — sits [`prof`], the
//! wall-clock profiling subsystem (`blap-prof`): RAII scope guards keyed
//! by the same span names, per-worker pool utilization, flamegraph-folded
//! export, and (behind the `prof-alloc` feature) a counting global
//! allocator. Its output is sidecar-only, so enabling it never perturbs a
//! `--trace`/`--metrics` byte.
//!
//! [`telemetry`] extends the wall-clock side with a **live** tier: a
//! versioned [`telemetry::TelemetrySnapshot`] bus sampled on an interval
//! while a campaign runs (trials/s, per-worker utilization, win rates,
//! violation counts, ETA), ring-buffered with an explicit
//! dropped-snapshot counter and appended as JSONL for `blap-top` to
//! tail-follow. It obeys the same sidecar rule: deterministic artifacts
//! are byte-identical with telemetry on or off.

// `prof-alloc` implements `GlobalAlloc`, which is inherently unsafe; the
// rest of the crate stays forbid-clean.
#![cfg_attr(not(feature = "prof-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "prof-alloc", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod analyze;
pub mod binfmt;
pub mod diff;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod span;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use analyze::{analyze_trace, PhaseProfile, TraceAnalysis, Violation};
pub use binfmt::{BinaryBuffer, CodecError, Frame, FrameReader, FrameWriter};
pub use diff::{diff_metrics, diff_traces, flatten_json, DiffReport, TraceDiff};
pub use metrics::{export_json, Histogram, MetaValue, Metrics};
pub use span::SpanId;
pub use stream::{StreamAnalyzer, StreamSink, ViolationSummary};
pub use telemetry::{SnapshotRing, TelemetrySnapshot};
pub use trace::{DumpOnAssert, FlightRecorder, JsonlBuffer, TraceEvent, TraceSink, Tracer};
