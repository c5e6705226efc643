//! Trace analysis: rebuild per-trial timelines from JSONL artifacts,
//! profile where virtual time went, and check the causal invariants the
//! BLAP attack arguments rest on.
//!
//! The analyzer consumes exactly what [`crate::trace`] produces. A trace
//! is split into **segments** — one per trial — at `unit_start`
//! markers and at root `trial` span opens (a `trial_pair` unit runs two
//! worlds under one tracer, so virtual time resets mid-unit; the root span
//! is the authoritative boundary). All checks are then per segment, since
//! timestamps are only comparable within one world.
//!
//! This module is a thin batch facade over
//! [`crate::stream::StreamAnalyzer`], which scans each line in place
//! (no per-line tree), holds state for one in-flight trial at a time and
//! retires each segment as its boundary arrives. The wrapper exists for
//! callers that already hold the whole artifact (tests, small fixtures);
//! anything campaign-scale should push lines or typed events at the
//! streaming core directly.
//!
//! ## Invariant catalog
//!
//! * **`lmp-matching`** — every `lmp_recv` at time *t* must match an
//!   `lmp_send` of the same PDU at *t − 1250 µs* (the model's fixed LMP
//!   latency). Every `lmp_send` must be consumed by a matching recv unless
//!   the link died after the send (`link_drop` at ≥ send time) or the
//!   world deadline passed while the PDU was in flight. `LMP_detach` is
//!   exempt: supervision timeouts inject it directly on both ends.
//! * **`ploc-no-pairing`** — a device holding a PLOC link (opened a
//!   `ploc` span) must never itself open a `host_pairing` span in the same
//!   trial: the attacker parks the link, it does not pair over it.
//! * **`keystore-after-auth`** — keystore `store` / `remove` mutations on
//!   a device must be preceded by an `lmp_auth` span open on that device.
//!   `install` is exempt — planting a stolen key *without* running auth is
//!   the Fig. 10 attack itself.
//! * **`blocking-implies-win`** — in a `blocking` trial, if the attacker's
//!   PLOC link predates the victim's `host_pairing` span, outlives its
//!   start, and the attacker captured a link key, the trial must close
//!   `attacker_won`; conversely a trial closing `attacker_won` must show
//!   one of the win mechanisms: a PLOC link predating the victim's
//!   pairing, a page race the attacker won outright (short pairing delays
//!   can hand the attacker the race before any PLOC link establishes), or
//!   a late link onto the victim that connects after the honest pairing
//!   and survives to the end of the trial (address spoofing routes the
//!   attacker's `Connection_Complete` to the real peer, so no `ploc` span
//!   opens, but the raw link still stands at judgment).
//! * **`span-structure`** — closes must match opens; no double-close.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::metrics::Histogram;

/// The model's fixed LMP/ACL delivery latency in virtual microseconds.
pub const LMP_LATENCY_US: u64 = 1250;

/// A failure to parse a trace artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant fired (e.g. `"lmp-matching"`).
    pub invariant: &'static str,
    /// Segment (trial) index the violation is in, 0-based.
    pub segment: usize,
    /// Offending artifact line, when one line can be blamed.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] segment {}", self.invariant, self.segment)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Virtual-time attribution per span kind: where did the trial's time go.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    phases: BTreeMap<String, PhaseStats>,
}

/// Stats for one span kind.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Durations (close − open) of completed spans, in virtual µs.
    pub durations: Histogram,
    /// Spans of this kind never closed before their segment ended.
    pub unclosed: u64,
}

impl PhaseProfile {
    /// Stats for one span kind, when any span of that kind was seen.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.get(name)
    }

    /// Iterates phases in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Mutable stats for one span kind, created on first use — the
    /// streaming core's fold entry point.
    pub(crate) fn stats_mut(&mut self, name: &str) -> &mut PhaseStats {
        // Avoids allocating the key when the phase already exists (the
        // common case: a campaign has millions of spans over ~10 kinds).
        if !self.phases.contains_key(name) {
            self.phases.insert(name.to_owned(), PhaseStats::default());
        }
        self.phases.get_mut(name).expect("phase just ensured")
    }

    /// Merges another profile in (histograms and unclosed counts add).
    /// Commutative and associative, like a metrics bag: per-shard
    /// profiles folded in any grouping yield the same totals.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (name, stats) in &other.phases {
            let mine = self.stats_mut(name);
            mine.durations.merge(&stats.durations);
            mine.unclosed += stats.unclosed;
        }
    }

    /// Renders the flamegraph-style table: one row per span kind with
    /// count, total, p50/p95 and max, ordered by total time descending.
    pub fn render(&self) -> String {
        let mut out = String::from("phase-latency profile (virtual time):\n");
        let mut rows: Vec<(&String, &PhaseStats)> = self.phases.iter().collect();
        rows.sort_by(|a, b| {
            (b.1.durations.sum(), a.0.as_str()).cmp(&(a.1.durations.sum(), b.0.as_str()))
        });
        for (name, stats) in rows {
            let h = &stats.durations;
            let _ = write!(
                out,
                "  {name:<14} count={:<6} total_us={:<10} p50_us={:<8} p95_us={:<8} max_us={}",
                h.count(),
                h.sum(),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.95).unwrap_or(0),
                h.max()
            );
            if stats.unclosed > 0 {
                let _ = write!(out, "  (+{} unclosed)", stats.unclosed);
            }
            out.push('\n');
        }
        if self.phases.is_empty() {
            out.push_str("  (no spans in trace)\n");
        }
        out
    }
}

/// The full result of analyzing one trace artifact.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Number of event lines parsed.
    pub line_count: usize,
    /// Number of trial segments reconstructed.
    pub segment_count: usize,
    /// Virtual-time attribution per span kind.
    pub profile: PhaseProfile,
    /// Invariant violations, in artifact order.
    pub violations: Vec<Violation>,
    /// Informational notes (unclosed spans etc.) — not failures.
    pub notes: Vec<String>,
}

impl TraceAnalysis {
    /// Whether the trace passed every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable check report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} lines, {} trial segments, {} violations",
            self.line_count,
            self.segment_count,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "VIOLATION {v}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

/// Fully analyzes a trace artifact: segmentation, phase profile, and the
/// invariant catalog.
///
/// Batch facade over [`crate::stream::StreamAnalyzer`]: every line is
/// pushed through the streaming core, so the two tiers cannot drift. The
/// first malformed line aborts the analysis with its parse error.
pub fn analyze_trace(text: &str) -> Result<TraceAnalysis, AnalyzeError> {
    let mut analyzer = crate::stream::StreamAnalyzer::new();
    for raw in text.lines() {
        analyzer.push_line(raw)?;
    }
    Ok(analyzer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(text: &str) -> TraceAnalysis {
        analyze_trace(text).expect("trace parses")
    }

    #[test]
    fn empty_trace_is_clean() {
        let a = analyze("");
        assert!(a.ok());
        assert_eq!(a.line_count, 0);
        assert_eq!(a.segment_count, 0);
    }

    #[test]
    fn out_of_range_device_id_is_rejected_not_truncated() {
        // 2^32 truncates to dev 0 under an `as u32` cast — the line would
        // silently attribute its span to the victim device. It must be a
        // parse error instead.
        let mut analyzer = crate::stream::StreamAnalyzer::new();
        let err = analyzer
            .push_line("{\"t\":1,\"dev\":4294967296,\"ev\":\"lmp_send\"}")
            .expect_err("oversized dev must not parse");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("4294967296"), "{}", err.message);
        assert!(err.message.contains("u32"), "{}", err.message);
        // u32::MAX itself is still a valid id, and it is the id the
        // analysis attributes the line's span to.
        let trace = "\
{\"t\":0,\"dev\":4294967295,\"ev\":\"span_open\",\"span\":1,\"name\":\"ploc\"}\n\
{\"t\":100,\"dev\":4294967295,\"ev\":\"span_open\",\"span\":2,\"name\":\"host_pairing\"}\n";
        let a = analyze(trace);
        assert_eq!(a.violations.len(), 1, "{}", a.report());
        assert!(
            a.violations[0].message.contains("Some(4294967295)"),
            "{}",
            a.report()
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = analyze_trace("{\"t\":1,\"ev\":\"x\"}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = analyze_trace("{\"ev\":\"missing-t\"}\n").unwrap_err();
        assert!(err.message.contains("\"t\""), "{err}");
    }

    #[test]
    fn matched_lmp_send_recv_passes() {
        let trace = "\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
{\"t\":100,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_au_rand\"}\n\
{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"bb:bb:bb:bb:bb:bb\",\"pdu\":\"LMP_au_rand\"}\n\
{\"t\":2000,\"ev\":\"span_close\",\"span\":1,\"status\":\"done\"}\n";
        let a = analyze(trace);
        assert!(a.ok(), "{}", a.report());
        assert_eq!(a.segment_count, 1);
    }

    #[test]
    fn recv_without_send_is_flagged() {
        let trace =
            "{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"bb:bb:bb:bb:bb:bb\",\"pdu\":\"LMP_au_rand\"}\n";
        let a = analyze(trace);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].invariant, "lmp-matching");
    }

    #[test]
    fn unreceived_send_is_flagged_unless_excused() {
        // Send at t=100 with the segment living to t=10000 and no link
        // death: violation.
        let send = "{\"t\":100,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_au_rand\"}\n";
        let late = "{\"t\":10000,\"ev\":\"attack_phase\",\"label\":\"end\"}\n";
        let a = analyze(&format!("{send}{late}"));
        assert_eq!(a.violations.len(), 1, "{}", a.report());

        // Same send, but the link died after it: excused.
        let drop = "{\"t\":600,\"dev\":1,\"ev\":\"link_drop\",\"reason\":\"detach\"}\n";
        assert!(analyze(&format!("{send}{drop}{late}")).ok());

        // Same send still in flight when the segment ends: excused.
        assert!(analyze(send).ok());

        // LMP_detach is exempt in both directions.
        let fabricated =
            "{\"t\":500,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_detach\"}\n";
        assert!(analyze(&format!("{fabricated}{late}")).ok());
    }

    #[test]
    fn ploc_device_pairing_is_flagged() {
        let trace = "\
{\"t\":0,\"dev\":2,\"ev\":\"span_open\",\"span\":1,\"name\":\"ploc\"}\n\
{\"t\":100,\"dev\":2,\"ev\":\"span_open\",\"span\":2,\"name\":\"host_pairing\"}\n";
        let a = analyze(trace);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].invariant, "ploc-no-pairing");
        // A different device pairing is fine.
        let ok = "\
{\"t\":0,\"dev\":2,\"ev\":\"span_open\",\"span\":1,\"name\":\"ploc\"}\n\
{\"t\":100,\"dev\":0,\"ev\":\"span_open\",\"span\":2,\"name\":\"host_pairing\"}\n";
        assert!(analyze(ok).ok());
    }

    #[test]
    fn keystore_store_requires_prior_auth_span() {
        let bare = "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n";
        let a = analyze(bare);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].invariant, "keystore-after-auth");

        let authed = "\
{\"t\":100,\"dev\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"lmp_auth\"}\n\
{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n";
        assert!(analyze(authed).ok());

        // The planted key of Fig. 10 is exempt by design.
        let install = "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"install\"}\n";
        assert!(analyze(install).ok());
    }

    #[test]
    fn blocking_win_consistency() {
        let base = "\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"blocking\"}\n\
{\"t\":10,\"dev\":2,\"ev\":\"span_open\",\"span\":2,\"name\":\"ploc\"}\n\
{\"t\":100,\"dev\":0,\"ev\":\"span_open\",\"span\":3,\"name\":\"host_pairing\"}\n\
{\"t\":150,\"dev\":2,\"ev\":\"span_open\",\"span\":4,\"name\":\"lmp_auth\"}\n\
{\"t\":200,\"dev\":2,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n";
        // Blocked pairing + stolen key + attacker_won: consistent.
        let won = format!(
            "{base}{}",
            "{\"t\":300,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_won\"}\n"
        );
        assert!(analyze(&won).ok(), "{}", analyze(&won).report());
        // Same evidence but the trial claims the attacker lost: flagged.
        let lost = format!(
            "{base}{}",
            "{\"t\":300,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_lost\"}\n"
        );
        let a = analyze(&lost);
        assert_eq!(a.violations.len(), 1, "{}", a.report());
        assert_eq!(a.violations[0].invariant, "blocking-implies-win");
        // attacker_won without any PLOC link predating the pairing: flagged.
        let phantom = "\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"blocking\"}\n\
{\"t\":100,\"dev\":0,\"ev\":\"span_open\",\"span\":2,\"name\":\"host_pairing\"}\n\
{\"t\":300,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_won\"}\n";
        let a = analyze(phantom);
        assert_eq!(a.violations.len(), 1, "{}", a.report());
    }

    #[test]
    fn trial_pair_units_are_segmented_at_root_spans() {
        let trace = "\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":0,\"label\":\"trial_pair\"}\n\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
{\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_lost\"}\n\
{\"t\":0,\"ev\":\"span_open\",\"span\":2,\"name\":\"trial\",\"detail\":\"blocking\"}\n\
{\"t\":5000,\"ev\":\"span_close\",\"span\":2,\"status\":\"attacker_lost\"}\n\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":1,\"label\":\"trial_pair\"}\n\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
{\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_won\"}\n";
        let a = analyze(trace);
        assert_eq!(a.segment_count, 3, "{}", a.report());
        assert!(a.ok(), "{}", a.report());
        let trial = a.profile.phase("trial").expect("trial spans profiled");
        assert_eq!(trial.durations.count(), 3);
        assert_eq!(trial.durations.quantile(0.5), Some(5000));
    }

    #[test]
    fn double_close_and_unknown_close_are_structural_violations() {
        let trace = "\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"page\"}\n\
{\"t\":10,\"ev\":\"span_close\",\"span\":1,\"status\":\"connected\"}\n\
{\"t\":20,\"ev\":\"span_close\",\"span\":1,\"status\":\"connected\"}\n\
{\"t\":30,\"ev\":\"span_close\",\"span\":9,\"status\":\"ok\"}\n";
        let a = analyze(trace);
        assert_eq!(a.violations.len(), 2, "{}", a.report());
        assert!(a.violations.iter().all(|v| v.invariant == "span-structure"));
    }

    #[test]
    fn profile_counts_unclosed_spans() {
        let trace = "{\"t\":0,\"dev\":1,\"ev\":\"span_open\",\"span\":1,\"name\":\"page\"}\n";
        let a = analyze(trace);
        assert!(a.ok());
        assert_eq!(a.profile.phase("page").map(|p| p.unclosed), Some(1));
        assert_eq!(a.notes.len(), 1);
        assert!(a.profile.render().contains("unclosed"));
    }
}
