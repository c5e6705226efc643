//! Structural comparison of two observability artifacts.
//!
//! CI used to gate determinism with a bare `diff` over artifact bytes:
//! a one-line divergence failed the job with no hint of *what* drifted.
//! This module produces a structured report instead — for traces, the
//! first divergent line plus divergence counts; for metrics documents, a
//! path-by-path comparison that knows `wall_ms` is run-dependent by
//! design (`BLAP_METRICS_WALL=1`) and must not count as drift.

use std::fmt::Write as _;

use crate::analyze::AnalyzeError;
use crate::json::{self, DecodeError, Value};
use crate::stream;

/// The result of comparing two artifacts.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Individual findings, in artifact order.
    pub findings: Vec<String>,
    /// Number of differing lines/paths (may exceed `findings.len()` when
    /// the listing is capped).
    pub differences: usize,
}

/// How many individual findings a report lists before truncating.
const MAX_FINDINGS: usize = 50;

impl DiffReport {
    /// Whether the artifacts are equivalent (no unexplained drift).
    pub fn no_drift(&self) -> bool {
        self.differences == 0
    }

    /// Renders the report; `a_name`/`b_name` label the two inputs.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        if self.no_drift() {
            return format!("no drift: {a_name} == {b_name}\n");
        }
        let mut out = format!(
            "DRIFT: {} difference(s) between {a_name} and {b_name}\n",
            self.differences
        );
        for finding in &self.findings {
            let _ = writeln!(out, "  {finding}");
        }
        if self.differences > self.findings.len() {
            let _ = writeln!(
                out,
                "  ... and {} more",
                self.differences - self.findings.len()
            );
        }
        out
    }

    fn push(&mut self, finding: String) {
        self.differences += 1;
        if self.findings.len() < MAX_FINDINGS {
            self.findings.push(finding);
        }
    }
}

/// Incremental trace comparison: feed paired lines as they stream off
/// two readers, then [`TraceDiff::finish`]. Memory is bounded — the
/// report holds at most `MAX_FINDINGS` findings regardless of artifact
/// length, and no line is retained after its `push_pair` call — which is
/// what lets `blap-trace diff` walk two campaign-scale artifacts without
/// materializing either. A line `blap-trace check` refuses is refused
/// here with the same error.
#[derive(Debug, Default)]
pub struct TraceDiff {
    report: DiffReport,
    a_lines: usize,
    b_lines: usize,
}

impl TraceDiff {
    /// A fresh comparison.
    pub fn new() -> TraceDiff {
        TraceDiff::default()
    }

    /// Consumes the next line from each artifact (`None` once that
    /// artifact is exhausted — keep pushing until both are). A refused
    /// line fails with its error and artifact: 0 first, 1 second.
    pub fn push_pair(
        &mut self,
        a: Option<&str>,
        b: Option<&str>,
    ) -> Result<(), (usize, AnalyzeError)> {
        if let Some(line) = a {
            self.a_lines += 1;
            stream::scan_line(line, self.a_lines, |_| ()).map_err(|err| (0, err))?;
        }
        if let Some(line) = b {
            self.b_lines += 1;
            stream::scan_line(line, self.b_lines, |_| ()).map_err(|err| (1, err))?;
        }
        if let (Some(la), Some(lb)) = (a, b) {
            if la != lb {
                self.report
                    .push(format!("line {}: {la:?} != {lb:?}", self.a_lines));
            }
        }
        Ok(())
    }

    /// Completes the comparison (accounting for a length mismatch) and
    /// returns the report.
    pub fn finish(mut self) -> DiffReport {
        if self.a_lines != self.b_lines {
            self.report.push(format!(
                "line count: {} vs {} ({} extra line(s) in the longer artifact)",
                self.a_lines,
                self.b_lines,
                self.a_lines.abs_diff(self.b_lines)
            ));
        }
        self.report
    }
}

/// Compares two trace JSONL artifacts line by line — batch facade over
/// [`TraceDiff`] for callers already holding both artifacts.
pub fn diff_traces(a: &str, b: &str) -> Result<DiffReport, AnalyzeError> {
    let mut diff = TraceDiff::new();
    let mut a_lines = a.lines();
    let mut b_lines = b.lines();
    loop {
        let (la, lb) = (a_lines.next(), b_lines.next());
        if la.is_none() && lb.is_none() {
            return Ok(diff.finish());
        }
        diff.push_pair(la, lb).map_err(|(_, err)| err)?;
    }
}

/// Compares two metrics JSON documents structurally, ignoring the
/// run-dependent `wall_ms` meta field.
pub fn diff_metrics(a: &str, b: &str) -> Result<DiffReport, DecodeError> {
    let a_paths = flatten_json(&json::parse(a)?);
    let b_paths = flatten_json(&json::parse(b)?);
    let mut report = DiffReport::default();
    let mut bi = 0usize;
    // Both flattenings are sorted by path, so a single merge pass finds
    // added, removed, and changed entries.
    let mut ai = 0usize;
    while ai < a_paths.len() || bi < b_paths.len() {
        match (a_paths.get(ai), b_paths.get(bi)) {
            (Some((pa, va)), Some((pb, vb))) if pa == pb => {
                if va != vb && !is_wall_path(pa) {
                    report.push(format!("{pa}: {va} != {vb}"));
                }
                ai += 1;
                bi += 1;
            }
            (Some((pa, va)), Some((pb, _))) if pa < pb => {
                if !is_wall_path(pa) {
                    report.push(format!("{pa}: {va} only in first artifact"));
                }
                ai += 1;
            }
            (Some(_), Some((pb, vb))) => {
                if !is_wall_path(pb) {
                    report.push(format!("{pb}: {vb} only in second artifact"));
                }
                bi += 1;
            }
            (Some((pa, va)), None) => {
                if !is_wall_path(pa) {
                    report.push(format!("{pa}: {va} only in first artifact"));
                }
                ai += 1;
            }
            (None, Some((pb, vb))) => {
                if !is_wall_path(pb) {
                    report.push(format!("{pb}: {vb} only in second artifact"));
                }
                bi += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    Ok(report)
}

fn is_wall_path(path: &str) -> bool {
    // Wall-clock durations are run-dependent by design: the meta header's
    // wall_ms and any *_wall_us histograms collected under
    // BLAP_METRICS_WALL=1.
    path.rsplit('.')
        .next()
        .is_some_and(|leaf| leaf == "wall_ms")
        || path.contains("wall_us")
}

/// Flattens a parsed JSON document into sorted `(dotted.path, scalar)`
/// pairs: object members become `path.key`, array elements `path[i]`,
/// strings render `Debug`-quoted, numbers keep their literal text. This is
/// the canonical form both the metrics differ and the exporter round-trip
/// tests compare in.
pub fn flatten_json(value: &Value) -> Vec<(String, String)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out.sort();
    out
}

fn walk(value: &Value, path: String, out: &mut Vec<(String, String)>) {
    match value {
        Value::Object(members) => {
            for (key, v) in members {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(v, child, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, format!("{path}[{i}]"), out);
            }
        }
        Value::Str(s) => out.push((path, format!("{s:?}"))),
        Value::Num(n) => out.push((path, n.clone())),
        Value::Bool(b) => out.push((path, b.to_string())),
        Value::Null => out.push((path, "null".to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_traces_report_no_drift() {
        let t = "{\"t\":0,\"ev\":\"warning\"}\n{\"t\":1,\"ev\":\"scan\"}\n";
        let report = diff_traces(t, t).expect("valid traces");
        assert!(report.no_drift());
        assert!(report.render("a", "b").starts_with("no drift"));
    }

    #[test]
    fn trace_divergence_names_the_line() {
        let a = "{\"t\":0,\"ev\":\"warning\"}\n{\"t\":1,\"ev\":\"scan\"}\n";
        let b =
            "{\"t\":0,\"ev\":\"warning\"}\n{\"t\":2,\"ev\":\"scan\"}\n{\"t\":3,\"ev\":\"race\"}\n";
        let report = diff_traces(a, b).expect("valid traces");
        assert_eq!(report.differences, 2);
        assert!(report.findings[0].starts_with("line 2:"), "{report:?}");
        assert!(report.findings[1].contains("line count"), "{report:?}");
        assert!(report.render("a", "b").starts_with("DRIFT"));
    }

    #[test]
    fn lines_check_refuses_are_refused_with_checks_error() {
        let good = "{\"t\":0,\"ev\":\"warning\"}\n";
        for bad in [
            "{\"t\":0,\"ev\":\"nonsense\"}\n",
            "{\"ev\":\"warning\"}\n",
            "not json\n",
        ] {
            let want = crate::analyze_trace(bad).expect_err("check refuses it");
            let mut diff = TraceDiff::new();
            assert_eq!(
                diff.push_pair(Some(good), Some(bad)),
                Err((1, want.clone()))
            );
            let mut diff = TraceDiff::new();
            assert_eq!(diff.push_pair(Some(bad), None), Err((0, want.clone())));
            assert_eq!(diff_traces(bad, bad).expect_err("refused"), want);
        }
    }

    #[test]
    fn metrics_diff_finds_changed_and_missing_paths() {
        let a = r#"{"metrics":{"counters":{"x":1,"only_a":2}}}"#;
        let b = r#"{"metrics":{"counters":{"x":3,"only_b":4}}}"#;
        let report = diff_metrics(a, b).expect("parses");
        assert_eq!(report.differences, 3);
        let text = report.render("a", "b");
        assert!(text.contains("metrics.counters.x: 1 != 3"), "{text}");
        assert!(text.contains("only_a"), "{text}");
        assert!(text.contains("only_b"), "{text}");
    }

    #[test]
    fn wall_clock_paths_are_not_drift() {
        let a = r#"{"wall_ms": 120, "metrics":{"histograms":{"unit_wall_us":{"count":5}}}}"#;
        let b = r#"{"wall_ms": 345, "metrics":{"histograms":{"unit_wall_us":{"count":9}}}}"#;
        let report = diff_metrics(a, b).expect("parses");
        assert!(report.no_drift(), "{:?}", report.findings);
        // A wall_ms field present on only one side is also excused.
        let c = r#"{"metrics":{"histograms":{}}}"#;
        let d = r#"{"wall_ms": 1, "metrics":{"histograms":{}}}"#;
        assert!(diff_metrics(c, d).expect("parses").no_drift());
    }

    #[test]
    fn metrics_diff_rejects_malformed_input() {
        assert!(diff_metrics("{", "{}").is_err());
    }
}
