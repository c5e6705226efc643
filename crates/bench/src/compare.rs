//! Perf-regression gate over the hotpaths artifact.
//!
//! [`compare`] diffs a freshly generated `BENCH_hotpaths.json` against the
//! committed baseline, metric by metric, with per-section relative
//! thresholds (kernel `ns_per_op` numbers are steadier than end-to-end
//! `wall_ms` ones, so they get a tighter budget). The `throughput` section
//! is gated as a *floor*: its metrics (candidates per second) regress by
//! dropping, so only a ratio below `1 - threshold` breaches and a gain can
//! never fail the gate. Wall-clock numbers are
//! only comparable between like machines, so the v2 artifact carries a
//! [`HostFingerprint`]; when the fingerprints differ — or the baseline
//! predates them (`blap-bench-hotpaths-v1`) — a threshold breach is
//! [`Verdict::Excused`] rather than [`Verdict::Regressed`], unless the
//! caller opts into `strict` mode.
//!
//! Every comparison can be appended to `BENCH_history.jsonl` via
//! [`history_record`], one self-describing JSON line per run, so the
//! committed history trends the same metrics the gate checks.

use blap_obs::json::{self, DecodeError, Fault, Layout, Value, Writer};

/// Identity of the machine/toolchain that produced a hotpaths artifact.
///
/// Captured at build time (rustc and target triple via the build script)
/// and at run time (cpu model and core count), this is deliberately
/// coarse: it answers "are these two wall-time numbers from comparable
/// hosts?", not "which exact machine was this?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// `rustc --version` of the compiler that built the binary.
    pub rustc: String,
    /// Target triple the binary was built for.
    pub target: String,
    /// CPU model name (`/proc/cpuinfo`), or `"unknown"`.
    pub cpu: String,
    /// Logical core count.
    pub cores: u64,
}

impl HostFingerprint {
    /// The fingerprint of the running binary on the current machine.
    pub fn current() -> HostFingerprint {
        HostFingerprint {
            rustc: env!("BLAP_BUILD_RUSTC").to_owned(),
            target: env!("BLAP_BUILD_TARGET").to_owned(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }

    /// Renders the fingerprint as a JSON object, one member per line,
    /// each line prefixed with `indent`.
    pub fn render_json(&self, indent: &str) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Lines, |w| self.write_members(w));
        out.replace('\n', &format!("\n{indent}"))
    }

    /// Writes the fingerprint's members, for a document that embeds it.
    pub fn write_members(&self, w: &mut Writer) {
        w.str("rustc", &self.rustc).str("target", &self.target);
        w.str("cpu", &self.cpu).u64("cores", self.cores);
    }

    /// Parses the `"host"` object of a v2 artifact.
    pub fn from_value(value: &Value) -> Result<HostFingerprint, DecodeError> {
        let doc = value.field();
        Ok(HostFingerprint {
            rustc: doc.str("rustc")?.to_owned(),
            target: doc.str("target")?.to_owned(),
            cpu: doc.str("cpu")?.to_owned(),
            cores: doc.u64("cores")?,
        })
    }
}

/// First `model name` line from `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    cpuinfo.lines().find_map(|line| {
        let rest = line.strip_prefix("model name")?;
        let (_, value) = rest.split_once(':')?;
        let value = value.trim();
        (!value.is_empty()).then(|| value.to_owned())
    })
}

/// Thresholds and strictness for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Allowed relative growth for `ns_per_op` metrics (0.35 = +35%).
    pub ns_threshold: f64,
    /// Allowed relative growth for `wall_ms` metrics.
    pub wall_threshold: f64,
    /// Allowed relative *shrink* for `throughput` metrics (0.25 = -25%).
    /// Throughput is a floor, not a ceiling: bigger is better, so only a
    /// drop can breach.
    pub throughput_threshold: f64,
    /// When set, a threshold breach regresses even across differing host
    /// fingerprints (useful for local runs where the host is known equal
    /// but the toolchain string moved).
    pub strict: bool,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            ns_threshold: 0.35,
            wall_threshold: 0.50,
            throughput_threshold: 0.25,
            strict: false,
        }
    }
}

/// Gate outcome for one baseline/fresh pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No metric grew past its threshold.
    Pass,
    /// At least one metric breached, but the artifacts came from
    /// non-comparable hosts (differing or missing fingerprints) and the
    /// config was not strict.
    Excused,
    /// At least one metric breached between comparable hosts.
    Regressed,
}

impl Verdict {
    /// Lower-case label used in history records and transcripts.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Excused => "excused",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One metric's baseline/fresh pair.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Artifact section (`ns_per_op`, `wall_ms` or `throughput`).
    pub section: &'static str,
    /// Metric name within the section.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// The relative budget this metric was held to.
    pub threshold: f64,
    /// Floor semantics: bigger is better (throughput), so a breach is a
    /// ratio *below* `1 - threshold`. Ceiling metrics (latencies) breach
    /// above `1 + threshold`.
    pub floor: bool,
}

impl MetricDelta {
    /// Whether this metric moved past its budget in the bad direction.
    pub fn breached(&self) -> bool {
        if self.floor {
            self.ratio < 1.0 - self.threshold
        } else {
            self.ratio > 1.0 + self.threshold
        }
    }

    /// How bad this delta is, normalized so ceilings and floors compare:
    /// `ratio` for ceiling metrics, `baseline / fresh` for floor metrics.
    /// `> 1` means "moved in the bad direction".
    pub fn badness(&self) -> f64 {
        if self.floor {
            self.ratio.recip()
        } else {
            self.ratio
        }
    }
}

/// Result of [`compare`]: the verdict plus everything needed to explain it.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The gate outcome.
    pub verdict: Verdict,
    /// Per-metric deltas, artifact order.
    pub deltas: Vec<MetricDelta>,
    /// Baseline host fingerprint (absent for v1 artifacts).
    pub baseline_host: Option<HostFingerprint>,
    /// Fresh host fingerprint (absent for v1 artifacts).
    pub fresh_host: Option<HostFingerprint>,
    /// Non-fatal observations: skipped metrics, missing counterparts,
    /// excusal reasons.
    pub notes: Vec<String>,
}

impl Comparison {
    /// Whether both artifacts carry fingerprints and they are equal.
    pub fn hosts_comparable(&self) -> bool {
        matches!((&self.baseline_host, &self.fresh_host), (Some(b), Some(f)) if b == f)
    }

    /// Metrics that grew past their budget.
    pub fn breaches(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.breached()).collect()
    }

    /// Human-readable transcript: one line per metric, then the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<27} {:>12} {:>12} {:>8}  budget\n",
            "section", "metric", "baseline", "fresh", "ratio"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<10} {:<27} {:>12.1} {:>12.1} {:>8.3}  {}{:.0}%{}\n",
                d.section,
                d.metric,
                d.baseline,
                d.fresh,
                d.ratio,
                if d.floor { '-' } else { '+' },
                d.threshold * 100.0,
                if d.breached() {
                    "  <-- over budget"
                } else {
                    ""
                },
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out.push_str(&format!("verdict: {}\n", self.verdict.label()));
        out
    }
}

/// Accepted artifact schemas: the fingerprinted v2 and the fingerprint-free
/// v1 it replaced (old committed baselines must stay readable).
const SCHEMAS: [&str; 2] = ["blap-bench-hotpaths-v2", "blap-bench-hotpaths-v1"];

/// One comparable artifact section: its JSON key and whether its metrics
/// are floors (bigger is better) or ceilings (smaller is better).
struct Section {
    name: &'static str,
    floor: bool,
}

/// Sections compared, with which [`CompareConfig`] threshold governs each
/// (paired up inside [`compare`], artifact order).
const SECTIONS: [Section; 3] = [
    Section {
        name: "ns_per_op",
        floor: false,
    },
    Section {
        name: "wall_ms",
        floor: false,
    },
    Section {
        name: "throughput",
        floor: true,
    },
];

/// Parses one hotpaths artifact and its host fingerprint (absent in v1),
/// refusing an unknown schema; errors are labelled with `label`.
fn parse_artifact(
    label: &str,
    text: &str,
) -> Result<(Value, Option<HostFingerprint>), DecodeError> {
    let read = || {
        let value = json::parse(text)?;
        let doc = value.field();
        let schema = doc.str("schema")?;
        if !SCHEMAS.contains(&schema) {
            return Err(doc.get("schema")?.error(Fault::Invalid(format!(
                "unsupported schema {schema:?} (expected one of {SCHEMAS:?})"
            ))));
        }
        let host = value
            .get("host")
            .map(|host| HostFingerprint::from_value(host).map_err(|e| e.within("host")))
            .transpose()?;
        Ok((value, host))
    };
    read().map_err(|err: DecodeError| err.within(label))
}

/// Why [`compare`] gave no verdict.
#[derive(Debug)]
pub enum CompareError {
    /// An artifact that does not decode.
    Decode(DecodeError),
    /// In strict mode, a metric whose ratio is undefined: why.
    Ungateable(String),
}

impl From<DecodeError> for CompareError {
    fn from(err: DecodeError) -> CompareError {
        CompareError::Decode(err)
    }
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::Decode(err) => err.fmt(f),
            CompareError::Ungateable(reason) => {
                write!(f, "{reason} (strict mode rejects ungateable metrics)")
            }
        }
    }
}

/// Diffs two hotpaths artifacts (raw JSON text) and gates on the result.
///
/// Errors only on malformed input — unparseable JSON, an unknown schema
/// or a malformed host fingerprint — and, in strict mode, on a metric
/// whose ratio is undefined. Metric-level oddities (nulls, metrics present
/// on one side only) are reported via [`Comparison::notes`] instead, so
/// adding a kernel to the bench never breaks the gate against an older
/// baseline.
pub fn compare(
    baseline_text: &str,
    fresh_text: &str,
    config: &CompareConfig,
) -> Result<Comparison, CompareError> {
    let (baseline, baseline_host) = parse_artifact("baseline", baseline_text)?;
    let (fresh, fresh_host) = parse_artifact("fresh", fresh_text)?;

    let mut deltas = Vec::new();
    let mut notes = Vec::new();
    for (section, threshold) in SECTIONS.iter().zip([
        config.ns_threshold,
        config.wall_threshold,
        config.throughput_threshold,
    ]) {
        let Section {
            name: section,
            floor,
        } = *section;
        let (Some(Value::Object(base_members)), fresh_section) =
            (baseline.get(section), fresh.get(section))
        else {
            notes.push(format!("baseline has no {section:?} section"));
            continue;
        };
        for (metric, base_value) in base_members {
            let Ok(base) = base_value.field().as_f64() else {
                notes.push(format!(
                    "{section}.{metric}: baseline value not numeric, skipped"
                ));
                continue;
            };
            let Some(fresh_value) = fresh_section.and_then(|s| s.get(metric)) else {
                notes.push(format!("{section}.{metric}: missing from fresh artifact"));
                continue;
            };
            let Ok(fresh_num) = fresh_value.field().as_f64() else {
                notes.push(format!(
                    "{section}.{metric}: fresh value not numeric, skipped"
                ));
                continue;
            };
            // A ratio needs a positive finite baseline and a finite fresh
            // value. A zero baseline divides to ±inf, inf/inf is NaN, and
            // every NaN comparison is false — `breached()` would quietly
            // report "within budget" for garbage inputs. Lax mode skips the
            // metric with a note (an old baseline missing a real value must
            // not fail CI); strict mode treats it as a broken artifact.
            let undefined = if !(base.is_finite() && base > 0.0) {
                Some(format!(
                    "{section}.{metric}: baseline value {base} is zero or not finite, ratio undefined"
                ))
            } else if !fresh_num.is_finite() {
                Some(format!(
                    "{section}.{metric}: fresh value {fresh_num} is not finite, ratio undefined"
                ))
            } else {
                None
            };
            if let Some(reason) = undefined {
                if config.strict {
                    return Err(CompareError::Ungateable(reason));
                }
                notes.push(reason);
                continue;
            }
            deltas.push(MetricDelta {
                section,
                metric: metric.clone(),
                baseline: base,
                fresh: fresh_num,
                ratio: fresh_num / base,
                threshold,
                floor,
            });
        }
        if let Some(Value::Object(fresh_members)) = fresh_section {
            for (metric, _) in fresh_members {
                if !base_members.iter().any(|(name, _)| name == metric) {
                    notes.push(format!("{section}.{metric}: not in baseline, ungated"));
                }
            }
        }
    }

    let breached = deltas.iter().any(MetricDelta::breached);
    let hosts_comparable = matches!((&baseline_host, &fresh_host), (Some(b), Some(f)) if b == f);
    let verdict = if !breached {
        Verdict::Pass
    } else if hosts_comparable || config.strict {
        Verdict::Regressed
    } else {
        notes.push(match (&baseline_host, &fresh_host) {
            (None, _) | (_, None) => {
                "threshold breach excused: artifact without a host fingerprint (v1)".to_owned()
            }
            _ => "threshold breach excused: host fingerprints differ".to_owned(),
        });
        Verdict::Excused
    };

    Ok(Comparison {
        verdict,
        deltas,
        baseline_host,
        fresh_host,
        notes,
    })
}

/// One `BENCH_history.jsonl` line for a finished comparison: the verdict,
/// host comparability, every fresh metric value, and the worst ratio —
/// enough to trend the gate's inputs without re-reading old artifacts.
pub fn history_record(comparison: &Comparison, unix_time: u64) -> String {
    let worst = comparison
        .deltas
        .iter()
        .max_by(|a, b| a.badness().total_cmp(&b.badness()));
    let mut out = String::new();
    json::object(&mut out, Layout::Compact, |w| {
        w.str("schema", "blap-bench-history-v1")
            .u64("unix_time", unix_time);
        w.str("verdict", comparison.verdict.label());
        w.bool("hosts_comparable", comparison.hosts_comparable());
        w.u64("compared", comparison.deltas.len() as u64);
        w.u64("breaches", comparison.breaches().len() as u64);
        match worst {
            Some(d) => w.object("worst", Layout::Compact, |w| {
                w.str("metric", &format!("{}.{}", d.section, d.metric));
                w.f64("ratio", d.ratio, 4);
            }),
            None => w.null("worst"),
        };
        match &comparison.fresh_host {
            Some(host) => w.object("host", Layout::Compact, |w| host.write_members(w)),
            None => w.null("host"),
        };
        for section in SECTIONS.iter().map(|s| s.name) {
            w.object(section, Layout::Compact, |w| {
                for d in comparison.deltas.iter().filter(|d| d.section == section) {
                    w.f64(&d.metric, d.fresh, 1);
                }
            });
        }
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(
        schema: &str,
        host: Option<&HostFingerprint>,
        e1_ns: f64,
        table1_ms: f64,
    ) -> String {
        artifact_with_throughput(schema, host, e1_ns, table1_ms, 2_000_000.0)
    }

    fn artifact_with_throughput(
        schema: &str,
        host: Option<&HostFingerprint>,
        e1_ns: f64,
        table1_ms: f64,
        cand_per_sec: f64,
    ) -> String {
        let host_block = host
            .map(|h| format!("  \"host\": {},\n", h.render_json("  ")))
            .unwrap_or_default();
        format!(
            "{{\n  \"schema\": \"{schema}\",\n{host_block}  \"ns_per_op\": {{\n    \"legacy_e1\": {e1_ns:.1},\n    \"aes128_encrypt_block\": 60.0\n  }},\n  \"wall_ms\": {{\n    \"table1\": {table1_ms:.1},\n    \"table1_units\": null\n  }},\n  \"throughput\": {{\n    \"pincrack_candidates_per_sec\": {cand_per_sec:.1}\n  }}\n}}\n"
        )
    }

    fn host(cpu: &str) -> HostFingerprint {
        HostFingerprint {
            rustc: "rustc 1.75.0".to_owned(),
            target: "x86_64-unknown-linux-gnu".to_owned(),
            cpu: cpu.to_owned(),
            cores: 8,
        }
    }

    #[test]
    fn fingerprint_render_parse_round_trips() {
        let original = HostFingerprint::current();
        let rendered = original.render_json("");
        let parsed = json::parse(&rendered).expect("valid JSON");
        assert_eq!(HostFingerprint::from_value(&parsed), Ok(original));
    }

    #[test]
    fn identical_artifacts_pass_with_unit_ratios() {
        let h = host("cpu0");
        let text = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0);
        let cmp = compare(&text, &text, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Pass);
        assert!(cmp.hosts_comparable());
        // The null wall metric is skipped with a note, the rest compare.
        assert_eq!(cmp.deltas.len(), 4);
        assert!(cmp.deltas.iter().all(|d| d.ratio == 1.0));
        assert!(cmp.notes.iter().any(|n| n.contains("table1_units")));
    }

    #[test]
    fn same_host_breach_regresses() {
        let h = host("cpu0");
        let base = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0);
        let fresh = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0 * 1.4, 13.0);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Regressed);
        assert_eq!(cmp.breaches().len(), 1);
        assert_eq!(cmp.breaches()[0].metric, "legacy_e1");
    }

    #[test]
    fn cross_host_breach_is_excused_unless_strict() {
        let base = artifact("blap-bench-hotpaths-v2", Some(&host("cpu0")), 350.0, 13.0);
        let fresh = artifact("blap-bench-hotpaths-v2", Some(&host("cpu1")), 800.0, 13.0);
        let lax = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(lax.verdict, Verdict::Excused);
        assert!(lax.notes.iter().any(|n| n.contains("fingerprints differ")));
        let strict = CompareConfig {
            strict: true,
            ..CompareConfig::default()
        };
        let strict_cmp = compare(&base, &fresh, &strict).expect("comparable");
        assert_eq!(strict_cmp.verdict, Verdict::Regressed);
    }

    #[test]
    fn v1_baseline_without_fingerprint_is_readable_and_excuses() {
        let base = artifact("blap-bench-hotpaths-v1", None, 350.0, 13.0);
        let fresh = artifact("blap-bench-hotpaths-v2", Some(&host("cpu0")), 800.0, 13.0);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Excused);
        assert!(cmp.baseline_host.is_none());
        assert!(cmp.notes.iter().any(|n| n.contains("v1")));
    }

    #[test]
    fn wall_metrics_get_the_looser_budget() {
        let h = host("cpu0");
        let base = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0);
        // +40%: over the 35% ns budget, under the 50% wall budget.
        let fresh = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0 * 1.4);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Pass);
    }

    #[test]
    fn throughput_drop_past_floor_regresses() {
        let h = host("cpu0");
        let base = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e6);
        // -30%: under the default -25% throughput floor.
        let fresh =
            artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e6 * 0.7);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Regressed);
        assert_eq!(cmp.breaches().len(), 1);
        let breach = cmp.breaches()[0];
        assert_eq!(breach.metric, "pincrack_candidates_per_sec");
        assert!(breach.floor);
        assert!(cmp.render().contains("-25%"), "{}", cmp.render());
    }

    #[test]
    fn throughput_gain_never_breaches() {
        let h = host("cpu0");
        let base = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e6);
        // A 10x throughput gain would breach a ceiling budget; as a floor
        // metric it must pass untouched.
        let fresh = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e7);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        assert_eq!(cmp.verdict, Verdict::Pass);
        assert!(cmp.breaches().is_empty());
    }

    #[test]
    fn history_worst_metric_accounts_for_floor_direction() {
        let h = host("cpu0");
        let base = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e6);
        // Latencies improve slightly; throughput halves. The throughput
        // drop (badness 2.0) must win "worst" over the sub-1.0 latency
        // ratios even though its raw ratio is the *smallest*.
        let fresh = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 340.0, 12.5, 1e6);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        let record = history_record(&cmp, 1_700_000_000);
        let value = json::parse(record.trim_end()).expect("valid JSON");
        assert_eq!(
            value
                .get("worst")
                .and_then(|w| w.get("metric"))
                .and_then(Value::as_str),
            Some("throughput.pincrack_candidates_per_sec")
        );
        assert!(value
            .get("throughput")
            .and_then(|s| s.get("pincrack_candidates_per_sec"))
            .is_some());
    }

    #[test]
    fn zero_baseline_is_skipped_lax_and_fatal_strict() {
        let h = host("cpu0");
        let base = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 0.0);
        let fresh = artifact_with_throughput("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0, 2e6);
        let lax = compare(&base, &fresh, &CompareConfig::default()).expect("lax mode skips");
        assert_eq!(lax.verdict, Verdict::Pass);
        assert!(
            lax.deltas
                .iter()
                .all(|d| d.metric != "pincrack_candidates_per_sec"),
            "an undefined ratio must not be gated"
        );
        assert!(
            lax.notes.iter().any(|n| n.contains("ratio undefined")),
            "{:?}",
            lax.notes
        );
        let strict = CompareConfig {
            strict: true,
            ..CompareConfig::default()
        };
        let err = compare(&base, &fresh, &strict).expect_err("strict mode rejects");
        assert!(
            err.to_string().contains("pincrack_candidates_per_sec"),
            "{err}"
        );
        assert!(err.to_string().contains("ratio undefined"), "{err}");
    }

    #[test]
    fn non_finite_values_cannot_silently_pass_the_gate() {
        let h = host("cpu0");
        let good = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0);
        // 1e999 parses to +inf; inf/inf is NaN and every NaN comparison is
        // false, so before the explicit check this self-comparison passed
        // the gate with the metric silently ungated.
        let inf = good.replace("\"legacy_e1\": 350.0", "\"legacy_e1\": 1e999");
        let lax = compare(&inf, &inf, &CompareConfig::default()).expect("lax mode skips");
        assert_eq!(lax.verdict, Verdict::Pass);
        assert!(lax.deltas.iter().all(|d| d.metric != "legacy_e1"));
        assert!(
            lax.notes
                .iter()
                .any(|n| n.contains("legacy_e1") && n.contains("not finite")),
            "{:?}",
            lax.notes
        );
        let strict = CompareConfig {
            strict: true,
            ..CompareConfig::default()
        };
        let err = compare(&inf, &inf, &strict).expect_err("strict rejects inf baseline");
        assert!(err.to_string().contains("legacy_e1"), "{err}");
        // A non-finite *fresh* value against a healthy baseline is just as
        // ungateable.
        let err = compare(&good, &inf, &strict).expect_err("strict rejects inf fresh");
        assert!(err.to_string().contains("fresh value"), "{err}");
    }

    #[test]
    fn unknown_schema_is_an_error() {
        let good = artifact("blap-bench-hotpaths-v2", None, 1.0, 1.0);
        let bad = good.replace("hotpaths-v2", "hotpaths-v9");
        let err = compare(&bad, &good, &CompareConfig::default()).expect_err("must reject");
        assert!(err.to_string().contains("unsupported schema"), "{err}");
        let err = compare("not json", &good, &CompareConfig::default()).expect_err("must reject");
        assert!(err.to_string().contains("baseline"), "{err}");
    }

    #[test]
    fn history_record_is_single_line_json_with_fresh_values() {
        let h = host("cpu0");
        let base = artifact("blap-bench-hotpaths-v2", Some(&h), 350.0, 13.0);
        let fresh = artifact("blap-bench-hotpaths-v2", Some(&h), 420.0, 14.0);
        let cmp = compare(&base, &fresh, &CompareConfig::default()).expect("comparable");
        let record = history_record(&cmp, 1_700_000_000);
        assert!(record.ends_with('\n'));
        assert_eq!(record.trim_end().lines().count(), 1);
        let value = json::parse(record.trim_end()).expect("valid JSON");
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("blap-bench-history-v1")
        );
        assert_eq!(value.get("verdict").and_then(Value::as_str), Some("pass"));
        assert_eq!(
            value
                .get("worst")
                .and_then(|w| w.get("metric"))
                .and_then(Value::as_str),
            Some("ns_per_op.legacy_e1")
        );
        assert!(value
            .get("ns_per_op")
            .and_then(|s| s.get("legacy_e1"))
            .is_some());
        assert!(value.get("host").and_then(|h| h.get("cores")).is_some());
    }
}
