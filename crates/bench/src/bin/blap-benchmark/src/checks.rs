//! Correctness checks and failure accounting.
//!
//! Every workload folds what it ran into one [`Verdict`]: how many
//! operations it attempted, how many failed, and every correctness check
//! that did not hold. None of the checks depends on the seed: they hold
//! for any population draw, so a held-out seed passes them as well as the
//! default one.

use blap::link_key_extraction::ExtractionReport;
use blap::page_blocking::PageBlockingRow;
use blap_obs::{Metrics, ViolationSummary};
use blap_sim::DeviceProfile;

/// Operations attempted and failed in one run, and the checks that failed.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations the run attempted (trials, trace lines, table rows).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// One line per correctness check that did not hold.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records `problem` unless `ok`.
    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// A merged campaign bag: every blocking trial establishes the MITM
    /// (a loss is a failed operation), and each device's baseline win rate
    /// sits within [`baseline_tolerance`] of the paper's rate.
    pub fn campaign(&mut self, metrics: &Metrics, pool: &[(DeviceProfile, u32)]) {
        self.attempted += metrics.counter("campaign.trials");
        for (profile, _) in pool {
            let count = |suffix: &str| {
                metrics.counter(&format!("campaign.device.{}.{suffix}", profile.name))
            };
            let (blocking, blocking_wins) = (count("blocking_trials"), count("blocking_wins"));
            let lost = blocking.saturating_sub(blocking_wins);
            self.failed += lost;
            self.require(lost == 0, || {
                format!(
                    "{}: {lost} of {blocking} blocking trials lost",
                    profile.name
                )
            });
            let (baseline, baseline_wins) = (count("baseline_trials"), count("baseline_wins"));
            let Some(paper) = profile.baseline_mitm_rate else {
                self.problems
                    .push(format!("{}: no paper baseline rate", profile.name));
                continue;
            };
            if baseline == 0 {
                continue;
            }
            let measured = baseline_wins as f64 / baseline as f64;
            let tolerance = baseline_tolerance(paper, baseline);
            self.require((measured - paper).abs() <= tolerance, || {
                format!(
                    "{}: baseline win rate {:.3} over {baseline} trials is outside {paper:.2} ± {tolerance:.3}",
                    profile.name, measured
                )
            });
        }
    }

    /// A campaign's invariant summary: each violation is a failed operation.
    pub fn invariants(&mut self, summary: &ViolationSummary) {
        self.failed += summary.violations;
        self.require(summary.is_clean(), || summary.render());
    }

    /// Two digests of what must be the same artifact.
    pub fn same_digest(&mut self, what: &str, expected: u64, got: u64) {
        self.require(expected == got, || {
            format!("{what}: digest {got:016x}, expected {expected:016x}")
        });
    }

    /// One paper reproduction: every Table I row is vulnerable and every
    /// Table II blocking rate is 1.0. Rows and blocking trials are the
    /// attempted operations.
    pub fn paper(&mut self, table1: &[ExtractionReport], table2: &[PageBlockingRow]) {
        for report in table1 {
            self.attempted += 1;
            let vulnerable = report.vulnerable();
            self.failed += u64::from(!vulnerable);
            self.require(vulnerable, || {
                format!("Table I: {} is not vulnerable", report.soft_target.name)
            });
        }
        for row in table2 {
            let trials = row.trials as u64;
            let wins = (row.measured_blocking_rate * trials as f64).round() as u64;
            self.attempted += trials;
            self.failed += trials.saturating_sub(wins);
            self.require(row.measured_blocking_rate == 1.0, || {
                format!(
                    "Table II: {} page blocking rate {}",
                    row.device, row.measured_blocking_rate
                )
            });
        }
    }
}

/// How far a measured baseline win rate over `trials` trials may sit from
/// the paper's `rate`: four binomial standard deviations plus one
/// percentage point for the model's own calibration.
pub fn baseline_tolerance(rate: f64, trials: u64) -> f64 {
    4.0 * (rate * (1.0 - rate) / trials.max(1) as f64).sqrt() + 0.01
}

/// The simulator's accuracy against the paper: the trial-weighted mean
/// over devices of |measured baseline win rate − paper rate|, in
/// percentage points, from `(trials, wins, paper rate)` per device.
pub fn rate_error_pp(devices: impl IntoIterator<Item = (u64, u64, f64)>) -> f64 {
    let (mut weighted, mut total) = (0.0, 0u64);
    for (trials, wins, paper) in devices {
        if trials > 0 {
            weighted += (wins as f64 / trials as f64 - paper).abs() * trials as f64;
            total += trials;
        }
    }
    100.0 * weighted / total.max(1) as f64
}

/// [`rate_error_pp`] over a campaign bag's baseline trials.
pub fn campaign_rate_error_pp(metrics: &Metrics, pool: &[(DeviceProfile, u32)]) -> f64 {
    rate_error_pp(pool.iter().map(|(profile, _)| {
        let count =
            |suffix: &str| metrics.counter(&format!("campaign.device.{}.{suffix}", profile.name));
        (
            count("baseline_trials"),
            count("baseline_wins"),
            profile.baseline_mitm_rate.unwrap_or(0.5),
        )
    }))
}

/// [`rate_error_pp`] over Table II rows.
pub fn table2_rate_error_pp(rows: &[PageBlockingRow]) -> f64 {
    rate_error_pp(rows.iter().map(|row| {
        let trials = row.trials as u64;
        let wins = (row.measured_baseline_rate * trials as f64).round() as u64;
        (trials, wins, row.paper_baseline_rate)
    }))
}

/// 64-bit FNV-1a: a digest for comparing artifacts without keeping them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_sim::profiles;

    /// A campaign bag over `pool` where each device ran `n` trials of each
    /// mode, won `blocking_wins(n)` blocking trials and won its baseline
    /// trials at exactly its paper rate.
    fn bag(pool: &[(DeviceProfile, u32)], n: u64, blocking_wins: impl Fn(u64) -> u64) -> Metrics {
        let mut m = Metrics::new();
        for (profile, _) in pool {
            let key = |suffix: &str| format!("campaign.device.{}.{suffix}", profile.name);
            let paper = profile
                .baseline_mitm_rate
                .expect("campaign devices have rates");
            m.add("campaign.trials", 2 * n);
            m.add(&key("blocking_trials"), n);
            m.add(&key("blocking_wins"), blocking_wins(n));
            m.add(&key("baseline_trials"), n);
            m.add(&key("baseline_wins"), (paper * n as f64).round() as u64);
        }
        m
    }

    #[test]
    fn clean_campaign_passes() {
        let pool = profiles::campaign_pool();
        let mut v = Verdict::default();
        v.campaign(&bag(&pool, 400, |n| n), &pool);
        assert!(v.correct(), "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (2 * 400 * pool.len() as u64, 0));
        assert!(campaign_rate_error_pp(&bag(&pool, 400, |n| n), &pool) < 0.2);
    }

    #[test]
    fn lost_blocking_trial_is_a_failure() {
        let pool = profiles::campaign_pool();
        let mut v = Verdict::default();
        v.campaign(&bag(&pool[..1], 100, |n| n - 1), &pool[..1]);
        assert_eq!(v.failed, 1);
        assert!(!v.correct());
        assert!(
            v.problems[0].contains("1 of 100 blocking trials lost"),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn baseline_rate_outside_tolerance_is_flagged() {
        let pool = profiles::campaign_pool();
        let (profile, _) = pool[0];
        let paper = profile.baseline_mitm_rate.expect("rate");
        let mut m = bag(&pool[..1], 1000, |n| n);
        let key = format!("campaign.device.{}.baseline_wins", profile.name);
        // Push the measured rate just past the tolerance.
        let over = ((paper + baseline_tolerance(paper, 1000) + 0.01) * 1000.0) as u64;
        m.add(&key, over - m.counter(&key));
        let mut v = Verdict::default();
        v.campaign(&m, &pool[..1]);
        assert_eq!(v.failed, 0, "a baseline loss is not a failed operation");
        assert_eq!(v.problems.len(), 1);
        assert!(
            v.problems[0].contains("baseline win rate"),
            "{:?}",
            v.problems
        );
        // Just inside the tolerance passes.
        let inside = ((paper + baseline_tolerance(paper, 1000) - 0.005) * 1000.0) as u64;
        let mut m = bag(&pool[..1], 1000, |n| n);
        m.add(&key, inside - m.counter(&key));
        let mut v = Verdict::default();
        v.campaign(&m, &pool[..1]);
        assert!(v.correct(), "{:?}", v.problems);
    }

    #[test]
    fn tolerance_shrinks_with_trials() {
        assert!(baseline_tolerance(0.5, 100) > baseline_tolerance(0.5, 10_000));
        assert!((baseline_tolerance(0.5, 10_000) - (4.0 * 0.005 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn digest_mismatch_is_flagged() {
        let mut v = Verdict::default();
        v.same_digest("metrics", fnv1a(b"same"), fnv1a(b"same"));
        assert!(v.correct());
        v.same_digest("metrics", fnv1a(b"plain"), fnv1a(b"observed"));
        assert!(!v.correct());
        assert!(
            v.problems[0].starts_with("metrics: digest"),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn invariant_violations_count_as_failures() {
        let mut summary = ViolationSummary::new();
        summary.trials_checked = 10;
        let mut v = Verdict::default();
        v.invariants(&summary);
        assert!(v.correct());
        summary.violations = 3;
        v.invariants(&summary);
        assert_eq!(v.failed, 3);
        assert!(!v.correct());
    }

    #[test]
    fn paper_rows_count_rows_and_blocking_trials() {
        let vulnerable = ExtractionReport {
            soft_target: profiles::nexus_5x_a8(),
            channel: None,
            bonded_key: None,
            extracted_key: None,
            key_matches: true,
            victim_bond_intact: true,
            impersonation_validated: true,
            victim_saw_pairing_ui: false,
        };
        let safe = ExtractionReport {
            key_matches: false,
            ..vulnerable.clone()
        };
        let row = |blocking: f64| PageBlockingRow {
            device: "Galaxy S8".to_owned(),
            os: "Android".to_owned(),
            trials: 100,
            paper_baseline_rate: 0.42,
            measured_baseline_rate: 0.45,
            measured_blocking_rate: blocking,
            downgraded_to_just_works: true,
            fig12b_signature: true,
            popup_had_number: false,
        };
        let mut v = Verdict::default();
        v.paper(std::slice::from_ref(&vulnerable), &[row(1.0)]);
        assert!(v.correct(), "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (101, 0));
        assert!((table2_rate_error_pp(&[row(1.0)]) - 3.0).abs() < 1e-9);

        let mut v = Verdict::default();
        v.paper(&[vulnerable, safe], &[row(0.98)]);
        assert_eq!((v.attempted, v.failed), (102, 3));
        assert_eq!(v.problems.len(), 2);
    }

    #[test]
    fn rate_error_is_trial_weighted() {
        // 10 pp off over 300 trials and 0 pp over 100: 7.5 pp.
        let err = rate_error_pp([(300, 90, 0.4), (100, 50, 0.5)]);
        assert!((err - 7.5).abs() < 1e-9, "{err}");
        assert_eq!(rate_error_pp([]), 0.0);
    }
}
