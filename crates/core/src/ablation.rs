//! Ablation studies on the attack's design parameters.
//!
//! The paper fixes several implementation choices without exploring them
//! (PLOC hold duration, the keep-alive trick, how fast the user must act);
//! these sweeps quantify why those choices matter. They back the
//! `ablation` binary and the DESIGN.md discussion.

use blap_sim::DeviceProfile;
use blap_types::Duration;

use crate::page_blocking::PageBlockingScenario;
use crate::runner::{parallel_map, seed_for, Jobs};

/// One point of a PLOC-parameter sweep.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Seconds the user waits before pairing.
    pub pairing_delay_s: u64,
    /// Whether keep-alive traffic ran.
    pub keepalive: bool,
    /// Attack success rate over the trials.
    pub success_rate: f64,
}

/// Sweeps the user's pairing delay with and without keep-alive traffic,
/// across `jobs` workers.
///
/// Expected shape: with keep-alives, success is flat at 100% across
/// delays; without them, success collapses once the delay crosses the
/// link supervision timeout (20 s in this simulation) — exactly the
/// failure mode the paper's dummy-SDP trick exists to prevent.
///
/// The sweep flattens to (condition, trial) units so the engine balances
/// work even when one condition dominates; per-unit seeding makes the
/// output byte-identical at any parallelism.
pub fn ploc_delay_sweep_with(
    victim: DeviceProfile,
    delays_s: &[u64],
    trials: usize,
    seed: u64,
    jobs: Jobs,
) -> Vec<AblationPoint> {
    let conditions: Vec<(bool, u64)> = [true, false]
        .iter()
        .flat_map(|&ka| delays_s.iter().map(move |&d| (ka, d)))
        .collect();
    // Count only *page-blocking* successes (pairing rode the
    // attacker-initiated link, leaving the Fig 12b signature). When
    // the PLOC link dies first, the victim falls back to paging and
    // the attacker may still win the ordinary race — that is the
    // baseline attack, not page blocking, so it does not count here.
    let wins = parallel_map(jobs, conditions.len() * trials, |unit| {
        let (keepalive, delay_s) = conditions[unit / trials];
        let trial = unit % trials;
        let mut scenario = PageBlockingScenario::new(victim, seed);
        scenario.trials = trials;
        scenario.keepalive = keepalive;
        scenario.pairing_delay = Duration::from_secs(delay_s);
        // Hold PLOC long enough that the release timer is never the
        // limiting factor in this sweep.
        scenario.ploc_delay = Duration::from_secs(delay_s + 30);
        let outcome = scenario.run_blocking_trial(trial);
        outcome.paired_with_attacker && outcome.fig12b_signature
    });
    conditions
        .iter()
        .enumerate()
        .map(|(ci, &(keepalive, delay_s))| {
            let won = wins[ci * trials..(ci + 1) * trials]
                .iter()
                .filter(|&&w| w)
                .count();
            AblationPoint {
                pairing_delay_s: delay_s,
                keepalive,
                success_rate: won as f64 / trials as f64,
            }
        })
        .collect()
}

/// Measures baseline race sensitivity: how the attacker's win rate moves
/// with its latency scale (the calibration knob of
/// [`blap_baseband::race::PageRaceModel`]), across `jobs` workers.
///
/// Each trial draws from its own RNG seeded by [`seed_for`]`(seed, trial)`
/// rather than one serial stream, which is what makes the flattened
/// (scale, trial) units order-independent. The trial seed is shared across
/// scales (common random numbers), so the sweep stays monotone in the
/// scale pointwise, not just in expectation.
pub fn race_scale_sweep_with(
    scales: &[f64],
    trials: usize,
    seed: u64,
    jobs: Jobs,
) -> Vec<(f64, f64)> {
    use blap_baseband::race::{PageRaceModel, RaceWinner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let wins = parallel_map(jobs, scales.len() * trials, |unit| {
        let model = PageRaceModel::new(scales[unit / trials]);
        let mut rng = StdRng::seed_from_u64(seed_for(seed, (unit % trials) as u64));
        model.sample_race(&mut rng).winner == RaceWinner::Attacker
    });
    scales
        .iter()
        .enumerate()
        .map(|(si, &scale)| {
            let won = wins[si * trials..(si + 1) * trials]
                .iter()
                .filter(|&&w| w)
                .count();
            (scale, won as f64 / trials as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_sim::profiles;

    #[test]
    fn keepalive_flat_no_keepalive_collapses() {
        let points = ploc_delay_sweep_with(profiles::galaxy_s8(), &[2, 25], 3, 31, Jobs::new(2));
        let find = |ka: bool, d: u64| {
            points
                .iter()
                .find(|p| p.keepalive == ka && p.pairing_delay_s == d)
                .expect("point present")
                .success_rate
        };
        assert_eq!(find(true, 2), 1.0);
        assert_eq!(find(true, 25), 1.0, "keep-alive holds past supervision");
        assert_eq!(find(false, 2), 1.0, "short waits survive without it");
        assert_eq!(find(false, 25), 0.0, "long waits kill the bare link");
    }

    #[test]
    fn race_sweep_is_monotonic() {
        let sweep = race_scale_sweep_with(&[0.25, 1.0, 4.0], 4000, 32, Jobs::new(2));
        assert!(sweep[0].1 > sweep[1].1);
        assert!(sweep[1].1 > sweep[2].1);
        assert!((sweep[1].1 - 0.5).abs() < 0.05);
    }
}
