//! The page blocking attack (§V, Fig 6b) and the baseline MITM race it
//! replaces (Table II).
//!
//! Baseline (prior work's implicit assumption): the attacker `A` clones the
//! accessory `C`'s BDADDR and sits in page scan next to it. When the victim
//! `M` pages `C`, the two listeners race; the paper measured the attacker
//! winning only 42–60% of the time depending on the victim device.
//!
//! Page blocking: `A` *initiates* a baseband connection to `M` first (steps
//! 1–3: NoInputNoOutput IO capability, spoofed BDADDR, PLOC hold). When the
//! user later tells `M` to pair with `C` (steps 4–6), `M`'s host finds the
//! existing link under `C`'s address and sends the pairing request straight
//! down it — no page, no race, 100%. The pairing then runs Just Works
//! because `A` advertises no IO.

use blap_baseband::race::PageRaceModel;
use blap_obs::{prof, Metrics, Tracer};
use blap_sim::{profiles, DeviceId, DeviceProfile, World};
use blap_snoop::log::HciTrace;
use blap_types::{BdAddr, Duration, LinkKeyType};

use crate::addrs;
use crate::runner::{parallel_map, Jobs};

/// Configuration of one page blocking experiment (one Table II row).
#[derive(Clone, Debug)]
pub struct PageBlockingScenario {
    /// The victim phone `M`'s profile.
    pub victim: DeviceProfile,
    /// Master seed; trial `i` runs in a world seeded `seed + i`.
    pub seed: u64,
    /// Trials per condition (the paper ran 100).
    pub trials: usize,
    /// How long after the PLOC connection the user starts pairing (the
    /// paper's experiment assumed within 10 s).
    pub pairing_delay: Duration,
    /// PLOC hold duration configured on the attacker.
    pub ploc_delay: Duration,
    /// Whether the attacker sends keep-alive traffic during PLOC.
    pub keepalive: bool,
    /// Whether the victim's user accepts pairing popups.
    pub user_accepts: bool,
    /// §VII-B mitigation on the victim: reject NoInputNoOutput
    /// connection-initiators when we initiate pairing.
    pub mitigate_role_check: bool,
}

impl PageBlockingScenario {
    /// The paper's experiment setup for a victim profile.
    pub fn new(victim: DeviceProfile, seed: u64) -> Self {
        PageBlockingScenario {
            victim,
            seed,
            trials: 100,
            pairing_delay: Duration::from_secs(2),
            ploc_delay: Duration::from_secs(10),
            keepalive: true,
            user_accepts: true,
            mitigate_role_check: false,
        }
    }

    fn build_world(&self, trial: usize, blocking: bool) -> (World, DeviceId, DeviceId, DeviceId) {
        let mut world = World::new(self.seed.wrapping_add(trial as u64));
        if let Some(rate) = self.victim.baseline_mitm_rate {
            world.set_race_model(PageRaceModel::from_attacker_win_rate(rate));
        }
        let mut m_spec = self.victim.victim_phone_with_snoop(addrs::M);
        m_spec.host.mitigations.reject_noio_connection_initiator = self.mitigate_role_check;
        m_spec.user.accept_pairing = self.user_accepts;
        let m = world.add_device(m_spec);
        let c = world.add_device(profiles::car_kit(addrs::C));
        let mut a_spec = profiles::attacker_nexus_5x(addrs::C); // spoofed from boot
        a_spec.host.attacker.ignore_link_key_request = false; // not used here
        a_spec.host.attacker.ploc_delay = if blocking {
            Some(self.ploc_delay)
        } else {
            None
        };
        a_spec.host.attacker.ploc_keepalive = self.keepalive;
        let a = world.add_device(a_spec);
        (world, m, c, a)
    }

    /// One baseline trial (no page blocking): `M` pages `C`'s address, the
    /// race decides. Returns the trial outcome.
    pub fn run_baseline_trial(&self, trial: usize) -> TrialOutcome {
        self.run_baseline_trial_observed(trial, &Tracer::disabled())
            .0
    }

    /// [`Self::run_baseline_trial`] with observability: trace events flow
    /// to `tracer`; the trial world's metrics snapshot rides along.
    pub fn run_baseline_trial_observed(
        &self,
        trial: usize,
        tracer: &Tracer,
    ) -> (TrialOutcome, Metrics) {
        let _prof = prof::scope("trial");
        let (mut world, m, c, a) = self.build_world(trial, false);
        world.set_tracer(tracer.clone());
        let span = tracer.open_root_span(world.now(), "trial", "baseline");
        let c_addr: BdAddr = addrs::C.parse().expect("valid C address");
        world.device_mut(m).host.pair_with(c_addr);
        world.run_for(Duration::from_secs(15));
        let outcome = self.judge(&world, m, c, a);
        let status = if outcome.mitm_established {
            "attacker_won"
        } else {
            "attacker_lost"
        };
        tracer.close_span(world.now(), span, status);
        (outcome, world.metrics())
    }

    /// One page blocking trial: `A` pre-connects and parks in PLOC; the
    /// user pairs `pairing_delay` later.
    pub fn run_blocking_trial(&self, trial: usize) -> TrialOutcome {
        self.run_blocking_trial_observed(trial, &Tracer::disabled())
            .0
    }

    /// [`Self::run_blocking_trial`] with observability.
    pub fn run_blocking_trial_observed(
        &self,
        trial: usize,
        tracer: &Tracer,
    ) -> (TrialOutcome, Metrics) {
        let _prof = prof::scope("trial");
        let (mut world, m, c, a) = self.build_world(trial, true);
        world.set_tracer(tracer.clone());
        let span = tracer.open_root_span(world.now(), "trial", "blocking");
        let m_addr: BdAddr = addrs::M.parse().expect("valid M address");
        let c_addr: BdAddr = addrs::C.parse().expect("valid C address");

        // Steps 1–3: A (NoInputNoOutput, spoofed as C) connects to M and
        // holds PLOC.
        world.device_mut(a).host.connect_only(m_addr);
        // Steps 4–6: the user runs discovery and starts pairing with C.
        let delay = self.pairing_delay;
        world.schedule_in(delay, move |w| {
            w.device_mut(m).host.pair_with(c_addr);
        });
        world.run_for(delay + Duration::from_secs(15));
        let outcome = self.judge(&world, m, c, a);
        let status = if outcome.mitm_established {
            "attacker_won"
        } else {
            "attacker_lost"
        };
        tracer.close_span(world.now(), span, status);
        (outcome, world.metrics())
    }

    fn judge(&self, world: &World, m: DeviceId, c: DeviceId, a: DeviceId) -> TrialOutcome {
        let c_addr: BdAddr = addrs::C.parse().expect("valid C address");
        let m_addr: BdAddr = addrs::M.parse().expect("valid M address");
        let mitm_established = world.linked(m, a);
        let paired_with_attacker = mitm_established
            && world
                .device(a)
                .host
                .keystore()
                .get(m_addr)
                .map(|their| {
                    world
                        .device(m)
                        .host
                        .keystore()
                        .get(c_addr)
                        .map(|ours| ours.link_key == their.link_key)
                        .unwrap_or(false)
                })
                .unwrap_or(false);
        let honest_pairing =
            world.linked(m, c) && world.device(c).host.keystore().get(m_addr).is_some();
        let downgraded = world
            .device(m)
            .host
            .keystore()
            .get(c_addr)
            .map(|e| e.key_type == LinkKeyType::UnauthenticatedP256)
            .unwrap_or(false);
        let m_device = world.device(m);
        // The iPhone case (§VI-B2): when M exposes no HCI dump, analyze the
        // attacker's dump instead, exactly as the paper did.
        let fig12b_signature = match m_device.bug_report() {
            Some(dump) => HciTrace::from_btsnoop_bytes(&dump)
                .unwrap_or_default()
                .has_page_blocking_signature(c_addr),
            None => world
                .device(a)
                .snoop_trace()
                .has_attacker_side_page_blocking_signature(m_addr),
        };
        let popup_shown = m_device.user.saw_pairing_popup();
        let popup_had_number = m_device.user.saw_numeric_value();
        let security_alert = m_device
            .user
            .find(|n| matches!(n, blap_host::UiNotification::SecurityAlert { .. }))
            .is_some();
        TrialOutcome {
            mitm_established,
            paired_with_attacker,
            honest_pairing,
            downgraded_to_just_works: downgraded,
            fig12b_signature,
            popup_shown,
            popup_had_number,
            security_alert,
        }
    }

    /// Runs one baseline and one blocking trial for the same trial index —
    /// the unit of work the parallel engine distributes.
    pub fn run_trial_pair(&self, trial: usize) -> (TrialOutcome, TrialOutcome) {
        (
            self.run_baseline_trial(trial),
            self.run_blocking_trial(trial),
        )
    }

    /// [`Self::run_trial_pair`] with observability: the two trial worlds'
    /// metrics are merged into one per-unit bag (counters add, so e.g.
    /// `race.attacker_wins` covers the baseline race of this pair).
    pub fn run_trial_pair_observed(
        &self,
        trial: usize,
        tracer: &Tracer,
    ) -> ((TrialOutcome, TrialOutcome), Metrics) {
        let (baseline, mut metrics) = self.run_baseline_trial_observed(trial, tracer);
        let (blocking, blocking_metrics) = self.run_blocking_trial_observed(trial, tracer);
        metrics.merge(&blocking_metrics);
        ((baseline, blocking), metrics)
    }

    /// Folds per-trial outcomes (in trial order) into a Table II row.
    pub fn aggregate(&self, outcomes: &[(TrialOutcome, TrialOutcome)]) -> PageBlockingRow {
        assert_eq!(outcomes.len(), self.trials, "one outcome pair per trial");
        let baseline_wins = outcomes.iter().filter(|(b, _)| b.mitm_established).count();
        let blocking_wins = outcomes.iter().filter(|(_, p)| p.mitm_established).count();
        let sample = outcomes.first().expect("at least one trial").1;
        PageBlockingRow {
            device: self.victim.name.to_owned(),
            os: self.victim.os.to_owned(),
            trials: self.trials,
            paper_baseline_rate: self.victim.baseline_mitm_rate.unwrap_or(0.5),
            measured_baseline_rate: baseline_wins as f64 / self.trials as f64,
            measured_blocking_rate: blocking_wins as f64 / self.trials as f64,
            downgraded_to_just_works: sample.downgraded_to_just_works,
            fig12b_signature: sample.fig12b_signature,
            popup_had_number: sample.popup_had_number,
        }
    }

    /// Runs the full experiment: `trials` baseline races and `trials` page
    /// blocking runs. This regenerates one Table II row. Worker count comes
    /// from the environment ([`Jobs::from_env`]); each trial's world is
    /// seeded from the trial index alone, so the row is byte-identical at
    /// any parallelism.
    pub fn run(&self) -> PageBlockingRow {
        self.run_with(Jobs::from_env())
    }

    /// [`Self::run`] with an explicit worker count.
    pub fn run_with(&self, jobs: Jobs) -> PageBlockingRow {
        let outcomes = parallel_map(jobs, self.trials, |trial| self.run_trial_pair(trial));
        self.aggregate(&outcomes)
    }
}

/// What happened in one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialOutcome {
    /// `M` ended up linked to `A` (the MITM connection of Table II).
    pub mitm_established: bool,
    /// `M` completed pairing with `A` and both hold the same key.
    pub paired_with_attacker: bool,
    /// `M` instead paired with the genuine `C`.
    pub honest_pairing: bool,
    /// The stored key is unauthenticated (Just Works downgrade succeeded).
    pub downgraded_to_just_works: bool,
    /// `M`'s HCI dump shows the Fig 12b signature (connection responder +
    /// pairing initiator).
    pub fig12b_signature: bool,
    /// A pairing popup was shown on `M`.
    pub popup_shown: bool,
    /// The popup carried a comparable numeric value (it must not, under
    /// Just Works).
    pub popup_had_number: bool,
    /// The §VII-B mitigation fired.
    pub security_alert: bool,
}

/// One row of Table II.
#[derive(Clone, Debug, PartialEq)]
pub struct PageBlockingRow {
    /// Victim device name.
    pub device: String,
    /// Victim OS string.
    pub os: String,
    /// Trials per condition.
    pub trials: usize,
    /// The success rate the paper measured without page blocking.
    pub paper_baseline_rate: f64,
    /// Our measured baseline rate.
    pub measured_baseline_rate: f64,
    /// Our measured rate with page blocking (the paper: 100%).
    pub measured_blocking_rate: f64,
    /// Whether the resulting bond was Just Works (unauthenticated).
    pub downgraded_to_just_works: bool,
    /// Whether `M`'s dump carried the Fig 12b signature.
    pub fig12b_signature: bool,
    /// Whether the popup exposed a comparable value (detection chance).
    pub popup_had_number: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(victim: DeviceProfile, seed: u64) -> PageBlockingScenario {
        let mut s = PageBlockingScenario::new(victim, seed);
        s.trials = 20; // keep unit tests fast; benches run the full 100
        s
    }

    #[test]
    fn blocking_trial_is_deterministic_mitm() {
        let scenario = quick(profiles::galaxy_s8(), 3);
        for trial in 0..5 {
            let outcome = scenario.run_blocking_trial(trial);
            assert!(outcome.mitm_established, "trial {trial} must hit");
            assert!(outcome.paired_with_attacker, "trial {trial} must pair");
            assert!(outcome.downgraded_to_just_works);
            assert!(outcome.fig12b_signature);
            assert!(
                !outcome.popup_had_number,
                "Just Works must not display a comparable value"
            );
            assert!(!outcome.honest_pairing);
        }
    }

    #[test]
    fn baseline_is_a_race() {
        let scenario = quick(profiles::galaxy_s8(), 4);
        let outcomes: Vec<TrialOutcome> = (0..20).map(|t| scenario.run_baseline_trial(t)).collect();
        let wins = outcomes.iter().filter(|o| o.mitm_established).count();
        assert!(
            wins > 0 && wins < 20,
            "a 42% race over 20 trials should win some and lose some, won {wins}"
        );
        // Losing trials pair honestly with C.
        assert!(outcomes
            .iter()
            .any(|o| !o.mitm_established && o.honest_pairing));
    }

    #[test]
    fn full_row_shape_matches_paper() {
        let mut scenario = quick(profiles::pixel_2_xl(), 5);
        scenario.trials = 30;
        let row = scenario.run();
        assert_eq!(row.measured_blocking_rate, 1.0, "page blocking is 100%");
        assert!(
            (row.measured_baseline_rate - row.paper_baseline_rate).abs() < 0.25,
            "baseline {} should sit near the paper's {}",
            row.measured_baseline_rate,
            row.paper_baseline_rate
        );
        assert!(row.downgraded_to_just_works);
        assert!(row.fig12b_signature);
    }

    #[test]
    fn attacker_io_capability_is_noio() {
        // The downgrade premise: the attacker spec really advertises no IO.
        let spec = profiles::attacker_nexus_5x(addrs::C);
        assert_eq!(
            spec.host.io_capability,
            blap_types::IoCapability::NoInputNoOutput
        );
    }

    #[test]
    fn without_keepalive_long_wait_kills_ploc() {
        let mut scenario = quick(profiles::galaxy_s8(), 6);
        scenario.keepalive = false;
        // User takes longer than the link supervision timeout to pair.
        scenario.pairing_delay = Duration::from_secs(25);
        scenario.ploc_delay = Duration::from_secs(40);
        let outcome = scenario.run_blocking_trial(0);
        assert!(
            !outcome.paired_with_attacker,
            "an unmaintained PLOC link must die before pairing"
        );
    }

    #[test]
    fn keepalive_survives_long_wait() {
        let mut scenario = quick(profiles::galaxy_s8(), 7);
        scenario.keepalive = true;
        scenario.pairing_delay = Duration::from_secs(25);
        scenario.ploc_delay = Duration::from_secs(40);
        let outcome = scenario.run_blocking_trial(0);
        assert!(outcome.mitm_established);
        assert!(outcome.paired_with_attacker);
    }
}
