//! Fleet-scale campaign engine: millions of independent trial worlds,
//! sharded across workers, aggregated into one bounded-size metrics bag.
//!
//! The batch drivers (`table1`, `table2`) run fixed small trial counts in
//! one configuration. A *campaign* sweeps a seeded **population** — a
//! distribution over device profiles, user behaviors, attack modes, and
//! timing — across an arbitrary trial count. Every trial builds its own
//! [`World`](blap_sim::World) (its own device state, scheduler heap and
//! DHKey memo; nothing is shared between trials or shards) from a seed
//! derived purely from the campaign seed and the trial index, so the
//! result is byte-identical at any worker count.
//!
//! Scale comes from two properties:
//!
//! * **Sharding.** Trials are grouped into contiguous shards; a shard is
//!   the unit [`runner::parallel_map`] distributes. Within a shard trials
//!   run serially, folding each trial world's [`Metrics`] into one
//!   per-shard bag the moment the world is dropped — no traces are
//!   buffered, so memory stays bounded by the metric key vocabulary, not
//!   the trial count. One shard loop and one wave loop serve both the
//!   plain path and the invariant-checked one; a checked trial only adds
//!   its own streaming analyzer.
//! * **Commutative aggregation.** Per-shard bags merge in shard-index
//!   order ([`Metrics::merge`] is commutative *and associative*), so
//!   merging a prefix, checkpointing it to JSON, reloading, and merging
//!   the rest produces the same bytes as one straight run — the property
//!   the `blap-campaign` driver's checkpoint/resume rests on, pinned in
//!   `tests/parallel_determinism.rs`.

use blap_obs::{telemetry, Metrics, StreamSink, Tracer, ViolationSummary};
use blap_sim::{profiles, DeviceProfile, UserBehaviorMix};
use blap_types::Duration;

use crate::page_blocking::PageBlockingScenario;
use crate::runner::{self, Jobs};

/// A named, seeded distribution over trial configurations.
///
/// Everything a population draws — the victim profile, the attack mode,
/// the user's popup behavior, keep-alive traffic, the §VII-B mitigation,
/// and the user's pairing delay — is sampled from the trial index alone,
/// so two runs of the same `(population, seed, trials)` triple agree
/// trial-for-trial no matter how the work was scheduled.
#[derive(Clone, Debug)]
pub struct Population {
    /// The population's name (`--population` on the CLI).
    pub name: &'static str,
    /// Victim device pool with relative sampling weights.
    pub pool: Vec<(DeviceProfile, u32)>,
    /// Percent of trials (0–100) that run the page blocking attack; the
    /// rest run the baseline page race.
    pub blocking_percent: u8,
    /// Distribution over victim user behaviors.
    pub users: UserBehaviorMix,
    /// Percent of trials (0–100) where the attacker sends PLOC keep-alive
    /// traffic.
    pub keepalive_percent: u8,
    /// Percent of trials (0–100) where the victim runs the §VII-B
    /// role-check mitigation.
    pub mitigation_percent: u8,
    /// Bounds (inclusive, milliseconds) on the user's pairing delay after
    /// the PLOC connection.
    pub pairing_delay_ms: (u64, u64),
}

impl Population {
    /// The fleet mix: Table II devices under popularity weights, an even
    /// baseline/blocking split, mostly-trusting users, occasional missing
    /// keep-alives, no mitigation deployed.
    pub fn fleet() -> Population {
        Population {
            name: "fleet",
            pool: profiles::campaign_pool(),
            blocking_percent: 50,
            users: UserBehaviorMix { accept_percent: 90 },
            keepalive_percent: 80,
            mitigation_percent: 0,
            pairing_delay_ms: (500, 8000),
        }
    }

    /// The paper's Table II conditions, uniformly over its seven rows:
    /// all-blocking, accepting users, keep-alive on, 2 s pairing delay.
    pub fn table2() -> Population {
        Population {
            name: "table2",
            pool: profiles::table2_profiles()
                .into_iter()
                .map(|p| (p, 1))
                .collect(),
            blocking_percent: 100,
            users: UserBehaviorMix::always_accepting(),
            keepalive_percent: 100,
            mitigation_percent: 0,
            pairing_delay_ms: (2000, 2000),
        }
    }

    /// The fleet mix with the §VII-B role-check mitigation rolled out to
    /// half the victims — the deployment-ablation population.
    pub fn mitigated() -> Population {
        Population {
            name: "mitigated",
            mitigation_percent: 50,
            ..Population::fleet()
        }
    }

    /// Looks a population up by CLI name.
    pub fn by_name(name: &str) -> Option<Population> {
        match name {
            "fleet" => Some(Population::fleet()),
            "table2" => Some(Population::table2()),
            "mitigated" => Some(Population::mitigated()),
            _ => None,
        }
    }

    /// The names [`Population::by_name`] accepts.
    pub fn names() -> &'static [&'static str] {
        &["fleet", "table2", "mitigated"]
    }

    fn weight_total(&self) -> u64 {
        self.pool.iter().map(|(_, w)| u64::from(*w)).sum()
    }
}

/// One sampled trial configuration — pure function of `(population, seed,
/// trial)`, exposed so tests can pin the sampling independently of the
/// simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialSpec {
    /// Index into the population's pool.
    pub profile_index: usize,
    /// Page blocking (`true`) or baseline race (`false`).
    pub blocking: bool,
    /// Whether the victim's user accepts pairing popups.
    pub user_accepts: bool,
    /// Whether the attacker maintains PLOC with keep-alives.
    pub keepalive: bool,
    /// Whether the victim runs the §VII-B role-check mitigation.
    pub mitigate_role_check: bool,
    /// The user's pairing delay in milliseconds.
    pub pairing_delay_ms: u64,
}

/// A SplitMix64 stream over [`runner::seed_for`]-derived state: the
/// deterministic dice a trial's parameters are drawn with. Statistical
/// finery is irrelevant here; purity and spread are what matter.
struct SeedStream(u64);

impl SeedStream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A roll in `[0, n)`. Modulo bias is irrelevant at campaign scales
    /// (n is tiny against 2^64) and determinism is what's contracted.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn percent(&mut self, p: u8) -> bool {
        self.below(100) < u64::from(p.min(100))
    }
}

/// Salt separating the parameter-sampling seed stream from the world
/// seeds, so a trial's configuration dice never correlate with its
/// scheduler dice.
const SAMPLE_SALT: u64 = 0x5eed_5a17_ca3b_a16e;

/// A configured campaign: the population plus the sweep shape.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The sampled population.
    pub population: Population,
    /// Total trial count.
    pub trials: u64,
    /// Shard count (contiguous trial ranges; the parallel work unit).
    pub shards: u64,
    /// Master seed: both the per-trial world seeds and the parameter
    /// sampling derive from it.
    pub seed: u64,
}

impl Campaign {
    /// A campaign with a default shard shape: one shard per
    /// [`Campaign::DEFAULT_SHARD_TRIALS`] trials. A pure function of the
    /// trial count — never of the worker count — so the default is
    /// reproducible across machines.
    pub fn new(population: Population, trials: u64, seed: u64) -> Campaign {
        let shards = trials.div_ceil(Campaign::DEFAULT_SHARD_TRIALS).max(1);
        Campaign {
            population,
            trials,
            shards,
            seed,
        }
    }

    /// Default trials per shard: large enough that shard dispatch cost
    /// vanishes, small enough that work-stealing can balance a skewed
    /// population across workers.
    pub const DEFAULT_SHARD_TRIALS: u64 = 2048;

    /// The effective shard count (at least one, never more than trials).
    pub fn shard_count(&self) -> u64 {
        self.shards.clamp(1, self.trials.max(1))
    }

    /// The contiguous trial range `[start, end)` shard `shard` owns.
    /// Remainder trials go to the leading shards, so sizes differ by at
    /// most one.
    pub fn shard_range(&self, shard: u64) -> (u64, u64) {
        let shards = self.shard_count();
        assert!(shard < shards, "shard {shard} out of {shards}");
        let per = self.trials / shards;
        let extra = self.trials % shards;
        let start = shard * per + shard.min(extra);
        let len = per + u64::from(shard < extra);
        (start, start + len)
    }

    /// Samples trial `trial`'s configuration — pure, schedule-free.
    pub fn sample(&self, trial: u64) -> TrialSpec {
        let mut dice = SeedStream(runner::seed_for(self.seed ^ SAMPLE_SALT, trial));
        let p = &self.population;
        // Weighted profile draw.
        let mut ticket = dice.below(p.weight_total());
        let mut profile_index = 0;
        for (i, (_, weight)) in p.pool.iter().enumerate() {
            let weight = u64::from(*weight);
            if ticket < weight {
                profile_index = i;
                break;
            }
            ticket -= weight;
        }
        let (lo, hi) = p.pairing_delay_ms;
        TrialSpec {
            profile_index,
            blocking: dice.percent(p.blocking_percent),
            user_accepts: p.users.accepts(dice.next()),
            keepalive: dice.percent(p.keepalive_percent),
            mitigate_role_check: dice.percent(p.mitigation_percent),
            pairing_delay_ms: lo + dice.below(hi.saturating_sub(lo) + 1),
        }
    }

    /// Runs one trial: builds the sampled scenario, runs it in a fresh
    /// world, and folds the world's metrics plus the campaign verdict
    /// counters into `shard_metrics`. `tracer` is disabled on the plain
    /// path (campaign memory must not scale with trials) and carries a
    /// [`StreamSink`] on the `--check-invariants` path, where the
    /// streaming analyzer retires each trial's events as they complete —
    /// still constant memory.
    fn run_trial(&self, trial: u64, shard_metrics: &mut Metrics, tracer: &Tracer) {
        let spec = self.sample(trial);
        let (profile, _) = self.population.pool[spec.profile_index];
        let mut scenario = PageBlockingScenario::new(profile, runner::seed_for(self.seed, trial));
        scenario.trials = 1;
        scenario.user_accepts = spec.user_accepts;
        scenario.keepalive = spec.keepalive;
        scenario.mitigate_role_check = spec.mitigate_role_check;
        scenario.pairing_delay = Duration::from_millis(spec.pairing_delay_ms);
        let (outcome, world_metrics) = if spec.blocking {
            scenario.run_blocking_trial_observed(0, tracer)
        } else {
            scenario.run_baseline_trial_observed(0, tracer)
        };
        shard_metrics.merge(&world_metrics);

        let m = shard_metrics;
        m.inc("campaign.trials");
        let mode = if spec.blocking {
            "campaign.mode.blocking"
        } else {
            "campaign.mode.baseline"
        };
        m.inc(mode);
        m.add(
            "campaign.mitm_established",
            u64::from(outcome.mitm_established),
        );
        m.add(
            "campaign.paired_with_attacker",
            u64::from(outcome.paired_with_attacker),
        );
        m.add("campaign.honest_pairing", u64::from(outcome.honest_pairing));
        m.add(
            "campaign.downgraded_to_just_works",
            u64::from(outcome.downgraded_to_just_works),
        );
        m.add("campaign.popup_shown", u64::from(outcome.popup_shown));
        m.add("campaign.security_alert", u64::from(outcome.security_alert));
        m.observe("campaign.pairing_delay_ms", spec.pairing_delay_ms);
        // Per-profile win accounting: key space is bounded by the pool
        // size, so the bag stays small at any trial count.
        let scoped = if spec.blocking {
            "blocking"
        } else {
            "baseline"
        };
        m.add(
            &format!("campaign.device.{}.{scoped}_trials", profile.name),
            1,
        );
        m.add(
            &format!("campaign.device.{}.{scoped}_wins", profile.name),
            u64::from(outcome.mitm_established),
        );
        // Live telemetry is observation only: the hub sees the verdict
        // and the trial's virtual span, never feeds anything back.
        if telemetry::enabled() {
            telemetry::record_trial(
                &format!("{}/{scoped}", profile.name),
                outcome.mitm_established,
                world_metrics.counter("virtual_us"),
            );
        }
    }

    /// How many violations one checked shard reports live on stderr
    /// before suppressing the rest (the [`ViolationSummary`] still counts
    /// them all). Keeps a badly broken campaign from flooding the
    /// terminal at millions of trials.
    pub const MAX_LIVE_VIOLATIONS_PER_SHARD: usize = 8;

    /// Runs shard `shard` serially, returning its metrics bag and, when
    /// `checked`, its invariant verdict (an empty summary otherwise). Each
    /// trial owns its world outright — device state and scheduler heap
    /// live and die inside this call.
    ///
    /// A checked trial streams its trace events through its own
    /// [`blap_obs::StreamAnalyzer`], retired as the trial completes, so
    /// memory stays bounded by one trial's span table; violations surface
    /// on stderr as they are found. Tracing feeds the analyzer only, never
    /// the metrics, so the bag is byte-identical either way (pinned in
    /// `tests/parallel_determinism.rs`).
    fn run_shard(&self, shard: u64, checked: bool) -> (Metrics, ViolationSummary) {
        let (start, end) = self.shard_range(shard);
        let mut metrics = Metrics::new();
        let mut summary = ViolationSummary::new();
        let mut live = 0usize;
        for trial in start..end {
            if !checked {
                self.run_trial(trial, &mut metrics, &Tracer::disabled());
                continue;
            }
            let tracer = Tracer::new();
            let sink = StreamSink::new();
            tracer.attach(sink.clone());
            self.run_trial(trial, &mut metrics, &tracer);
            let analysis = sink.finish();
            telemetry::record_violations(analysis.violations.len() as u64);
            for v in &analysis.violations {
                if live < Campaign::MAX_LIVE_VIOLATIONS_PER_SHARD {
                    eprintln!("campaign shard {shard} trial {trial}: VIOLATION {v}");
                } else if live == Campaign::MAX_LIVE_VIOLATIONS_PER_SHARD {
                    eprintln!(
                        "campaign shard {shard}: further violations suppressed \
                         (see the final summary)"
                    );
                }
                live += 1;
            }
            summary.record(&format!("trial {trial}"), &analysis);
        }
        metrics.inc("campaign.shards");
        telemetry::record_shard();
        (metrics, summary)
    }

    /// The one wave loop under [`Campaign::run_shards`] and
    /// [`Campaign::run_shards_checked`]: shards `[first, last)` across
    /// `jobs` workers, bags and summaries merged in shard-index order.
    fn run_wave(
        &self,
        jobs: Jobs,
        first: u64,
        last: u64,
        checked: bool,
    ) -> (Metrics, ViolationSummary) {
        let shards = self.shard_count();
        assert!(
            first <= last && last <= shards,
            "shard wave {first}..{last} out of {shards}"
        );
        let results = runner::parallel_map(jobs, (last - first) as usize, |i| {
            self.run_shard(first + i as u64, checked)
        });
        let mut merged = Metrics::new();
        let mut summary = ViolationSummary::new();
        for (bag, shard_summary) in &results {
            merged.merge(bag);
            summary.merge(shard_summary);
        }
        (merged, summary)
    }

    /// Runs shards `[first, last)` across `jobs` workers and merges their
    /// bags in shard-index order. The partial aggregate of a prefix wave
    /// merged with the aggregate of the remaining waves equals the whole
    /// run's aggregate (merge associativity) — the checkpoint/resume
    /// contract.
    pub fn run_shards(&self, jobs: Jobs, first: u64, last: u64) -> Metrics {
        self.run_wave(jobs, first, last, false).0
    }

    /// [`Campaign::run_shards`] with live invariant checking of every
    /// trial. The per-shard summaries merge in shard-index order too, so
    /// both aggregates are byte-identical at any worker count and across
    /// checkpoint/resume splits, and the bag equals the unchecked one.
    pub fn run_shards_checked(
        &self,
        jobs: Jobs,
        first: u64,
        last: u64,
    ) -> (Metrics, ViolationSummary) {
        self.run_wave(jobs, first, last, true)
    }

    /// Runs the whole campaign.
    pub fn run(&self, jobs: Jobs) -> Metrics {
        self.run_shards(jobs, 0, self.shard_count())
    }

    /// Runs the whole campaign with live invariant checking.
    pub fn run_checked(&self, jobs: Jobs) -> (Metrics, ViolationSummary) {
        self.run_shards_checked(jobs, 0, self.shard_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Campaign {
        Campaign {
            population: Population::fleet(),
            trials: 50,
            shards: 7,
            seed: 11,
        }
    }

    #[test]
    fn shard_ranges_partition_the_trial_space() {
        let c = small();
        let mut covered = 0;
        for shard in 0..c.shard_count() {
            let (start, end) = c.shard_range(shard);
            assert_eq!(start, covered, "shards are contiguous");
            assert!(end > start, "no empty shard when trials >= shards");
            covered = end;
        }
        assert_eq!(covered, c.trials);
        // More shards than trials degrades gracefully.
        let degenerate = Campaign {
            shards: 100,
            ..small()
        };
        assert_eq!(degenerate.shard_count(), 50);
    }

    #[test]
    fn sampling_is_pure_and_spreads() {
        let c = small();
        for trial in 0..c.trials {
            assert_eq!(c.sample(trial), c.sample(trial), "trial {trial}");
        }
        let specs: Vec<TrialSpec> = (0..400).map(|t| c.sample(t)).collect();
        let profiles_hit: std::collections::BTreeSet<usize> =
            specs.iter().map(|s| s.profile_index).collect();
        assert!(
            profiles_hit.len() >= 5,
            "400 draws over 7 weighted profiles hit most of them: {profiles_hit:?}"
        );
        assert!(specs.iter().any(|s| s.blocking));
        assert!(specs.iter().any(|s| !s.blocking));
        assert!(specs.iter().any(|s| !s.user_accepts), "10% declining users");
        let (lo, hi) = c.population.pairing_delay_ms;
        assert!(specs
            .iter()
            .all(|s| (lo..=hi).contains(&s.pairing_delay_ms)));
    }

    #[test]
    fn table2_population_is_all_blocking_accepting() {
        let c = Campaign {
            population: Population::table2(),
            trials: 40,
            shards: 4,
            seed: 3,
        };
        for trial in 0..c.trials {
            let spec = c.sample(trial);
            assert!(spec.blocking);
            assert!(spec.user_accepts);
            assert!(spec.keepalive);
            assert!(!spec.mitigate_role_check);
            assert_eq!(spec.pairing_delay_ms, 2000);
        }
    }

    #[test]
    fn population_names_resolve() {
        for name in Population::names() {
            let p = Population::by_name(name).expect("listed name resolves");
            assert_eq!(p.name, *name);
            assert!(!p.pool.is_empty());
        }
        assert!(Population::by_name("nope").is_none());
    }

    #[test]
    fn shard_merge_is_wave_split_invariant() {
        let c = small();
        let whole = c.run(Jobs::serial());
        assert_eq!(whole.counter("campaign.trials"), c.trials);
        assert_eq!(whole.counter("campaign.shards"), c.shard_count());
        // Split into two waves at an uneven boundary: merged waves must
        // reproduce the straight run byte-for-byte.
        let mut split = c.run_shards(Jobs::serial(), 0, 3);
        split.merge(&c.run_shards(Jobs::serial(), 3, c.shard_count()));
        assert_eq!(split.to_json(), whole.to_json());
    }

    #[test]
    fn checked_shards_match_unchecked_metrics_and_pass_invariants() {
        let c = small();
        let plain = c.run(Jobs::serial());
        let (checked, summary) = c.run_checked(Jobs::serial());
        // Tracing feeds the analyzer only — the metrics bag must not
        // notice that invariant checking was on.
        assert_eq!(checked.to_json(), plain.to_json());
        assert!(summary.is_clean(), "{}", summary.render());
        assert_eq!(summary.trials_checked, c.trials);
        // Wave-split merge invariance holds for the summary too.
        let (mut m, mut s) = c.run_shards_checked(Jobs::serial(), 0, 3);
        let (m2, s2) = c.run_shards_checked(Jobs::serial(), 3, c.shard_count());
        m.merge(&m2);
        s.merge(&s2);
        assert_eq!(m.to_json(), checked.to_json());
        assert_eq!(s, summary);
    }

    #[test]
    fn default_shard_shape_is_a_function_of_trials_only() {
        let c = Campaign::new(Population::fleet(), 1_000_000, 1);
        assert_eq!(c.shards, 489);
        assert_eq!(Campaign::new(Population::fleet(), 1, 1).shards, 1);
        assert_eq!(Campaign::new(Population::fleet(), 0, 1).shard_count(), 1);
    }
}
