//! Cross-cutting guarantees of the parallel experiment engine and the
//! P-256 fast path.
//!
//! Two properties keep the paper's tables trustworthy after the perf work:
//!
//! 1. **Schedule invisibility** — every experiment driver must produce
//!    byte-identical output at any worker count, because reviewers compare
//!    table rows produced on machines with different core counts.
//! 2. **Fast-path equivalence** — the windowed-NAF / fixed-base scalar
//!    multiplication must agree with the retained textbook double-and-add
//!    on every scalar, including the edge cases that break windowed
//!    recodings (0, 1, n−1).

use blap::campaign::{Campaign, Population};
use blap::legacy_pin::{crack_numeric_pin_with, LegacyPairingCapture};
use blap::link_key_extraction::ExtractionScenario;
use blap::runner::{seed_for, Jobs};
use blap_bench::{run_table1_observed_with, run_table2_observed_with, run_table2_with};
use blap_crypto::p256::{generator, group_order, KeyPair, Point, Scalar};
use blap_obs::{
    analyze_trace, diff_metrics, diff_traces, prof, telemetry, FlightRecorder, Metrics, Tracer,
};
use proptest::prelude::*;

#[test]
fn table2_rows_identical_across_worker_counts() {
    let serial = run_table2_with(1701, 6, Jobs::serial());
    assert_eq!(serial.len(), 7, "Table II has seven device rows");
    for jobs in [4, 8] {
        let parallel = run_table2_with(1701, 6, Jobs::new(jobs));
        assert_eq!(parallel, serial, "{jobs} jobs diverged from serial");
    }
}

#[test]
fn table2_seed_still_drives_the_experiment() {
    // Determinism must come from the seed, not from accidentally constant
    // output: a different seed has to move at least one sampled field.
    let a = run_table2_with(1701, 6, Jobs::new(4));
    let b = run_table2_with(90210, 6, Jobs::new(4));
    assert_ne!(a, b, "seed change must alter the sampled rows");
}

#[test]
fn table2_observability_artifacts_identical_across_worker_counts() {
    // The tentpole guarantee: not just the rows but the *observability
    // artifacts* — the JSONL trace and the merged metrics document — must
    // be byte-identical at any worker count, because CI diffs them.
    let serial = run_table2_observed_with(1701, 3, Jobs::serial());
    assert!(!serial.trace.is_empty(), "trace must capture events");
    assert!(!serial.metrics.is_empty(), "metrics must capture counters");
    let serial_metrics = serial.metrics.to_json();
    for jobs in [4, 8] {
        let parallel = run_table2_observed_with(1701, 3, Jobs::new(jobs));
        assert_eq!(parallel.rows, serial.rows, "{jobs} jobs rows diverged");
        assert_eq!(
            parallel.trace, serial.trace,
            "{jobs} jobs trace diverged from serial"
        );
        assert_eq!(
            parallel.metrics.to_json(),
            serial_metrics,
            "{jobs} jobs metrics diverged from serial"
        );
    }
}

#[test]
fn table2_trace_carries_spans_and_passes_invariant_checks() {
    // The causal span layer rides the same determinism guarantee as the
    // flat events, and a healthy run must satisfy every trace invariant.
    let observed = run_table2_observed_with(1701, 2, Jobs::new(4));
    assert!(
        observed.trace.contains("\"ev\":\"span_open\""),
        "trace must carry span_open events"
    );
    assert!(
        observed.trace.contains("\"name\":\"trial\""),
        "every trial opens a root span"
    );
    assert!(
        observed.trace.contains("\"name\":\"lmp_auth\""),
        "LMP authentication must be spanned"
    );
    assert!(
        observed.trace.contains("\"name\":\"ploc\""),
        "blocking trials hold PLOC spans"
    );
    let analysis = analyze_trace(&observed.trace).expect("trace parses");
    assert!(
        analysis.ok(),
        "healthy run must satisfy all invariants:\n{}",
        analysis.report()
    );
    // A run diffed against itself reports no drift, for both artifacts.
    assert!(diff_traces(&observed.trace, &observed.trace)
        .expect("trace lines parse")
        .no_drift());
    let metrics_json = observed.metrics.to_json();
    assert!(diff_metrics(&metrics_json, &metrics_json)
        .expect("metrics parse")
        .no_drift());
}

#[test]
fn table1_trace_passes_invariant_checks() {
    let observed = run_table1_observed_with(1701, Jobs::new(4));
    assert!(
        observed.trace.contains("\"detail\":\"extraction\""),
        "extraction trials label their root span"
    );
    let analysis = analyze_trace(&observed.trace).expect("trace parses");
    assert!(
        analysis.ok(),
        "healthy run must satisfy all invariants:\n{}",
        analysis.report()
    );
}

#[test]
fn profiling_never_perturbs_deterministic_artifacts() {
    // The sidecar rule: the wall-time profiler may never leak into the
    // deterministic artifacts. Byte-compare trace and metrics with
    // profiling off vs on, at one worker and at eight.
    prof::set_enabled(false);
    let off = run_table2_observed_with(1701, 2, Jobs::serial());
    for jobs in [Jobs::serial(), Jobs::new(8)] {
        prof::set_enabled(true);
        let on = run_table2_observed_with(1701, 2, jobs);
        prof::set_enabled(false);
        assert_eq!(
            on.trace,
            off.trace,
            "profiling changed the trace at {} jobs",
            jobs.get()
        );
        assert_eq!(
            on.metrics.to_json(),
            off.metrics.to_json(),
            "profiling changed the metrics at {} jobs",
            jobs.get()
        );
        // The profiler itself did record the run it observed.
        assert!(
            !prof::report().is_empty(),
            "profiled run must record scopes"
        );
        prof::reset();
    }
}

#[test]
fn telemetry_never_perturbs_deterministic_artifacts() {
    // The live telemetry tier rides the same sidecar rule as the
    // profiler: flipping the dashboard on may never change a byte of
    // the deterministic artifacts — the JSONL trace, the metrics
    // document, the checked campaign's violation summary, or the
    // checkpoint bag a `--resume` run stores — at any worker count.
    telemetry::set_enabled(false);
    let off = run_table2_observed_with(1701, 2, Jobs::serial());
    let campaign = Campaign {
        population: Population::fleet(),
        trials: 32,
        shards: 2,
        seed: 7,
    };
    let (off_metrics, off_summary) = campaign.run_checked(Jobs::serial());
    let off_checkpoint = campaign.run_shards(Jobs::serial(), 0, 1).to_json();
    for jobs in [Jobs::serial(), Jobs::new(8)] {
        telemetry::begin_session(telemetry::SessionTotals::default());
        telemetry::set_enabled(true);
        let on = run_table2_observed_with(1701, 2, jobs);
        let (on_metrics, on_summary) = campaign.run_checked(jobs);
        let on_checkpoint = campaign.run_shards(jobs, 0, 1).to_json();
        // The hub did observe the runs it watched...
        let snapshot = telemetry::sample(0, None, 0);
        telemetry::set_enabled(false);
        assert!(
            snapshot.trials > 0,
            "telemetry-on run must record trials into the hub"
        );
        // ...without leaking a single byte into any artifact.
        assert_eq!(
            on.trace,
            off.trace,
            "telemetry changed the trace at {} jobs",
            jobs.get()
        );
        assert_eq!(
            on.metrics.to_json(),
            off.metrics.to_json(),
            "telemetry changed the metrics at {} jobs",
            jobs.get()
        );
        assert_eq!(
            on_metrics.to_json(),
            off_metrics.to_json(),
            "telemetry changed the checked campaign metrics at {} jobs",
            jobs.get()
        );
        assert_eq!(
            on_summary.to_json(),
            off_summary.to_json(),
            "telemetry changed the violation summary at {} jobs",
            jobs.get()
        );
        assert_eq!(
            on_checkpoint,
            off_checkpoint,
            "telemetry changed the checkpoint bag at {} jobs",
            jobs.get()
        );
    }
    telemetry::reset();
}

#[test]
fn table2_observed_rows_match_unobserved_rows() {
    // Attaching observability must not perturb the experiment itself.
    let observed = run_table2_observed_with(1701, 3, Jobs::new(4));
    assert_eq!(observed.rows, run_table2_with(1701, 3, Jobs::new(4)));
}

#[test]
fn table1_observability_artifacts_identical_across_worker_counts() {
    let serial = run_table1_observed_with(1701, Jobs::serial());
    assert!(!serial.trace.is_empty());
    let serial_metrics = serial.metrics.to_json();
    for jobs in [4, 8] {
        let parallel = run_table1_observed_with(1701, Jobs::new(jobs));
        assert_eq!(parallel.trace, serial.trace, "{jobs} jobs trace diverged");
        assert_eq!(parallel.metrics.to_json(), serial_metrics);
    }
}

#[test]
fn flight_recorder_captures_extraction_tail() {
    // The debugging loop ISSUE 2 targets: run a world with a flight
    // recorder armed, and the ring buffer holds the (bounded) event tail
    // ready to print if an assertion below were to fail.
    let tracer = Tracer::new();
    let recorder = FlightRecorder::new(64);
    tracer.attach(recorder.clone());
    let _guard = recorder.dump_on_assert(16);

    let (report, metrics) =
        ExtractionScenario::new(blap_sim::profiles::nexus_5x_a8(), 1).run_observed(&tracer);
    assert!(report.vulnerable());
    assert!(
        recorder.total_recorded() > 64,
        "a full run emits many events"
    );
    assert_eq!(recorder.len(), 64, "ring buffer stays at capacity");
    assert!(metrics.counter("pages_connected") > 0);
    assert!(metrics.counter("dev1.snoop_packets") > 0);
    let dump = recorder.dump(4);
    assert!(dump.starts_with("--- flight recorder"));
    assert_eq!(dump.lines().count(), 6, "header + 4 events + footer");
}

#[test]
fn pin_crack_identical_across_worker_counts() {
    let capture = LegacyPairingCapture::synthesize(
        "11:11:11:11:11:11".parse().expect("valid address"),
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address"),
        b"73019",
        [0x11; 16],
        [0x22; 16],
        [0x33; 16],
        [0x44; 16],
    );
    let serial = crack_numeric_pin_with(&capture, 5, Jobs::serial());
    assert!(serial.is_some(), "five-digit PIN must crack");
    for jobs in [4, 8] {
        assert_eq!(
            crack_numeric_pin_with(&capture, 5, Jobs::new(jobs)),
            serial,
            "{jobs} jobs diverged from serial"
        );
    }
}

#[test]
fn campaign_metrics_identical_across_worker_counts() {
    // The fleet-scale sweep inherits the tentpole guarantee: the merged
    // campaign metrics document is byte-identical at any worker count.
    // This is also the regression net for the `World::route` tie-break:
    // with two live links claiming the same spoofed address, the routed
    // link used to follow hash-map iteration order, which differs between
    // worker threads — blocking-trial LMP/snoop counters drifted across
    // `BLAP_JOBS` values until the link table became ordered.
    let campaign = Campaign {
        population: Population::fleet(),
        trials: 96,
        shards: 6,
        seed: 1701,
    };
    let serial = campaign.run(Jobs::serial()).to_json();
    assert!(serial.contains("\"campaign.trials\":96"), "{serial}");
    for jobs in [4, 8] {
        assert_eq!(
            campaign.run(Jobs::new(jobs)).to_json(),
            serial,
            "{jobs} jobs diverged from serial"
        );
    }
}

#[test]
fn checked_campaign_is_schedule_invisible_and_clean() {
    // `--check-invariants` inherits both campaign guarantees: the merged
    // metrics bag AND the violation summary are byte-identical at any
    // worker count (shard-order merging, not completion-order), and a
    // healthy fleet campaign is clean — the live checker found real
    // modeling gaps during bring-up, so "clean" is a statement about the
    // checker and the simulator agreeing, not a vacuous pass.
    let campaign = Campaign {
        population: Population::fleet(),
        trials: 64,
        shards: 4,
        seed: 7,
    };
    let (serial_metrics, serial_summary) = campaign.run_checked(Jobs::serial());
    assert!(serial_summary.is_clean(), "{}", serial_summary.render());
    assert_eq!(serial_summary.trials_checked, 64, "every trial is checked");
    for jobs in [4, 8] {
        let (metrics, summary) = campaign.run_checked(Jobs::new(jobs));
        assert_eq!(
            metrics.to_json(),
            serial_metrics.to_json(),
            "{jobs} jobs metrics diverged from serial"
        );
        assert_eq!(
            summary.to_json(),
            serial_summary.to_json(),
            "{jobs} jobs summary diverged from serial"
        );
        assert_eq!(summary.render(), serial_summary.render());
    }
}

#[test]
fn invariant_checking_is_a_pure_observer() {
    // Feeding every shard's events through the streaming checker must not
    // perturb the experiment: the merged metrics match the unchecked run
    // byte for byte.
    let campaign = Campaign {
        population: Population::mitigated(),
        trials: 48,
        shards: 3,
        seed: 99,
    };
    let unchecked = campaign.run(Jobs::new(4)).to_json();
    let (checked, summary) = campaign.run_checked(Jobs::new(4));
    assert_eq!(checked.to_json(), unchecked, "checking changed the metrics");
    assert!(summary.is_clean(), "{}", summary.render());
}

#[test]
fn campaign_checkpoint_resume_split_is_byte_identical() {
    // The `blap-campaign` checkpoint contract end to end: aggregate a
    // prefix of the shards, serialize the partial bag to JSON (exactly
    // what the checkpoint file stores), parse it back, then merge the
    // remaining shards — the result must match a straight run byte for
    // byte, at mixed worker counts on the two sides of the split.
    let campaign = Campaign {
        population: Population::mitigated(),
        trials: 90,
        shards: 5,
        seed: 42,
    };
    let whole = campaign.run(Jobs::new(4)).to_json();
    let prefix = campaign.run_shards(Jobs::serial(), 0, 2);
    let mut resumed = Metrics::parse_json(&prefix.to_json()).expect("checkpoint bag round-trips");
    resumed.merge(&campaign.run_shards(Jobs::new(8), 2, 5));
    assert_eq!(resumed.to_json(), whole);
}

#[test]
fn seed_derivation_is_stable() {
    // Pin the derivation itself: if seed_for changes, every table silently
    // resamples and historical EXPERIMENTS.md numbers stop reproducing.
    assert_eq!(seed_for(0, 0), 0xe220_a839_7b1d_cdaf);
    assert_eq!(seed_for(1701, 3), seed_for(1701, 3));
}

#[test]
fn scalar_mul_edge_cases_match_reference() {
    let g = generator();
    let n = group_order();

    // k = 0: both paths land on the point at infinity.
    let zero = Scalar::from_u256(blap_crypto::bigint::U256::ZERO);
    assert_eq!(g.mul(&zero), Point::Infinity);
    assert_eq!(g.mul_double_and_add(&zero), Point::Infinity);

    // k = 1: identity of the multiplication.
    let one = Scalar::from_u64(1);
    assert_eq!(g.mul(&one), g);
    assert_eq!(g.mul_double_and_add(&one), g);

    // k = n − 1 ≡ −1: the negation of the generator (same x, mirrored y).
    // (0 − 1) mod n = n − 1.
    let n_minus_1 = Scalar::from_u256(
        blap_crypto::bigint::U256::ZERO.sub_mod(blap_crypto::bigint::U256::ONE, n),
    );
    let fast = g.mul(&n_minus_1);
    assert_eq!(fast, g.mul_double_and_add(&n_minus_1));
    assert_eq!(fast.x(), g.x(), "−G shares G's x-coordinate");
    assert_ne!(fast.y(), g.y(), "−G mirrors G's y-coordinate");
}

proptest! {
    #[test]
    fn wnaf_matches_double_and_add_on_generator(bytes in any::<[u8; 32]>()) {
        let k = Scalar::from_be_bytes(bytes);
        prop_assert_eq!(generator().mul(&k), generator().mul_double_and_add(&k));
    }

    #[test]
    fn wnaf_matches_double_and_add_on_arbitrary_points(seed in any::<[u8; 32]>(),
                                                       bytes in any::<[u8; 32]>()) {
        // A non-generator base point exercises the wNAF path rather than
        // the fixed-base table. A zero-scalar seed yields no key pair and
        // nothing to test.
        if let Ok(kp) = KeyPair::from_rng_bytes(seed) {
            let base = kp.public();
            let k = Scalar::from_be_bytes(bytes);
            prop_assert_eq!(base.mul(&k), base.mul_double_and_add(&k));
        }
    }
}
