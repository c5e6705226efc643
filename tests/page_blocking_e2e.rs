//! End-to-end integration tests for the page blocking attack across the
//! Table II catalog, the downgrade semantics, and the §VII-B mitigation.

use blap_repro::attacks::mitigations;
use blap_repro::attacks::page_blocking::PageBlockingScenario;
use blap_repro::sim::profiles;
use blap_repro::types::Duration;

#[test]
fn page_blocking_hits_every_table2_device() {
    for (i, profile) in profiles::table2_profiles().into_iter().enumerate() {
        let scenario = PageBlockingScenario::new(profile, 400 + i as u64);
        let outcome = scenario.run_blocking_trial(0);
        assert!(
            outcome.mitm_established && outcome.paired_with_attacker,
            "{} must be page-blockable: {outcome:?}",
            profile.name
        );
        assert!(outcome.downgraded_to_just_works, "{}", profile.name);
        assert!(outcome.fig12b_signature, "{}", profile.name);
    }
}

#[test]
fn blocking_beats_baseline_on_every_device() {
    // The shape of Table II: whatever the baseline rate, blocking is 100%.
    for (i, profile) in profiles::table2_profiles().into_iter().enumerate() {
        let mut scenario = PageBlockingScenario::new(profile, 450 + i as u64);
        scenario.trials = 12;
        let row = scenario.run();
        assert_eq!(
            row.measured_blocking_rate, 1.0,
            "{}: blocking must be deterministic",
            profile.name
        );
        assert!(
            row.measured_blocking_rate > row.measured_baseline_rate
                || row.measured_baseline_rate == 1.0,
            "{}: blocking must not lose to the race",
            profile.name
        );
    }
}

#[test]
fn baseline_rates_track_paper_calibration() {
    // With enough trials the measured baseline converges on the paper's
    // rate (the race model is calibrated, the rest of the pipeline must
    // not distort it).
    let mut scenario = PageBlockingScenario::new(profiles::galaxy_s8(), 460);
    scenario.trials = 60;
    let row = scenario.run();
    assert!(
        (row.measured_baseline_rate - 0.42).abs() < 0.18,
        "baseline {} too far from the calibrated 42%",
        row.measured_baseline_rate
    );
}

#[test]
fn losing_the_baseline_race_pairs_honestly() {
    let scenario = PageBlockingScenario::new(profiles::galaxy_s8(), 461);
    let honest = (0..20)
        .map(|t| scenario.run_baseline_trial(t))
        .find(|o| !o.mitm_established);
    let honest = honest.expect("a 42% attacker should lose at least once in 20");
    assert!(
        honest.honest_pairing,
        "when the attacker loses, C must pair normally"
    );
}

#[test]
fn popup_carries_no_comparable_value_under_attack() {
    // §V-B2: on v5.0+ victims the user sees a yes/no popup with nothing to
    // verify. On the v4.2- victim they see nothing at all.
    let v50 = PageBlockingScenario::new(profiles::galaxy_s21(), 462).run_blocking_trial(0);
    assert!(v50.popup_shown, "v5.0+ mandates a popup");
    assert!(!v50.popup_had_number, "but it has no comparable value");

    let v42 = PageBlockingScenario::new(profiles::nexus_5x_a8(), 463).run_blocking_trial(0);
    assert!(
        !v42.popup_shown,
        "v4.2- initiator auto-confirms silently (Fig 7a)"
    );
}

#[test]
fn suspicious_user_declining_stops_the_attack() {
    let mut scenario = PageBlockingScenario::new(profiles::galaxy_s21(), 464);
    scenario.user_accepts = false;
    let outcome = scenario.run_blocking_trial(0);
    assert!(
        !outcome.paired_with_attacker,
        "a declining user must stop a popup-generation victim"
    );
}

#[test]
fn role_check_mitigation_stops_blocking_without_breaking_pairing() {
    let (outcome, verdict) = mitigations::page_blocking_with_role_check(profiles::lg_velvet(), 465);
    assert!(!verdict.attack_succeeded, "{}", verdict.evidence);
    assert!(outcome.security_alert);
    assert!(mitigations::role_check_false_positive_probe(
        profiles::lg_velvet(),
        466
    ));
}

#[test]
fn role_check_holds_when_the_user_pairs_mid_page() {
    // The user pairs 300 ms after A starts paging, so M's own page to C is
    // still out when A's connection lands. M's pairing request must keep
    // its initiator role across that inbound connection, or §VII-B misses
    // the Fig 12b fingerprint and M pairs with A over A's own link.
    let mut scenario = PageBlockingScenario::new(profiles::galaxy_s8(), 2022);
    scenario.mitigate_role_check = true;
    scenario.pairing_delay = Duration::from_millis(300);
    for trial in 0..20 {
        let outcome = scenario.run_blocking_trial(trial);
        assert!(
            !(outcome.paired_with_attacker && outcome.fig12b_signature),
            "trial {trial}: {outcome:?}"
        );
    }
}

#[test]
fn slow_user_needs_the_keepalive() {
    let mut scenario = PageBlockingScenario::new(profiles::iphone_xs(), 467);
    scenario.pairing_delay = Duration::from_secs(30);
    scenario.ploc_delay = Duration::from_secs(60);
    scenario.keepalive = false;
    let bare = scenario.run_blocking_trial(0);
    assert!(!(bare.paired_with_attacker && bare.fig12b_signature));

    scenario.keepalive = true;
    let kept = scenario.run_blocking_trial(0);
    assert!(kept.paired_with_attacker && kept.fig12b_signature);
}
