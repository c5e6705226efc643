//! Property tests for the baseband models: race calibration and paging
//! resolution.

use blap_baseband::paging::{resolve_page, PageListener, PageResult};
use blap_baseband::race::{PageRaceModel, RaceWinner};
use blap_baseband::timing;
use blap_types::BdAddr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn calibration_inverts_any_rate(p in 0.05f64..0.95) {
        let model = PageRaceModel::from_attacker_win_rate(p);
        prop_assert!((model.expected_attacker_win_rate() - p).abs() < 1e-9);
    }

    #[test]
    fn empirical_rate_tracks_analytic(p in 0.1f64..0.9, seed in any::<u64>()) {
        let model = PageRaceModel::from_attacker_win_rate(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 4000;
        let wins = (0..trials)
            .filter(|_| model.sample_race(&mut rng).winner == RaceWinner::Attacker)
            .count();
        let rate = wins as f64 / trials as f64;
        prop_assert!((rate - p).abs() < 0.05, "rate {rate} vs target {p}");
    }

    #[test]
    fn race_latency_always_positive_and_bounded(p in 0.1f64..0.9, seed in any::<u64>()) {
        let model = PageRaceModel::from_attacker_win_rate(p);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let outcome = model.sample_race(&mut rng);
            prop_assert!(outcome.latency < timing::PAGE_SCAN_INTERVAL.mul(2));
        }
    }

    #[test]
    fn paging_connects_iff_a_listener_claims_target(target in any::<[u8; 6]>(),
                                                    other in any::<[u8; 6]>(),
                                                    seed in any::<u64>()) {
        prop_assume!(target != other);
        let target = BdAddr::new(target);
        let other = BdAddr::new(other);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = PageRaceModel::default();

        let hit = resolve_page(
            target,
            &[PageListener { id: 1u32, claimed_addr: target, is_spoofer: false }],
            &model,
            &mut rng,
        );
        let connected_to_listener =
            matches!(hit, PageResult::Connected { responder: 1, .. });
        prop_assert!(connected_to_listener);

        let miss = resolve_page(
            target,
            &[PageListener { id: 1u32, claimed_addr: other, is_spoofer: false }],
            &model,
            &mut rng,
        );
        prop_assert_eq!(miss, PageResult::Timeout);
    }
}
