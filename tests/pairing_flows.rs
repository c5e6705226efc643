//! Integration tests for the baseline protocol machinery (Fig 2 of the
//! paper): Secure Simple Pairing for non-bonded devices and LMP
//! authentication for bonded ones, across the crate boundaries
//! (host ↔ controller ↔ baseband ↔ crypto).

use blap_repro::host::UiNotification;
use blap_repro::sim::{profiles, World};
use blap_repro::types::{BdAddr, Duration, LinkKeyType, ServiceUuid};

fn addr(s: &str) -> BdAddr {
    s.parse().expect("valid address")
}

const PHONE: &str = "48:90:12:34:56:78";
const KIT: &str = "00:1b:7d:da:71:0a";

#[test]
fn fig2a_fresh_ssp_pairing_derives_shared_key() {
    let mut world = World::new(100);
    let phone = world.add_device(profiles::lg_velvet().victim_phone(PHONE));
    let kit = world.add_device(profiles::car_kit(KIT));

    world.device_mut(phone).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));

    let phone_bond = world.device(phone).host.keystore().get(addr(KIT)).cloned();
    let kit_bond = world.device(kit).host.keystore().get(addr(PHONE)).cloned();
    let phone_bond = phone_bond.expect("phone bonded");
    let kit_bond = kit_bond.expect("kit bonded");
    assert_eq!(phone_bond.link_key, kit_bond.link_key);
    // Car-kit has no IO: Just Works, so the key is unauthenticated.
    assert_eq!(phone_bond.key_type, LinkKeyType::UnauthenticatedP256);
}

#[test]
fn fig2a_numeric_comparison_between_two_phones() {
    let mut world = World::new(101);
    let a = world.add_device(profiles::pixel_2_xl().victim_phone(PHONE));
    let b = world.add_device(profiles::galaxy_s21().victim_phone(KIT));

    world.device_mut(a).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));

    // Both DisplayYesNo: a genuine numeric comparison with the same value
    // on both screens.
    let value_a = world.device(a).user.find(|n| {
        matches!(
            n,
            UiNotification::PairingConfirmation {
                numeric: Some(_),
                ..
            }
        )
    });
    let value_b = world.device(b).user.find(|n| {
        matches!(
            n,
            UiNotification::PairingConfirmation {
                numeric: Some(_),
                ..
            }
        )
    });
    let get = |n: Option<&UiNotification>| match n {
        Some(UiNotification::PairingConfirmation {
            numeric: Some(v), ..
        }) => *v,
        _ => panic!("expected numeric popup"),
    };
    let (va, vb) = (get(value_a), get(value_b));
    assert_eq!(va, vb, "both users must see the same six digits");
    assert!(va < 1_000_000);

    // And the resulting key is authenticated.
    let bond = world
        .device(a)
        .host
        .keystore()
        .get(addr(KIT))
        .expect("bonded");
    assert_eq!(bond.key_type, LinkKeyType::AuthenticatedP256);
}

#[test]
fn fig2b_bonded_devices_skip_pairing() {
    let mut world = World::new(102);
    let phone = world.add_device(profiles::lg_velvet().victim_phone(PHONE));
    let kit = world.add_device(profiles::car_kit(KIT));

    world.device_mut(phone).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));
    world.device_mut(phone).host.disconnect(addr(KIT));
    world.run_for(Duration::from_secs(2));

    let popups_before = world.device(phone).user.log.len();
    world
        .device_mut(phone)
        .host
        .connect_profile(addr(KIT), ServiceUuid::HANDS_FREE);
    world.run_for(Duration::from_secs(5));

    assert!(world.linked(phone, kit));
    // No new pairing UI: authentication rode the stored link key.
    assert!(!world.device(phone).user.log[popups_before..]
        .iter()
        .any(|(_, n)| matches!(n, UiNotification::PairingConfirmation { .. })));
    let auth_ok = world.device(phone).user.log[popups_before..]
        .iter()
        .any(|(_, n)| {
            matches!(
                n,
                UiNotification::AuthenticationOutcome {
                    status: blap_repro::hci::StatusCode::Success,
                    ..
                }
            )
        });
    assert!(auth_ok, "bonded reconnect must authenticate successfully");
}

#[test]
fn wrong_stored_key_fails_authentication_and_wipes_bond() {
    let mut world = World::new(103);
    let phone = world.add_device(profiles::lg_velvet().victim_phone(PHONE));
    let _kit = world.add_device(profiles::car_kit(KIT));

    world.device_mut(phone).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));
    world.device_mut(phone).host.disconnect(addr(KIT));
    world.run_for(Duration::from_secs(2));

    // Corrupt the phone's stored key.
    let entry = world
        .device(phone)
        .host
        .keystore()
        .get(addr(KIT))
        .cloned()
        .expect("bonded");
    let mut corrupted = entry.clone();
    corrupted.link_key = "00000000000000000000000000000000"
        .parse()
        .expect("valid key");
    world
        .device_mut(phone)
        .host
        .install_bond(addr(KIT), corrupted);

    world
        .device_mut(phone)
        .host
        .connect_profile(addr(KIT), ServiceUuid::HANDS_FREE);
    world.run_for(Duration::from_secs(5));

    // Authentication failed and — unlike the attack's timeout path — the
    // bond was deleted.
    assert!(
        world.device(phone).host.keystore().get(addr(KIT)).is_none(),
        "authentication failure must wipe the bond"
    );
    assert!(world
        .device(phone)
        .user
        .find(|n| matches!(n, UiNotification::BondLost { .. }))
        .is_some());
}

#[test]
fn discovery_sees_discoverable_devices_with_cod() {
    let mut world = World::new(104);
    let phone = world.add_device(profiles::lg_velvet().victim_phone(PHONE));
    let _kit = world.add_device(profiles::car_kit(KIT));

    world.device_mut(phone).host.start_discovery();
    world.run_for(Duration::from_secs(15));

    let devices = world
        .device(phone)
        .user
        .find(|n| matches!(n, UiNotification::DiscoveryComplete { .. }));
    match devices {
        Some(UiNotification::DiscoveryComplete { devices }) => {
            assert!(devices.iter().any(|(a, cod)| {
                *a == addr(KIT)
                    && cod.major_device_class() == blap_repro::types::MajorDeviceClass::AudioVideo
            }));
        }
        _ => panic!("discovery must complete"),
    }
}

#[test]
fn user_rejection_leaves_no_bond() {
    let mut world = World::new(105);
    let mut spec = profiles::pixel_2_xl().victim_phone(PHONE);
    spec.user.accept_pairing = false;
    let phone = world.add_device(spec);
    let _kit = world.add_device(profiles::car_kit(KIT));

    world.device_mut(phone).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));

    assert!(world.device(phone).host.keystore().is_empty());
    let failed = world
        .device(phone)
        .user
        .find(|n| matches!(n, UiNotification::PairingComplete { success: false, .. }));
    assert!(failed.is_some(), "declined pairing must fail visibly");
}

#[test]
fn a_re_pairing_the_peer_starts_asks_the_user() {
    // A v4.2 phone pairs with a kit as the initiator: Just Works confirms
    // itself (Fig 7a), so the declining user is never asked. When the kit
    // drops its bond and re-pairs over the live link, the phone is the
    // responder: it asks, the user declines, and the bond stays.
    let mut world = World::new(102);
    let mut phone_spec = profiles::nexus_5x_a8().victim_phone(PHONE);
    phone_spec.user.accept_pairing = false;
    let phone = world.add_device(phone_spec);
    let kit = world.add_device(profiles::car_kit(KIT));
    world.device_mut(phone).host.pair_with(addr(KIT));
    world.run_for(Duration::from_secs(5));
    let first = world.device(phone).host.keystore().get(addr(KIT)).cloned();
    let first = first.expect("phone bonded without a popup");
    assert!(!world.device(phone).user.saw_pairing_popup());

    world
        .device_mut(kit)
        .host
        .keystore_mut()
        .remove(addr(PHONE));
    world.device_mut(kit).host.pair_with(addr(PHONE));
    world.run_for(Duration::from_secs(5));
    assert!(
        world.device(phone).user.saw_pairing_popup(),
        "a peer-started re-pairing must not confirm itself"
    );
    let bond = world.device(phone).host.keystore().get(addr(KIT)).cloned();
    assert_eq!(bond.expect("bond kept").link_key, first.link_key);
}
