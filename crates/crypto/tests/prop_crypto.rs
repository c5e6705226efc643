//! Property tests for the cryptographic substrate.

use blap_crypto::bigint::{U256, U512};
use blap_crypto::p256::{self, FieldElement};
use blap_crypto::saferplus::{decrypt, encrypt, encrypt_prime, KeySchedule};
use blap_crypto::sha256::{digest, Sha256};
use blap_crypto::{e1, hmac, ssp};
use blap_types::BdAddr;
use proptest::prelude::*;

proptest! {
    #[test]
    fn sha256_incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                          split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), digest(&data));
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive(key in proptest::collection::vec(any::<u8>(), 0..128),
                                               data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let a = hmac::hmac_sha256(&key, &data);
        let b = hmac::hmac_sha256(&key, &data);
        prop_assert_eq!(a, b);
        let mut other_key = key.clone();
        other_key.push(0x01);
        prop_assert_ne!(a, hmac::hmac_sha256(&other_key, &data));
    }

    #[test]
    fn saferplus_encrypt_decrypt_inverse(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let ks = KeySchedule::new(&key);
        prop_assert_eq!(decrypt(&ks, &encrypt(&ks, &block)), block);
    }

    #[test]
    fn saferplus_is_a_permutation(key in any::<[u8; 16]>(),
                                  b1 in any::<[u8; 16]>(),
                                  b2 in any::<[u8; 16]>()) {
        let ks = KeySchedule::new(&key);
        if b1 != b2 {
            prop_assert_ne!(encrypt(&ks, &b1), encrypt(&ks, &b2));
        }
        prop_assert_ne!(encrypt(&ks, &b1), encrypt_prime(&ks, &b1));
    }

    #[test]
    fn e1_symmetric_across_parties(key in any::<[u8; 16]>(),
                                   rand in any::<[u8; 16]>(),
                                   addr in any::<[u8; 6]>()) {
        let key = blap_types::LinkKey::new(key);
        let addr = BdAddr::new(addr);
        let verifier = e1::e1(&key, &rand, addr);
        let prover = e1::e1(&key, &rand, addr);
        prop_assert_eq!(verifier, prover);
    }

    #[test]
    fn u256_add_sub_inverse(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let a = U256::from_be_bytes(a);
        let b = U256::from_be_bytes(b);
        let (sum, _) = a.overflowing_add(b);
        let (diff, _) = sum.overflowing_sub(b);
        prop_assert_eq!(diff, a);
    }

    #[test]
    fn u256_mul_commutes_mod_prime(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a).rem_short(p);
        let b = U256::from_be_bytes(b).rem_short(p);
        prop_assert_eq!(a.mul_mod(b, p), b.mul_mod(a, p));
    }

    #[test]
    fn u512_rem_is_bounded(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), m in 1u64..u64::MAX) {
        let product = U256::from_be_bytes(a).widening_mul(U256::from_be_bytes(b));
        let modulus = U256::from_u64(m);
        let r = product.rem(modulus);
        prop_assert!(r < modulus);
    }

    #[test]
    fn f2_binds_every_input(w in any::<[u8; 32]>(), n1 in any::<[u8; 16]>(), n2 in any::<[u8; 16]>()) {
        let a1: BdAddr = "aa:aa:aa:aa:aa:aa".parse().unwrap();
        let a2: BdAddr = "bb:bb:bb:bb:bb:bb".parse().unwrap();
        let base = ssp::f2(&w, &n1, &n2, a1, a2);
        prop_assert_eq!(base, ssp::f2(&w, &n1, &n2, a1, a2));
        if n1 != n2 {
            prop_assert_ne!(base, ssp::f2(&w, &n2, &n1, a1, a2));
        }
        prop_assert_ne!(base, ssp::f2(&w, &n1, &n2, a2, a1));
    }

    #[test]
    fn g_always_six_digits(u in any::<[u8; 32]>(), v in any::<[u8; 32]>(),
                           x in any::<[u8; 16]>(), y in any::<[u8; 16]>()) {
        prop_assert!(ssp::g(&u, &v, &x, &y) < 1_000_000);
    }
}

// Heavier EC properties with a reduced case count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ecdh_agreement_holds(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        use p256::{KeyPair, Scalar};
        let ka = KeyPair::from_secret(Scalar::from_u64(a)).unwrap();
        let kb = KeyPair::from_secret(Scalar::from_u64(b)).unwrap();
        prop_assert_eq!(
            ka.diffie_hellman(&kb.public()).unwrap(),
            kb.diffie_hellman(&ka.public()).unwrap()
        );
    }

    #[test]
    fn scalar_mul_closure(k in 1u64..1_000_000) {
        use p256::{generator, Scalar};
        let point = generator().mul(&Scalar::from_u64(k));
        prop_assert!(point.is_on_curve());
    }

    #[test]
    fn fast_reduction_matches_slow(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        // Pins the Montgomery multiply (fast path, `field_mul`, in and out
        // of the domain) against binary long division (slow path,
        // `mul_mod`/`rem`) for arbitrary products.
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a).rem_short(p);
        let b = U256::from_be_bytes(b).rem_short(p);
        prop_assert_eq!(p256::field_mul(a, b), a.mul_mod(b, p));
        prop_assert_eq!(p256::field_mul(a, b), U512::from_u256(U256::ZERO)
            .rem(p)
            .add_mod(a.mul_mod(b, p), p));
    }

    #[test]
    fn field_inv_matches_fermat_oracle(a in any::<[u8; 32]>()) {
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a);
        prop_assert_eq!(fe(a).inv().map(FieldElement::to_u256), a.inv_mod_prime(p));
    }
}

// The dedicated field element against the `bigint` oracle.
fn fe(v: U256) -> FieldElement {
    FieldElement::from_u256(v)
}

proptest! {
    #[test]
    fn field_element_round_trips_reduced_values(a in any::<[u8; 32]>()) {
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a);
        prop_assert_eq!(fe(a).to_u256(), a.rem_short(p));
    }

    #[test]
    fn field_mul_sq_match_oracle(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a).rem_short(p);
        let b = U256::from_be_bytes(b).rem_short(p);
        prop_assert_eq!(fe(a).mul(&fe(b)).to_u256(), a.mul_mod(b, p));
        prop_assert_eq!(fe(a).sq().to_u256(), a.mul_mod(a, p));
    }

    #[test]
    fn field_add_sub_neg_match_oracle(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let p = p256::field_prime();
        let a = U256::from_be_bytes(a).rem_short(p);
        let b = U256::from_be_bytes(b).rem_short(p);
        prop_assert_eq!(fe(a).add(&fe(b)).to_u256(), a.add_mod(b, p));
        prop_assert_eq!(fe(a).double().to_u256(), a.add_mod(a, p));
        prop_assert_eq!(fe(a).sub(&fe(b)).to_u256(), a.sub_mod(b, p));
        prop_assert_eq!(fe(a).neg().to_u256(), U256::ZERO.sub_mod(a, p));
    }
}

/// Field values at the edges of the representation: 0, 1, p−1, p−2, the
/// reduced all-ones limbs (`2^256 − 1 − p`), four values whose 32-bit
/// words are each 0 or 2^32 − 1, and 2^32 and 2^64 − 1. Between them they
/// drive every ending of the Montgomery reduction (`t·2^−256 mod p`,
/// which leaves `(t + m·p)/2^256 < 2p` for one masked subtraction of p):
/// the squares of p−1, p−2, 2^32 and 2^64 − 1 carry out of 2^256; entering
/// the domain (a multiply by `2^512 mod p`) carries out for
/// `ffffffff·2^224` and `ffffffff·2^224 + ffffffff·2^160` and lands in
/// `[p, 2^256)` for `ffffffff·2^224 + ffffffff`, where the subtraction
/// fires on the comparison alone; most other products stay below p.
fn field_edge_values() -> Vec<U256> {
    let p = p256::field_prime();
    vec![
        U256::ZERO,
        U256::ONE,
        p.overflowing_sub(U256::ONE).0,
        p.overflowing_sub(U256::from_u64(2)).0,
        U256::from_limbs([u64::MAX; 4]).rem_short(p),
        U256::from_hex("ffffffff00000000000000000000000000000000000000000000000000000000"),
        U256::from_hex("ffffffff000000000000000000000000000000000000000000000000ffffffff"),
        U256::from_hex("ffffffffffffffff00000000000000000000000000000000"),
        U256::from_hex("ffffffff00000000ffffffff0000000000000000000000000000000000000000"),
        U256::from_u64(1 << 32),
        U256::from_u64(u64::MAX),
    ]
}

#[test]
fn field_edge_values_match_oracle() {
    let p = p256::field_prime();
    let edges = field_edge_values();
    assert_eq!(
        fe(U256::from_limbs([u64::MAX; 4])).to_u256(),
        edges[4],
        "all-ones limbs reduce by one subtraction of p"
    );
    for &a in &edges {
        assert_eq!(fe(a).to_u256(), a, "edge values are canonical");
        assert_eq!(fe(a).sq().to_u256(), a.mul_mod(a, p), "sq {a}");
        assert_eq!(fe(a).neg().to_u256(), U256::ZERO.sub_mod(a, p), "neg {a}");
        assert_eq!(
            fe(a).inv().map(FieldElement::to_u256),
            a.inv_mod_prime(p),
            "inv {a}"
        );
        for &b in &edges {
            assert_eq!(fe(a).mul(&fe(b)).to_u256(), a.mul_mod(b, p), "{a} * {b}");
            assert_eq!(fe(a).add(&fe(b)).to_u256(), a.add_mod(b, p), "{a} + {b}");
            assert_eq!(fe(a).sub(&fe(b)).to_u256(), a.sub_mod(b, p), "{a} - {b}");
        }
    }
}

// One ECDH per pairing: the memo against plain `KeyPair::diffie_hellman`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dh_memo_returns_what_each_end_computes(a in any::<[u8; 32]>(),
                                              b in any::<[u8; 32]>(),
                                              c in any::<[u8; 32]>()) {
        use p256::{DhMemo, EcdhError, KeyPair, Point};
        let key = |bytes| KeyPair::from_rng_bytes(bytes).expect("nonzero secret");
        let (ka, kb, kc) = (key(a), key(b), key(c));
        let (pa, pb) = (ka.public(), kb.public());
        prop_assume!(pa != pb && pa != kc.public() && pb != kc.public());
        let mut memo = DhMemo::new();

        // B's end takes A's DHKey, and the hit consumes the entry.
        prop_assert_eq!(memo.diffie_hellman(&ka, &pb), ka.diffie_hellman(&pb));
        prop_assert_eq!(memo.len(), 1);
        prop_assert_eq!(memo.diffie_hellman(&kb, &pa), kb.diffie_hellman(&pa));
        prop_assert!(memo.is_empty());

        // C presents A's key too but is not the peer A computed against:
        // a miss, computed afresh and recorded beside A's entry.
        prop_assert_eq!(memo.diffie_hellman(&ka, &pb), ka.diffie_hellman(&pb));
        prop_assert_eq!(memo.diffie_hellman(&kc, &pa), kc.diffie_hellman(&pa));
        prop_assert_eq!(memo.len(), 2);

        // Invalid keys are rejected before any lookup or insertion.
        let Point::Affine { x, y } = pa else { unreachable!("public keys are affine") };
        let off_curve = Point::Affine { x, y: y.overflowing_add(U256::ONE).0 };
        for bad in [off_curve, Point::Infinity] {
            prop_assert_eq!(memo.diffie_hellman(&kb, &bad), Err(EcdhError::InvalidPublicKey));
            prop_assert_eq!(memo.len(), 2);
        }
        prop_assert_eq!(memo.diffie_hellman(&kb, &pa), kb.diffie_hellman(&pa));
        prop_assert_eq!(memo.len(), 1);

        // Overfilled, the memo evicts its oldest entries; every answer is
        // still the freshly computed one, hit or miss.
        let peers: Vec<KeyPair> = (0..DhMemo::CAPACITY as u8 + 2)
            .map(|i| {
                let mut bytes = b;
                bytes[0] ^= i + 1;
                key(bytes)
            })
            .collect();
        for peer in &peers {
            prop_assert_eq!(memo.diffie_hellman(&ka, &peer.public()), ka.diffie_hellman(&peer.public()));
            prop_assert!(memo.len() <= DhMemo::CAPACITY);
        }
        prop_assert_eq!(memo.len(), DhMemo::CAPACITY);
        for peer in &peers {
            prop_assert_eq!(memo.diffie_hellman(peer, &pa), peer.diffie_hellman(&pa));
        }
    }
}

/// Public keys and DHKeys for fixed secrets, recorded from the generic
/// `U256` field implementation this element replaced: the bytes the
/// simulation fixtures depend on, pinned inside the crypto crate.
#[test]
fn p256_golden_vectors() {
    use p256::{group_order, KeyPair, Scalar};
    let secrets = [
        Scalar::from_u64(1),
        Scalar::from_u64(7),
        Scalar::from_be_bytes([0x42; 32]),
        Scalar::from_be_bytes([0x17; 32]),
        Scalar::from_u256(group_order().overflowing_sub(U256::ONE).0),
        Scalar::from_u256(U256::from_hex(
            "c51e4753afdec1e6b6c6a5b992f43f8dd0c7a8933072708b6522468b2ffb06fd",
        )),
    ];
    let publics = [
        (
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
        ),
        (
            "8e533b6fa0bf7b4625bb30667c01fb607ef9f8b8a80fef5b300628703187b2a3",
            "73eb1dbde03318366d069f83a6f5900053c73633cb041b21c55e1a86c1f400b4",
        ),
        (
            "3ad3861a95621392516bb593ef05583ed2e5866f5cb6260a3017237fd89b90af",
            "d0961c7e37075a6791a39c61f56295b02b6d26567b615e60aa41ee1c8e83388d",
        ),
        (
            "9bece2a08e2cd04cbb9ba5102a51870f54b1e450c2fd417da83efe16707a1906",
            "cda14b5eeddade58cef7527ff0c9b98e7fe6fddb16496102871cf62cea694ec4",
        ),
        (
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            "b01cbd1c01e58065711814b583f061e9d431cca994cea1313449bf97c840ae0a",
        ),
        (
            "942c9f408ead9d82d34a1b9a6a827ebe3e2ddf782b448d23be1b6143988ccef4",
            "8c9eaf6c0d14d992fc63bad3e2496be2eee61cb5b97f65f428ca94a5d0ee19a1",
        ),
    ];
    // DHKey of key pair i with the public key of pair (i + 1) mod 6.
    let dhkeys = [
        "8e533b6fa0bf7b4625bb30667c01fb607ef9f8b8a80fef5b300628703187b2a3",
        "66384de786be076032d0dc64da3c004bcb8185584f8345e1d645f6342c5088bd",
        "901828f1ac762d9e2a2a3d5d4ae00cd51896368b293ab1cbf62e4368f222fdad",
        "9bece2a08e2cd04cbb9ba5102a51870f54b1e450c2fd417da83efe16707a1906",
        "942c9f408ead9d82d34a1b9a6a827ebe3e2ddf782b448d23be1b6143988ccef4",
        "942c9f408ead9d82d34a1b9a6a827ebe3e2ddf782b448d23be1b6143988ccef4",
    ];
    let pairs: Vec<KeyPair> = secrets
        .iter()
        .map(|s| KeyPair::from_secret(*s).expect("nonzero secret"))
        .collect();
    for (i, (kp, (x, y))) in pairs.iter().zip(publics).enumerate() {
        assert_eq!(kp.public().x(), Some(U256::from_hex(x)), "public x {i}");
        assert_eq!(kp.public().y(), Some(U256::from_hex(y)), "public y {i}");
    }
    for (i, want) in dhkeys.iter().enumerate() {
        let remote = pairs[(i + 1) % pairs.len()].public();
        let dhkey = pairs[i].diffie_hellman(&remote).expect("valid public key");
        assert_eq!(
            U256::from_be_bytes(dhkey),
            U256::from_hex(want),
            "dhkey {i}"
        );
    }
}

// AES/CCM properties.
proptest! {
    #[test]
    fn aes_is_a_permutation(key in any::<[u8; 16]>(), b1 in any::<[u8; 16]>(), b2 in any::<[u8; 16]>()) {
        use blap_crypto::aes::Aes128;
        let aes = Aes128::new(&key);
        if b1 != b2 {
            prop_assert_ne!(aes.encrypt_block(&b1), aes.encrypt_block(&b2));
        }
    }

    #[test]
    fn ccm_round_trip(key in any::<[u8; 16]>(), nonce in any::<[u8; 13]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..32),
                      payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        use blap_crypto::ccm::{self, Ccm};
        let ccm = Ccm::new(&key);
        let ct = ccm.seal(&nonce, &aad, &payload).unwrap();
        prop_assert_eq!(ct.len(), payload.len() + ccm::TAG_LEN);
        let pt = ccm.open(&nonce, &aad, &ct).unwrap();
        prop_assert_eq!(pt, payload);
    }

    #[test]
    fn ccm_detects_any_single_bitflip(key in any::<[u8; 16]>(), nonce in any::<[u8; 13]>(),
                                      payload in proptest::collection::vec(any::<u8>(), 1..64),
                                      flip_byte in 0usize..64, flip_bit in 0u8..8) {
        use blap_crypto::ccm::{Ccm, CcmError};
        let ccm = Ccm::new(&key);
        let ct = ccm.seal(&nonce, b"", &payload).unwrap();
        let mut tampered = ct.clone();
        let idx = flip_byte % tampered.len();
        tampered[idx] ^= 1 << flip_bit;
        prop_assert_eq!(ccm.open(&nonce, b"", &tampered), Err(CcmError::TagMismatch));
    }

    #[test]
    fn ccm_rejects_foreign_keys(key in any::<[u8; 16]>(), other in any::<[u8; 16]>(),
                                nonce in any::<[u8; 13]>(),
                                payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        use blap_crypto::ccm::Ccm;
        prop_assume!(key != other);
        let ct = Ccm::new(&key).seal(&nonce, b"", &payload).unwrap();
        prop_assert!(Ccm::new(&other).open(&nonce, b"", &ct).is_err());
    }

    #[test]
    fn e22_pin_sensitivity(rand in any::<[u8; 16]>(), addr_bytes in any::<[u8; 6]>(),
                           pin1 in proptest::collection::vec(any::<u8>(), 1..16),
                           pin2 in proptest::collection::vec(any::<u8>(), 1..16)) {
        use blap_crypto::e1;
        let addr = BdAddr::new(addr_bytes);
        if pin1 != pin2 {
            prop_assert_ne!(
                e1::e22(&rand, &pin1, addr),
                e1::e22(&rand, &pin2, addr),
                "distinct PINs must give distinct init keys"
            );
        }
    }

    #[test]
    fn e22_augmented_sweep_equals_one_shot(rand in any::<[u8; 16]>(),
                                           addr_bytes in any::<[u8; 6]>(),
                                           pins in proptest::collection::vec(any::<[u8; 6]>(), 1..8)) {
        use blap_crypto::e1::{self, AugmentedPin};
        // Reusing one augmentation across a sweep of same-length PINs must
        // match rebuilding it from scratch for every candidate.
        let addr = BdAddr::new(addr_bytes);
        let mut aug = AugmentedPin::new(&pins[0], addr);
        for pin in &pins {
            aug.set_pin(pin);
            prop_assert_eq!(
                e1::e22_with_augmented(&rand, &aug),
                e1::e22(&rand, pin, addr),
                "pin {:?}", pin
            );
        }
    }

    #[test]
    fn batch_encrypt_matches_scalar_lanewise(key_bytes in any::<[u8; 256]>(),
                                             block in any::<[u8; 16]>()) {
        use blap_crypto::batch::{self, Batch16, KeyScheduleBatch};
        let keys: [[u8; 16]; 16] =
            core::array::from_fn(|lane| core::array::from_fn(|i| key_bytes[lane * 16 + i]));
        let sched = KeyScheduleBatch::new(&Batch16::from_lanes(&keys));
        let input = Batch16::splat(&block);
        let plain = batch::encrypt_batch(&sched, &input);
        let prime = batch::encrypt_prime_batch(&sched, &input);
        for (lane, key) in keys.iter().enumerate() {
            let ks = KeySchedule::new(key);
            prop_assert_eq!(plain.lane(lane), encrypt(&ks, &block), "Ar lane {}", lane);
            prop_assert_eq!(prime.lane(lane), encrypt_prime(&ks, &block), "Ar' lane {}", lane);
        }
    }

    #[test]
    fn batch_e21_e1_match_scalar_lanewise(key_bytes in any::<[u8; 256]>(),
                                          rand in any::<[u8; 16]>(),
                                          addr_bytes in any::<[u8; 6]>()) {
        use blap_crypto::batch::{self, Batch16, E1Batch};
        let keys: [[u8; 16]; 16] =
            core::array::from_fn(|lane| core::array::from_fn(|i| key_bytes[lane * 16 + i]));
        let addr = BdAddr::new(addr_bytes);
        let key_batch = Batch16::from_lanes(&keys);
        let addr_ext = batch::expand_addr_splat(addr);
        let e21_out = batch::e21_batch(&key_batch, &addr_ext);
        let e1_out = E1Batch::new(&key_batch).e1_output(&Batch16::splat(&rand), &addr_ext);
        for (lane, key) in keys.iter().enumerate() {
            prop_assert_eq!(
                blap_types::LinkKey::new(e21_out.lane(lane)),
                e1::e21(key, addr),
                "e21 lane {}", lane
            );
            let expected = e1::e1(&blap_types::LinkKey::new(*key), &rand, addr);
            let got = e1_out.lane(lane);
            prop_assert_eq!(&got[..4], &expected.sres[..], "sres lane {}", lane);
            prop_assert_eq!(&got[4..], &expected.aco[..], "aco lane {}", lane);
        }
    }
}

mod ccm_batch {
    use blap_crypto::ccm::{self, Ccm, CcmError, OpenBatch, SealedFrame, TAG_LEN};
    use proptest::prelude::*;

    /// Frame material for batched-vs-scalar equivalence: arbitrary payload
    /// lengths and AADs per lane, frame counts straddling multiples of
    /// `FRAME_LANES` so ragged final batches are always exercised.
    fn frames_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>, [u8; ccm::NONCE_LEN])>> {
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..80),
                proptest::collection::vec(any::<u8>(), 0..40),
                any::<[u8; ccm::NONCE_LEN]>(),
            ),
            1..2 * ccm::FRAME_LANES + 4,
        )
    }

    proptest! {
        #[test]
        fn open_many_matches_scalar_open_lane_for_lane(key in any::<[u8; 16]>(),
                                                       frames in frames_strategy()) {
            let ccm = Ccm::new(&key);
            let sealed: Vec<Vec<u8>> = frames
                .iter()
                .map(|(payload, aad, nonce)| ccm.seal(nonce, aad, payload).unwrap())
                .collect();
            let views: Vec<SealedFrame<'_>> = frames
                .iter()
                .zip(&sealed)
                .map(|((_, aad, nonce), ct)| SealedFrame {
                    nonce: *nonce,
                    aad,
                    ciphertext_and_tag: ct,
                })
                .collect();
            let mut batch = OpenBatch::new();
            ccm.open_many_into(&views, &mut batch);
            prop_assert_eq!(batch.len(), frames.len());
            for (i, ((payload, aad, nonce), got)) in frames.iter().zip(batch.iter()).enumerate() {
                let got = got.map(<[u8]>::to_vec);
                prop_assert_eq!(&got, &ccm.open(nonce, aad, &sealed[i]), "lane {}", i);
                prop_assert_eq!(got.as_ref().ok(), Some(payload), "lane {}", i);
            }
        }

        #[test]
        fn open_many_rejects_tamper_and_truncation_per_lane(key in any::<[u8; 16]>(),
                                                            frames in frames_strategy(),
                                                            bad in 0usize..64,
                                                            short in 0usize..64,
                                                            flip_at in 0usize..4096) {
            let ccm = Ccm::new(&key);
            let mut sealed: Vec<Vec<u8>> = frames
                .iter()
                .map(|(payload, aad, nonce)| ccm.seal(nonce, aad, payload).unwrap())
                .collect();
            let bad = bad % frames.len();
            let short = short % frames.len();
            let flip = flip_at % sealed[bad].len();
            sealed[bad][flip] ^= 0x01;
            if short != bad {
                sealed[short].truncate(TAG_LEN - 1);
            }
            let views: Vec<SealedFrame<'_>> = frames
                .iter()
                .zip(&sealed)
                .map(|((_, aad, nonce), ct)| SealedFrame {
                    nonce: *nonce,
                    aad,
                    ciphertext_and_tag: ct,
                })
                .collect();
            let mut batch = OpenBatch::new();
            ccm.open_many_into(&views, &mut batch);
            for (i, (payload, _, _)) in frames.iter().enumerate() {
                let got = batch.get(i);
                if i == bad {
                    prop_assert_eq!(got, Err(CcmError::TagMismatch), "tampered lane {}", i);
                } else if i == short {
                    prop_assert_eq!(got, Err(CcmError::Truncated), "truncated lane {}", i);
                } else {
                    prop_assert_eq!(got, Ok(payload.as_slice()), "honest lane {}", i);
                }
            }
        }

        #[test]
        fn open_into_round_trips_through_one_buffer(key in any::<[u8; 16]>(),
                                                    frames in frames_strategy()) {
            let ccm = Ccm::new(&key);
            let mut opened = Vec::new();
            for (i, (payload, aad, nonce)) in frames.iter().enumerate() {
                let sealed = ccm.seal(nonce, aad, payload).unwrap();
                ccm.open_into(nonce, aad, &sealed, &mut opened).unwrap();
                prop_assert_eq!(&opened, payload, "lane {}", i);
            }
        }
    }
}
