//! Secure Simple Pairing cryptographic functions.
//!
//! Core Spec Vol 2 Part H defines the SSP/Secure-Connections toolbox on top
//! of HMAC-SHA-256:
//!
//! * [`f1`] — commitment values for Authentication Stage 1,
//! * [`g`] — the six-digit numeric verification value,
//! * [`f2`] — link-key derivation from `DHKey` (the value the paper's
//!   extraction attack steals),
//! * [`f3`] — check values for Authentication Stage 2,
//! * [`h3`]/[`h4`]/[`h5`] — Secure-Connections encryption-key derivation and
//!   secure authentication (the challenge/response this reproduction's LMP
//!   engine runs for bonded devices).
//!
//! Byte-ordering conventions follow the natural big-endian rendering of each
//! quantity; both protocol ends share these functions, and the published
//! HMAC-SHA-256 vectors pin the underlying MAC.

use blap_obs::prof;
use blap_types::{BdAddr, LinkKey};

use crate::hmac::{hmac_sha256, HmacKey};

/// 128-bit nonce used throughout SSP.
pub type Nonce = [u8; 16];

/// Truncates an HMAC output to its most significant 128 bits.
fn msb128(mac: [u8; 32]) -> [u8; 16] {
    let mut out = [0u8; 16];
    out.copy_from_slice(&mac[..16]);
    out
}

/// Concatenates `parts` into a message of exactly `N` bytes.
fn message<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut msg = [0u8; N];
    let mut at = 0;
    for part in parts {
        msg[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "message parts fill the message");
    msg
}

/// `f1(U, V, X, Z)` — commitment function for Authentication Stage 1.
///
/// `u`/`v` are the two public-key x-coordinates, `x` the committing side's
/// nonce, `z` zero for Numeric Comparison / Just Works.
pub fn f1(u: &[u8; 32], v: &[u8; 32], x: &Nonce, z: u8) -> [u8; 16] {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 65] = message(&[u, v, &[z]]);
    msb128(hmac_sha256(x, &msg))
}

/// `g(U, V, X, Y)` — computes the six-digit numeric verification value both
/// displays show during Numeric Comparison.
///
/// Just Works runs the same computation but auto-confirms it, which is why
/// it offers no MITM protection.
pub fn g(u: &[u8; 32], v: &[u8; 32], x: &Nonce, y: &Nonce) -> u32 {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 96] = message(&[u, v, x, y]);
    let digest = crate::sha256::digest(&msg);
    let tail = u32::from_be_bytes([digest[28], digest[29], digest[30], digest[31]]);
    tail % 1_000_000
}

/// `f2(W, N1, N2, keyID, A1, A2)` — derives the 128-bit link key from the
/// ECDH shared secret `W` (`DHKey`), both nonces and both addresses.
///
/// `w` is the DHKey keyed once for HMAC (`HmacKey::new(&dhkey)`), so `f2`
/// and both [`f3`] checks of one transcript share its hashed pads.
/// `keyID` is the ASCII string `"btlk"`. The output of this function is the
/// exact secret that crosses HCI in `HCI_Link_Key_Notification` — the value
/// the paper's extraction attack recovers from the HCI dump.
pub fn f2(w: &HmacKey, n1: &Nonce, n2: &Nonce, a1: BdAddr, a2: BdAddr) -> LinkKey {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 48] = message(&[n1, n2, b"btlk", &a1.to_bytes(), &a2.to_bytes()]);
    LinkKey::new(msb128(w.mac(&msg)))
}

/// `f3(W, N1, N2, R, IOcap, A1, A2)` — check value for Authentication
/// Stage 2; binds the IO capabilities actually exchanged into the transcript.
/// `w` is the keyed DHKey, as for [`f2`].
#[allow(clippy::too_many_arguments)]
pub fn f3(
    w: &HmacKey,
    n1: &Nonce,
    n2: &Nonce,
    r: &Nonce,
    io_cap: [u8; 3],
    a1: BdAddr,
    a2: BdAddr,
) -> [u8; 16] {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 63] = message(&[n1, n2, r, &io_cap, &a1.to_bytes(), &a2.to_bytes()]);
    msb128(w.mac(&msg))
}

/// `h3(T, A1, A2, ACO)` — Secure-Connections encryption key (`keyID =
/// "btak"`), derived from the link key `T` after authentication completes.
pub fn h3(t: &LinkKey, a1: BdAddr, a2: BdAddr, aco: &[u8; 8]) -> [u8; 16] {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 24] = message(&[b"btak", &a1.to_bytes(), &a2.to_bytes(), aco]);
    msb128(hmac_sha256(t.as_ref(), &msg))
}

/// `h4(T, A1, A2)` — Secure-Connections device authentication key (`keyID =
/// "btdk"`), derived from the link key `T`.
pub fn h4(t: &LinkKey, a1: BdAddr, a2: BdAddr) -> [u8; 16] {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 16] = message(&[b"btdk", &a1.to_bytes(), &a2.to_bytes()]);
    msb128(hmac_sha256(t.as_ref(), &msg))
}

/// `h5(S, R1, R2)` — secure authentication response. Returns
/// `(SRES, ACO)`: the 32-bit signed response the prover returns to the
/// verifier's challenge and the 64-bit authenticated ciphering offset that
/// feeds encryption-key derivation.
pub fn h5(s: &[u8; 16], r1: &Nonce, r2: &Nonce) -> ([u8; 4], [u8; 8]) {
    let _prof = prof::scope("crypto.ssp");
    let msg: [u8; 32] = message(&[r1, r2]);
    let mac = hmac_sha256(s, &msg);
    let mut sres = [0u8; 4];
    sres.copy_from_slice(&mac[..4]);
    let mut aco = [0u8; 8];
    aco.copy_from_slice(&mac[4..12]);
    (sres, aco)
}

/// Convenience driver for mutual secure authentication: both devices derive
/// the device authentication key with [`h4`] and compute the expected
/// response to a challenge with [`h5`].
///
/// Returns `(SRES, ACO)` for the challenge pair `(r1, r2)` under link key
/// `t` between central `a1` and peripheral `a2`.
pub fn secure_authentication_response(
    t: &LinkKey,
    a1: BdAddr,
    a2: BdAddr,
    r1: &Nonce,
    r2: &Nonce,
) -> ([u8; 4], [u8; 8]) {
    let dev_key = h4(t, a1, a2);
    h5(&dev_key, r1, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> BdAddr {
        BdAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, last])
    }

    #[test]
    fn f1_commitment_binds_all_inputs() {
        let u = [1u8; 32];
        let v = [2u8; 32];
        let x = [3u8; 16];
        let base = f1(&u, &v, &x, 0);
        assert_ne!(base, f1(&v, &u, &x, 0), "swapped keys must differ");
        assert_ne!(base, f1(&u, &v, &[4u8; 16], 0), "different nonce");
        assert_ne!(base, f1(&u, &v, &x, 1), "different z");
        // Deterministic.
        assert_eq!(base, f1(&u, &v, &x, 0));
    }

    #[test]
    fn g_is_six_digits() {
        for seed in 0..32u8 {
            let u = [seed; 32];
            let v = [seed.wrapping_add(1); 32];
            let x = [seed.wrapping_add(2); 16];
            let y = [seed.wrapping_add(3); 16];
            let value = g(&u, &v, &x, &y);
            assert!(value < 1_000_000, "g produced {value}");
        }
    }

    #[test]
    fn g_symmetric_inputs_agree() {
        // Both sides compute g over the same transcript, so identical inputs
        // must give identical outputs — that is what the user compares.
        let u = [9u8; 32];
        let v = [7u8; 32];
        let x = [5u8; 16];
        let y = [3u8; 16];
        assert_eq!(g(&u, &v, &x, &y), g(&u, &v, &x, &y));
        assert_ne!(g(&u, &v, &x, &y), g(&v, &u, &x, &y));
    }

    #[test]
    fn f2_derives_equal_keys_for_equal_transcripts() {
        let w = HmacKey::new(&[0xAB; 32]);
        let n1 = [1u8; 16];
        let n2 = [2u8; 16];
        let k1 = f2(&w, &n1, &n2, addr(1), addr(2));
        let k2 = f2(&w, &n1, &n2, addr(1), addr(2));
        assert_eq!(k1, k2);
        // Any transcript difference changes the key.
        assert_ne!(k1, f2(&w, &n2, &n1, addr(1), addr(2)));
        assert_ne!(k1, f2(&w, &n1, &n2, addr(2), addr(1)));
        assert_ne!(
            k1,
            f2(&HmacKey::new(&[0xAC; 32]), &n1, &n2, addr(1), addr(2))
        );
    }

    #[test]
    fn f3_binds_io_capabilities() {
        let w = HmacKey::new(&[0x11; 32]);
        let n = [0u8; 16];
        let r = [9u8; 16];
        let c1 = f3(&w, &n, &n, &r, [0x03, 0x00, 0x05], addr(1), addr(2));
        let c2 = f3(&w, &n, &n, &r, [0x01, 0x00, 0x05], addr(1), addr(2));
        assert_ne!(c1, c2, "io capability must be bound into the check value");
    }

    #[test]
    fn h4_h5_round() {
        let key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        let r1 = [0x55; 16];
        let r2 = [0x66; 16];
        let (sres_a, aco_a) = secure_authentication_response(&key, addr(1), addr(2), &r1, &r2);
        let (sres_b, aco_b) = secure_authentication_response(&key, addr(1), addr(2), &r1, &r2);
        assert_eq!(sres_a, sres_b);
        assert_eq!(aco_a, aco_b);
        // Different link key fails the challenge.
        let wrong: LinkKey = "00000000000000000000000000000000".parse().unwrap();
        let (sres_w, _) = secure_authentication_response(&wrong, addr(1), addr(2), &r1, &r2);
        assert_ne!(sres_a, sres_w);
    }

    #[test]
    fn h3_encryption_key_depends_on_aco() {
        let key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        let k1 = h3(&key, addr(1), addr(2), &[1u8; 8]);
        let k2 = h3(&key, addr(1), addr(2), &[2u8; 8]);
        assert_ne!(k1, k2);
    }

    #[test]
    fn end_to_end_pairing_key_agreement() {
        use crate::p256::{KeyPair, Scalar};
        // Simulate the Fig 2a flow at the crypto level.
        let dev_a = KeyPair::from_secret(Scalar::from_be_bytes([0x31; 32])).unwrap();
        let dev_b = KeyPair::from_secret(Scalar::from_be_bytes([0x64; 32])).unwrap();
        let w_a = dev_a.diffie_hellman(&dev_b.public()).unwrap();
        let w_b = dev_b.diffie_hellman(&dev_a.public()).unwrap();
        let na = [0xA1; 16];
        let nb = [0xB2; 16];
        let ka = f2(&HmacKey::new(&w_a), &na, &nb, addr(0xA), addr(0xB));
        let kb = f2(&HmacKey::new(&w_b), &na, &nb, addr(0xA), addr(0xB));
        assert_eq!(ka, kb, "both ends must derive the same link key");
    }
}
