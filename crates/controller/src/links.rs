//! Per-link state tracked by the Link Manager.
//!
//! A link runs at most one security procedure at a time: bonded LMP
//! authentication, Secure Simple Pairing (SSP) or legacy PIN pairing. Its
//! state is one [`Procedure`], whose variants each own exactly the data
//! valid at that step. A handler that matches a variant therefore holds
//! every value it needs, and no step can read a value an earlier step has
//! not produced. The engine takes the procedure out of the link by value,
//! matches it against one input and stores the procedure that comes back.
//! An input that fits no arm returns the procedure unchanged, and every
//! pairing starts from a fresh variant.

use blap_crypto::hmac::HmacKey;
use blap_crypto::p256::KeyPair;
use blap_crypto::ssp;
use blap_obs::prof;
use blap_types::{
    AssociationModel, BdAddr, ConnectionHandle, IoCapability, LinkKey, LinkKeyType, Role,
};

/// One ACL link as the Link Manager sees it.
#[derive(Clone, Debug)]
pub struct LinkEntry {
    /// HCI handle allocated locally for this link.
    pub handle: ConnectionHandle,
    /// Peer's (claimed) BDADDR.
    pub peer: BdAddr,
    /// Local role in connection establishment.
    pub(crate) role: Role,
    /// The security procedure in progress.
    pub(crate) procedure: Procedure,
    /// Link key in active use on this link (cached for the session only —
    /// persistent storage lives in the host, as in real chipsets).
    pub(crate) session_key: Option<LinkKey>,
    /// Authenticated Ciphering Offset from the last LMP authentication
    /// (zeros before the first); feeds the `h3` encryption-key derivation.
    pub(crate) aco: [u8; 8],
    /// Session encryption key, present while encryption is on.
    pub(crate) encryption_key: Option<[u8; 16]>,
}

impl LinkEntry {
    /// Creates a link record with no procedure running.
    pub(crate) fn new(handle: ConnectionHandle, peer: BdAddr, role: Role) -> Self {
        LinkEntry {
            handle,
            peer,
            role,
            procedure: Procedure::Idle,
            session_key: None,
            aco: [0; 8],
            encryption_key: None,
        }
    }
}

/// The security procedure a link is running, one variant per step.
#[derive(Clone, Debug, Default)]
pub(crate) enum Procedure {
    /// Nothing in progress.
    #[default]
    Idle,
    /// Verifier: `HCI_Link_Key_Request` raised for the host's
    /// `HCI_Authentication_Requested`.
    AwaitHostKey,
    /// Verifier: `LMP_au_rand` sent; the SRES the prover must return.
    AwaitSres { expected: [u8; 4] },
    /// Prover: a challenge arrived before the link had a key, so the host
    /// was asked for one.
    AwaitHostKeyForChallenge { rand: [u8; 16] },
    /// SSP: waiting for `HCI_IO_Capability_Request_Reply`. The responder
    /// already holds the initiator's capabilities.
    AwaitHostIoCap { peer: Option<IoCaps> },
    /// SSP initiator: `LMP_io_capability_req` sent.
    AwaitIoCapResponse { own: IoCaps },
    /// SSP: waiting for the peer's public key. The initiator's key pair
    /// (with its public x) went out already; the responder draws its own
    /// once the peer's key is on the curve.
    AwaitPublicKey {
        caps: Caps,
        keypair: Option<(KeyPair, [u8; 32])>,
    },
    /// SSP initiator: DHKey known, waiting for the responder's commitment.
    AwaitCommitment { exchange: Exchange },
    /// SSP: our nonce drawn, waiting for the peer's. The initiator holds
    /// the responder's commitment to check that nonce against.
    AwaitNonce {
        exchange: Exchange,
        nonce: [u8; 16],
        commitment: Option<[u8; 16]>,
    },
    /// SSP: `HCI_User_Confirmation_Request` raised; waiting for the local
    /// host's answer and the peer's `LMP_numeric_comparison_accepted`.
    AwaitConfirmation {
        transcript: Transcript,
        local: bool,
        peer: bool,
    },
    /// SSP: both sides confirmed; waiting for the peer's DHKey check.
    AwaitDhkeyCheck { transcript: Transcript },
    /// Legacy PIN pairing (E22/E21).
    LegacyPin(Legacy),
}

/// Legacy PIN pairing state. The two contributions may complete in either
/// order, so each is an `Option` until both are in.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Legacy {
    /// True on the side that started the pairing.
    pub(crate) initiator: bool,
    /// The initiator's IN_RAND (shared in the clear).
    pub(crate) in_rand: [u8; 16],
    /// `E22(IN_RAND, PIN, claimant)` and our `LK_RAND`, once the host
    /// supplied the PIN.
    pub(crate) own: Option<(LinkKey, [u8; 16])>,
    /// The peer's masked `LK_RAND`, once received.
    pub(crate) peer_comb: Option<[u8; 16]>,
}

/// One side's IO capability and authentication-requirements octet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IoCaps {
    pub(crate) io: IoCapability,
    pub(crate) auth_req: u8,
}

/// The IO capabilities both sides declared, and this side's role.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Caps {
    pub(crate) initiator: bool,
    pub(crate) own: IoCaps,
    pub(crate) peer: IoCaps,
}

/// An SSP exchange once both public keys are known.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exchange {
    pub(crate) caps: Caps,
    /// Our public key's x-coordinate (big-endian).
    pub(crate) own_x: [u8; 32],
    /// The peer's public key's x-coordinate (big-endian).
    pub(crate) peer_x: [u8; 32],
    pub(crate) dhkey: [u8; 32],
}

/// What one end put into an SSP exchange.
#[derive(Clone, Copy, Debug)]
pub(crate) struct End {
    addr: BdAddr,
    caps: IoCaps,
    x: [u8; 32],
    nonce: [u8; 16],
}

/// A whole SSP transcript, known once both nonces are: both ends and the
/// DHKey. It computes every value derived from them, with the ends in the
/// order each function takes them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Transcript {
    pub(crate) initiator: bool,
    pub(crate) own: End,
    pub(crate) peer: End,
    /// The DHKey with its HMAC pads hashed, once for this end's `f2` and
    /// both `f3` checks.
    dhkey: HmacKey,
}

impl Transcript {
    /// Completes an exchange with both nonces and both addresses.
    pub(crate) fn new(
        e: Exchange,
        (own_nonce, peer_nonce): ([u8; 16], [u8; 16]),
        (own_addr, peer_addr): (BdAddr, BdAddr),
    ) -> Self {
        let end = |addr, caps, x, nonce| End {
            addr,
            caps,
            x,
            nonce,
        };
        Transcript {
            initiator: e.caps.initiator,
            own: end(own_addr, e.caps.own, e.own_x, own_nonce),
            peer: end(peer_addr, e.caps.peer, e.peer_x, peer_nonce),
            dhkey: {
                let _prof = prof::scope("crypto.ssp");
                HmacKey::new(&e.dhkey)
            },
        }
    }

    /// The two ends, initiator first.
    fn ordered(&self) -> (&End, &End) {
        if self.initiator {
            (&self.own, &self.peer)
        } else {
            (&self.peer, &self.own)
        }
    }

    /// `g(PKax, PKbx, Na, Nb)`: the six-digit value both users compare.
    pub(crate) fn numeric(&self) -> u32 {
        let (a, b) = self.ordered();
        ssp::g(&a.x, &b.x, &a.nonce, &b.nonce)
    }

    /// The `f3` DHKey check that `from` sends to `to`.
    pub(crate) fn dhkey_check(&self, from: &End, to: &End) -> [u8; 16] {
        let io_cap = [from.caps.io as u8, 0, from.caps.auth_req];
        ssp::f3(
            &self.dhkey,
            &from.nonce,
            &to.nonce,
            &[0; 16],
            io_cap,
            from.addr,
            to.addr,
        )
    }

    /// The `f2` link key and its type, from the association model the two
    /// IO capabilities select.
    pub(crate) fn link_key(&self) -> (LinkKey, LinkKeyType) {
        let (a, b) = self.ordered();
        let key = ssp::f2(&self.dhkey, &a.nonce, &b.nonce, a.addr, b.addr);
        let key_type = if AssociationModel::select(a.caps.io, b.caps.io).resists_mitm() {
            LinkKeyType::AuthenticatedP256
        } else {
            LinkKeyType::UnauthenticatedP256
        };
        (key, key_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_link_defaults() {
        let link = LinkEntry::new(
            ConnectionHandle::new(1),
            "aa:bb:cc:dd:ee:ff".parse().unwrap(),
            Role::Initiator,
        );
        assert!(matches!(link.procedure, Procedure::Idle));
        assert!(link.session_key.is_none());
        assert!(link.encryption_key.is_none());
    }

    #[test]
    fn both_ends_of_a_transcript_agree() {
        let (a, b): (BdAddr, BdAddr) = (
            "aa:aa:aa:aa:aa:aa".parse().unwrap(),
            "bb:bb:bb:bb:bb:bb".parse().unwrap(),
        );
        let io = |io| IoCaps { io, auth_req: 3 };
        let (io_a, io_b) = (
            io(IoCapability::DisplayYesNo),
            io(IoCapability::NoInputNoOutput),
        );
        let exchange = |initiator, own, peer, own_x, peer_x| Exchange {
            caps: Caps {
                initiator,
                own,
                peer,
            },
            own_x,
            peer_x,
            dhkey: [7; 32],
        };
        let (na, nb) = ([1; 16], [2; 16]);
        let at_a = Transcript::new(
            exchange(true, io_a, io_b, [3; 32], [4; 32]),
            (na, nb),
            (a, b),
        );
        let at_b = Transcript::new(
            exchange(false, io_b, io_a, [4; 32], [3; 32]),
            (nb, na),
            (b, a),
        );
        assert_eq!(at_a.numeric(), at_b.numeric());
        assert_eq!(at_a.link_key(), at_b.link_key());
        assert_eq!(at_a.link_key().1, LinkKeyType::UnauthenticatedP256);
        assert_eq!(
            at_a.dhkey_check(&at_a.own, &at_a.peer),
            at_b.dhkey_check(&at_b.peer, &at_b.own)
        );
        assert_ne!(
            at_a.dhkey_check(&at_a.own, &at_a.peer),
            at_a.dhkey_check(&at_a.peer, &at_a.own)
        );
    }
}
