//! From-scratch implementations of the cryptographic primitives the
//! Bluetooth BR/EDR security architecture uses, as needed by the BLAP
//! reproduction.
//!
//! Nothing here is intended for production use — the point is that the
//! simulated controller derives *real* link keys through *real* protocol
//! math, so the attack code extracts a key that genuinely authenticates:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (validated against published vectors),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104; validated against RFC 4231 vectors),
//! * [`p256`] — NIST P-256 elliptic-curve Diffie-Hellman on a dedicated
//!   field element, pinned against the slow 256-bit integer stack
//!   ([`bigint`]) that also carries the public coordinate/scalar types,
//! * [`ssp`] — the Secure Simple Pairing functions `f1`, `f2`, `f3`, `g` and
//!   the Secure-Connections functions `h3`, `h4`, `h5`,
//! * [`saferplus`] + [`e1`] — the legacy SAFER+-based `E1`/`E21`/`E22`/`E3`
//!   functions used by pre-SSP LMP authentication,
//! * [`batch`] — byte-sliced SWAR batch kernels running the SAFER+
//!   pipeline for eight candidate keys at once (the PIN-cracking hot path),
//! * [`aes`] + [`ccm`] — AES-128 (T-table, with an interleaved
//!   multi-block kernel) and AES-CCM link encryption: one single-frame
//!   seal/open path, and a batched open over frame slices (the eavesdrop
//!   decrypt path).
//!
//! # Example: derive the same link key on both sides
//!
//! ```
//! use blap_crypto::p256::{KeyPair, Scalar};
//! use blap_crypto::ssp;
//! use blap_types::BdAddr;
//!
//! let a = KeyPair::from_secret(Scalar::from_u64(0x1234_5678_9abc)).unwrap();
//! let b = KeyPair::from_secret(Scalar::from_u64(0xfeed_f00d_dead)).unwrap();
//!
//! let dh_ab = a.diffie_hellman(&b.public()).unwrap();
//! let dh_ba = b.diffie_hellman(&a.public()).unwrap();
//! assert_eq!(dh_ab, dh_ba);
//!
//! let addr_a: BdAddr = "aa:aa:aa:aa:aa:aa".parse().unwrap();
//! let addr_b: BdAddr = "bb:bb:bb:bb:bb:bb".parse().unwrap();
//! let n_a = [1u8; 16];
//! let n_b = [2u8; 16];
//! let key_on_a = ssp::f2(&dh_ab, &n_a, &n_b, addr_a, addr_b);
//! let key_on_b = ssp::f2(&dh_ba, &n_a, &n_b, addr_a, addr_b);
//! assert_eq!(key_on_a, key_on_b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod batch;
pub mod bigint;
pub mod ccm;
pub mod e1;
pub mod hmac;
pub mod p256;
pub mod saferplus;
pub mod sha256;
pub mod ssp;
