//! Link keys — the long-term shared secret at the heart of both BLAP attacks.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseKeyError;

/// A 128-bit Bluetooth link key.
///
/// The link key is derived during pairing (for Secure Simple Pairing, from
/// the ECDH shared secret via the `f2` function) and is the *only* secret
/// input to LMP authentication and encryption key generation. Bonded devices
/// store it indefinitely, which is exactly why the paper's link key
/// extraction attack is so damaging: one leaked key breaks every past and
/// future session of that bond.
///
/// Bytes are stored in the order the key is conventionally displayed
/// (e.g. in `bt_config.conf`). HCI carries keys little-endian on the wire;
/// convert with [`LinkKey::to_le_bytes`] / [`LinkKey::from_le_bytes`].
///
/// # Examples
///
/// ```
/// use blap_types::LinkKey;
///
/// let key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse()?;
/// assert_eq!(key.to_hex(), "71a70981f30d6af9e20adee8aafe3264");
/// # Ok::<(), blap_types::ParseKeyError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkKey([u8; 16]);

impl LinkKey {
    /// Creates a key from bytes in display order.
    pub const fn new(bytes: [u8; 16]) -> Self {
        LinkKey(bytes)
    }

    /// Creates a key from bytes in HCI wire (little-endian) order.
    pub fn from_le_bytes(bytes: [u8; 16]) -> Self {
        let mut b = bytes;
        b.reverse();
        LinkKey(b)
    }

    /// Returns the bytes in display order.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0
    }

    /// Returns the bytes in HCI wire (little-endian) order.
    pub fn to_le_bytes(self) -> [u8; 16] {
        let mut b = self.0;
        b.reverse();
        b
    }

    /// Lower-case hex rendering in display order, as used by
    /// `bt_config.conf` and the paper's figures.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for LinkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for LinkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keys are secrets; full value printed only via Display/to_hex on
        // purpose. Debug shows a fingerprint so accidental logging of whole
        // structs does not leak the key — the simulation's *attack* code
        // always goes through `to_hex`, which is the point of the exercise.
        write!(
            f,
            "LinkKey({:02x}{:02x}..{:02x})",
            self.0[0], self.0[1], self.0[15]
        )
    }
}

impl FromStr for LinkKey {
    type Err = ParseKeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.is_ascii() {
            return Err(ParseKeyError::new(s.len()));
        }
        let mut bytes = [0u8; 16];
        for (i, dst) in bytes.iter_mut().enumerate() {
            *dst = u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| ParseKeyError::new(s.len()))?;
        }
        Ok(LinkKey(bytes))
    }
}

impl From<[u8; 16]> for LinkKey {
    fn from(bytes: [u8; 16]) -> Self {
        LinkKey::new(bytes)
    }
}

impl From<LinkKey> for [u8; 16] {
    fn from(key: LinkKey) -> Self {
        key.to_bytes()
    }
}

impl AsRef<[u8]> for LinkKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The link key type reported by `HCI_Link_Key_Notification`.
///
/// The BLAP testbed devices all negotiate Secure Simple Pairing, so the
/// simulation produces [`LinkKeyType::UnauthenticatedP256`] for Just Works
/// and [`LinkKeyType::AuthenticatedP256`] for Numeric Comparison — the same
/// distinction a downgrade defender could use (§VII-B of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LinkKeyType {
    /// Legacy combination key (pre-SSP pairing).
    Combination = 0x00,
    /// Unauthenticated key from P-192 SSP (Just Works).
    UnauthenticatedP192 = 0x04,
    /// Authenticated key from P-192 SSP (Numeric Comparison / Passkey).
    AuthenticatedP192 = 0x05,
    /// Key changed during an existing bond.
    Changed = 0x06,
    /// Unauthenticated key from P-256 SSP (Just Works).
    UnauthenticatedP256 = 0x07,
    /// Authenticated key from P-256 SSP (Numeric Comparison / Passkey).
    AuthenticatedP256 = 0x08,
}

impl LinkKeyType {
    /// True when the key was produced by an association model that defeats
    /// man-in-the-middle attackers (i.e. *not* Just Works).
    pub fn is_authenticated(self) -> bool {
        matches!(
            self,
            LinkKeyType::AuthenticatedP192 | LinkKeyType::AuthenticatedP256
        )
    }

    /// Decodes the HCI key-type octet.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => LinkKeyType::Combination,
            0x04 => LinkKeyType::UnauthenticatedP192,
            0x05 => LinkKeyType::AuthenticatedP192,
            0x06 => LinkKeyType::Changed,
            0x07 => LinkKeyType::UnauthenticatedP256,
            0x08 => LinkKeyType::AuthenticatedP256,
            _ => return None,
        })
    }
}

impl fmt::Display for LinkKeyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKeyType::Combination => "combination",
            LinkKeyType::UnauthenticatedP192 => "unauthenticated (P-192)",
            LinkKeyType::AuthenticatedP192 => "authenticated (P-192)",
            LinkKeyType::Changed => "changed combination",
            LinkKeyType::UnauthenticatedP256 => "unauthenticated (P-256)",
            LinkKeyType::AuthenticatedP256 => "authenticated (P-256)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip_matches_paper_key() {
        // The fake bonding entry of Fig 10 uses this key.
        let key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        assert_eq!(key.to_hex(), "71a70981f30d6af9e20adee8aafe3264");
        assert_eq!(key.to_string(), key.to_hex());
    }

    #[test]
    fn le_round_trip() {
        let key: LinkKey = "c4f16e949f04ee9c0fd6b10233 89c324"
            .replace(' ', "")
            .parse()
            .unwrap();
        assert_eq!(LinkKey::from_le_bytes(key.to_le_bytes()), key);
        // First display byte becomes last wire byte.
        assert_eq!(key.to_le_bytes()[15], 0xc4);
    }

    #[test]
    fn rejects_bad_hex() {
        assert!("short".parse::<LinkKey>().is_err());
        assert!("zz".repeat(16).parse::<LinkKey>().is_err());
        assert!("00".repeat(17).parse::<LinkKey>().is_err());
    }

    #[test]
    fn debug_does_not_print_full_key() {
        let key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("aafe3264"), "Debug leaked the key: {dbg}");
    }

    #[test]
    fn key_type_codec() {
        for t in [
            LinkKeyType::Combination,
            LinkKeyType::UnauthenticatedP192,
            LinkKeyType::AuthenticatedP192,
            LinkKeyType::Changed,
            LinkKeyType::UnauthenticatedP256,
            LinkKeyType::AuthenticatedP256,
        ] {
            assert_eq!(LinkKeyType::from_u8(t as u8), Some(t));
        }
        assert_eq!(LinkKeyType::from_u8(0xff), None);
    }

    #[test]
    fn key_type_authentication_flag() {
        assert!(LinkKeyType::AuthenticatedP256.is_authenticated());
        assert!(!LinkKeyType::UnauthenticatedP256.is_authenticated());
        assert!(!LinkKeyType::Combination.is_authenticated());
    }
}
