//! Bluetooth device addresses.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseAddrError;

/// A 48-bit Bluetooth device address (`BD_ADDR`).
///
/// The address is split by the baseband into three parts:
///
/// * **LAP** — lower address part, 24 bits, used for paging/inquiry access
///   codes,
/// * **UAP** — upper address part, 8 bits,
/// * **NAP** — non-significant address part, 16 bits.
///
/// Internally the bytes are stored most-significant first, i.e. in the same
/// order as the canonical `AA:BB:CC:DD:EE:FF` textual form. HCI transports
/// carry addresses little-endian; use [`BdAddr::to_le_bytes`] /
/// [`BdAddr::from_le_bytes`] at that boundary.
///
/// # Examples
///
/// ```
/// use blap_types::BdAddr;
///
/// let addr: BdAddr = "00:1b:7d:da:71:0a".parse()?;
/// assert_eq!(addr.nap(), 0x001b);
/// assert_eq!(addr.uap(), 0x7d);
/// assert_eq!(addr.lap(), 0xda710a);
/// # Ok::<(), blap_types::ParseAddrError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BdAddr([u8; 6]);

impl BdAddr {
    /// The all-zero address, used as a sentinel for "no address".
    pub const ZERO: BdAddr = BdAddr([0; 6]);

    /// Creates an address from bytes in canonical (big-endian, display)
    /// order.
    pub const fn new(bytes: [u8; 6]) -> Self {
        BdAddr(bytes)
    }

    /// Creates an address from bytes in HCI wire (little-endian) order.
    pub const fn from_le_bytes(bytes: [u8; 6]) -> Self {
        BdAddr([bytes[5], bytes[4], bytes[3], bytes[2], bytes[1], bytes[0]])
    }

    /// Returns the bytes in canonical (display) order.
    pub const fn to_bytes(self) -> [u8; 6] {
        self.0
    }

    /// Returns the bytes in HCI wire (little-endian) order.
    pub const fn to_le_bytes(self) -> [u8; 6] {
        let b = self.0;
        [b[5], b[4], b[3], b[2], b[1], b[0]]
    }

    /// Non-significant address part (most significant 16 bits).
    pub fn nap(self) -> u16 {
        u16::from_be_bytes([self.0[0], self.0[1]])
    }

    /// Upper address part (8 bits).
    pub fn uap(self) -> u8 {
        self.0[2]
    }

    /// Lower address part (least significant 24 bits) — the part a paging
    /// device encodes into the device access code, and therefore the part an
    /// address-spoofing attacker must clone for the victim's pages to reach
    /// it.
    pub fn lap(self) -> u32 {
        u32::from_be_bytes([0, self.0[3], self.0[4], self.0[5]])
    }

    /// Returns `true` for the all-zero sentinel address.
    pub fn is_zero(self) -> bool {
        self.0 == [0; 6]
    }
}

impl fmt::Display for BdAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for BdAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BdAddr({self})")
    }
}

impl FromStr for BdAddr {
    type Err = ParseAddrError;

    /// Parses six `:`-separated octets.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let mut bytes = [0u8; 6];
        for dst in &mut bytes {
            *dst = parts
                .next()
                .and_then(octet)
                .ok_or_else(|| ParseAddrError::new(s))?;
        }
        if parts.next().is_some() {
            return Err(ParseAddrError::new(s));
        }
        Ok(BdAddr(bytes))
    }
}

/// One address octet: one or two ASCII hex digits, either case.
fn octet(part: &str) -> Option<u8> {
    if part.is_empty() || part.len() > 2 {
        return None;
    }
    part.chars()
        .try_fold(0u8, |acc, c| Some(acc << 4 | c.to_digit(16)? as u8))
}

impl From<[u8; 6]> for BdAddr {
    fn from(bytes: [u8; 6]) -> Self {
        BdAddr::new(bytes)
    }
}

impl From<BdAddr> for [u8; 6] {
    fn from(addr: BdAddr) -> Self {
        addr.to_bytes()
    }
}

impl AsRef<[u8]> for BdAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let addr: BdAddr = "00:1B:7D:DA:71:0A".parse().unwrap();
        assert_eq!(addr.to_string(), "00:1b:7d:da:71:0a");
    }

    #[test]
    fn address_parts_match_paper_example() {
        // Fig 11a of the paper decodes BD_ADDR 00:1b:7d:da:71:0a into
        // LAP 0xda710a, UAP 0x7d, NAP 0x001b.
        let addr: BdAddr = "00:1b:7d:da:71:0a".parse().unwrap();
        assert_eq!(addr.lap(), 0x00da710a);
        assert_eq!(addr.uap(), 0x7d);
        assert_eq!(addr.nap(), 0x001b);
    }

    #[test]
    fn le_byte_order_is_reversed() {
        let addr = BdAddr::new([0x00, 0x1b, 0x7d, 0xda, 0x71, 0x0a]);
        assert_eq!(addr.to_le_bytes(), [0x0a, 0x71, 0xda, 0x7d, 0x1b, 0x00]);
        assert_eq!(BdAddr::from_le_bytes(addr.to_le_bytes()), addr);
    }

    #[test]
    fn rejects_malformed_addresses() {
        assert!("not-an-address".parse::<BdAddr>().is_err());
        assert!("00:1b:7d:da:71".parse::<BdAddr>().is_err());
        assert!("00:1b:7d:da:71:0a:ff".parse::<BdAddr>().is_err());
        assert!("zz:1b:7d:da:71:0a".parse::<BdAddr>().is_err());
        // `u8::from_str_radix` alone takes a sign and extra leading zeros.
        assert!("+a:+b:+c:+d:+e:+f".parse::<BdAddr>().is_err());
        assert!("000:1b:7d:da:71:0a".parse::<BdAddr>().is_err());
        assert!("00::7d:da:71:0a".parse::<BdAddr>().is_err());
        assert!("0:1:2:3:4:5".parse::<BdAddr>().is_ok());
    }

    #[test]
    fn zero_sentinel() {
        assert!(BdAddr::ZERO.is_zero());
        assert!(!"00:00:00:00:00:01".parse::<BdAddr>().unwrap().is_zero());
    }
}
