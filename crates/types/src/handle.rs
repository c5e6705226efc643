//! Connection handles and logical transport addresses.

use std::fmt;

/// A 12-bit HCI connection handle identifying an ACL link between a host and
/// its controller.
///
/// Handles appear throughout the paper's HCI dump figures (e.g. `0x0006` in
/// Fig 12a, `0x0003` in Fig 12b).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionHandle(u16);

impl ConnectionHandle {
    /// Maximum valid handle value (12 bits).
    pub const MAX: u16 = 0x0EFF;

    /// Creates a handle, masking to the valid 12-bit range.
    pub const fn new(raw: u16) -> Self {
        ConnectionHandle(raw & 0x0FFF)
    }

    /// The raw handle value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ConnectionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

impl fmt::Debug for ConnectionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConnectionHandle({self})")
    }
}

impl From<u16> for ConnectionHandle {
    fn from(raw: u16) -> Self {
        ConnectionHandle::new(raw)
    }
}

/// A 3-bit logical transport address assigned by the connection initiator
/// (the piconet central) to the responder during connection establishment.
///
/// As §V-A of the paper stresses, after the baseband connection is up the
/// BDADDR is no longer used on the wire — frames are addressed by LT_ADDR.
/// That is why an address-spoofing attacker only has to win the *initial*
/// page race, and why page blocking (becoming the initiator that assigns the
/// LT_ADDR) removes the race entirely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LtAddr(u8);

impl LtAddr {
    /// Creates a logical transport address.
    ///
    /// # Panics
    ///
    /// Panics when `raw` is zero (reserved for broadcast) or above 7.
    pub fn new(raw: u8) -> Self {
        assert!((1..=7).contains(&raw), "LT_ADDR must be 1..=7, got {raw}");
        LtAddr(raw)
    }

    /// Fallible constructor for wire decoding.
    pub fn try_new(raw: u8) -> Option<Self> {
        (1..=7).contains(&raw).then_some(LtAddr(raw))
    }

    /// The raw 3-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for LtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LT_ADDR {}", self.0)
    }
}

impl fmt::Debug for LtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LtAddr({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_masks_to_12_bits() {
        assert_eq!(ConnectionHandle::new(0xF006).raw(), 0x0006);
        assert_eq!(ConnectionHandle::new(0x0006).to_string(), "0x0006");
    }

    #[test]
    fn lt_addr_accepts_1_through_7() {
        for v in 1..=7 {
            assert_eq!(LtAddr::new(v).raw(), v);
            assert_eq!(LtAddr::try_new(v), Some(LtAddr::new(v)));
        }
        assert_eq!(LtAddr::try_new(0), None);
        assert_eq!(LtAddr::try_new(8), None);
    }

    #[test]
    #[should_panic(expected = "LT_ADDR")]
    fn lt_addr_zero_panics() {
        let _ = LtAddr::new(0);
    }
}
