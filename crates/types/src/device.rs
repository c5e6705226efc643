//! Device names, piconet roles and service UUIDs.

use std::fmt;
use std::str::FromStr;

/// A human-readable Bluetooth device name (up to 248 UTF-8 bytes).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DeviceName(String);

impl DeviceName {
    /// Creates a device name, truncating to the 248-byte limit the spec
    /// imposes on the remote-name field.
    pub fn new(name: impl Into<String>) -> Self {
        let mut name = name.into();
        if name.len() > 248 {
            // Truncate on a char boundary at or below 248 bytes.
            let mut cut = 248;
            while !name.is_char_boundary(cut) {
                cut -= 1;
            }
            name.truncate(cut);
        }
        DeviceName(name)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DeviceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for DeviceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceName({:?})", self.0)
    }
}

impl From<&str> for DeviceName {
    fn from(s: &str) -> Self {
        DeviceName::new(s)
    }
}

impl From<String> for DeviceName {
    fn from(s: String) -> Self {
        DeviceName::new(s)
    }
}

impl AsRef<str> for DeviceName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Role of a device within a single procedure.
///
/// The paper's central observation (§V) is that the Bluetooth specification
/// never checks that the *connection* initiator and the *pairing* initiator
/// are the same device — the page blocking attack has the attacker take the
/// connection-initiator role while the victim takes the pairing-initiator
/// role.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// The device that started the procedure (sent the page / the
    /// authentication request).
    Initiator,
    /// The device that answered.
    Responder,
}

impl Role {
    /// The opposite role.
    pub fn peer(self) -> Role {
        match self {
            Role::Initiator => Role::Responder,
            Role::Responder => Role::Initiator,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Initiator => f.write_str("initiator"),
            Role::Responder => f.write_str("responder"),
        }
    }
}

/// A 128-bit service UUID as stored in bonding records and SDP.
///
/// Short 16-bit assigned UUIDs (e.g. PANU `0x1115`, NAP `0x1116` — the
/// tethering profile the paper uses to validate extracted link keys) expand
/// onto the Bluetooth base UUID `0000xxxx-0000-1000-8000-00805f9b34fb`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceUuid(u128);

impl ServiceUuid {
    /// Personal Area Network user role (`0x1115`) — one of the two UUIDs in
    /// the paper's Fig 10 fake bonding record.
    pub const PANU: ServiceUuid = ServiceUuid::from_short(0x1115);
    /// Network access point role (`0x1116`) — the other Fig 10 UUID.
    pub const NAP: ServiceUuid = ServiceUuid::from_short(0x1116);
    /// Hands-Free profile (`0x111E`).
    pub const HANDS_FREE: ServiceUuid = ServiceUuid::from_short(0x111E);
    /// Phone Book Access server (`0x112F`) — the sensitive-data profile the
    /// paper's attacker ultimately targets.
    pub const PBAP_PSE: ServiceUuid = ServiceUuid::from_short(0x112F);
    /// Message Access server (`0x1132`).
    pub const MAP_MAS: ServiceUuid = ServiceUuid::from_short(0x1132);
    /// Service Discovery server (`0x1000`).
    pub const SDP_SERVER: ServiceUuid = ServiceUuid::from_short(0x1000);

    const BASE: u128 = 0x0000_0000_0000_1000_8000_0080_5f9b_34fb;

    /// Expands a 16-bit assigned number onto the Bluetooth base UUID.
    pub const fn from_short(short: u16) -> Self {
        ServiceUuid(Self::BASE | ((short as u128) << 96))
    }

    /// Creates a UUID from its raw 128-bit value.
    pub const fn from_u128(raw: u128) -> Self {
        ServiceUuid(raw)
    }

    /// The raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// The 16-bit assigned number when this UUID lies on the base UUID.
    pub fn short(self) -> Option<u16> {
        if self.0 & !(0xFFFF_u128 << 96) == Self::BASE && (self.0 >> 112) == 0 {
            Some(((self.0 >> 96) & 0xFFFF) as u16)
        } else {
            None
        }
    }
}

impl fmt::Display for ServiceUuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (v >> 96) as u32,
            (v >> 80) as u16,
            (v >> 64) as u16,
            (v >> 48) as u16,
            v & 0xFFFF_FFFF_FFFF
        )
    }
}

impl fmt::Debug for ServiceUuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServiceUuid({self})")
    }
}

impl FromStr for ServiceUuid {
    type Err = crate::error::TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '-').collect();
        if hex.len() != 32 {
            return Err(crate::error::TypeError::new(format!(
                "invalid UUID length in {s:?}"
            )));
        }
        let raw = u128::from_str_radix(&hex, 16)
            .map_err(|_| crate::error::TypeError::new(format!("invalid UUID hex in {s:?}")))?;
        Ok(ServiceUuid(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pan_uuids_match_fig10() {
        // Fig 10 lists these exact expanded UUIDs for the PAN profile.
        assert_eq!(
            ServiceUuid::PANU.to_string(),
            "00001115-0000-1000-8000-00805f9b34fb"
        );
        assert_eq!(
            ServiceUuid::NAP.to_string(),
            "00001116-0000-1000-8000-00805f9b34fb"
        );
    }

    #[test]
    fn short_uuid_round_trip() {
        assert_eq!(ServiceUuid::PANU.short(), Some(0x1115));
        assert_eq!(ServiceUuid::from_short(0x112F).short(), Some(0x112F));
        let custom = ServiceUuid::from_u128(0xdeadbeef_0000_1000_8000_00805f9b34fb);
        assert_eq!(custom.short(), None);
    }

    #[test]
    fn uuid_parses_from_string() {
        let parsed: ServiceUuid = "00001115-0000-1000-8000-00805f9b34fb".parse().unwrap();
        assert_eq!(parsed, ServiceUuid::PANU);
        assert!("bogus".parse::<ServiceUuid>().is_err());
    }

    #[test]
    fn device_name_truncates_to_248_bytes() {
        let long = "x".repeat(300);
        assert_eq!(DeviceName::new(long).as_str().len(), 248);
        // Multi-byte chars are not split.
        let multi = "é".repeat(200); // 400 bytes
        assert!(DeviceName::new(multi).as_str().len() <= 248);
    }

    #[test]
    fn role_peer_flips() {
        assert_eq!(Role::Initiator.peer(), Role::Responder);
        assert_eq!(Role::Responder.peer(), Role::Initiator);
    }
}
