//! Bluetooth core specification versions.

use std::fmt;

/// Bluetooth core specification version implemented by a device.
///
/// The paper's Fig 7 shows that the confirmation-popup policy for Just Works
/// pairing differs between "v4.2 and lower" and "v5.0 and higher"; the
/// simulated host uses [`BtVersion::generation`] to pick the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BtVersion {
    /// Core spec 2.1 + EDR — first version with Secure Simple Pairing.
    V2_1,
    /// Core spec 3.0.
    V3_0,
    /// Core spec 4.0.
    V4_0,
    /// Core spec 4.1.
    V4_1,
    /// Core spec 4.2.
    V4_2,
    /// Core spec 5.0.
    V5_0,
    /// Core spec 5.1.
    V5_1,
    /// Core spec 5.2.
    V5_2,
    /// Core spec 5.3.
    V5_3,
}

impl BtVersion {
    /// Returns which Fig 7 table generation this version falls into.
    pub fn generation(self) -> SpecGeneration {
        if self <= BtVersion::V4_2 {
            SpecGeneration::V42OrLower
        } else {
            SpecGeneration::V50OrHigher
        }
    }
}

impl fmt::Display for BtVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BtVersion::V2_1 => "2.1+EDR",
            BtVersion::V3_0 => "3.0",
            BtVersion::V4_0 => "4.0",
            BtVersion::V4_1 => "4.1",
            BtVersion::V4_2 => "4.2",
            BtVersion::V5_0 => "5.0",
            BtVersion::V5_1 => "5.1",
            BtVersion::V5_2 => "5.2",
            BtVersion::V5_3 => "5.3",
        };
        f.write_str(s)
    }
}

/// The two popup-policy generations distinguished by Fig 7 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecGeneration {
    /// Version 4.2 or lower: no mandated confirmation popup; most
    /// implementations auto-confirm Just Works when acting as the pairing
    /// initiator.
    V42OrLower,
    /// Version 5.0 or higher: DisplayYesNo devices must show a yes/no
    /// pair-confirmation popup (without the numeric value) even for
    /// Just Works.
    V50OrHigher,
}

impl fmt::Display for SpecGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecGeneration::V42OrLower => f.write_str("v4.2 and lower"),
            SpecGeneration::V50OrHigher => f.write_str("v5.0 and higher"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_split_matches_fig7() {
        assert_eq!(BtVersion::V2_1.generation(), SpecGeneration::V42OrLower);
        assert_eq!(BtVersion::V4_2.generation(), SpecGeneration::V42OrLower);
        assert_eq!(BtVersion::V5_0.generation(), SpecGeneration::V50OrHigher);
        assert_eq!(BtVersion::V5_3.generation(), SpecGeneration::V50OrHigher);
    }

    #[test]
    fn versions_are_ordered() {
        assert!(BtVersion::V2_1 < BtVersion::V4_2);
        assert!(BtVersion::V4_2 < BtVersion::V5_0);
    }
}
