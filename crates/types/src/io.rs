//! IO capabilities, authentication requirements and SSP association models.

use std::fmt;

/// Input/output capability advertised during the SSP IO capability exchange.
///
/// The page blocking attack's downgrade step is simply setting the attacker's
/// capability to [`IoCapability::NoInputNoOutput`]: the association model
/// selection (Fig 7) then degenerates to Just Works, whose "numeric
/// comparison with automatic confirmation" never challenges the attacker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IoCapability {
    /// Can display a six-digit number but take no input.
    DisplayOnly = 0x00,
    /// Can display a six-digit number and take a yes/no answer.
    DisplayYesNo = 0x01,
    /// Numeric keyboard, no display.
    KeyboardOnly = 0x02,
    /// No input and no output — headsets, car-kits, and spoofing attackers.
    NoInputNoOutput = 0x03,
}

impl IoCapability {
    /// All four capabilities, in HCI numeric order.
    pub const ALL: [IoCapability; 4] = [
        IoCapability::DisplayOnly,
        IoCapability::DisplayYesNo,
        IoCapability::KeyboardOnly,
        IoCapability::NoInputNoOutput,
    ];

    /// Decodes the HCI IO-capability octet.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => IoCapability::DisplayOnly,
            0x01 => IoCapability::DisplayYesNo,
            0x02 => IoCapability::KeyboardOnly,
            0x03 => IoCapability::NoInputNoOutput,
            _ => return None,
        })
    }

    /// True when the device can show a six-digit confirmation value.
    pub fn has_display(self) -> bool {
        matches!(self, IoCapability::DisplayOnly | IoCapability::DisplayYesNo)
    }

    /// True when the device can take a yes/no or numeric input.
    pub fn has_input(self) -> bool {
        matches!(
            self,
            IoCapability::DisplayYesNo | IoCapability::KeyboardOnly
        )
    }
}

impl fmt::Display for IoCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoCapability::DisplayOnly => "DisplayOnly",
            IoCapability::DisplayYesNo => "DisplayYesNo",
            IoCapability::KeyboardOnly => "KeyboardOnly",
            IoCapability::NoInputNoOutput => "NoInputNoOutput",
        };
        f.write_str(s)
    }
}

/// Authentication requirements octet exchanged alongside the IO capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AuthRequirements {
    /// No MITM protection required, no bonding.
    NoMitmNoBonding = 0x00,
    /// MITM protection required, no bonding.
    MitmNoBonding = 0x01,
    /// No MITM protection required, dedicated bonding.
    NoMitmDedicatedBonding = 0x02,
    /// MITM protection required, dedicated bonding.
    MitmDedicatedBonding = 0x03,
    /// No MITM protection required, general bonding.
    NoMitmGeneralBonding = 0x04,
    /// MITM protection required, general bonding.
    MitmGeneralBonding = 0x05,
}

impl AuthRequirements {
    /// Decodes the HCI authentication-requirements octet.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => AuthRequirements::NoMitmNoBonding,
            0x01 => AuthRequirements::MitmNoBonding,
            0x02 => AuthRequirements::NoMitmDedicatedBonding,
            0x03 => AuthRequirements::MitmDedicatedBonding,
            0x04 => AuthRequirements::NoMitmGeneralBonding,
            0x05 => AuthRequirements::MitmGeneralBonding,
            _ => return None,
        })
    }

    /// True when the requirements ask for man-in-the-middle protection.
    pub fn requires_mitm(self) -> bool {
        matches!(
            self,
            AuthRequirements::MitmNoBonding
                | AuthRequirements::MitmDedicatedBonding
                | AuthRequirements::MitmGeneralBonding
        )
    }

    /// True when the requirements ask for bonding (key storage).
    pub fn requires_bonding(self) -> bool {
        !matches!(
            self,
            AuthRequirements::NoMitmNoBonding | AuthRequirements::MitmNoBonding
        )
    }
}

impl fmt::Display for AuthRequirements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}MITM, {} bonding",
            if self.requires_mitm() { "" } else { "no " },
            if self.requires_bonding() {
                "general/dedicated"
            } else {
                "no"
            }
        )
    }
}

/// The SSP association model selected from the two devices' IO capabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssociationModel {
    /// Numeric comparison: both sides display a 6-digit value and confirm.
    NumericComparison,
    /// Just Works: numeric comparison protocol with automatic confirmation —
    /// no MITM resistance. The downgrade target of the paper's attack.
    JustWorks,
    /// Passkey entry: one side displays, the other types the passkey.
    PasskeyEntry,
    /// Out of band: authentication material exchanged over a non-Bluetooth
    /// channel.
    OutOfBand,
}

impl AssociationModel {
    /// Selects the association model from the two sides' IO capabilities,
    /// per the Core Specification mapping table (Vol 3 Part C).
    ///
    /// The table is symmetric in everything the page blocking attack needs:
    /// whenever *either* side is `NoInputNoOutput`, the result is Just
    /// Works — the downgrade the attacker forces by advertising no IO.
    ///
    /// # Examples
    ///
    /// ```
    /// use blap_types::{AssociationModel, IoCapability};
    ///
    /// assert_eq!(
    ///     AssociationModel::select(IoCapability::DisplayYesNo,
    ///                              IoCapability::NoInputNoOutput),
    ///     AssociationModel::JustWorks,
    /// );
    /// assert_eq!(
    ///     AssociationModel::select(IoCapability::DisplayYesNo,
    ///                              IoCapability::DisplayYesNo),
    ///     AssociationModel::NumericComparison,
    /// );
    /// ```
    pub fn select(initiator: IoCapability, responder: IoCapability) -> AssociationModel {
        use IoCapability::*;
        match (initiator, responder) {
            // Any side without input and output: automatic confirmation.
            (NoInputNoOutput, _) | (_, NoInputNoOutput) => AssociationModel::JustWorks,
            // Keyboard-only devices type a passkey the other side displays
            // (or both type the same passkey).
            (KeyboardOnly, KeyboardOnly) => AssociationModel::PasskeyEntry,
            (KeyboardOnly, DisplayOnly | DisplayYesNo) => AssociationModel::PasskeyEntry,
            (DisplayOnly | DisplayYesNo, KeyboardOnly) => AssociationModel::PasskeyEntry,
            // Display-only devices cannot confirm: numeric comparison
            // degenerates to automatic confirmation (Just Works security).
            (DisplayOnly, _) | (_, DisplayOnly) => AssociationModel::JustWorks,
            // Both DisplayYesNo: genuine numeric comparison.
            (DisplayYesNo, DisplayYesNo) => AssociationModel::NumericComparison,
        }
    }

    /// True when the model resists man-in-the-middle attackers.
    ///
    /// Just Works performs the numeric-comparison protocol but auto-confirms,
    /// so it provides no MITM protection — the property the page blocking
    /// attack's downgrade exploits.
    pub fn resists_mitm(self) -> bool {
        !matches!(self, AssociationModel::JustWorks)
    }
}

impl fmt::Display for AssociationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AssociationModel::NumericComparison => "Numeric Comparison",
            AssociationModel::JustWorks => "Just Works",
            AssociationModel::PasskeyEntry => "Passkey Entry",
            AssociationModel::OutOfBand => "Out of Band",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_capability_codec() {
        for cap in IoCapability::ALL {
            assert_eq!(IoCapability::from_u8(cap as u8), Some(cap));
        }
        assert_eq!(IoCapability::from_u8(0x04), None);
    }

    #[test]
    fn io_capability_semantics() {
        assert!(IoCapability::DisplayYesNo.has_display());
        assert!(IoCapability::DisplayYesNo.has_input());
        assert!(IoCapability::DisplayOnly.has_display());
        assert!(!IoCapability::DisplayOnly.has_input());
        assert!(!IoCapability::NoInputNoOutput.has_display());
        assert!(!IoCapability::NoInputNoOutput.has_input());
        assert!(IoCapability::KeyboardOnly.has_input());
        assert!(!IoCapability::KeyboardOnly.has_display());
    }

    #[test]
    fn auth_requirements_codec_and_flags() {
        for v in 0..=5u8 {
            let req = AuthRequirements::from_u8(v).unwrap();
            assert_eq!(req as u8, v);
            assert_eq!(req.requires_mitm(), v % 2 == 1);
        }
        assert_eq!(AuthRequirements::from_u8(6), None);
        assert!(AuthRequirements::MitmGeneralBonding.requires_bonding());
        assert!(!AuthRequirements::NoMitmNoBonding.requires_bonding());
    }

    #[test]
    fn selection_matrix_matches_spec() {
        use AssociationModel as M;
        use IoCapability::*;
        // NoInputNoOutput on either side always yields Just Works — the
        // property the downgrade attack exploits.
        for other in IoCapability::ALL {
            assert_eq!(M::select(NoInputNoOutput, other), M::JustWorks);
            assert_eq!(M::select(other, NoInputNoOutput), M::JustWorks);
        }
        assert_eq!(M::select(DisplayYesNo, DisplayYesNo), M::NumericComparison);
        assert_eq!(M::select(KeyboardOnly, DisplayYesNo), M::PasskeyEntry);
        assert_eq!(M::select(DisplayYesNo, KeyboardOnly), M::PasskeyEntry);
        assert_eq!(M::select(KeyboardOnly, KeyboardOnly), M::PasskeyEntry);
        assert_eq!(M::select(DisplayOnly, DisplayYesNo), M::JustWorks);
        assert_eq!(M::select(DisplayYesNo, DisplayOnly), M::JustWorks);
        assert_eq!(M::select(DisplayOnly, DisplayOnly), M::JustWorks);
        assert_eq!(M::select(DisplayOnly, KeyboardOnly), M::PasskeyEntry);
    }

    #[test]
    fn just_works_has_no_mitm_resistance() {
        assert!(!AssociationModel::JustWorks.resists_mitm());
        assert!(AssociationModel::NumericComparison.resists_mitm());
        assert!(AssociationModel::PasskeyEntry.resists_mitm());
        assert!(AssociationModel::OutOfBand.resists_mitm());
    }
}
