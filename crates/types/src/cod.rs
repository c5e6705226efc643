//! Class-of-Device words.

use std::fmt;

/// A 24-bit Class of Device / Service (CoD) word.
///
/// The CoD is broadcast in inquiry responses and tells remote UIs what icon
/// to draw and what services to expect. The paper's attacker clones the
/// victim accessory's CoD (Fig 8 changes a phone CoD `0x5A020C` to the
/// hands-free CoD `0x3C0404`) so the spoofed device *looks* identical in the
/// victim's pairing list.
///
/// Layout (Assigned Numbers):
/// * bits 23..13 — major service classes (bitmask),
/// * bits 12..8  — major device class,
/// * bits 7..2   — minor device class,
/// * bits 1..0   — format type (always `0b00`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClassOfDevice(u32);

impl ClassOfDevice {
    /// The smartphone CoD used by the paper's Nexus 5x before modification.
    pub const SMARTPHONE: ClassOfDevice = ClassOfDevice(0x5A020C);
    /// The hands-free/car-kit CoD the paper's attacker switches to (Fig 8).
    pub const HANDS_FREE: ClassOfDevice = ClassOfDevice(0x3C0404);
    /// A typical headset CoD.
    pub const HEADSET: ClassOfDevice = ClassOfDevice(0x240404);
    /// A desktop computer CoD.
    pub const COMPUTER: ClassOfDevice = ClassOfDevice(0x104104);

    /// Creates a CoD from a raw 24-bit word.
    ///
    /// The upper byte of the `u32` is masked off, matching how HCI carries
    /// the value in three octets.
    pub const fn new(raw: u32) -> Self {
        ClassOfDevice(raw & 0x00FF_FFFF)
    }

    /// The raw 24-bit word.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The three wire octets, little-endian as carried by HCI events.
    pub const fn to_le_bytes(self) -> [u8; 3] {
        [
            (self.0 & 0xff) as u8,
            ((self.0 >> 8) & 0xff) as u8,
            ((self.0 >> 16) & 0xff) as u8,
        ]
    }

    /// Rebuilds a CoD from the HCI wire octets.
    pub const fn from_le_bytes(b: [u8; 3]) -> Self {
        ClassOfDevice(b[0] as u32 | (b[1] as u32) << 8 | (b[2] as u32) << 16)
    }

    /// Major device class field.
    pub fn major_device_class(self) -> MajorDeviceClass {
        MajorDeviceClass::from_bits(((self.0 >> 8) & 0x1f) as u8)
    }

    /// Minor device class field (6 bits, interpretation depends on the major
    /// class).
    pub fn minor_device_class(self) -> u8 {
        ((self.0 >> 2) & 0x3f) as u8
    }

    /// True when the given major service class bit (0-10, bit 13 upward) is
    /// set.
    pub fn has_service_class(self, class: ServiceClass) -> bool {
        self.0 & class.bit() != 0
    }
}

impl fmt::Display for ClassOfDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:06X} ({})", self.0, self.major_device_class())
    }
}

impl fmt::Debug for ClassOfDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassOfDevice({self})")
    }
}

impl From<u32> for ClassOfDevice {
    fn from(raw: u32) -> Self {
        ClassOfDevice::new(raw)
    }
}

/// Major device class values (bits 12..8 of the CoD).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MajorDeviceClass {
    /// Miscellaneous.
    Miscellaneous,
    /// Computer (desktop, laptop, ...).
    Computer,
    /// Phone (cellular, smartphone, ...).
    Phone,
    /// LAN / network access point.
    Lan,
    /// Audio/video (headset, hands-free, car audio, ...).
    AudioVideo,
    /// Peripheral (keyboard, mouse, ...).
    Peripheral,
    /// Imaging (printer, camera, ...).
    Imaging,
    /// Wearable.
    Wearable,
    /// Toy.
    Toy,
    /// Health device.
    Health,
    /// Uncategorized or reserved value.
    Uncategorized(u8),
}

impl MajorDeviceClass {
    /// Decodes the 5-bit major device class field.
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            0x00 => MajorDeviceClass::Miscellaneous,
            0x01 => MajorDeviceClass::Computer,
            0x02 => MajorDeviceClass::Phone,
            0x03 => MajorDeviceClass::Lan,
            0x04 => MajorDeviceClass::AudioVideo,
            0x05 => MajorDeviceClass::Peripheral,
            0x06 => MajorDeviceClass::Imaging,
            0x07 => MajorDeviceClass::Wearable,
            0x08 => MajorDeviceClass::Toy,
            0x09 => MajorDeviceClass::Health,
            other => MajorDeviceClass::Uncategorized(other),
        }
    }
}

impl fmt::Display for MajorDeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MajorDeviceClass::Miscellaneous => f.write_str("miscellaneous"),
            MajorDeviceClass::Computer => f.write_str("computer"),
            MajorDeviceClass::Phone => f.write_str("phone"),
            MajorDeviceClass::Lan => f.write_str("LAN access point"),
            MajorDeviceClass::AudioVideo => f.write_str("audio/video"),
            MajorDeviceClass::Peripheral => f.write_str("peripheral"),
            MajorDeviceClass::Imaging => f.write_str("imaging"),
            MajorDeviceClass::Wearable => f.write_str("wearable"),
            MajorDeviceClass::Toy => f.write_str("toy"),
            MajorDeviceClass::Health => f.write_str("health"),
            MajorDeviceClass::Uncategorized(v) => write!(f, "uncategorized(0x{v:02x})"),
        }
    }
}

/// Major service class bits (bits 23..13 of the CoD).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// Limited discoverable mode flag.
    LimitedDiscoverable,
    /// Positioning.
    Positioning,
    /// Networking.
    Networking,
    /// Rendering.
    Rendering,
    /// Capturing.
    Capturing,
    /// Object transfer.
    ObjectTransfer,
    /// Audio.
    Audio,
    /// Telephony.
    Telephony,
    /// Information.
    Information,
}

impl ServiceClass {
    /// The CoD bit for this service class.
    pub fn bit(self) -> u32 {
        match self {
            ServiceClass::LimitedDiscoverable => 1 << 13,
            ServiceClass::Positioning => 1 << 16,
            ServiceClass::Networking => 1 << 17,
            ServiceClass::Rendering => 1 << 18,
            ServiceClass::Capturing => 1 << 19,
            ServiceClass::ObjectTransfer => 1 << 20,
            ServiceClass::Audio => 1 << 21,
            ServiceClass::Telephony => 1 << 22,
            ServiceClass::Information => 1 << 23,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cod_values_decode() {
        // 0x5A020C: smartphone with networking/capturing/object-transfer/
        // telephony service bits.
        let phone = ClassOfDevice::SMARTPHONE;
        assert_eq!(phone.major_device_class(), MajorDeviceClass::Phone);
        assert!(phone.has_service_class(ServiceClass::Telephony));
        assert!(phone.has_service_class(ServiceClass::Networking));

        // 0x3C0404: audio/video hands-free with rendering/audio bits.
        let hf = ClassOfDevice::HANDS_FREE;
        assert_eq!(hf.major_device_class(), MajorDeviceClass::AudioVideo);
        assert!(hf.has_service_class(ServiceClass::Audio));
        assert!(hf.has_service_class(ServiceClass::Rendering));
    }

    #[test]
    fn wire_round_trip() {
        let cod = ClassOfDevice::new(0x5A020C);
        assert_eq!(cod.to_le_bytes(), [0x0c, 0x02, 0x5a]);
        assert_eq!(ClassOfDevice::from_le_bytes(cod.to_le_bytes()), cod);
    }

    #[test]
    fn raw_is_masked_to_24_bits() {
        assert_eq!(ClassOfDevice::new(0xFF5A020C).raw(), 0x5A020C);
    }

    #[test]
    fn minor_class_extraction() {
        // 0x...04 -> minor class bits 0b000001.
        assert_eq!(ClassOfDevice::HANDS_FREE.minor_device_class(), 0x01);
    }
}
