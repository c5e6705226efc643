//! The two HCI observation channels of §IV / §VI-B1.

use blap_sim::Device;
use blap_snoop::hexconv;
use blap_snoop::log::HciTrace;
use blap_types::{BdAddr, LinkKey};

/// Which leak channel an extraction used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtractionChannel {
    /// Android "Bluetooth HCI snoop log", pulled via the bug report.
    HciSnoopLog,
    /// USB protocol analyzer on a dongle transport, searched for the
    /// `0b 04 16` opcode pattern after hex conversion.
    UsbSniffer,
}

impl std::fmt::Display for ExtractionChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractionChannel::HciSnoopLog => f.write_str("HCI dump (snoop log)"),
            ExtractionChannel::UsbSniffer => f.write_str("USB sniff"),
        }
    }
}

/// Extracts the link key for `peer` from a device's snoop log, the way the
/// paper pulls it from an Android bug report: serialize the log, parse the
/// btsnoop container, walk the packets.
///
/// Returns `None` when the device has no dump (unsupported stack / option
/// off) or the key never crossed HCI while logging.
pub fn from_snoop_log(device: &Device, peer: BdAddr) -> Option<LinkKey> {
    let bytes = device.bug_report()?;
    let trace = HciTrace::from_btsnoop_bytes(&bytes).ok()?;
    trace.link_key_for(peer)
}

/// Extracts every link key visible in a device's snoop log.
pub fn all_from_snoop_log(device: &Device) -> Vec<(BdAddr, LinkKey)> {
    device
        .bug_report()
        .and_then(|bytes| HciTrace::from_btsnoop_bytes(&bytes).ok())
        .map(|trace| trace.extract_link_keys())
        .unwrap_or_default()
}

/// Extracts the link key for `peer` from a device's raw USB capture using
/// the paper's §VI-B1 procedure: hex-convert the stream, search for
/// `0b 04 16`, skip the six address bytes, take the sixteen key bytes.
pub fn from_usb_capture(device: &Device, peer: BdAddr) -> Option<LinkKey> {
    let raw = device.usb_capture()?;
    // The paper converts to ASCII hex to eyeball/grep the stream; the
    // conversion is behaviour-preserving, so scan the bytes directly.
    hexconv::scan_link_key_replies(&raw)
        .into_iter()
        .map(|m| {
            (
                BdAddr::from_le_bytes(m.addr_le),
                LinkKey::from_le_bytes(m.key_le),
            )
        })
        .find(|(addr, _)| *addr == peer)
        .map(|(_, key)| key)
}

/// Extracts via whichever channel the device exposes, preferring the snoop
/// log (no hardware needed), falling back to USB.
pub fn auto(device: &Device, peer: BdAddr) -> Option<(ExtractionChannel, LinkKey)> {
    if let Some(key) = from_snoop_log(device, peer) {
        return Some((ExtractionChannel::HciSnoopLog, key));
    }
    from_usb_capture(device, peer).map(|key| (ExtractionChannel::UsbSniffer, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_sim::{profiles, World};
    use blap_types::Duration;

    #[test]
    fn snoop_extraction_after_pairing() {
        let mut world = World::new(11);
        let phone =
            world.add_device(profiles::lg_velvet().victim_phone_with_snoop("11:11:11:11:11:11"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        let _ = kit;
        world
            .device_mut(phone)
            .host
            .pair_with("cc:cc:cc:cc:cc:cc".parse().unwrap());
        world.run_for(Duration::from_secs(5));

        let peer: BdAddr = "cc:cc:cc:cc:cc:cc".parse().unwrap();
        let extracted = from_snoop_log(world.device(phone), peer)
            .expect("pairing writes Link_Key_Notification into the dump");
        let stored = world
            .device(phone)
            .host
            .keystore()
            .get(peer)
            .expect("bond stored")
            .link_key;
        assert_eq!(extracted, stored);
        assert_eq!(
            auto(world.device(phone), peer),
            Some((ExtractionChannel::HciSnoopLog, stored))
        );
    }

    #[test]
    fn no_dump_no_extraction() {
        let mut world = World::new(12);
        let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        let _ = kit;
        world
            .device_mut(phone)
            .host
            .pair_with("cc:cc:cc:cc:cc:cc".parse().unwrap());
        world.run_for(Duration::from_secs(5));
        let peer: BdAddr = "cc:cc:cc:cc:cc:cc".parse().unwrap();
        assert_eq!(from_snoop_log(world.device(phone), peer), None);
        assert_eq!(auto(world.device(phone), peer), None);
    }

    #[test]
    fn usb_extraction_on_dongle_stack() {
        let mut world = World::new(13);
        let pc = world.add_device(profiles::windows_ms_driver().soft_target("00:1b:7d:da:71:0a"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        let _ = kit;
        world
            .device_mut(pc)
            .host
            .pair_with("cc:cc:cc:cc:cc:cc".parse().unwrap());
        world.run_for(Duration::from_secs(5));
        // Reconnect so the host hands the key down via
        // Link_Key_Request_Reply (the 0b 04 16 packet).
        world
            .device_mut(pc)
            .host
            .disconnect("cc:cc:cc:cc:cc:cc".parse().unwrap());
        world.run_for(Duration::from_secs(2));
        world.device_mut(pc).host.connect_profile(
            "cc:cc:cc:cc:cc:cc".parse().unwrap(),
            blap_types::ServiceUuid::HANDS_FREE,
        );
        world.run_for(Duration::from_secs(5));

        let peer: BdAddr = "cc:cc:cc:cc:cc:cc".parse().unwrap();
        let stored = world
            .device(pc)
            .host
            .keystore()
            .get(peer)
            .expect("bond stored")
            .link_key;
        let (channel, extracted) = auto(world.device(pc), peer).expect("USB capture leaks the key");
        assert_eq!(channel, ExtractionChannel::UsbSniffer);
        assert_eq!(extracted, stored);
    }
}
