//! Persistent bonding storage — the simulated `bt_config.conf`.
//!
//! Android's Bluedroid stack stores bonds in
//! `/data/misc/bluedroid/bt_config.conf`; the paper's Fig 10 shows the fake
//! entry the attacker installs there (BDADDR section, `Name`, `Service`
//! UUID list, `LinkKey`). This module reproduces that format so the attack
//! driver literally writes a Fig 10 record.

use std::collections::BTreeMap;
use std::fmt;

use blap_types::{BdAddr, DeviceName, LinkKey, LinkKeyType, ServiceUuid};

/// One stored bond.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BondEntry {
    /// Remote device name, if known.
    pub name: Option<DeviceName>,
    /// The 128-bit link key.
    pub link_key: LinkKey,
    /// How the key was generated (authenticated or not).
    pub key_type: LinkKeyType,
    /// Profile services the remote supports.
    pub services: Vec<ServiceUuid>,
}

/// The bond database of one host.
///
/// Keys are ordered (`BTreeMap`) so serialization is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyStore {
    entries: BTreeMap<BdAddr, BondEntry>,
}

/// Error from parsing a `bt_config.conf`-style text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseConfigError {}

impl KeyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KeyStore::default()
    }

    /// Looks up the bond for a peer.
    pub fn get(&self, peer: BdAddr) -> Option<&BondEntry> {
        self.entries.get(&peer)
    }

    /// Stores (or replaces) a bond.
    pub fn store(&mut self, peer: BdAddr, entry: BondEntry) {
        self.entries.insert(peer, entry);
    }

    /// Removes a bond (authentication failure path). Returns the removed
    /// entry, if any.
    pub fn remove(&mut self, peer: BdAddr) -> Option<BondEntry> {
        self.entries.remove(&peer)
    }

    /// Number of stored bonds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(peer, bond)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&BdAddr, &BondEntry)> {
        self.entries.iter()
    }

    /// Serializes to the `bt_config.conf` text format of the paper's
    /// Fig 10.
    ///
    /// ```text
    /// [48:90:12:34:56:78]
    /// Name = VELVET
    /// Service = 00001115-0000-1000-8000-00805f9b34fb 00001116-...
    /// LinkKey = 71a70981f30d6af9e20adee8aafe3264
    /// KeyType = 8
    /// ```
    pub fn to_config_text(&self) -> String {
        let mut out = String::new();
        for (addr, entry) in &self.entries {
            out.push_str(&format!("[{addr}]\n"));
            if let Some(name) = &entry.name {
                out.push_str(&format!("Name = {name}\n"));
            }
            if !entry.services.is_empty() {
                let services: Vec<String> = entry.services.iter().map(|s| s.to_string()).collect();
                out.push_str(&format!("Service = {}\n", services.join(" ")));
            }
            out.push_str(&format!("LinkKey = {}\n", entry.link_key.to_hex()));
            out.push_str(&format!("KeyType = {}\n", entry.key_type as u8));
            out.push('\n');
        }
        out
    }

    /// Parses the `bt_config.conf` text format back into a store.
    ///
    /// # Errors
    ///
    /// Returns [`ParseConfigError`] on malformed sections, addresses, keys
    /// or UUIDs. Unknown keys are ignored (real files carry many more).
    pub fn from_config_text(text: &str) -> Result<Self, ParseConfigError> {
        /// Section under construction: address, name, key, key type,
        /// services.
        type PartialEntry = (
            BdAddr,
            Option<DeviceName>,
            Option<LinkKey>,
            LinkKeyType,
            Vec<ServiceUuid>,
        );
        let mut store = KeyStore::new();
        let mut current: Option<PartialEntry> = None;

        let flush = |store: &mut KeyStore,
                     current: &mut Option<PartialEntry>,
                     line: usize|
         -> Result<(), ParseConfigError> {
            if let Some((addr, name, key, key_type, services)) = current.take() {
                let link_key = key.ok_or_else(|| ParseConfigError {
                    line,
                    message: format!("section [{addr}] has no LinkKey"),
                })?;
                store.store(
                    addr,
                    BondEntry {
                        name,
                        link_key,
                        key_type,
                        services,
                    },
                );
            }
            Ok(())
        };

        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                flush(&mut store, &mut current, line_no)?;
                let addr: BdAddr = section.parse().map_err(|_| ParseConfigError {
                    line: line_no,
                    message: format!("invalid section address {section:?}"),
                })?;
                current = Some((
                    addr,
                    None,
                    None,
                    LinkKeyType::UnauthenticatedP256,
                    Vec::new(),
                ));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseConfigError {
                    line: line_no,
                    message: format!("expected `key = value`, got {line:?}"),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(entry) = current.as_mut() else {
                return Err(ParseConfigError {
                    line: line_no,
                    message: "key/value outside of a [section]".to_owned(),
                });
            };
            match key {
                "Name" => entry.1 = Some(DeviceName::new(value)),
                "LinkKey" => {
                    entry.2 = Some(value.parse().map_err(|_| ParseConfigError {
                        line: line_no,
                        message: format!("invalid LinkKey {value:?}"),
                    })?);
                }
                "KeyType" => {
                    let raw: u8 = value.parse().map_err(|_| ParseConfigError {
                        line: line_no,
                        message: format!("invalid KeyType {value:?}"),
                    })?;
                    entry.3 = LinkKeyType::from_u8(raw).ok_or_else(|| ParseConfigError {
                        line: line_no,
                        message: format!("unknown KeyType {raw}"),
                    })?;
                }
                "Service" => {
                    for uuid in value.split_whitespace() {
                        entry.4.push(uuid.parse().map_err(|_| ParseConfigError {
                            line: line_no,
                            message: format!("invalid Service UUID {uuid:?}"),
                        })?);
                    }
                }
                _ => {} // tolerate unknown keys
            }
        }
        flush(&mut store, &mut current, text.lines().count())?;
        Ok(store)
    }
}

impl<'a> IntoIterator for &'a KeyStore {
    type Item = (&'a BdAddr, &'a BondEntry);
    type IntoIter = std::collections::btree_map::Iter<'a, BdAddr, BondEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velvet_addr() -> BdAddr {
        "48:90:12:34:56:78".parse().unwrap()
    }

    fn fig10_entry() -> BondEntry {
        BondEntry {
            name: Some(DeviceName::new("VELVET")),
            link_key: "71a70981f30d6af9e20adee8aafe3264".parse().unwrap(),
            key_type: LinkKeyType::UnauthenticatedP256,
            services: vec![ServiceUuid::PANU, ServiceUuid::NAP],
        }
    }

    #[test]
    fn round_trip_through_config_text() {
        let mut store = KeyStore::new();
        store.store(velvet_addr(), fig10_entry());
        let text = store.to_config_text();
        let parsed = KeyStore::from_config_text(&text).unwrap();
        assert_eq!(parsed, store);
    }

    #[test]
    fn config_text_matches_fig10_shape() {
        let mut store = KeyStore::new();
        store.store(velvet_addr(), fig10_entry());
        let text = store.to_config_text();
        assert!(text.contains("[48:90:12:34:56:78]"));
        assert!(text.contains("Name = VELVET"));
        assert!(text.contains("00001115-0000-1000-8000-00805f9b34fb"));
        assert!(text.contains("00001116-0000-1000-8000-00805f9b34fb"));
        assert!(text.contains("LinkKey = 71a70981f30d6af9e20adee8aafe3264"));
    }

    #[test]
    fn store_get_remove() {
        let mut store = KeyStore::new();
        assert!(store.is_empty());
        store.store(velvet_addr(), fig10_entry());
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(velvet_addr()).unwrap().link_key.to_hex(),
            "71a70981f30d6af9e20adee8aafe3264"
        );
        assert!(store.remove(velvet_addr()).is_some());
        assert!(store.get(velvet_addr()).is_none());
        assert!(store.remove(velvet_addr()).is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(KeyStore::from_config_text("LinkKey = outside-section").is_err());
        assert!(KeyStore::from_config_text("[not-an-address]\nLinkKey = 00\n").is_err());
        assert!(KeyStore::from_config_text("[aa:bb:cc:dd:ee:ff]\nLinkKey = zz\n").is_err());
        assert!(
            KeyStore::from_config_text("[aa:bb:cc:dd:ee:ff]\nName = NoKey\n").is_err(),
            "section without LinkKey must be rejected"
        );
        assert!(KeyStore::from_config_text("[aa:bb:cc:dd:ee:ff]\njunk-line\n").is_err());
    }

    #[test]
    fn parse_tolerates_comments_and_unknown_keys() {
        let text = "# comment\n[aa:bb:cc:dd:ee:ff]\nDevClass = 1234\nLinkKey = 00112233445566778899aabbccddeeff\n";
        let store = KeyStore::from_config_text(text).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn multiple_sections() {
        let mut store = KeyStore::new();
        store.store(velvet_addr(), fig10_entry());
        store.store(
            "00:11:22:33:44:55".parse().unwrap(),
            BondEntry {
                name: None,
                link_key: "000102030405060708090a0b0c0d0e0f".parse().unwrap(),
                key_type: LinkKeyType::AuthenticatedP256,
                services: vec![],
            },
        );
        let parsed = KeyStore::from_config_text(&store.to_config_text()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed, store);
    }
}
