//! HMAC-SHA-256 (RFC 2104), the keyed MAC every modern Bluetooth pairing
//! function is built from.

use crate::sha256::{compress, Sha256, BLOCK_LEN, DIGEST_LEN, H0};

/// An HMAC-SHA-256 key with its pads already hashed: the SHA-256 states
/// after the inner (`key ⊕ 0x36…`) and outer (`key ⊕ 0x5c…`) pad blocks.
///
/// Those two compressions depend on the key alone, so a key that MACs
/// several messages (the DHKey behind an SSP transcript's `f2` and both
/// `f3` checks) pays for them once; each [`HmacKey::mac`] then hashes only
/// the message and the inner digest.
///
/// # Examples
///
/// ```
/// use blap_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"Jefe");
/// let msg = b"what do ya want for nothing?";
/// assert_eq!(key.mac(msg), hmac_sha256(b"Jefe", msg));
/// ```
#[derive(Clone, Copy)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Hashes the two pad blocks of `key`.
    ///
    /// Keys longer than the 64-byte block are pre-hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&crate::sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let pad_state = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &block_key.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: pad_state(0x36),
            outer: pad_state(0x5c),
        }
    }

    /// `HMAC-SHA-256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The pad states are as secret as the key.
        f.write_str("HmacKey(..)")
    }
}

/// Computes `HMAC-SHA-256(key, message)`.
///
/// Keys longer than the 64-byte block are pre-hashed, per RFC 2104.
///
/// # Examples
///
/// ```
/// let mac = blap_crypto::hmac::hmac_sha256(&[0x0b; 20], b"Hi There");
/// assert_eq!(mac[0], 0xb0);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Vectors from RFC 4231.

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(
            hmac_sha256(b"key-a", b"message"),
            hmac_sha256(b"key-b", b"message")
        );
    }
}
