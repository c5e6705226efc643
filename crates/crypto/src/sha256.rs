//! FIPS 180-4 SHA-256.
//!
//! Implemented from the specification; validated in the test module against
//! the published "abc" / empty-string / two-block vectors. Each block's
//! compression runs on the x86 SHA extensions when runtime detection finds
//! them, and in portable scalar code otherwise; the two are tested equal.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

/// The initial hash value, FIPS 180-4 §5.3.3.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use blap_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has already absorbed `blocks` whole blocks, leaving
    /// `state`: how HMAC resumes from its hashed pad blocks.
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: blocks * BLOCK_LEN as u64,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(rest.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk::<BLOCK_LEN>() {
            compress(&mut self.state, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length. The length
        // needs the last 8 bytes of a block, so a buffer holding 56 or more
        // bytes pads out its own block and the length goes in a second.
        let len = self.buffer_len;
        self.buffer[len] = 0x80;
        self.buffer[len + 1..].fill(0);
        if len >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; BLOCK_LEN];
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 compression of `block` into `state`.
///
/// Runs the SHA-NI kernel when the CPU has the SHA extensions, otherwise
/// [`compress_portable`]. Both give the same state; the test module holds
/// them equal on random input.
#[allow(unsafe_code)]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `sha_ni::compress` is safe code whose only requirement is
        // the `sha`, `ssse3` and `sse4.1` target features, and the runtime
        // detection above has just reported all three on this CPU.
        unsafe { sha_ni::compress(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// One SHA-256 compression in plain scalar code, as FIPS 180-4 §6.2.2
/// writes it: the fallback on CPUs without the SHA extensions and the
/// reference the kernel is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, round) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(round);
    }
}

/// The compression on the x86 SHA extensions: `sha256rnds2` runs two
/// rounds, `sha256msg1`/`sha256msg2` extend the message schedule four words
/// at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::{BLOCK_LEN, K};

    /// The four words of a vector, lane 0 first, as a vector.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Four message-schedule words `W[t..t+4]` from the sixteen before them,
    /// held as four vectors of four words each.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        // W[t−7..t−3]: the top word of w2 and the low three of w3.
        let plus_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(plus_w7, w3)
    }

    /// Four rounds on message words `w`, starting at round `4 * i`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = lanes([K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]]);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// One compression of `block` into `state`.
    ///
    /// The instructions keep the working variables packed as ABEF and CDGH,
    /// A in the top lane.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);
        let word = |i: usize| {
            u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        };
        let mut w = [0, 4, 8, 12].map(|i| lanes([word(i), word(i + 1), word(i + 2), word(i + 3)]));
        let (abef_in, cdgh_in) = (abef, cdgh);
        for i in 0..16 {
            if i >= 4 {
                w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            }
            rounds4(&mut abef, &mut cdgh, w[i % 4], i);
        }
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let digest = blap_crypto::sha256::digest(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary, where the length
        // moves to a second block, and over two whole blocks must all hash
        // to distinct digests, and to the digests the byte-at-a-time
        // padding produced: one SHA-256 over all 131 of them is pinned.
        let mut digests = std::collections::HashSet::new();
        let mut all = Sha256::new();
        for len in 0..=130 {
            let data = vec![0xA5u8; len];
            let d = digest(&data);
            assert!(digests.insert(d), "collision at {len}");
            all.update(&d);
        }
        assert_eq!(
            hex(&all.finalize()),
            "3b5732e9fc5890e89286702dcb3e820a81ad81ce6e5f5885294b633ce6e974e0"
        );
    }

    #[test]
    fn compress_matches_portable_on_random_input() {
        #[cfg(target_arch = "x86_64")]
        let kernel = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = false;
        if !kernel {
            eprintln!("no SHA extensions on this CPU: compress runs the portable path only");
        }
        // SplitMix64, seeded: the same 10^4 (state, block) pairs every run.
        let mut seed = 0x5EED_5A25_6000_0001u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let mut block = [0u8; BLOCK_LEN];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let (mut fast, mut portable) = (state, state);
            compress(&mut fast, &block);
            compress_portable(&mut portable, &block);
            assert_eq!(fast, portable, "case {case}: state {state:08x?}");
        }
    }
}
