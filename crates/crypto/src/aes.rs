//! AES-128 (FIPS 197), implemented from the specification.
//!
//! Bluetooth Secure Connections encrypts ACL traffic with AES-CCM; this
//! module provides the block cipher for [`crate::ccm`]. The S-box is
//! computed (GF(2⁸) inversion plus the affine map) rather than pasted, and
//! the implementation is pinned by the FIPS 197 Appendix C vector.
//!
//! The round path is table-driven: the classic 32-bit T-tables —
//! SubBytes, ShiftRows and MixColumns fused into four word lookups per
//! column — built once from the same bit-serial GF(2⁸) multiply the tables
//! are verified against. Only encryption is implemented: CCM runs the
//! block cipher forward in both directions.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut out = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            out ^= a;
        }
        let high = a & 0x80 != 0;
        a <<= 1;
        if high {
            a ^= 0x1B; // x^8 + x^4 + x^3 + x + 1
        }
        b >>= 1;
    }
    out
}

fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(254) in GF(2^8) by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp != 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// Precomputed cipher tables: the S-box, the four 32-bit T-tables
/// (SubBytes, ShiftRows and MixColumns fused into one lookup per state
/// byte), and the GF(2⁸) constant multiples MixColumns uses.
struct AesTables {
    sbox: [u8; 256],
    /// `t0[x]` is the MixColumns column `(2, 1, 1, 3) · sbox[x]` packed as
    /// a little-endian word (byte 0 = row 0); `t1`–`t3` are its rotations
    /// `(3, 2, 1, 1)`, `(1, 3, 2, 1)`, `(1, 1, 3, 2)` for rows 1–3 of the
    /// shifted state.
    t0: [u32; 256],
    t1: [u32; 256],
    t2: [u32; 256],
    t3: [u32; 256],
    mul2: [u8; 256],
    mul3: [u8; 256],
}

fn tables() -> &'static AesTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<AesTables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new(AesTables {
            sbox: [0; 256],
            t0: [0; 256],
            t1: [0; 256],
            t2: [0; 256],
            t3: [0; 256],
            mul2: [0; 256],
            mul3: [0; 256],
        });
        #[allow(clippy::needless_range_loop)]
        for x in 0..256usize {
            let b = gf_inv(x as u8);
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^
            // rotl(b,4) ^ 0x63.
            let s = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
            t.sbox[x] = s;
            t.mul2[x] = gf_mul(x as u8, 2);
            t.mul3[x] = gf_mul(x as u8, 3);
        }
        for x in 0..256usize {
            let s = t.sbox[x];
            let (s2, s3) = (t.mul2[s as usize], t.mul3[s as usize]);
            t.t0[x] = u32::from_le_bytes([s2, s, s, s3]);
            t.t1[x] = u32::from_le_bytes([s3, s2, s, s]);
            t.t2[x] = u32::from_le_bytes([s, s3, s2, s]);
            t.t3[x] = u32::from_le_bytes([s, s, s3, s2]);
        }
        t
    })
}

/// An expanded AES-128 key (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128(..)")
    }
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let sbox = &tables().sbox;
        let mut words = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[i].copy_from_slice(chunk);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = sbox[*byte as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for round in 0..11 {
            for w in 0..4 {
                round_keys[round][4 * w..4 * w + 4].copy_from_slice(&words[4 * round + w]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let t = tables();
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        // Rounds 1–9: SubBytes, ShiftRows and MixColumns collapse to four
        // T-table lookups per column — `t{r}` is indexed by the byte
        // ShiftRows would move into (row r, column c), i.e. row r of
        // column c + r.
        for round in 1..10 {
            let rk = &self.round_keys[round];
            let mut next = [0u8; 16];
            for c in 0..4 {
                let col = t.t0[state[4 * c] as usize]
                    ^ t.t1[state[4 * ((c + 1) % 4) + 1] as usize]
                    ^ t.t2[state[4 * ((c + 2) % 4) + 2] as usize]
                    ^ t.t3[state[4 * ((c + 3) % 4) + 3] as usize]
                    ^ u32::from_le_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]]);
                next[4 * c..4 * c + 4].copy_from_slice(&col.to_le_bytes());
            }
            state = next;
        }
        // Final round has no MixColumns: plain S-box plus the shift.
        let rk = &self.round_keys[10];
        let mut out = [0u8; 16];
        for c in 0..4 {
            for r in 0..4 {
                out[4 * c + r] = t.sbox[state[4 * ((c + r) % 4) + r] as usize] ^ rk[4 * c + r];
            }
        }
        out
    }

    /// Encrypts `N` independent 16-byte blocks with the round passes
    /// interleaved: every T-table round runs across all `N` states before
    /// the next round starts, so one block's table-load latency overlaps
    /// the XOR arithmetic of the others instead of the whole round chain
    /// serializing behind a single state register (the reason
    /// [`Self::encrypt_block`] is latency-bound rather than
    /// throughput-bound). Plain-loop style on purpose — like
    /// [`crate::batch`], the per-block inner loops are independent and the
    /// compiler schedules them freely; the scalar path stays as the pinned
    /// reference.
    ///
    /// Measured on the committed-baseline host the raw kernel plateaus at
    /// `N = 8` ([`PARALLEL_BLOCKS`], ~38 ns/block vs ~54 scalar) — the
    /// interleave is µop-throughput-bound, not load-bound, so widths 2–16
    /// sit within noise of each other (DESIGN §6 has the sweep). The
    /// caller is [`crate::ccm::Ccm::open_many_into`], whose CTR blocks and
    /// CBC-MAC chains are independent across frames.
    pub fn encrypt_blocks<const N: usize>(&self, blocks: &[[u8; 16]; N]) -> [[u8; 16]; N] {
        let t = tables();
        let rk0 = round_key_words(&self.round_keys[0]);
        // State as four little-endian column words per block: the T-table
        // rounds read bytes out of words and write whole words, so keeping
        // words end to end avoids a pack/unpack per round per block.
        let mut state = [[0u32; 4]; N];
        for b in 0..N {
            for c in 0..4 {
                state[b][c] = u32::from_le_bytes([
                    blocks[b][4 * c],
                    blocks[b][4 * c + 1],
                    blocks[b][4 * c + 2],
                    blocks[b][4 * c + 3],
                ]) ^ rk0[c];
            }
        }
        for round in 1..10 {
            let rk = round_key_words(&self.round_keys[round]);
            for st in state.iter_mut() {
                // Per-block temporaries instead of a second `[[u32; 4]; N]`
                // buffer: at N = 8 the double buffer is 2 × 128 bytes of
                // live state and LLVM spills the copy every round; four
                // locals keep the rotation in registers.
                let s = *st;
                let mut n = [0u32; 4];
                for c in 0..4 {
                    n[c] = t.t0[(s[c] & 0xff) as usize]
                        ^ t.t1[((s[(c + 1) % 4] >> 8) & 0xff) as usize]
                        ^ t.t2[((s[(c + 2) % 4] >> 16) & 0xff) as usize]
                        ^ t.t3[(s[(c + 3) % 4] >> 24) as usize]
                        ^ rk[c];
                }
                *st = n;
            }
        }
        let rk = &self.round_keys[10];
        let mut out = [[0u8; 16]; N];
        for b in 0..N {
            for c in 0..4 {
                for r in 0..4 {
                    out[b][4 * c + r] = t.sbox
                        [((state[b][(c + r) % 4] >> (8 * r)) & 0xff) as usize]
                        ^ rk[4 * c + r];
                }
            }
        }
        out
    }
}

/// Interleave width the batched CCM open runs at. The raw kernel's
/// per-block cost is flat from N = 2 up (µop-throughput-bound; see DESIGN
/// §6 *Batched kernels* for the sweep), so the width is chosen to divide
/// CCM batches evenly.
pub const PARALLEL_BLOCKS: usize = 8;

// State layout: state[4*c + r] is row r, column c (column-major, matching
// the FIPS byte order of the input block).

#[inline(always)]
fn round_key_words(rk: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_le_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]])
    })
}

fn add_round_key(state: &mut [u8; 16], key: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= key[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        // Canonical spot checks.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        // A bijection: every byte value appears exactly once.
        let mut seen = [false; 256];
        for &s in &t.sbox {
            assert!(!seen[s as usize], "{s:#x} appears twice");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn mul_tables_match_bit_serial_gf_mul() {
        let t = tables();
        for x in 0..256usize {
            for (table, k) in [(&t.mul2, 2), (&t.mul3, 3)] {
                assert_eq!(table[x], gf_mul(x as u8, k), "x={x:#x} k={k}");
            }
        }
    }

    #[test]
    fn t_table_rounds_match_separate_layers() {
        // Reference middle round built from the textbook layers the
        // T-tables fuse; the FIPS vector alone pins one trajectory, this
        // pins the fusion on arbitrary states.
        fn reference_round(state: &[u8; 16], rk: &[u8; 16], t: &AesTables) -> [u8; 16] {
            let mut s = *state;
            for byte in s.iter_mut() {
                *byte = t.sbox[*byte as usize];
            }
            let copy = s;
            for r in 1..4 {
                for c in 0..4 {
                    s[4 * c + r] = copy[4 * ((c + r) % 4) + r];
                }
            }
            let mut out = [0u8; 16];
            for c in 0..4 {
                for r in 0..4 {
                    let coeff = [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]][r];
                    out[4 * c + r] =
                        (0..4).fold(rk[4 * c + r], |acc, i| acc ^ gf_mul(s[4 * c + i], coeff[i]));
                }
            }
            out
        }
        let t = tables();
        let rk: [u8; 16] = core::array::from_fn(|i| (i * 19 + 5) as u8);
        for seed in 0..8u8 {
            let state: [u8; 16] =
                core::array::from_fn(|i| seed.wrapping_mul(41).wrapping_add((i * 7) as u8));
            let mut fused = [0u8; 16];
            for c in 0..4 {
                let col = t.t0[state[4 * c] as usize]
                    ^ t.t1[state[4 * ((c + 1) % 4) + 1] as usize]
                    ^ t.t2[state[4 * ((c + 2) % 4) + 2] as usize]
                    ^ t.t3[state[4 * ((c + 3) % 4) + 3] as usize]
                    ^ u32::from_le_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]]);
                fused[4 * c..4 * c + 4].copy_from_slice(&col.to_le_bytes());
            }
            assert_eq!(fused, reference_round(&state, &rk, t), "seed {seed}");
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes128::new(&key);
        let ciphertext = aes.encrypt_block(&plaintext);
        assert_eq!(hex(&ciphertext), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn gf_arithmetic() {
        // {57} x {83} = {c1} (FIPS 197 §4.2 example).
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        // Inversion: a * a^-1 = 1 for all nonzero a.
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse failed for {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn interleaved_blocks_match_scalar_path() {
        let aes = Aes128::new(&[0x3C; 16]);
        // Widths 1, 2, 4 and 8: the kernel is width-generic even though
        // callers pin PARALLEL_BLOCKS.
        fn check<const N: usize>(aes: &Aes128) {
            for seed in 0..4u8 {
                let blocks: [[u8; 16]; N] = core::array::from_fn(|b| {
                    core::array::from_fn(|i| {
                        seed.wrapping_mul(89).wrapping_add((b * 31 + i * 13) as u8)
                    })
                });
                let batched = aes.encrypt_blocks(&blocks);
                for (b, block) in blocks.iter().enumerate() {
                    assert_eq!(batched[b], aes.encrypt_block(block), "seed {seed} slot {b}");
                }
            }
        }
        check::<1>(&aes);
        check::<2>(&aes);
        check::<PARALLEL_BLOCKS>(&aes);
        check::<8>(&aes);
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let p = [0u8; 16];
        let c1 = Aes128::new(&[0x00; 16]).encrypt_block(&p);
        let c2 = Aes128::new(&[0x01; 16]).encrypt_block(&p);
        assert_ne!(c1, c2);
    }
}
