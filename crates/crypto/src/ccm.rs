//! AES-CCM authenticated encryption (RFC 3610 construction), as Bluetooth
//! Secure Connections uses for ACL link encryption.
//!
//! The nonce layout here is the simulation's: a 13-byte nonce built from
//! the 39-bit packet counter and the central's address, which preserves the
//! properties the paper's eavesdropping discussion depends on — a captured
//! ciphertext stream is decryptable *iff* you hold the link key (and can
//! therefore derive the session encryption key), with no per-packet secret.
//!
//! One single-frame path and one batched open:
//!
//! * [`Ccm::seal`] and [`Ccm::open_into`] run one CTR loop and one CBC-MAC
//!   chain, one AES block at a time; [`Ccm::open`] is `open_into` into a
//!   fresh `Vec`.
//! * [`Ccm::open_many_into`] opens a slice of frames, [`FRAME_LANES`] of
//!   them in lockstep through [`Aes128::encrypt_blocks`] — the eavesdrop
//!   decrypt path.
//!
//! Pinned by RFC 3610 packet vector #1, round trips, tag-tamper rejection,
//! and lane-for-lane tests of the batched open against the single-frame
//! one. CBC-MAC and CTR follow RFC 3610 §2 with `M = 8` (8-byte tag) and
//! `L = 2` (2-byte length field).

use blap_obs::prof;

use crate::aes::{self, Aes128};

/// Tag length in bytes (`M` in RFC 3610 terms).
pub const TAG_LEN: usize = 8;

/// Nonce length in bytes (`15 - L` with `L = 2`).
pub const NONCE_LEN: usize = 13;

/// Frames opened in lockstep by [`Ccm::open_many_into`]: their CBC-MAC
/// chains are serial *within* a frame but independent *across* frames, so
/// the batched open runs one chain per interleave slot of
/// [`Aes128::encrypt_blocks`].
pub const FRAME_LANES: usize = aes::PARALLEL_BLOCKS;

/// Errors from CCM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcmError {
    /// The ciphertext was shorter than a tag.
    Truncated,
    /// The authentication tag did not verify.
    TagMismatch,
    /// The payload exceeds the 2-byte length field.
    PayloadTooLong,
}

impl std::fmt::Display for CcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcmError::Truncated => f.write_str("ciphertext shorter than the tag"),
            CcmError::TagMismatch => f.write_str("authentication tag mismatch"),
            CcmError::PayloadTooLong => f.write_str("payload longer than 65535 bytes"),
        }
    }
}

impl std::error::Error for CcmError {}

/// The CTR input block `A_i` (RFC 3610 §2.3), *before* encryption.
#[inline(always)]
fn a_block(nonce: &[u8; NONCE_LEN], counter: u16) -> [u8; 16] {
    let mut a = [0u8; 16];
    a[0] = 0x01; // L' = L - 1 = 1
    a[1..14].copy_from_slice(nonce);
    a[14..16].copy_from_slice(&counter.to_be_bytes());
    a
}

/// The CBC-MAC header block `B_0`: flags, nonce, message length.
#[inline(always)]
fn b0_block(nonce: &[u8; NONCE_LEN], adata: bool, payload_len: usize) -> [u8; 16] {
    let mut b0 = [0u8; 16];
    // flags = 64*Adata + 8*((M-2)/2) + (L-1)
    b0[0] = 64 * adata as u8 + 8 * (((TAG_LEN - 2) / 2) as u8) + 1;
    b0[1..14].copy_from_slice(nonce);
    b0[14..16].copy_from_slice(&(payload_len as u16).to_be_bytes());
    b0
}

/// How many CBC-MAC blocks the length-prefixed associated data occupies.
fn aad_blocks(aad: &[u8]) -> usize {
    if aad.is_empty() {
        0
    } else {
        (2 + aad.len()).div_ceil(16)
    }
}

/// The `j`-th 16-byte chunk (zero-padded) of the conceptual stream
/// `len(aad) as u16_be || aad` — the associated-data section of the
/// CBC-MAC input, built without materializing a header Vec.
#[inline(always)]
fn aad_chunk(aad: &[u8], j: usize) -> [u8; 16] {
    let mut block = [0u8; 16];
    let mut fill = 0usize;
    if j == 0 {
        block[..2].copy_from_slice(&(aad.len() as u16).to_be_bytes());
        fill = 2;
    }
    let start = (16 * j).saturating_sub(2);
    let end = (16 * (j + 1) - 2).min(aad.len());
    if start < end {
        block[fill..fill + (end - start)].copy_from_slice(&aad[start..end]);
    }
    block
}

/// The single-frame CBC-MAC chain: `B_0`, the length-prefixed associated
/// data, then the zero-padded payload, one AES block at a time. Returns
/// the final chaining state; its first [`TAG_LEN`] bytes are the raw tag.
fn cbc_mac(aes: &Aes128, nonce: &[u8; NONCE_LEN], aad: &[u8], payload: &[u8]) -> [u8; 16] {
    let mut x = aes.encrypt_block(&b0_block(nonce, !aad.is_empty(), payload.len()));
    for j in 0..aad_blocks(aad) {
        x = aes.encrypt_block(&xor16(&x, &aad_chunk(aad, j)));
    }
    for chunk in payload.chunks(16) {
        for (state, &byte) in x.iter_mut().zip(chunk) {
            *state ^= byte;
        }
        x = aes.encrypt_block(&x);
    }
    x
}

/// Whether the received `tag` is the MAC state `mac` whitened with the
/// counter-0 keystream block `a0`, compared without an early exit.
fn tag_matches(mac: &[u8; 16], a0: &[u8; 16], tag: &[u8]) -> bool {
    let mut diff = 0u8;
    for i in 0..TAG_LEN {
        diff |= mac[i] ^ a0[i] ^ tag[i];
    }
    diff == 0
}

/// A CCM context with the AES key schedule expanded once per session key.
/// The eavesdrop decrypt path opens every captured frame under one session
/// key, so it builds one of these per capture, not one per frame.
#[derive(Clone, Debug)]
pub struct Ccm {
    aes: Aes128,
}

impl Ccm {
    /// Expands `key` into a reusable CCM context.
    pub fn new(key: &[u8; 16]) -> Self {
        Ccm {
            aes: Aes128::new(key),
        }
    }

    /// Encrypts `payload` with associated data `aad`, returning
    /// `ciphertext || tag`.
    ///
    /// # Errors
    ///
    /// Returns [`CcmError::PayloadTooLong`] for payloads over 65535 bytes.
    pub fn seal(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        payload: &[u8],
    ) -> Result<Vec<u8>, CcmError> {
        // One scope per sealed frame, not per AES block: a per-block guard
        // would dominate what it measures.
        let _prof = prof::scope("crypto.ccm_seal");
        if payload.len() > u16::MAX as usize {
            return Err(CcmError::PayloadTooLong);
        }
        let mac = cbc_mac(&self.aes, nonce, aad, payload);
        let mut out = Vec::with_capacity(payload.len() + TAG_LEN);
        let a0 = self.ctr(nonce, payload, &mut out);
        out.extend(mac[..TAG_LEN].iter().zip(&a0).map(|(m, k)| m ^ k));
        Ok(out)
    }

    /// Decrypts `ciphertext || tag`, verifying the tag: [`Ccm::open_into`]
    /// into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`CcmError::Truncated`] for inputs shorter than a tag and
    /// [`CcmError::TagMismatch`] when authentication fails (wrong key,
    /// wrong nonce, or tampered data).
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CcmError> {
        let mut out = Vec::new();
        self.open_into(nonce, aad, ciphertext_and_tag, &mut out)?;
        Ok(out)
    }

    /// Clears `out` and appends the verified plaintext of
    /// `ciphertext || tag`. On any error `out` is left cleared — the
    /// unauthenticated bytes are never observable. With enough capacity
    /// retained from a previous call this never allocates.
    ///
    /// # Errors
    ///
    /// Returns [`CcmError::Truncated`] for inputs shorter than a tag and
    /// [`CcmError::TagMismatch`] when authentication fails.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CcmError> {
        let _prof = prof::scope("crypto.ccm_open");
        out.clear();
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CcmError::Truncated);
        }
        let (ciphertext, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
        out.reserve(ciphertext.len());
        let a0 = self.ctr(nonce, ciphertext, out);
        if !tag_matches(&cbc_mac(&self.aes, nonce, aad, out), &a0, tag) {
            out.clear();
            return Err(CcmError::TagMismatch);
        }
        Ok(())
    }

    /// The single-frame CTR loop: transforms `src` with counters 1.., one
    /// AES block per 16 bytes, appending to `out`. Returns the counter-0
    /// keystream block that whitens the tag.
    fn ctr(&self, nonce: &[u8; NONCE_LEN], src: &[u8], out: &mut Vec<u8>) -> [u8; 16] {
        let mut a = a_block(nonce, 0);
        let a0 = self.aes.encrypt_block(&a);
        for (i, chunk) in src.chunks(16).enumerate() {
            a[14..].copy_from_slice(&((i + 1) as u16).to_be_bytes());
            let keystream = self.aes.encrypt_block(&a);
            out.extend(chunk.iter().zip(&keystream).map(|(b, k)| b ^ k));
        }
        a0
    }

    /// Opens a slice of frames with both parallelism axes exploited: CTR
    /// keystream blocks interleaved across frames *and* the per-frame
    /// CBC-MAC chains run [`FRAME_LANES`] frames in lockstep (serial within
    /// a frame, independent across frames). Results land in the reusable
    /// `out` buffer: one plaintext arena plus a per-frame verdict,
    /// allocation-free once `out` has warmed up.
    ///
    /// Per-frame errors surface through [`OpenBatch::get`]; a truncated or
    /// tampered frame never hides the neighbours in its batch.
    pub fn open_many_into(&self, frames: &[SealedFrame<'_>], out: &mut OpenBatch) {
        let _prof = prof::scope("crypto.ccm_open_many");
        out.data.clear();
        out.frames.clear();
        const W: usize = FRAME_LANES;
        let mut iter = frames.chunks(W);
        let Some(first) = iter.next() else {
            return;
        };
        // Software pipeline, one chunk deep: a chunk's CBC-MAC passes are
        // serially dependent (pass j+1 chains on pass j's outputs), which
        // leaves the out-of-order window starved between passes — measured
        // ~60 ns/block against the kernel's ~38 ns throughput. CTR passes
        // have no such chain, so the loop below runs chunk k's MAC passes
        // alternated with chunk k+1's CTR passes: every serial MAC step
        // has a full pass of independent work in flight next to it.
        let mut cur_chunk = first;
        let mut cur = prepare_chunk(cur_chunk, &mut out.data);
        let cur_start = cur.start;
        for j in 0..=cur.max_ctr {
            let region = &mut out.data[cur_start..];
            self.ctr_pass(&mut cur, cur_chunk, j, region, cur_start);
        }
        loop {
            match iter.next() {
                Some(next_chunk) => {
                    let mut next = prepare_chunk(next_chunk, &mut out.data);
                    let split = next.start;
                    let (mac_data, ctr_data) = out.data.split_at_mut(split);
                    let mut x = [[0u8; 16]; W];
                    let passes = cur.mac_max.max(next.max_ctr + 1);
                    for j in 0..passes {
                        if j <= next.max_ctr {
                            self.ctr_pass(&mut next, next_chunk, j, ctr_data, split);
                        }
                        if j < cur.mac_max {
                            self.mac_pass(&cur, cur_chunk, j, mac_data, &mut x);
                        }
                    }
                    push_verdicts(&cur, cur_chunk, &x, out);
                    cur = next;
                    cur_chunk = next_chunk;
                }
                None => {
                    // Drain: the last chunk's MAC has no CTR to overlap.
                    let mut x = [[0u8; 16]; W];
                    for j in 0..cur.mac_max {
                        let data = &out.data;
                        self.mac_pass(&cur, cur_chunk, j, data, &mut x);
                    }
                    push_verdicts(&cur, cur_chunk, &x, out);
                    return;
                }
            }
        }
    }

    /// One lockstep CTR pass: encrypts counter `j` of every lane in the
    /// chunk and xors the keystream into the arena region (`rebase` maps
    /// the chunk's absolute arena offsets into `data`). Pass 0 captures the
    /// per-lane tag-whitening pad `A_0` instead of producing payload.
    fn ctr_pass(
        &self,
        g: &mut ChunkGeom,
        chunk: &[SealedFrame<'_>],
        j: usize,
        data: &mut [u8],
        rebase: usize,
    ) {
        let mut inputs = g.template;
        if j == 0 {
            g.a0 = self.aes.encrypt_blocks(&inputs);
            return;
        }
        let cb = (j as u16).to_be_bytes();
        for input in &mut inputs {
            input[14] = cb[0];
            input[15] = cb[1];
        }
        let ks = self.aes.encrypt_blocks(&inputs);
        for (i, frame) in chunk.iter().enumerate() {
            if j <= g.nblocks[i] {
                let lo = 16 * (j - 1);
                let hi = g.ct_len[i].min(16 * j);
                let ct = &frame.ciphertext_and_tag[lo..hi];
                let dst = &mut data[g.base[i] - rebase + lo..g.base[i] - rebase + hi];
                for (b, (&c, k)) in ct.iter().zip(&ks[i]).enumerate() {
                    dst[b] = c ^ k;
                }
            }
        }
    }

    /// One lockstep CBC-MAC pass: chains block `j` of every live lane
    /// (`B_0`, then length-prefixed AAD, then the decrypted payload read
    /// back out of the arena). Exhausted lanes re-encrypt their state into
    /// a discarded slot rather than branching the kernel.
    fn mac_pass(
        &self,
        g: &ChunkGeom,
        chunk: &[SealedFrame<'_>],
        j: usize,
        data: &[u8],
        x: &mut [[u8; 16]; FRAME_LANES],
    ) {
        let mut inputs = *x;
        for i in 0..FRAME_LANES {
            if j >= g.blocks[i] {
                continue;
            }
            if j == 0 {
                inputs[i] = xor16(&x[i], &g.b0[i]);
            } else if j <= g.header[i] {
                inputs[i] = xor16(&x[i], &aad_chunk(chunk[i].aad, j - 1));
            } else {
                // Payload block: xor the (zero-padded) chunk straight into
                // the chaining state — no 16-byte staging copy.
                let off = 16 * (j - 1 - g.header[i]);
                let take = (g.ct_len[i] - off).min(16);
                let payload = &data[g.base[i] + off..g.base[i] + off + take];
                for (b, &byte) in payload.iter().enumerate() {
                    inputs[i][b] ^= byte;
                }
            }
        }
        let y = self.aes.encrypt_blocks(&inputs);
        for i in 0..FRAME_LANES {
            if j < g.blocks[i] {
                x[i] = y[i];
            }
        }
    }
}

/// Borrowed view of one sealed frame for [`Ccm::open_many_into`].
#[derive(Clone, Copy, Debug)]
pub struct SealedFrame<'a> {
    /// The 13-byte CCM nonce the frame was sealed under.
    pub nonce: [u8; NONCE_LEN],
    /// Associated data (authenticated, not encrypted).
    pub aad: &'a [u8],
    /// `ciphertext || tag` as captured.
    pub ciphertext_and_tag: &'a [u8],
}

/// Reusable output of [`Ccm::open_many_into`]: all plaintexts in one
/// arena plus a per-frame verdict. Clearing on reuse retains capacity, so
/// a steady-state decrypt loop stops allocating once the arena has grown
/// to the largest batch it has seen.
#[derive(Clone, Debug, Default)]
pub struct OpenBatch {
    /// Plaintext arena, frames concatenated in input order.
    data: Vec<u8>,
    /// Per-frame verdict: arena byte range, or the open error.
    frames: Vec<Result<(u32, u32), CcmError>>,
}

impl OpenBatch {
    /// An empty buffer; capacity grows on first use.
    pub fn new() -> OpenBatch {
        OpenBatch::default()
    }

    /// Number of frames in the last [`Ccm::open_many_into`] call.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the buffer holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The verified plaintext of frame `i`, or why it failed to open.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> Result<&[u8], CcmError> {
        match &self.frames[i] {
            Ok((lo, hi)) => Ok(&self.data[*lo as usize..*hi as usize]),
            Err(err) => Err(err.clone()),
        }
    }

    /// Per-frame outcomes in input order.
    pub fn iter(&self) -> impl Iterator<Item = Result<&[u8], CcmError>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Per-chunk lane geometry and carried CTR results for the pipelined
/// [`Ccm::open_many_into`]: everything the CTR and MAC passes need, with
/// no borrows into the arena so two chunks can be in flight at once.
struct ChunkGeom {
    /// Arena offset where this chunk's plaintext region starts.
    start: usize,
    /// Absolute arena offset of each lane's plaintext.
    base: [usize; FRAME_LANES],
    ct_len: [usize; FRAME_LANES],
    valid: [bool; FRAME_LANES],
    /// CTR payload blocks per lane (`ct_len.div_ceil(16)`).
    nblocks: [usize; FRAME_LANES],
    max_ctr: usize,
    /// `aad_blocks(aad)` per lane.
    header: [usize; FRAME_LANES],
    /// Total MAC blocks per lane; 0 marks a padding/invalid lane.
    blocks: [usize; FRAME_LANES],
    mac_max: usize,
    /// Precomputed `B_0` per lane (flags, nonce, length).
    b0: [[u8; 16]; FRAME_LANES],
    /// `A_0` CTR template per lane — passes re-stamp only the counter.
    template: [[u8; 16]; FRAME_LANES],
    /// Per-lane tag-whitening pad, captured by CTR pass 0.
    a0: [[u8; 16]; FRAME_LANES],
}

/// Lays out a chunk's plaintext region in the arena and precomputes the
/// per-lane block geometry. Too-short frames get zero blocks of work and a
/// [`CcmError::Truncated`] verdict later. Padding lanes (ragged last
/// chunk) replicate lane 0's nonce into their templates so the kernel
/// encrypts something valid into a discarded slot.
fn prepare_chunk(chunk: &[SealedFrame<'_>], data: &mut Vec<u8>) -> ChunkGeom {
    const W: usize = FRAME_LANES;
    let lanes = chunk.len();
    let start = data.len();
    let mut base = [0usize; W];
    let mut ct_len = [0usize; W];
    let mut valid = [false; W];
    for (i, frame) in chunk.iter().enumerate() {
        if frame.ciphertext_and_tag.len() >= TAG_LEN {
            valid[i] = true;
            ct_len[i] = frame.ciphertext_and_tag.len() - TAG_LEN;
        }
        base[i] = data.len();
        data.resize(data.len() + ct_len[i], 0);
    }
    let nblocks: [usize; W] = core::array::from_fn(|i| ct_len[i].div_ceil(16));
    let mut header = [0usize; W];
    let mut blocks = [0usize; W];
    let mut b0 = [[0u8; 16]; W];
    let mut template = [[0u8; 16]; W];
    for i in 0..W {
        let lane = i.min(lanes - 1);
        let aad = chunk[lane].aad;
        header[i] = aad_blocks(aad);
        b0[i] = b0_block(&chunk[lane].nonce, !aad.is_empty(), ct_len[lane]);
        template[i] = a_block(&chunk[lane].nonce, 0);
        if i < lanes && valid[i] {
            blocks[i] = 1 + header[i] + nblocks[i];
        }
    }
    ChunkGeom {
        start,
        base,
        ct_len,
        valid,
        nblocks,
        max_ctr: *nblocks.iter().max().expect("W > 0"),
        header,
        blocks,
        mac_max: *blocks.iter().max().expect("W > 0"),
        b0,
        template,
        a0: [[0u8; 16]; W],
    }
}

/// Compares each lane's final MAC state against its (whitened) received
/// tag and records the per-frame verdicts.
fn push_verdicts(
    g: &ChunkGeom,
    chunk: &[SealedFrame<'_>],
    x: &[[u8; 16]; FRAME_LANES],
    out: &mut OpenBatch,
) {
    for (i, frame) in chunk.iter().enumerate() {
        if !g.valid[i] {
            out.frames.push(Err(CcmError::Truncated));
            continue;
        }
        let tag = &frame.ciphertext_and_tag[g.ct_len[i]..];
        if tag_matches(&x[i], &g.a0[i], tag) {
            out.frames
                .push(Ok((g.base[i] as u32, (g.base[i] + g.ct_len[i]) as u32)));
        } else {
            out.frames.push(Err(CcmError::TagMismatch));
        }
    }
}

#[inline(always)]
fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

/// Builds the simulation's 13-byte ACL nonce from a packet counter and the
/// central's address.
pub fn acl_nonce(packet_counter: u64, central: blap_types::BdAddr) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..6].copy_from_slice(&central.to_bytes());
    nonce[5..13].copy_from_slice(&packet_counter.to_be_bytes());
    // (byte 5 is shared: top counter byte overlays the address LSB — fine,
    // the pair (counter, central) still injects uniquely for < 2^56
    // packets, far beyond any session.)
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> [u8; 16] {
        core::array::from_fn(|i| i as u8)
    }

    fn nonce(tag: u8) -> [u8; NONCE_LEN] {
        core::array::from_fn(|i| tag.wrapping_add(i as u8))
    }

    #[test]
    fn round_trip_various_lengths() {
        let ccm = Ccm::new(&key());
        for len in [0usize, 1, 15, 16, 17, 64, 255] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = ccm.seal(&nonce(1), b"header", &payload).unwrap();
            assert_eq!(ct.len(), len + TAG_LEN);
            let pt = ccm.open(&nonce(1), b"header", &ct).unwrap();
            assert_eq!(pt, payload, "length {len}");
        }
    }

    #[test]
    fn long_aad_round_trips_and_differs_from_short() {
        // > 14 bytes spans more than one associated-data block.
        let ccm = Ccm::new(&key());
        let long_aad = [0x31u8; 40];
        let ct = ccm.seal(&nonce(11), &long_aad, b"payload").unwrap();
        assert_eq!(ccm.open(&nonce(11), &long_aad, &ct).unwrap(), b"payload");
        assert!(ccm.open(&nonce(11), &long_aad[..14], &ct).is_err());
    }

    /// The associated-data blocks are the stream `len(aad) as u16_be ||
    /// aad`, cut into zero-padded 16-byte blocks (RFC 3610 §2.2).
    #[test]
    fn aad_chunks_match_the_length_prefixed_stream() {
        for len in 0..50usize {
            let aad: Vec<u8> = (0..len).map(|i| (i * 11 + 1) as u8).collect();
            let mut stream = (len as u16).to_be_bytes().to_vec();
            stream.extend_from_slice(&aad);
            let want: Vec<[u8; 16]> = if aad.is_empty() {
                Vec::new()
            } else {
                stream
                    .chunks(16)
                    .map(|c| core::array::from_fn(|i| c.get(i).copied().unwrap_or(0)))
                    .collect()
            };
            let got: Vec<[u8; 16]> = (0..aad_blocks(&aad)).map(|j| aad_chunk(&aad, j)).collect();
            assert_eq!(got, want, "aad length {len}");
        }
    }

    #[test]
    fn tampering_detected() {
        let ccm = Ccm::new(&key());
        let ct = ccm.seal(&nonce(2), b"", b"secret acl payload").unwrap();
        for i in 0..ct.len() {
            let mut tampered = ct.clone();
            tampered[i] ^= 0x01;
            assert_eq!(
                ccm.open(&nonce(2), b"", &tampered),
                Err(CcmError::TagMismatch),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn wrong_key_nonce_or_aad_rejected() {
        let ccm = Ccm::new(&key());
        let ct = ccm.seal(&nonce(3), b"aad", b"payload").unwrap();
        let mut wrong_key = key();
        wrong_key[0] ^= 1;
        assert!(Ccm::new(&wrong_key).open(&nonce(3), b"aad", &ct).is_err());
        assert!(ccm.open(&nonce(4), b"aad", &ct).is_err());
        assert!(ccm.open(&nonce(3), b"axd", &ct).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(
            Ccm::new(&key()).open(&nonce(5), b"", &[0u8; TAG_LEN - 1]),
            Err(CcmError::Truncated)
        );
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let payload = b"the quick brown fox";
        let ct = Ccm::new(&key()).seal(&nonce(6), b"", payload).unwrap();
        assert_ne!(&ct[..payload.len()], payload.as_slice());
    }

    #[test]
    fn nonce_uniqueness_changes_ciphertext() {
        let ccm = Ccm::new(&key());
        let p = b"same payload";
        let c1 = ccm.seal(&nonce(7), b"", p).unwrap();
        let c2 = ccm.seal(&nonce(8), b"", p).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn acl_nonce_injective_in_counter() {
        let central: blap_types::BdAddr = "aa:bb:cc:dd:ee:ff".parse().unwrap();
        let n1 = acl_nonce(1, central);
        let n2 = acl_nonce(2, central);
        assert_ne!(n1, n2);
    }

    /// RFC 3610 Packet Vector #1 uses exactly our parameters (M = 8,
    /// L = 2), so the published bytes pin the single-frame path against an
    /// external reference instead of only self-round-trips.
    #[test]
    fn rfc3610_packet_vector_1() {
        let key: [u8; 16] = core::array::from_fn(|i| 0xC0 + i as u8);
        let nonce: [u8; NONCE_LEN] = [
            0x00, 0x00, 0x00, 0x03, 0x02, 0x01, 0x00, 0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5,
        ];
        let aad: Vec<u8> = (0x00..=0x07).collect();
        let payload: Vec<u8> = (0x08..=0x1E).collect();
        let expected: [u8; 31] = [
            0x58, 0x8C, 0x97, 0x9A, 0x61, 0xC6, 0x63, 0xD2, 0xF0, 0x66, 0xD0, 0xC2, 0xC0, 0xF9,
            0x89, 0x80, 0x6D, 0x5F, 0x6B, 0x61, 0xDA, 0xC3, 0x84, 0x17, 0xE8, 0xD1, 0x2C, 0xFD,
            0xF9, 0x26, 0xE0,
        ];
        let ccm = Ccm::new(&key);
        assert_eq!(ccm.seal(&nonce, &aad, &payload).unwrap(), expected);
        assert_eq!(ccm.open(&nonce, &aad, &expected).unwrap(), payload);
        let mut out = Vec::new();
        ccm.open_into(&nonce, &aad, &expected, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    /// One buffer serves every length: `open_into` clears what the previous
    /// call left, whether the next plaintext is shorter or longer.
    #[test]
    fn open_into_reuses_one_buffer_across_lengths() {
        let ccm = Ccm::new(&key());
        let mut opened = Vec::new();
        for len in [0usize, 1, 15, 16, 17, 48, 63, 64, 65, 200, 3] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let sealed = ccm.seal(&nonce(20), b"aad", &payload).unwrap();
            ccm.open_into(&nonce(20), b"aad", &sealed, &mut opened)
                .unwrap();
            assert_eq!(opened, payload, "length {len}");
        }
    }

    #[test]
    fn open_into_clears_output_on_failure() {
        let ccm = Ccm::new(&key());
        let mut sealed = ccm.seal(&nonce(21), b"", b"sensitive").unwrap();
        let mut out = Vec::new();
        *sealed.last_mut().unwrap() ^= 1;
        assert_eq!(
            ccm.open_into(&nonce(21), b"", &sealed, &mut out),
            Err(CcmError::TagMismatch)
        );
        assert!(out.is_empty());
        assert_eq!(
            ccm.open_into(&nonce(21), b"", &[0u8; TAG_LEN - 1], &mut out),
            Err(CcmError::Truncated)
        );
        assert!(out.is_empty());
    }

    /// Batched open must agree with the single-frame open lane for lane,
    /// including ragged final batches (every count around FRAME_LANES).
    #[test]
    fn open_many_matches_scalar_lane_for_lane() {
        let ccm = Ccm::new(&key());
        let mut batch = OpenBatch::new();
        for count in 0..=2 * FRAME_LANES + 1 {
            let aads: Vec<Vec<u8>> = (0..count)
                .map(|i| (0..(i * 5) % 23).map(|b| b as u8).collect())
                .collect();
            let sealed: Vec<Vec<u8>> = (0..count)
                .map(|i| {
                    let payload: Vec<u8> = (0..(i * 31) % 70).map(|b| (b + i) as u8).collect();
                    ccm.seal(&nonce(i as u8), &aads[i], &payload).unwrap()
                })
                .collect();
            let frames: Vec<SealedFrame<'_>> = (0..count)
                .map(|i| SealedFrame {
                    nonce: nonce(i as u8),
                    aad: &aads[i],
                    ciphertext_and_tag: &sealed[i],
                })
                .collect();
            ccm.open_many_into(&frames, &mut batch);
            assert_eq!(batch.len(), count);
            for (i, got) in batch.iter().enumerate() {
                let want = ccm.open(&nonce(i as u8), &aads[i], &sealed[i]);
                assert_eq!(got.map(<[u8]>::to_vec), want, "count {count} lane {i}");
            }
        }
    }

    /// A tampered or truncated lane fails alone; its batch neighbours
    /// still open.
    #[test]
    fn open_many_isolates_bad_lanes() {
        let ccm = Ccm::new(&key());
        let sealed: Vec<Vec<u8>> = (0..FRAME_LANES + 2)
            .map(|i| {
                ccm.seal(&nonce(i as u8), b"aad", format!("payload {i}").as_bytes())
                    .unwrap()
            })
            .collect();
        let mut tampered = sealed[1].clone();
        tampered[0] ^= 1;
        let frames: Vec<SealedFrame<'_>> = (0..sealed.len())
            .map(|i| SealedFrame {
                nonce: nonce(i as u8),
                aad: b"aad",
                ciphertext_and_tag: match i {
                    1 => &tampered,
                    2 => &sealed[2][..TAG_LEN - 1],
                    _ => &sealed[i],
                },
            })
            .collect();
        let mut batch = OpenBatch::new();
        ccm.open_many_into(&frames, &mut batch);
        assert_eq!(batch.len(), frames.len());
        for (i, got) in batch.iter().enumerate() {
            match i {
                1 => assert_eq!(got, Err(CcmError::TagMismatch)),
                2 => assert_eq!(got, Err(CcmError::Truncated)),
                _ => assert_eq!(got, Ok(format!("payload {i}").as_bytes())),
            }
        }
    }
}
