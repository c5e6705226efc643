//! NIST P-256 (secp256r1) elliptic-curve Diffie-Hellman.
//!
//! Secure Simple Pairing's Authentication Stage 1 exchanges P-256 public
//! keys (P-192 for pre-4.1 devices); the shared secret `DHKey` feeds the
//! `f2` link-key derivation. This module implements the curve from its
//! domain parameters: a dedicated field element ([`FieldElement`]: 4×u64
//! canonical limbs in the Montgomery domain, a Montgomery reduction whose
//! rounds need no quotient multiply, branch-free add/sub, safegcd
//! inversion), a mod-n Montgomery product of scalars ([`Scalar::mul`]),
//! Jacobian-coordinate group arithmetic, windowed-NAF scalar
//! multiplication (with a precomputed signed-window table for the
//! generator), and public-key validation (the check whose absence enabled
//! the Biham–Neumann invalid-curve attack cited by the paper). [`U256`]
//! appears only at the public boundary: point coordinates, scalars,
//! [`field_mul`] and the DHKey bytes; values enter and leave the
//! Montgomery domain there and nowhere else. [`DhMemo`] lets the two ends
//! of one pairing share a single ECDH, and turns that ECDH into a
//! fixed-base multiplication when both key pairs were drawn in one world.
//!
//! Nothing here is constant-time: the simulator's secrets are seeded
//! test keys in one process, with no timing side channel to defend, so
//! the inversion, the signed-window lookups and the registry take
//! data-dependent paths. Public-key validation still runs on every
//! received key.
//!
//! Correctness is established structurally: every field operation and
//! the scalar product are property-tested against the slow binary long
//! division in [`crate::bigint`], the wNAF and fixed-base multipliers
//! against the retained [`Point::mul_double_and_add`] reference, the
//! generator satisfies the curve equation, `n·G = ∞`, scalar
//! multiplication distributes over scalar addition, and ECDH agreement
//! holds for arbitrary key pairs, memoized, registered or not.

use std::fmt;
use std::sync::OnceLock;

use crate::bigint::U256;

// Domain parameters as limb constants: the previous accessors re-parsed
// hex strings, which put a heap-allocating `format!` inside every field
// operation of every point double — by far the dominant cost of a pairing.
const P: [u64; 4] = [
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_ffff,
    0x0000_0000_0000_0000,
    0xffff_ffff_0000_0001,
];
const N: U256 = U256::from_limbs([
    0xf3b9_cac2_fc63_2551,
    0xbce6_faad_a717_9e84,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_0000_0000,
]);
/// The curve coefficient `b` in the Montgomery domain (`b·2^256 mod p`).
const B: FieldElement = FieldElement([
    0xd89c_df62_29c4_bddf,
    0xacf0_05cd_7884_3090,
    0xe5a2_20ab_f721_2ed6,
    0xdc30_061d_0487_4834,
]);
/// `R² = 2^512 mod p`: a Montgomery multiply by it enters the domain.
const R2: FieldElement = FieldElement([
    0x0000_0000_0000_0003,
    0xffff_fffb_ffff_ffff,
    0xffff_ffff_ffff_fffe,
    0x0000_0004_ffff_fffd,
]);
/// `R³ = 2^768 mod p`: a Montgomery multiply by it takes the plain inverse
/// of `a·R` to `a⁻¹·R`.
const R3: FieldElement = FieldElement([
    0xffff_fffd_0000_000a,
    0xffff_ffed_ffff_fff7,
    0x0000_0005_ffff_fffc,
    0x0000_0018_0000_0001,
]);
/// `−n⁻¹ mod 2^64`: the quotient factor of a mod-n Montgomery round.
const N_NEG_INV: u64 = 0xccd1_c8aa_ee00_bc4f;
/// `2^512 mod n`: a mod-n Montgomery multiply by it cancels one `R⁻¹`.
const N_R2: U256 = U256::from_limbs([
    0x8324_4c95_be79_eea2,
    0x4699_799c_49bd_6fa6,
    0x2845_b239_2b6b_ec59,
    0x66e1_2d94_f3d9_5620,
]);
const GX: U256 = U256::from_limbs([
    0xf4a1_3945_d898_c296,
    0x7703_7d81_2deb_33a0,
    0xf8bc_e6e5_63a4_40f2,
    0x6b17_d1f2_e12c_4247,
]);
const GY: U256 = U256::from_limbs([
    0xcbb6_4068_37bf_51f5,
    0x2bce_3357_6b31_5ece,
    0x8ee7_eb4a_7c0f_9e16,
    0x4fe3_42e2_fe1a_7f9b,
]);

/// The field prime `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
pub fn field_prime() -> U256 {
    U256::from_limbs(P)
}

/// The group order `n`.
pub fn group_order() -> U256 {
    N
}

/// The base point `G`.
pub fn generator() -> Point {
    Point::Affine { x: GX, y: GY }
}

// --- field element ---------------------------------------------------------

/// An element of the P-256 base field in the Montgomery domain: four
/// little-endian `u64` limbs holding `a·R mod p` for the value `a`, with
/// `R = 2^256`, always canonical (`< p`).
///
/// The representation is a bijection on `0..p`, so `==` is still value
/// equality and zero is still all-zero limbs. Values enter the domain
/// only in [`Self::from_u256`] (a multiply by `R² mod p`) and leave it
/// only in [`Self::to_u256`] (one reduction); everything between — the
/// point formulas, the generator table, the inversion, the curve
/// check — runs inside it. `add`/`sub`/`double`/`neg`/`half` are linear,
/// so they work on `a·R` unchanged and select with masks instead of
/// branching; `mul`/`sq` accumulate schoolbook rows of u128 limb products
/// and Montgomery-reduce the 512-bit result, `(a·R)(b·R)·R⁻¹ = ab·R`;
/// `inv` runs variable-time safegcd on the limbs, then one multiply by
/// `R³ mod p` to come back into the domain. The slow
/// paths in [`crate::bigint`] (`mul_mod`, `add_mod`, `sub_mod`,
/// `inv_mod_prime`) are the oracle these are property-tested against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FieldElement([u64; 4]);

/// `a + b + carry`, returning `(sum, carry out)`.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow`, returning `(difference, borrow out)`.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// Reduces `carry·2^256 + r` (known to be `< 2p`) to canonical form with
/// one masked conditional subtraction of `p`.
#[inline(always)]
fn sub_p_unless_below(r: [u64; 4], carry: u64) -> FieldElement {
    let (d0, b) = sbb(r[0], P[0], 0);
    let (d1, b) = sbb(r[1], P[1], b);
    let (d2, b) = sbb(r[2], P[2], b);
    let (d3, b) = sbb(r[3], P[3], b);
    // Keep `r` only when it is already below p: the subtraction borrowed
    // and no carry bit sits above it.
    let keep = (b & !carry).wrapping_neg();
    FieldElement([
        (r[0] & keep) | (d0 & !keep),
        (r[1] & keep) | (d1 & !keep),
        (r[2] & keep) | (d2 & !keep),
        (r[3] & keep) | (d3 & !keep),
    ])
}

/// Montgomery reduction: `t·R⁻¹ mod p` for a 512-bit little-endian
/// `t < p·R`.
///
/// Round `i` adds `q·p·2^(64i)` with `q = t[i]`, which clears limb `i`:
/// the quotient needs no multiply because `p ≡ −1 (mod 2^64)`, so
/// `−p⁻¹ ≡ 1 (mod 2^64)`. p's limbs make the round itself cheap
/// (Gueron & Krasnov, J. Cryptogr. Eng. 2015): `t[i] + q·p[0] = q·2^64`
/// since `p[0] = 2^64 − 1`, so limb `i` clears and `q` carries; limb
/// `i + 1` then takes `q·p[1] + q = q·2^32`, a shift; limb `i + 2` only
/// the carry, since `p[2] = 0`; limb `i + 3` takes `q·p[3]`, the round's
/// one multiply. After four rounds the low half is zero and the high half
/// with the top carry is `(t + m·p)/R < 2p`, for one masked conditional
/// subtraction to finish.
#[inline(always)]
fn reduce(t: [u64; 8]) -> FieldElement {
    let (r, top) = montgomery_rounds(t);
    sub_p_unless_below(r, top)
}

/// The four rounds of [`reduce`]: `(t + m·p)/R` as its low 256 bits and
/// the top carry, before the final subtraction.
#[inline(always)]
fn montgomery_rounds(mut t: [u64; 8]) -> ([u64; 4], u64) {
    let mut top = 0u64;
    for i in 0..4 {
        let q = t[i];
        let acc = t[i + 1] as u128 + ((q as u128) << 32);
        t[i + 1] = acc as u64;
        let acc = t[i + 2] as u128 + (acc >> 64);
        t[i + 2] = acc as u64;
        let acc = t[i + 3] as u128 + q as u128 * P[3] as u128 + (acc >> 64);
        t[i + 3] = acc as u64;
        let acc = t[i + 4] as u128 + (acc >> 64) + top as u128;
        t[i + 4] = acc as u64;
        top = (acc >> 64) as u64;
    }
    ([t[4], t[5], t[6], t[7]], top)
}

impl FieldElement {
    /// Zero.
    pub const ZERO: FieldElement = FieldElement([0; 4]);
    /// One, in the Montgomery domain: `R mod p = 2^256 − p`.
    pub const ONE: FieldElement = FieldElement([
        0x0000_0000_0000_0001,
        0xffff_ffff_0000_0000,
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_fffe,
    ]);

    /// Enters the Montgomery domain: `v·R mod p`, as the Montgomery product
    /// of `v` and `R²`. Any 256-bit `v` is accepted (`v·R² < p·R` for the
    /// reduction), so this also reduces `v` modulo p.
    pub fn from_u256(v: U256) -> Self {
        // `v` may be `≥ p` here: only the product bound matters to `mul`.
        FieldElement(v.limbs()).mul(&R2)
    }

    /// Leaves the Montgomery domain: the canonical value as a [`U256`],
    /// by one reduction of the limbs as a 512-bit value.
    pub fn to_u256(self) -> U256 {
        let [a0, a1, a2, a3] = self.0;
        U256::from_limbs(reduce([a0, a1, a2, a3, 0, 0, 0, 0]).0)
    }

    /// Whether this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// `self + rhs mod p`.
    #[inline]
    pub fn add(&self, rhs: &Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        let (s0, c) = adc(a[0], b[0], 0);
        let (s1, c) = adc(a[1], b[1], c);
        let (s2, c) = adc(a[2], b[2], c);
        let (s3, c) = adc(a[3], b[3], c);
        sub_p_unless_below([s0, s1, s2, s3], c)
    }

    /// `self - rhs mod p`: subtract, then add p back under the borrow mask.
    #[inline]
    pub fn sub(&self, rhs: &Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        let (d0, w) = sbb(a[0], b[0], 0);
        let (d1, w) = sbb(a[1], b[1], w);
        let (d2, w) = sbb(a[2], b[2], w);
        let (d3, w) = sbb(a[3], b[3], w);
        let mask = w.wrapping_neg();
        let (r0, c) = adc(d0, P[0] & mask, 0);
        let (r1, c) = adc(d1, P[1] & mask, c);
        let (r2, c) = adc(d2, P[2] & mask, c);
        let (r3, _) = adc(d3, P[3] & mask, c);
        FieldElement([r0, r1, r2, r3])
    }

    /// `2·self mod p`.
    #[inline]
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// `-self mod p` (zero stays zero).
    #[inline]
    pub fn neg(&self) -> Self {
        FieldElement::ZERO.sub(self)
    }

    /// `self / 2 mod p`: add p under the odd-value mask (p is odd, so the
    /// sum is even), then shift the 257-bit sum right by one.
    #[inline]
    fn half(&self) -> Self {
        let a = self.0;
        let mask = (a[0] & 1).wrapping_neg();
        let (s0, c) = adc(a[0], P[0] & mask, 0);
        let (s1, c) = adc(a[1], P[1] & mask, c);
        let (s2, c) = adc(a[2], P[2] & mask, c);
        let (s3, c) = adc(a[3], P[3] & mask, c);
        FieldElement([
            (s0 >> 1) | (s1 << 63),
            (s1 >> 1) | (s2 << 63),
            (s2 >> 1) | (s3 << 63),
            (s3 >> 1) | (c << 63),
        ])
    }

    /// `self · rhs mod p`: schoolbook rows of 16 u128 multiply-accumulates
    /// into the 512-bit product, then the Montgomery reduction.
    #[inline]
    pub fn mul(&self, rhs: &Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let acc = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            t[i + 4] = carry;
        }
        reduce(t)
    }

    /// `self² mod p`: the six off-diagonal products are computed once and
    /// doubled, so a square costs 10 limb products, not 16.
    #[inline(always)]
    pub fn sq(&self) -> Self {
        let a = self.0;
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u64;
            for j in i + 1..4 {
                let acc = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
                t[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            t[i + 4] = carry;
        }
        // Double the off-diagonal sum (below 2^511, so no bit falls off)
        // while adding each diagonal square a_i² at limb 2i.
        let (mut shifted_out, mut carry) = (0u64, 0u128);
        for i in 0..4 {
            let square = a[i] as u128 * a[i] as u128;
            let lo = (t[2 * i] << 1) | shifted_out;
            let hi = (t[2 * i + 1] << 1) | (t[2 * i] >> 63);
            shifted_out = t[2 * i + 1] >> 63;
            let s = lo as u128 + (square as u64) as u128 + carry;
            t[2 * i] = s as u64;
            let s = hi as u128 + (square >> 64) + (s >> 64);
            t[2 * i + 1] = s as u64;
            carry = s >> 64;
        }
        reduce(t)
    }

    /// Multiplicative inverse (`None` for zero). The limbs hold `a·R`;
    /// safegcd inverts them as a plain integer, giving
    /// `a⁻¹·R⁻¹`, and a multiply by `R³` yields `a⁻¹·R`.
    pub fn inv(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        Some(FieldElement(inv_mod_p(self.0)).mul(&R3))
    }
}

// --- inversion -------------------------------------------------------------
//
// Bernstein–Yang safegcd ("Fast constant-time gcd computation and modular
// inversion", TCHES 2019) in its variable-time form, with the 62-divstep
// batches and the signed-62 limb layout of libsecp256k1's `modinv64_var`.
// Each batch runs 62 divsteps on the low 64 bits of `f` and `g` alone and
// records them as a 2×2 matrix scaled by 2^62; the matrix then updates the
// full-width `f, g` (exactly, dividing by 2^62) and the Bézout pair `d, e`
// (modulo p, adding the multiple of p that clears the low 62 bits). Once
// `g` reaches 0, `f = ±1` and `±d` is the inverse.

/// `2^62 − 1`: the mask of one signed-62 limb.
const M62: u64 = u64::MAX >> 2;

/// A value as five signed 62-bit limbs, `Σ v[i]·2^(62i)`. Between steps a
/// limb may be negative or (the top one) wider than 62 bits.
type Signed62 = [i64; 5];

/// p as signed-62 limbs.
const P62: Signed62 = to_signed62(P);

/// `p⁻¹ mod 2^62`: p ≡ −1 (mod 2^96), so it is −1, that is `2^62 − 1`.
const P_INV62: u64 = M62;

/// The 62 divsteps of one batch as `[u v; q r]`: the new
/// `(f, g)·2^62 = (u·f + v·g, q·f + r·g)`.
struct Divsteps {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

const fn to_signed62(a: [u64; 4]) -> Signed62 {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        ((a[2] >> 58 | a[3] << 6) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// The inverse of the canonical, nonzero `x < p` as a plain integer.
fn inv_mod_p(x: [u64; 4]) -> [u64; 4] {
    let (mut d, mut e): (Signed62, Signed62) = ([0; 5], [1, 0, 0, 0, 0]);
    let (mut f, mut g) = (P62, to_signed62(x));
    // η = −δ, with δ = 1 at the start; `len` limbs of f and g are live.
    let (mut eta, mut len) = (-1i64, 5usize);
    loop {
        let (next_eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        eta = next_eta;
        update_de(&mut d, &mut e, &t);
        update_fg(&mut f[..len], &mut g[..len], &t);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // When the top limbs of f and g are both 0 or −1, fold their sign
        // into the limb below and drop them.
        let (fn_, gn) = (f[len - 1], g[len - 1]);
        if len > 1 && (fn_ ^ (fn_ >> 63)) | (gn ^ (gn >> 63)) == 0 {
            f[len - 2] |= fn_ << 62;
            g[len - 2] |= gn << 62;
            len -= 1;
        }
    }
    // g = 0 leaves f = ±gcd = ±1: d, negated when f is −1, is the inverse.
    let d = normalize(d, f[len - 1]).map(|limb| limb as u64);
    [
        d[0] | d[1] << 62,
        d[1] >> 2 | d[2] << 60,
        d[2] >> 4 | d[3] << 58,
        d[3] >> 6 | d[4] << 56,
    ]
}

/// Runs 62 divsteps on the low bits `f0` (odd) and `g0`, skipping runs of
/// zero bits of g in one shift each and cancelling up to 6 bits of g per
/// swap. Returns the new η and the batch's matrix.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Divsteps) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // The sentinel bits stop the count at the divsteps left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // g is odd now. Cancel its low bits with a multiple w of f, after
        // swapping (f, g) to (g, −f) when η < 0.
        let limit = (eta.unsigned_abs() + 1).min(u64::from(left)) as u32;
        let w = if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // f·(f² − 2) ≡ −f⁻¹ (mod 2^6): up to 6 bits per step.
            let mask = (u64::MAX >> (64 - limit)) & 63;
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
        } else {
            // η tends to be small here: a cheaper inverse to 4 bits.
            let mask = (u64::MAX >> (64 - limit)) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Divsteps {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← t·(d, e)/2^62 (mod p)`, keeping both in `(−2p, p)`: adds the
/// multiples `md, me` of p that clear the low 62 bits before the shift.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Divsteps) {
    let (u, v, q, r) = (t.u, t.v, t.q, t.r);
    // Start from [u, q] when d is negative and [v, r] when e is, so the
    // results stay above −2p.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let mut cd = i128::from(u) * i128::from(d[0]) + i128::from(v) * i128::from(e[0]);
    let mut ce = i128::from(q) * i128::from(d[0]) + i128::from(r) * i128::from(e[0]);
    md -= (P_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (P_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += i128::from(P62[0]) * i128::from(md);
    ce += i128::from(P62[0]) * i128::from(me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += i128::from(u) * i128::from(d[i])
            + i128::from(v) * i128::from(e[i])
            + i128::from(P62[i]) * i128::from(md);
        ce += i128::from(q) * i128::from(d[i])
            + i128::from(r) * i128::from(e[i])
            + i128::from(P62[i]) * i128::from(me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) ← t·(f, g)/2^62` over the live limbs; exact, since the batch
/// cleared the low 62 bits of both.
fn update_fg(f: &mut [i64], g: &mut [i64], t: &Divsteps) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let mut cf = u * i128::from(f[0]) + v * i128::from(g[0]);
    let mut cg = q * i128::from(f[0]) + r * i128::from(g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..f.len() {
        cf += u * i128::from(f[i]) + v * i128::from(g[i]);
        cg += q * i128::from(f[i]) + r * i128::from(g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[f.len() - 1] = cf as i64;
    g[g.len() - 1] = cg as i64;
}

/// Brings `r` in `(−2p, p)` to `[0, p)` with 62-bit limbs, negated first
/// when `sign` is negative.
fn normalize(mut r: Signed62, sign: i64) -> Signed62 {
    let carry = |r: &mut Signed62| {
        for i in 0..4 {
            r[i + 1] += r[i] >> 62;
            r[i] &= M62 as i64;
        }
    };
    let add_p = r[4] >> 63;
    let negate = sign >> 63;
    for (limb, p) in r.iter_mut().zip(P62) {
        *limb = ((*limb + (p & add_p)) ^ negate) - negate;
    }
    carry(&mut r);
    let add_p = r[4] >> 63;
    for (limb, p) in r.iter_mut().zip(P62) {
        *limb += p & add_p;
    }
    carry(&mut r);
    r
}

/// Multiplies two field elements modulo the P-256 prime on the dedicated
/// field element (the hot path of every point operation). Exposed so
/// external property tests can pin it against the slow binary-division
/// reduction in [`crate::bigint`].
pub fn field_mul(a: U256, b: U256) -> U256 {
    FieldElement::from_u256(a)
        .mul(&FieldElement::from_u256(b))
        .to_u256()
}

// --- group arithmetic ------------------------------------------------------

/// A scalar modulo the group order — a P-256 private key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(U256);

impl Scalar {
    /// Creates a scalar from a small integer (useful in tests/doctests).
    pub fn from_u64(v: u64) -> Self {
        Scalar(U256::from_u64(v))
    }

    /// Creates a scalar from 32 big-endian bytes, reducing modulo `n`.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        Scalar(U256::from_be_bytes(bytes).rem_short(group_order()))
    }

    /// Creates a scalar directly from a (reduced) [`U256`].
    pub fn from_u256(v: U256) -> Self {
        Scalar(v.rem_short(group_order()))
    }

    /// The reduced scalar value.
    pub fn value(&self) -> U256 {
        self.0
    }

    /// Whether the scalar is zero (an invalid private key).
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// `self · rhs mod n` by two mod-n Montgomery multiplications:
    /// `mont(a, b) = a·b·R⁻¹`, and `mont(a·b·R⁻¹, R² mod n) = a·b`.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        Scalar(mont_mul_n(mont_mul_n(self.0, rhs.0), N_R2))
    }
}

/// Montgomery multiplication modulo n: `a·b·R⁻¹ mod n` for `a, b < n`.
///
/// n has no special form, so each of the four reduction rounds multiplies
/// for its quotient `m = t[i]·(−n⁻¹) mod 2^64` and adds `m·n·2^(64i)`,
/// which clears limb `i`. The high half with the top carry is then
/// `(t + M·n)/R < 2n`, for one conditional subtraction to finish.
fn mont_mul_n(a: U256, b: U256) -> U256 {
    let n = N.limbs();
    let mut t = a.widening_mul(b).limbs_le();
    let mut top = 0u64;
    for i in 0..4 {
        let m = t[i].wrapping_mul(N_NEG_INV);
        let mut carry = 0u64;
        for j in 0..4 {
            let acc = t[i + j] as u128 + m as u128 * n[j] as u128 + carry as u128;
            t[i + j] = acc as u64;
            carry = (acc >> 64) as u64;
        }
        let acc = t[i + 4] as u128 + carry as u128 + top as u128;
        t[i + 4] = acc as u64;
        top = (acc >> 64) as u64;
    }
    let r = U256::from_limbs([t[4], t[5], t[6], t[7]]);
    if top == 1 || r >= N {
        r.overflowing_sub(N).0
    } else {
        r
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Private-key material: show a fingerprint only.
        let b = self.0.to_be_bytes();
        write!(f, "Scalar({:02x}{:02x}..)", b[0], b[1])
    }
}

/// A point on the curve in affine form (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// An affine point.
    Affine {
        /// x coordinate.
        x: U256,
        /// y coordinate.
        y: U256,
    },
}

/// An affine point inside the field layer (scalar-multiplication tables).
type AffineFe = (FieldElement, FieldElement);

/// Jacobian-coordinate point used internally: `(X, Y, Z)` with
/// `x = X/Z²`, `y = Y/Z³`; infinity encoded as `Z = 0`.
#[derive(Clone, Copy, Debug)]
struct Jacobian {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    fn from_affine_fe((x, y): AffineFe) -> Jacobian {
        Jacobian {
            x,
            y,
            z: FieldElement::ONE,
        }
    }

    fn from_affine(p: &Point) -> Jacobian {
        match p {
            Point::Infinity => Jacobian::INFINITY,
            Point::Affine { x, y } => {
                Jacobian::from_affine_fe((FieldElement::from_u256(*x), FieldElement::from_u256(*y)))
            }
        }
    }

    fn to_affine(self) -> Point {
        let Some(z_inv) = self.z.inv() else {
            return Point::Infinity;
        };
        let z_inv2 = z_inv.sq();
        let z_inv3 = z_inv2.mul(&z_inv);
        Point::Affine {
            x: self.x.mul(&z_inv2).to_u256(),
            y: self.y.mul(&z_inv3).to_u256(),
        }
    }

    /// Point doubling for a = -3 (4M + 4S): with α = 3(X - Z²)(X + Z²)
    /// and β = 4XY², `X3 = α² - 2β`, `Y3 = α(β - X3) - 8Y⁴`, `Z3 = 2YZ`.
    /// Squaring 2Y rather than Y and halving once for 8Y⁴ keeps the
    /// linear operations at ten — they cost a fifth of a multiply each,
    /// and the wNAF loop runs ~256 doublings per ECDH.
    fn double(&self) -> Jacobian {
        if self.z.is_zero() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let zz = self.z.sq();
        let t = self.x.sub(&zz).mul(&self.x.add(&zz));
        let alpha = t.double().add(&t);
        let y2 = self.y.double();
        let z3 = y2.mul(&self.z);
        let y2y2 = y2.sq(); // 4Y²
        let beta = y2y2.mul(&self.x);
        let x3 = alpha.sq().sub(&beta.double());
        let y3 = alpha.mul(&beta.sub(&x3)).sub(&y2y2.sq().half());
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition (12M + 4S): with `U1 = X1·Z2²`,
    /// `U2 = X2·Z1²`, `S1 = Y1·Z2³`, `S2 = Y2·Z1³`, `H = U2 - U1` and
    /// `R = S2 - S1`: `X3 = R² - H³ - 2U1H²`, `Y3 = R(U1H² - X3) - S1H³`,
    /// `Z3 = Z1·Z2·H`.
    fn add(&self, other: &Jacobian) -> Jacobian {
        if self.z.is_zero() {
            return *other;
        }
        if other.z.is_zero() {
            return *self;
        }
        let z1z1 = self.z.sq();
        let z2z2 = other.z.sq();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&other.z).mul(&z2z2);
        let s2 = other.y.mul(&self.z).mul(&z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        let hh = h.sq();
        let hhh = h.mul(&hh);
        let v = u1.mul(&hh);
        let x3 = r.sq().sub(&hhh).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&hhh));
        Jacobian {
            x: x3,
            y: y3,
            z: self.z.mul(&other.z).mul(&h),
        }
    }

    /// Mixed addition with an affine point: [`Self::add`] with `Z2 = 1`
    /// (8M + 3S), which saves the second point's Z powers — the reason
    /// both scalar multipliers normalize their tables to affine first.
    /// Against madd-2007-bl's 7M + 4S it trades one squaring for one
    /// multiply (the same cost here) and drops six linear operations.
    fn madd(&self, (x2, y2): AffineFe) -> Jacobian {
        if self.z.is_zero() {
            return Jacobian::from_affine_fe((x2, y2));
        }
        let z1z1 = self.z.sq();
        let u2 = x2.mul(&z1z1);
        let s2 = y2.mul(&self.z.mul(&z1z1));
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        let hh = h.sq();
        let hhh = h.mul(&hh);
        let v = self.x.mul(&hh);
        let x3 = r.sq().sub(&hhh).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&hhh));
        Jacobian {
            x: x3,
            y: y3,
            z: self.z.mul(&h),
        }
    }
}

/// Normalizes a batch of non-infinity Jacobian points to affine `(x, y)`
/// with a single field inversion (Montgomery's trick): prefix-multiply the
/// Z coordinates, invert the product once, then walk back unwinding each
/// individual inverse.
fn batch_to_affine(points: &[Jacobian]) -> Vec<AffineFe> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = FieldElement::ONE;
    for point in points {
        acc = acc.mul(&point.z);
        prefix.push(acc);
    }
    let mut inv = acc.inv().expect("batch contains no infinity");
    let mut out = vec![(FieldElement::ZERO, FieldElement::ZERO); points.len()];
    for i in (0..points.len()).rev() {
        let z_inv = if i == 0 { inv } else { inv.mul(&prefix[i - 1]) };
        inv = inv.mul(&points[i].z);
        let z_inv2 = z_inv.sq();
        out[i] = (
            points[i].x.mul(&z_inv2),
            points[i].y.mul(&z_inv2.mul(&z_inv)),
        );
    }
    out
}

// --- scalar multiplication -------------------------------------------------

/// Window width for the arbitrary-point multiplier: digits in
/// `{±1, ±3, …, ±15}`, an 8-entry odd-multiples table.
const WNAF_WIDTH: u32 = 5;

/// Width-5 NAF recoding, least-significant digit first. At most one of
/// any five consecutive digits is nonzero, so a 256-bit scalar costs
/// ~256 doubles but only ~43 additions (vs ~128 for double-and-add).
fn wnaf_digits(k: &U256) -> Vec<i8> {
    let mut limbs = k.limbs();
    let mut digits = Vec::with_capacity(257);
    while limbs != [0u64; 4] {
        let digit = if limbs[0] & 1 == 1 {
            let mut d = (limbs[0] & ((1 << WNAF_WIDTH) - 1)) as i32;
            if d >= 1 << (WNAF_WIDTH - 1) {
                d -= 1 << WNAF_WIDTH;
            }
            // Subtract the signed digit so the low WNAF_WIDTH bits clear.
            if d >= 0 {
                limbs_sub_small(&mut limbs, d as u64);
            } else {
                limbs_add_small(&mut limbs, (-d) as u64);
            }
            d as i8
        } else {
            0
        };
        digits.push(digit);
        limbs_shr1(&mut limbs);
    }
    digits
}

fn limbs_sub_small(limbs: &mut [u64; 4], v: u64) {
    let (r, mut borrow) = limbs[0].overflowing_sub(v);
    limbs[0] = r;
    for limb in limbs.iter_mut().skip(1) {
        if !borrow {
            break;
        }
        let (r, b) = limb.overflowing_sub(1);
        *limb = r;
        borrow = b;
    }
}

fn limbs_add_small(limbs: &mut [u64; 4], v: u64) {
    let (r, mut carry) = limbs[0].overflowing_add(v);
    limbs[0] = r;
    for limb in limbs.iter_mut().skip(1) {
        if !carry {
            break;
        }
        let (r, c) = limb.overflowing_add(1);
        *limb = r;
        carry = c;
    }
}

fn limbs_shr1(limbs: &mut [u64; 4]) {
    for i in 0..4 {
        limbs[i] = (limbs[i] >> 1) | if i < 3 { limbs[i + 1] << 63 } else { 0 };
    }
}

/// Windowed-NAF scalar multiplication for an arbitrary base point.
fn mul_wnaf(base: &Point, k: &U256) -> Point {
    if *base == Point::Infinity || k.is_zero() {
        return Point::Infinity;
    }
    let base_jac = Jacobian::from_affine(base);
    let twice = base_jac.double();
    if twice.z.is_zero() {
        // y = 0: a 2-torsion input (impossible on P-256 itself, but `mul`
        // accepts arbitrary coordinates). Fall back to the reference.
        return base.mul_double_and_add(&Scalar(*k));
    }
    // Odd multiples 1·B, 3·B, …, 15·B, normalized to affine for madd.
    let mut odd = Vec::with_capacity(1 << (WNAF_WIDTH - 2));
    odd.push(base_jac);
    for i in 1..1 << (WNAF_WIDTH - 2) {
        let prev: &Jacobian = &odd[i - 1];
        odd.push(prev.add(&twice));
    }
    let table = batch_to_affine(&odd);
    let mut acc = Jacobian::INFINITY;
    for &digit in wnaf_digits(k).iter().rev() {
        acc = acc.double();
        if digit > 0 {
            acc = acc.madd(table[(digit as usize - 1) / 2]);
        } else if digit < 0 {
            let (x, y) = table[((-digit) as usize - 1) / 2];
            acc = acc.madd((x, y.neg()));
        }
    }
    acc.to_affine()
}

/// Fixed-base windows: 43 signed 6-bit digits cover the 256-bit scalar
/// (258 bits), each in `[−31, 32]`.
const FB_WINDOWS: usize = 43;
/// Entries per window: `j · 64^w · G` for `j` in 1..=32; a negative digit
/// takes entry `−j` with y negated.
const FB_TABLE_PER_WINDOW: usize = 32;

static GEN_TABLE: OnceLock<Vec<AffineFe>> = OnceLock::new();

/// The precomputed generator table, 43 × 32 affine points (86 KiB). Built
/// once per process (1333 additions, 43 doublings and one batched
/// inversion), it turns every subsequent `k·G` into at most 43 mixed
/// additions with no doubles at all: every key generation and, through
/// [`DhMemo`]'s registry, every in-world DHKey.
fn gen_table() -> &'static [AffineFe] {
    GEN_TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(FB_WINDOWS * FB_TABLE_PER_WINDOW);
        let mut window_base = Jacobian::from_affine(&generator());
        for _ in 0..FB_WINDOWS {
            // multiple walks j·(64^w·G) for j = 1..=32; doubling the last
            // yields 64·(64^w·G), the next window's base.
            let mut multiple = window_base;
            points.push(multiple);
            for _ in 1..FB_TABLE_PER_WINDOW {
                multiple = multiple.add(&window_base);
                points.push(multiple);
            }
            window_base = multiple.double();
        }
        batch_to_affine(&points)
    })
}

/// Fixed-base scalar multiplication `k·G` via the precomputed table.
///
/// Each 6-bit window plus the carry from below is a value in `0..=64`; a
/// value above 32 becomes the digit `value − 64` with a carry of one into
/// the next window, so digits fall in `[−31, 32]`. The top window holds
/// bits 252..=255 and at most a carry, so it ends the recoding without
/// one.
fn mul_generator(k: &U256) -> Point {
    let table = gen_table();
    let limbs = k.limbs();
    let mut acc = Jacobian::INFINITY;
    let mut carry = 0u64;
    for (window, entries) in table.chunks_exact(FB_TABLE_PER_WINDOW).enumerate() {
        let (limb, shift) = (window * 6 / 64, window * 6 % 64);
        let mut bits = limbs[limb] >> shift;
        if shift > 58 && limb < 3 {
            bits |= limbs[limb + 1] << (64 - shift);
        }
        let value = (bits & 63) + carry;
        carry = u64::from(value > 32);
        let digit = value as i64 - ((carry as i64) << 6);
        if digit > 0 {
            acc = acc.madd(entries[digit as usize - 1]);
        } else if digit < 0 {
            let (x, y) = entries[digit.unsigned_abs() as usize - 1];
            acc = acc.madd((x, y.neg()));
        }
    }
    debug_assert_eq!(carry, 0, "the top window leaves no carry");
    acc.to_affine()
}

impl Point {
    /// The affine x-coordinate, if not the point at infinity.
    pub fn x(&self) -> Option<U256> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, .. } => Some(*x),
        }
    }

    /// The affine y-coordinate, if not the point at infinity.
    pub fn y(&self) -> Option<U256> {
        match self {
            Point::Infinity => None,
            Point::Affine { y, .. } => Some(*y),
        }
    }

    /// Validates that the point satisfies `y² = x³ - 3x + b (mod p)` with
    /// both coordinates in range.
    ///
    /// Skipping this check is exactly the "fixed coordinate invalid curve
    /// attack" (Biham & Neumann) referenced in the paper's related work; the
    /// simulated controller always validates remote public keys.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let p = field_prime();
                if *x >= p || *y >= p {
                    return false;
                }
                let (x, y) = (FieldElement::from_u256(*x), FieldElement::from_u256(*y));
                let x3 = x.sq().mul(&x);
                let three_x = x.double().add(&x);
                y.sq() == x3.sub(&three_x).add(&B)
            }
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        Jacobian::from_affine(self)
            .add(&Jacobian::from_affine(other))
            .to_affine()
    }

    /// Scalar multiplication.
    ///
    /// Dispatches to the precomputed fixed-base table when `self` is the
    /// curve generator (key generation) and to width-5 windowed-NAF
    /// otherwise (an ECDH against a key no [`DhMemo`] registered). Both
    /// are pinned property-test-equal to [`Self::mul_double_and_add`].
    pub fn mul(&self, k: &Scalar) -> Point {
        let _prof = blap_obs::prof::scope("crypto.p256");
        if *self == generator() {
            return mul_generator(&k.0);
        }
        mul_wnaf(self, &k.0)
    }

    /// Scalar multiplication by textbook double-and-add, most-significant
    /// bit first. Retained as the independently-auditable reference that
    /// `tests/parallel_determinism.rs` pins [`Self::mul`] against.
    pub fn mul_double_and_add(&self, k: &Scalar) -> Point {
        let base = Jacobian::from_affine(self);
        let mut acc = Jacobian::INFINITY;
        let bits = k.0.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.0.bit(i) {
                acc = acc.add(&base);
            }
        }
        acc.to_affine()
    }
}

/// Errors from key-pair construction and ECDH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdhError {
    /// The private scalar was zero (or reduced to zero).
    InvalidSecret,
    /// The remote public key failed curve validation.
    InvalidPublicKey,
    /// The shared point was the point at infinity.
    DegenerateSharedSecret,
}

impl fmt::Display for EcdhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdhError::InvalidSecret => f.write_str("private scalar is zero"),
            EcdhError::InvalidPublicKey => f.write_str("remote public key is not on the curve"),
            EcdhError::DegenerateSharedSecret => {
                f.write_str("shared secret degenerated to the point at infinity")
            }
        }
    }
}

impl std::error::Error for EcdhError {}

/// A P-256 key pair.
///
/// # Examples
///
/// ```
/// use blap_crypto::p256::{KeyPair, Scalar};
///
/// let alice = KeyPair::from_secret(Scalar::from_u64(7))?;
/// let bob = KeyPair::from_secret(Scalar::from_u64(11))?;
/// assert_eq!(
///     alice.diffie_hellman(&bob.public())?,
///     bob.diffie_hellman(&alice.public())?,
/// );
/// # Ok::<(), blap_crypto::p256::EcdhError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: Scalar,
    public: Point,
}

impl KeyPair {
    /// Builds a key pair from a private scalar.
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidSecret`] when the scalar is zero.
    pub fn from_secret(secret: Scalar) -> Result<Self, EcdhError> {
        if secret.is_zero() {
            return Err(EcdhError::InvalidSecret);
        }
        let public = generator().mul(&secret);
        Ok(KeyPair { secret, public })
    }

    /// Builds a key pair from 32 bytes of RNG output (reduced mod `n`).
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidSecret`] in the (cryptographically
    /// negligible) case the bytes reduce to zero.
    pub fn from_rng_bytes(bytes: [u8; 32]) -> Result<Self, EcdhError> {
        KeyPair::from_secret(Scalar::from_be_bytes(bytes))
    }

    /// The public point.
    pub fn public(&self) -> Point {
        self.public
    }

    /// Computes the ECDH shared secret: the big-endian x-coordinate of
    /// `secret · remote_public`, the `DHKey` of the SSP protocol.
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidPublicKey`] when the remote point fails
    /// curve validation, and [`EcdhError::DegenerateSharedSecret`] when the
    /// multiplication lands on the point at infinity.
    pub fn diffie_hellman(&self, remote_public: &Point) -> Result<[u8; 32], EcdhError> {
        validate_public_key(remote_public)?;
        dhkey_of(remote_public.mul(&self.secret))
    }
}

/// The remote-key check both ECDH entry points run first: on the curve and
/// not the point at infinity.
fn validate_public_key(remote_public: &Point) -> Result<(), EcdhError> {
    if !remote_public.is_on_curve() || *remote_public == Point::Infinity {
        return Err(EcdhError::InvalidPublicKey);
    }
    Ok(())
}

/// The DHKey bytes of a shared point: its big-endian x-coordinate.
fn dhkey_of(shared: Point) -> Result<[u8; 32], EcdhError> {
    shared
        .x()
        .map(|x| x.to_be_bytes())
        .ok_or(EcdhError::DegenerateSharedSecret)
}

/// One memoized exchange: the computing end's public key, the peer key it
/// was computed against, and the DHKey.
#[derive(Clone, Copy)]
struct DhEntry {
    own: Point,
    peer: Point,
    dhkey: [u8; 32],
}

/// One ECDH per pairing, as one fixed-base multiplication: both ends of
/// an SSP exchange compute the same point, `x·(y·G) = y·(x·G)`, so the
/// end that computes second takes the first end's DHKey; and when both
/// key pairs were drawn in the same world, that point is `(x·y mod n)·G`.
///
/// - [`DhMemo::register`] records a key pair the world drew, so its
///   public key is known to derive from its secret. At most
///   [`DhMemo::KEY_CAPACITY`] live in a fixed array; a full registry
///   evicts its oldest.
/// - [`DhMemo::diffie_hellman`] validates the remote key exactly as
///   [`KeyPair::diffie_hellman`] does, before any lookup, so an off-curve
///   key or infinity never enters the memo and never hits.
/// - A miss on the exchanges computes the DHKey: by the generator table
///   on `own·r mod n` when `remote` is a registered public key with
///   secret `r`, by the windowed-NAF multiplier on any other key (a
///   test's, or a peer's the world did not draw). It records (own public
///   key, peer public key, DHKey). A later call hits only when its remote
///   key is an entry's own key and its own public key is that entry's
///   peer key. Every [`KeyPair`] derives its public key from its secret,
///   so a hit or a registered product returns exactly the bytes this end
///   would have computed; debug builds recompute both by the windowed-NAF
///   multiplier and assert it.
/// - A hit removes its entry. At most [`DhMemo::CAPACITY`] entries live
///   in a fixed array, and a full memo evicts its oldest: a miss only
///   recomputes, so eviction never changes a byte, and a peer that opens
///   pairings without finishing them cannot grow the memo.
/// - Nothing goes on the heap, and the memo dies with its world, so no
///   secret outlives the trial that drew it.
///
/// # Examples
///
/// ```
/// use blap_crypto::p256::{DhMemo, KeyPair, Scalar};
///
/// let alice = KeyPair::from_secret(Scalar::from_u64(7))?;
/// let bob = KeyPair::from_secret(Scalar::from_u64(11))?;
/// let mut memo = DhMemo::new();
/// memo.register(&alice);
/// let first = memo.diffie_hellman(&bob, &alice.public())?; // (11·7)·G
/// let second = memo.diffie_hellman(&alice, &bob.public())?; // reuses
/// assert_eq!(first, second);
/// assert_eq!(first, alice.diffie_hellman(&bob.public())?);
/// assert!(memo.is_empty());
/// # Ok::<(), blap_crypto::p256::EcdhError>(())
/// ```
pub struct DhMemo {
    /// Live entries, oldest first, in `entries[..len]`.
    entries: [DhEntry; DhMemo::CAPACITY],
    len: usize,
    /// Registered key pairs, oldest first, in `keys[..keys_len]`.
    keys: [KeyPair; DhMemo::KEY_CAPACITY],
    keys_len: usize,
}

impl fmt::Debug for DhMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // DHKeys and secrets are key material: show only how many are held.
        f.debug_struct("DhMemo")
            .field("len", &self.len)
            .field("registered", &self.keys_len)
            .finish()
    }
}

impl Default for DhMemo {
    fn default() -> Self {
        DhMemo::new()
    }
}

impl DhMemo {
    /// How many exchanges the memo holds before it evicts the oldest.
    pub const CAPACITY: usize = 4;
    /// How many key pairs the registry holds before it evicts the oldest.
    pub const KEY_CAPACITY: usize = 8;

    /// An empty memo.
    pub const fn new() -> Self {
        const VACANT: DhEntry = DhEntry {
            own: Point::Infinity,
            peer: Point::Infinity,
            dhkey: [0; 32],
        };
        const VACANT_KEY: KeyPair = KeyPair {
            secret: Scalar(U256::ZERO),
            public: Point::Infinity,
        };
        DhMemo {
            entries: [VACANT; DhMemo::CAPACITY],
            len: 0,
            keys: [VACANT_KEY; DhMemo::KEY_CAPACITY],
            keys_len: 0,
        }
    }

    /// How many exchanges are waiting for their other end.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no exchange is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many key pairs are registered.
    pub fn registered(&self) -> usize {
        self.keys_len
    }

    /// Registers a key pair drawn in this memo's world, so a later
    /// exchange against its public key runs as a fixed-base
    /// multiplication. A full registry evicts its oldest pair.
    pub fn register(&mut self, pair: &KeyPair) {
        if self.keys_len == DhMemo::KEY_CAPACITY {
            self.keys.rotate_left(1);
            self.keys_len -= 1;
        }
        self.keys[self.keys_len] = pair.clone();
        self.keys_len += 1;
    }

    /// [`KeyPair::diffie_hellman`] for `own` against `remote`, taking the
    /// DHKey from the other end's earlier call when there was one, and
    /// from the generator table when `remote` is registered.
    ///
    /// # Errors
    ///
    /// As [`KeyPair::diffie_hellman`]; an error leaves the memo unchanged.
    pub fn diffie_hellman(&mut self, own: &KeyPair, remote: &Point) -> Result<[u8; 32], EcdhError> {
        validate_public_key(remote)?;
        let mine = own.public();
        let live = &self.entries[..self.len];
        if let Some(i) = live.iter().position(|e| e.own == *remote && e.peer == mine) {
            let dhkey = self.entries[i].dhkey;
            self.entries.copy_within(i + 1..self.len, i);
            self.len -= 1;
            debug_assert_eq!(
                Ok(dhkey),
                dhkey_of(mul_wnaf(remote, &own.secret.0)),
                "memoized DHKey differs from this end's own"
            );
            return Ok(dhkey);
        }
        let registered = self.keys[..self.keys_len]
            .iter()
            .find(|pair| pair.public == *remote);
        let dhkey = match registered {
            Some(peer) => {
                let shared = {
                    let _prof = blap_obs::prof::scope("crypto.p256");
                    mul_generator(&own.secret.mul(&peer.secret).0)
                };
                debug_assert_eq!(
                    shared,
                    mul_wnaf(remote, &own.secret.0),
                    "registered DHKey differs from this end's own"
                );
                dhkey_of(shared)?
            }
            None => dhkey_of(remote.mul(&own.secret))?,
        };
        if self.len == DhMemo::CAPACITY {
            self.entries.copy_within(1.., 0);
            self.len -= 1;
        }
        self.entries[self.len] = DhEntry {
            own: mine,
            peer: *remote,
            dhkey,
        };
        self.len += 1;
        Ok(dhkey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `R mod p = 2^256 − p`.
    fn r_mod_p() -> U256 {
        U256::ZERO.overflowing_sub(field_prime()).0
    }

    /// The oracle for the Montgomery reduction of a raw 512-bit value
    /// `t = hi·2^256 + lo`: `t mod p` by binary long division on
    /// `hi·(2^256 mod p) + lo`, times `R⁻¹ mod p`.
    fn oracle_reduce(t: [u64; 8]) -> U256 {
        let p = field_prime();
        let r = r_mod_p();
        let hi = U256::from_limbs([t[4], t[5], t[6], t[7]]);
        let lo = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        let t_mod_p = hi.mul_mod(r, p).add_mod(lo.rem_short(p), p);
        t_mod_p.mul_mod(r.inv_mod_prime(p).expect("R is invertible"), p)
    }

    /// `hi·2^256 + lo` as eight little-endian limbs.
    fn wide(hi: U256, lo: U256) -> [u64; 8] {
        let (hi, lo) = (hi.limbs(), lo.limbs());
        [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
    }

    #[test]
    fn montgomery_reduction_matches_oracle_at_its_edges() {
        let p = field_prime();
        let p_minus_1 = p.overflowing_sub(U256::ONE).0;
        let max = U256::from_limbs([u64::MAX; 4]);
        let half = U256::from_limbs([0, 0, 0, 1 << 63]);
        // (input, top carry set, final subtraction fires). The rounds
        // leave (t + m·p)/R < 2p: at or above 2^256 the top carry is set
        // and the subtraction must fire; in [p, 2^256) it fires on the
        // comparison alone; below p it must not fire.
        let cases = [
            ("0", [0; 8], false, false),
            ("1", wide(U256::ZERO, U256::ONE), false, false),
            (
                "(p-1)^2",
                p_minus_1.widening_mul(p_minus_1).limbs_le(),
                false,
                false,
            ),
            // p·R − 1 = (p−1)·2^256 + (2^256 − 1): the largest valid input.
            ("p*R - 1", wide(p_minus_1, max), false, true),
            ("(p-1)*R", wide(p_minus_1, U256::ZERO), false, false),
            ("(p-1)*R + 1", wide(p_minus_1, U256::ONE), true, true),
            ("2^255*R + 1", wide(half, U256::ONE), true, true),
            ("2^255*R + R - 1", wide(half, max), false, false),
        ];
        for (name, t, carry, fires) in cases {
            let (r, top) = montgomery_rounds(t);
            assert_eq!(top == 1, carry, "top carry for {name}");
            assert_eq!(
                top == 1 || U256::from_limbs(r) >= p,
                fires,
                "subtraction for {name}"
            );
            let reduced = U256::from_limbs(reduce(t).0);
            assert_eq!(reduced, oracle_reduce(t), "t·R⁻¹ mod p for {name}");
            assert!(reduced < p, "canonical output for {name}");
        }
    }

    #[test]
    fn montgomery_constants_match_oracle() {
        let p = field_prime();
        let r = r_mod_p();
        assert_eq!(U256::from_limbs(R2.0), r.mul_mod(r, p), "R² = 2^512 mod p");
        assert_eq!(
            U256::from_limbs(FieldElement::ONE.0),
            r,
            "ONE = 2^256 mod p"
        );
        assert_eq!(FieldElement::ONE.to_u256(), U256::ONE);
        let b = U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
        assert_eq!(B, FieldElement::from_u256(b), "B = from_u256(b)");
        assert_eq!(U256::from_limbs(B.0), b.mul_mod(r, p), "B = b·2^256 mod p");
        assert_eq!(B.to_u256(), b);
        let r3 = r.mul_mod(r, p).mul_mod(r, p);
        assert_eq!(U256::from_limbs(R3.0), r3, "R³ = 2^768 mod p");
        let n = group_order();
        let r_n = U256::ZERO.overflowing_sub(n).0;
        assert_eq!(N_R2, r_n.mul_mod(r_n, n), "2^512 mod n");
        assert_eq!(
            N_NEG_INV.wrapping_mul(n.limbs()[0]),
            u64::MAX,
            "−n⁻¹·n ≡ −1 (mod 2^64)"
        );
        assert_eq!(P_INV62.wrapping_mul(P[0]) & M62, 1, "p⁻¹·p ≡ 1 (mod 2^62)");
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(generator().is_on_curve());
    }

    #[test]
    fn infinity_is_identity() {
        let g = generator();
        assert_eq!(g.add(&Point::Infinity), g);
        assert_eq!(Point::Infinity.add(&g), g);
        assert!(Point::Infinity.is_on_curve());
    }

    #[test]
    fn group_order_annihilates_generator() {
        let n = Scalar(group_order());
        assert_eq!(generator().mul(&n), Point::Infinity);
    }

    #[test]
    fn doubling_matches_addition() {
        let g = generator();
        let two_g = g.mul(&Scalar::from_u64(2));
        assert_eq!(two_g, g.add(&g));
        assert!(two_g.is_on_curve());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = generator();
        let five = g.mul(&Scalar::from_u64(5));
        let two_plus_three = g
            .mul(&Scalar::from_u64(2))
            .add(&g.mul(&Scalar::from_u64(3)));
        assert_eq!(five, two_plus_three);
        assert!(five.is_on_curve());
    }

    #[test]
    fn negation_gives_infinity() {
        let g = generator();
        if let Point::Affine { x, y } = g {
            let neg = Point::Affine {
                x,
                y: field_prime().overflowing_sub(y).0,
            };
            assert!(neg.is_on_curve());
            assert_eq!(g.add(&neg), Point::Infinity);
        } else {
            panic!("generator must be affine");
        }
    }

    #[test]
    fn ecdh_agreement() {
        let a = KeyPair::from_secret(Scalar::from_be_bytes([0x42; 32])).unwrap();
        let b = KeyPair::from_secret(Scalar::from_be_bytes([0x17; 32])).unwrap();
        let s1 = a.diffie_hellman(&b.public()).unwrap();
        let s2 = b.diffie_hellman(&a.public()).unwrap();
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u8; 32]);
    }

    #[test]
    fn invalid_public_key_rejected() {
        let a = KeyPair::from_secret(Scalar::from_u64(99)).unwrap();
        let bogus = Point::Affine {
            x: U256::from_u64(1),
            y: U256::from_u64(1),
        };
        assert_eq!(a.diffie_hellman(&bogus), Err(EcdhError::InvalidPublicKey));
        assert_eq!(
            a.diffie_hellman(&Point::Infinity),
            Err(EcdhError::InvalidPublicKey)
        );
    }

    #[test]
    fn zero_secret_rejected() {
        assert_eq!(
            KeyPair::from_secret(Scalar::from_u64(0)).unwrap_err(),
            EcdhError::InvalidSecret
        );
    }

    #[test]
    fn scalar_reduces_mod_order() {
        // n + 5 reduces to 5.
        let (n_plus_5, carry) = group_order().overflowing_add(U256::from_u64(5));
        assert!(!carry);
        let s = Scalar::from_be_bytes(n_plus_5.to_be_bytes());
        assert_eq!(s.value(), U256::from_u64(5));
    }

    #[test]
    fn public_points_lie_on_curve() {
        for seed in 1..6u64 {
            let kp = KeyPair::from_secret(Scalar::from_u64(seed * 7919)).unwrap();
            assert!(kp.public().is_on_curve(), "seed {seed}");
        }
    }

    #[test]
    fn halving_inverts_doubling() {
        let p_minus_1 = FieldElement::from_u256(field_prime().overflowing_sub(U256::ONE).0);
        for v in [FieldElement::ZERO, FieldElement::ONE, p_minus_1, B] {
            assert_eq!(v.half().double(), v, "{v:?}");
            assert_eq!(v.double().half(), v, "{v:?}");
        }
    }

    #[test]
    fn field_inversion() {
        let a = FieldElement::from_u256(U256::from_hex(
            "123456789abcdef000000000000000000000000000000000fedcba9876543210",
        ));
        let inv = a.inv().unwrap();
        assert_eq!(a.mul(&inv), FieldElement::ONE);
        assert_eq!(FieldElement::ZERO.inv(), None);
    }
}
