//! NIST P-256 (secp256r1) elliptic-curve Diffie-Hellman.
//!
//! Secure Simple Pairing's Authentication Stage 1 exchanges P-256 public
//! keys (P-192 for pre-4.1 devices); the shared secret `DHKey` feeds the
//! `f2` link-key derivation. This module implements the curve from its
//! domain parameters: a dedicated field element ([`FieldElement`]: 4×u64
//! canonical limbs, hardcoded Solinas fold, branch-free add/sub,
//! addition-chain inversion), Jacobian-coordinate group arithmetic,
//! windowed-NAF scalar multiplication (with a precomputed fixed-base table
//! for the generator), and public-key validation (the check whose absence
//! enabled the Biham–Neumann invalid-curve attack cited by the paper).
//! [`U256`] appears only at the public boundary: point coordinates,
//! scalars, [`field_mul`] and the DHKey bytes.
//!
//! Correctness is established structurally: every field operation is
//! property-tested against the slow binary long division in
//! [`crate::bigint`], the wNAF and fixed-base multipliers against the
//! retained [`Point::mul_double_and_add`] reference, the generator
//! satisfies the curve equation, `n·G = ∞`, scalar multiplication
//! distributes over scalar addition, and ECDH agreement holds for
//! arbitrary key pairs.

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
const B: FieldElement = FieldElement([
    0x3bce_3c3e_27d2_604b,
    0x651d_06b0_cc53_b0f6,
    0xb3eb_bd55_7698_86bc,
    0x5ac6_35d8_aa3a_93e7,
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

/// An element of the P-256 base field: four little-endian `u64` limbs,
/// always canonical (`< p`).
///
/// Canonical limbs rather than Montgomery form make conversion to and from
/// [`U256`] a copy, so coordinates and DHKey bytes leave the field exactly
/// as its limbs hold them. `add`/`sub`/`double`/`neg` select with masks
/// instead of branching; `mul`/`sq` accumulate schoolbook rows of u128
/// limb products and fold the 512-bit result with a straight-line Solinas
/// reduction; `inv` runs a fixed 255-squaring, 12-multiply
/// addition chain. The slow paths in [`crate::bigint`] (`mul_mod`,
/// `add_mod`, `sub_mod`, `inv_mod_prime`) are the oracle these are
/// property-tested against.
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

/// Solinas reduction of a 512-bit little-endian value modulo p.
///
/// Over 32-bit words `c0..c15` the FIPS 186 decomposition gives
/// `s1 + 2s2 + 2s3 + s4 + s5 - s6 - s7 - s8 - s9`; each output word below
/// is that sum restricted to one word position, plus the matching word of
/// `5p`, which keeps the total positive (the four subtracted terms are
/// below `4·2^256 < 5p`) and below `12·2^256`. The first carry pass leaves
/// a carry `k` in `0..=11` at `2^256`; folding `k·2^256 ≡ k·(2^224 - 2^192
/// - 2^96 + 1)` and a second pass leave a value below `2^256 + 11·2^224`,
/// i.e. below `2p`, for one masked conditional subtraction to finish.
#[inline(always)]
fn reduce(t: [u64; 8]) -> FieldElement {
    const LO: i64 = 0xffff_ffff;
    let lo = |w: u64| (w & 0xffff_ffff) as i64;
    let hi = |w: u64| (w >> 32) as i64;
    let (c0, c1, c2, c3) = (lo(t[0]), hi(t[0]), lo(t[1]), hi(t[1]));
    let (c4, c5, c6, c7) = (lo(t[2]), hi(t[2]), lo(t[3]), hi(t[3]));
    let (c8, c9, c10, c11) = (lo(t[4]), hi(t[4]), lo(t[5]), hi(t[5]));
    let (c12, c13, c14, c15) = (lo(t[6]), hi(t[6]), lo(t[7]), hi(t[7]));

    // Word sums; the words of 5p are (5·LO, 5, 0, 0, 0, 5·LO, 5·LO, 5·LO)
    // from high to low.
    let a0 = c0 + c8 + c9 - c11 - c12 - c13 - c14 + 5 * LO;
    let a1 = c1 + c9 + c10 - c12 - c13 - c14 - c15 + 5 * LO;
    let a2 = c2 + c10 + c11 - c13 - c14 - c15 + 5 * LO;
    let a3 = c3 + 2 * (c11 + c12) + c13 - c15 - c8 - c9;
    let a4 = c4 + 2 * (c12 + c13) + c14 - c9 - c10;
    let a5 = c5 + 2 * (c13 + c14) + c15 - c10 - c11;
    let a6 = c6 + 3 * c14 + 2 * c15 + c13 - c8 - c9 + 5;
    let a7 = c7 + 3 * c15 + c8 - c10 - c11 - c12 - c13 + 5 * LO;

    // First carry pass (arithmetic shifts carry the sign).
    let a1 = a1 + (a0 >> 32);
    let a2 = a2 + (a1 >> 32);
    let a3 = a3 + (a2 >> 32);
    let a4 = a4 + (a3 >> 32);
    let a5 = a5 + (a4 >> 32);
    let a6 = a6 + (a5 >> 32);
    let a7 = a7 + (a6 >> 32);
    let k = a7 >> 32;

    // Fold k·2^256 and run the second pass.
    let b0 = (a0 & LO) + k;
    let b1 = (a1 & LO) + (b0 >> 32);
    let b2 = (a2 & LO) + (b1 >> 32);
    let b3 = (a3 & LO) - k + (b2 >> 32);
    let b4 = (a4 & LO) + (b3 >> 32);
    let b5 = (a5 & LO) + (b4 >> 32);
    let b6 = (a6 & LO) - k + (b5 >> 32);
    let b7 = (a7 & LO) + k + (b6 >> 32);
    let carry = (b7 >> 32) as u64;

    let word = |l: i64, h: i64| (l & LO) as u64 | ((h & LO) as u64) << 32;
    sub_p_unless_below(
        [word(b0, b1), word(b2, b3), word(b4, b5), word(b6, b7)],
        carry,
    )
}

impl FieldElement {
    /// Zero.
    pub const ZERO: FieldElement = FieldElement([0; 4]);
    /// One.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// Reduces a 256-bit value modulo p (one conditional subtraction:
    /// every 256-bit value is below `2p`).
    pub fn from_u256(v: U256) -> Self {
        sub_p_unless_below(v.limbs(), 0)
    }

    /// The canonical value as a [`U256`].
    pub fn to_u256(self) -> U256 {
        U256::from_limbs(self.0)
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
    /// into the 512-bit product, then the Solinas fold.
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

    /// `self^(2^n)`: `n` successive squarings.
    fn sq_n(&self, n: u32) -> Self {
        let mut r = *self;
        for _ in 0..n {
            r = r.sq();
        }
        r
    }

    /// Multiplicative inverse (`None` for zero) as `self^(p-2)` by the
    /// addition chain for `p - 2 = 2^256 - 2^224 + 2^192 + 2^96 - 3`:
    /// 255 squarings and 12 multiplications. `xk` is `self^(2^k - 1)`.
    pub fn inv(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let x2 = self.sq().mul(self);
        let x3 = x2.sq().mul(self);
        let x6 = x3.sq_n(3).mul(&x3);
        let x12 = x6.sq_n(6).mul(&x6);
        let x15 = x12.sq_n(3).mul(&x3);
        let x16 = x15.sq().mul(self);
        let x32 = x16.sq_n(16).mul(&x16);
        let i53 = x32.sq_n(15);
        let x47 = i53.mul(&x15);
        let i263 = i53.sq_n(17).mul(self).sq_n(143).mul(&x47).sq_n(47);
        Some(i263.mul(&x47).sq_n(2).mul(self))
    }
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

/// Fixed-base window width: 4-bit digits, 64 windows, 15 odd+even entries
/// per window (`j · 16^w · G` for `j` in 1..=15).
const FB_WINDOWS: usize = 64;
const FB_TABLE_PER_WINDOW: usize = 15;

static GEN_TABLE: OnceLock<Vec<AffineFe>> = OnceLock::new();

/// The precomputed generator table. Built once per process (~1k group
/// additions + one batched inversion), it turns every subsequent `k·G`
/// into at most 64 mixed additions with no doubles at all — keygen is the
/// hot path of every simulated pairing, one per device per trial.
fn gen_table() -> &'static [AffineFe] {
    GEN_TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(FB_WINDOWS * FB_TABLE_PER_WINDOW);
        let mut window_base = Jacobian::from_affine(&generator());
        for _ in 0..FB_WINDOWS {
            // multiple walks j·(16^w·G) for j = 1..=15; one more addition
            // yields 16·(16^w·G), the next window's base.
            let mut multiple = window_base;
            for _ in 0..FB_TABLE_PER_WINDOW {
                points.push(multiple);
                multiple = multiple.add(&window_base);
            }
            window_base = multiple;
        }
        batch_to_affine(&points)
    })
}

/// Fixed-base scalar multiplication `k·G` via the precomputed table.
fn mul_generator(k: &U256) -> Point {
    let table = gen_table();
    let limbs = k.limbs();
    let mut acc = Jacobian::INFINITY;
    for window in 0..FB_WINDOWS {
        let digit = ((limbs[window / 16] >> (4 * (window % 16))) & 0xf) as usize;
        if digit != 0 {
            acc = acc.madd(table[window * FB_TABLE_PER_WINDOW + digit - 1]);
        }
    }
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
    /// curve generator (the keygen hot path) and to width-5 windowed-NAF
    /// otherwise (the ECDH hot path). Both are pinned property-test-equal
    /// to [`Self::mul_double_and_add`].
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
        if !remote_public.is_on_curve() || *remote_public == Point::Infinity {
            return Err(EcdhError::InvalidPublicKey);
        }
        let shared = remote_public.mul(&self.secret);
        match shared.x() {
            Some(x) => Ok(x.to_be_bytes()),
            None => Err(EcdhError::DegenerateSharedSecret),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle for a raw 512-bit value `hi·2^256 + lo`: binary long
    /// division on `hi·(2^256 mod p) + lo`.
    fn oracle_reduce(t: [u64; 8]) -> U256 {
        let p = field_prime();
        let hi = U256::from_limbs([t[4], t[5], t[6], t[7]]);
        let lo = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        let two_256_mod_p = U256::ZERO.overflowing_sub(p).0;
        hi.mul_mod(two_256_mod_p, p).add_mod(lo.rem_short(p), p)
    }

    /// Places 32-bit words `c0..c15` into eight little-endian limbs.
    fn from_words(c: [u32; 16]) -> [u64; 8] {
        std::array::from_fn(|i| c[2 * i] as u64 | (c[2 * i + 1] as u64) << 32)
    }

    #[test]
    fn fast_reduction_matches_binary_division() {
        // Pin the straight-line Solinas fold against the audited-slow path.
        let samples = [
            U256::from_u64(0),
            U256::from_u64(1),
            U256::from_hex("deadbeefcafebabe0123456789abcdef0fedcba9876543211122334455667788"),
            field_prime().overflowing_sub(U256::ONE).0,
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
        ];
        for a in samples {
            for b in samples {
                let limbs = a.widening_mul(b).limbs_le();
                assert_eq!(
                    reduce(limbs).to_u256(),
                    oracle_reduce(limbs),
                    "mismatch for {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn reduction_survives_extreme_accumulators() {
        const M: u32 = u32::MAX;
        // The largest 512-bit input.
        let all_ones = [u64::MAX; 8];
        // c9..c13 zero, every other word maximal: the top word sum `a7`
        // reaches `5·2^32` and the first-pass carry its maximum, 9 (+4
        // without the 5p bias; searched over all {0, 2^32-1} patterns).
        let mut most_positive = [M; 16];
        for w in &mut most_positive[9..=13] {
            *w = 0;
        }
        // c9..c13 maximal, every other word zero: `a7` reaches `-4·2^32`
        // and the carry its minimum, 0 (-4 without the bias).
        let mut most_negative = [0u32; 16];
        for w in &mut most_negative[9..=13] {
            *w = M;
        }
        for t in [
            all_ones,
            [0; 8],
            from_words(most_positive),
            from_words(most_negative),
            [u64::MAX, 0, u64::MAX, 0, u64::MAX, 0, u64::MAX, 0],
            [0, u64::MAX, 0, u64::MAX, 0, u64::MAX, 0, u64::MAX],
        ] {
            assert_eq!(reduce(t).to_u256(), oracle_reduce(t), "limbs {t:x?}");
        }
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
