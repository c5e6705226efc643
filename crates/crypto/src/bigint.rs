//! Minimal 256-bit unsigned integer arithmetic: the audited oracle for the
//! P-256 field, not its hot path.
//!
//! The representation is four little-endian `u64` limbs. Reduction is a
//! straightforward binary long division ([`U512::rem`]), and modular
//! multiplication, exponentiation and inversion ([`U256::mul_mod`],
//! [`U256::pow_mod`], [`U256::inv_mod_prime`]) are built on it —
//! generic over the modulus, slow, and simple enough to check by eye.
//! Curve arithmetic runs on the dedicated
//! [`FieldElement`](crate::p256::FieldElement) instead; this module's
//! modular paths exist so property tests can pin every field operation
//! against an independent implementation. [`U256`] itself is also the
//! public boundary type for coordinates, scalars and DHKey bytes.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer (four little-endian 64-bit limbs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// One.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        #[allow(clippy::needless_range_loop)]
        for (i, limb) in limbs.iter_mut().enumerate() {
            let offset = 32 - 8 * (i + 1);
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[offset..offset + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            let offset = 32 - 8 * (i + 1);
            out[offset..offset + 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Parses a big-endian hex string of at most 64 digits.
    ///
    /// # Panics
    ///
    /// Panics on invalid hex; intended for compile-time-known constants.
    pub fn from_hex(hex: &str) -> Self {
        assert!(hex.len() <= 64, "hex literal longer than 256 bits");
        let mut bytes = [0u8; 32];
        let padded = format!("{hex:0>64}");
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("invalid hex digit");
        }
        U256::from_be_bytes(bytes)
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Whether the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition; returns `(sum, carry)`.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        #[allow(clippy::needless_range_loop)] // indexes three arrays in lockstep
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping subtraction; returns `(difference, borrow)`.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        #[allow(clippy::needless_range_loop)] // indexes three arrays in lockstep
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Full 256×256→512-bit multiplication.
    pub fn widening_mul(self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = out[i + 4].wrapping_add(carry as u64);
        }
        U512 { limbs: out }
    }

    /// Modular addition: `(self + rhs) mod m`. Requires both operands `< m`.
    pub fn add_mod(self, rhs: U256, m: U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum >= m {
            sum.overflowing_sub(m).0
        } else {
            sum
        }
    }

    /// Modular subtraction: `(self - rhs) mod m`. Requires both operands `< m`.
    pub fn sub_mod(self, rhs: U256, m: U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.overflowing_add(m).0
        } else {
            diff
        }
    }

    /// Modular multiplication: `(self * rhs) mod m`.
    pub fn mul_mod(self, rhs: U256, m: U256) -> U256 {
        self.widening_mul(rhs).rem(m)
    }

    /// Modular exponentiation: `self^exp mod m` (square-and-multiply).
    pub fn pow_mod(self, exp: U256, m: U256) -> U256 {
        let mut result = U256::ONE.rem_short(m);
        let base = self.rem_short(m);
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            result = result.mul_mod(result, m);
            if exp.bit(i) {
                result = result.mul_mod(base, m);
            }
        }
        result
    }

    /// Modular inverse for prime modulus via Fermat's little theorem:
    /// `self^(m-2) mod m`.
    ///
    /// Returns `None` when `self ≡ 0 (mod m)`.
    pub fn inv_mod_prime(self, m: U256) -> Option<U256> {
        if self.rem_short(m).is_zero() {
            return None;
        }
        let exp = m.overflowing_sub(U256::from_u64(2)).0;
        Some(self.pow_mod(exp, m))
    }

    /// Remainder of a 256-bit value modulo `m` (binary reduction).
    pub fn rem_short(self, m: U256) -> U256 {
        if m.bits() >= 255 {
            // At most one subtraction is needed.
            let mut r = self;
            while r >= m {
                r = r.overflowing_sub(m).0;
            }
            r
        } else {
            U512::from_u256(self).rem(m)
        }
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

/// A 512-bit unsigned integer — the product width of two [`U256`] values.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U512 {
    /// Widens a 256-bit value.
    pub fn from_u256(v: U256) -> Self {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&v.limbs());
        U512 { limbs }
    }

    /// The little-endian 64-bit limbs.
    pub fn limbs_le(&self) -> [u64; 8] {
        self.limbs
    }

    /// Bit `i` (0 = least significant).
    fn bit(&self, i: usize) -> bool {
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits.
    fn bits(&self) -> usize {
        for i in (0..8).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Remainder modulo `m` by binary long division.
    ///
    /// Named `rem` deliberately (despite shadowing potential with
    /// `core::ops::Rem::rem`): the operand types differ (`U512 % U256`) and
    /// implementing the operator trait would promise more arithmetic than
    /// this crate needs.
    ///
    /// # Panics
    ///
    /// Panics when `m` is zero.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, m: U256) -> U256 {
        assert!(!m.is_zero(), "division by zero modulus");
        let mut r = U256::ZERO;
        for i in (0..self.bits()).rev() {
            // r = r * 2 + bit, reducing immediately so r stays < m.
            let (shifted, carry) = r.overflowing_add(r);
            let (mut next, carry2) =
                shifted.overflowing_add(if self.bit(i) { U256::ONE } else { U256::ZERO });
            if carry || carry2 || next >= m {
                next = next.overflowing_sub(m).0;
            }
            // After one conditional subtraction next may still be >= m when a
            // carry occurred with a small modulus; subtract until reduced.
            while next >= m {
                next = next.overflowing_sub(m).0;
            }
            r = next;
        }
        r
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(0x")?;
        for limb in self.limbs.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_byte_round_trip() {
        let v = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        assert_eq!(
            v.to_string(),
            "0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
        );
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_hex("123456789abcdef0fedcba9876543210aaaaaaaabbbbbbbbccccccccdddddddd");
        let b = U256::from_hex("0fedcba987654321123456789abcdef055555555444444443333333322222222");
        let (sum, carry) = a.overflowing_add(b);
        assert!(!carry);
        let (diff, borrow) = sum.overflowing_sub(b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn carry_and_borrow_propagate() {
        let max =
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let (sum, carry) = max.overflowing_add(U256::ONE);
        assert!(carry);
        assert!(sum.is_zero());
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, max);
    }

    #[test]
    fn widening_mul_small_values() {
        let a = U256::from_u64(0xffff_ffff_ffff_ffff);
        let prod = a.widening_mul(a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.limbs[0], 1);
        assert_eq!(prod.limbs[1], 0xffff_ffff_ffff_fffe);
        assert_eq!(prod.limbs[2], 0);
    }

    #[test]
    fn rem_matches_u128_arithmetic() {
        let cases: [(u128, u64); 6] = [
            (12345678901234567890, 97),
            (u128::MAX, 1_000_003),
            (0, 7),
            (6, 7),
            (7, 7),
            (8, 7),
        ];
        for (value, modulus) in cases {
            let a = U256::from_limbs([value as u64, (value >> 64) as u64, 0, 0]);
            let m = U256::from_u64(modulus);
            let r = U512::from_u256(a).rem(m);
            assert_eq!(r, U256::from_u64((value % modulus as u128) as u64));
        }
    }

    #[test]
    fn mul_mod_small() {
        let m = U256::from_u64(1_000_000_007);
        let a = U256::from_u64(123_456_789);
        let b = U256::from_u64(987_654_321);
        let expected = (123_456_789u128 * 987_654_321u128 % 1_000_000_007u128) as u64;
        assert_eq!(a.mul_mod(b, m), U256::from_u64(expected));
    }

    #[test]
    fn pow_mod_small() {
        let m = U256::from_u64(1_000_000_007);
        // 5^20 mod 1e9+7
        let mut expected = 1u128;
        for _ in 0..20 {
            expected = expected * 5 % 1_000_000_007;
        }
        assert_eq!(
            U256::from_u64(5).pow_mod(U256::from_u64(20), m),
            U256::from_u64(expected as u64)
        );
    }

    #[test]
    fn fermat_inverse() {
        let p = U256::from_u64(1_000_000_007);
        let a = U256::from_u64(1234);
        let inv = a.inv_mod_prime(p).unwrap();
        assert_eq!(a.mul_mod(inv, p), U256::ONE);
        assert_eq!(U256::ZERO.inv_mod_prime(p), None);
    }

    #[test]
    fn inverse_mod_p256_prime() {
        let p = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
        let a = U256::from_hex("deadbeefcafebabe0123456789abcdef0fedcba9876543211122334455667788");
        let inv = a.inv_mod_prime(p).unwrap();
        assert_eq!(a.mul_mod(inv, p), U256::ONE);
    }

    #[test]
    fn bits_and_bit_access() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        let v = U256::from_limbs([0, 0, 0, 1]);
        assert_eq!(v.bits(), 193);
        assert!(v.bit(192));
        assert!(!v.bit(0));
        assert!(U256::from_u64(5).is_odd());
        assert!(!U256::from_u64(4).is_odd());
    }

    #[test]
    fn ordering() {
        let small = U256::from_u64(5);
        let big = U256::from_limbs([0, 0, 0, 1]);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&small), Ordering::Equal);
    }
}
