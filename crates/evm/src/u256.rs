//! A 256-bit unsigned integer implemented from scratch.
//!
//! The EVM word size is 256 bits. All stack values, storage keys and storage
//! values are `U256`. The type is implemented as four little-endian `u64`
//! limbs and supports the wrapping semantics the EVM mandates, while also
//! exposing the overflow information the integer-overflow oracle needs
//! (`overflowing_*` variants).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub};

/// 256-bit unsigned integer stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value (2^256 - 1).
    pub const MAX: U256 = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX]);

    /// Construct from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Construct from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns true if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Lowest 64 bits of the value.
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Lowest 128 bits of the value.
    #[inline]
    pub fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Returns the value as `u64` if it fits, otherwise `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Returns the value as `usize` if it fits, otherwise `None`.
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Number of significant bits (position of the highest set bit + 1).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Big-endian 32-byte representation.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            let b = limb.to_be_bytes();
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&b);
        }
        out
    }

    /// Construct from a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            *limb = u64::from_be_bytes(b);
        }
        U256(limbs)
    }

    /// Construct from a big-endian slice of at most 32 bytes
    /// (shorter slices are left-padded with zeros, as EVM calldata is).
    pub fn from_be_slice(slice: &[u8]) -> Self {
        let mut buf = [0u8; 32];
        let len = slice.len().min(32);
        buf[32 - len..].copy_from_slice(&slice[slice.len() - len..]);
        U256::from_be_bytes(buf)
    }

    /// Parse a hexadecimal string, with or without a `0x` prefix.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        // Left-pad odd-length strings with a zero nibble.
        let padded: String = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        let n = padded.len() / 2;
        for i in 0..n {
            let byte = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).ok()?;
            bytes[32 - n + i] = byte;
        }
        Some(U256::from_be_bytes(bytes))
    }

    /// Parse a decimal string.
    pub fn from_dec(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.chars() {
            let d = c.to_digit(10)?;
            let (shifted, o1) = acc.overflowing_mul(ten);
            let (next, o2) = shifted.overflowing_add(U256::from_u64(d as u64));
            if o1 || o2 {
                return None;
            }
            acc = next;
        }
        Some(acc)
    }

    /// Addition returning the wrapped result and an overflow flag.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for ((word, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *word = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Wrapping addition (EVM `ADD`).
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction returning the wrapped result and a borrow (underflow) flag.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for ((word, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *word = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping subtraction (EVM `SUB`).
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 512-bit product as eight little-endian 64-bit limbs.
    fn full_mul_limbs(self, rhs: U256) -> [u64; 8] {
        // Schoolbook multiplication with u128 partial products; the 512-bit
        // result is exact, so no limb ever wraps.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = prod[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        prod
    }

    /// Multiplication returning the low 256 bits and an overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let prod = self.full_mul_limbs(rhs);
        let overflow = prod[4] != 0 || prod[5] != 0 || prod[6] != 0 || prod[7] != 0;
        (U256([prod[0], prod[1], prod[2], prod[3]]), overflow)
    }

    /// Wrapping multiplication (EVM `MUL`).
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Quotient and remainder. Division by zero yields `(0, 0)` like the EVM.
    ///
    /// Long division on 64-bit limbs (Knuth, TAOCP vol. 2, §4.3.1,
    /// Algorithm D): one 128-by-64-bit estimate per quotient limb, corrected
    /// at most twice, instead of one shift-subtract step per dividend bit.
    pub fn div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < rhs {
            return (U256::ZERO, self);
        }
        // Limbs in the divisor (1..=4).
        let n = 4 - rhs.0.iter().rev().take_while(|&&limb| limb == 0).count();
        if n == 1 {
            // Short division by one limb.
            let d = u128::from(rhs.0[0]);
            let mut q = [0u64; 4];
            let mut r = 0u128;
            for i in (0..4).rev() {
                let cur = (r << 64) | u128::from(self.0[i]);
                q[i] = (cur / d) as u64;
                r = cur % d;
            }
            return (U256(q), U256::from_u64(r as u64));
        }
        // Normalise: shift both operands so the divisor's top limb has its
        // high bit set, which bounds each estimate's error. The dividend
        // gains a fifth limb for the bits shifted out.
        let shift = rhs.0[n - 1].leading_zeros();
        let v = rhs.shl_bits(shift).0;
        let mut u = [0u64; 5];
        u[..4].copy_from_slice(&self.shl_bits(shift).0);
        if shift > 0 {
            u[4] = self.0[3] >> (64 - shift);
        }
        const B: u128 = 1 << 64;
        let v_top = u128::from(v[n - 1]);
        let v_next = u128::from(v[n - 2]);
        let mut q = [0u64; 4];
        for j in (0..=4 - n).rev() {
            // Estimate the quotient limb from the top two dividend limbs and
            // correct it with the third (it is then exact or one too big).
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut qhat = top / v_top;
            let mut rhat = top % v_top;
            while qhat >= B || qhat * v_next > (rhat << 64) | u128::from(u[j + n - 2]) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= B {
                    break;
                }
            }
            // Multiply and subtract `qhat * v` from the dividend window.
            let mut borrow: i128 = 0;
            for i in 0..n {
                let p = qhat * u128::from(v[i]);
                let t = i128::from(u[i + j]) - borrow - i128::from(p as u64);
                u[i + j] = t as u64;
                borrow = (p >> 64) as i128 - (t >> 64);
            }
            let t = i128::from(u[j + n]) - borrow;
            u[j + n] = t as u64;
            if t < 0 {
                // The estimate was one too big: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let sum = u128::from(u[i + j]) + u128::from(v[i]) + carry;
                    u[i + j] = sum as u64;
                    carry = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        // The remainder is the low `n` limbs, still normalised.
        let remainder = U256([u[0], u[1], u[2], u[3]]).shr_bits(shift);
        (U256(q), remainder)
    }

    /// Two's-complement negation, wrapping at 2^256 (`-MIN == MIN`).
    pub fn wrapping_neg(self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Signed quotient and remainder in two's complement (EVM `SDIV`/`SMOD`).
    ///
    /// Division by zero yields `(0, 0)`. The quotient truncates toward zero,
    /// the remainder takes the sign of the dividend, and `MIN / -1` wraps
    /// back to `MIN` (the EVM-mandated two's-complement overflow case).
    pub fn signed_div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        let neg_a = self.is_negative_signed();
        let neg_b = rhs.is_negative_signed();
        let abs_a = if neg_a { self.wrapping_neg() } else { self };
        let abs_b = if neg_b { rhs.wrapping_neg() } else { rhs };
        // MIN / -1 needs no special case: |MIN| wraps to MIN, MIN / 1 = MIN,
        // and negating the quotient wraps back to MIN.
        let (q, r) = abs_a.div_rem(abs_b);
        let q = if neg_a != neg_b { q.wrapping_neg() } else { q };
        let r = if neg_a { r.wrapping_neg() } else { r };
        (q, r)
    }

    /// EVM `SIGNEXTEND`: extend the two's-complement sign bit of the byte at
    /// `byte_index` (0 = least significant) through all higher bits.
    /// Indices >= 31 leave the value unchanged.
    pub fn sign_extend(self, byte_index: usize) -> U256 {
        if byte_index >= 31 {
            return self;
        }
        let sign_bit = byte_index * 8 + 7;
        let low_mask = U256::ONE
            .shl_bits(sign_bit as u32 + 1)
            .wrapping_sub(U256::ONE);
        if self.bit(sign_bit) {
            self | !low_mask
        } else {
            self & low_mask
        }
    }

    /// Reduce a little-endian wide limb value modulo `m` by binary long
    /// division. `m` must be non-zero.
    fn reduce_limbs(limbs: &[u64], m: U256) -> U256 {
        let top = limbs
            .iter()
            .rposition(|&l| l != 0)
            .map(|i| i * 64 + 64 - limbs[i].leading_zeros() as usize)
            .unwrap_or(0);
        let mut r = U256::ZERO;
        for i in (0..top).rev() {
            // r < m before the shift, so the true value 2r + bit fits in 257
            // bits and needs at most one subtraction of m; `carry` tracks the
            // bit shifted past 2^256.
            let carry = r.bit(255);
            r = r.shl_bits(1);
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                r.0[0] |= 1;
            }
            if carry || r >= m {
                r = r.wrapping_sub(m);
            }
        }
        r
    }

    /// EVM `ADDMOD`: `(self + rhs) % m` over the unbounded 257-bit sum.
    /// A zero modulus yields zero.
    pub fn add_mod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = self.overflowing_add(rhs);
        if !carry {
            return sum.div_rem(m).1;
        }
        let limbs = [sum.0[0], sum.0[1], sum.0[2], sum.0[3], 1];
        Self::reduce_limbs(&limbs, m)
    }

    /// EVM `MULMOD`: `(self * rhs) % m` over the unbounded 512-bit product.
    /// A zero modulus yields zero.
    pub fn mul_mod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        Self::reduce_limbs(&self.full_mul_limbs(rhs), m)
    }

    /// Left shift by an arbitrary number of bits (values >= 256 yield zero).
    pub fn shl_bits(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            if i >= word_shift {
                out[i] = self.0[i - word_shift] << bit_shift;
                if bit_shift > 0 && i > word_shift {
                    out[i] |= self.0[i - word_shift - 1] >> (64 - bit_shift);
                }
            }
        }
        U256(out)
    }

    /// Right shift by an arbitrary number of bits (values >= 256 yield zero).
    pub fn shr_bits(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, word) in out.iter_mut().enumerate() {
            if i + word_shift < 4 {
                *word = self.0[i + word_shift] >> bit_shift;
                if bit_shift > 0 && i + word_shift + 1 < 4 {
                    *word |= self.0[i + word_shift + 1] << (64 - bit_shift);
                }
            }
        }
        U256(out)
    }

    /// Arithmetic (sign-propagating) right shift in two's complement
    /// (EVM `SAR`). Shifts of 256 or more saturate to zero for non-negative
    /// values and to `-1` (all bits set) for negative ones.
    pub fn sar_bits(self, shift: u32) -> U256 {
        if !self.is_negative_signed() {
            return self.shr_bits(shift.min(256));
        }
        if shift == 0 {
            return self;
        }
        if shift >= 256 {
            return U256::MAX;
        }
        // Logical shift, then fill the vacated top `shift` bits with the
        // sign: !(MAX >> shift) is exactly that high mask.
        self.shr_bits(shift) | !U256::MAX.shr_bits(shift)
    }

    /// Interpret the value as a signed two's-complement number and report
    /// whether it is negative (top bit set). Used by `SLT`/`SGT`.
    pub fn is_negative_signed(&self) -> bool {
        self.0[3] >> 63 == 1
    }

    /// Signed comparison in two's complement.
    pub fn signed_cmp(&self, other: &U256) -> Ordering {
        match (self.is_negative_signed(), other.is_negative_signed()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.cmp(other),
        }
    }

    /// Absolute difference, |self - other|. Used by branch-distance feedback.
    pub fn abs_diff(self, other: U256) -> U256 {
        if self >= other {
            self.wrapping_sub(other)
        } else {
            other.wrapping_sub(self)
        }
    }

    /// Saturating conversion to `f64` (used only for distance normalisation,
    /// never for EVM semantics).
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0f64;
        for i in (0..4).rev() {
            acc = acc * 18446744073709551616.0 + self.0[i] as f64;
        }
        acc
    }

    /// Decimal string representation.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(ten);
            digits.push(char::from(b'0' + r.low_u64() as u8));
            cur = q;
        }
        digits.iter().rev().collect()
    }

    /// Hexadecimal string representation with a `0x` prefix.
    pub fn to_hex_string(&self) -> String {
        if self.is_zero() {
            return "0x0".to_string();
        }
        let bytes = self.to_be_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        format!("0x{}", hex.trim_start_matches('0'))
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<bool> for U256 {
    fn from(v: bool) -> Self {
        if v {
            U256::ONE
        } else {
            U256::ZERO
        }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(rhs)
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(rhs)
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.wrapping_mul(rhs)
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, rhs: u32) -> U256 {
        self.shl_bits(rhs)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, rhs: u32) -> U256 {
        self.shr_bits(rhs)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({})", self.to_dec_string())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(u(2) + u(3), u(5));
        assert_eq!(u(0) + u(0), u(0));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, 0, 0, 0]);
        let (sum, overflow) = a.overflowing_add(U256::ONE);
        assert!(!overflow);
        assert_eq!(sum, U256([0, 1, 0, 0]));
    }

    #[test]
    fn add_overflow_wraps() {
        let (sum, overflow) = U256::MAX.overflowing_add(U256::ONE);
        assert!(overflow);
        assert_eq!(sum, U256::ZERO);
        assert_eq!(U256::MAX.checked_add(U256::ONE), None);
    }

    #[test]
    fn sub_underflow_wraps() {
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        assert_eq!(U256::ZERO.checked_sub(U256::ONE), None);
    }

    #[test]
    fn mul_small() {
        assert_eq!(u(7) * u(6), u(42));
        assert_eq!(u(0) * u(123), u(0));
    }

    #[test]
    fn mul_cross_limb() {
        let a = U256::from_u128(u128::MAX);
        let (p, o) = a.overflowing_mul(u(2));
        assert!(!o);
        assert_eq!(p, U256([u64::MAX - 1, u64::MAX, 1, 0]));
    }

    #[test]
    fn mul_overflow_detected() {
        let big = U256::ONE.shl_bits(200);
        let (_, o) = big.overflowing_mul(big);
        assert!(o);
        assert!(big.checked_mul(big).is_none());
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = u(100).div_rem(u(7));
        assert_eq!(q, u(14));
        assert_eq!(r, u(2));
    }

    #[test]
    fn div_by_zero_is_zero() {
        let (q, r) = u(100).div_rem(U256::ZERO);
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::ZERO);
    }

    #[test]
    fn div_rem_large() {
        let a = U256::from_hex("0xffffffffffffffffffffffffffffffff").unwrap();
        let b = U256::from_hex("0xfffffffffffffffff").unwrap();
        let (q, r) = a.div_rem(b);
        // Verify a == q*b + r and r < b.
        assert!(r < b);
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1).shl_bits(64), U256([0, 1, 0, 0]));
        assert_eq!(U256([0, 1, 0, 0]).shr_bits(64), u(1));
        assert_eq!(u(1).shl_bits(256), U256::ZERO);
        assert_eq!(u(0b1010).shr_bits(1), u(0b101));
        assert_eq!(u(3).shl_bits(1), u(6));
    }

    #[test]
    fn arithmetic_shift_propagates_the_sign() {
        // Non-negative values behave like a logical shift.
        assert_eq!(u(0b1010).sar_bits(1), u(0b101));
        assert_eq!(u(7).sar_bits(300), U256::ZERO);
        // -8 >> 1 == -4, -8 >> 2 == -2, -8 >> 3 == -1, -8 >> 4 == -1.
        let neg = |v: u64| u(v).wrapping_neg();
        assert_eq!(neg(8).sar_bits(1), neg(4));
        assert_eq!(neg(8).sar_bits(3), neg(1));
        assert_eq!(neg(8).sar_bits(4), neg(1)); // floor division toward -inf
                                                // Shift 0 is the identity; shifts >= 256 saturate to -1.
        assert_eq!(neg(8).sar_bits(0), neg(8));
        assert_eq!(neg(1).sar_bits(255), U256::MAX);
        assert_eq!(neg(8).sar_bits(256), U256::MAX);
        assert_eq!(neg(8).sar_bits(u32::MAX), U256::MAX);
        // MIN >> 255 == -1.
        assert_eq!(U256::ONE.shl_bits(255).sar_bits(255), U256::MAX);
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert_eq!(u(5).cmp(&u(5)), Ordering::Equal);
    }

    #[test]
    fn signed_comparison() {
        let neg_one = U256::MAX; // -1 in two's complement
        assert!(neg_one.is_negative_signed());
        assert_eq!(neg_one.signed_cmp(&U256::ONE), Ordering::Less);
        assert_eq!(U256::ONE.signed_cmp(&neg_one), Ordering::Greater);
        assert_eq!(u(3).signed_cmp(&u(4)), Ordering::Less);
    }

    #[test]
    fn byte_roundtrip() {
        let v =
            U256::from_hex("0x0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
    }

    #[test]
    fn be_slice_left_pads() {
        assert_eq!(U256::from_be_slice(&[0x01, 0x00]), u(256));
        assert_eq!(U256::from_be_slice(&[]), U256::ZERO);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(U256::from_hex("0x10").unwrap(), u(16));
        assert_eq!(U256::from_hex("ff").unwrap(), u(255));
        assert_eq!(U256::from_hex("0xf").unwrap(), u(15));
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("0xzz").is_none());
    }

    #[test]
    fn dec_parsing_and_display() {
        assert_eq!(U256::from_dec("1234567890").unwrap(), u(1234567890));
        assert_eq!(u(98765).to_dec_string(), "98765");
        assert_eq!(U256::ZERO.to_dec_string(), "0");
        let max_str = U256::MAX.to_dec_string();
        assert_eq!(
            max_str,
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
        assert_eq!(U256::from_dec(&max_str).unwrap(), U256::MAX);
        assert!(U256::from_dec("not a number").is_none());
    }

    #[test]
    fn hex_display() {
        assert_eq!(u(255).to_hex_string(), "0xff");
        assert_eq!(U256::ZERO.to_hex_string(), "0x0");
    }

    /// Two's-complement encoding of a small signed integer.
    fn s(v: i64) -> U256 {
        if v < 0 {
            u(v.unsigned_abs()).wrapping_neg()
        } else {
            u(v as u64)
        }
    }

    /// The most negative signed 256-bit value, -2^255.
    fn min_signed() -> U256 {
        U256::ONE.shl_bits(255)
    }

    /// The shift-subtract long division `div_rem` ran before limb division,
    /// one step per dividend bit: the oracle of the property test below.
    fn div_rem_bitwise(a: U256, b: U256) -> (U256, U256) {
        if b.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        for i in (0..a.bits() as usize).rev() {
            remainder = remainder.shl_bits(1);
            if a.bit(i) {
                remainder.0[0] |= 1;
            }
            if remainder >= b {
                remainder = remainder.wrapping_sub(b);
                quotient.0[i / 64] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// SplitMix64: a seeded stream for the division property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random value of exactly `bits` significant bits (zero for 0).
    fn with_bits(state: &mut u64, bits: u32) -> U256 {
        if bits == 0 {
            return U256::ZERO;
        }
        let raw = U256([
            splitmix(state),
            splitmix(state),
            splitmix(state),
            splitmix(state),
        ]);
        raw.shr_bits(256 - bits) | U256::ONE.shl_bits(bits - 1)
    }

    fn check_division(a: U256, b: U256) {
        let (q, r) = a.div_rem(b);
        assert_eq!((q, r), div_rem_bitwise(a, b), "{a:?} / {b:?}");
        if !b.is_zero() {
            // The identity the oracle also satisfies: a = q * b + r, r < b.
            assert!(r < b);
            assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
        }
    }

    #[test]
    fn limb_division_matches_the_bitwise_oracle() {
        let mut state = 0x0D1F_F5EE_D000_0001;
        // Every pair of operand bit-lengths, zero included: both operand
        // orders, one to four divisor limbs, and every normalisation shift.
        for a_bits in 0..=256 {
            for b_bits in 0..=256 {
                let a = with_bits(&mut state, a_bits);
                let b = with_bits(&mut state, b_bits);
                check_division(a, b);
            }
        }
        let special = [
            U256::ZERO,
            U256::ONE,
            u(2),
            u(u64::MAX),
            U256([0, 1, 0, 0]),
            U256([u64::MAX, u64::MAX, 0, 0]),
            U256([0, 0, 0, 1 << 63]),
            U256::MAX,
            U256::MAX - U256::ONE,
        ];
        for &a in &special {
            for &b in &special {
                check_division(a, b);
            }
            // Zero divisor, divisor one, equal operands, a larger divisor.
            assert_eq!(a.div_rem(U256::ZERO), (U256::ZERO, U256::ZERO));
            assert_eq!(a.div_rem(U256::ONE), (a, U256::ZERO));
            if !a.is_zero() {
                assert_eq!(a.div_rem(a), (U256::ONE, U256::ZERO));
            }
            if a != U256::MAX {
                assert_eq!(a.div_rem(a + U256::ONE), (U256::ZERO, a));
            }
        }
        // Operands whose first quotient estimate survives the two-limb
        // correction and is fixed by the add-back step (the 64-bit-limb
        // forms of the classic Algorithm D test vectors).
        let top = 1u64 << 63;
        let hard = [
            (U256([0, 0, top, top - 1]), U256([1, 0, top, 0])),
            (U256([0, 0xfffe << 48, 0, top]), U256([u64::MAX, 0, top, 0])),
        ];
        for (a, b) in hard {
            check_division(a, b);
        }
    }

    #[test]
    fn signed_division_matches_the_bitwise_oracle() {
        let mut state = 0x51_6E_ED_D1;
        let signed_oracle = |a: U256, b: U256| {
            if b.is_zero() {
                return (U256::ZERO, U256::ZERO);
            }
            let (neg_a, neg_b) = (a.is_negative_signed(), b.is_negative_signed());
            let abs = |x: U256, neg: bool| if neg { x.wrapping_neg() } else { x };
            let (q, r) = div_rem_bitwise(abs(a, neg_a), abs(b, neg_b));
            (abs(q, neg_a != neg_b), abs(r, neg_a))
        };
        for a_bits in (0..=256).step_by(3) {
            for b_bits in (0..=256).step_by(3) {
                let a = with_bits(&mut state, a_bits);
                let b = with_bits(&mut state, b_bits);
                assert_eq!(a.signed_div_rem(b), signed_oracle(a, b), "{a:?} / {b:?}");
            }
        }
        // MIN / -1 wraps to MIN with remainder zero.
        let minus_one = U256::MAX;
        assert_eq!(
            min_signed().signed_div_rem(minus_one),
            (min_signed(), U256::ZERO)
        );
        assert_eq!(
            min_signed().signed_div_rem(minus_one),
            signed_oracle(min_signed(), minus_one)
        );
    }

    #[test]
    fn wrapping_neg_roundtrip() {
        assert_eq!(u(5).wrapping_neg().wrapping_neg(), u(5));
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
        assert_eq!(U256::ONE.wrapping_neg(), U256::MAX); // -1
        assert_eq!(min_signed().wrapping_neg(), min_signed()); // -MIN == MIN
    }

    #[test]
    fn signed_div_rem_sign_combinations() {
        // Quotient truncates toward zero; remainder takes the dividend sign.
        assert_eq!(s(7).signed_div_rem(s(2)), (s(3), s(1)));
        assert_eq!(s(-7).signed_div_rem(s(2)), (s(-3), s(-1)));
        assert_eq!(s(7).signed_div_rem(s(-2)), (s(-3), s(1)));
        assert_eq!(s(-7).signed_div_rem(s(-2)), (s(3), s(-1)));
        assert_eq!(s(-8).signed_div_rem(s(3)).1, s(-2));
        assert_eq!(s(8).signed_div_rem(s(-3)).1, s(2));
    }

    #[test]
    fn signed_div_rem_edge_cases() {
        // Division by zero yields (0, 0) like the EVM.
        assert_eq!(s(-5).signed_div_rem(U256::ZERO), (U256::ZERO, U256::ZERO));
        // MIN / -1 wraps back to MIN with remainder 0.
        assert_eq!(min_signed().signed_div_rem(s(-1)), (min_signed(), s(0)));
        // MIN / 1 and MIN / MIN are well defined.
        assert_eq!(min_signed().signed_div_rem(s(1)), (min_signed(), s(0)));
        assert_eq!(min_signed().signed_div_rem(min_signed()), (s(1), s(0)));
    }

    #[test]
    fn sign_extend_matches_evm_vectors() {
        // Positive byte: high bits cleared.
        assert_eq!(u(0x7f).sign_extend(0), u(0x7f));
        assert_eq!(u(0x1234).sign_extend(0), u(0x34));
        // Negative byte: high bits set.
        assert_eq!(u(0xff).sign_extend(0), U256::MAX);
        assert_eq!(u(0xff7f).sign_extend(1), U256::MAX - u(0x80));
        // Index >= 31 leaves the value unchanged.
        assert_eq!(U256::MAX.sign_extend(31), U256::MAX);
        assert_eq!(u(0xff).sign_extend(200), u(0xff));
        // Index 30: sign bit is bit 247.
        let v = U256::ONE.shl_bits(247);
        assert_eq!(
            v.sign_extend(30),
            v | !(v.shl_bits(1).wrapping_sub(U256::ONE))
        );
    }

    #[test]
    fn add_mod_with_overflowing_intermediate() {
        assert_eq!(u(10).add_mod(u(10), u(8)), u(4));
        assert_eq!(u(10).add_mod(u(10), U256::ZERO), U256::ZERO);
        // (2^256 - 1) + 1 == 2^256, and 2^256 mod (2^256 - 1) == 1.
        assert_eq!(U256::MAX.add_mod(U256::ONE, U256::MAX), U256::ONE);
        // MAX + MAX == 2 * (2^256 - 1), divisible by MAX.
        assert_eq!(U256::MAX.add_mod(U256::MAX, U256::MAX), U256::ZERO);
        // Wrapped arithmetic would compute (MAX + MAX) mod 5 as (2^256 - 2) mod 5
        // = 4; the true sum is 2^257 - 2 ≡ 2 - 2 ≡ 0 (mod 5) since 2^256 ≡ 1.
        let m = u(5);
        let wrapped = U256::MAX.wrapping_add(U256::MAX).div_rem(m).1;
        assert_eq!(wrapped, u(4));
        assert_eq!(U256::MAX.add_mod(U256::MAX, m), U256::ZERO);
    }

    #[test]
    fn mul_mod_with_overflowing_intermediate() {
        assert_eq!(u(7).mul_mod(u(6), u(5)), u(2));
        assert_eq!(u(7).mul_mod(u(6), U256::ZERO), U256::ZERO);
        // 2^255 * 2 == 2^256, and 2^256 mod (2^256 - 1) == 1.
        assert_eq!(U256::ONE.shl_bits(255).mul_mod(u(2), U256::MAX), U256::ONE);
        // MAX * MAX == (2^256 - 1)^2, divisible by MAX.
        assert_eq!(U256::MAX.mul_mod(U256::MAX, U256::MAX), U256::ZERO);
        // (2^256 - 1)^2 mod 2^256 is 1, but mod (2^256 - 2) it is again 1:
        // (m + 1)^2 = m^2 + 2m + 1 with m = 2^256 - 2... check via reference:
        // MAX = m + 1 where m = MAX - 1, so MAX^2 mod m = (1)^2 = 1.
        assert_eq!(
            U256::MAX.mul_mod(U256::MAX, U256::MAX - U256::ONE),
            U256::ONE
        );
    }

    #[test]
    fn abs_diff_symmetry() {
        assert_eq!(u(10).abs_diff(u(3)), u(7));
        assert_eq!(u(3).abs_diff(u(10)), u(7));
        assert_eq!(u(5).abs_diff(u(5)), U256::ZERO);
    }

    #[test]
    fn f64_conversion_monotone() {
        assert!(U256::MAX.to_f64_lossy() > u(1_000_000).to_f64_lossy());
        assert_eq!(u(42).to_f64_lossy(), 42.0);
    }

    #[test]
    fn bit_accessors() {
        let v = u(0b1001);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(3));
        assert!(!v.bit(255));
        assert!(!v.bit(300));
    }
}
