//! Arithmetic in GF(2⁸) with the AES/Rijndael-compatible reduction
//! polynomial x⁸ + x⁴ + x³ + x² + 1 (0x11D) and generator 2.
//!
//! Exponential/logarithm tables are computed once at first use; all field
//! operations are table lookups after that.

use std::sync::OnceLock;

/// Precomputed exp/log tables for GF(2⁸).
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11D;
            }
        }
        // Duplicate the cycle so mul can skip a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// An element of GF(2⁸).
///
/// Addition is XOR; multiplication uses log/exp tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf256(pub u8);

// The inherent add/mul/div are the primary API (usable in const-adjacent
// contexts and without importing std::ops); the operator impls below
// delegate to them.
#[allow(clippy::should_implement_trait)]
impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Field addition (XOR). Subtraction is identical.
    #[inline]
    pub fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[idx])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero, which has no inverse.
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "zero has no inverse in GF(256)");
        let t = tables();
        Gf256(t.exp[255 - t.log[self.0 as usize] as usize])
    }

    /// Field division.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Gf256) -> Gf256 {
        self.mul(rhs.inv())
    }

    /// Raises the generator (2) to the given power.
    #[inline]
    pub fn generator_pow(power: usize) -> Gf256 {
        Gf256(tables().exp[power % 255])
    }

    /// Computes `self^power`.
    pub fn pow(self, power: usize) -> Gf256 {
        if power == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        let l = t.log[self.0 as usize] as usize * power;
        Gf256(t.exp[l % 255])
    }
}

impl std::ops::Add for Gf256 {
    type Output = Gf256;
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256::add(self, rhs)
    }
}

impl std::ops::Mul for Gf256 {
    type Output = Gf256;
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256::mul(self, rhs)
    }
}

impl std::ops::Div for Gf256 {
    type Output = Gf256;
    fn div(self, rhs: Gf256) -> Gf256 {
        Gf256::div(self, rhs)
    }
}

/// Multiplies `src` by scalar `c` and XORs into `dst` (the inner loop of
/// encoding/decoding): `dst[i] ^= c * src[i]`, one lookup in `c`'s product
/// row per byte.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "shard length mismatch");
    if c.0 == 0 {
        return;
    }
    if c.0 == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c.0 as usize] as usize;
    let mut row = [0u8; 256];
    for (r, &log_s) in row.iter_mut().zip(&t.log).skip(1) {
        *r = t.exp[log_c + log_s as usize];
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor_and_self_inverse() {
        let a = Gf256(0x57);
        let b = Gf256(0x83);
        assert_eq!(a.add(b), Gf256(0x57 ^ 0x83));
        assert_eq!(a.add(a), Gf256::ZERO);
    }

    #[test]
    fn mul_identities() {
        for v in 0..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(Gf256::ONE), x);
            assert_eq!(x.mul(Gf256::ZERO), Gf256::ZERO);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Slow bitwise reference multiplication.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut acc = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= 0x1D;
                }
                b >>= 1;
            }
            acc
        }
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(Gf256(a).mul(Gf256(b)).0, slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for v in 1..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(x.inv()), Gf256::ONE, "inv of {v}");
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(23) {
                for c in (0..=255u8).step_by(31) {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!(a.mul(b), b.mul(a));
                    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..255 {
            assert!(seen.insert(Gf256::generator_pow(p).0));
        }
        assert_eq!(seen.len(), 255);
        assert_eq!(Gf256::generator_pow(0), Gf256::ONE);
        assert_eq!(Gf256::generator_pow(255), Gf256::ONE);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let x = Gf256(0x53);
        let mut acc = Gf256::ONE;
        for p in 0..20 {
            assert_eq!(x.pow(p), acc);
            acc = acc.mul(x);
        }
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    /// Every coefficient against the scalar product, over a source
    /// holding every byte value, at two alignments of `dst` and `src`.
    #[test]
    fn mul_acc_matches_scalar_mul_for_every_coefficient() {
        let values: Vec<u8> = (0..=255u8).chain(0..=255u8).rev().collect();
        for offset in [0usize, 3] {
            let src = &values[offset..offset + 300];
            let start: Vec<u8> = (0..300).map(|i| (i * 7 + 1) as u8).collect();
            for c in 0..=255u8 {
                let mut dst = [0u8; 303];
                let dst = &mut dst[offset..offset + 300];
                dst.copy_from_slice(&start);
                mul_acc(dst, src, Gf256(c));
                for i in 0..300 {
                    let want = start[i] ^ Gf256(src[i]).mul(Gf256(c)).0;
                    assert_eq!(dst[i], want, "c {c} offset {offset} byte {i}");
                }
            }
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let src = [1u8, 2, 3, 255];
        let mut dst = [0u8; 4];
        mul_acc(&mut dst, &src, Gf256::ONE);
        assert_eq!(dst, src);
        mul_acc(&mut dst, &src, Gf256::ONE);
        assert_eq!(dst, [0; 4], "xor twice cancels");
        mul_acc(&mut dst, &src, Gf256(3));
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(dst[i], Gf256(s).mul(Gf256(3)).0);
        }
    }
}
