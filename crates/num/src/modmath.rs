//! Modular arithmetic over [`BigUint`] — the kernel under the RSA-style
//! signature substrate in `dls-crypto`.
//!
//! The operator forms ([`add_mod`], [`mul_mod`]) allocate a fresh result per
//! call; the `_into` variants reuse caller-held [`ModScratch`] buffers so a
//! hot loop (notably [`pow_mod`]'s per-bit squarings) runs allocation-lean.
//! Both forms compute the same unique representative in `[0, m)`, which keeps
//! [`pow_mod`] valid as the bit-exactness oracle for the Montgomery kernels
//! in [`crate::montgomery`]. Both run on the slice kernels in
//! [`crate::limbs`]: the `_into` forms call them on the scratch buffers
//! directly.

use crate::bigint::BigInt;
use crate::biguint::BigUint;
use crate::limbs::{add_in_place, cmp_words, div_rem_in_place, mul_schoolbook, sub_in_place, trim};
use std::cmp::Ordering;

/// Reusable scratch buffers for the `_into` modular kernels.
///
/// One instance serves any modulus size; buffers grow to the largest
/// operands seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct ModScratch {
    /// Product / working-dividend buffer (doubles as Knuth-D's in-place
    /// remainder buffer).
    us: Vec<u64>,
    /// Normalized (shifted) divisor buffer.
    vs: Vec<u64>,
}

/// `(a + b) mod m`.
///
/// # Panics
/// Panics if `m` is zero.
pub fn add_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    &(a + b) % m // dls-lint: allow(unchecked-arith) -- BigUint ops are arbitrary-precision
}

/// `(a + b) mod m` into `out`, reusing `scratch` — no allocation once the
/// buffers have grown to the operand size.
///
/// Requires reduced operands (`a < m`, `b < m`), so the sum is below `2m`
/// and a single conditional subtract canonicalizes without dividing.
///
/// # Panics
/// Panics if `m` is zero; debug-asserts the reduced-operand precondition.
pub fn add_mod_into(
    a: &BigUint,
    b: &BigUint,
    m: &BigUint,
    scratch: &mut ModScratch,
    out: &mut BigUint,
) {
    assert!(!m.is_zero(), "zero modulus");
    debug_assert!(a < m && b < m, "add_mod_into requires reduced operands");
    let (al, bl) = (a.limbs(), b.limbs());
    let (long, short) = if al.len() >= bl.len() { (al, bl) } else { (bl, al) };
    let us = &mut scratch.us;
    us.clear();
    us.extend_from_slice(long);
    us.push(0);
    add_in_place(us, short);
    us.truncate(trim(us).len());
    // a + b < 2m: subtract m at most once.
    if cmp_words(us, m.limbs()) != Ordering::Less {
        sub_in_place(us, m.limbs());
    }
    out.assign_from_slice(us);
}

/// `(a * b) mod m`.
///
/// # Panics
/// Panics if `m` is zero.
pub fn mul_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    &(a * b) % m // dls-lint: allow(unchecked-arith) -- BigUint ops are arbitrary-precision
}

/// `(a * b) mod m` into `out`, reusing `scratch` — the schoolbook product
/// (never Karatsuba, which allocates) and the Knuth-D remainder both run
/// in caller-held buffers, and the quotient is never materialized.
///
/// Accepts arbitrary (unreduced) operands, like [`mul_mod`].
///
/// # Panics
/// Panics if `m` is zero.
pub fn mul_mod_into(
    a: &BigUint,
    b: &BigUint,
    m: &BigUint,
    scratch: &mut ModScratch,
    out: &mut BigUint,
) {
    assert!(!m.is_zero(), "zero modulus");
    let (al, bl) = (a.limbs(), b.limbs());
    let us = &mut scratch.us;
    us.clear();
    us.resize(al.len().saturating_add(bl.len()), 0);
    mul_schoolbook(us, al, bl);
    div_rem_in_place(us, m.limbs(), &mut scratch.vs, None);
    out.assign_from_slice(us);
}

/// `base^exp mod m` by left-to-right square-and-multiply.
///
/// `pow_mod(_, 0, m) == 1 mod m`.
///
/// Every squaring and multiply routes through [`mul_mod_into`] over two work
/// registers and one scratch set, so the loop allocates nothing after the
/// first iteration. This function is the oracle the Montgomery differential
/// suites compare against; [`crate::montgomery::MontgomeryCtx::pow`] must
/// match it bit-for-bit.
///
/// # Panics
/// Panics if `m` is zero.
pub fn pow_mod(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "zero modulus");
    if m.is_one() {
        return BigUint::zero();
    }
    let mut scratch = ModScratch::default();
    let mut result = BigUint::one();
    let mut tmp = BigUint::zero();
    let base = base % m;
    let nbits = exp.bits();
    for i in (0..nbits).rev() {
        mul_mod_into(&result, &result, m, &mut scratch, &mut tmp);
        std::mem::swap(&mut result, &mut tmp);
        if exp.bit(i) {
            mul_mod_into(&result, &base, m, &mut scratch, &mut tmp);
            std::mem::swap(&mut result, &mut tmp);
        }
    }
    result
}

/// Modular inverse: `a^(-1) mod m` if `gcd(a, m) == 1`, else `None`.
///
/// # Panics
/// Panics if `m` is zero.
pub fn inv_mod(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    assert!(!m.is_zero(), "zero modulus");
    if m.is_one() {
        return Some(BigUint::zero());
    }
    let ai = BigInt::from(a % m);
    let mi = BigInt::from(m.clone());
    let (g, x, _) = BigInt::extended_gcd(&ai, &mi);
    if !g.magnitude().is_one() {
        return None;
    }
    let inv = x.mod_floor(&mi);
    Some(inv.magnitude().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    /// Deterministic pseudo-random value of roughly `limbs` 32-bit digits.
    fn rnd(limbs: usize, seed: u32) -> BigUint {
        let mut be = Vec::with_capacity(4 * limbs);
        let mut x = seed.wrapping_mul(0x9e3779b9) | 1;
        for i in 0..limbs {
            x = x.wrapping_mul(2654435761).wrapping_add(i as u32 | 1);
            be.splice(0..0, x.to_be_bytes());
        }
        BigUint::from_bytes_be(&be)
    }

    #[test]
    fn pow_mod_small() {
        assert_eq!(pow_mod(&b(2), &b(10), &b(1000)), b(24));
        assert_eq!(pow_mod(&b(3), &b(0), &b(7)), b(1));
        assert_eq!(pow_mod(&b(0), &b(5), &b(7)), b(0));
        assert_eq!(pow_mod(&b(5), &b(117), &b(1)), b(0));
    }

    #[test]
    fn pow_mod_fermat() {
        // Fermat's little theorem: a^(p-1) ≡ 1 (mod p) for prime p ∤ a.
        let p = b(1_000_000_007);
        for a in [2u64, 3, 65_537, 999_999_999] {
            assert_eq!(pow_mod(&b(a), &(&p - &b(1)), &p), b(1), "a={a}");
        }
    }

    #[test]
    fn pow_mod_large_known_answer() {
        // 2^1000 mod (2^89 - 1): verified via repeated squaring structure —
        // 2^89 ≡ 1, so 2^1000 = 2^(89*11 + 21) ≡ 2^21.
        let m = &(BigUint::one() << 89usize) - &BigUint::one();
        assert_eq!(pow_mod(&b(2), &b(1000), &m), b(1 << 21));
    }

    #[test]
    fn inv_mod_basics() {
        assert_eq!(inv_mod(&b(3), &b(7)), Some(b(5)));
        assert_eq!(inv_mod(&b(10), &b(17)), Some(b(12)));
        assert_eq!(inv_mod(&b(6), &b(9)), None); // gcd = 3
        assert_eq!(inv_mod(&b(5), &b(1)), Some(b(0)));
    }

    #[test]
    fn inv_mod_roundtrip() {
        let m = b(1_000_000_007);
        for a in [2u64, 12345, 999_999_999, 65_537] {
            let inv = inv_mod(&b(a), &m).expect("prime modulus");
            assert_eq!(mul_mod(&b(a), &inv, &m), b(1), "a={a}");
        }
    }

    #[test]
    fn add_mul_mod() {
        assert_eq!(add_mod(&b(8), &b(9), &b(10)), b(7));
        assert_eq!(mul_mod(&b(8), &b(9), &b(10)), b(2));
    }

    #[test]
    fn mul_mod_into_matches_mul_mod() {
        let mut scratch = ModScratch::default();
        let mut out = BigUint::zero();
        for (la, lb, lm) in [(1usize, 1usize, 1usize), (4, 3, 2), (8, 8, 5), (20, 20, 13), (40, 40, 33)] {
            for seed in 0..10u32 {
                let a = rnd(la, seed.wrapping_add(1));
                let c = rnd(lb, seed.wrapping_add(100));
                let mut m = rnd(lm, seed.wrapping_add(200));
                if m.is_zero() {
                    m = b(97);
                }
                mul_mod_into(&a, &c, &m, &mut scratch, &mut out);
                assert_eq!(out, mul_mod(&a, &c, &m), "la={la} lb={lb} lm={lm} seed={seed}");
            }
        }
    }

    #[test]
    fn mul_mod_into_edges() {
        let mut scratch = ModScratch::default();
        let mut out = BigUint::one();
        // Zero operands and a product exactly divisible by m.
        mul_mod_into(&BigUint::zero(), &b(7), &b(5), &mut scratch, &mut out);
        assert_eq!(out, BigUint::zero());
        mul_mod_into(&b(15), &b(4), &b(12), &mut scratch, &mut out);
        assert_eq!(out, BigUint::zero());
        // m = 1 → always 0.
        mul_mod_into(&b(99), &b(98), &b(1), &mut scratch, &mut out);
        assert_eq!(out, BigUint::zero());
        // Product smaller than m (no division needed).
        mul_mod_into(&b(3), &b(4), &b(1000), &mut scratch, &mut out);
        assert_eq!(out, b(12));
    }

    #[test]
    fn add_mod_into_matches_add_mod() {
        let mut scratch = ModScratch::default();
        let mut out = BigUint::zero();
        for lm in [1usize, 2, 5, 16] {
            for seed in 0..10u32 {
                let mut m = rnd(lm, seed.wrapping_add(300));
                if m.is_zero() || m.is_one() {
                    m = b(101);
                }
                let a = &rnd(lm + 1, seed.wrapping_add(400)) % &m;
                let c = &rnd(lm + 1, seed.wrapping_add(500)) % &m;
                add_mod_into(&a, &c, &m, &mut scratch, &mut out);
                assert_eq!(out, add_mod(&a, &c, &m), "lm={lm} seed={seed}");
            }
        }
    }

    #[test]
    fn add_mod_into_wraps_exactly_once() {
        let mut scratch = ModScratch::default();
        let mut out = BigUint::zero();
        let m = b(10);
        add_mod_into(&b(8), &b(9), &m, &mut scratch, &mut out);
        assert_eq!(out, b(7));
        add_mod_into(&b(5), &b(5), &m, &mut scratch, &mut out);
        assert_eq!(out, BigUint::zero());
        add_mod_into(&b(1), &b(2), &m, &mut scratch, &mut out);
        assert_eq!(out, b(3));
    }
}
