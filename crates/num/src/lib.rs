//! # `dls-num` — exact arithmetic substrate
//!
//! Arbitrary-precision unsigned/signed integers and rationals, built from
//! scratch for the DLS-BL-NCP reproduction. Two consumers drive the design:
//!
//! * **Exact Divisible Load Theory algebra.** The closed-form allocation
//!   recursions of Algorithms 2.1/2.2 (Carroll & Grosu, IPPS 2006, §2) are
//!   solved both in `f64` and in exact [`Rational`] arithmetic; the exact
//!   solution certifies the floating-point solver and lets property tests
//!   assert the *equal finish time* optimality condition (Theorem 2.1) with
//!   zero tolerance.
//! * **The cryptographic substrate.** The paper assumes a PKI with digital
//!   signatures; `dls-crypto` implements RSA-style signatures on the
//!   fixed-width Montgomery kernel ([`montgomery`], over the word storage
//!   and byte boundary in [`limbs`]), with [`BigUint`] modular
//!   arithmetic ([`modmath`]) as its oracle.
//!
//! The crate has one limb width. A [`BigUint`] is a little-endian
//! `Vec<u64>` limb vector, normalized to have no trailing zero limbs, and
//! its limbs are the words the Montgomery kernel computes on. Every
//! width-dependent loop is one slice kernel in [`limbs`] over `u64` words
//! with `u128` products and carries: multiplication runs schoolbook rows
//! and switches to Karatsuba above a threshold, division is Knuth's
//! Algorithm D.
//!
//! ```
//! use dls_num::{BigUint, BigInt, Rational};
//!
//! let a = BigUint::from_dec_str("123456789012345678901234567890").unwrap();
//! let b = BigUint::from(42u64);
//! assert_eq!(&(&a * &b) / &b, a);
//!
//! let half = Rational::new(BigInt::from(1), BigInt::from(2)).unwrap();
//! let third = Rational::new(BigInt::from(1), BigInt::from(3)).unwrap();
//! assert_eq!((&half + &third).to_string(), "5/6");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
pub mod limbs;
pub mod modmath;
pub mod montgomery;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::{BigUint, ParseBigUintError};
pub use limbs::{with_limbs, Limbs, LimbsVisitor};
pub use montgomery::{ExpWindows, MontgomeryCtx, MontgomeryError};
pub use rational::{Rational, RationalError, RationalProduct};

/// Greatest common divisor of two unsigned big integers.
///
/// `gcd(0, 0) == 0` by convention.
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    // Euclidean algorithm; division is fast enough at the sizes the DLT and
    // crypto layers use, and it keeps the implementation obviously correct.
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple.
///
/// `lcm(0, x) == 0`.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    &(a / &g) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_small() {
        let g = gcd(&BigUint::from(48u32), &BigUint::from(36u32));
        assert_eq!(g, BigUint::from(12u32));
    }

    #[test]
    fn gcd_zeroes() {
        assert_eq!(gcd(&BigUint::zero(), &BigUint::zero()), BigUint::zero());
        assert_eq!(
            gcd(&BigUint::zero(), &BigUint::from(7u32)),
            BigUint::from(7u32)
        );
        assert_eq!(
            gcd(&BigUint::from(7u32), &BigUint::zero()),
            BigUint::from(7u32)
        );
    }

    #[test]
    fn lcm_small() {
        let l = lcm(&BigUint::from(4u32), &BigUint::from(6u32));
        assert_eq!(l, BigUint::from(12u32));
        assert_eq!(lcm(&BigUint::zero(), &BigUint::from(5u32)), BigUint::zero());
    }

    #[test]
    fn gcd_large_coprime() {
        // 2^89-1 and 2^61-1 are both Mersenne primes, hence coprime.
        let a = (BigUint::one() << 89usize) - &BigUint::one();
        let b = (BigUint::one() << 61usize) - &BigUint::one();
        assert_eq!(gcd(&a, &b), BigUint::one());
    }
}
