//! Property-based tests for the bignum substrate.
//!
//! Strategy: generate random values both as primitives (cross-checked against
//! `u128`/`i128` arithmetic) and as random limb vectors (exercising carry
//! chains, Karatsuba, and Knuth-D on multi-limb operands).
//!
//! **Fidelity note:** in this offline workspace these properties run
//! against the vendored proptest stand-in (`vendor/proptest`): a
//! deterministic per-test seed, a fixed case count, no shrinking, and no
//! run-to-run variation. A green run is a frozen regression sweep (256
//! cases by default), not real fuzzing — re-run the suite against
//! upstream proptest whenever registry access is available (see
//! `vendor/README.md`).

use dls_num::{gcd, lcm, modmath, BigInt, BigUint, Rational};
use proptest::prelude::*;

fn arb_biguint() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..12).prop_map(BigUint::from_limbs_le)
}

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    (arb_biguint(), any::<bool>()).prop_map(|(mag, neg)| {
        let v = BigInt::from(mag);
        if neg {
            -v
        } else {
            v
        }
    })
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    (any::<i64>(), 1..u32::MAX).prop_map(|(n, d)| {
        Rational::new(BigInt::from(n), BigInt::from(d as u64)).unwrap()
    })
}

proptest! {
    // ---------------- BigUint vs u128 ground truth ----------------

    #[test]
    fn u128_add_matches(a in any::<u64>(), b in any::<u64>()) {
        let s = &BigUint::from(a) + &BigUint::from(b);
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn u128_mul_matches(a in any::<u64>(), b in any::<u64>()) {
        let p = &BigUint::from(a) * &BigUint::from(b);
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn u128_divrem_matches(a in any::<u128>(), b in 1..=u64::MAX) {
        let (q, r) = BigUint::from(a).divrem(&BigUint::from(b));
        prop_assert_eq!(q.to_u128(), Some(a / b as u128));
        prop_assert_eq!(r.to_u128(), Some(a % b as u128));
    }

    // ---------------- BigUint ring axioms on multi-limb values ----------------

    #[test]
    fn add_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributive(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_sub_roundtrip(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!((&a + &b) - &b, a);
    }

    #[test]
    fn divrem_reconstruction(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_roundtrip(a in arb_biguint(), s in 0usize..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn shift_is_mul_by_power(a in arb_biguint(), s in 0usize..64) {
        prop_assert_eq!(&a << s, &a * &(BigUint::one() << s));
    }

    #[test]
    fn dec_string_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_dec_str(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn hex_string_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_hex_str(&format!("{a:x}")).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn isqrt_bounds(a in arb_biguint()) {
        let s = a.isqrt();
        prop_assert!(&s * &s <= a);
        let s1 = &s + &BigUint::one();
        prop_assert!(&s1 * &s1 > a);
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn gcd_lcm_product(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != 0 && b != 0);
        let (a, b) = (BigUint::from(a), BigUint::from(b));
        prop_assert_eq!(&gcd(&a, &b) * &lcm(&a, &b), &a * &b);
    }

    // ---------------- BigInt vs i128 ground truth ----------------

    #[test]
    fn i128_ops_match(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!((&ba + &bb).to_string(), (a as i128 + b as i128).to_string());
        prop_assert_eq!((&ba - &bb).to_string(), (a as i128 - b as i128).to_string());
        prop_assert_eq!((&ba * &bb).to_string(), (a as i128 * b as i128).to_string());
    }

    #[test]
    fn bigint_divrem_identity(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.magnitude() < b.magnitude());
    }

    #[test]
    fn bigint_mod_floor_range(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(b.is_positive());
        let r = a.mod_floor(&b);
        prop_assert!(!r.is_negative());
        prop_assert!(r < b);
    }

    #[test]
    fn extended_gcd_bezout(a in arb_bigint(), b in arb_bigint()) {
        let (g, x, y) = BigInt::extended_gcd(&a, &b);
        prop_assert_eq!(&(&a * &x) + &(&b * &y), g);
    }

    // ---------------- Rational field axioms ----------------

    #[test]
    fn rational_add_commutative(a in arb_rational(), b in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn rational_mul_inverse(a in arb_rational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(&a * &a.recip(), Rational::one());
    }

    #[test]
    fn rational_distributive(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn rational_sub_self_is_zero(a in arb_rational()) {
        prop_assert!((&a - &a).is_zero());
    }

    #[test]
    fn rational_f64_roundtrip(v in -1e12f64..1e12) {
        let r = Rational::from_f64(v).unwrap();
        let back = r.to_f64();
        prop_assert!((back - v).abs() <= v.abs() * 1e-12, "{} vs {}", back, v);
    }

    #[test]
    fn rational_ordering_consistent_with_f64(a in -10_000i64..10_000, b in 1i64..1000,
                                             c in -10_000i64..10_000, d in 1i64..1000) {
        let r1 = Rational::from_ratio(a, b);
        let r2 = Rational::from_ratio(c, d);
        let f1 = a as f64 / b as f64;
        let f2 = c as f64 / d as f64;
        if f1 < f2 {
            prop_assert!(r1 < r2);
        } else if f1 > f2 {
            prop_assert!(r1 > r2);
        }
    }

    // ---------------- Modular arithmetic ----------------

    #[test]
    fn pow_mod_matches_naive(base in 0u64..1000, exp in 0u32..50, m in 2u64..100_000) {
        let expected = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * base as u128 % m as u128;
            }
            acc as u64
        };
        let got = modmath::pow_mod(
            &BigUint::from(base),
            &BigUint::from(exp as u64),
            &BigUint::from(m),
        );
        prop_assert_eq!(got.to_u64(), Some(expected));
    }

    #[test]
    fn inv_mod_is_inverse(a in 1u64..u64::MAX, m in 2u64..u64::MAX) {
        let (ba, bm) = (BigUint::from(a), BigUint::from(m));
        if let Some(inv) = modmath::inv_mod(&ba, &bm) {
            prop_assert_eq!(modmath::mul_mod(&ba, &inv, &bm), BigUint::one());
        } else {
            // No inverse implies a shared factor.
            prop_assert!(!gcd(&ba, &bm).is_one());
        }
    }
}
