//! Primality testing and prime generation for the RSA substrate.

use dls_num::{with_limbs, BigUint, ExpWindows, Limbs, LimbsVisitor, MontgomeryCtx};
use rand::Rng;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Deterministic Miller–Rabin witness set, sufficient for all
/// `n < 3.317e24` (Sorenson & Webster); used in addition to random bases so
/// small inputs are decided *exactly*.
const DETERMINISTIC_BASES: [u32; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Number of random Miller–Rabin rounds for large candidates
/// (error probability ≤ 4^-24 per candidate).
const RANDOM_ROUNDS: usize = 24;

/// Returns `true` iff `n` is (very probably) prime.
///
/// Exact for `n < 3.3e24` via a deterministic witness set; probabilistic
/// (error ≤ 4⁻²⁴) above that.
pub fn is_prime(n: &BigUint, rng: &mut impl Rng) -> bool {
    if n < &BigUint::from(2u32) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let bp = BigUint::from(p);
        if n == &bp {
            return true;
        }
        if (n % &bp).is_zero() {
            return false;
        }
    }

    // n-1 = d · 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let s = trailing_zeros(&n_minus_1);
    let d = &n_minus_1 >> s;

    let deterministic = n.bits() <= 82; // 3.3e24 < 2^82
    let witnesses: Vec<BigUint> = if deterministic {
        DETERMINISTIC_BASES.iter().map(|&b| BigUint::from(b)).collect()
    } else {
        (0..RANDOM_ROUNDS)
            .map(|_| random_below(rng, &(n - &BigUint::from(3u32))) + BigUint::from(2u32))
            .collect()
    };

    with_limbs(
        n.limbs().len(),
        MillerRabin {
            n,
            d: &d,
            s,
            witnesses: &witnesses,
        },
    )
}

/// The witness rounds for an odd candidate `n > 2` with `n − 1 = d·2^s`,
/// run on the fixed-width kernel at `n`'s width.
struct MillerRabin<'a> {
    n: &'a BigUint,
    d: &'a BigUint,
    s: usize,
    witnesses: &'a [BigUint],
}

impl LimbsVisitor for MillerRabin<'_> {
    type Output = bool;

    fn visit<L: Limbs>(self, width: usize) -> bool {
        let MillerRabin { n, d, s, witnesses } = self;
        // One Montgomery context per candidate (n survived the small-prime
        // sieve, so it is odd and > 2) and one window schedule for the
        // shared exponent d, reused across every witness round. All
        // comparisons stay in the Montgomery domain: the representation
        // is a bijection on [0, n), so word equality is value equality.
        let ctx = MontgomeryCtx::<L>::new(n, width).expect("sieved candidate is odd and > 1");
        let d_windows = ExpWindows::new(d);
        let one_m = ctx.one();
        // −1 ≡ n − 1 in the domain: 0 − R mod n.
        let minus_one_m = ctx.sub(&L::zeroed(width), &one_m);

        'witness: for a in witnesses {
            let a = a % n;
            if a.is_zero() || a.is_one() {
                continue;
            }
            let mut x = ctx.pow_to_mont(&ctx.reduce(&a), &d_windows);
            if x == one_m || x == minus_one_m {
                continue;
            }
            for _ in 0..s.saturating_sub(1) {
                x = ctx.mul(&x, &x);
                if x == minus_one_m {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut i = 0;
    while !n.bit(i) {
        i += 1;
    }
    i
}

/// Uniform random value in `[0, bound)`.
///
/// # Panics
/// Panics if `bound` is zero.
pub fn random_below(rng: &mut impl Rng, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "empty range");
    let bits = bound.bits();
    loop {
        let v = random_bits(rng, bits);
        if &v < bound {
            return v;
        }
    }
}

/// Random value with exactly `bits` random low bits (top bits not forced).
///
/// Draws `bits / 32` rounded up `u32` values and packs them two per word,
/// low draw first.
pub fn random_bits(rng: &mut impl Rng, bits: usize) -> BigUint {
    let draws = bits.div_ceil(32);
    let mut words: Vec<u64> = (0..draws.div_ceil(2))
        .map(|i| {
            let lo = u64::from(rng.gen::<u32>());
            let hi = if 2 * i + 1 < draws { u64::from(rng.gen::<u32>()) } else { 0 };
            hi << 32 | lo
        })
        .collect();
    let extra = 64 * words.len() - bits;
    if let Some(top) = words.last_mut() {
        *top &= u64::MAX >> extra;
    }
    BigUint::from_limbs_le(words)
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// Top two bits are forced to 1 (so the product of two such primes has the
/// full `2·bits` length — the usual RSA convention) and the low bit is 1.
///
/// # Panics
/// Panics if `bits < 8`.
pub fn gen_prime(bits: usize, rng: &mut impl Rng) -> BigUint {
    assert!(bits >= 8, "prime too small to be useful");
    loop {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in SMALL_PRIMES {
            assert!(is_prime(&BigUint::from(p), &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u32, 1, 4, 6, 8, 9, 100, 561, 1105, 1729, 2465, 6601, 8911] {
            // includes the first Carmichael numbers
            assert!(!is_prime(&BigUint::from(c), &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_primes() {
        let mut r = rng();
        // Mersenne primes 2^61-1, 2^89-1, 2^107-1.
        for e in [61usize, 89, 107] {
            let p = &(BigUint::one() << e) - &BigUint::one();
            assert!(is_prime(&p, &mut r), "2^{e}-1");
        }
        // 2^67-1 is famously composite (193707721 × 761838257287).
        let c = &(BigUint::one() << 67usize) - &BigUint::one();
        assert!(!is_prime(&c, &mut r));
    }

    /// Trial-division oracle, independent of Montgomery and Miller–Rabin.
    fn is_prime_by_trial_division(n: u64) -> bool {
        n >= 2 && (2..).take_while(|d| d * d <= n).all(|d| !n.is_multiple_of(d))
    }

    #[test]
    fn agrees_with_trial_division_across_the_word_boundary() {
        // Candidates on both sides of 2³², all in one u64 word.
        let mut r = rng();
        let (lo, hi) = ((1u64 << 32) - 4096, (1u64 << 32) + 4096);
        let mut primes = 0;
        for n in (lo + 1..=hi).step_by(2) {
            let expected = is_prime_by_trial_division(n);
            assert_eq!(is_prime(&BigUint::from(n), &mut r), expected, "n = {n}");
            primes += expected as usize;
        }
        assert!(primes > 300, "the window holds ~370 primes, got {primes}");
    }

    #[test]
    fn strong_pseudoprimes_to_small_base_sets_rejected() {
        let mut r = rng();
        // 3215031751 fools bases {2, 3, 5, 7}; 3825123056546413051 fools
        // every prime base up to 23.
        for c in [3_215_031_751u64, 3_825_123_056_546_413_051] {
            assert!(!is_prime(&BigUint::from(c), &mut r), "{c}");
        }
    }

    #[test]
    fn known_rsa_style_semiprime_rejected() {
        let mut r = rng();
        let p = &(BigUint::one() << 61usize) - &BigUint::one();
        let q = &(BigUint::one() << 89usize) - &BigUint::one();
        assert!(!is_prime(&(&p * &q), &mut r));
    }

    #[test]
    fn gen_prime_properties() {
        let mut r = rng();
        for bits in [32usize, 64, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert!(p.bit(bits - 2), "top-2 bit forced");
            assert!(!p.is_even());
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from(1000u32);
        for _ in 0..200 {
            assert!(random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn random_bits_matches_known_answer() {
        // Seven u32 draws, the last masked to 8 bits: the value pins both
        // the draw order and how the draws are packed into words.
        let v = random_bits(&mut StdRng::seed_from_u64(2024), 200);
        assert_eq!(format!("{v:x}"), "ca8d6b7b6dd4a0c1651dbe69e04c6f7cbf18e430bb9f6d8fec");
    }

    #[test]
    fn random_bits_bounded() {
        let mut r = rng();
        for bits in [1usize, 31, 32, 33, 100] {
            for _ in 0..20 {
                assert!(random_bits(&mut r, bits).bits() <= bits);
            }
        }
    }
}
