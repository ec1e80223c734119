//! Per-key exponentiation contexts and the per-session verification cache.
//!
//! Every RSA operation is a modular exponentiation under a fixed per-key
//! exponent, and every key performs many of them (a session verifies Θ(m²)
//! envelopes under m keys and signs Θ(m) bodies per key). The contexts here
//! hoist everything that depends only on the key out of the per-call path;
//! [`crate::rsa::generate`] builds them once per key pair:
//!
//! * [`VerifyCtx`] — the public half's [`MontgomeryCtx`] for the modulus
//!   `n` plus the fixed-window schedule for `e`. It is the key pair's only
//!   modulus-`n` context.
//! * [`SignCtx`] — the secret half signs through the Chinese Remainder
//!   Theorem: two half-width exponentiations, `m^dp mod p` and
//!   `m^dq mod q` with `dp = d mod (p−1)` and `dq = d mod (q−1)`, each
//!   under its own half-width Montgomery context, recombined with Garner's
//!   formula through `qinv = q⁻¹ mod p`. Half-width operands make each
//!   multiply ~4× cheaper and the half-length exponents halve the ladder,
//!   so a signature costs a quarter to a third of a full-modulus
//!   `m^d mod n`.
//!   The result is the same residue in `[0, n)` (the CRT bijection is
//!   exact), so signature bytes are identical to the plain `pow_mod`
//!   oracle's — the differential tests here and in `rsa` pin this down.
//! * [`VerifyCache`] — a session-scoped memo of envelope-verification
//!   verdicts keyed by a digest of (signer, body digest, signature), so the
//!   all-to-all broadcast verifies each envelope once instead of once per
//!   receiver. Sound because verification is deterministic: a verdict is a
//!   modexp over exactly the body digest and signature bytes under the
//!   signer's registered key, so the same triple under the same registry
//!   always yields the same verdict. The body digest is the envelope's
//!   memoized one ([`crate::pki::Signed::digest`]), so a lookup hashes ~100
//!   bytes instead of re-encoding the body.

use crate::sha256;
use dls_num::{modmath, BigUint, ExpWindows, MontgomeryCtx};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Precomputed state for modular exponentiation under one fixed exponent.
///
/// Holds the modulus's Montgomery context and the window schedule of the
/// exponent. Building one costs a handful of Montgomery multiplies; every
/// subsequent [`pow`](ExpCtx::pow) saves a Knuth-D division per multiply
/// relative to `modmath::pow_mod`.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    mont: Arc<MontgomeryCtx>,
    windows: ExpWindows,
}

impl ExpCtx {
    /// Builds a context for `exp` under the (odd, > 1) modulus in `mont`.
    pub fn new(mont: Arc<MontgomeryCtx>, exp: &BigUint) -> Self {
        ExpCtx {
            windows: ExpWindows::new(exp),
            mont,
        }
    }

    /// `base^exp mod n` — bit-identical to `modmath::pow_mod` on the same
    /// inputs (the Montgomery differential suites pin this down).
    pub fn pow(&self, base: &BigUint) -> BigUint {
        self.mont.pow_windows(base, &self.windows)
    }

    /// The Montgomery context for the modulus.
    pub fn montgomery(&self) -> &Arc<MontgomeryCtx> {
        &self.mont
    }
}

/// Per-key verification context: the public exponent's [`ExpCtx`].
pub type VerifyCtx = ExpCtx;

/// Per-key signing context: `m^d mod n` through the Chinese Remainder
/// Theorem (see the module docs).
///
/// Holds no modulus-`n` state: the public half's [`VerifyCtx`] is the key
/// pair's only full-width context. `Debug` prints the factor sizes only.
#[derive(Clone)]
pub struct SignCtx {
    /// `p`'s half-width Montgomery context and `dp = d mod (p−1)`'s
    /// window schedule.
    p: ExpCtx,
    /// `q`'s half-width Montgomery context and `dq = d mod (q−1)`'s
    /// window schedule.
    q: ExpCtx,
    /// `q⁻¹ mod p`, Garner's recombination coefficient.
    qinv: BigUint,
}

impl SignCtx {
    /// Builds the CRT state for the private exponent `d` under `n = p·q`.
    ///
    /// `p` and `q` must be distinct odd primes (what
    /// [`crate::rsa::generate`] draws) for [`pow`](SignCtx::pow) to equal
    /// `base^d mod n`: the exponent reductions are Fermat's little theorem.
    /// Returns `None` when either factor is even or below 3, or when `q`
    /// has no inverse mod `p`.
    pub fn new(p: &BigUint, q: &BigUint, d: &BigUint) -> Option<Self> {
        let one = BigUint::one();
        let half = |f: &BigUint| -> Option<ExpCtx> {
            let mont = MontgomeryCtx::new(f).ok()?;
            let f_minus_1 = f.checked_sub(&one)?;
            Some(ExpCtx::new(Arc::new(mont), &(d % &f_minus_1)))
        };
        let (hp, hq) = (half(p)?, half(q)?);
        Some(SignCtx {
            qinv: modmath::inv_mod(q, p)?,
            p: hp,
            q: hq,
        })
    }

    /// `base^d mod n` — bit-identical to `modmath::pow_mod(base, d, n)` on
    /// every base, including `0`, multiples of `p` or `q`, and `base >= n`.
    pub fn pow(&self, base: &BigUint) -> BigUint {
        let p = self.p.montgomery().modulus();
        let q = self.q.montgomery().modulus();
        // Each half reduces `base` by its own factor on entry.
        let sp = self.p.pow(base);
        let sq = self.q.pow(base);
        // Garner: s = sq + q·h with h = qinv·(sp − sq) mod p. Then
        // s ≡ sq (mod q), s ≡ sq + (sp − sq) = sp (mod p) as q·qinv ≡ 1, and
        // s ≤ (q − 1) + q·(p − 1) = n − 1, so s is already the canonical
        // residue in [0, n) and needs no final reduction.
        let diff = sub_mod(&sp, &(&sq % p), p);
        let h = modmath::mul_mod(&self.qinv, &diff, p);
        &sq + &(q * &h)
    }

    /// The half-width Montgomery contexts for `p` and `q`.
    #[cfg(test)]
    pub(crate) fn halves(&self) -> [&MontgomeryCtx; 2] {
        [self.p.montgomery(), self.q.montgomery()]
    }
}

impl fmt::Debug for SignCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the factors, the reduced exponents or qinv.
        write!(
            f,
            "SignCtx(p={} bits, q={} bits)",
            self.p.montgomery().modulus().bits(),
            self.q.montgomery().modulus().bits()
        )
    }
}

/// `(a − b) mod p` for reduced operands `a, b < p`.
fn sub_mod(a: &BigUint, b: &BigUint, p: &BigUint) -> BigUint {
    debug_assert!(a < p && b < p);
    if a >= b {
        // dls-lint: allow(unchecked-arith) -- a >= b by the branch test, so a − b >= 0
        a - b
    } else {
        // dls-lint: allow(unchecked-arith) -- a < b < p, so a + p > b and a + p − b lies in (0, p)
        &(a + p) - b
    }
}

/// Cache key: a SHA-256 digest binding signer identity, the SHA-256 digest
/// of the canonical body bytes, and signature bytes (the variable-length
/// fields are length-prefixed, so field boundaries cannot be confused).
/// The body digest is exactly what the signature is checked against, so
/// the key determines the verdict.
pub type VerdictKey = [u8; 32];

/// Computes the [`VerdictKey`] for an envelope's signer, body digest and
/// signature bytes.
pub fn verdict_key(signer: &str, body_digest: &sha256::Digest, signature: &[u8]) -> VerdictKey {
    let mut h = sha256::Sha256::new();
    h.update(&(signer.len() as u64).to_be_bytes());
    h.update(signer.as_bytes());
    h.update(body_digest);
    h.update(&(signature.len() as u64).to_be_bytes());
    h.update(signature);
    h.finalize()
}

/// A session-scoped memo of envelope-verification verdicts.
///
/// Cheap to clone (shared map) so every processor role in a session can
/// hold one; whoever verifies an envelope first pays the modexp and every
/// later receiver of the same bytes gets the memoized verdict. Verdicts are
/// only valid under the registry the session was built with, so the cache
/// must not outlive its session.
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    verdicts: Arc<Mutex<BTreeMap<VerdictKey, bool>>>,
}

impl VerifyCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized verdict for `key`, if any receiver has verified these
    /// bytes before.
    pub fn get(&self, key: &VerdictKey) -> Option<bool> {
        self.verdicts.lock().expect("verdict cache poisoned").get(key).copied()
    }

    /// Records the verdict for `key`.
    pub fn insert(&self, key: VerdictKey, verdict: bool) {
        self.verdicts.lock().expect("verdict cache poisoned").insert(key, verdict);
    }

    /// Number of distinct envelopes verified so far.
    pub fn len(&self) -> usize {
        self.verdicts.lock().expect("verdict cache poisoned").len()
    }

    /// `true` iff no verdicts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exp_ctx_matches_pow_mod() {
        let n = BigUint::from_dec_str("1000000000000000003").unwrap(); // prime
        let mont = Arc::new(MontgomeryCtx::new(&n).unwrap());
        let e = BigUint::from(65_537u32);
        let ctx = ExpCtx::new(Arc::clone(&mont), &e);
        for base in [2u64, 17, 999_999_999_999_999_999] {
            let b = BigUint::from(base);
            assert_eq!(ctx.pow(&b), modmath::pow_mod(&b, &e, &n), "base {base}");
        }
    }

    /// `(n, d)` for `e = 65537` over two distinct odd primes `p`, `q`.
    fn crt_key(p: &BigUint, q: &BigUint) -> (BigUint, BigUint) {
        let one = BigUint::one();
        let phi = &(p - &one) * &(q - &one);
        let d = modmath::inv_mod(&BigUint::from(65_537u32), &phi).unwrap();
        (p * q, d)
    }

    /// The edge bases: 0, 1, n−1, multiples of p and of q, and bases >= n.
    fn edge_bases(p: &BigUint, q: &BigUint, n: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        vec![
            BigUint::zero(),
            one.clone(),
            BigUint::from(2u32),
            n - &one,
            p.clone(),
            p.mul_small(3),
            p * &(q - &one),
            q.clone(),
            q.mul_small(5),
            q * &(p - &one),
            n.clone(),
            n + &one,
            n.mul_small(7) + p.clone(),
            &(n * n) + &q.mul_small(2),
        ]
    }

    #[test]
    fn sign_ctx_matches_pow_mod_on_edge_bases() {
        // Small primes, both orders (p < q and p > q exercise the
        // wrap-around branch of the recombination differently), and a
        // generated 512-bit pair.
        let a = BigUint::from_dec_str("1000000007").unwrap();
        let b = BigUint::from_dec_str("998244353").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let c = crate::prime::gen_prime(256, &mut rng);
        let d = crate::prime::gen_prime(256, &mut rng);
        for (p, q) in [(&a, &b), (&b, &a), (&c, &d), (&d, &c)] {
            let (n, exp) = crt_key(p, q);
            let ctx = SignCtx::new(p, q, &exp).unwrap();
            for base in edge_bases(p, q, &n) {
                let oracle = modmath::pow_mod(&base, &exp, &n);
                assert_eq!(ctx.pow(&base), oracle, "base {base}");
            }
            // A sweep of ordinary bases, all residues below n.
            let mut base = BigUint::from(3u32);
            for _ in 0..32 {
                let oracle = modmath::pow_mod(&base, &exp, &n);
                assert_eq!(ctx.pow(&base), oracle, "base {base}");
                base = &(&(&base * &base) + &BigUint::from(7u32)) % &n;
            }
        }
    }

    #[test]
    fn sign_ctx_rejects_unusable_factors() {
        let p = BigUint::from(1_000_000_007u32);
        let d = BigUint::from(65_537u32);
        // Even factor, unit factor, and a factor sharing p (no qinv).
        assert!(SignCtx::new(&p, &BigUint::from(1_000_000_006u32), &d).is_none());
        assert!(SignCtx::new(&p, &BigUint::one(), &d).is_none());
        assert!(SignCtx::new(&p, &p.mul_small(3), &d).is_none());
        assert!(SignCtx::new(&BigUint::zero(), &p, &d).is_none());
    }

    #[test]
    fn verdict_keys_separate_fields() {
        // Changing any field, or moving a byte across the signer/signature
        // boundary, must change the key.
        let d = sha256::digest(b"body");
        let a = verdict_key("P1", &d, b"c");
        assert_ne!(a, verdict_key("P2", &d, b"c"));
        assert_ne!(a, verdict_key("P1", &sha256::digest(b"bodY"), b"c"));
        assert_ne!(a, verdict_key("P1", &d, b"d"));
        assert_ne!(verdict_key("P1a", &d, b""), verdict_key("P1", &d, b"a"));
        assert_eq!(a, verdict_key("P1", &d, b"c"));
    }

    #[test]
    fn cache_memoizes() {
        let cache = VerifyCache::new();
        let k = verdict_key("P1", &sha256::digest(b"body"), b"sig");
        assert!(cache.is_empty());
        assert_eq!(cache.get(&k), None);
        cache.insert(k, true);
        assert_eq!(cache.get(&k), Some(true));
        assert_eq!(cache.len(), 1);
        // Clones share the same verdict map.
        let clone = cache.clone();
        let k2 = verdict_key("P2", &sha256::digest(b"body"), b"sig");
        clone.insert(k2, false);
        assert_eq!(cache.get(&k2), Some(false));
        assert_eq!(cache.len(), 2);
    }
}
