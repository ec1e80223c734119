//! Per-key RSA contexts and the per-session verification cache.
//!
//! Every RSA operation is a modular exponentiation under a fixed per-key
//! exponent, and every key performs many of them (a session verifies Θ(m²)
//! envelopes under m keys and signs Θ(m) bodies per key). The contexts here
//! hoist everything that depends only on the key out of the per-call path;
//! [`crate::rsa::generate`] builds them once per key pair. Each runs on the
//! fixed-width Montgomery kernel of `dls-num`: the storage width is picked
//! once per key by [`with_limbs`], so the 384-, 512- and 1024-bit keys and
//! their CRT halves run on `[u64; N]` words on the stack, and bytes go
//! straight to words and back with no `BigUint` and no heap traffic
//! between.
//!
//! * [`VerifyCtx`] — the public half: the Montgomery context for the
//!   modulus `n` and the fixed-window schedule for `e`. It is the key
//!   pair's only modulus-`n` context. A verification loads the signature
//!   bytes into words (rejecting `s ≥ n`), raises them to `e` and compares
//!   the result word for word with the padded digest.
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

use crate::rsa::padded;
use crate::sha256::{self, Digest};
use dls_num::limbs::{be_bytes_minimal, limbs_from_biguint, load_be, mul_add_wide};
use dls_num::{modmath, with_limbs, BigUint, ExpWindows, Limbs, LimbsVisitor, MontgomeryCtx};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The public half at one storage width (see [`VerifyCtx`]).
///
/// Bounds are spelled as `where` clauses because the unchecked-arithmetic
/// lint, which covers this file, reads a `+` between names as arithmetic.
trait VerifyKernel
where
    Self: Send,
    Self: Sync,
{
    fn verify(&self, digest: &Digest, sig: &[u8]) -> bool;
    fn pow_be(&self, base: &[u8]) -> Vec<u8>;
    fn modulus(&self) -> BigUint;
    fn width(&self) -> usize;
}

/// `n`'s Montgomery context, `e`'s window schedule and the modulus length
/// `k` in bytes.
struct PublicHalf<L: Limbs> {
    n: MontgomeryCtx<L>,
    e: ExpWindows,
    k: usize,
}

impl<L: Limbs> VerifyKernel for PublicHalf<L> {
    fn verify(&self, digest: &Digest, sig: &[u8]) -> bool {
        let n = &self.n;
        // Leading zero bytes carry no value; a value too wide for the
        // storage is at least R > n and fails like any other s ≥ n.
        let Some(s) = load_be::<L>(n.width(), sig.len(), sig.iter().copied()) else {
            return false;
        };
        if !n.is_reduced(&s) {
            return false;
        }
        let m = n.from_mont(&n.pow_to_mont(&n.to_mont(&s), &self.e));
        load_be::<L>(n.width(), self.k, padded(digest, self.k))
            .is_some_and(|expected| m == expected)
    }

    fn pow_be(&self, base: &[u8]) -> Vec<u8> {
        let n = &self.n;
        let base_m = n.to_mont_be(base.len(), base.iter().copied());
        be_bytes_minimal(&[n.from_mont(&n.pow_to_mont(&base_m, &self.e)).words()])
    }

    fn modulus(&self) -> BigUint {
        BigUint::from_limbs_le(self.n.modulus().words().to_vec())
    }

    fn width(&self) -> usize {
        self.n.width()
    }
}

/// Per-key verification context: `s^e mod n` on the fixed-width kernel
/// (see the module docs). Cheap to clone: clones share the kernel.
#[derive(Clone)]
pub struct VerifyCtx {
    kernel: Arc<dyn VerifyKernel>,
}

impl VerifyCtx {
    /// Builds the context for the public exponent `e` under the modulus
    /// `n`. Returns `None` when `n` is even or below 3.
    pub fn new(n: &BigUint, e: &BigUint) -> Option<Self> {
        struct Build<'a>(&'a BigUint, &'a BigUint);
        impl LimbsVisitor for Build<'_> {
            type Output = Option<Arc<dyn VerifyKernel>>;
            fn visit<L: Limbs>(self, width: usize) -> Self::Output {
                let Build(n, e) = self;
                Some(Arc::new(PublicHalf::<L> {
                    n: MontgomeryCtx::new(n, width).ok()?,
                    e: ExpWindows::new(e),
                    k: n.bits().div_ceil(8),
                }))
            }
        }
        let kernel = with_limbs(n.limbs().len(), Build(n, e))?;
        Some(VerifyCtx { kernel })
    }

    /// `true` iff `sig` (big-endian, leading zeros allowed) is the
    /// signature of `digest`: `sig < n` and `sig^e mod n` equals the
    /// padded digest. Verdicts are those of
    /// [`crate::rsa::PublicKey::verify_digest_naive`] on every input.
    pub fn verify_digest(&self, digest: &Digest, sig: &[u8]) -> bool {
        self.kernel.verify(digest, sig)
    }

    /// `base^e mod n` — bit-identical to `modmath::pow_mod(base, e, n)`,
    /// including `base >= n`.
    pub fn pow(&self, base: &BigUint) -> BigUint {
        BigUint::from_bytes_be(&self.kernel.pow_be(&base.to_bytes_be()))
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> BigUint {
        self.kernel.modulus()
    }

    /// Operand width in 64-bit words.
    pub fn width(&self) -> usize {
        self.kernel.width()
    }
}

impl fmt::Debug for VerifyCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyCtx(n={} bits)", self.modulus().bits())
    }
}

/// The secret half at one storage width (see [`SignCtx`]).
trait SignKernel
where
    Self: Send,
    Self: Sync,
{
    fn sign(&self, digest: &Digest) -> Vec<u8>;
    fn pow_be(&self, base: &[u8]) -> Vec<u8>;
    fn factors(&self) -> [BigUint; 2];
    fn width(&self) -> usize;
}

/// Both CRT halves in one storage width (the wider factor's, so Garner's
/// recombination mixes operands of one type): each factor's Montgomery
/// context and reduced exponent's window schedule, `qinv = q⁻¹ mod p`, and
/// the modulus length `k` in bytes.
struct CrtHalves<L: Limbs> {
    p: MontgomeryCtx<L>,
    q: MontgomeryCtx<L>,
    dp: ExpWindows,
    dq: ExpWindows,
    qinv: L,
    k: usize,
}

impl<L: Limbs> CrtHalves<L> {
    /// `base^d mod n` for the big-endian `len`-byte `base`, as minimal
    /// big-endian bytes.
    fn pow(&self, len: usize, base: impl Iterator<Item = u8> + Clone) -> Vec<u8> {
        let (p, q) = (&self.p, &self.q);
        // Each half reduces the base by its own factor on entry, and the
        // two ladders run in lockstep; sp stays in p's Montgomery domain,
        // sq leaves q's.
        let (bp, bq) = (p.to_mont_be(len, base.clone()), q.to_mont_be(len, base));
        let (sp, sq) = MontgomeryCtx::pow_to_mont_pair((p, &bp, &self.dp), (q, &bq, &self.dq));
        let sq = q.from_mont(&sq);
        // Garner: s = sq + q·h with h = qinv·(sp − sq) mod p. Then
        // s ≡ sq (mod q), s ≡ sq + (sp − sq) = sp (mod p) as q·qinv ≡ 1, and
        // s ≤ (q − 1) + q·(p − 1) = n − 1, so s is already the canonical
        // residue in [0, n) and needs no final reduction. In p's domain,
        // to_mont(sq) is sq·R (sq < q fits the storage), the difference is
        // (sp − sq)·R, and one multiply by the plain qinv strips the R.
        let diff = p.sub(&sp, &p.to_mont(&sq));
        let h = p.mul(&diff, &self.qinv);
        let (lo, hi) = mul_add_wide(q.modulus(), &h, &sq);
        be_bytes_minimal(&[lo.words(), hi.words()])
    }
}

impl<L: Limbs> SignKernel for CrtHalves<L> {
    fn sign(&self, digest: &Digest) -> Vec<u8> {
        self.pow(self.k, padded(digest, self.k))
    }

    fn pow_be(&self, base: &[u8]) -> Vec<u8> {
        self.pow(base.len(), base.iter().copied())
    }

    fn factors(&self) -> [BigUint; 2] {
        [&self.p, &self.q].map(|f| BigUint::from_limbs_le(f.modulus().words().to_vec()))
    }

    fn width(&self) -> usize {
        self.p.width()
    }
}

/// Per-key signing context: `m^d mod n` through the Chinese Remainder
/// Theorem on the fixed-width kernel (see the module docs).
///
/// Holds no modulus-`n` state: the public half's [`VerifyCtx`] is the key
/// pair's only full-width context. `Debug` prints the factor sizes only.
/// Cheap to clone: clones share the kernel.
#[derive(Clone)]
pub struct SignCtx {
    kernel: Arc<dyn SignKernel>,
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
        struct Build<'a>(&'a BigUint, &'a BigUint, &'a BigUint);
        impl LimbsVisitor for Build<'_> {
            type Output = Option<Arc<dyn SignKernel>>;
            fn visit<L: Limbs>(self, width: usize) -> Self::Output {
                let Build(p, q, d) = self;
                let one = BigUint::one();
                let half = |f: &BigUint| -> Option<(MontgomeryCtx<L>, ExpWindows)> {
                    let mont = MontgomeryCtx::new(f, width).ok()?;
                    Some((mont, ExpWindows::new(&(d % &f.checked_sub(&one)?))))
                };
                let ((hp, dp), (hq, dq)) = (half(p)?, half(q)?);
                // k is the byte length of n = p·q.
                let (lo, hi) = mul_add_wide(hp.modulus(), hq.modulus(), &L::zeroed(width));
                Some(Arc::new(CrtHalves {
                    qinv: limbs_from_biguint(&modmath::inv_mod(q, p)?, width)?,
                    k: be_bytes_minimal(&[lo.words(), hi.words()]).len(),
                    p: hp,
                    q: hq,
                    dp,
                    dq,
                }))
            }
        }
        let width = p.limbs().len().max(q.limbs().len());
        let kernel = with_limbs(width, Build(p, q, d))?;
        Some(SignCtx { kernel })
    }

    /// The signature bytes of `digest`: the padded digest raised to `d`,
    /// as minimal big-endian bytes (what `BigUint::to_bytes_be` gives).
    /// The returned vector is the only heap allocation.
    pub fn sign_digest(&self, digest: &Digest) -> Vec<u8> {
        self.kernel.sign(digest)
    }

    /// `base^d mod n` — bit-identical to `modmath::pow_mod(base, d, n)` on
    /// every base, including `0`, multiples of `p` or `q`, and `base >= n`.
    pub fn pow(&self, base: &BigUint) -> BigUint {
        BigUint::from_bytes_be(&self.kernel.pow_be(&base.to_bytes_be()))
    }

    /// Operand width in 64-bit words, shared by both halves.
    pub fn width(&self) -> usize {
        self.kernel.width()
    }

    /// The factors `[p, q]`.
    #[cfg(test)]
    pub(crate) fn halves(&self) -> [BigUint; 2] {
        self.kernel.factors()
    }
}

impl fmt::Debug for SignCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the factors, the reduced exponents or qinv.
        let [p, q] = self.kernel.factors();
        write!(f, "SignCtx(p={} bits, q={} bits)", p.bits(), q.bits())
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
        self.verdicts
            .lock()
            .expect("verdict cache poisoned")
            .get(key)
            .copied()
    }

    /// Records the verdict for `key`.
    pub fn insert(&self, key: VerdictKey, verdict: bool) {
        self.verdicts
            .lock()
            .expect("verdict cache poisoned")
            .insert(key, verdict);
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
    fn verify_ctx_matches_pow_mod() {
        let n = BigUint::from_dec_str("1000000000000000003").unwrap(); // prime
        let e = BigUint::from(65_537u32);
        let ctx = VerifyCtx::new(&n, &e).unwrap();
        assert_eq!(ctx.modulus(), n);
        for base in [0u64, 2, 17, 999_999_999_999_999_999, u64::MAX] {
            let b = BigUint::from(base);
            assert_eq!(ctx.pow(&b), modmath::pow_mod(&b, &e, &n), "base {base}");
        }
        assert!(VerifyCtx::new(&BigUint::from(1_000_000u32), &e).is_none());
        assert!(VerifyCtx::new(&BigUint::one(), &e).is_none());
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
