//! Textbook RSA signatures over SHA-256 digests.
//!
//! **Simulation-grade.** The mechanism needs signatures that are unforgeable
//! *within the simulation* and verifiable by third parties (the referee uses
//! them as evidence of equivocation, Lemma 5.2). It does not need resistance
//! to real-world adversaries, so we use small default moduli for speed and a
//! simplified EMSA-PKCS#1-v1.5 padding (no ASN.1 `DigestInfo` prefix).
//!
//! **Per-key state.** [`generate`] builds each half's context once:
//! the public key holds `(n, e)` and a [`VerifyCtx`] (the only Montgomery
//! context over the full modulus `n`); the secret key holds `(n, d)` and a
//! [`SignCtx`] with one half-width Montgomery context for each factor `p`
//! and `q`, the window schedules of `dp = d mod (p−1)` and
//! `dq = d mod (q−1)`, and `qinv = q⁻¹ mod p`. [`SecretKey::sign_digest`]
//! signs through the Chinese Remainder Theorem on that state. Both
//! contexts run on fixed-width words (see [`crate::ctx`]): the fast paths
//! build no `BigUint`, and signing allocates only the signature.
//!
//! **Byte identity.** Padding is deterministic and the CRT recombination
//! yields the unique residue `m^d mod n`, so every signature is the same
//! bytes as [`SecretKey::sign_digest_naive`]'s plain `pow_mod` with the
//! full `d` — which stays public as the oracle. Signature caches, referee
//! evidence and the differential suites therefore see no change.

use crate::ctx::{SignCtx, VerifyCtx};
use crate::sha256::{self, Digest};
use dls_num::{gcd, modmath, BigUint};
use rand::Rng;
use std::fmt;

/// Default modulus size in bits. Small on purpose: sessions create one key
/// pair per processor and property tests create many.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Smallest supported modulus: padding needs `3 + 8 + 32` bytes minimum.
pub const MIN_MODULUS_BITS: usize = 384;

/// Fixed public exponent (F4).
const PUBLIC_EXPONENT: u32 = 65_537;

/// Errors from key generation and signing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Requested modulus below [`MIN_MODULUS_BITS`].
    ModulusTooSmall {
        /// Requested bit size.
        requested: usize,
    },
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::ModulusTooSmall { requested } => write!(
                f,
                "modulus of {requested} bits is below the minimum of {MIN_MODULUS_BITS}"
            ),
        }
    }
}

impl std::error::Error for RsaError {}

/// RSA public key `(n, e)` with its prebuilt [`VerifyCtx`].
///
/// The context (Montgomery constants for `n`, window schedule for `e`) is
/// derived data: identity, equality, and hashing consider only `(n, e)`.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    ctx: VerifyCtx,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Skip the derived Montgomery constants; (n, e) is the identity.
        f.debug_struct("PublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// RSA secret key `(n, d)` with its prebuilt CRT [`SignCtx`].
#[derive(Clone)]
pub struct SecretKey {
    n: BigUint,
    d: BigUint,
    ctx: SignCtx,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private exponent or the CRT state.
        write!(f, "SecretKey(n={} bits)", self.n.bits())
    }
}

/// A detached signature (big-endian bytes of `s = m^d mod n`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawSignature(pub Vec<u8>);

// A signature nested in a signed body (a block inside a grant, quoted
// evidence) encodes as one framed byte string, not as a byte sequence.
impl serde::Serialize for RawSignature {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        crate::canon::Bytes(&self.0).serialize(serializer)
    }
}

impl PublicKey {
    /// Modulus size in bytes (`k` in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Verifies `sig` over `message` (hashed internally with SHA-256).
    pub fn verify(&self, message: &[u8], sig: &RawSignature) -> bool {
        self.verify_digest(&sha256::digest(message), sig)
    }

    /// Verifies `sig` over `message` via plain `pow_mod` (see
    /// [`verify_digest_naive`]): the pre-Montgomery reference path used as
    /// the per-receiver cost baseline in benchmarks.
    ///
    /// [`verify_digest_naive`]: PublicKey::verify_digest_naive
    pub fn verify_naive(&self, message: &[u8], sig: &RawSignature) -> bool {
        self.verify_digest_naive(&sha256::digest(message), sig)
    }

    /// Verifies `sig` over a precomputed digest using the prebuilt
    /// fixed-width context (the fast path). Verdicts are identical to
    /// [`verify_digest_naive`]'s.
    ///
    /// [`verify_digest_naive`]: PublicKey::verify_digest_naive
    pub fn verify_digest(&self, digest: &Digest, sig: &RawSignature) -> bool {
        self.ctx.verify_digest(digest, &sig.0)
    }

    /// Verifies `sig` via plain `pow_mod` — the pre-Montgomery reference
    /// path, kept public as the differential oracle and the benchmark
    /// baseline. Verdicts are bit-identical to [`verify_digest`]
    /// (deterministic hash-then-modexp over the same unique residues).
    ///
    /// [`verify_digest`]: PublicKey::verify_digest
    pub fn verify_digest_naive(&self, digest: &Digest, sig: &RawSignature) -> bool {
        let s = BigUint::from_bytes_be(&sig.0);
        if s >= self.n {
            return false;
        }
        let m = modmath::pow_mod(&s, &self.e, &self.n);
        let expected = pad_digest(digest, self.modulus_len());
        m == BigUint::from_bytes_be(&expected)
    }

    /// The prebuilt verification context.
    pub fn verify_ctx(&self) -> &VerifyCtx {
        &self.ctx
    }
}

impl SecretKey {
    /// Signs `message` (hashed internally with SHA-256).
    pub fn sign(&self, message: &[u8]) -> RawSignature {
        self.sign_digest(&sha256::digest(message))
    }

    /// Signs a precomputed digest through the prebuilt CRT context (the
    /// fast path). Bytes are identical to [`sign_digest_naive`]'s.
    ///
    /// [`sign_digest_naive`]: SecretKey::sign_digest_naive
    pub fn sign_digest(&self, digest: &Digest) -> RawSignature {
        RawSignature(self.ctx.sign_digest(digest))
    }

    /// Signs via plain `pow_mod` with the full private exponent `d` — the
    /// reference path, kept public as the differential oracle. Signature
    /// bytes are identical to [`sign_digest`]'s.
    ///
    /// [`sign_digest`]: SecretKey::sign_digest
    pub fn sign_digest_naive(&self, digest: &Digest) -> RawSignature {
        let k = self.n.bits().div_ceil(8);
        let m = BigUint::from_bytes_be(&pad_digest(digest, k));
        debug_assert!(m < self.n);
        let s = modmath::pow_mod(&m, &self.d, &self.n);
        RawSignature(s.to_bytes_be())
    }
}

/// Simplified EMSA-PKCS#1-v1.5: `0x00 0x01 FF…FF 0x00 || digest`,
/// `k` bytes total, most significant first. The fast paths stream it
/// straight into words.
pub(crate) fn padded(digest: &Digest, k: usize) -> impl Iterator<Item = u8> + Clone + '_ {
    assert!(k >= digest.len() + 11, "modulus too small for padding");
    [0x00, 0x01]
        .into_iter()
        .chain(std::iter::repeat_n(0xff, k - digest.len() - 3))
        .chain(std::iter::once(0x00))
        .chain(digest.iter().copied())
}

/// The padded digest as bytes, for the naive paths.
fn pad_digest(digest: &Digest, k: usize) -> Vec<u8> {
    padded(digest, k).collect()
}

/// Generates an RSA key pair with an `bits`-bit modulus.
pub fn generate(bits: usize, rng: &mut impl Rng) -> Result<(PublicKey, SecretKey), RsaError> {
    if bits < MIN_MODULUS_BITS {
        return Err(RsaError::ModulusTooSmall { requested: bits });
    }
    let e = BigUint::from(PUBLIC_EXPONENT);
    loop {
        let p = crate::prime::gen_prime(bits / 2, rng);
        let q = crate::prime::gen_prime(bits - bits / 2, rng);
        if p == q {
            continue;
        }
        let n = &p * &q;
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        if !gcd(&e, &phi).is_one() {
            continue;
        }
        let d = modmath::inv_mod(&e, &phi).expect("coprime by check above");
        // The public half gets the only modulus-n context; the secret half
        // signs through the CRT on p and q.
        let verify_ctx = VerifyCtx::new(&n, &e).expect("RSA modulus is an odd semiprime > 1");
        let sign_ctx = SignCtx::new(&p, &q, &d).expect("p and q are distinct odd primes");
        return Ok((
            PublicKey {
                n: n.clone(),
                e,
                ctx: verify_ctx,
            },
            SecretKey {
                n,
                d,
                ctx: sign_ctx,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (PublicKey, SecretKey) {
        let mut rng = StdRng::seed_from_u64(7);
        generate(MIN_MODULUS_BITS, &mut rng).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (pk, sk) = keypair();
        let msg = b"bid: P3 offers w=2.25";
        let sig = sk.sign(msg);
        assert!(pk.verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let (pk, sk) = keypair();
        let sig = sk.sign(b"alpha = 0.25");
        assert!(!pk.verify(b"alpha = 0.26", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (pk, sk) = keypair();
        let mut sig = sk.sign(b"payload");
        sig.0[0] ^= 0x40;
        assert!(!pk.verify(b"payload", &sig));
    }

    #[test]
    fn signature_from_wrong_key_rejected() {
        let (pk, _) = keypair();
        let mut rng = StdRng::seed_from_u64(99);
        let (_, other_sk) = generate(MIN_MODULUS_BITS, &mut rng).unwrap();
        let sig = other_sk.sign(b"payload");
        assert!(!pk.verify(b"payload", &sig));
    }

    #[test]
    fn oversized_signature_value_rejected() {
        let (pk, _) = keypair();
        // s >= n must be rejected without panicking.
        let huge = RawSignature(vec![0xff; pk.modulus_len() + 4]);
        assert!(!pk.verify(b"x", &huge));
    }

    #[test]
    fn too_small_modulus_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            generate(128, &mut rng),
            Err(RsaError::ModulusTooSmall { requested: 128 })
        ));
    }

    #[test]
    fn padding_shape() {
        let d = sha256::digest(b"abc");
        let padded = pad_digest(&d, 48);
        assert_eq!(padded.len(), 48);
        assert_eq!(&padded[..2], &[0x00, 0x01]);
        assert_eq!(padded[48 - 33], 0x00);
        assert_eq!(&padded[48 - 32..], &d);
        assert!(padded[2..48 - 33].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn deterministic_signatures() {
        let (_, sk) = keypair();
        assert_eq!(sk.sign(b"same"), sk.sign(b"same"));
    }

    #[test]
    fn secret_key_debug_redacts() {
        let (_, sk) = keypair();
        let dbg = format!("{sk:?} {:?}", sk.ctx);
        let [p, q] = sk.ctx.halves();
        let one = BigUint::one();
        let dp = &sk.d % &(&p - &one);
        let dq = &sk.d % &(&q - &one);
        let qinv = modmath::inv_mod(&q, &p).unwrap();
        let secrets = [
            ("d", &sk.d),
            ("p", &p),
            ("q", &q),
            ("dp", &dp),
            ("dq", &dq),
            ("qinv", &qinv),
        ];
        for (name, secret) in secrets {
            assert!(!dbg.contains(&secret.to_string()), "Debug leaks {name} (decimal)");
            assert!(!dbg.contains(&format!("{secret:x}")), "Debug leaks {name} (hex)");
        }
    }

    #[test]
    fn montgomery_and_naive_paths_are_byte_identical() {
        // Fixed-vector round trip: the Montgomery fast path must produce the
        // same signature bytes and the same verdicts as the pre-Montgomery
        // `pow_mod` path on identical inputs.
        let (pk, sk) = keypair();
        for msg in [
            &b"bid: P3 offers w=2.25"[..],
            b"",
            b"payment vector Q = (1/3, 1/3, 1/3)",
        ] {
            let digest = sha256::digest(msg);
            let fast = sk.sign_digest(&digest);
            let naive = sk.sign_digest_naive(&digest);
            assert_eq!(fast, naive, "signature bytes diverge on {msg:?}");
            assert!(pk.verify_digest(&digest, &fast));
            assert!(pk.verify_digest_naive(&digest, &fast));
            // A tampered signature is rejected identically by both paths.
            let mut bad = fast.clone();
            bad.0[0] ^= 0x01;
            assert_eq!(
                pk.verify_digest(&digest, &bad),
                pk.verify_digest_naive(&digest, &bad)
            );
            assert!(!pk.verify_digest(&digest, &bad));
        }
    }

    #[test]
    fn crt_and_naive_paths_are_byte_identical_across_sizes() {
        // Several keys per size. The 2048-bit size (one key: its key
        // generation takes seconds in debug builds) is in the property
        // suite, `tests/proptests.rs`.
        let msgs: [&[u8]; 3] = [b"", b"bid: P3 offers w=2.25", &[0xffu8; 200]];
        for (bits, seeds) in [(384, 0..4u64), (512, 0..3), (1024, 0..2)] {
            for seed in seeds {
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_mul(7919).wrapping_add(bits as u64));
                let (pk, sk) = generate(bits, &mut rng).unwrap();
                for msg in msgs {
                    let digest = sha256::digest(msg);
                    let crt = sk.sign_digest(&digest);
                    assert_eq!(crt, sk.sign_digest_naive(&digest), "{bits} bits, seed {seed}");
                    assert!(pk.verify_digest(&digest, &crt));
                    assert!(pk.verify_digest_naive(&digest, &crt));
                }
            }
        }
    }

    /// Known answers for [`generate`] under fixed seeds: the modulus, the
    /// private exponent and one signature, as hex. Any change to how
    /// primes are drawn, tested or combined moves them.
    #[test]
    fn generated_keys_and_signatures_match_known_answers() {
        let cases: [(usize, u64, &str, &str, &str); 2] = [
            (
                384,
                3,
                "cb851a074702640db75f34dc4b5d630012b4893ab3ca463a6e8bf07333a40eda42446da6554e95bf356a08946ac0a233",
                "3e411dc0222182178c030c79627853833f358850b394693c84c9ba918562700a926ff45765c072fe44159c241879f8e9",
                "454d282a007d4c726dad550744e37ca2693e4efd77dcbb81bcbfaafa76b83bdbfe32e383d56cccda12eb133224c89bbd",
            ),
            (
                512,
                5,
                "b0867220563f99e6e73c0c12d785b04c15b866308c3670b7c008587a4197b3971d056cede80d9f15f7c15664c3144f49949260d9fa4e994537120cec5bb0aa03",
                "5da2832909f6e4a0e9691d92650601f4e9d48d481527cf74788534c16cc79637a07b28a47635471ec3e1d43bb53b2724c74cadb057ecf993ba7d873d2f9e0371",
                "67f27c71cfa39b01f15015295ee85481e971807093ea60802c062158a3d6a339040bac538e839845cb901d3301565e56ef448054a1041b5d73b8e0e4f073179e",
            ),
        ];
        let digest = sha256::digest(b"bid: P3 offers w=2.25");
        for (bits, seed, n, d, sig) in cases {
            let (pk, sk) = generate(bits, &mut StdRng::seed_from_u64(seed)).unwrap();
            let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
            assert_eq!(format!("{:x}", pk.n), n, "{bits}-bit modulus");
            assert_eq!(format!("{:x}", sk.d), d, "{bits}-bit private exponent");
            assert_eq!(hex(&sk.sign_digest(&digest).0), sig, "{bits}-bit signature");
        }
    }

    #[test]
    fn only_the_public_half_holds_a_modulus_n_context() {
        let (pk, sk) = keypair();
        let full = pk.verify_ctx();
        assert_eq!(full.modulus(), pk.n);
        // The secret half holds two half-width contexts over the factors
        // and nothing over n.
        let [p, q] = sk.ctx.halves();
        assert_eq!(&(&p * &q), &sk.n);
        for half in [&p, &q] {
            assert_ne!(half, &sk.n);
        }
        assert!(sk.ctx.width() <= full.width().div_ceil(2));
    }
}
