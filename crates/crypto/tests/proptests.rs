//! Property tests for the crypto substrate.
//!
//! Key generation is expensive, so a handful of cached key pairs are shared
//! across cases and the per-case iteration count is reduced.
//!
//! **Fidelity note:** in this offline workspace these properties run
//! against the vendored proptest stand-in (`vendor/proptest`): a
//! deterministic per-test seed, a fixed case count, no shrinking, and no
//! run-to-run variation. A green run is a frozen regression sweep (256
//! cases by default), not real fuzzing — re-run the suite against
//! upstream proptest whenever registry access is available (see
//! `vendor/README.md`).

use dls_crypto::canon;
use dls_crypto::pki::{is_equivocation, KeyPair, Registry};
use dls_crypto::rsa::{self, PublicKey, RawSignature, SecretKey};
use dls_crypto::sha256;
use dls_crypto::{Signed, VerifyCache};
use dls_num::BigUint;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fmt::Debug;
use std::sync::OnceLock;

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Payload {
    id: String,
    bid: f64,
    round: u32,
    flags: Vec<bool>,
}

fn fixtures() -> &'static (KeyPair, KeyPair, Registry) {
    static CELL: OnceLock<(KeyPair, KeyPair, Registry)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        let a = KeyPair::generate("A", 384, &mut rng).unwrap();
        let b = KeyPair::generate("B", 384, &mut rng).unwrap();
        let reg = Registry::from_keypairs([&a, &b]);
        (a, b, reg)
    })
}

/// Modulus sizes the CRT signing path is checked at, with one cached key
/// pair each (several seeds per size run in the `rsa` unit tests; a
/// 2048-bit key takes seconds to generate in debug builds). The first four
/// are the fixed-width sizes plus the 2048-bit fallback; the rest are odd
/// sizes whose halves are not whole words: 385 bits splits into a 3-word
/// and a 4-word factor, 392 into two 196-bit ones, 520 and 776 into
/// halves on the runtime-width fallback.
const SIZES: [usize; 8] = [384, 512, 1024, 2048, 385, 392, 520, 776];

fn sized_key(size_idx: usize) -> &'static (PublicKey, SecretKey) {
    static CELLS: [OnceLock<(PublicKey, SecretKey)>; 8] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CELLS[size_idx].get_or_init(|| {
        let bits = SIZES[size_idx];
        let mut rng = StdRng::seed_from_u64(0xc47 ^ bits as u64);
        rsa::generate(bits, &mut rng).unwrap()
    })
}

fn arb_digest() -> impl Strategy<Value = [u8; 32]> {
    prop::collection::vec(any::<u8>(), 32).prop_map(|v| {
        let mut d = [0u8; 32];
        d.copy_from_slice(&v);
        d
    })
}

/// The CRT signature equals the full-exponent `pow_mod` oracle byte for
/// byte and verifies under both verification paths.
fn check_crt_signature(size_idx: usize, digest: &[u8; 32]) -> Result<(), TestCaseError> {
    let (pk, sk) = sized_key(size_idx);
    let sig = sk.sign_digest(digest);
    prop_assert_eq!(&sig, &sk.sign_digest_naive(digest), "{} bits", SIZES[size_idx]);
    prop_assert!(sig.0.len() <= pk.modulus_len());
    prop_assert!(pk.verify_digest(digest, &sig));
    prop_assert!(pk.verify_digest_naive(digest, &sig));
    Ok(())
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        "[a-z]{0,12}",
        prop::num::f64::NORMAL | prop::num::f64::ZERO,
        any::<u32>(),
        prop::collection::vec(any::<bool>(), 0..8),
    )
        .prop_map(|(id, bid, round, flags)| Payload {
            id,
            bid,
            round,
            flags,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_payload_roundtrips(p in arb_payload()) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p.clone()).unwrap();
        prop_assert_eq!(signed.verify(reg).unwrap(), &p);
    }

    #[test]
    fn wrong_signer_always_rejected(p in arb_payload()) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p).unwrap();
        // Claiming B's identity with A's signature must fail.
        let relabeled = dls_crypto::Signed::forge(
            signed.body_unverified().clone(),
            "B",
            signed.signature().0.clone(),
        );
        prop_assert!(relabeled.verify(reg).is_err());
    }

    #[test]
    fn tampering_any_field_detected(p in arb_payload(), delta in 1u32..1000) {
        let (a, _, reg) = fixtures();
        let signed = a.sign(p).unwrap();
        let tampered = signed.tamper(|mut b| { b.round = b.round.wrapping_add(delta); b });
        prop_assert!(tampered.verify(reg).is_err());
    }

    #[test]
    fn equivocation_iff_bodies_differ(p in arb_payload(), q in arb_payload()) {
        let (a, _, reg) = fixtures();
        let s1 = a.sign(p.clone()).unwrap();
        let s2 = a.sign(q.clone()).unwrap();
        prop_assert_eq!(is_equivocation(&s1, &s2, reg), p != q);
    }

    #[test]
    fn canon_deterministic(p in arb_payload()) {
        prop_assert_eq!(canon::to_bytes(&p).unwrap(), canon::to_bytes(&p).unwrap());
    }

    #[test]
    fn adjacent_byte_fields_never_collide(
        joined in prop::collection::vec(any::<u8>(), 0..24),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
        other in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        // Two adjacent byte strings split from one buffer at i and at j:
        // the pairs differ exactly when the split points do, and the length
        // frames must keep their encodings apart.
        let (i, j) = (i.index(joined.len() + 1), j.index(joined.len() + 1));
        let pair = |a: &[u8], b: &[u8]| {
            canon::to_bytes(&(canon::Bytes(a), canon::Bytes(b))).unwrap()
        };
        let at_i = pair(&joined[..i], &joined[i..]);
        let at_j = pair(&joined[..j], &joined[j..]);
        prop_assert_eq!(at_i == at_j, i == j);
        // And against an unrelated second field.
        let mixed = pair(&joined[..i], &other);
        prop_assert_eq!(at_i == mixed, joined[i..] == other[..]);
    }

    #[test]
    fn canon_injective_on_samples(p in arb_payload(), q in arb_payload()) {
        let bp = canon::to_bytes(&p).unwrap();
        let bq = canon::to_bytes(&q).unwrap();
        if p != q {
            prop_assert_ne!(bp, bq);
        } else {
            prop_assert_eq!(bp, bq);
        }
    }
}

/// Verifies every envelope through the shared `cache` and checks the
/// cached and memoized paths against the from-scratch `verify_naive`.
fn check_against_naive<T: Serialize + PartialEq + Debug>(
    envs: &[Signed<T>],
    reg: &Registry,
    cache: &VerifyCache,
) -> Result<(), TestCaseError> {
    for env in envs {
        let naive = env.verify_naive(reg);
        prop_assert_eq!(env.verify_cached(reg, cache), naive.clone());
        prop_assert_eq!(env.verify(reg), naive);
    }
    Ok(())
}

/// The envelope with its signer relabeled, over the same body and
/// signature bytes.
fn swap_signer<T: Serialize + Clone>(env: &Signed<T>, signer: &str) -> Signed<T> {
    Signed::forge(env.body_unverified().clone(), signer, env.signature().0.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The verdict cache keyed on the memoized body digest returns exactly
    /// the oracle's verdicts, on misses and on hits, for honest, tampered,
    /// forged, signer-swapped, cross-signer and nested envelopes.
    #[test]
    fn verify_cache_matches_naive_oracle(p in arb_payload(), q in arb_payload(), delta in 1u32..1000) {
        let (a, b, reg) = fixtures();
        let cache = VerifyCache::new();
        let honest = a.sign(p.clone()).unwrap();
        let flat = vec![
            honest.clone(),
            b.sign(q.clone()).unwrap(),
            honest.clone().tamper(|mut x| { x.round = x.round.wrapping_add(delta); x }),
            Signed::forge(p.clone(), "A", vec![0x5a; 48]),
            swap_signer(&honest, "B"),
            // B's genuine signature over p, claimed as A's.
            swap_signer(&b.sign(p.clone()).unwrap(), "A"),
            swap_signer(&honest, "C"),
        ];
        // A grant-like body: an envelope whose body holds signed envelopes.
        let nested = a.sign(flat[..4].to_vec()).unwrap();
        let nested_envs = vec![
            nested.clone(),
            nested.clone().tamper(|mut blocks| { blocks.pop(); blocks }),
            swap_signer(&nested, "B"),
            Signed::forge(nested.body_unverified().clone(), "A", b.sign(q).unwrap().signature().0.clone()),
        ];
        for _ in 0..2 {
            check_against_naive(&flat, reg, &cache)?;
            check_against_naive(&nested_envs, reg, &cache)?;
        }
        // A signer swap over the same body and signature is a miss with its
        // own verdict, never a hit on the genuine signer's.
        let fresh = VerifyCache::new();
        for genuine_first in [true, false] {
            let cache = VerifyCache::new();
            let (first, second) = if genuine_first {
                (&flat[0], &flat[4])
            } else {
                (&flat[4], &flat[0])
            };
            let _ = first.verify_cached(reg, &cache);
            prop_assert_eq!(second.verify_cached(reg, &cache), second.verify_naive(reg));
            prop_assert_eq!(cache.len(), 2);
        }
        let _ = nested.verify_cached(reg, &fresh);
        prop_assert!(nested_envs[2].verify_cached(reg, &fresh).is_err());
        prop_assert_eq!(fresh.len(), 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crt_signing_matches_oracle_384(d in arb_digest()) {
        check_crt_signature(0, &d)?;
    }

    #[test]
    fn crt_signing_matches_oracle_512(d in arb_digest()) {
        check_crt_signature(1, &d)?;
    }

    #[test]
    fn crt_signing_matches_oracle_1024(d in arb_digest()) {
        check_crt_signature(2, &d)?;
    }
}

proptest! {
    // The naive 2048-bit oracle costs most of a second per case in debug
    // builds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn crt_signing_matches_oracle_2048(d in arb_digest()) {
        check_crt_signature(3, &d)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn crt_signing_matches_oracle_at_odd_sizes(d in arb_digest(), size_idx in 4usize..8) {
        check_crt_signature(size_idx, &d)?;
    }
}

/// The fast verdict equals the `verify_digest_naive` oracle's on `sig`;
/// returns it.
fn same_verdict(pk: &PublicKey, digest: &[u8; 32], sig: &[u8], what: &str) -> bool {
    let sig = RawSignature(sig.to_vec());
    let fast = pk.verify_digest(digest, &sig);
    assert_eq!(fast, pk.verify_digest_naive(digest, &sig), "{what}");
    fast
}

#[test]
fn verdicts_match_oracle_on_boundary_encodings() {
    // Every size but 2048 (whose naive oracle is slow in debug builds).
    for size_idx in (0..SIZES.len()).filter(|&i| SIZES[i] != 2048) {
        let bits = SIZES[size_idx];
        let (pk, sk) = sized_key(size_idx);
        let k = pk.modulus_len();
        // A digest whose signature has a zero top byte, so its minimal
        // encoding is shorter than the modulus.
        let (digest, sig) = (0u32..)
            .map(|i| sha256::digest(&i.to_be_bytes()))
            .map(|d| (d, sk.sign_digest(&d)))
            .find(|(_, s)| s.0.len() < k)
            .expect("about one signature in 200 has a zero top byte");
        assert_eq!(
            sig,
            sk.sign_digest_naive(&digest),
            "{bits} bits, short signature"
        );
        let what = |label: &str| format!("{bits} bits: {label}");
        assert!(same_verdict(pk, &digest, &sig.0, &what("short signature")));
        // Zero-prefixed and over-long encodings of the same value verify.
        let prefixed = [&[0u8][..], &sig.0].concat();
        assert!(same_verdict(
            pk,
            &digest,
            &prefixed,
            &what("one zero byte prefixed")
        ));
        let over_long = [&[0u8; 40][..], &sig.0].concat();
        assert!(same_verdict(
            pk,
            &digest,
            &over_long,
            &what("40 zero bytes prefixed")
        ));
        // Values at and beyond the modulus, wrong values, and a signature
        // under another key are rejected identically.
        let n = pk.verify_ctx().modulus();
        let one = BigUint::one();
        let n_minus_1 = &n - &one;
        let n_plus_1 = &n + &one;
        let nonzero_prefix = [&[1u8][..], &sig.0].concat();
        let other = sized_key((size_idx + 1) % 3).1.sign_digest(&digest);
        let rejected: [(&str, Vec<u8>); 8] = [
            ("s = n", n.to_bytes_be()),
            ("s = n - 1", n_minus_1.to_bytes_be()),
            ("s = n + 1", n_plus_1.to_bytes_be()),
            ("k + 4 bytes of 0xff", vec![0xff; k + 4]),
            ("nonzero byte prefixed", nonzero_prefix),
            ("empty", Vec::new()),
            ("zero", vec![0]),
            ("other key's signature", other.0),
        ];
        for (label, bytes) in rejected {
            assert!(!same_verdict(pk, &digest, &bytes, &what(label)));
        }
        // The genuine signature of another digest is not this one's.
        let other_digest = sha256::digest(b"another body");
        assert!(!same_verdict(
            pk,
            &other_digest,
            &sig.0,
            &what("other digest")
        ));
    }
}

#[test]
fn crt_signing_matches_oracle_on_extreme_digests() {
    for size_idx in 0..SIZES.len() {
        for d in [[0u8; 32], [0xffu8; 32], [0x80u8; 32]] {
            check_crt_signature(size_idx, &d).unwrap();
        }
    }
}
