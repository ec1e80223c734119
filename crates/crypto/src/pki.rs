//! Public-key infrastructure and signed-message envelopes.
//!
//! Implements the paper's notation directly:
//!
//! * `SK_β` — the private key of participant β ([`KeyPair`]),
//! * `SIG_β(m)` — β's signature over canonical bytes of `m`,
//! * `S_β(m) = (m, SIG_β(m))` — the signed message ([`Signed`]),
//! * the PKI that registers public keys under participant identities
//!   ([`Registry`]).
//!
//! [`Signed`] envelopes are the *evidence objects* the referee consumes: two
//! verified envelopes from the same signer with the same context but
//! different bodies constitute proof of equivocation (used in the Bidding
//! phase of DLS-BL-NCP, §4).

use crate::canon;
use crate::ctx::{verdict_key, VerifyCache};
use crate::rsa::{self, PublicKey, RawSignature, SecretKey};
use crate::sha256::{self, Digest};
use rand::Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors from signing or verifying envelopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// The claimed signer has no key registered in the PKI.
    UnknownSigner(String),
    /// The signature does not verify under the signer's registered key.
    BadSignature {
        /// Claimed signer identity.
        signer: String,
    },
    /// The body could not be canonically encoded.
    Encoding(String),
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::UnknownSigner(who) => write!(f, "no key registered for {who:?}"),
            SignatureError::BadSignature { signer } => {
                write!(f, "signature verification failed for {signer:?}")
            }
            SignatureError::Encoding(e) => write!(f, "cannot encode body: {e}"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A participant's key pair plus its registered identity.
#[derive(Debug, Clone)]
pub struct KeyPair {
    identity: String,
    public: PublicKey,
    secret: SecretKey,
}

impl KeyPair {
    /// Generates a key pair for `identity` with the given modulus size.
    pub fn generate(
        identity: impl Into<String>,
        modulus_bits: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, rsa::RsaError> {
        let (public, secret) = rsa::generate(modulus_bits, rng)?;
        Ok(KeyPair {
            identity: identity.into(),
            public,
            secret,
        })
    }

    /// The registered identity.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs `body`, producing the `S_β(m)` envelope.
    pub fn sign<T: Serialize>(&self, body: T) -> Result<Signed<T>, SignatureError> {
        Signed::seal(body, self.identity.clone(), |digest| self.secret.sign_digest(digest))
    }

    /// Signs a precomputed SHA-256 digest of a body's canonical bytes — for
    /// callers that already encoded and hashed the body. The signature is
    /// the one [`KeyPair::sign`] puts in the envelope of that body.
    pub fn sign_digest(&self, digest: &Digest) -> RawSignature {
        self.secret.sign_digest(digest)
    }
}

/// A signed message `S_β(m) = (m, SIG_β(m))`.
///
/// The body is readable without verification (messages travel on an
/// untrusted channel and receivers *must* call [`Signed::verify`] before
/// acting — the protocol layer enforces this by only exposing verified
/// bodies).
///
/// Every envelope carries a lazily filled memo of its body's canonical
/// encoded length and SHA-256 digest, so signing, every verification,
/// the verdict-cache key and wire-size accounting share one encode and one
/// hash per envelope object (clones share the filled memo). The memo is
/// sound because it is a pure function of a body nobody can change: the
/// fields are private, only this module fills the memo and only from the
/// body itself, and [`Signed::forge`] and [`Signed::tamper`] start with an
/// empty memo — no public API accepts or sets a digest. `Debug` and `==`
/// ignore the memo. [`Signed::verify_naive`] bypasses it and re-encodes
/// from scratch, as the oracle.
#[derive(Clone)]
pub struct Signed<T> {
    body: T,
    signer: String,
    signature: RawSignature,
    /// `(canonical encoded length, SHA-256)` of `body`, filled on first use.
    memo: OnceLock<(usize, Digest)>,
}

impl<T: fmt::Debug> fmt::Debug for Signed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exactly the derived form over the three message fields: outcome
        // digests are hashes of `Debug` output.
        f.debug_struct("Signed")
            .field("body", &self.body)
            .field("signer", &self.signer)
            .field("signature", &self.signature)
            .finish()
    }
}

impl<T: PartialEq> PartialEq for Signed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body
            && self.signer == other.signer
            && self.signature == other.signature
    }
}

impl<T: Eq> Eq for Signed<T> {}

/// Canonical bytes of `body`, with the encoder's error mapped.
fn encode<T: Serialize>(body: &T) -> Result<Vec<u8>, SignatureError> {
    canon::to_bytes(body).map_err(|e| SignatureError::Encoding(e.to_string()))
}

// Envelopes are themselves serializable so they can be nested inside other
// signed bodies (e.g. user-signed blocks inside an originator-signed grant).
impl<T: Serialize> Serialize for Signed<T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Signed", 3)?;
        s.serialize_field("body", &self.body)?;
        s.serialize_field("signer", &self.signer)?;
        s.serialize_field("signature", &self.signature)?;
        s.end()
    }
}

impl<T: Serialize> Signed<T> {
    /// Seals `body` under `signer`: encodes and hashes the body once, asks
    /// `sign` for the signature over that digest, and returns the envelope
    /// with its memo already filled. [`KeyPair::sign`] is `seal` with the
    /// key pair's own `sign_digest`.
    pub fn seal(
        body: T,
        signer: impl Into<String>,
        sign: impl FnOnce(&Digest) -> RawSignature,
    ) -> Result<Self, SignatureError> {
        let bytes = encode(&body)?;
        let memo = (bytes.len(), sha256::digest(&bytes));
        let signature = sign(&memo.1);
        Ok(Signed {
            body,
            signer: signer.into(),
            signature,
            memo: OnceLock::from(memo),
        })
    }

    /// The memo, encoding and hashing the body on first use.
    fn memo(&self) -> Result<&(usize, Digest), SignatureError> {
        if let Some(memo) = self.memo.get() {
            return Ok(memo);
        }
        let bytes = encode(&self.body)?;
        // A concurrent first use computes the same pair from the same body,
        // so whichever write lands is correct.
        Ok(self
            .memo
            .get_or_init(|| (bytes.len(), sha256::digest(&bytes))))
    }

    /// SHA-256 of the body's canonical bytes — the digest the signature
    /// covers. Computed once per envelope.
    pub fn digest(&self) -> Result<&Digest, SignatureError> {
        self.memo().map(|(_, digest)| digest)
    }

    /// Length of the body's canonical bytes. Computed once per envelope.
    pub fn encoded_len(&self) -> Result<usize, SignatureError> {
        self.memo().map(|&(len, _)| len)
    }

    /// The claimed signer identity (unverified).
    pub fn signer(&self) -> &str {
        &self.signer
    }

    /// The body **without verification** — only for diagnostics/evidence
    /// display; use [`Signed::verify`] before trusting contents.
    pub fn body_unverified(&self) -> &T {
        &self.body
    }

    /// The raw signature bytes.
    pub fn signature(&self) -> &RawSignature {
        &self.signature
    }

    /// The key registered for the claimed signer.
    fn signer_key<'r>(&self, registry: &'r Registry) -> Result<&'r PublicKey, SignatureError> {
        registry
            .lookup(&self.signer)
            .ok_or_else(|| SignatureError::UnknownSigner(self.signer.clone()))
    }

    /// The body on a good verdict, `BadSignature` otherwise.
    fn verdict(&self, ok: bool) -> Result<&T, SignatureError> {
        if ok {
            Ok(&self.body)
        } else {
            Err(SignatureError::BadSignature {
                signer: self.signer.clone(),
            })
        }
    }

    /// Verifies against the registry and returns the body on success.
    pub fn verify<'a>(&'a self, registry: &Registry) -> Result<&'a T, SignatureError> {
        let key = self.signer_key(registry)?;
        self.verdict(key.verify_digest(self.digest()?, &self.signature))
    }

    /// Verifies against the registry, memoizing the verdict in `cache` so
    /// later receivers of byte-identical envelopes skip the modexp.
    ///
    /// Returns exactly what [`Signed::verify`] would: verification is
    /// deterministic (a modexp over the body digest and signature under a
    /// fixed registry), so sharing the verdict across receivers preserves
    /// every accept/reject decision bit-for-bit. The cache key binds the
    /// memoized body digest, so a hit costs one short hash, not an encode
    /// of the body.
    pub fn verify_cached<'a>(
        &'a self,
        registry: &Registry,
        cache: &VerifyCache,
    ) -> Result<&'a T, SignatureError> {
        let key = self.signer_key(registry)?;
        let digest = self.digest()?;
        let vk = verdict_key(&self.signer, digest, &self.signature.0);
        let ok = match cache.get(&vk) {
            Some(verdict) => verdict,
            None => {
                let verdict = key.verify_digest(digest, &self.signature);
                cache.insert(vk, verdict);
                verdict
            }
        };
        self.verdict(ok)
    }

    /// Verifies via the plain `pow_mod` reference path (no Montgomery
    /// context, no memoization: the body is re-encoded and re-hashed from
    /// scratch, ignoring the envelope's memo) — the honest per-receiver
    /// cost model used as the benchmark baseline and the oracle for the
    /// memo. Verdicts are identical to [`Signed::verify`]'s; only the route
    /// differs.
    pub fn verify_naive<'a>(&'a self, registry: &Registry) -> Result<&'a T, SignatureError> {
        let key = self.signer_key(registry)?;
        let bytes = encode(&self.body)?;
        self.verdict(key.verify_naive(&bytes, &self.signature))
    }

    /// Consumes the envelope, returning the verified body.
    pub fn into_verified(self, registry: &Registry) -> Result<T, SignatureError> {
        self.verify(registry)?;
        Ok(self.body)
    }

    /// Forges an envelope with an arbitrary signature — **test/attack
    /// harness only**, used by deviant-strategy simulations to prove that
    /// forged messages are rejected.
    pub fn forge(body: T, signer: impl Into<String>, signature: Vec<u8>) -> Self {
        Signed {
            body,
            signer: signer.into(),
            signature: RawSignature(signature),
            memo: OnceLock::new(),
        }
    }

    /// Maps the body while *preserving* the (now almost certainly invalid)
    /// signature. Models in-flight tampering for fault-injection tests.
    pub fn tamper<U>(self, f: impl FnOnce(T) -> U) -> Signed<U> {
        Signed {
            body: f(self.body),
            signer: self.signer,
            signature: self.signature,
            memo: OnceLock::new(),
        }
    }
}

/// The PKI: identity → public key. Cheap to clone (shared map) so every
/// processor thread can hold one.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    keys: Arc<BTreeMap<String, PublicKey>>,
}

impl Registry {
    /// Builds a registry from participants' key pairs.
    pub fn from_keypairs<'a>(pairs: impl IntoIterator<Item = &'a KeyPair>) -> Self {
        let keys = pairs
            .into_iter()
            .map(|kp| (kp.identity.clone(), kp.public.clone()))
            .collect();
        Registry {
            keys: Arc::new(keys),
        }
    }

    /// Looks up the public key registered for `identity`.
    pub fn lookup(&self, identity: &str) -> Option<&PublicKey> {
        self.keys.get(identity)
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff no identities are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Checks whether two envelopes constitute *evidence of equivocation*: both
/// verify under the same signer's registered key but have different bodies.
///
/// This is the predicate the referee applies during the Bidding phase: "If
/// `P_j` receives multiple authenticated messages from `P_i`, it signals the
/// referee providing the messages as evidence of cheating" (§4).
pub fn is_equivocation<T: Serialize + PartialEq>(
    a: &Signed<T>,
    b: &Signed<T>,
    registry: &Registry,
) -> bool {
    a.signer == b.signer
        && a.verify(registry).is_ok()
        && b.verify(registry).is_ok()
        && a.body != b.body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::MIN_MODULUS_BITS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::Serialize;

    #[derive(Debug, Clone, PartialEq, Serialize)]
    struct Bid {
        processor: String,
        w: f64,
    }

    fn setup() -> (KeyPair, KeyPair, Registry) {
        let mut rng = StdRng::seed_from_u64(123);
        let kp1 = KeyPair::generate("P1", MIN_MODULUS_BITS, &mut rng).unwrap();
        let kp2 = KeyPair::generate("P2", MIN_MODULUS_BITS, &mut rng).unwrap();
        let reg = Registry::from_keypairs([&kp1, &kp2]);
        (kp1, kp2, reg)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp1, _, reg) = setup();
        let signed = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.5,
            })
            .unwrap();
        let body = signed.verify(&reg).unwrap();
        assert_eq!(body.w, 1.5);
        assert_eq!(signed.signer(), "P1");
    }

    #[test]
    fn unknown_signer_rejected() {
        let (kp1, _, _) = setup();
        let reg = Registry::default();
        let signed = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.5,
            })
            .unwrap();
        assert!(matches!(
            signed.verify(&reg),
            Err(SignatureError::UnknownSigner(_))
        ));
    }

    #[test]
    fn cross_signer_forgery_rejected() {
        let (kp1, _, reg) = setup();
        // kp1 signs but claims to be P2.
        let mut signed = kp1
            .sign(Bid {
                processor: "P2".into(),
                w: 0.5,
            })
            .unwrap();
        signed.signer = "P2".into();
        assert!(matches!(
            signed.verify(&reg),
            Err(SignatureError::BadSignature { .. })
        ));
    }

    #[test]
    fn tampered_body_rejected() {
        let (kp1, _, reg) = setup();
        let signed = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.5,
            })
            .unwrap();
        let tampered = signed.tamper(|mut b| {
            b.w = 0.1;
            b
        });
        assert!(tampered.verify(&reg).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let (_, _, reg) = setup();
        let forged = Signed::forge(
            Bid {
                processor: "P1".into(),
                w: 9.9,
            },
            "P1",
            vec![0xab; 48],
        );
        assert!(forged.verify(&reg).is_err());
    }

    #[test]
    fn equivocation_detected() {
        let (kp1, _, reg) = setup();
        let a = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.0,
            })
            .unwrap();
        let b = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 2.0,
            })
            .unwrap();
        assert!(is_equivocation(&a, &b, &reg));
        // Same body twice is NOT equivocation.
        assert!(!is_equivocation(&a, &a.clone(), &reg));
    }

    #[test]
    fn equivocation_requires_valid_signatures() {
        let (kp1, _, reg) = setup();
        let a = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.0,
            })
            .unwrap();
        let forged = Signed::forge(
            Bid {
                processor: "P1".into(),
                w: 2.0,
            },
            "P1",
            vec![0u8; 48],
        );
        // A forged second message must not frame P1 for equivocation
        // (Lemma 5.2: fines only for actual deviation).
        assert!(!is_equivocation(&a, &forged, &reg));
    }

    #[test]
    fn verify_cached_matches_verify_and_memoizes() {
        let (kp1, _, reg) = setup();
        let cache = VerifyCache::new();
        let good = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.5,
            })
            .unwrap();
        let forged = Signed::forge(
            Bid {
                processor: "P1".into(),
                w: 9.9,
            },
            "P1",
            vec![0xab; 48],
        );
        // First pass populates the cache; second pass must hit it and
        // return identical verdicts to the uncached path.
        for _ in 0..2 {
            assert_eq!(
                good.verify_cached(&reg, &cache).is_ok(),
                good.verify(&reg).is_ok()
            );
            assert_eq!(
                forged.verify_cached(&reg, &cache).err(),
                forged.verify(&reg).err()
            );
        }
        assert_eq!(cache.len(), 2, "one verdict per distinct envelope");
        // Unknown signers are rejected before touching the cache.
        let unknown = Signed::forge(
            Bid {
                processor: "P9".into(),
                w: 1.0,
            },
            "P9",
            vec![0u8; 48],
        );
        assert!(matches!(
            unknown.verify_cached(&reg, &cache),
            Err(SignatureError::UnknownSigner(_))
        ));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sign_digest_matches_envelope_signature() {
        let (kp1, _, _) = setup();
        let body = Bid {
            processor: "P1".into(),
            w: 1.5,
        };
        let digest = crate::sha256::digest(&canon::to_bytes(&body).unwrap());
        let signed = kp1.sign(body).unwrap();
        assert_eq!(&kp1.sign_digest(&digest), signed.signature());
    }

    /// From-scratch `(encoded length, digest)` of a body — the memo's oracle.
    fn scratch_summary<T: Serialize>(body: &T) -> (usize, Digest) {
        let bytes = canon::to_bytes(body).unwrap();
        (bytes.len(), crate::sha256::digest(&bytes))
    }

    fn assert_memo_matches_body<T: Serialize>(env: &Signed<T>) {
        let (len, digest) = scratch_summary(env.body_unverified());
        assert_eq!(env.digest().unwrap(), &digest);
        assert_eq!(env.encoded_len().unwrap(), len);
    }

    #[test]
    fn memo_matches_a_from_scratch_encode_for_every_constructor() {
        let (kp1, _, _) = setup();
        let bid = |w| Bid {
            processor: "P1".into(),
            w,
        };
        let signed = kp1.sign(bid(1.5)).unwrap();
        let sealed = Signed::seal(bid(2.5), "P1", |d| kp1.sign_digest(d)).unwrap();
        let forged = Signed::forge(bid(3.5), "P1", vec![0xab; 48]);
        let tampered = kp1.sign(bid(4.5)).unwrap().tamper(|mut b| {
            b.w = 5.5;
            b
        });
        let retyped = kp1.sign(bid(6.5)).unwrap().tamper(|b| (b.processor, b.w));
        assert_memo_matches_body(&signed);
        assert_memo_matches_body(&sealed);
        assert_memo_matches_body(&forged);
        assert_memo_matches_body(&tampered);
        assert_memo_matches_body(&retyped);
        // A nested body: the outer memo covers the inner envelopes' full
        // encoding, signatures included.
        let nested = kp1.sign(vec![signed.clone(), forged.clone()]).unwrap();
        assert_memo_matches_body(&nested);
    }

    #[test]
    fn memo_is_invisible_to_debug_and_eq() {
        let (kp1, _, _) = setup();
        let body = Bid {
            processor: "P1".into(),
            w: 1.5,
        };
        let filled = kp1.sign(body.clone()).unwrap();
        let empty = Signed::forge(body, "P1", filled.signature().0.clone());
        assert!(filled.memo.get().is_some());
        assert!(empty.memo.get().is_none());
        assert_eq!(format!("{filled:?}"), format!("{empty:?}"));
        assert_eq!(format!("{filled:#?}"), format!("{empty:#?}"));
        assert_eq!(filled, empty);
        // The derived form the outcome digests were frozen from.
        assert!(format!("{empty:?}").starts_with("Signed { body: Bid { processor: \"P1\""));
        // Filling the empty memo changes neither.
        empty.digest().unwrap();
        assert_eq!(format!("{filled:?}"), format!("{empty:?}"));
        assert_eq!(filled, empty);
    }

    #[test]
    fn clones_carry_a_consistent_memo() {
        let (kp1, _, _) = setup();
        let body = Bid {
            processor: "P1".into(),
            w: 1.5,
        };
        let signed = kp1.sign(body.clone()).unwrap();
        let clone = signed.clone();
        assert_eq!(clone.memo.get(), signed.memo.get());
        assert_memo_matches_body(&clone);
        // A clone of an unfilled envelope fills its own memo identically.
        let forged = Signed::forge(body, "P1", vec![1; 48]);
        let forged_clone = forged.clone();
        assert_memo_matches_body(&forged_clone);
        assert!(forged.memo.get().is_none());
        assert_memo_matches_body(&forged);
    }

    #[test]
    fn identity_tamper_verifies_and_a_changing_tamper_does_not() {
        let (kp1, _, reg) = setup();
        let cache = VerifyCache::new();
        let signed = kp1
            .sign(Bid {
                processor: "P1".into(),
                w: 1.5,
            })
            .unwrap();
        let same = signed.clone().tamper(|b| b);
        assert!(same.memo.get().is_none());
        assert!(same.verify(&reg).is_ok());
        assert!(same.verify_cached(&reg, &cache).is_ok());
        let changed = signed.tamper(|mut b| {
            b.w = 1.25;
            b
        });
        assert!(changed.verify(&reg).is_err());
        assert!(changed.verify_cached(&reg, &cache).is_err());
        assert!(changed.verify_naive(&reg).is_err());
    }

    #[test]
    fn registry_lookup() {
        let (kp1, kp2, reg) = setup();
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.lookup("P1"), Some(kp1.public()));
        assert_eq!(reg.lookup("P2"), Some(kp2.public()));
        assert_eq!(reg.lookup("P3"), None);
    }
}
