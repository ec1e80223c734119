//! # `dls-crypto` — signature and PKI substrate
//!
//! The DLS-BL-NCP mechanism (Carroll & Grosu, IPPS 2006, §4) assumes:
//!
//! > *"the existence of a payment infrastructure and a public key
//! > infrastructure (PKI), to which the participants have access … Each
//! > participant has a public cryptographic key set. We do not dictate the
//! > specific cryptosystem, but it must minimally support digital
//! > signatures."*
//!
//! This crate supplies exactly that minimal contract, built from scratch on
//! the `dls-num` bignum substrate:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (known-answer tested against the NIST
//!   vectors) used as the message digest.
//! * [`prime`] — Miller–Rabin primality testing and random prime generation.
//! * [`rsa`] — textbook RSA signatures over SHA-256 digests with a
//!   simplified EMSA-PKCS#1-v1.5 padding.
//! * [`canon`] — a deterministic binary encoding for any `serde::Serialize`
//!   type, so that signing a message is well-defined (`SIG_β(m)` in the
//!   paper's notation needs canonical bytes for `m`).
//! * [`pki`] — the registry mapping participant identities to public keys
//!   plus the [`pki::Signed`] envelope (`S_β(m) = (m, SIG_β(m))`), which
//!   encodes and hashes its body once and memoizes the result.
//! * [`ctx`] — per-key fixed-width Montgomery contexts (built once at key
//!   generation, reused for every modexp; signing runs through the CRT on
//!   the prime factors) and the per-session verification cache that
//!   amortizes envelope verification across receivers.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper does not dictate a cryptosystem. We use small-modulus RSA
//! (default 512-bit, configurable) because the mechanism only needs
//! *unforgeable within the simulation* signatures with publicly verifiable
//! evidence of equivocation. **This is simulation-grade, not production,
//! cryptography** — no constant-time guarantees, no modern padding, small
//! default keys chosen for test throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod ctx;
pub mod pki;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use ctx::{SignCtx, VerifyCache, VerifyCtx};
pub use pki::{KeyPair, Registry, Signed, SignatureError};
pub use sha256::Sha256;
