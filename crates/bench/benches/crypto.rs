//! Crypto substrate benchmarks: digesting, signing, verifying — the
//! per-message costs of the protocol's signature envelope.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dls_crypto::pki::{KeyPair, Registry};
use dls_crypto::rsa::RawSignature;
use dls_crypto::{rsa, sha256, Signed, VerifyCache};
use dls_protocol::blocks::{DataSet, USER_IDENTITY};
use dls_protocol::messages::{BidBody, GrantBody, PaymentEntry, PaymentVectorBody};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto/sha256");
    for &len in &[64usize, 1024, 65536] {
        let data = vec![0xa5u8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, d| {
            b.iter(|| black_box(sha256::digest(d)))
        });
    }
    g.finish();
}

fn bench_sign_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto/rsa");
    g.sample_size(30);
    for &bits in &[rsa::MIN_MODULUS_BITS, rsa::DEFAULT_MODULUS_BITS, 1024] {
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let (pk, sk) = rsa::generate(bits, &mut rng).unwrap();
        let msg = b"bid: P3 reports w = 2.25 units/load";
        let sig = sk.sign(msg);
        let digest = sha256::digest(msg);
        g.bench_with_input(BenchmarkId::new("sign", bits), &sk, |b, sk| {
            b.iter(|| black_box(sk.sign(msg)))
        });
        // The full-exponent `pow_mod` oracle on the same digest:
        // `sign_naive / sign` is the CRT speed-up (`sign` also hashes the
        // short message).
        g.bench_with_input(BenchmarkId::new("sign_naive", bits), &sk, |b, sk| {
            b.iter(|| black_box(sk.sign_digest_naive(&digest)))
        });
        g.bench_with_input(BenchmarkId::new("verify", bits), &pk, |b, pk| {
            b.iter(|| black_box(pk.verify(msg, &sig)))
        });
        // The kernels alone: a precomputed digest in, so message hashing
        // is not in the number.
        g.bench_with_input(BenchmarkId::new("sign_digest", bits), &sk, |b, sk| {
            b.iter(|| black_box(sk.sign_digest(&digest)))
        });
        g.bench_with_input(BenchmarkId::new("verify_digest", bits), &pk, |b, pk| {
            b.iter(|| black_box(pk.verify_digest(&digest, &sig)))
        });
    }
    g.finish();
}

/// `verify_cached` of one sealed envelope: a hit (the verdict is cached)
/// and a miss (a fresh cache, so the modexp runs). Both read the
/// envelope's memoized body digest, so the hit cost does not grow with the
/// body.
fn bench_envelope_pair(
    g: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    verify_cached: impl Fn(&VerifyCache) -> bool,
) {
    let cache = VerifyCache::new();
    assert!(verify_cached(&cache));
    g.bench_function(format!("hit/{label}"), |b| {
        b.iter(|| black_box(verify_cached(&cache)))
    });
    g.bench_function(format!("miss/{label}"), |b| {
        b.iter(|| black_box(verify_cached(&VerifyCache::new())))
    });
}

fn bench_envelope(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto/envelope");
    let mut rng = StdRng::seed_from_u64(18);
    let bits = rsa::DEFAULT_MODULUS_BITS;
    let p1 = KeyPair::generate("P1", bits, &mut rng).unwrap();
    let user = KeyPair::generate(USER_IDENTITY, bits, &mut rng).unwrap();
    let reg = Registry::from_keypairs([&p1, &user]);
    let bid = p1
        .sign(BidBody {
            processor: 0,
            bid: 2.25,
        })
        .unwrap();
    // A grant carrying 24 user-signed 32-byte blocks.
    let blocks = DataSet::prepare(&user, 24, 32).unwrap().blocks().to_vec();
    let grant = p1.sign(GrantBody { to: 1, blocks }).unwrap();
    bench_envelope_pair(&mut g, "bid", |c| bid.verify_cached(&reg, c).is_ok());
    bench_envelope_pair(&mut g, "grant24", |c| grant.verify_cached(&reg, c).is_ok());
    g.finish();
}

/// `Signed::seal` with a signer that returns a fixed signature, so only
/// the canonical encode and the SHA-256 of the body are timed: a bid, a
/// grant of 24 user-signed 32-byte blocks, and an m = 8 payment vector.
/// The body is sealed by reference, so no body clone is in the number.
fn bench_seal(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto/seal");
    let mut rng = StdRng::seed_from_u64(22);
    let bits = rsa::DEFAULT_MODULUS_BITS;
    let user = KeyPair::generate(USER_IDENTITY, bits, &mut rng).unwrap();
    let sig = RawSignature(vec![0xab; bits / 8]);
    let bid = BidBody {
        processor: 0,
        bid: 2.25,
    };
    let grant = GrantBody {
        to: 1,
        blocks: DataSet::prepare(&user, 24, 32).unwrap().blocks().to_vec(),
    };
    let pv = PaymentVectorBody {
        processor: 3,
        q: (0..8)
            .map(|i| PaymentEntry {
                compensation: 1.0 + i as f64 / 8.0,
                bonus: 0.125 * i as f64,
            })
            .collect(),
    };
    g.bench_function("bid", |b| {
        b.iter(|| black_box(Signed::seal(&bid, "P1", |_| sig.clone()).unwrap()))
    });
    g.bench_function("grant24", |b| {
        b.iter(|| black_box(Signed::seal(&grant, "P1", |_| sig.clone()).unwrap()))
    });
    g.bench_function("pv8", |b| {
        b.iter(|| black_box(Signed::seal(&pv, "P4", |_| sig.clone()).unwrap()))
    });
    g.finish();
}

fn bench_keygen(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto/keygen");
    g.sample_size(10);
    g.bench_function("384", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            black_box(rsa::generate(384, &mut rng).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_sign_verify,
    bench_envelope,
    bench_seal,
    bench_keygen
);
criterion_main!(benches);
