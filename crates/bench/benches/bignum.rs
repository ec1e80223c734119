//! Bignum substrate benchmarks: multiplication straddling the Karatsuba
//! threshold, Knuth-D division, GCD, and modular exponentiation (the RSA
//! kernel) — the generic `pow_mod` against the Montgomery fixed-window
//! kernel it was rewritten around.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_num::{gcd, modmath, BigUint, ExpWindows, MontgomeryCtx};
use std::hint::black_box;

fn value(limbs: usize, seed: u32) -> BigUint {
    let mut v = Vec::with_capacity(limbs);
    let mut x = seed | 1;
    for i in 0..limbs {
        x = x.wrapping_mul(2654435761).wrapping_add(i as u32 | 1);
        v.push(x);
    }
    v[limbs - 1] |= 0x8000_0000; // full width
    BigUint::from_limbs_le(v)
}

fn bench_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/mul");
    for &limbs in &[8usize, 24, 48, 128, 512] {
        let a = value(limbs, 1);
        let b = value(limbs, 2);
        g.bench_with_input(BenchmarkId::from_parameter(limbs * 32), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(a * b))
        });
    }
    g.finish();
}

fn bench_divrem(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/divrem");
    for &(n, d) in &[(32usize, 16usize), (128, 64), (512, 256)] {
        let a = value(n, 3);
        let b = value(d, 4);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}by{}", n * 32, d * 32)),
            &(a, b),
            |bch, (a, b)| bch.iter(|| black_box(a.divrem(b))),
        );
    }
    g.finish();
}

fn bench_gcd(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/gcd");
    for &limbs in &[8usize, 32, 128] {
        let a = value(limbs, 5);
        let b = value(limbs, 6);
        g.bench_with_input(BenchmarkId::from_parameter(limbs * 32), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(gcd(a, b)))
        });
    }
    g.finish();
}

fn bench_pow_mod(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/pow_mod");
    g.sample_size(20);
    for &bits in &[384usize, 512, 1024] {
        let limbs = bits / 32;
        let base = value(limbs, 7);
        let exp = value(limbs, 8);
        let mut modulus = value(limbs, 9);
        modulus.set_bit(0, true); // odd
        g.bench_with_input(
            BenchmarkId::from_parameter(bits),
            &(base, exp, modulus),
            |bch, (b, e, m)| bch.iter(|| black_box(modmath::pow_mod(b, e, m))),
        );
    }
    g.finish();
}

fn bench_mont_pow(c: &mut Criterion) {
    // Same shape as bignum/pow_mod so the two groups compare directly:
    // full-width base and exponent under an odd modulus. Two variants per
    // size — `cold` builds the context per call (one-shot cost), `warm`
    // reuses a prebuilt context and window schedule (the per-key
    // amortized cost the crypto crate pays after keygen). 256 bits is the
    // CRT half of a 512-bit key, 384 bits the `repeat-closed` modulus.
    let mut g = c.benchmark_group("bignum/mont_pow");
    g.sample_size(20);
    for &bits in &[256usize, 384, 512, 1024, 2048] {
        let limbs = bits / 32;
        let base = value(limbs, 7);
        let exp = value(limbs, 8);
        let mut modulus = value(limbs, 9);
        modulus.set_bit(0, true); // odd
        g.bench_with_input(
            BenchmarkId::new("cold", bits),
            &(base.clone(), exp.clone(), modulus.clone()),
            |bch, (b, e, m)| {
                bch.iter(|| {
                    let ctx = MontgomeryCtx::new(m).expect("odd modulus");
                    black_box(ctx.pow(b, e))
                })
            },
        );
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus");
        let windows = ExpWindows::new(&exp);
        g.bench_with_input(
            BenchmarkId::new("warm", bits),
            &base,
            |bch, b| bch.iter(|| black_box(ctx.pow_windows(b, &windows))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mul,
    bench_divrem,
    bench_gcd,
    bench_pow_mod,
    bench_mont_pow
);
criterion_main!(benches);
