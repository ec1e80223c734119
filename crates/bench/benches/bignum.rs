//! Bignum substrate benchmarks: multiplication straddling the Karatsuba
//! threshold, Knuth-D division, GCD, and modular exponentiation (the RSA
//! kernel) — the generic `pow_mod` against the Montgomery fixed-window
//! kernel it was rewritten around, and chains of the kernel's multiply at
//! every fixed width.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_num::limbs::{words_for, FIXED_WIDTHS};
use dls_num::{gcd, modmath, with_limbs, BigUint, ExpWindows, Limbs, LimbsVisitor, MontgomeryCtx};
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
    // CRT half of a 512-bit key, 384 bits the `repeat-closed` modulus;
    // 2048 bits runs on the runtime-width fallback.
    let mut g = c.benchmark_group("bignum/mont_pow");
    g.sample_size(20);
    for &bits in &[256usize, 384, 512, 1024, 2048] {
        let limbs = bits / 32;
        let modulus = odd(value(limbs, 9));
        with_limbs(
            words_for(&modulus),
            MontPow {
                g: &mut g,
                bits,
                base: &value(limbs, 7),
                exp: &value(limbs, 8),
                modulus: &modulus,
            },
        );
    }
    g.finish();
}

struct MontPow<'g, 'c, 'a> {
    g: &'g mut criterion::BenchmarkGroup<'c>,
    bits: usize,
    base: &'a BigUint,
    exp: &'a BigUint,
    modulus: &'a BigUint,
}

impl LimbsVisitor for MontPow<'_, '_, '_> {
    type Output = ();
    fn visit<L: Limbs>(self, width: usize) {
        let MontPow {
            g,
            bits,
            base,
            exp,
            modulus,
        } = self;
        g.bench_function(BenchmarkId::new("cold", bits), |bch| {
            bch.iter(|| {
                let ctx = MontgomeryCtx::<L>::new(modulus, width).expect("odd modulus");
                black_box(ctx.pow(base, exp))
            })
        });
        let ctx = MontgomeryCtx::<L>::new(modulus, width).expect("odd modulus");
        let windows = ExpWindows::new(exp);
        g.bench_function(BenchmarkId::new("warm", bits), |bch| {
            bch.iter(|| black_box(ctx.pow_windows(base, &windows)))
        });
    }
}

/// Montgomery multiplies at each monomorphized width (in 64-bit words),
/// on the stack: the unit every exponentiation is built from. One
/// iteration is a chain of [`MUL_CHAIN`] dependent multiplies, so the
/// timer's own cost (tens of ns) does not swamp a single one.
fn bench_mont_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/mont_mul");
    for width in FIXED_WIDTHS {
        let modulus = odd(value(2 * width, 11));
        with_limbs(
            width,
            MontMul {
                g: &mut g,
                modulus: &modulus,
            },
        );
    }
    g.finish();
}

struct MontMul<'g, 'c, 'a> {
    g: &'g mut criterion::BenchmarkGroup<'c>,
    modulus: &'a BigUint,
}

impl LimbsVisitor for MontMul<'_, '_, '_> {
    type Output = ();
    fn visit<L: Limbs>(self, width: usize) {
        let ctx = MontgomeryCtx::<L>::new(self.modulus, width).expect("odd modulus");
        let a = ctx.reduce(&value(2 * width, 12));
        let b = ctx.reduce(&value(2 * width, 13));
        self.g
            .bench_function(BenchmarkId::from_parameter(width), |bch| {
                bch.iter(|| {
                    let mut x = black_box(a.clone());
                    for _ in 0..MUL_CHAIN {
                        x = ctx.mul(&x, &b);
                    }
                    black_box(x)
                })
            });
    }
}

/// Multiplies per `bignum/mont_mul` iteration.
const MUL_CHAIN: usize = 64;

fn odd(mut v: BigUint) -> BigUint {
    v.set_bit(0, true);
    v
}

criterion_group!(
    benches,
    bench_mul,
    bench_divrem,
    bench_gcd,
    bench_pow_mod,
    bench_mont_pow,
    bench_mont_mul
);
criterion_main!(benches);
