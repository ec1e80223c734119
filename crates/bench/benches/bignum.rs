//! Bignum substrate benchmarks: multiplication straddling the Karatsuba
//! threshold, Knuth-D division, GCD, and modular exponentiation (the RSA
//! kernel) — the generic `pow_mod` against the Montgomery fixed-window
//! kernel it was rewritten around, and chains of the kernel's multiply at
//! every fixed width.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_num::limbs::FIXED_WIDTHS;
use dls_num::{gcd, modmath, with_limbs, BigUint, ExpWindows, Limbs, LimbsVisitor, MontgomeryCtx};
use std::hint::black_box;

/// A full-width value of `words` 64-bit words.
fn value(words: usize, seed: u64) -> BigUint {
    let mut v = Vec::with_capacity(words);
    let mut x = seed | 1;
    for i in 0..words {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64 | 1);
        v.push(x);
    }
    v[words - 1] |= 1 << 63;
    BigUint::from_limbs_le(v)
}

fn bench_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/mul");
    for &words in &[4usize, 12, 24, 64, 256] {
        let a = value(words, 1);
        let b = value(words, 2);
        g.bench_with_input(BenchmarkId::from_parameter(words * 64), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(a * b))
        });
    }
    g.finish();
}

fn bench_divrem(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/divrem");
    for &(n, d) in &[(16usize, 8usize), (64, 32), (256, 128)] {
        let a = value(n, 3);
        let b = value(d, 4);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{}by{}", n * 64, d * 64)),
            &(a, b),
            |bch, (a, b)| bch.iter(|| black_box(a.divrem(b))),
        );
    }
    g.finish();
}

fn bench_gcd(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/gcd");
    for &words in &[4usize, 16, 64] {
        let a = value(words, 5);
        let b = value(words, 6);
        g.bench_with_input(BenchmarkId::from_parameter(words * 64), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(gcd(a, b)))
        });
    }
    g.finish();
}

fn bench_pow_mod(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum/pow_mod");
    g.sample_size(20);
    for &bits in &[384usize, 512, 1024] {
        let words = bits / 64;
        let base = value(words, 7);
        let exp = value(words, 8);
        let mut modulus = value(words, 9);
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
        let words = bits / 64;
        let modulus = odd(value(words, 9));
        with_limbs(
            words,
            MontPow {
                g: &mut g,
                bits,
                base: &value(words, 7),
                exp: &value(words, 8),
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
        let modulus = odd(value(width, 11));
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
        let a = ctx.reduce(&value(width, 12));
        let b = ctx.reduce(&value(width, 13));
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
