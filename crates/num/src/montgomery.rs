//! Montgomery-form modular arithmetic over odd moduli — the fast path under
//! the RSA-style signature substrate in `dls-crypto`.
//!
//! [`modmath::pow_mod`](crate::modmath::pow_mod) reduces every intermediate
//! with a full Knuth-D division. A [`MontgomeryCtx`] instead precomputes, once
//! per modulus, the constants that let every modular multiplication run as a
//! single fused multiply-reduce pass (CIOS — Coarsely Integrated Operand
//! Scanning) over `u64` words with `u128` products: `n' = -n⁻¹ mod 2⁶⁴`
//! (Hensel lifting) and `R² mod n` where `R = 2^(64·s)` for an `s`-word
//! modulus. Exponentiation uses a fixed-window (w = 4) ladder with a
//! precomputed odd-power table; the window schedule itself ([`ExpWindows`])
//! depends only on the exponent and can be built once per key and reused
//! across calls.
//!
//! [`BigUint`] keeps its `u32` limbs (rationals and exact payments are built
//! on them). The kernel's 64-bit words exist only between one private
//! `pack`/`unpack` pair: the constructor and [`to_mont`](MontgomeryCtx::to_mont)
//! pack two limbs per word, [`from_mont`](MontgomeryCtx::from_mont) unpacks,
//! and every Montgomery vector in between is a `Vec<u64>` of width `s`.
//!
//! Montgomery representation is a bijection `a ↦ a·R mod n` on `[0, n)`, and
//! every kernel here returns the canonical representative, so results are
//! bit-identical to the `pow_mod` oracle — the property the differential
//! tests in this module and in `dls-crypto` pin down.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Window width (bits) for the fixed-window exponentiation ladder.
///
/// w = 4 needs an 8-entry odd-power table (1 squaring + 7 multiplies to
/// build) and amortizes to one multiply per 4 exponent bits — the sweet spot
/// for 384–2048-bit RSA exponents, where w = 5 would spend more on the
/// 16-entry table than it saves.
const WINDOW_BITS: u32 = 4;

/// Odd powers stored in the table: `base^1, base^3, …, base^15`.
const TABLE_LEN: usize = 1 << (WINDOW_BITS - 1);

/// Error building a [`MontgomeryCtx`]: the modulus must be odd and > 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MontgomeryError {
    /// The modulus is even (including zero); Montgomery reduction requires
    /// `gcd(n, 2⁶⁴) = 1`.
    EvenModulus,
    /// The modulus is the unit `1`, which has no non-trivial residues.
    UnitModulus,
}

impl fmt::Display for MontgomeryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontgomeryError::EvenModulus => {
                write!(f, "Montgomery modulus must be odd (gcd(n, 2^64) = 1)")
            }
            MontgomeryError::UnitModulus => {
                write!(f, "Montgomery modulus must be > 1")
            }
        }
    }
}

impl std::error::Error for MontgomeryError {}

/// Precomputed per-modulus constants for Montgomery multiplication.
///
/// Build once per odd modulus with [`MontgomeryCtx::new`]; every subsequent
/// [`mul`](MontgomeryCtx::mul)/[`pow`](MontgomeryCtx::pow) reuses the
/// constants and runs division-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The modulus `n` (odd, > 1).
    n: BigUint,
    /// `n` packed into exactly `s` words (top word non-zero).
    n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`, via Hensel/Newton lifting from the low word.
    n0_inv: u64,
    /// `R² mod n`, padded to `s` words (`R = 2^(64·s)`).
    r2: Vec<u64>,
    /// `R mod n`, padded to `s` words — the Montgomery form of `1`.
    one: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for the odd modulus `n > 1`.
    pub fn new(n: &BigUint) -> Result<Self, MontgomeryError> {
        if n.is_even() {
            // Zero is even, so this also rejects n = 0.
            return Err(MontgomeryError::EvenModulus);
        }
        if n.is_one() {
            return Err(MontgomeryError::UnitModulus);
        }
        let s = n.limbs().len().div_ceil(2);
        let n_limbs = pack(n, s);
        // Hensel lifting: x ≡ n₀⁻¹ (mod 2^(2^k)) doubles its valid bits per
        // Newton step x ← x·(2 − n₀·x); six steps from x = 1 (exact mod 2
        // since n₀ is odd) reach 64 bits.
        let n0 = n_limbs[0];
        let mut x: u64 = 1;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        }
        debug_assert_eq!(n0.wrapping_mul(x), 1);
        let n0_inv = x.wrapping_neg();
        // dls-lint: allow(unchecked-arith) -- BigUint shift is arbitrary-precision
        let r2 = &(BigUint::one() << (128 * s)) % n;
        // dls-lint: allow(unchecked-arith) -- BigUint shift is arbitrary-precision
        let one = &(BigUint::one() << (64 * s)) % n;
        Ok(MontgomeryCtx {
            n: n.clone(),
            n0_inv,
            r2: pack(&r2, s),
            one: pack(&one, s),
            n_limbs,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Operand width in `u64` words (`s`); every Montgomery vector this
    /// context produces or consumes has exactly this length.
    pub fn width(&self) -> usize {
        self.n_limbs.len()
    }

    /// Converts `a` into Montgomery form `a·R mod n` (reducing `a` first, so
    /// `a >= n` is fine).
    pub fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let reduced = pack(&(a % &self.n), self.width());
        self.mul(&reduced, &self.r2)
    }

    /// Converts a Montgomery vector back to the canonical integer in `[0, n)`.
    pub fn from_mont(&self, a: &[u64]) -> BigUint {
        // Multiplying by the plain integer 1 strips one factor of R.
        let mut one_int = vec![0u64; self.width()];
        one_int[0] = 1;
        unpack(&self.mul(a, &one_int))
    }

    /// Montgomery product `a·b·R⁻¹ mod n` of two width-`s` vectors.
    pub fn mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = Vec::new();
        let mut out = vec![0u64; self.width()];
        self.mul_into(a, b, &mut t, &mut out);
        out
    }

    /// CIOS multiply-reduce into `out`, reusing `t` as the working buffer.
    ///
    /// `a` and `b` are width-`s` Montgomery vectors (values < n); `out` must
    /// be width `s` and must not alias `a` or `b`. The working value after
    /// each outer iteration stays below `2n`, so `t` needs `s + 2` words and
    /// the top word never exceeds 1 (the classical CIOS bound).
    fn mul_into(&self, a: &[u64], b: &[u64], t: &mut Vec<u64>, out: &mut [u64]) {
        let s = self.width();
        let n = &self.n_limbs[..s];
        let (a, b, out) = (&a[..s], &b[..s], &mut out[..s]);
        t.clear();
        t.resize(s + 2, 0);
        let t = &mut t[..s + 2];
        for &bi in b {
            // Multiply step: t += a · b[i].
            let bi = bi as u128;
            let mut carry: u64 = 0;
            for (tj, &aj) in t.iter_mut().zip(a) {
                // (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸−1: the three-term sum fits u128.
                let sum = *tj as u128 + aj as u128 * bi + carry as u128;
                *tj = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let (sum, overflow) = t[s].overflowing_add(carry);
            t[s] = sum;
            t[s + 1] = overflow as u64;

            // Reduce step: add m·n with m chosen so the low word cancels,
            // then shift down one word.
            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let sum = t[0] as u128 + m * n[0] as u128;
            debug_assert_eq!(sum as u64, 0, "low word must cancel");
            let mut carry = (sum >> 64) as u64;
            for j in 1..s {
                let sum = t[j] as u128 + m * n[j] as u128 + carry as u128;
                t[j - 1] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let (sum, overflow) = t[s].overflowing_add(carry);
            t[s - 1] = sum;
            // Both addends are at most 1 (CIOS invariant + carry), and their
            // sum is the top word of a value below 2n < 2^(64·s+1), so it is
            // 0 or 1 and the OR is the sum.
            debug_assert!(t[s + 1] == 0 || !overflow, "top word exceeds 1");
            t[s] = t[s + 1] | overflow as u64;
        }
        // Final value is t[0..=s] < 2n: one conditional subtract canonicalizes.
        let ge = t[s] != 0 || cmp_limbs(&t[..s], n) != Ordering::Less;
        if !ge {
            out.copy_from_slice(&t[..s]);
            return;
        }
        let mut borrow = false;
        for ((o, &tj), &nj) in out.iter_mut().zip(t.iter()).zip(n) {
            let (d, b1) = tj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *o = d;
            borrow = b1 | b2;
        }
        // t < 2n guarantees the final borrow is absorbed by t[s].
        debug_assert_eq!(t[s], borrow as u64, "reduction must not underflow");
    }

    /// `base^exp mod n` with a per-call window schedule.
    ///
    /// Matches [`modmath::pow_mod`](crate::modmath::pow_mod) bit-for-bit on
    /// every input (including `base >= n` and `exp = 0`).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_windows(base, &ExpWindows::new(exp))
    }

    /// `base^exp mod n` with a precomputed window schedule (build once per
    /// exponent with [`ExpWindows::new`], reuse for every base).
    pub fn pow_windows(&self, base: &BigUint, windows: &ExpWindows) -> BigUint {
        let base_mont = self.to_mont(base);
        let result = self.pow_to_mont(&base_mont, windows);
        self.from_mont(&result)
    }

    /// Windowed exponentiation entirely in the Montgomery domain: maps a
    /// Montgomery-form base to the Montgomery form of `base^exp`.
    ///
    /// Staying in the domain lets callers (e.g. Miller–Rabin) compare
    /// intermediate values against precomputed Montgomery constants without
    /// converting back — the representation is a bijection, so vector
    /// equality is value equality.
    pub fn pow_to_mont(&self, base_mont: &[u64], windows: &ExpWindows) -> Vec<u64> {
        let s = self.width();
        debug_assert_eq!(base_mont.len(), s);
        if windows.ops.is_empty() {
            // exp = 0: the empty product is 1.
            return self.one.clone();
        }
        // Odd-power table: table[i] = base^(2i+1) in Montgomery form.
        let sq = self.mul(base_mont, base_mont);
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(TABLE_LEN);
        table.push(base_mont.to_vec());
        for i in 1..TABLE_LEN {
            table.push(self.mul(&table[i - 1], &sq));
        }
        // Left-to-right ladder over the schedule; `acc = None` until the
        // leading window lands (skipping its squarings of 1).
        let mut t = Vec::new();
        let mut tmp = vec![0u64; s];
        let mut acc: Option<Vec<u64>> = None;
        for op in &windows.ops {
            match *op {
                WindowOp::Squares(k) => {
                    if let Some(cur) = acc.as_mut() {
                        for _ in 0..k {
                            self.mul_into(cur, cur, &mut t, &mut tmp);
                            std::mem::swap(cur, &mut tmp);
                        }
                    }
                }
                WindowOp::MulOdd(idx) => match acc.as_mut() {
                    None => acc = Some(table[idx as usize].clone()),
                    Some(cur) => {
                        self.mul_into(cur, &table[idx as usize], &mut t, &mut tmp);
                        std::mem::swap(cur, &mut tmp);
                    }
                },
            }
        }
        acc.expect("non-empty schedule ends with a window")
    }
}

/// One step of a windowed-exponentiation schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowOp {
    /// Square the accumulator `k` times.
    Squares(u32),
    /// Multiply by the odd power `base^(2i+1)` at table index `i`.
    MulOdd(u8),
}

/// A precomputed fixed-window (w = 4) exponentiation schedule.
///
/// Depends only on the exponent, so a key's schedule is built once and
/// reused for every signature/verification under that key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpWindows {
    ops: Vec<WindowOp>,
}

impl ExpWindows {
    /// Scans `exp` left-to-right into maximal ≤4-bit windows ending in a set
    /// bit, so every window value is odd and the table stays half-size.
    pub fn new(exp: &BigUint) -> Self {
        let mut ops = Vec::new();
        let mut i = exp.bits() as i64 - 1;
        let mut pending: u32 = 0;
        while i >= 0 {
            if !exp.bit(i as usize) {
                pending += 1;
                i -= 1;
                continue;
            }
            // Window [j..=i]: lowest set bit within WINDOW_BITS of i.
            let mut j = i.saturating_sub(WINDOW_BITS as i64 - 1).max(0);
            while !exp.bit(j as usize) {
                j += 1;
            }
            // dls-lint: allow(unchecked-arith) -- j <= i by loop bound, width <= WINDOW_BITS
            let width = (i - j + 1) as u32;
            let mut u: u8 = 0;
            for k in (j..=i).rev() {
                u = (u << 1) | exp.bit(k as usize) as u8;
            }
            // Pending squarings from the zero run fold into the window's own.
            // dls-lint: allow(unchecked-arith) -- pending + width <= exp.bits() + 4, far below u32::MAX
            ops.push(WindowOp::Squares(pending + width));
            // u is odd (bit j is set), so u >> 1 indexes the odd-power table.
            ops.push(WindowOp::MulOdd(u >> 1));
            pending = 0;
            i = j - 1;
        }
        if pending > 0 {
            ops.push(WindowOp::Squares(pending));
        }
        ExpWindows { ops }
    }
}

/// Packs `a`'s `u32` limbs two per word (low limb in the low half) into a
/// fresh width-`s` vector, zero-extended at the top.
fn pack(a: &BigUint, s: usize) -> Vec<u64> {
    let limbs = a.limbs();
    assert!(limbs.len() <= 2 * s, "value wider than the context");
    let mut out = vec![0u64; s];
    for (word, pair) in out.iter_mut().zip(limbs.chunks(2)) {
        let hi = pair.get(1).copied().unwrap_or(0);
        *word = (hi as u64) << 32 | pair[0] as u64;
    }
    out
}

/// Splits each word back into two `u32` limbs; the inverse of [`pack`].
fn unpack(words: &[u64]) -> BigUint {
    let limbs = words
        .iter()
        .flat_map(|&w| [w as u32, (w >> 32) as u32])
        .collect();
    BigUint::from_limbs_le(limbs)
}

/// Compares two equal-width little-endian limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    /// Deterministic pseudo-random value of exactly `bits` bits.
    fn rnd(bits: usize, seed: u32) -> BigUint {
        let limbs = bits.div_ceil(32);
        let mut v = Vec::with_capacity(limbs);
        let mut x = seed.wrapping_mul(0x9e3779b9) | 1;
        for i in 0..limbs {
            x = x.wrapping_mul(2654435761).wrapping_add(i as u32 | 1);
            v.push(x);
        }
        let mut out = BigUint::from_limbs_le(v);
        // Trim to the requested width and force the top bit.
        out = &out >> (limbs * 32 - bits);
        out.set_bit(bits - 1, true);
        out
    }

    #[test]
    fn rejects_even_and_unit_moduli() {
        assert_eq!(
            MontgomeryCtx::new(&BigUint::zero()),
            Err(MontgomeryError::EvenModulus)
        );
        assert_eq!(
            MontgomeryCtx::new(&b(4096)),
            Err(MontgomeryError::EvenModulus)
        );
        assert_eq!(
            MontgomeryCtx::new(&BigUint::one()),
            Err(MontgomeryError::UnitModulus)
        );
        assert!(MontgomeryCtx::new(&b(3)).is_ok());
    }

    #[test]
    fn n0_inv_is_negative_inverse() {
        for n in [
            3u64,
            17,
            0xffff_fffb,
            0x1_0000_0001,
            12345678901234567,
            0xffff_ffff_ffff_ffff,
            0x8000_0000_0000_0001,
        ] {
            let ctx = MontgomeryCtx::new(&b(n | 1)).unwrap();
            let n0 = ctx.n_limbs[0];
            // n0 · n0_inv ≡ −1 (mod 2⁶⁴).
            assert_eq!(n0.wrapping_mul(ctx.n0_inv), u64::MAX, "n = {n}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for bits in [1usize, 31, 32, 33, 64, 65, 96, 160, 544] {
            let a = rnd(bits, 3);
            let s = a.limbs().len().div_ceil(2);
            for width in [s, s + 1] {
                let words = pack(&a, width);
                assert_eq!(words.len(), width);
                assert_eq!(unpack(&words), a, "bits {bits} width {width}");
            }
        }
        assert_eq!(pack(&BigUint::zero(), 2), vec![0, 0]);
    }

    /// Moduli at the word-packing edges: an odd number of `u32` limbs
    /// (top word half empty), one word below and above 2³², all-ones words
    /// and `2^(64k−1)+1`.
    fn edge_moduli() -> Vec<BigUint> {
        let one = BigUint::one();
        let mut out = Vec::new();
        for bits in [96usize, 160, 224, 416, 544] {
            let mut n = rnd(bits, bits as u32);
            n.set_bit(0, true);
            out.push(n);
        }
        out.extend([b(3), b(0xffff_fffb), b(4_000_000_007)]);
        out.extend([b(0x1_0000_000f), b(0x1234_5678_9abc_def1), b(u64::MAX - 58)]);
        for k in [1usize, 2, 3, 8] {
            out.push(&(&one << (64 * k)) - &one);
            out.push(&(&one << (64 * k - 1)) + &one);
        }
        out
    }

    /// Bases at the edges of `[0, n)` and beyond it.
    fn edge_bases(n: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        let n2 = n * n;
        vec![
            BigUint::zero(),
            one.clone(),
            n - &one,
            n.clone(),
            &n2 + &b(5),
            &(&n2 * &b(3)) + &(n - &one),
            &rnd(n.bits() + 3, 17) % n,
        ]
    }

    #[test]
    fn word_packing_edges_match_modmath() {
        for n in edge_moduli() {
            let ctx = MontgomeryCtx::new(&n).unwrap();
            assert_eq!(ctx.width(), n.bits().div_ceil(64), "n = {n}");
            let r = BigUint::one() << (64 * ctx.width());
            let exp = rnd(96, 23);
            let bases = edge_bases(&n);
            for a in &bases {
                let am = ctx.to_mont(a);
                assert_eq!(am.len(), ctx.width());
                let ctx_pow = ctx.pow(a, &exp);
                assert_eq!(unpack(&am), modmath::mul_mod(a, &r, &n), "to_mont {n} {a}");
                assert_eq!(ctx.from_mont(&am), a % &n, "from_mont {n} {a}");
                assert_eq!(ctx_pow, modmath::pow_mod(a, &exp, &n), "pow {n} {a}");
                for c in &bases {
                    let prod = ctx.from_mont(&ctx.mul(&am, &ctx.to_mont(c)));
                    assert_eq!(prod, modmath::mul_mod(a, c, &n), "mul {n} {a} {c}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_to_from_mont() {
        let mut n = rnd(192, 11);
        n.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for seed in 0..20 {
            let a = rnd(192, 100 + seed);
            let am = ctx.to_mont(&a);
            assert_eq!(ctx.from_mont(&am), &a % &n, "seed {seed}");
        }
    }

    #[test]
    fn mul_matches_mul_mod() {
        for bits in [64usize, 96, 192, 512] {
            let mut n = rnd(bits, 7);
            n.set_bit(0, true);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            for seed in 0..10 {
                let a = &rnd(bits, 31 + seed) % &n;
                let c = &rnd(bits, 77 + seed) % &n;
                let prod = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&c)));
                assert_eq!(prod, modmath::mul_mod(&a, &c, &n), "bits {bits} seed {seed}");
            }
        }
    }

    #[test]
    fn pow_matches_pow_mod_random() {
        for bits in [64usize, 128, 384, 1024, 2048] {
            let mut n = rnd(bits, 5);
            n.set_bit(0, true);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            for seed in 0..4 {
                let base = rnd(bits, 1000 + seed);
                let exp = rnd(bits.min(256), 2000 + seed);
                assert_eq!(
                    ctx.pow(&base, &exp),
                    modmath::pow_mod(&base, &exp, &n),
                    "bits {bits} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn pow_edge_cases() {
        let n = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        // exp = 0 → 1.
        assert_eq!(ctx.pow(&b(5), &BigUint::zero()), BigUint::one());
        // base >= n reduces first.
        let big_base = &(&n * &n) + &b(17);
        assert_eq!(
            ctx.pow(&big_base, &b(1234)),
            modmath::pow_mod(&big_base, &b(1234), &n)
        );
        // base = 0.
        assert_eq!(ctx.pow(&BigUint::zero(), &b(9)), BigUint::zero());
        // base ≡ 0 (mod n).
        assert_eq!(ctx.pow(&n, &b(3)), BigUint::zero());
        // Single-limb modulus, exponent 1.
        let ctx3 = MontgomeryCtx::new(&b(3)).unwrap();
        assert_eq!(ctx3.pow(&b(7), &BigUint::one()), b(1));
    }

    #[test]
    fn pow_fermat() {
        let p = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        for a in [2u64, 3, 65_537, 999_999_999] {
            assert_eq!(ctx.pow(&b(a), &(&p - &b(1))), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn window_schedule_reuse_is_consistent() {
        let mut n = rnd(256, 3);
        n.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let exp = b(65_537);
        let windows = ExpWindows::new(&exp);
        for seed in 0..8 {
            let base = rnd(256, 500 + seed);
            assert_eq!(
                ctx.pow_windows(&base, &windows),
                modmath::pow_mod(&base, &exp, &n),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn window_schedule_covers_exponent_shapes() {
        // All-ones, single-bit, sparse, and dense exponents exercise every
        // branch of the window scanner.
        let mut n = rnd(128, 9);
        n.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            b(2),
            b(15),
            b(16),
            b(0b1000_0001),
            (BigUint::one() << 127usize) - &BigUint::one(),
            BigUint::one() << 127usize,
            b(0xdead_beef_cafe_babe),
        ];
        for (k, exp) in exps.iter().enumerate() {
            for seed in 0..3 {
                let base = rnd(128, 40 + seed);
                assert_eq!(
                    ctx.pow(&base, exp),
                    modmath::pow_mod(&base, exp, &n),
                    "exp #{k} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn pow_to_mont_stays_in_domain() {
        let p = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let base = b(123_456);
        let exp = b(7919);
        let bm = ctx.to_mont(&base);
        let rm = ctx.pow_to_mont(&bm, &ExpWindows::new(&exp));
        // Domain equality: the Montgomery vector of the expected value.
        let expected = modmath::pow_mod(&base, &exp, &p);
        assert_eq!(rm, ctx.to_mont(&expected));
        assert_eq!(ctx.from_mont(&rm), expected);
    }
}
