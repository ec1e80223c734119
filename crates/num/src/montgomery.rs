//! Montgomery-form modular arithmetic over odd moduli — the kernel under
//! the RSA signature substrate in `dls-crypto`.
//!
//! [`modmath::pow_mod`](crate::modmath::pow_mod) reduces every intermediate
//! with a full Knuth-D division. A [`MontgomeryCtx`] instead precomputes, once
//! per modulus, the constants that let every modular multiplication run as a
//! single fused multiply-reduce pass (CIOS — Coarsely Integrated Operand
//! Scanning) over `u64` words with `u128` products: `n' = -n⁻¹ mod 2⁶⁴`
//! (Hensel lifting), `R² mod n` and `R³ mod n` where `R = 2^(64·s)` for an
//! `s`-word context. Exponentiation uses a fixed-window (w = 4) ladder with a
//! precomputed odd-power table; the window schedule itself ([`ExpWindows`])
//! depends only on the exponent and can be built once per key and reused
//! across calls.
//!
//! There is one CIOS body, generic over the operand storage
//! ([`Limbs`]): `MontgomeryCtx<[u64; N]>` is the
//! monomorphized, allocation-free kernel for one width, and
//! `MontgomeryCtx<Vec<u64>>` runs the same body at any other width.
//! [`with_limbs`](crate::limbs::with_limbs) picks the storage for a width.
//! Inputs enter as big-endian bytes of any length ([`to_mont_be`]) and are
//! reduced by Montgomery multiplies by `R²`/`R³`, never by division.
//!
//! Montgomery representation is a bijection `a ↦ a·R mod n` on `[0, n)`, and
//! every kernel here returns the canonical representative, so results are
//! bit-identical to the `pow_mod` oracle — the property the differential
//! tests in this module and in `dls-crypto` pin down.
//!
//! [`to_mont_be`]: MontgomeryCtx::to_mont_be

use crate::biguint::BigUint;
use crate::limbs::{
    add_in_place, cmp_words, limbs_from_biguint, load_be, mac_row, sub_in_place, Limbs,
};
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

/// Error building a [`MontgomeryCtx`]: the modulus must be odd, > 1 and fit
/// the context's width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MontgomeryError {
    /// The modulus is even (including zero); Montgomery reduction requires
    /// `gcd(n, 2⁶⁴) = 1`.
    EvenModulus,
    /// The modulus is the unit `1`, which has no non-trivial residues.
    UnitModulus,
    /// The modulus has more words than the context's storage.
    TooWide {
        /// Words the modulus occupies.
        words: usize,
        /// Words the storage holds.
        width: usize,
    },
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
            MontgomeryError::TooWide { words, width } => {
                write!(
                    f,
                    "a {words}-word modulus does not fit {width}-word storage"
                )
            }
        }
    }
}

impl std::error::Error for MontgomeryError {}

/// Precomputed per-modulus constants for Montgomery multiplication over
/// `L` storage.
///
/// Build once per odd modulus with [`MontgomeryCtx::new`]; every subsequent
/// [`mul`](MontgomeryCtx::mul)/[`pow_to_mont`](MontgomeryCtx::pow_to_mont)
/// reuses the constants and runs division-free. With `[u64; N]` storage no
/// operation allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryCtx<L: Limbs> {
    /// The modulus `n` (odd, > 1), zero-extended to the storage width.
    n: L,
    /// `-n⁻¹ mod 2⁶⁴`, via Hensel/Newton lifting from the low word.
    n0_inv: u64,
    /// `R² mod n` (`R = 2^(64·s)`): `mul(a, r2)` maps `a` into the domain.
    r2: L,
    /// `R³ mod n`: `mul(hi, r3)` is the domain form of `hi·R`, which lets a
    /// double-width input reduce in two multiplies.
    r3: L,
}

impl<L: Limbs> MontgomeryCtx<L> {
    /// Builds a context for the odd modulus `n > 1` over `width`-word
    /// storage (a fixed array's width is its length).
    ///
    /// Any width that holds `n` is valid; `R` grows with it.
    pub fn new(n: &BigUint, width: usize) -> Result<Self, MontgomeryError> {
        if n.is_even() {
            // Zero is even, so this also rejects n = 0.
            return Err(MontgomeryError::EvenModulus);
        }
        if n.is_one() {
            return Err(MontgomeryError::UnitModulus);
        }
        let too_wide = MontgomeryError::TooWide {
            words: n.limbs().len(),
            width,
        };
        let n_limbs: L = limbs_from_biguint(n, width).ok_or(too_wide)?;
        let s = n_limbs.words().len();
        // Hensel lifting: x ≡ n₀⁻¹ (mod 2^(2^k)) doubles its valid bits per
        // Newton step x ← x·(2 − n₀·x); six steps from x = 1 (exact mod 2
        // since n₀ is odd) reach 64 bits.
        let n0 = n_limbs.words().first().copied().unwrap_or(1);
        let mut x: u64 = 1;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        }
        debug_assert_eq!(n0.wrapping_mul(x), 1);
        // dls-lint: allow(unchecked-arith) -- BigUint shift is arbitrary-precision
        let r2 = &(BigUint::one() << (128 * s)) % n;
        let mut ctx = MontgomeryCtx {
            r2: limbs_from_biguint(&r2, width).expect("R² mod n is below n, which fits"),
            r3: L::zeroed(width),
            n0_inv: x.wrapping_neg(),
            n: n_limbs,
        };
        // mul(R², R²) = R⁴·R⁻¹ = R³ (mod n).
        ctx.r3 = ctx.mul(&ctx.r2, &ctx.r2);
        Ok(ctx)
    }

    /// The modulus as `L` words.
    pub fn modulus(&self) -> &L {
        &self.n
    }

    /// Operand width in `u64` words (`s`); every operand this context
    /// produces or consumes has exactly this length.
    pub fn width(&self) -> usize {
        self.n.words().len()
    }

    /// `true` iff `a < n`, i.e. `a` is a canonical residue.
    pub fn is_reduced(&self, a: &L) -> bool {
        cmp_words(a.words(), self.n.words()) == Ordering::Less
    }

    /// Montgomery product `a·b·R⁻¹ mod n`, canonical in `[0, n)`.
    ///
    /// Requires `a < R` (any stored value) and `b < n`. The working value
    /// then stays below `a + n < 2R` after every row and ends below
    /// `(a·b + m·n)/R < 2n`, so its top word is 0 or 1 and one conditional
    /// subtract canonicalizes (the classical CIOS bound).
    #[inline]
    pub fn mul(&self, a: &L, b: &L) -> L {
        let s = self.width();
        let mut out = L::zeroed(s);
        {
            let n = self.n.words();
            let (a, b) = (&a.words()[..s], &b.words()[..s]);
            let t = &mut out.words_mut()[..s];
            // Word s of the accumulator (0 or 1 between rows); t holds the
            // words below it.
            let mut top: u64 = 0;
            for &bi in b {
                // Multiply step: t += a · b[i].
                let carry = mac_row(&mut *t, a, bi);
                let (t_s, overflow) = top.overflowing_add(carry);
                let t_s1 = overflow as u64;

                // Reduce step: add m·n with m chosen so the low word
                // cancels, then shift down one word.
                let m = t[0].wrapping_mul(self.n0_inv) as u128;
                let sum = t[0] as u128 + m * n[0] as u128;
                debug_assert_eq!(sum as u64, 0, "low word must cancel");
                let mut carry = (sum >> 64) as u64;
                for j in 1..s {
                    let sum = t[j] as u128 + m * n[j] as u128 + carry as u128;
                    t[j - 1] = sum as u64;
                    carry = (sum >> 64) as u64;
                }
                let (word, overflow) = t_s.overflowing_add(carry);
                t[s - 1] = word;
                // Both addends are at most 1 (CIOS invariant + carry), and
                // their sum is the top word of a value below 2R, so it is 0
                // or 1 and the OR is the sum.
                debug_assert!(t_s1 == 0 || !overflow, "top word exceeds 1");
                top = t_s1 | overflow as u64;
            }
            // Final value is top·R + t < 2n: one conditional subtract.
            if top != 0 || cmp_words(t, n) != Ordering::Less {
                let borrow = sub_in_place(t, n);
                // t < 2n guarantees the borrow is absorbed by the top word.
                debug_assert_eq!(top, borrow as u64, "reduction must not underflow");
            }
        }
        out
    }

    /// `(a + b) mod n` for canonical `a, b < n`.
    pub fn add(&self, a: &L, b: &L) -> L {
        let mut out = a.clone();
        let carry = add_in_place(out.words_mut(), b.words());
        if carry || !self.is_reduced(&out) {
            // a + b < 2n, so one subtract lands in [0, n); a carry out of
            // the top word is absorbed by the borrow.
            sub_in_place(out.words_mut(), self.n.words());
        }
        out
    }

    /// `(a − b) mod n` for canonical `a, b < n`.
    pub fn sub(&self, a: &L, b: &L) -> L {
        let mut out = a.clone();
        if sub_in_place(out.words_mut(), b.words()) {
            // a < b: the wrapped difference a − b + R plus n wraps back to
            // a − b + n ∈ (0, n).
            add_in_place(out.words_mut(), self.n.words());
        }
        out
    }

    /// The Montgomery form `a·R mod n` of any stored value `a < R`.
    pub fn to_mont(&self, a: &L) -> L {
        self.mul(a, &self.r2)
    }

    /// The canonical integer in `[0, n)` behind the Montgomery form `a`.
    pub fn from_mont(&self, a: &L) -> L {
        // Multiplying by the plain integer 1 strips one factor of R.
        self.mul(a, &self.unit())
    }

    /// The Montgomery form of `1` (`R mod n`).
    pub fn one(&self) -> L {
        self.from_mont(&self.r2)
    }

    /// The plain integer `1` in this context's storage.
    fn unit(&self) -> L {
        let mut u = L::zeroed(self.width());
        if let Some(w) = u.words_mut().first_mut() {
            *w = 1;
        }
        u
    }

    /// The Montgomery form of the big-endian integer given as `len` bytes
    /// (any length, leading zeros allowed), reduced mod `n` without
    /// division.
    ///
    /// The bytes are cut into `s`-word chunks `c_k … c_1 c_0` from the top.
    /// A single chunk maps in by one multiply by `R²`. Otherwise the top two
    /// fold as `c_k·R³ + c_(k−1)·R²` (two multiplies: the domain form of
    /// `c_k·R + c_(k−1)`), and every further chunk `c` shifts the
    /// accumulator by one more `R` in Horner form, `acc·R² + c·R²`. A
    /// double-width input — an RSA message under a CRT half — is
    /// `lo·R² + hi·R³`.
    ///
    /// `bytes` must yield exactly `len` bytes, most significant first.
    pub fn to_mont_be(&self, len: usize, bytes: impl IntoIterator<Item = u8>) -> L {
        let s = self.width();
        if len == 0 {
            return L::zeroed(s);
        }
        let chunk_bytes = 8 * s;
        let mut bytes = bytes.into_iter();
        let mut next_chunk = |take: usize| -> L {
            load_be(s, take, bytes.by_ref().take(take)).expect("a chunk fits its width")
        };
        // Every chunk below the top one is full; the top one takes the rest.
        let below = (len - 1) / chunk_bytes;
        let top_bytes = match len % chunk_bytes {
            0 => chunk_bytes,
            r => r,
        };
        let top = next_chunk(top_bytes);
        if below == 0 {
            return self.mul(&top, &self.r2);
        }
        let second = next_chunk(chunk_bytes);
        let mut acc = self.add(&self.mul(&top, &self.r3), &self.mul(&second, &self.r2));
        for _ in 1..below {
            let c = next_chunk(chunk_bytes);
            acc = self.add(&self.mul(&acc, &self.r2), &self.mul(&c, &self.r2));
        }
        acc
    }

    /// Windowed exponentiation entirely in the Montgomery domain: maps a
    /// Montgomery-form base (`< n`) to the Montgomery form of `base^exp`.
    ///
    /// Staying in the domain lets callers (Miller–Rabin, CRT recombination)
    /// work on intermediate values without converting back — the
    /// representation is a bijection, so word equality is value equality.
    pub fn pow_to_mont(&self, base_mont: &L, windows: &ExpWindows) -> L {
        let mut ladder = Ladder::new(self, base_mont, windows);
        while ladder.step() {}
        ladder.acc
    }

    /// Two independent [`pow_to_mont`](Self::pow_to_mont)s in lockstep —
    /// the CRT halves of a signature.
    ///
    /// One multiply is a chain of dependent carries, so a lone ladder
    /// leaves most of the core idle; stepping two ladders in one loop lets
    /// the out-of-order core overlap each multiply of one with the other's.
    /// Results are those of two separate calls.
    pub fn pow_to_mont_pair(
        (a, a_base, a_exp): (&Self, &L, &ExpWindows),
        (b, b_base, b_exp): (&Self, &L, &ExpWindows),
    ) -> (L, L) {
        let mut la = Ladder::new(a, a_base, a_exp);
        let mut lb = Ladder::new(b, b_base, b_exp);
        // `|`, not `||`: both ladders step on every iteration.
        while la.step() | lb.step() {}
        (la.acc, lb.acc)
    }

    /// `base^exp mod n` for `BigUint` operands, with a per-call window
    /// schedule.
    ///
    /// Matches [`modmath::pow_mod`](crate::modmath::pow_mod) bit-for-bit on
    /// every input (including `base >= n` and `exp = 0`).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_windows(base, &ExpWindows::new(exp))
    }

    /// `base^exp mod n` for a `BigUint` base with a precomputed window
    /// schedule (build once per exponent with [`ExpWindows::new`], reuse
    /// for every base).
    pub fn pow_windows(&self, base: &BigUint, windows: &ExpWindows) -> BigUint {
        let base_mont = self.reduce(base);
        let result = self.from_mont(&self.pow_to_mont(&base_mont, windows));
        BigUint::from_limbs_le(result.words().to_vec())
    }

    /// The Montgomery form of `a mod n` for any `a`.
    pub fn reduce(&self, a: &BigUint) -> L {
        let bytes = a.to_bytes_be();
        self.to_mont_be(bytes.len(), bytes)
    }
}

/// A left-to-right fixed-window exponentiation in progress: the odd-power
/// table, the accumulator, and the steps still to run.
struct Ladder<'a, L: Limbs> {
    ctx: &'a MontgomeryCtx<L>,
    /// `table[i] = base^(2i+1)` in Montgomery form, filled as far as the
    /// schedule reads it.
    table: [L; TABLE_LEN],
    acc: L,
    steps: std::slice::Iter<'a, u8>,
}

impl<'a, L: Limbs> Ladder<'a, L> {
    fn new(ctx: &'a MontgomeryCtx<L>, base_mont: &L, windows: &'a ExpWindows) -> Self {
        let mut table: [L; TABLE_LEN] = std::array::from_fn(|_| base_mont.clone());
        if windows.table_len > 1 {
            let sq = ctx.mul(base_mont, base_mont);
            for i in 1..windows.table_len.min(TABLE_LEN) {
                let next = ctx.mul(&table[i - 1], &sq);
                table[i] = next;
            }
        }
        // The leading window's odd power starts the accumulator (its
        // squarings of 1 are skipped); exp = 0 is the empty product 1.
        let acc = match windows.first {
            Some(idx) => table[usize::from(idx)].clone(),
            None => ctx.one(),
        };
        Ladder {
            ctx,
            table,
            acc,
            steps: windows.steps.iter(),
        }
    }

    /// Runs one multiply; `false` once the schedule is done.
    #[inline]
    fn step(&mut self) -> bool {
        let Some(&step) = self.steps.next() else {
            return false;
        };
        let operand = match self.table.get(usize::from(step)) {
            Some(odd_power) => odd_power,
            None => &self.acc, // SQUARE
        };
        self.acc = self.ctx.mul(&self.acc, operand);
        true
    }
}

/// A [`ExpWindows`] step that squares the accumulator; every other step
/// value is the odd-power table index to multiply by.
const SQUARE: u8 = u8::MAX;

/// A precomputed fixed-window (w = 4) exponentiation schedule, one entry
/// per multiply.
///
/// Depends only on the exponent, so a key's schedule is built once and
/// reused for every signature/verification under that key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpWindows {
    /// Table index of the leading window, whose odd power starts the
    /// ladder; `None` for `exp = 0`.
    first: Option<u8>,
    /// The multiplies after it: [`SQUARE`], or a table index `i` to
    /// multiply by `base^(2i+1)`.
    steps: Vec<u8>,
    /// Odd powers the schedule reads (`1 + ` its largest table index):
    /// `e = 65537` reads only `base¹`, so verification builds no table.
    table_len: usize,
}

impl ExpWindows {
    /// Scans `exp` left-to-right into maximal ≤4-bit windows ending in a set
    /// bit, so every window value is odd and the table stays half-size.
    pub fn new(exp: &BigUint) -> Self {
        let mut first = None;
        let mut steps = Vec::new();
        let mut table_len = 0;
        let mut i = exp.bits() as i64 - 1;
        let mut pending: usize = 0;
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
            let mut u: u8 = 0;
            for k in (j..=i).rev() {
                u = (u << 1) | exp.bit(k as usize) as u8;
            }
            // u is odd (bit j is set), so u >> 1 indexes the odd-power table.
            let idx = u >> 1;
            if first.is_none() {
                first = Some(idx);
            } else {
                // Pending squarings from the zero run fold into the
                // window's own, one per bit of the window.
                // dls-lint: allow(unchecked-arith) -- j <= i by loop bound, so the window is 1..=WINDOW_BITS bits
                let squarings = pending + (i - j + 1) as usize;
                steps.extend(std::iter::repeat_n(SQUARE, squarings));
                steps.push(idx);
            }
            table_len = table_len.max(usize::from(idx) + 1);
            pending = 0;
            i = j - 1;
        }
        steps.extend(std::iter::repeat_n(SQUARE, pending));
        ExpWindows {
            first,
            steps,
            table_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::{with_limbs, LimbsVisitor, FIXED_WIDTHS};
    use crate::modmath;

    type Dyn = MontgomeryCtx<Vec<u64>>;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    fn from_words(w: &[u64]) -> BigUint {
        BigUint::from_limbs_le(w.to_vec())
    }

    /// A context at `n`'s natural width on the `Vec` fallback.
    fn dyn_ctx(n: &BigUint) -> Dyn {
        Dyn::new(n, n.limbs().len()).unwrap()
    }

    /// Deterministic pseudo-random value of exactly `bits` bits.
    fn rnd(bits: usize, seed: u32) -> BigUint {
        let limbs = bits.div_ceil(32);
        let mut be = Vec::with_capacity(4 * limbs);
        let mut x = seed.wrapping_mul(0x9e3779b9) | 1;
        for i in 0..limbs {
            x = x.wrapping_mul(2654435761).wrapping_add(i as u32 | 1);
            be.splice(0..0, x.to_be_bytes());
        }
        let mut out = BigUint::from_bytes_be(&be);
        // Trim to the requested width and force the top bit.
        out = &out >> (limbs * 32 - bits);
        out.set_bit(bits - 1, true);
        out
    }

    fn odd_rnd(bits: usize, seed: u32) -> BigUint {
        let mut n = rnd(bits, seed);
        n.set_bit(0, true);
        n
    }

    /// The differential check against `modmath`: conversion in and out of
    /// the domain, `mul`, `add`, `sub` and `pow` of every base pair under
    /// `exp`, at whatever storage the visitor runs with.
    struct Oracle<'a> {
        n: &'a BigUint,
        bases: &'a [BigUint],
        exp: &'a BigUint,
    }

    impl LimbsVisitor for Oracle<'_> {
        type Output = ();
        fn visit<L: Limbs>(self, width: usize) {
            let Oracle { n, bases, exp } = self;
            let ctx = MontgomeryCtx::<L>::new(n, width).unwrap();
            assert_eq!(ctx.width(), width.max(n.limbs().len()));
            let r = BigUint::one() << (64 * ctx.width());
            let big = |w: &L| from_words(w.words());
            let windows = ExpWindows::new(exp);
            for a in bases {
                let am = ctx.reduce(a);
                assert_eq!(big(&am), modmath::mul_mod(a, &r, n), "to_mont {n} {a}");
                assert_eq!(big(&ctx.from_mont(&am)), a % n, "from_mont {n} {a}");
                let oracle = modmath::pow_mod(a, exp, n);
                assert_eq!(ctx.pow(a, exp), oracle, "pow {n} {a}");
                assert_eq!(ctx.pow_windows(a, &windows), oracle, "pow_windows {n} {a}");
                for c in bases {
                    let cm = ctx.reduce(c);
                    let prod = big(&ctx.from_mont(&ctx.mul(&am, &cm)));
                    assert_eq!(prod, modmath::mul_mod(a, c, n), "mul {n} {a} {c}");
                    let sum = big(&ctx.from_mont(&ctx.add(&am, &cm)));
                    assert_eq!(
                        sum,
                        modmath::add_mod(&(a % n), &(c % n), n),
                        "add {n} {a} {c}"
                    );
                    let diff = big(&ctx.from_mont(&ctx.sub(&am, &cm)));
                    assert_eq!(
                        modmath::add_mod(&diff, &(c % n), n),
                        a % n,
                        "sub {n} {a} {c}"
                    );
                }
            }
        }
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

    /// Runs the oracle at the dispatched storage and, at a fixed width, on
    /// the `Vec` fallback too.
    fn check_both_storages(n: &BigUint, bases: &[BigUint], exp: &BigUint) {
        let width = n.limbs().len();
        with_limbs(width, Oracle { n, bases, exp });
        if FIXED_WIDTHS.contains(&width) {
            Oracle { n, bases, exp }.visit::<Vec<u64>>(width);
        }
    }

    #[test]
    fn rejects_even_and_unit_moduli() {
        assert_eq!(
            Dyn::new(&BigUint::zero(), 1).err(),
            Some(MontgomeryError::EvenModulus)
        );
        assert_eq!(
            Dyn::new(&b(4096), 1).err(),
            Some(MontgomeryError::EvenModulus)
        );
        assert_eq!(
            Dyn::new(&BigUint::one(), 1).err(),
            Some(MontgomeryError::UnitModulus)
        );
        assert!(Dyn::new(&b(3), 1).is_ok());
        // The boundary checks the modulus fits the storage.
        let wide = odd_rnd(200, 1);
        assert_eq!(
            MontgomeryCtx::<[u64; 3]>::new(&wide, 3).err(),
            Some(MontgomeryError::TooWide { words: 4, width: 3 })
        );
        assert_eq!(
            Dyn::new(&wide, 3).err(),
            Some(MontgomeryError::TooWide { words: 4, width: 3 })
        );
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
            let ctx = dyn_ctx(&b(n | 1));
            let n0 = ctx.n[0];
            // n0 · n0_inv ≡ −1 (mod 2⁶⁴).
            assert_eq!(n0.wrapping_mul(ctx.n0_inv), u64::MAX, "n = {n}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for bits in [1usize, 31, 32, 33, 64, 65, 96, 160, 544] {
            let a = rnd(bits, 3);
            let s = a.limbs().len();
            for width in [s, s + 1] {
                let words: Vec<u64> = limbs_from_biguint(&a, width).unwrap();
                assert_eq!(words.len(), width);
                assert_eq!(from_words(&words), a, "bits {bits} width {width}");
            }
            if s <= 16 {
                let fixed: [u64; 16] = limbs_from_biguint(&a, 16).unwrap();
                assert_eq!(from_words(&fixed), a, "bits {bits} fixed");
            }
        }
        let zero: Vec<u64> = limbs_from_biguint(&BigUint::zero(), 2).unwrap();
        assert_eq!(zero, vec![0, 0]);
    }

    /// Moduli at the word edges: a top word half empty, one word below
    /// and above 2³², all-ones words and `2^(64k−1)+1`, at fixed and
    /// fallback widths.
    fn edge_moduli() -> Vec<BigUint> {
        let one = BigUint::one();
        let mut out = Vec::new();
        for bits in [96usize, 160, 224, 416, 544] {
            out.push(odd_rnd(bits, bits as u32));
        }
        out.extend([b(3), b(0xffff_fffb), b(4_000_000_007)]);
        out.extend([b(0x1_0000_000f), b(0x1234_5678_9abc_def1), b(u64::MAX - 58)]);
        for k in [1usize, 2, 3, 4, 6, 8, 16] {
            out.push(&(&one << (64 * k)) - &one);
            out.push(&(&one << (64 * k - 1)) + &one);
        }
        out
    }

    #[test]
    fn word_packing_edges_match_modmath() {
        for n in edge_moduli() {
            check_both_storages(&n, &edge_bases(&n), &rnd(96, 23));
        }
    }

    #[test]
    fn every_fixed_width_and_the_fallback_match_modmath() {
        // Each monomorphized width, the 2048-bit fallback, and fallback
        // widths between the fixed ones.
        for width in FIXED_WIDTHS.into_iter().chain([1, 2, 5, 7, 32]) {
            for seed in 0..3 {
                let n = odd_rnd(64 * width - seed as usize, 40 + seed);
                assert_eq!(n.limbs().len(), width);
                let mut bases = edge_bases(&n);
                bases.extend((0..3).map(|k| rnd(64 * width, 90 + k + seed)));
                // The oracle's cost grows with the exponent; 128 bits
                // covers every window shape.
                check_both_storages(&n, &bases, &rnd(128, 7 + seed));
            }
        }
    }

    #[test]
    fn storage_wider_than_the_modulus_matches_modmath() {
        // A 3-word factor in 4-word storage: the CRT halves of a key whose
        // factors differ in word count share the wider storage.
        for bits in [130usize, 190, 192] {
            let n = odd_rnd(bits, bits as u32);
            let bases = edge_bases(&n);
            let exp = rnd(80, 5);
            Oracle {
                n: &n,
                bases: &bases,
                exp: &exp,
            }
            .visit::<[u64; 4]>(4);
            Oracle {
                n: &n,
                bases: &bases,
                exp: &exp,
            }
            .visit::<Vec<u64>>(4);
        }
    }

    #[test]
    fn to_mont_be_reduces_inputs_of_any_length() {
        for bits in [64usize, 130, 256, 520] {
            let n = odd_rnd(bits, 3);
            let ctx = dyn_ctx(&n);
            let r = BigUint::one() << (64 * ctx.width());
            // From empty to more than three chunks, with a leading zero
            // byte on some lengths.
            for len in 0..(3 * 8 * ctx.width() + 5) {
                let mut bytes: Vec<u8> = (0..len)
                    .map(|i| (i as u8).wrapping_mul(151) ^ 0x5a)
                    .collect();
                if len % 5 == 0 {
                    if let Some(first) = bytes.first_mut() {
                        *first = 0;
                    }
                }
                let a = BigUint::from_bytes_be(&bytes);
                let am = ctx.to_mont_be(len, bytes.iter().copied());
                assert_eq!(
                    from_words(&am),
                    modmath::mul_mod(&a, &r, &n),
                    "{bits} bits, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn roundtrip_to_from_mont() {
        let n = odd_rnd(192, 11);
        with_limbs(
            3,
            Oracle {
                n: &n,
                bases: &[],
                exp: &BigUint::one(),
            },
        );
        let ctx = MontgomeryCtx::<[u64; 3]>::new(&n, 3).unwrap();
        for seed in 0..20 {
            let a = rnd(192, 100 + seed);
            let am = ctx.reduce(&a);
            assert_eq!(from_words(&ctx.from_mont(&am)), &a % &n, "seed {seed}");
            // Any stored value maps in, including a ≥ n.
            let words: [u64; 3] = limbs_from_biguint(&a, 3).unwrap();
            assert_eq!(ctx.to_mont(&words), am, "seed {seed}");
        }
    }

    #[test]
    fn mul_matches_mul_mod() {
        for bits in [64usize, 96, 192, 512] {
            let n = odd_rnd(bits, 7);
            let bases: Vec<BigUint> = (0..6).map(|seed| &rnd(bits, 31 + seed) % &n).collect();
            check_both_storages(&n, &bases, &b(3));
        }
    }

    #[test]
    fn pow_matches_pow_mod_random() {
        for bits in [64usize, 128, 384, 1024, 2048] {
            let n = odd_rnd(bits, 5);
            for seed in 0..4 {
                let base = rnd(bits, 1000 + seed);
                let exp = rnd(bits.min(256), 2000 + seed);
                with_limbs(
                    n.limbs().len(),
                    Oracle {
                        n: &n,
                        bases: &[base],
                        exp: &exp,
                    },
                );
            }
        }
    }

    #[test]
    fn pow_edge_cases() {
        let n = b(1_000_000_007);
        let ctx = dyn_ctx(&n);
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
        let ctx3 = dyn_ctx(&b(3));
        assert_eq!(ctx3.pow(&b(7), &BigUint::one()), b(1));
        // The fixed-width kernel agrees on the same cases.
        let fixed = MontgomeryCtx::<[u64; 3]>::new(&n, 3).unwrap();
        assert_eq!(fixed.pow(&b(5), &BigUint::zero()), BigUint::one());
        assert_eq!(fixed.pow(&n, &b(3)), BigUint::zero());
    }

    #[test]
    fn pow_fermat() {
        let p = b(1_000_000_007);
        let ctx = dyn_ctx(&p);
        for a in [2u64, 3, 65_537, 999_999_999] {
            assert_eq!(ctx.pow(&b(a), &(&p - &b(1))), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn window_schedule_reuse_is_consistent() {
        let n = odd_rnd(256, 3);
        let ctx = MontgomeryCtx::<[u64; 4]>::new(&n, 4).unwrap();
        let exp = b(65_537);
        let windows = ExpWindows::new(&exp);
        // e = 65537 reads only base¹: no odd-power table is built.
        assert_eq!(windows.table_len, 1);
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
        // branch of the window scanner and every table length.
        let n = odd_rnd(128, 9);
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            b(2),
            b(3),
            b(5),
            b(15),
            b(16),
            b(0b1000_0001),
            (BigUint::one() << 127usize) - &BigUint::one(),
            BigUint::one() << 127usize,
            b(0xdead_beef_cafe_babe),
        ];
        for exp in &exps {
            let bases: Vec<BigUint> = (0..3).map(|seed| rnd(128, 40 + seed)).collect();
            check_both_storages(&n, &bases, exp);
        }
    }

    #[test]
    fn pow_to_mont_stays_in_domain() {
        let p = b(1_000_000_007);
        let ctx = dyn_ctx(&p);
        let base = b(123_456);
        let exp = b(7919);
        let bm = ctx.reduce(&base);
        let rm = ctx.pow_to_mont(&bm, &ExpWindows::new(&exp));
        // Domain equality: the Montgomery words of the expected value.
        let expected = modmath::pow_mod(&base, &exp, &p);
        assert_eq!(rm, ctx.reduce(&expected));
        assert_eq!(from_words(&ctx.from_mont(&rm)), expected);
        assert_eq!(ctx.from_mont(&ctx.one()), vec![1]);
    }
}
