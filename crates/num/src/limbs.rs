//! The slice kernels, word storage for the Montgomery kernel, the one width
//! dispatch, and the byte boundary.
//!
//! Every width-dependent loop of the crate is a kernel here, over
//! little-endian `u64` words with `u128` products and carries: compare, add
//! and subtract in place, schoolbook rows and Karatsuba, shifts and
//! Knuth's Algorithm D. [`BigUint`], `modmath` and the Montgomery kernel
//! all call them, and a `BigUint`'s limbs are the same words, so
//! [`limbs_from_biguint`] is a slice copy plus a fit check.
//!
//! The kernel in [`crate::montgomery`] is written once, generic over a
//! [`Limbs`] storage parameter: `[u64; N]` for the widths the RSA substrate
//! uses (monomorphized, so every loop has a compile-time trip count and
//! every operand lives on the stack) and `Vec<u64>` for any other width.
//! [`with_limbs`] is the single place that maps a runtime width to a storage
//! type; callers hand it a [`LimbsVisitor`] and it runs the visitor's
//! generic body at the storage it picked.
//!
//! Bytes cross into and out of word storage only through the checked
//! conversions [`load_be`] and [`be_bytes_minimal`]. The loaders return
//! `None` when a value does not fit the storage instead of truncating it.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Widths (in 64-bit words) that get a monomorphized `[u64; N]` kernel:
/// the 192-, 256- and 512-bit CRT halves and the 384-, 512- and 1024-bit
/// moduli. Every other width runs the same kernel on `Vec<u64>`.
pub const FIXED_WIDTHS: [usize; 5] = [3, 4, 6, 8, 16];

/// Storage for one kernel operand: little-endian `u64` words.
///
/// Fixed arrays have the width of their type; `Vec<u64>` has the width it
/// was created with. Every operand of one kernel context has the same width.
/// (Bounds are spelled as `where` clauses because the unchecked-arithmetic
/// lint, which covers this file, reads a `+` between names as arithmetic.)
pub trait Limbs: 'static
where
    Self: Clone,
    Self: Eq,
    Self: fmt::Debug,
    Self: Send,
    Self: Sync,
{
    /// All-zero storage for a `width`-word operand. A fixed array ignores
    /// `width` beyond checking that it fits: its width is its length.
    fn zeroed(width: usize) -> Self;

    /// The words, least significant first.
    fn words(&self) -> &[u64];

    /// The words, least significant first, mutably.
    fn words_mut(&mut self) -> &mut [u64];
}

impl<const N: usize> Limbs for [u64; N] {
    #[inline]
    fn zeroed(width: usize) -> Self {
        debug_assert!(width <= N, "{width} words do not fit [u64; {N}]");
        [0; N]
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl Limbs for Vec<u64> {
    fn zeroed(width: usize) -> Self {
        vec![0; width]
    }

    fn words(&self) -> &[u64] {
        self
    }

    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// A computation generic over the kernel's storage; [`with_limbs`] runs it
/// at the storage type it picks for a width.
pub trait LimbsVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation with storage `L` for `width`-word operands.
    fn visit<L: Limbs>(self, width: usize) -> Self::Output;
}

/// The width dispatch: runs `visitor` on `[u64; width]` when `width` is one
/// of [`FIXED_WIDTHS`] and on `Vec<u64>` otherwise.
pub fn with_limbs<V: LimbsVisitor>(width: usize, visitor: V) -> V::Output {
    match width {
        3 => visitor.visit::<[u64; 3]>(width),
        4 => visitor.visit::<[u64; 4]>(width),
        6 => visitor.visit::<[u64; 6]>(width),
        8 => visitor.visit::<[u64; 8]>(width),
        16 => visitor.visit::<[u64; 16]>(width),
        _ => visitor.visit::<Vec<u64>>(width),
    }
}

/// Copies `a`'s words into `width`-word storage, or `None` when `a` does
/// not fit.
pub fn limbs_from_biguint<L: Limbs>(a: &BigUint, width: usize) -> Option<L> {
    let mut out = L::zeroed(width);
    out.words_mut().get_mut(..a.limbs().len())?.copy_from_slice(a.limbs());
    Some(out)
}

/// Loads the big-endian integer given as `len` bytes into `width`-word
/// storage, or `None` when its value does not fit. Leading zero bytes are
/// ignored, as in [`BigUint::from_bytes_be`], so an over-long encoding of a
/// small value still loads.
///
/// `bytes` must yield exactly `len` bytes, most significant first.
pub fn load_be<L: Limbs>(
    width: usize,
    len: usize,
    bytes: impl IntoIterator<Item = u8>,
) -> Option<L> {
    let mut out = L::zeroed(width);
    let words = out.words_mut();
    let mut pos = len;
    for b in bytes {
        debug_assert!(pos > 0, "more than {len} bytes");
        pos = pos.wrapping_sub(1);
        match words.get_mut(pos / 8) {
            Some(word) => *word |= u64::from(b).wrapping_shl(8 * (pos % 8) as u32),
            None if b == 0 => {}
            None => return None,
        }
    }
    debug_assert_eq!(pos, 0, "fewer than {len} bytes");
    Some(out)
}

/// Minimal big-endian bytes of the integer whose little-endian words are
/// the concatenation of `parts` (low part first): no leading zeros, and
/// zero is the empty vector — exactly what [`BigUint::to_bytes_be`] gives
/// for the same value. Allocates the output once, at its final size.
pub fn be_bytes_minimal(parts: &[&[u64]]) -> Vec<u8> {
    let mut high_first = parts
        .iter()
        .rev()
        .flat_map(|p| p.iter().rev().copied())
        .skip_while(|&w| w == 0);
    let Some(top) = high_first.next() else {
        return Vec::new();
    };
    let top_bytes = 8 - top.leading_zeros() as usize / 8;
    let mut out = Vec::with_capacity(top_bytes + 8 * high_first.clone().count());
    out.extend_from_slice(top.to_be_bytes().get(8 - top_bytes..).unwrap_or_default());
    for w in high_first {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out
}

/// `a·b + c` as a double-width value `(lo, hi)`, by schoolbook
/// multiplication into two operands of `a`'s width.
///
/// Cannot overflow: with `R = 2^(64·width)` and `a, b, c < R`,
/// `a·b + c ≤ (R − 1)² + R − 1 = R² − R`.
pub fn mul_add_wide<L: Limbs>(a: &L, b: &L, c: &L) -> (L, L) {
    let width = a.words().len();
    let mut lo = c.clone();
    let mut hi = L::zeroed(width);
    {
        let (a, b) = (a.words(), &b.words()[..width]);
        let (lo, hi) = (lo.words_mut(), &mut hi.words_mut()[..width]);
        for (i, &bi) in b.iter().enumerate() {
            // Row i adds a·b[i] into words i .. i + width − 1, which run
            // from the low half into the high one. Word i + width: no
            // earlier row reaches it (row i − 1 ends at word
            // i + width − 1), so the carry is its first write.
            hi[i] = mac_row(lo.iter_mut().skip(i).chain(hi.iter_mut()), a, bi);
        }
    }
    (lo, hi)
}

// ---------------------------------------------------------------------------
// Slice kernels: every width-dependent loop of `BigUint`, `modmath` and the
// Montgomery kernel. Words are little-endian `u64`; products and carries are
// `u128`. A *trimmed* slice has no zero top word (zero is empty).
// ---------------------------------------------------------------------------

/// Limb count of the shorter operand at and above which [`mul_into`]
/// splits by Karatsuba instead of running schoolbook rows. Correctness does
/// not depend on it (tests straddle it).
pub(crate) const KARATSUBA_THRESHOLD: usize = 32;

/// `w` without its zero top words.
pub(crate) fn trim(w: &[u64]) -> &[u64] {
    let n = w.iter().rposition(|&x| x != 0).map_or(0, |top| top + 1);
    &w[..n]
}

/// Compares two word slices of equal length, or two trimmed ones.
pub(crate) fn cmp_words(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

/// `a += b` for `a.len() >= b.len()`, carrying through the rest of `a`;
/// returns the carry out of `a`'s top word.
pub(crate) fn add_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let (low, high) = a.split_at_mut(b.len());
    let mut carry = false;
    for (x, &y) in low.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(carry as u64);
        *x = s;
        carry = c1 | c2;
    }
    for x in high {
        if !carry {
            break;
        }
        (*x, carry) = x.overflowing_add(1);
    }
    carry
}

/// `a -= b` for `a.len() >= b.len()`, borrowing through the rest of `a`;
/// returns the borrow out of `a`'s top word.
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let (low, high) = a.split_at_mut(b.len());
    let mut borrow = false;
    for (x, &y) in low.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 | b2;
    }
    for x in high {
        if !borrow {
            break;
        }
        (*x, borrow) = x.overflowing_sub(1);
    }
    borrow
}

/// `a + b` as a new vector one word longer than the longer operand.
pub(crate) fn add_words(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut sum = Vec::with_capacity(long.len() + 1);
    sum.extend_from_slice(long);
    sum.push(0);
    add_in_place(&mut sum, short);
    sum
}

/// One schoolbook row: adds `a·b` into the first `a.len()` words of `acc`
/// and returns the carry word out of them.
#[inline]
pub(crate) fn mac_row<'a>(acc: impl IntoIterator<Item = &'a mut u64>, a: &[u64], b: u64) -> u64 {
    let b = b as u128;
    let mut carry: u64 = 0;
    for (slot, &aj) in acc.into_iter().zip(a) {
        // (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸−1: the three-term sum fits u128.
        let sum = *slot as u128 + aj as u128 * b + carry as u128;
        *slot = sum as u64;
        carry = (sum >> 64) as u64;
    }
    carry
}

/// `out = a·b` by schoolbook rows, with no allocation. `out` must be zero
/// and at least `a.len() + b.len()` words long.
pub(crate) fn mul_schoolbook(out: &mut [u64], a: &[u64], b: &[u64]) {
    if a.is_empty() {
        return; // an empty operand is zero: no rows, whatever `out`'s length
    }
    for (i, &bi) in b.iter().enumerate() {
        if bi != 0 {
            // Row i ends at word i + a.len(), which no earlier row reaches.
            out[i + a.len()] = mac_row(&mut out[i..], a, bi);
        }
    }
}

/// `out = a·b`: Karatsuba while the shorter operand has at least
/// [`KARATSUBA_THRESHOLD`] words, schoolbook below. `out` must be zero and
/// at least `a.len() + b.len()` words long.
pub(crate) fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(out, a, b);
    }
    let half = a.len().max(b.len()) / 2;
    // A low half can end in zero words; high halves keep the operand's
    // non-zero top word.
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));
    let (a0, b0) = (trim(a0), trim(b0));
    // z0 = a0·b0 fills the low 2·half words, z2 = a1·b1 the ones above.
    let (lo, hi) = out.split_at_mut(2 * half);
    mul_into(lo, a0, b0);
    mul_into(hi, a1, b1);
    // z1 = (a0 + a1)(b0 + b1) − z0 − z2 ≥ 0 enters at word `half`.
    let (sa, sb) = (add_words(a0, a1), add_words(b0, b1));
    let mut z1 = vec![0; sa.len() + sb.len()];
    mul_into(&mut z1, trim(&sa), trim(&sb));
    let borrow = sub_in_place(&mut z1, trim(lo)) | sub_in_place(&mut z1, trim(hi));
    debug_assert!(!borrow, "karatsuba middle term is non-negative");
    let carry = add_in_place(&mut out[half..], trim(&z1));
    debug_assert!(!carry, "a·b fits a.len() + b.len() words");
}

/// Multiplies `w` by `2^sh` (`sh < 64`) in place; the top word's high `sh`
/// bits must be zero.
pub(crate) fn shl_in_place(w: &mut [u64], sh: u32) {
    for i in (0..w.len()).rev() {
        let below = i.checked_sub(1).map_or(0, |j| w[j]);
        let pair = (w[i] as u128) << 64 | below as u128;
        w[i] = (pair >> (64 - sh)) as u64;
    }
}

/// Divides `w` by `2^sh` (`sh < 64`) in place, discarding the low bits.
pub(crate) fn shr_in_place(w: &mut [u64], sh: u32) {
    for i in 0..w.len() {
        let above = w.get(i + 1).copied().unwrap_or(0);
        let pair = (above as u128) << 64 | w[i] as u128;
        w[i] = (pair >> sh) as u64;
    }
}

/// Divides `u` by the single word `d > 0` in place (the quotient replaces
/// `u`) and returns the remainder.
pub(crate) fn div_rem_1(u: &mut [u64], d: u64) -> u64 {
    let d = d as u128;
    let mut rem: u128 = 0;
    for w in u.iter_mut().rev() {
        let cur = rem << 64 | *w as u128;
        *w = (cur / d) as u64;
        rem = cur % d;
    }
    rem as u64
}

/// Reduces `u` modulo the trimmed, non-zero `v` in place: on return `u`
/// holds the trimmed remainder. The quotient is written to `q` when given
/// (zero, and at least `u.len() + 1 − v.len()` words long for `u ≥ v`); a
/// remainder-only caller passes `None`. `vs` is scratch for the normalized
/// divisor, so a caller that keeps `u` and `vs` across calls divides with
/// no allocation once they have grown.
pub(crate) fn div_rem_in_place(
    u: &mut Vec<u64>,
    v: &[u64],
    vs: &mut Vec<u64>,
    q: Option<&mut [u64]>,
) {
    u.truncate(trim(u).len());
    if cmp_words(u, v) == Ordering::Less {
        return;
    }
    if let [d] = *v {
        let r = div_rem_1(u, d);
        if let Some(q) = q {
            q[..u.len()].copy_from_slice(u);
        }
        u.clear();
        u.extend((r != 0).then_some(r));
        return;
    }
    // Normalize so the divisor's top word has its high bit set; the
    // dividend gains the extra top word Algorithm D works in.
    let sh = v[v.len() - 1].leading_zeros();
    vs.clear();
    vs.extend_from_slice(v);
    shl_in_place(vs, sh);
    u.push(0);
    shl_in_place(u, sh);
    knuth_d_core(u, vs, q);
    u.truncate(v.len());
    shr_in_place(u, sh);
    u.truncate(trim(u).len());
}

/// Knuth TAOCP vol. 2, Algorithm 4.3.1 D over pre-normalized buffers.
///
/// `vs` is the shifted divisor (top bit of its last word set, at least two
/// words); `us` is the shifted dividend with one extra high word
/// (`us.len() >= vs.len() + 1`). On return `us[..vs.len()]` holds the still
/// shifted remainder. Quotient words are written to `q_out` when provided.
fn knuth_d_core(us: &mut [u64], vs: &[u64], mut q_out: Option<&mut [u64]>) {
    let n = vs.len();
    let m = us.len() - 1 - n;
    let vn1 = vs[n - 1] as u128;
    let vn2 = vs[n - 2] as u128;

    for j in (0..=m).rev() {
        // Estimate q̂ = (u[j+n]·B + u[j+n-1]) / v[n-1], then correct; the
        // loop leaves q̂ < B = 2⁶⁴. `||` evaluates the product only once
        // q̂ < B, and rhat < B on every test, so both sides fit u128.
        let top = (us[j + n] as u128) << 64 | us[j + n - 1] as u128;
        let mut qhat = top / vn1;
        let mut rhat = top % vn1;
        while qhat >> 64 != 0 || qhat * vn2 > (rhat << 64 | us[j + n - 2] as u128) {
            qhat -= 1;
            // dls-lint: allow(unchecked-arith) -- rhat < vn1 < 2^64, so rhat + vn1 < 2^65 fits u128
            rhat += vn1;
            if rhat >> 64 != 0 {
                break;
            }
        }

        // Multiply-subtract: u[j..=j+n] -= q̂ · v.
        let mut borrow = false;
        let mut carry: u64 = 0;
        for (slot, &vi) in us[j..j + n].iter_mut().zip(vs) {
            // q̂·v[i] + carry ≤ (2⁶⁴−1)² + 2⁶⁴−1 < 2¹²⁸.
            let p = qhat * vi as u128 + carry as u128;
            carry = (p >> 64) as u64;
            let (d, b1) = slot.overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *slot = d;
            borrow = b1 | b2;
        }
        let (d, b1) = us[j + n].overflowing_sub(carry);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        us[j + n] = d;
        if b1 | b2 {
            // q̂ was one too large: add v back; the carry out cancels the
            // wrap of the top word.
            qhat -= 1;
            let carry = add_in_place(&mut us[j..j + n], vs);
            us[j + n] = us[j + n].wrapping_add(carry as u64);
        }
        if let Some(q) = q_out.as_deref_mut() {
            q[j] = qhat as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_words(w: &[u64]) -> BigUint {
        BigUint::from_limbs_le(w.to_vec())
    }

    fn rnd_words(width: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..width)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    #[test]
    fn mul_add_wide_matches_biguint() {
        for width in [1usize, 3, 4, 5, 8] {
            // All-ones operands give the largest possible result.
            let ones = vec![u64::MAX; width];
            let mut cases = vec![(ones.clone(), ones.clone(), ones)];
            cases.extend((1..6u64).map(|seed| {
                let w = |k| rnd_words(width, seed + k);
                (w(0), w(100), w(200))
            }));
            for (a, b, c) in cases {
                let (lo, hi) = mul_add_wide(&a, &b, &c);
                let expected = &(&from_words(&a) * &from_words(&b)) + &from_words(&c);
                assert_eq!(from_words(&[lo, hi].concat()), expected, "width {width}");
            }
        }
    }

    #[test]
    fn byte_boundary_matches_biguint() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 64] {
            let bytes: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(1))
                .collect();
            let big = BigUint::from_bytes_be(&bytes);
            let width = len.div_ceil(8).max(1);
            let words: Vec<u64> = load_be(width, len, bytes.iter().copied()).unwrap();
            assert_eq!(from_words(&words), big, "len {len}");
            assert_eq!(be_bytes_minimal(&[&words]), big.to_bytes_be(), "len {len}");
            // Split across two parts, and with zero words on top.
            let (a, b) = words.split_at(width / 2);
            assert_eq!(be_bytes_minimal(&[a, b, &[0, 0]]), big.to_bytes_be());
            // Leading zero bytes load; a value wider than the storage
            // does not.
            let mut padded = vec![0u8; 20];
            padded.extend_from_slice(&bytes);
            let reloaded: Option<Vec<u64>> = load_be(width, padded.len(), padded.iter().copied());
            assert_eq!(reloaded, Some(words.clone()));
            if len > 0 {
                let mut wide = vec![1u8];
                wide.extend(std::iter::repeat_n(0, 8 * width));
                let too_wide: Option<Vec<u64>> = load_be(width, wide.len(), wide.iter().copied());
                assert_eq!(too_wide, None, "len {len}");
            }
        }
        assert!(be_bytes_minimal(&[&[0, 0]]).is_empty());
    }

    #[test]
    fn biguint_boundary_checks_fit() {
        let v = BigUint::from_hex_str("1234567890abcdef1122334455").unwrap();
        assert_eq!(v.limbs().len(), 2);
        let w: [u64; 3] = limbs_from_biguint(&v, 3).unwrap();
        assert_eq!(from_words(&w), v);
        assert_eq!(limbs_from_biguint::<[u64; 1]>(&v, 1), None);
        assert_eq!(limbs_from_biguint::<Vec<u64>>(&v, 1), None);
        assert_eq!(
            limbs_from_biguint::<Vec<u64>>(&BigUint::zero(), 2),
            Some(vec![0, 0])
        );
    }

    struct Width;
    impl LimbsVisitor for Width {
        type Output = (usize, bool);
        fn visit<L: Limbs>(self, width: usize) -> (usize, bool) {
            let fixed = std::any::TypeId::of::<L>() != std::any::TypeId::of::<Vec<u64>>();
            (L::zeroed(width).words().len(), fixed)
        }
    }

    #[test]
    fn dispatch_picks_fixed_storage_exactly_at_the_fixed_widths() {
        for width in 1..=33 {
            let (len, fixed) = with_limbs(width, Width);
            assert_eq!(len, width);
            assert_eq!(fixed, FIXED_WIDTHS.contains(&width), "width {width}");
        }
    }
}
