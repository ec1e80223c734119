//! Word storage for the Montgomery kernel, the one width dispatch, and the
//! byte/limb boundary.
//!
//! The kernel in [`crate::montgomery`] is written once, generic over a
//! [`Limbs`] storage parameter: `[u64; N]` for the widths the RSA substrate
//! uses (monomorphized, so every loop has a compile-time trip count and
//! every operand lives on the stack) and `Vec<u64>` for any other width.
//! [`with_limbs`] is the single place that maps a runtime width to a storage
//! type; callers hand it a [`LimbsVisitor`] and it runs the visitor's
//! generic body at the storage it picked.
//!
//! Values cross into and out of word storage only through the checked
//! conversions here: [`limbs_from_biguint`] / [`biguint_from_limbs`] at the
//! `BigUint` boundary (two `u32` limbs per word) and [`load_be`] /
//! [`be_bytes_minimal`] at the byte boundary. The loaders return `None`
//! when a value does not fit the storage instead of truncating it.

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

/// Number of 64-bit words `a` occupies (`0` for zero).
pub fn words_for(a: &BigUint) -> usize {
    a.limbs().len().div_ceil(2)
}

/// Packs `a`'s `u32` limbs two per word into `width`-word storage, or
/// `None` when `a` does not fit.
pub fn limbs_from_biguint<L: Limbs>(a: &BigUint, width: usize) -> Option<L> {
    let mut out = L::zeroed(width);
    let words = out.words_mut();
    if words_for(a) > words.len() {
        return None;
    }
    for (word, pair) in words.iter_mut().zip(a.limbs().chunks(2)) {
        let lo = pair.first().copied().unwrap_or(0);
        let hi = pair.get(1).copied().unwrap_or(0);
        *word = (hi as u64) << 32 | lo as u64;
    }
    Some(out)
}

/// The integer held in little-endian `words`; the inverse of
/// [`limbs_from_biguint`].
pub fn biguint_from_limbs(words: &[u64]) -> BigUint {
    let limbs = words
        .iter()
        .flat_map(|&w| [w as u32, (w >> 32) as u32])
        .collect();
    BigUint::from_limbs_le(limbs)
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

/// Compares two equal-width little-endian word slices.
pub(crate) fn cmp_words(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
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
            // from the low half into the high one.
            let bi = bi as u128;
            let mut carry: u64 = 0;
            let row = lo.iter_mut().skip(i).chain(hi.iter_mut());
            for (slot, &aj) in row.zip(a) {
                // (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸−1: the three-term sum fits u128.
                let sum = *slot as u128 + aj as u128 * bi + carry as u128;
                *slot = sum as u64;
                carry = (sum >> 64) as u64;
            }
            // Word i + width: no earlier row reaches it (row i − 1 ends at
            // word i + width − 1), so the carry is its first write.
            hi[i] = carry;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

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
                let big = |w: &[u64]| biguint_from_limbs(w);
                let expected = &(&big(&a) * &big(&b)) + &big(&c);
                assert_eq!(
                    biguint_from_limbs(&[lo, hi].concat()),
                    expected,
                    "width {width}"
                );
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
            assert_eq!(biguint_from_limbs(&words), big, "len {len}");
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
        assert_eq!(words_for(&v), 2);
        let w: [u64; 3] = limbs_from_biguint(&v, 3).unwrap();
        assert_eq!(biguint_from_limbs(&w), v);
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
