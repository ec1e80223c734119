//! Unchecked-arith-pass limb-width fixture: every scoped file computes in
//! `u64` limbs, so `as u64` widens nothing and the sum on line 7 is
//! flagged in each of them, while `as u128` exempts the product on the
//! line below it.

pub fn word_step(a: &[u64], t: &[u64], j: usize) -> (u64, u128) {
    let narrow = a[j] as u64 + t[j];
    let wide = a[j] as u128 * t[j] as u128;
    (narrow, wide)
}
