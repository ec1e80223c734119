//! Unchecked-arith-pass limb-width fixture: `as u64` widens a `u32` limb
//! but not a `u64` word, so the same line is exempt in a `u32`-limb file
//! and flagged in the `u64`-word Montgomery kernel; `as u128` exempts in
//! both.

pub fn word_step(a: &[u64], t: &[u64], j: usize) -> (u64, u128) {
    let narrow = a[j] as u64 + t[j];
    let wide = a[j] as u128 * t[j] as u128;
    (narrow, wide)
}
