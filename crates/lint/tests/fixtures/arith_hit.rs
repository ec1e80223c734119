//! Unchecked-arith-pass positive fixture: every bare operator form fires
//! once, and each exemption class is exercised and stays quiet.

const LIMB_MASK: u64 = 0xffff_ffff;

pub fn bare(a: u64, b: u64, c1: u64, c2: u64, tbl: &[u64], i: usize, j: usize) -> u64 {
    let s = a + b;
    let d = s - b;
    let p = d * b;
    let q = p << b;
    let mut acc = q;
    acc += p;
    acc -= d;
    acc *= s;
    acc <<= b;

    // Exempt: discipline evidence on the line.
    let w = a.wrapping_add(b);
    let c = a.checked_mul(b);
    let wide = (c1 as u128 * c2 as u128 >> 64) as u64;
    // Exempt: literal or named-constant operand.
    let step = w + 1;
    let masked = LIMB_MASK * step;
    // Exempt: index expressions are bounds-checked usize bookkeeping.
    let cell = tbl[i + j];
    let _ = c;
    acc ^ masked ^ wide ^ cell
}
