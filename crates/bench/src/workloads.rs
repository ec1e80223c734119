//! Deterministic workload generators shared by benches and the experiment
//! harness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heterogeneous processor rates: `m` rates log-uniform in `[lo, hi)`,
/// deterministic in `seed`.
pub fn heterogeneous_rates(m: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let u: f64 = rng.gen();
            lo * (hi / lo).powf(u)
        })
        .collect()
}

/// The fixed 5-processor scenario used to regenerate Figures 1-3.
pub fn figure_scenario() -> (f64, Vec<f64>) {
    (0.2, vec![1.0, 1.5, 2.0, 2.5, 3.0])
}

/// Heterogeneous rates quantized to multiples of `1/denom`, log-uniform in
/// `[lo, hi)` like [`heterogeneous_rates`] but driven by an in-crate
/// splitmix64 generator instead of `rand`.
///
/// Two reasons for the independent generator: exact pipelines want dyadic
/// rates (`k/denom` with `denom` a power of two converts to [`Rational`]
/// without denominator blow-up), and `rand`'s `StdRng` is documented as
/// unstable across versions — a benchmark workload that silently changes
/// when a dependency bumps would invalidate every recorded baseline. The
/// splitmix64 sequence below is frozen by the unit tests.
///
/// [`Rational`]: dls_num::Rational
pub fn quantized_rates(m: usize, lo: f64, hi: f64, seed: u64, denom: u32) -> Vec<f64> {
    assert!(denom > 0, "denominator must be positive");
    let mut state = seed;
    (0..m)
        .map(|_| {
            let u = splitmix64(&mut state) as f64 / (u64::MAX as f64 + 1.0);
            let w = lo * (hi / lo).powf(u);
            ((w * denom as f64).round()).max(1.0) / denom as f64
        })
        .collect()
}

/// splitmix64 step (Steele, Lea & Flood 2014): the standard 64-bit mixer,
/// stable by construction — no dependency can change it. Public so the
/// bid-update gates in the integration tests draw their update positions
/// from the same frozen stream as the rates.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_in_range_and_deterministic() {
        let a = heterogeneous_rates(32, 1.0, 8.0, 9);
        let b = heterogeneous_rates(32, 1.0, 8.0, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&w| (1.0..8.0).contains(&w)));
    }

    #[test]
    fn quantized_rates_are_dyadic_and_frozen() {
        let a = quantized_rates(256, 1.0, 8.0, 42, 64);
        assert_eq!(a, quantized_rates(256, 1.0, 8.0, 42, 64));
        for &w in &a {
            assert!(w >= 1.0 / 64.0 && w <= 8.5, "rate out of range: {w}");
            let scaled = w * 64.0;
            assert_eq!(scaled, scaled.round(), "not a multiple of 1/64: {w}");
        }
        // Freeze the generator: if splitmix64 or the mapping ever changes,
        // recorded baselines are invalidated and this fails loudly.
        let first = quantized_rates(4, 1.0, 8.0, 42, 64);
        assert_eq!(first, vec![4.671875, 1.390625, 1.78125, 2.046875]);
    }
}
