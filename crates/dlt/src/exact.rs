//! Exact-rational DLT solvers.
//!
//! Mirrors [`crate::optimal`] over [`Rational`] so optimality properties can
//! be asserted with **zero tolerance**: the fractions sum to exactly 1 and
//! the finishing times are exactly equal. Tests use this to certify the
//! floating-point solver.

use crate::chain::ChainState;
use crate::model::SystemModel;
use dls_num::Rational;

/// Exact bus parameters (see [`crate::BusParams`] for the f64 twin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactParams {
    /// Communication rate (time per unit load on the bus), `>= 0`.
    pub z: Rational,
    /// Processing rates, each `> 0`.
    pub w: Vec<Rational>,
}

impl ExactParams {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics on empty `w`, negative `z`, or non-positive rates — exact
    /// parameters are built programmatically in tests, where a panic is the
    /// right failure mode.
    pub fn new(z: Rational, w: Vec<Rational>) -> Self {
        assert!(!w.is_empty(), "at least one processor required");
        assert!(!z.is_negative(), "negative communication rate");
        assert!(w.iter().all(|r| r.is_positive()), "non-positive rate");
        ExactParams { z, w }
    }

    /// Exact parameters from f64 values (each f64 converts exactly).
    ///
    /// # Panics
    /// Panics if any value is NaN/infinite or violates the sign constraints.
    // dls-lint: allow(no-float-in-exact) -- conversion boundary: floats enter the exact domain here, losslessly
    pub fn from_f64(z: f64, w: &[f64]) -> Self {
        ExactParams::new(
            Rational::from_f64(z).expect("finite z"),
            w.iter()
                .map(|&x| Rational::from_f64(x).expect("finite w"))
                .collect(),
        )
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.w.len()
    }
}

/// Exact optimal fractions (Algorithms 2.1/2.2 over rationals, through the
/// chain kernel).
pub fn fractions(model: SystemModel, params: &ExactParams) -> Vec<Rational> {
    let mut alpha = Vec::with_capacity(params.m());
    ChainState::fractions_of(model, params, &mut alpha);
    alpha
}

/// Exact finishing times for an arbitrary allocation: the generic Eqs. 1–3
/// (see [`crate::finish_times`]) over [`Rational`].
pub use crate::model::finish_times;

/// Exact optimal makespan.
pub fn optimal_makespan(model: SystemModel, params: &ExactParams) -> Rational {
    let alpha = fractions(model, params);
    finish_times(model, params, &alpha)
        .into_iter()
        .max()
        .expect("at least one processor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ALL_MODELS;
    use crate::optimal;
    use crate::BusParams;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn sample() -> ExactParams {
        ExactParams::new(rat(1, 4), vec![rat(1, 1), rat(2, 1), rat(3, 1), rat(5, 2)])
    }

    #[test]
    fn fractions_sum_exactly_one() {
        let p = sample();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            let sum = a.iter().fold(Rational::zero(), |acc, x| &acc + x);
            assert_eq!(sum, Rational::one(), "{model}");
        }
    }

    #[test]
    fn finish_times_exactly_equal() {
        let p = sample();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            let t = finish_times(model, &p, &a);
            for time in &t {
                assert_eq!(time, &t[0], "{model}");
            }
        }
    }

    #[test]
    fn ncp_fe_known_exact_solution() {
        // z=1, w=(2,3): α = (2/3, 1/3), makespan 4/3.
        let p = ExactParams::new(rat(1, 1), vec![rat(2, 1), rat(3, 1)]);
        let a = fractions(SystemModel::NcpFe, &p);
        assert_eq!(a, vec![rat(2, 3), rat(1, 3)]);
        assert_eq!(optimal_makespan(SystemModel::NcpFe, &p), rat(4, 3));
    }

    #[test]
    fn ncp_nfe_known_exact_solution() {
        // z=1, w=(2,3): α = (3/5, 2/5), makespan 9/5.
        let p = ExactParams::new(rat(1, 1), vec![rat(2, 1), rat(3, 1)]);
        let a = fractions(SystemModel::NcpNfe, &p);
        assert_eq!(a, vec![rat(3, 5), rat(2, 5)]);
        assert_eq!(optimal_makespan(SystemModel::NcpNfe, &p), rat(9, 5));
    }

    #[test]
    fn cp_three_processor_exact() {
        // z=1, w=(1,1,1): k=1/2 → u=(1,1/2,1/4), α=(4/7,2/7,1/7).
        let p = ExactParams::new(rat(1, 1), vec![rat(1, 1); 3]);
        let a = fractions(SystemModel::Cp, &p);
        assert_eq!(a, vec![rat(4, 7), rat(2, 7), rat(1, 7)]);
        // T_1 = z·4/7 + 4/7 = 8/7.
        assert_eq!(optimal_makespan(SystemModel::Cp, &p), rat(8, 7));
    }

    #[test]
    fn f64_solver_certified_by_exact() {
        let z = 0.375; // exactly representable
        let w = [1.5, 2.25, 0.75, 3.0, 1.125];
        let fp = BusParams::new(z, w.to_vec()).unwrap();
        let ep = ExactParams::from_f64(z, &w);
        for model in ALL_MODELS {
            let af = optimal::fractions(model, &fp);
            let ae = fractions(model, &ep);
            for (f, e) in af.iter().zip(&ae) {
                assert!(
                    (f - e.to_f64()).abs() < 1e-14,
                    "{model}: {f} vs {}",
                    e.to_f64()
                );
            }
            let mf = optimal::optimal_makespan(model, &fp);
            let me = optimal_makespan(model, &ep);
            assert!((mf - me.to_f64()).abs() < 1e-14, "{model}");
        }
    }

    #[test]
    fn single_processor() {
        let p = ExactParams::new(rat(1, 2), vec![rat(3, 1)]);
        for model in ALL_MODELS {
            assert_eq!(fractions(model, &p), vec![Rational::one()], "{model}");
        }
        assert_eq!(optimal_makespan(SystemModel::Cp, &p), rat(7, 2));
        assert_eq!(optimal_makespan(SystemModel::NcpNfe, &p), rat(3, 1));
    }

    #[test]
    #[should_panic(expected = "non-positive rate")]
    fn rejects_zero_rate() {
        let _ = ExactParams::new(rat(1, 2), vec![Rational::zero()]);
    }
}
