//! O(m) leave-one-out makespans — the DLS-BL bonus terms
//! `T(α(b_{-i}), b_{-i})` — from one [`ChainState`] whose suffix sums are
//! built at construction (the splice is derived in [`crate::chain`]). The
//! naive re-solves stay as oracles: [`crate::optimal::makespan_without_naive`]
//! and `dls-mechanism::exact::compute_payments_exact_naive`.

use crate::chain::{ChainState, Scalar};
use crate::model::SystemModel;
use std::ops::{Add, Div, Mul};

/// A chain with its suffix sums built at construction, answering every
/// leave-one-out query in O(1) through `&self`. Rates that form no market
/// (empty, or invalid) answer `None` everywhere.
#[derive(Debug, Clone)]
pub struct LeaveOneOut<T: Scalar>(Option<ChainState<T>>);

impl<T: Scalar> LeaveOneOut<T>
where
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T> + Div<&'a T, Output = T>,
{
    /// Builds the chain and its suffix sums in O(m).
    pub fn new(model: SystemModel, z: T, w: Vec<T>) -> Self {
        LeaveOneOut(T::params(z, w).map(|params| {
            let mut chain = ChainState::from_params(model, params);
            chain.ensure_suffix();
            chain
        }))
    }

    /// Optimal makespan of the *full* market; `None` on an empty market.
    pub fn optimal_makespan(&self) -> Option<T> {
        self.0.as_ref().map(ChainState::optimal_makespan)
    }

    /// Optimal makespan of the market with processor `i` removed, in O(1).
    ///
    /// Returns `None` when `i` is out of range or when no reduced market
    /// exists (`m ≤ 1`), matching [`crate::optimal::makespan_without`].
    pub fn makespan_without(&self, i: usize) -> Option<T> {
        self.0.as_ref()?.without(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BusParams, ALL_MODELS};
    use crate::optimal;
    use dls_num::Rational;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn matches_naive_f64_all_models() {
        let z = 0.3;
        let w = vec![1.0, 2.5, 0.8, 3.2, 1.7, 2.2];
        let p = BusParams::new(z, w.clone()).unwrap();
        for model in ALL_MODELS {
            let loo = LeaveOneOut::new(model, z, w.clone());
            for i in 0..w.len() {
                let fast = loo.makespan_without(i).unwrap();
                let naive = optimal::makespan_without_naive(model, &p, i).unwrap();
                assert!(
                    (fast - naive).abs() <= 1e-12 * naive.abs(),
                    "{model} i={i}: {fast} vs {naive}"
                );
            }
        }
    }

    #[test]
    fn exact_two_processor_cases() {
        // z=1, w=(2,3). Removing either leaves a solo processor.
        for model in ALL_MODELS {
            let loo = LeaveOneOut::new(model, rat(1, 1), vec![rat(2, 1), rat(3, 1)]);
            let t0 = loo.makespan_without(0).unwrap();
            let t1 = loo.makespan_without(1).unwrap();
            match model {
                SystemModel::Cp => {
                    assert_eq!(t0, rat(4, 1));
                    assert_eq!(t1, rat(3, 1));
                }
                SystemModel::NcpFe | SystemModel::NcpNfe => {
                    assert_eq!(t0, rat(3, 1));
                    assert_eq!(t1, rat(2, 1));
                }
            }
        }
    }

    #[test]
    fn exact_matches_full_resolve_three_processors() {
        use crate::exact::{self, ExactParams};
        let z = rat(1, 4);
        let w = vec![rat(1, 1), rat(2, 1), rat(3, 1)];
        for model in ALL_MODELS {
            let loo = LeaveOneOut::new(model, z.clone(), w.clone());
            for i in 0..3 {
                let mut reduced = w.clone();
                reduced.remove(i);
                let rp = ExactParams::new(z.clone(), reduced);
                let naive = exact::optimal_makespan(model, &rp);
                assert_eq!(loo.makespan_without(i).unwrap(), naive, "{model} i={i}");
            }
        }
    }

    #[test]
    fn degenerate_markets() {
        for model in ALL_MODELS {
            let empty: LeaveOneOut<f64> = LeaveOneOut::new(model, 0.2, vec![]);
            assert!(empty.optimal_makespan().is_none());
            assert!(empty.makespan_without(0).is_none());

            let single = LeaveOneOut::new(model, 0.2, vec![2.0]);
            assert_eq!(single.makespan_without(0), None, "{model}");
            assert!(single.makespan_without(1).is_none());

            let pair = LeaveOneOut::new(model, 0.2, vec![2.0, 3.0]);
            assert!(pair.makespan_without(2).is_none());
        }
    }

    #[test]
    fn full_makespan_matches_optimal() {
        let z = 0.15;
        let w = vec![1.0, 2.0, 1.5, 3.0];
        let p = BusParams::new(z, w.clone()).unwrap();
        for model in ALL_MODELS {
            let loo = LeaveOneOut::new(model, z, w.clone());
            let fast = loo.optimal_makespan().unwrap();
            let naive = optimal::optimal_makespan(model, &p);
            assert!((fast - naive).abs() < 1e-12, "{model}: {fast} vs {naive}");
        }
        for model in ALL_MODELS {
            let single = LeaveOneOut::new(model, 0.5, vec![3.0]);
            let expected = if model == SystemModel::Cp { 3.5 } else { 3.0 };
            assert_eq!(single.optimal_makespan(), Some(expected), "{model}");
        }
    }
}
