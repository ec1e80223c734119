//! Exact-rational DLS-BL payments — certifies the f64 payment computation
//! the same way `dls-dlt::exact` certifies the allocation solver.
//!
//! Payment disputes are adjudicated numerically (the referee compares
//! vectors within a tolerance); this module bounds the legitimate numeric
//! disagreement by computing `C_i` and `B_i` over [`Rational`]s, where the
//! compensation-cancels-valuation identity `U_i = B_i` holds *exactly*.
//!
//! The default solver ([`compute_payments_exact`]) is O(m) rational
//! operations for the whole vector via the shared chain-splice state
//! ([`LeaveOneOut`]); [`compute_payments_exact_naive`] keeps the Θ(m²)
//! per-agent re-solve as the differential-test oracle.

use dls_dlt::exact::{self, ExactParams};
use dls_dlt::loo::LeaveOneOut;
use dls_dlt::SystemModel;
use dls_num::Rational;
use std::fmt;

/// One exact payment entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactPayment {
    /// Compensation `C_i = α_i·w̃_i`.
    pub compensation: Rational,
    /// Bonus `B_i = T(α(b_{-i}), b_{-i}) − T(α(b), (b_{-i}, w̃_i))`.
    pub bonus: Rational,
}

impl ExactPayment {
    /// Total payment `Q_i`.
    pub fn total(&self) -> Rational {
        &self.compensation + &self.bonus
    }
}

/// Hostile or malformed input to the exact payment solvers.
///
/// Mirrors the bid-receipt validation story of the protocol layer: a peer
/// that feeds the payment phase garbage gets a typed rejection, never a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactPaymentError {
    /// No agents at all.
    EmptyMarket,
    /// `bids` and `observed` have different lengths.
    LengthMismatch {
        /// Number of bids supplied.
        bids: usize,
        /// Number of observed rates supplied.
        observed: usize,
    },
    /// The communication rate `z` is negative.
    NegativeCommRate,
    /// A bid is zero or negative.
    NonPositiveBid {
        /// Offending agent (0-based).
        index: usize,
    },
    /// An observed execution rate is zero or negative.
    NonPositiveObserved {
        /// Offending agent (0-based).
        index: usize,
    },
}

impl fmt::Display for ExactPaymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactPaymentError::EmptyMarket => write!(f, "empty market"),
            ExactPaymentError::LengthMismatch { bids, observed } => {
                write!(f, "{bids} bids but {observed} observed rates")
            }
            ExactPaymentError::NegativeCommRate => {
                write!(f, "negative communication rate")
            }
            ExactPaymentError::NonPositiveBid { index } => {
                write!(f, "agent {index}: non-positive bid")
            }
            ExactPaymentError::NonPositiveObserved { index } => {
                write!(f, "agent {index}: non-positive observed rate")
            }
        }
    }
}

impl std::error::Error for ExactPaymentError {}

/// Largest of a set of finishing times; `None` on an empty market.
fn max_time(times: Vec<Rational>) -> Option<Rational> {
    times.into_iter().max()
}

fn validate(
    z: &Rational,
    bids: &[Rational],
    observed: &[Rational],
) -> Result<(), ExactPaymentError> {
    if bids.is_empty() {
        return Err(ExactPaymentError::EmptyMarket);
    }
    if observed.len() != bids.len() {
        return Err(ExactPaymentError::LengthMismatch {
            bids: bids.len(),
            observed: observed.len(),
        });
    }
    if z.is_negative() {
        return Err(ExactPaymentError::NegativeCommRate);
    }
    for (index, b) in bids.iter().enumerate() {
        if !b.is_positive() {
            return Err(ExactPaymentError::NonPositiveBid { index });
        }
    }
    for (index, o) in observed.iter().enumerate() {
        if !o.is_positive() {
            return Err(ExactPaymentError::NonPositiveObserved { index });
        }
    }
    Ok(())
}

/// Shared O(m) precomputation behind the fast path.
struct Solved {
    loo: LeaveOneOut<Rational>,
    alloc: Vec<Rational>,
    /// Finish times of the all-bids schedule under `alloc`.
    base: Vec<Rational>,
    /// `prefix_max[i] = max(base[..=i])`.
    prefix_max: Vec<Rational>,
    /// `suffix_max[i] = max(base[i..])`.
    suffix_max: Vec<Rational>,
}

impl Solved {
    fn new(model: SystemModel, z: &Rational, bids: &[Rational]) -> Self {
        let params = ExactParams::new(z.clone(), bids.to_vec());
        let alloc = exact::fractions(model, &params);
        let base = exact::finish_times(model, &params, &alloc);
        let m = base.len();
        let mut prefix_max = base.clone();
        for i in 1..m {
            if prefix_max[i - 1] > prefix_max[i] {
                prefix_max[i] = prefix_max[i - 1].clone();
            }
        }
        let mut suffix_max = base.clone();
        for i in (0..m.saturating_sub(1)).rev() {
            if suffix_max[i + 1] > suffix_max[i] {
                suffix_max[i] = suffix_max[i + 1].clone();
            }
        }
        Solved {
            loo: LeaveOneOut::new(model, z.clone(), bids.to_vec()),
            alloc,
            base,
            prefix_max,
            suffix_max,
        }
    }

    /// Payment for agent `i` in O(1) rational operations.
    fn pay_one(&self, i: usize, bids: &[Rational], observed: &[Rational]) -> ExactPayment {
        let m = self.base.len();
        let compensation = &self.alloc[i] * &observed[i];
        let t_without = self
            .loo
            .makespan_without(i)
            .unwrap_or_else(|| &self.alloc[i] * &bids[i]);
        // Mixed schedule (b_{-i}, w̃_i): only T_i moves, by α_i·(w̃_i − b_i);
        // the other finish times are read off the precomputed maxima.
        let shift = &self.alloc[i] * &(&observed[i] - &bids[i]);
        let mut t_actual = &self.base[i] + &shift;
        if i > 0 && self.prefix_max[i - 1] > t_actual {
            t_actual = self.prefix_max[i - 1].clone();
        }
        if i + 1 < m && self.suffix_max[i + 1] > t_actual {
            t_actual = self.suffix_max[i + 1].clone();
        }
        ExactPayment {
            compensation,
            bonus: &t_without - &t_actual,
        }
    }
}

/// Exact DLS-BL payments for bids `b` and observed rates `w̃`, in O(m)
/// rational operations total (chain-splice leave-one-out terms plus
/// prefix/suffix-maxima mixed-schedule terms).
pub fn compute_payments_exact(
    model: SystemModel,
    z: &Rational,
    bids: &[Rational],
    observed: &[Rational],
) -> Result<Vec<ExactPayment>, ExactPaymentError> {
    validate(z, bids, observed)?;
    let solved = Solved::new(model, z, bids);
    Ok((0..bids.len())
        .map(|i| solved.pay_one(i, bids, observed))
        .collect())
}

/// The pre-optimization exact payment computation: per-agent reduced-market
/// re-solve and full mixed-schedule re-evaluation, Θ(m²) rational operations
/// for the vector. Retained as the independent differential-test oracle for
/// [`compute_payments_exact`].
pub fn compute_payments_exact_naive(
    model: SystemModel,
    z: &Rational,
    bids: &[Rational],
    observed: &[Rational],
) -> Result<Vec<ExactPayment>, ExactPaymentError> {
    validate(z, bids, observed)?;
    let m = bids.len();
    let params = ExactParams::new(z.clone(), bids.to_vec());
    let alloc = exact::fractions(model, &params);

    let mut payments = Vec::with_capacity(m);
    for i in 0..m {
        let compensation = &alloc[i] * &observed[i];
        // Reduced market: bids without i.
        let t_without = if m == 1 {
            &alloc[i] * &bids[i]
        } else {
            let mut reduced = bids.to_vec();
            reduced.remove(i);
            let rp = ExactParams::new(z.clone(), reduced);
            max_time(exact::finish_times(
                model,
                &rp,
                &exact::fractions(model, &rp),
            ))
            .ok_or(ExactPaymentError::EmptyMarket)?
        };
        // Realized schedule: everyone at bid, i at observed.
        let mut mixed = bids.to_vec();
        mixed[i] = observed[i].clone();
        let mp = ExactParams::new(z.clone(), mixed);
        let t_actual = max_time(exact::finish_times(model, &mp, &alloc))
            .ok_or(ExactPaymentError::EmptyMarket)?;
        payments.push(ExactPayment {
            compensation,
            bonus: &t_without - &t_actual,
        });
    }
    Ok(payments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_payments;
    use dls_dlt::{optimal, BusParams, ALL_MODELS};

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn exact_certifies_f64_payments() {
        // Exactly representable parameters so f64 and rational inputs are
        // identical numbers.
        let z = 0.25;
        let bids = [1.0, 2.0, 1.5, 3.0];
        let observed = [1.0, 2.5, 1.5, 3.0]; // P2 slacks
        for model in ALL_MODELS {
            let p = BusParams::new(z, bids.to_vec()).unwrap();
            let alloc = optimal::fractions(model, &p);
            let fp = compute_payments(model, &p, &alloc, &observed);
            let ep = compute_payments_exact(
                model,
                &rat(1, 4),
                &bids.map(|b| Rational::from_f64(b).unwrap()),
                &observed.map(|b| Rational::from_f64(b).unwrap()),
            )
            .unwrap();
            for (f, e) in fp.iter().zip(&ep) {
                assert!(
                    (f.compensation - e.compensation.to_f64()).abs() < 1e-12,
                    "{model} compensation"
                );
                assert!(
                    (f.bonus - e.bonus.to_f64()).abs() < 1e-12,
                    "{model} bonus: {} vs {}",
                    f.bonus,
                    e.bonus.to_f64()
                );
            }
        }
    }

    #[test]
    fn fast_matches_naive_exactly() {
        let z = rat(1, 5);
        let bids = [rat(1, 1), rat(5, 2), rat(3, 2), rat(3, 1), rat(2, 1)];
        let mut observed = bids.to_vec();
        observed[1] = rat(7, 2); // P2 slacks
        observed[3] = rat(4, 1); // P4 slacks
        for model in ALL_MODELS {
            let fast = compute_payments_exact(model, &z, &bids, &observed).unwrap();
            let naive = compute_payments_exact_naive(model, &z, &bids, &observed).unwrap();
            assert_eq!(fast, naive, "{model}");
        }
    }

    #[test]
    fn hostile_input_yields_typed_errors() {
        let z = rat(1, 4);
        let bids = [rat(1, 1), rat(2, 1)];
        assert_eq!(
            compute_payments_exact(SystemModel::Cp, &z, &[], &[]),
            Err(ExactPaymentError::EmptyMarket)
        );
        assert_eq!(
            compute_payments_exact(SystemModel::Cp, &z, &bids, &bids[..1]),
            Err(ExactPaymentError::LengthMismatch { bids: 2, observed: 1 })
        );
        assert_eq!(
            compute_payments_exact(SystemModel::Cp, &rat(-1, 4), &bids, &bids),
            Err(ExactPaymentError::NegativeCommRate)
        );
        assert_eq!(
            compute_payments_exact(
                SystemModel::Cp,
                &z,
                &[rat(1, 1), Rational::zero()],
                &bids
            ),
            Err(ExactPaymentError::NonPositiveBid { index: 1 })
        );
        assert_eq!(
            compute_payments_exact(
                SystemModel::Cp,
                &z,
                &bids,
                &[rat(1, 1), rat(-2, 1)]
            ),
            Err(ExactPaymentError::NonPositiveObserved { index: 1 })
        );
        // The naive oracle applies the same validation.
        assert_eq!(
            compute_payments_exact_naive(SystemModel::Cp, &z, &[], &[]),
            Err(ExactPaymentError::EmptyMarket)
        );
    }

    #[test]
    fn truthful_utility_is_exactly_bonus() {
        // U_i = Q_i − α_i·w̃_i = B_i with ZERO error in exact arithmetic.
        let z = rat(1, 5);
        let bids = [rat(1, 1), rat(2, 1), rat(3, 1)];
        let payments =
            compute_payments_exact(SystemModel::NcpFe, &z, &bids, &bids).unwrap();
        let params = ExactParams::new(z, bids.to_vec());
        let alloc = exact::fractions(SystemModel::NcpFe, &params);
        for (i, p) in payments.iter().enumerate() {
            let cost = &alloc[i] * &bids[i];
            let utility = &p.total() - &cost;
            assert_eq!(utility, p.bonus, "agent {i}");
        }
    }

    #[test]
    fn truthful_worker_bonus_nonnegative_exactly() {
        let z = rat(1, 4);
        let bids = [rat(1, 1), rat(5, 2), rat(3, 2), rat(3, 1)];
        for model in ALL_MODELS {
            let payments = compute_payments_exact(model, &z, &bids, &bids).unwrap();
            let orig = model.originator(bids.len());
            for (i, p) in payments.iter().enumerate() {
                if Some(i) == orig {
                    continue;
                }
                assert!(
                    !p.bonus.is_negative(),
                    "{model} worker {i}: negative exact bonus {}",
                    p.bonus
                );
            }
        }
    }

    #[test]
    fn slacking_shrinks_bonus_exactly() {
        let z = rat(1, 5);
        let bids = [rat(1, 1), rat(2, 1), rat(3, 1)];
        let honest =
            compute_payments_exact(SystemModel::NcpFe, &z, &bids, &bids).unwrap();
        let mut slack = bids.to_vec();
        slack[1] = rat(4, 1); // P2 runs at half speed
        let slacked =
            compute_payments_exact(SystemModel::NcpFe, &z, &bids, &slack).unwrap();
        assert!(slacked[1].bonus < honest[1].bonus);
    }

    #[test]
    fn single_agent_market() {
        let p = compute_payments_exact(
            SystemModel::NcpFe,
            &rat(1, 2),
            &[rat(2, 1)],
            &[rat(2, 1)],
        )
        .unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].compensation, rat(2, 1));
    }
}
