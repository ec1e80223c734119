//! Closed-form optimal allocations (Algorithms 2.1 and 2.2, plus the CP
//! variant), in `f64`.
//!
//! All three models reduce to one first-order linear recursion between
//! consecutive fractions, derived from the *equal finish time* optimality
//! condition (Theorem 2.1) and normalized by `Σ α_i = 1`. The recursion
//! lives once, in the chain kernel ([`crate::chain`]); this module is the
//! one-shot `f64` front end to it. The computation is `O(m)` and
//! allocation-order independent (Theorem 2.2).

use crate::chain::ChainState;
use crate::model::{makespan, BusParams, SystemModel};

/// Optimal load fractions `α(b)` for the given model and parameters.
///
/// The result sums to 1 (within rounding), has every component in `(0, 1]`,
/// and equalizes all finishing times (Theorem 2.1).
pub fn fractions(model: SystemModel, params: &BusParams) -> Vec<f64> {
    let mut u = Vec::with_capacity(params.m());
    fractions_into(model, params, &mut u);
    u
}

/// [`fractions`] writing into a caller-owned buffer (cleared first) — the
/// allocation-free variant used by the incremental auction engine. Produces
/// bit-identical values to [`fractions`].
pub fn fractions_into(model: SystemModel, params: &BusParams, u: &mut Vec<f64>) {
    ChainState::fractions_of(model, params, u);
}

/// Optimal total execution time `T(α(b))` for the given model/parameters.
pub fn optimal_makespan(model: SystemModel, params: &BusParams) -> f64 {
    let alpha = fractions(model, params);
    makespan(model, params, &alpha)
}

/// Optimal makespan of the *reduced market* with processor `i` removed —
/// the `T(α(b_{-i}), b_{-i})` term of the DLS-BL bonus.
///
/// For the NCP models the originator role follows the model definition in
/// the reduced market (the processor that holds the load is whichever
/// remains in the originator position). Returns `None` when only one
/// processor exists (no reduced market).
///
/// Backed by the O(m) chain splice ([`ChainState::makespan_without`]); a
/// single call is O(m) like the naive re-solve, but computing *all* m terms
/// of a payment vector through one [`ChainState`] is O(m) total.
/// [`makespan_without_naive`] retains the full re-solve as the
/// differential-test oracle.
pub fn makespan_without(model: SystemModel, params: &BusParams, i: usize) -> Option<f64> {
    ChainState::new(model, params).makespan_without(i)
}

/// Naive leave-one-out makespan: rebuilds the reduced market and re-solves
/// it from scratch (Θ(m) per call). Kept as the independent oracle that
/// differential tests pit against [`makespan_without`].
pub fn makespan_without_naive(
    model: SystemModel,
    params: &BusParams,
    i: usize,
) -> Option<f64> {
    let reduced = params.without(i)?;
    Some(optimal_makespan(model, &reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{finish_times, ALL_MODELS};

    fn spread(times: &[f64]) -> f64 {
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        max - min
    }

    #[test]
    fn sums_to_one_all_models() {
        let p = BusParams::new(0.25, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{model}");
            assert!(a.iter().all(|&x| x > 0.0 && x <= 1.0), "{model}");
        }
    }

    #[test]
    fn equal_finish_times_all_models() {
        let p = BusParams::new(0.3, vec![2.0, 1.0, 4.0, 3.0]).unwrap();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            let t = finish_times(model, &p, &a);
            assert!(spread(&t) < 1e-12, "{model}: {t:?}");
        }
    }

    #[test]
    fn ncp_fe_two_processors_hand_solved() {
        // z=1, w=(2,3): k_1 = 2/(1+3) = 0.5 → α = (2/3, 1/3).
        let p = BusParams::new(1.0, vec![2.0, 3.0]).unwrap();
        let a = fractions(SystemModel::NcpFe, &p);
        assert!((a[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((a[1] - 1.0 / 3.0).abs() < 1e-12);
        // Makespan = α_1·w_1 = 4/3.
        assert!((optimal_makespan(SystemModel::NcpFe, &p) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ncp_nfe_two_processors_hand_solved() {
        // Eq. 9 only: α_1·w_1 = α_2·w_2 with w=(2,3) → α = (3/5, 2/5).
        let p = BusParams::new(1.0, vec![2.0, 3.0]).unwrap();
        let a = fractions(SystemModel::NcpNfe, &p);
        assert!((a[0] - 0.6).abs() < 1e-12);
        assert!((a[1] - 0.4).abs() < 1e-12);
        // T_1 = z·α_1 + α_1·w_1 = 0.6 + 1.2 = 1.8 = T_2 = 0.6 + 0.4·3.
        assert!((optimal_makespan(SystemModel::NcpNfe, &p) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn cp_and_ncp_fe_share_fractions() {
        // Both satisfy the same recursion (Eq. 7), so the fractions agree;
        // only the makespans differ (CP pays z·α_1 up front).
        let p = BusParams::new(0.4, vec![1.5, 2.5, 3.5]).unwrap();
        let a_cp = fractions(SystemModel::Cp, &p);
        let a_fe = fractions(SystemModel::NcpFe, &p);
        for (x, y) in a_cp.iter().zip(&a_fe) {
            assert!((x - y).abs() < 1e-15);
        }
        assert!(
            optimal_makespan(SystemModel::Cp, &p) > optimal_makespan(SystemModel::NcpFe, &p)
        );
    }

    #[test]
    fn single_processor_degenerate() {
        let p = BusParams::new(0.7, vec![3.0]).unwrap();
        for model in ALL_MODELS {
            assert_eq!(fractions(model, &p), vec![1.0], "{model}");
        }
        assert_eq!(optimal_makespan(SystemModel::NcpFe, &p), 3.0);
        assert_eq!(optimal_makespan(SystemModel::Cp, &p), 3.7);
    }

    #[test]
    fn faster_processor_gets_more_load() {
        let p = BusParams::new(0.1, vec![1.0, 1.0, 5.0]).unwrap();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            assert!(a[0] > a[2], "{model}: fast P1 should beat slow P3");
        }
    }

    #[test]
    fn homogeneous_cp_uniformish() {
        // Equal w: fractions decay geometrically with ratio w/(z+w) < 1.
        let p = BusParams::new(0.5, vec![2.0; 4]).unwrap();
        let a = fractions(SystemModel::Cp, &p);
        let k = 2.0 / 2.5;
        for i in 0..3 {
            assert!((a[i + 1] / a[i] - k).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_comm_rate_balances_by_speed() {
        // z = 0: the bus is free, so α_i ∝ 1/w_i for every model.
        let p = BusParams::new(0.0, vec![1.0, 2.0, 4.0]).unwrap();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            assert!((a[0] - 4.0 / 7.0).abs() < 1e-12, "{model}");
            assert!((a[1] - 2.0 / 7.0).abs() < 1e-12, "{model}");
            assert!((a[2] - 1.0 / 7.0).abs() < 1e-12, "{model}");
        }
    }

    #[test]
    fn makespan_without_shrinks_capacity() {
        let p = BusParams::new(0.2, vec![1.0, 2.0, 3.0]).unwrap();
        for model in ALL_MODELS {
            let full = optimal_makespan(model, &p);
            for i in 0..3 {
                let reduced = makespan_without(model, &p, i).unwrap();
                assert!(
                    reduced > full,
                    "{model}: removing P{} should slow the system",
                    i + 1
                );
            }
        }
        let single = BusParams::new(0.2, vec![1.0]).unwrap();
        assert!(makespan_without(SystemModel::Cp, &single, 0).is_none());
    }

    #[test]
    fn removing_nfe_originator_can_speed_up() {
        // Regression-captured caveat: the reduced-market makespan is NOT
        // always larger, even inside the DLT regime. In NCP-NFE a slow
        // originator forces the whole schedule through its bus sends; the
        // counterfactual market without it (originator role migrating to
        // the remaining processor) can be faster. The mechanism's bonus
        // term B_i is therefore negative for such an originator — voluntary
        // participation (Theorem 5.3) is only guaranteed for workers.
        let p = BusParams::new(0.86, vec![1.0, 3.58]).unwrap();
        assert!(p.in_dlt_regime());
        let full = optimal_makespan(SystemModel::NcpNfe, &p);
        let without_originator = makespan_without(SystemModel::NcpNfe, &p, 1).unwrap();
        assert!(
            without_originator < full,
            "expected reduced {without_originator} < full {full}"
        );
    }

    #[test]
    fn adding_a_processor_never_hurts() {
        // Theorem 2.1 corollary: optimal makespan decreases with more
        // processors (participation is always beneficial).
        let base = BusParams::new(0.2, vec![2.0, 3.0]).unwrap();
        let more = BusParams::new(0.2, vec![2.0, 3.0, 10.0]).unwrap();
        for model in ALL_MODELS {
            assert!(
                optimal_makespan(model, &more) < optimal_makespan(model, &base),
                "{model}"
            );
        }
    }

    #[test]
    fn large_m_stable() {
        let w: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let p = BusParams::new(0.01, w).unwrap();
        for model in ALL_MODELS {
            let a = fractions(model, &p);
            assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{model}");
            let t = finish_times(model, &p, &a);
            assert!(spread(&t) / t[0] < 1e-9, "{model}");
        }
    }
}
