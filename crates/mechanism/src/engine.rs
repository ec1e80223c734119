//! Tests of the single auction: [`MultiLoadEngine`] over one unit load,
//! `[LoadSpec::unit(z)]`, against the one-shot solvers.
//!
//! A single divisible-load auction has no engine type of its own; these
//! tests pin that the unit-load engine's quotes, incremental bid
//! revisions, payments and typed errors behave as the one-shot
//! [`optimal::fractions`] and [`compute_payments`] do, bit for bit.

use crate::market::compute_payments;
use crate::multiload::{MultiLoadEngine, MultiMarketError};
use dls_dlt::multiload::{InstallmentScheduler, LoadSpec, MultiLoadError};
use dls_dlt::{optimal, BusParams, SystemModel};

/// The unit-load engine for one auction over `bids` with bus intensity `z`.
fn single(model: SystemModel, z: f64, bids: &[f64]) -> Result<MultiLoadEngine, MultiMarketError> {
    MultiLoadEngine::new(model, bids, &[LoadSpec::unit(z)])
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

mod tests {
    use super::*;
    use dls_dlt::ALL_MODELS;

    #[test]
    fn fresh_engine_matches_one_shot_solvers() {
        let bids = vec![1.0, 2.5, 0.8, 3.2];
        for model in ALL_MODELS {
            let mut eng = single(model, 0.3, &bids).unwrap();
            let params = BusParams::new(0.3, bids.clone()).unwrap();
            let expect = optimal::fractions(model, &params);
            assert_eq!(bits(eng.fractions(0).unwrap()), bits(&expect), "{model}");
        }
    }

    #[test]
    fn incremental_and_rebuild_paths_agree_bitwise() {
        for model in ALL_MODELS {
            let bids = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            let mut inc = single(model, 0.25, &bids).unwrap();
            let mut full =
                InstallmentScheduler::new(model, &bids, &[LoadSpec::unit(0.25)]).unwrap();
            let updates = [(3usize, 0.9), (0, 2.2), (4, 1.1), (2, 6.5)];
            let mut rebuilt = Vec::new();
            for &(i, b) in &updates {
                inc.submit_bid(i, b).unwrap();
                full.update_bid_rebuild(i, b).unwrap();
                assert_eq!(
                    inc.load_makespan(0).unwrap().to_bits(),
                    full.load_makespan(0).unwrap().to_bits(),
                    "{model} update {i}"
                );
                full.fractions_into(0, &mut rebuilt).unwrap();
                assert_eq!(
                    bits(inc.fractions(0).unwrap()),
                    bits(&rebuilt),
                    "{model} update {i}"
                );
            }
        }
    }

    #[test]
    fn payments_match_compute_payments() {
        for model in ALL_MODELS {
            let bids = vec![1.5, 2.0, 1.0];
            let observed = vec![1.5, 2.6, 1.0];
            let mut eng = single(model, 0.2, &bids).unwrap();
            let params = BusParams::new(0.2, bids).unwrap();
            let alloc = optimal::fractions(model, &params);
            let expect = compute_payments(model, &params, &alloc, &observed);
            let mut got = Vec::new();
            eng.payments_into(0, &observed, &mut got).unwrap();
            assert_eq!(got, expect, "{model}");
        }
    }

    #[test]
    fn typed_errors_cover_bad_inputs() {
        let mut eng = single(SystemModel::Cp, 0.2, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            eng.submit_bid(5, 1.0),
            Err(MultiMarketError::Load(MultiLoadError::IndexOutOfRange {
                index: 5,
                m: 2
            }))
        ));
        assert!(matches!(
            eng.submit_bid(0, -1.0),
            Err(MultiMarketError::Load(MultiLoadError::InvalidBid {
                index: 0,
                ..
            }))
        ));
        let mut out = Vec::new();
        assert!(matches!(
            eng.payments_into(0, &[1.0], &mut out),
            Err(MultiMarketError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            eng.payments_into(0, &[1.0, f64::NAN], &mut out),
            Err(MultiMarketError::InvalidObserved { index: 1, .. })
        ));
        assert!(matches!(
            single(SystemModel::Cp, -1.0, &[1.0]),
            Err(MultiMarketError::Load(MultiLoadError::InvalidLoad {
                load: 0,
                ..
            }))
        ));
        // A failed submission leaves the engine usable.
        assert!(eng.submit_bid(1, 3.0).is_ok());
        assert_eq!(eng.bids(), &[1.0, 3.0]);
    }

    #[test]
    fn load_bids_matches_fresh_engine() {
        // Loading a whole new bid vector into a warm engine, one revision
        // per processor, lands on the state of an engine built from it.
        for model in ALL_MODELS {
            let mut eng = single(model, 0.2, &[1.0, 2.0, 3.0]).unwrap();
            eng.submit_bid(1, 9.0).unwrap(); // dirty the cache first
            eng.fractions(0).unwrap();
            let next = [2.0, 1.0, 4.0];
            for (i, &b) in next.iter().enumerate() {
                eng.submit_bid(i, b).unwrap();
            }
            let mut fresh = single(model, 0.2, &next).unwrap();
            assert_eq!(
                eng.load_makespan(0).unwrap().to_bits(),
                fresh.load_makespan(0).unwrap().to_bits(),
                "{model}"
            );
            assert_eq!(
                bits(eng.fractions(0).unwrap()),
                bits(fresh.fractions(0).unwrap()),
                "{model}"
            );
        }
    }
}
