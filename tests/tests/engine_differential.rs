//! Differential tests for the incremental auction engine: a chain spliced
//! in place by [`ChainState::update_bid`] must agree **bit-exactly** (every
//! `f64` compared via `to_bits`) with a from-scratch solve of the same
//! market, across all three bus models, after arbitrary update sequences —
//! including head-slot (`i = 0`) and tail-slot updates, which exercise the
//! special first/last link factors, and the degenerate m = 1 / m = 2
//! markets.
//!
//! Bit-exactness is the design contract (not a tolerance choice): the
//! splice recomputes each affected product with the *same expressions in
//! the same order* as the rebuild, so IEEE-754 determinism makes the
//! results identical. A tolerance here would hide a broken splice.
//!
//! The engine under test is [`MultiLoadEngine`] over one unit load: a
//! single auction, whose quotes and payments scale by `1.0` and so keep
//! their bits. Workloads come from `dls_bench::workloads::quantized_rates`,
//! the frozen dyadic-rate generator the differential suites share.

use dls::dlt::{
    optimal, BusParams, ChainState, InstallmentScheduler, LeaveOneOut, LoadSpec, ALL_MODELS,
};
use dls::mechanism::{compute_payments, MultiLoadEngine};
use dls_bench::workloads::quantized_rates;

const Z: f64 = 0.1875; // 3/16, dyadic

/// The single auction: one unit load at bus rate [`Z`].
const UNIT: [LoadSpec; 1] = [LoadSpec { size: 1.0, z: Z }];

/// A deterministic update schedule hitting the head slot, the tail slot,
/// both ends of every special link, and a spread of middle positions.
fn update_schedule(m: usize, seed: u64) -> Vec<(usize, f64)> {
    let rates = quantized_rates(16.max(m), 1.0, 8.0, seed, 64);
    let positions: Vec<usize> = [0, m - 1, m / 2, 0, m.saturating_sub(2), 1 % m, m / 3, m - 1]
        .into_iter()
        .map(|i| i % m)
        .collect();
    positions
        .into_iter()
        .zip(rates)
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
    let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
    assert_eq!(ab, bb, "{ctx}: {a:?} vs {b:?}");
}

#[test]
fn chain_update_matches_from_scratch_bitwise() {
    for model in ALL_MODELS {
        for (seed, m) in [(41u64, 1usize), (42, 2), (43, 3), (44, 8), (45, 64), (46, 257)] {
            let w = quantized_rates(m, 1.0, 8.0, seed, 64);
            let params = BusParams::new(Z, w).unwrap();
            let mut chain = ChainState::new(model, &params);
            let mut fresh_alloc = Vec::new();
            let mut inc_alloc = Vec::new();
            for (step, (i, bid)) in update_schedule(m, seed ^ 0xa5a5).into_iter().enumerate() {
                chain.update_bid(i, bid);

                // From-scratch reference: a brand-new parameter set solved
                // by the one-shot closed form.
                let scratch = BusParams::new(Z, chain.params().w().to_vec()).unwrap();
                let expect = optimal::fractions(model, &scratch);
                chain.fractions_into(&mut inc_alloc);
                assert_bits_eq(
                    &inc_alloc,
                    &expect,
                    &format!("{model} m={m} step={step} i={i} fractions"),
                );
                // Makespan reference: LeaveOneOut builds its own chain from
                // scratch and shares ChainState's closed-form contract
                // (`head_cost(w[0]) / Σu`, one division — `optimal::
                // optimal_makespan` routes through normalized fractions and
                // may differ in the last ULP, so it is not the oracle here).
                let loo = LeaveOneOut::new(model, Z, chain.params().w().to_vec());
                assert_eq!(
                    Some(chain.optimal_makespan().to_bits()),
                    loo.optimal_makespan().map(f64::to_bits),
                    "{model} m={m} step={step} i={i} makespan"
                );

                // And against a freshly built chain over the same bids.
                let rebuilt = ChainState::new(model, &scratch);
                rebuilt.clone().fractions_into(&mut fresh_alloc);
                assert_bits_eq(
                    &inc_alloc,
                    &fresh_alloc,
                    &format!("{model} m={m} step={step} i={i} vs rebuilt chain"),
                );
            }
        }
    }
}

#[test]
fn engine_evaluate_matches_one_shot_solve_bitwise() {
    for model in ALL_MODELS {
        for (seed, m) in [(51u64, 1usize), (52, 2), (53, 5), (54, 33), (55, 128)] {
            let bids = quantized_rates(m, 1.0, 8.0, seed, 64);
            let mut eng = MultiLoadEngine::new(model, &bids, &UNIT).unwrap();
            for (step, (i, bid)) in update_schedule(m, seed ^ 0x5a5a).into_iter().enumerate() {
                eng.submit_bid(i, bid).unwrap();
                let params = BusParams::new(Z, eng.bids().to_vec()).unwrap();
                let expect = optimal::fractions(model, &params);
                let loo = LeaveOneOut::new(model, Z, eng.bids().to_vec());
                assert_eq!(
                    Some(eng.load_makespan(0).unwrap().to_bits()),
                    loo.optimal_makespan().map(f64::to_bits),
                    "{model} m={m} step={step} makespan"
                );
                let frac = eng.fractions(0).unwrap().to_vec();
                assert_bits_eq(&frac, &expect, &format!("{model} m={m} step={step} fractions"));
            }
        }
    }
}

#[test]
fn engine_payments_match_one_shot_solve_bitwise() {
    for model in ALL_MODELS {
        for (seed, m) in [(61u64, 1usize), (62, 2), (63, 4), (64, 19), (65, 96)] {
            let bids = quantized_rates(m, 1.0, 8.0, seed, 64);
            let mut eng = MultiLoadEngine::new(model, &bids, &UNIT).unwrap();
            for (i, bid) in update_schedule(m, seed ^ 0x7e57) {
                eng.submit_bid(i, bid).unwrap();
            }
            // Every fourth agent slacks by one quantum.
            let observed: Vec<f64> = eng
                .bids()
                .iter()
                .enumerate()
                .map(|(i, &w)| if i % 4 == 1 { w + 1.0 / 64.0 } else { w })
                .collect();

            let params = BusParams::new(Z, eng.bids().to_vec()).unwrap();
            let alloc = optimal::fractions(model, &params);
            let expect = compute_payments(model, &params, &alloc, &observed);
            let mut got = Vec::new();
            eng.payments_into(0, &observed, &mut got).unwrap();
            // Payment derives PartialEq over raw f64 — exact equality, and
            // the schedule never produces NaN, so == is to_bits equality.
            assert_eq!(got, expect.as_slice(), "{model} m={m} seed={seed}");
        }
    }
}

#[test]
fn head_slot_updates_refresh_the_special_links() {
    // The head slot participates in `head_cost` and (for m >= 2) link 0;
    // the last two slots participate in the NCP-NFE special last link.
    // Hammer exactly those positions.
    for model in ALL_MODELS {
        for m in [2usize, 3, 4] {
            let bids = quantized_rates(m, 1.0, 8.0, 71, 64);
            let mut eng = MultiLoadEngine::new(model, &bids, &UNIT).unwrap();
            for (step, &bid) in [0.5, 7.5, 1.015625, 3.25].iter().enumerate() {
                for i in [0, m - 1, m.saturating_sub(2)] {
                    eng.submit_bid(i, bid + i as f64 / 64.0).unwrap();
                    let params = BusParams::new(Z, eng.bids().to_vec()).unwrap();
                    let expect = optimal::fractions(model, &params);
                    let frac = eng.fractions(0).unwrap().to_vec();
                    assert_bits_eq(
                        &frac,
                        &expect,
                        &format!("{model} m={m} step={step} i={i}"),
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_incremental_and_rebuild_streams_stay_identical() {
    // Interleave the two update paths over the same update stream: the
    // splicing engine must never drift from a scheduler that rebuilds its
    // chain from scratch on every bid.
    for model in ALL_MODELS {
        let m = 48;
        let bids = quantized_rates(m, 1.0, 8.0, 81, 64);
        let mut inc = MultiLoadEngine::new(model, &bids, &UNIT).unwrap();
        let mut full = InstallmentScheduler::new(model, &bids, &UNIT).unwrap();
        let mut b = Vec::new();
        for (step, (i, bid)) in update_schedule(m, 82).into_iter().enumerate() {
            inc.submit_bid(i, bid).unwrap();
            full.update_bid_rebuild(i, bid).unwrap();
            assert_eq!(
                inc.load_makespan(0).unwrap().to_bits(),
                full.load_makespan(0).unwrap().to_bits(),
                "{model} step={step} makespan"
            );
            let a = inc.fractions(0).unwrap().to_vec();
            full.fractions_into(0, &mut b).unwrap();
            assert_bits_eq(&a, &b, &format!("{model} step={step} fractions"));
        }
    }
}
