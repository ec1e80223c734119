//! Differential testing of the DLS-BL payment pipeline.
//!
//! The trusted in-process market (`dls-mechanism`) and the exact-rational
//! payments (`dls-mechanism::exact`) run one generic payment kernel, in
//! `f64` and over rationals, so comparing them checks rounding only. Every
//! case is therefore also held against the exact Θ(m²) re-solve
//! (`compute_payments_exact_naive`), which shares nothing with that kernel
//! but the chain recursion and the finish-time equations. The markets mix
//! truthful, slacking and misreporting agents, so the mixed-schedule shift
//! `α_i·(w̃_i − b_i)` is non-zero. The centralized protocol baseline
//! (`dls-protocol::centralized`) calls the same `compute_payments`; it is
//! checked end to end against the market's payments and utilities.

use dls::mechanism::exact::{compute_payments_exact, compute_payments_exact_naive};
use dls::mechanism::{AgentSpec, Market};
use dls::num::Rational;
use dls::protocol::centralized::run_centralized;
use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::SystemModel;
use proptest::prelude::*;

/// Exactly representable rates so f64 and rational pipelines see the same
/// numbers: k/16 with k in a positive range.
fn arb_rates() -> impl Strategy<Value = (f64, Vec<f64>)> {
    (
        1u32..8,
        prop::collection::vec(16u32..128, 2..7),
    )
        .prop_map(|(zk, wk)| {
            (
                zk as f64 / 16.0,
                wk.into_iter().map(|k| k as f64 / 16.0).collect(),
            )
        })
}

/// A market over k/16 rates whose agents are truthful, slack (run 1.25×,
/// 1.5× or 2× slower than they bid) or misreport (bid 0.75×, 1.25× or
/// 1.5× their rate). The factors are dyadic, so every rate stays exact.
fn arb_agents() -> impl Strategy<Value = (f64, Vec<AgentSpec>)> {
    (
        1u32..8,
        prop::collection::vec((16u32..128, 0usize..3, 0usize..3), 2..7),
    )
        .prop_map(|(zk, agents)| {
            let agents = agents
                .into_iter()
                .map(|(k, kind, f)| {
                    let w = k as f64 / 16.0;
                    match kind {
                        0 => AgentSpec::truthful(w),
                        1 => AgentSpec::slacking(w, [1.25, 1.5, 2.0][f]),
                        _ => AgentSpec::misreporting(w, [0.75, 1.25, 1.5][f]),
                    }
                })
                .collect();
            (zk as f64 / 16.0, agents)
        })
}

fn rats(xs: &[f64]) -> Vec<Rational> {
    xs.iter().map(|&x| Rational::from_f64(x).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn market_equals_exact_oracle((z, agents) in arb_agents()) {
        for model in dls::dlt::ALL_MODELS {
            let market = Market::new(model, z, agents.clone()).unwrap();
            let (bids, observed) = (rats(&market.bids()), rats(&market.observed()));
            let z = Rational::from_f64(z).unwrap();
            let exact = compute_payments_exact(model, &z, &bids, &observed).unwrap();
            let naive = compute_payments_exact_naive(model, &z, &bids, &observed).unwrap();
            prop_assert_eq!(&exact, &naive, "{}: kernel vs re-solve", model);
            for (f, e) in market.run().payments.iter().zip(&naive) {
                prop_assert!(
                    (f.compensation - e.compensation.to_f64()).abs() < 1e-10,
                    "{}: comp {} vs {}", model, f.compensation, e.compensation.to_f64()
                );
                prop_assert!(
                    (f.bonus - e.bonus.to_f64()).abs() < 1e-10,
                    "{}: bonus {} vs {}", model, f.bonus, e.bonus.to_f64()
                );
            }
        }
    }

    #[test]
    fn centralized_baseline_equals_market((z, w) in arb_rates()) {
        let cfg = SessionConfig::builder(SystemModel::Cp, z)
            .processors(w.iter().map(|&x| ProcessorConfig::new(x, Behavior::Compliant)))
            .seed(6)
            .blocks(8 * w.len())
            .build()
            .unwrap();
        let central = run_centralized(&cfg).unwrap();
        let market = Market::new(
            SystemModel::Cp, z,
            w.iter().map(|&x| AgentSpec::truthful(x)).collect(),
        ).unwrap().run();
        for i in 0..w.len() {
            prop_assert!(
                (central.payments[i].total() - market.payments[i].total()).abs() < 1e-10
            );
            prop_assert!((central.utilities[i] - market.utility(i)).abs() < 1e-10);
        }
    }
}
