//! Property tests: the bus simulator agrees with the closed-form
//! finishing-time equations on random schedules, and structural invariants
//! hold on every trace.
//!
//! **Fidelity note:** in this offline workspace these properties run
//! against the vendored proptest stand-in (`vendor/proptest`): a
//! deterministic per-test seed, a fixed case count, no shrinking, and no
//! run-to-run variation. A green run is a frozen regression sweep (256
//! cases by default), not real fuzzing — re-run the suite against
//! upstream proptest whenever registry access is available (see
//! `vendor/README.md`).

use dls_dlt::{finish_times, optimal, BusParams, SystemModel, ALL_MODELS};
use dls_netsim::{simulate, SessionSpec};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = BusParams> {
    (
        0.0f64..3.0,
        prop::collection::vec(0.2f64..8.0, 1..10),
    )
        .prop_map(|(z, w)| BusParams::new(z, w).unwrap())
}

fn arb_model() -> impl Strategy<Value = SystemModel> {
    prop::sample::select(ALL_MODELS.to_vec())
}

proptest! {
    #[test]
    fn simulator_equals_closed_form_at_optimum(model in arb_model(), p in arb_params()) {
        let alloc = optimal::fractions(model, &p);
        let tl = simulate(&SessionSpec::new(model, p.clone(), alloc.clone()));
        let closed = finish_times(model, &p, &alloc);
        for (s, c) in tl.finish_times().iter().zip(&closed) {
            prop_assert!((s - c).abs() < 1e-9 * (1.0 + c.abs()), "{} vs {}", s, c);
        }
    }

    #[test]
    fn simulator_equals_closed_form_on_random_allocations(
        model in arb_model(), p in arb_params(),
        raw in prop::collection::vec(0.01f64..1.0, 10)
    ) {
        let m = p.m();
        let total: f64 = raw[..m].iter().sum();
        let alloc: Vec<f64> = raw[..m].iter().map(|x| x / total).collect();
        let tl = simulate(&SessionSpec::new(model, p.clone(), alloc.clone()));
        let closed = finish_times(model, &p, &alloc);
        for (s, c) in tl.finish_times().iter().zip(&closed) {
            prop_assert!((s - c).abs() < 1e-9 * (1.0 + c.abs()), "{} vs {}", s, c);
        }
    }

    #[test]
    fn one_port_holds_on_every_trace(model in arb_model(), p in arb_params(),
                                     raw in prop::collection::vec(0.0f64..1.0, 10)) {
        let m = p.m();
        let total: f64 = raw[..m].iter().sum::<f64>().max(1e-9);
        let alloc: Vec<f64> = raw[..m].iter().map(|x| x / total).collect();
        let tl = simulate(&SessionSpec::new(model, p, alloc));
        prop_assert!(tl.bus_is_one_port());
    }

    #[test]
    fn compute_never_precedes_data(model in arb_model(), p in arb_params()) {
        let alloc = optimal::fractions(model, &p);
        let tl = simulate(&SessionSpec::new(model, p, alloc));
        for proc_ in &tl.procs {
            if let (Some(r), Some(c)) = (proc_.recv, proc_.compute) {
                prop_assert!(c.start >= r.end - 1e-12);
            }
        }
    }

    #[test]
    fn makespan_is_max_finish(model in arb_model(), p in arb_params()) {
        let alloc = optimal::fractions(model, &p);
        let tl = simulate(&SessionSpec::new(model, p, alloc));
        let max_finish = tl.finish_times().into_iter().fold(0.0f64, f64::max);
        prop_assert!((tl.makespan - max_finish).abs() < 1e-12);
    }

    // ---------------- Linear-chain executor ----------------

    #[test]
    fn chain_simulator_matches_closed_form(
        w in prop::collection::vec(0.2f64..8.0, 1..9),
        zs in prop::collection::vec(0.0f64..2.0, 8),
        raw in prop::collection::vec(0.05f64..1.0, 9),
    ) {
        let links = zs[..w.len() - 1].to_vec();
        let p = dls_dlt::linear::LinearParams::new(links, w).unwrap();
        let m = p.m();
        let total: f64 = raw[..m].iter().sum();
        let alloc: Vec<f64> = raw[..m].iter().map(|x| x / total).collect();
        let tl = dls_netsim::linear::simulate_chain(&p, &alloc);
        let closed = dls_dlt::linear::finish_times(&p, &alloc);
        for (s, c) in tl.finish_times().iter().zip(&closed) {
            prop_assert!((s - c).abs() < 1e-9 * (1.0 + c.abs()), "{} vs {}", s, c);
        }
    }

    // ---------------- Multi-installment executor ----------------

    #[test]
    fn multiround_monotone_and_bounded(
        w in prop::collection::vec(0.5f64..6.0, 2..8),
        z in 0.01f64..2.0,
        rounds in 2usize..12,
    ) {
        let p = BusParams::new(z, w).unwrap();
        let t1 = dls_netsim::multiround::simulate_multiround(&p, 1).unwrap().makespan;
        let tr = dls_netsim::multiround::simulate_multiround(&p, rounds).unwrap().makespan;
        prop_assert!(tr <= t1 + 1e-12, "R={} worse: {} > {}", rounds, tr, t1);
        // Pipelining cannot beat the pure computation lower bound:
        // total work / aggregate speed.
        let agg: f64 = p.w().iter().map(|x| 1.0 / x).sum();
        prop_assert!(tr >= 1.0 / agg - 1e-9);
    }

    #[test]
    fn bus_carries_everything_except_originator(model in arb_model(), p in arb_params()) {
        let alloc = optimal::fractions(model, &p);
        let m = p.m();
        let z = p.z();
        let tl = simulate(&SessionSpec::new(model, p, alloc.clone()));
        let sent: f64 = tl.bus.iter().map(|(_, s)| s.duration()).sum();
        let expected: f64 = (0..m)
            .filter(|&i| model.originator(m) != Some(i))
            .map(|i| alloc[i] * z)
            .sum();
        prop_assert!((sent - expected).abs() < 1e-9);
    }
}
