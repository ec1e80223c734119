//! Cross-crate integration: the closed-form DLT solver, the bus
//! simulator, the trusted DLS-BL mechanism, and the distributed DLS-BL-NCP
//! protocol must all tell the same story about the same market.

use dls::mechanism::{AgentSpec, Market};
use dls::netsim::{simulate, SessionSpec};
use dls::dlt::{optimal, BusParams};
use dls::{Behavior, Session, SessionStatus, SystemModel};

const Z: f64 = 0.25;
const W: [f64; 4] = [1.0, 1.4, 2.0, 2.8];

#[test]
fn closed_form_simulator_and_protocol_agree_on_makespan() {
    for model in [SystemModel::NcpFe, SystemModel::NcpNfe] {
        let params = BusParams::new(Z, W.to_vec()).unwrap();
        let closed = optimal::optimal_makespan(model, &params);

        let alloc = optimal::fractions(model, &params);
        let sim = simulate(&SessionSpec::new(model, params, alloc));
        assert!((sim.makespan - closed).abs() < 1e-12, "{model}: simulator");

        let mut s = Session::new(model, Z).seed(3).blocks(400);
        for w in W {
            s = s.worker(w);
        }
        let out = s.run().unwrap();
        assert_eq!(out.status, SessionStatus::Completed);
        let protocol_mk = out.makespan.unwrap();
        // Block granularity (400 blocks) bounds the discretization error.
        assert!(
            (protocol_mk - closed).abs() / closed < 0.02,
            "{model}: protocol {protocol_mk} vs closed {closed}"
        );
    }
}

#[test]
fn protocol_payments_match_trusted_mechanism() {
    // The distributed payment computation must coincide with what the
    // trusted DLS-BL mechanism would pay on the same market — that is the
    // point of DLS-BL-NCP (Theorem 5.2's proof reduces to it).
    let model = SystemModel::NcpFe;
    let mut s = Session::new(model, Z).seed(3).blocks(800);
    for w in W {
        s = s.worker(w);
    }
    let out = s.run().unwrap();

    let market = Market::new(
        model,
        Z,
        W.iter().map(|&w| AgentSpec::truthful(w)).collect(),
    )
    .unwrap();
    let trusted = market.run();

    for i in 0..W.len() {
        let p = out.processors[i].payment.unwrap();
        let t = trusted.payments[i];
        // Block rounding (800 blocks) keeps observed rates within ~1%.
        assert!(
            (p.compensation - t.compensation).abs() < 0.01 * t.compensation.abs().max(0.01),
            "P{}: compensation {} vs {}",
            i + 1,
            p.compensation,
            t.compensation
        );
        assert!(
            (p.bonus - t.bonus).abs() < 0.02 * t.bonus.abs().max(0.02),
            "P{}: bonus {} vs {}",
            i + 1,
            p.bonus,
            t.bonus
        );
    }
}

#[test]
fn protocol_utilities_track_mechanism_utilities() {
    let model = SystemModel::NcpFe;
    let mut s = Session::new(model, Z).seed(5).blocks(800);
    for w in W {
        s = s.worker(w);
    }
    let out = s.run().unwrap();
    let market = Market::new(
        model,
        Z,
        W.iter().map(|&w| AgentSpec::truthful(w)).collect(),
    )
    .unwrap();
    let trusted = market.run();
    for i in 0..W.len() {
        assert!(
            (out.utility(i) - trusted.utility(i)).abs() < 0.02 * trusted.utility(i).abs().max(0.02),
            "P{}: {} vs {}",
            i + 1,
            out.utility(i),
            trusted.utility(i)
        );
    }
}

#[test]
fn exact_rational_certifies_the_whole_pipeline() {
    // f64 fractions -> exact fractions -> simulator finish times, end to
    // end within 1e-12 relative error.
    use dls::dlt::exact;
    let model = SystemModel::NcpNfe;
    let params = BusParams::new(Z, W.to_vec()).unwrap();
    let ep = exact::ExactParams::from_f64(Z, &W);
    let af = optimal::fractions(model, &params);
    let ae = exact::fractions(model, &ep);
    let sim = simulate(&SessionSpec::new(model, params, af));
    let exact_mk = exact::optimal_makespan(model, &ep).to_f64();
    assert!((sim.makespan - exact_mk).abs() / exact_mk < 1e-12);
    for (f, e) in sim
        .finish_times()
        .iter()
        .zip(exact::finish_times(model, &ep, &ae))
    {
        assert!((f - e.to_f64()).abs() < 1e-9);
    }
}

#[test]
fn deviants_never_beat_their_compliant_selves_across_models() {
    for model in [SystemModel::NcpFe, SystemModel::NcpNfe] {
        let honest = {
            let mut s = Session::new(model, Z).seed(9);
            for w in W {
                s = s.worker(w);
            }
            s.run().unwrap()
        };
        for (who, b) in [
            (1usize, Behavior::Misreport { factor: 2.0 }),
            (2, Behavior::Slack { factor: 1.5 }),
            (1, Behavior::EquivocateBids { factor: 0.5 }),
            (
                3,
                Behavior::CorruptPayments {
                    target: 0,
                    factor: 0.5,
                },
            ),
        ] {
            let mut s = Session::new(model, Z).seed(9);
            for (i, w) in W.iter().enumerate() {
                s = if i == who {
                    s.worker_with(*w, b)
                } else {
                    s.worker(*w)
                };
            }
            let out = s.run().unwrap();
            assert!(
                out.utility(who) <= honest.utility(who) + 1e-9,
                "{model} {b}: {} > {}",
                out.utility(who),
                honest.utility(who)
            );
        }
    }
}

#[test]
fn ledger_balances_add_up_for_every_status() {
    let scenarios: Vec<Vec<(f64, Behavior)>> = vec![
        vec![(1.0, Behavior::Compliant), (2.0, Behavior::Compliant)],
        vec![
            (1.0, Behavior::Compliant),
            (2.0, Behavior::EquivocateBids { factor: 3.0 }),
            (3.0, Behavior::Compliant),
        ],
        vec![
            (
                1.0,
                Behavior::ShortAllocate {
                    victim: 1,
                    shortfall: 1,
                },
            ),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
        vec![
            (1.0, Behavior::Compliant),
            (
                2.0,
                Behavior::CorruptPayments {
                    target: 1,
                    factor: 4.0,
                },
            ),
            (3.0, Behavior::Compliant),
        ],
    ];
    for (k, procs) in scenarios.into_iter().enumerate() {
        let mut s = Session::ncp_fe(Z).seed(k as u64);
        for (w, b) in procs {
            s = s.worker_with(w, b);
        }
        let out = s.run().unwrap();
        assert!(
            out.ledger.conservation_error().abs() < 1e-9,
            "scenario {k}: {:?}",
            out.status
        );
        // Every processor's reported utility is consistent with the ledger.
        for (i, p) in out.processors.iter().enumerate() {
            let balance = out
                .ledger
                .balance(&dls::protocol::ledger::Account::Processor(i));
            assert!(
                (p.utility - (balance - p.cost)).abs() < 1e-9,
                "scenario {k} P{}",
                i + 1
            );
        }
    }
}

#[test]
fn signed_messages_travel_the_whole_stack() {
    // A session's message accounting shows signed traffic in every phase.
    let out = Session::ncp_fe(Z)
        .worker(1.0)
        .worker(2.0)
        .worker(3.0)
        .seed(1)
        .run()
        .unwrap();
    let (bids, bid_bytes) = out.messages.category("bid");
    let (grants, grant_bytes) = out.messages.category("grant");
    let (pv, pv_bytes) = out.messages.category("payment-vector");
    assert_eq!(bids, 6); // m(m-1) = 3·2
    assert_eq!(grants, 2); // originator serves the two others
    assert_eq!(pv, 3); // one vector per processor
    assert!(bid_bytes > 0 && grant_bytes > 0 && pv_bytes > 0);
    // Grants dominate byte volume (they carry the signed blocks).
    assert!(grant_bytes > bid_bytes);
}
