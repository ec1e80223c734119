//! End-to-end DLS-BL-NCP sessions: one test per behaviour in the deviance
//! catalogue, plus accounting and communication-complexity checks.

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::referee::Phase;
use dls_protocol::run_session_vm;
use dls_protocol::runtime::{RunError, SessionStatus};

const Z: f64 = 0.2;

fn session(model: SystemModel, behaviors: &[(f64, Behavior)]) -> SessionConfig {
    SessionConfig::builder(model, Z)
        .processors(
            behaviors
                .iter()
                .map(|&(w, b)| ProcessorConfig::new(w, b)),
        )
        .seed(7)
        .build()
        .unwrap()
}

fn compliant3(model: SystemModel) -> SessionConfig {
    session(
        model,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
    )
}

#[test]
fn cp_model_rejected() {
    let cfg = compliant3(SystemModel::Cp);
    assert!(matches!(run_session_vm(&cfg), Err(RunError::UnsupportedModel)));
}

#[test]
fn compliant_session_completes_cleanly() {
    for model in [SystemModel::NcpFe, SystemModel::NcpNfe] {
        let out = run_session_vm(&compliant3(model)).unwrap();
        assert_eq!(out.status, SessionStatus::Completed, "{model}");
        assert!(out.fined_processors().is_empty());
        assert!(out.ledger.conservation_error().abs() < 1e-9);
        let tl = out.timeline.as_ref().expect("processing ran");
        assert!(tl.bus_is_one_port());
        // The realized makespan matches the DLT optimum up to block
        // granularity.
        let params = dls_dlt::BusParams::new(Z, vec![1.0, 2.0, 3.0]).unwrap();
        let opt = dls_dlt::optimal::optimal_makespan(model, &params);
        let mk = out.makespan.unwrap();
        assert!((mk - opt).abs() / opt < 0.1, "{model}: {mk} vs {opt}");
        // Workers have non-negative utility (voluntary participation).
        let orig = model.originator(3).unwrap();
        for (i, p) in out.processors.iter().enumerate() {
            assert!(p.participated);
            assert!(p.payment.is_some());
            if i != orig {
                assert!(p.utility >= -1e-9, "{model} P{}: {}", i + 1, p.utility);
            }
        }
        // The user paid the whole bill.
        let bill: f64 = out
            .processors
            .iter()
            .map(|p| p.payment.unwrap().total())
            .sum();
        assert!(
            (out.ledger.balance(&dls_protocol::ledger::Account::User) + bill).abs() < 1e-9
        );
    }
}

#[test]
fn misreporting_is_legal_but_unprofitable() {
    let honest = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    let lying = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Misreport { factor: 1.6 }),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    // No fines — misreporting is not a protocol offence…
    assert_eq!(lying.status, SessionStatus::Completed);
    assert!(lying.fined_processors().is_empty());
    // …but the mechanism makes it unprofitable (strategyproofness).
    assert!(
        lying.utility(1) <= honest.utility(1) + 1e-9,
        "misreporting paid off: {} vs {}",
        lying.utility(1),
        honest.utility(1)
    );
}

#[test]
fn slacking_is_legal_but_unprofitable() {
    let honest = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    let slack = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Slack { factor: 2.0 }),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(slack.status, SessionStatus::Completed);
    assert!(slack.utility(1) < honest.utility(1));
    // The slow execution shows up in the realized makespan.
    assert!(slack.makespan.unwrap() > honest.makespan.unwrap());
}

#[test]
fn equivocation_detected_fined_and_aborted() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::EquivocateBids { factor: 2.0 }),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Bidding
        }
    );
    assert_eq!(out.fined_processors(), vec![1]);
    let f = out.fine;
    assert!((out.processors[1].utility + f).abs() < 1e-9, "deviant pays F");
    // Informers split the pot: F/(m−1) each.
    for i in [0, 2] {
        assert!((out.processors[i].utility - f / 2.0).abs() < 1e-9);
    }
    assert!(out.ledger.conservation_error().abs() < 1e-9);
    assert!(out.timeline.is_none(), "no processing after a bidding abort");
}

#[test]
fn short_allocation_fines_originator() {
    // NCP-FE: P1 is the originator and withholds blocks from P3.
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (
                1.0,
                Behavior::ShortAllocate {
                    victim: 2,
                    shortfall: 2,
                },
            ),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Allocating
        }
    );
    assert_eq!(out.fined_processors(), vec![0]);
}

#[test]
fn over_allocation_fines_originator() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (
                1.0,
                Behavior::OverAllocate {
                    victim: 1,
                    excess: 3,
                },
            ),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Allocating
        }
    );
    assert_eq!(out.fined_processors(), vec![0]);
}

#[test]
fn nfe_originator_deviation_detected_too() {
    // NCP-NFE: the originator is the LAST processor.
    let out = run_session_vm(&session(
        SystemModel::NcpNfe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Compliant),
            (
                3.0,
                Behavior::ShortAllocate {
                    victim: 0,
                    shortfall: 1,
                },
            ),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Allocating
        }
    );
    assert_eq!(out.fined_processors(), vec![2]);
}

#[test]
fn corrupt_payment_vector_fined_session_completes() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Compliant),
            (
                3.0,
                Behavior::CorruptPayments {
                    target: 2,
                    factor: 2.5,
                },
            ),
        ],
    ))
    .unwrap();
    assert_eq!(out.status, SessionStatus::CompletedWithFines);
    assert_eq!(out.fined_processors(), vec![2]);
    // Work completed: payments flowed from the correct vector.
    assert!(out.processors[0].payment.is_some());
    // The corrupter's inflated entry was NOT used: its own payment is the
    // correct one minus the fine plus nothing.
    let honest = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    let correct_q2 = honest.processors[2].payment.unwrap().total();
    let paid_q2 = out.processors[2].payment.unwrap().total();
    assert!(
        (paid_q2 - correct_q2).abs() < 0.05 * correct_q2.abs().max(1.0),
        "{paid_q2} vs {correct_q2}"
    );
    // Deviant strictly worse off than compliant play (Lemma 5.1).
    assert!(out.utility(2) < honest.utility(2));
    assert!(out.ledger.conservation_error().abs() < 1e-9);
}

#[test]
fn false_accusation_fines_the_accuser() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::FalselyAccuseAllocation),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Allocating
        }
    );
    assert_eq!(out.fined_processors(), vec![1]);
}

#[test]
fn non_participant_excluded_with_zero_utility() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::NonParticipant),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert!(!out.processors[1].participated);
    assert_eq!(out.utility(1), 0.0);
    assert!(out.processors[0].payment.is_some());
    assert!(out.processors[2].payment.is_some());
}

#[test]
fn too_few_participants_rejected() {
    let cfg = session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::NonParticipant),
            (3.0, Behavior::NonParticipant),
        ],
    );
    assert!(matches!(run_session_vm(&cfg), Err(RunError::TooFewParticipants)));
}

#[test]
fn every_deviant_loses_relative_to_compliance() {
    // Lemma 5.1 / Theorem 5.1 measured end-to-end: for each finable
    // behaviour, the deviant's utility is strictly below what the same
    // processor earns in the all-compliant session.
    let honest = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    let deviant_behaviors: Vec<(usize, Behavior)> = vec![
        (1, Behavior::EquivocateBids { factor: 2.0 }),
        (
            0,
            Behavior::ShortAllocate {
                victim: 2,
                shortfall: 1,
            },
        ),
        (
            0,
            Behavior::OverAllocate {
                victim: 1,
                excess: 2,
            },
        ),
        (
            2,
            Behavior::CorruptPayments {
                target: 2,
                factor: 3.0,
            },
        ),
        (1, Behavior::FalselyAccuseAllocation),
    ];
    for (who, behavior) in deviant_behaviors {
        let mut ws = [
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ];
        ws[who].1 = behavior;
        let out = run_session_vm(&session(SystemModel::NcpFe, &ws)).unwrap();
        assert!(
            out.utility(who) < honest.utility(who),
            "{behavior}: deviant got {} vs compliant {}",
            out.utility(who),
            honest.utility(who)
        );
    }
}

#[test]
fn bid_deliveries_scale_quadratically() {
    // Theorem 5.4 measured: bid deliveries are exactly m(m−1) and the
    // payment-vector bytes grow ~m².
    let mut last_bytes_per_m = 0.0;
    for m in [3usize, 6, 12] {
        let behaviors: Vec<(f64, Behavior)> = (0..m)
            .map(|i| (1.0 + i as f64 * 0.5, Behavior::Compliant))
            .collect();
        let out = run_session_vm(&session(SystemModel::NcpFe, &behaviors)).unwrap();
        let (bid_count, _) = out.messages.category("bid");
        assert_eq!(bid_count as usize, m * (m - 1), "m={m}");
        let (pv_count, pv_bytes) = out.messages.category("payment-vector");
        assert_eq!(pv_count as usize, m, "m={m}");
        // Bytes per message grow linearly in m ⇒ total is Θ(m²).
        let bytes_per_m = pv_bytes as f64 / m as f64;
        assert!(bytes_per_m > last_bytes_per_m, "m={m}");
        last_bytes_per_m = bytes_per_m;
    }
}

#[test]
fn deterministic_given_seed() {
    let a = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    let b = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    assert_eq!(a.status, b.status);
    for (x, y) in a.processors.iter().zip(&b.processors) {
        assert_eq!(x.utility, y.utility);
        assert_eq!(x.blocks_granted, y.blocks_granted);
    }
    assert_eq!(a.messages, b.messages);
}

#[test]
fn non_participant_originator_role_migrates() {
    // NCP-FE: P1 declines, so P2 becomes the active originator; the
    // session must still complete with the remaining pair.
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::NonParticipant),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert!(!out.processors[0].participated);
    assert_eq!(out.utility(0), 0.0);
    // The active pair split the whole load.
    let total: usize = out.processors.iter().map(|p| p.blocks_granted).sum();
    assert_eq!(total, 60);
    assert!(out.processors[1].payment.is_some());
    assert!(out.processors[2].payment.is_some());
}

#[test]
fn two_equivocators_both_fined() {
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::EquivocateBids { factor: 2.0 }),
            (3.0, Behavior::EquivocateBids { factor: 0.5 }),
            (4.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Bidding
        }
    );
    assert_eq!(out.fined_processors(), vec![1, 2]);
    // Pot 2F split between the two survivors: each receives F.
    let f = out.fine;
    assert!((out.processors[0].utility - f).abs() < 1e-9);
    assert!((out.processors[3].utility - f).abs() < 1e-9);
    assert!(out.ledger.conservation_error().abs() < 1e-9);
}

#[test]
fn originator_offence_by_non_originator_degrades_to_compliance() {
    // P2 configured to short-allocate, but only the originator sends
    // grants — the behaviour has no effect and the session completes.
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (
                2.0,
                Behavior::ShortAllocate {
                    victim: 2,
                    shortfall: 1,
                },
            ),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert!(out.fined_processors().is_empty());
}

#[test]
fn victim_deviant_combo_each_handled() {
    // The originator cheats P3 AND P2 corrupts payments. The allocation
    // abort pre-empts the payment phase, so only the originator is fined.
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (
                1.0,
                Behavior::ShortAllocate {
                    victim: 2,
                    shortfall: 1,
                },
            ),
            (
                2.0,
                Behavior::CorruptPayments {
                    target: 0,
                    factor: 3.0,
                },
            ),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Allocating
        }
    );
    assert_eq!(out.fined_processors(), vec![0]);
}

#[test]
fn fine_exactly_at_bound_still_deters() {
    // The paper requires F >= sum(alpha_j w_j); verify the boundary value
    // still makes equivocation unprofitable.
    let probe = session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::Compliant),
            (3.0, Behavior::Compliant),
        ],
    );
    let bound = probe.fine_bound();
    let honest = run_session_vm(&probe).unwrap();
    let cfg = dls_protocol::config::SessionConfig::builder(SystemModel::NcpFe, Z)
        .processors([
            dls_protocol::config::ProcessorConfig::new(1.0, Behavior::Compliant),
            dls_protocol::config::ProcessorConfig::new(
                2.0,
                Behavior::EquivocateBids { factor: 2.0 },
            ),
            dls_protocol::config::ProcessorConfig::new(3.0, Behavior::Compliant),
        ])
        .fine(bound)
        .seed(7)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    assert!(out.utility(1) < honest.utility(1));
}

#[test]
fn forged_bids_are_discarded_without_framing_anyone() {
    // P2 forges a bid under P3's name. Signature verification fails, so
    // every receiver discards it (§4); the session completes and NOBODY is
    // fined — in particular not the impersonated P3 (Lemma 5.2).
    let out = run_session_vm(&session(
        SystemModel::NcpFe,
        &[
            (1.0, Behavior::Compliant),
            (2.0, Behavior::ForgeExtraBid { impersonate: 2 }),
            (3.0, Behavior::Compliant),
        ],
    ))
    .unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert!(out.fined_processors().is_empty());
    // The forged low-ball bid (0.01) must not have influenced allocation:
    // P3's fraction corresponds to its genuine bid of 3.0.
    let honest = run_session_vm(&compliant3(SystemModel::NcpFe)).unwrap();
    assert!((out.processors[2].alloc_fraction - honest.processors[2].alloc_fraction).abs() < 1e-12);
}
