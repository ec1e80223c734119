//! Adversarial property tests over the whole stack: random markets with
//! randomly assigned behaviours must always satisfy the paper's safety
//! properties — fines hit only actual deviants (Lemma 5.2), every finable
//! offence present is detected (Theorem 5.1), and money is conserved.

use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::run_session_vm;
use dls::{SessionStatus, SystemModel};
use proptest::prelude::*;

/// A random behaviour, weighted toward compliance.
fn arb_behavior(m: usize) -> impl Strategy<Value = Behavior> {
    prop_oneof![
        4 => Just(Behavior::Compliant),
        1 => (1.1f64..3.0).prop_map(|factor| Behavior::Misreport { factor }),
        1 => (1.1f64..3.0).prop_map(|factor| Behavior::Slack { factor }),
        1 => (1.5f64..3.0).prop_map(|factor| Behavior::EquivocateBids { factor }),
        1 => (0..m, 1usize..3).prop_map(|(victim, shortfall)| Behavior::ShortAllocate {
            victim,
            shortfall
        }),
        1 => (0..m, 1usize..3)
            .prop_map(|(victim, excess)| Behavior::OverAllocate { victim, excess }),
        1 => (0..m, 1.5f64..4.0)
            .prop_map(|(target, factor)| Behavior::CorruptPayments { target, factor }),
        // Skims in (1, 1 + 1e-6]: factors 1 + u·10^-k for u in [1, 2) and
        // k in 7..=15, down to a few ULPs of 1. Payment vectors are
        // compared bitwise, so each is still a detectable offence.
        1 => (0..m, 1.0f64..2.0, 7i32..16).prop_map(|(target, u, k)| {
            Behavior::CorruptPayments { target, factor: 1.0 + u * 10f64.powi(-k) }
        }),
        1 => Just(Behavior::FalselyAccuseAllocation),
        1 => (0..m).prop_map(|impersonate| Behavior::ForgeExtraBid { impersonate }),
    ]
}

fn arb_session() -> impl Strategy<Value = SessionConfig> {
    (2usize..6, any::<u64>()).prop_flat_map(|(m, seed)| {
        (
            prop::collection::vec((1.0f64..5.0, arb_behavior(m)), m..=m),
            Just(seed),
            prop::sample::select(vec![SystemModel::NcpFe, SystemModel::NcpNfe]),
        )
            .prop_filter_map("valid config", move |(procs, seed, model)| {
                let originator = model.originator(m);
                SessionConfig::builder(model, 0.2)
                    .processors(procs.iter().map(|&(w, b)| {
                        // Short/over-allocation is an originator offence;
                        // self-victimization is meaningless.
                        let b = match b {
                            Behavior::ShortAllocate { victim, .. }
                            | Behavior::OverAllocate { victim, .. }
                                if Some(victim) == originator =>
                            {
                                Behavior::Compliant
                            }
                            other => other,
                        };
                        ProcessorConfig::new(w, b)
                    }))
                    .seed(seed % 16) // bound key-generation cost
                    .blocks(40)
                    .build()
                    .ok()
            })
    })
}

/// Which processors in `cfg` actually commit a *detectable protocol
/// offence* in this session? (Originator offences only fire for the actual
/// originator; false accusations only fire when there is a grant to lie
/// about, i.e. the accuser is not the originator.)
fn expected_offenders(cfg: &SessionConfig) -> Vec<usize> {
    let orig = cfg.originator();
    cfg.processors
        .iter()
        .enumerate()
        .filter(|(i, p)| match p.behavior {
            Behavior::EquivocateBids { factor } => factor != 1.0,
            Behavior::ShortAllocate { .. } | Behavior::OverAllocate { .. } => Some(*i) == orig,
            Behavior::CorruptPayments { .. } => true,
            Behavior::FalselyAccuseAllocation => Some(*i) != orig,
            // Forged bids fail verification and are silently discarded —
            // detectable as noise, not attributable to anyone.
            Behavior::ForgeExtraBid { .. } => false,
            _ => false,
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fines_only_for_deviants_and_money_conserved(cfg in arb_session()) {
        let out = run_session_vm(&cfg).unwrap();
        let offenders = expected_offenders(&cfg);
        // Lemma 5.2: every fined processor actually deviated.
        for fined in out.fined_processors() {
            prop_assert!(
                offenders.contains(&fined),
                "P{} fined without offence ({})",
                fined + 1,
                cfg.processors[fined].behavior
            );
        }
        // Conservation.
        prop_assert!(out.ledger.conservation_error().abs() < 1e-9);
        // No offenders at all -> clean completion.
        if offenders.is_empty() {
            prop_assert_eq!(out.status.clone(), SessionStatus::Completed);
            prop_assert!(out.fined_processors().is_empty());
        }
    }

    #[test]
    fn earliest_phase_offence_is_always_detected(cfg in arb_session()) {
        let out = run_session_vm(&cfg).unwrap();
        let offenders = expected_offenders(&cfg);
        if offenders.is_empty() {
            return Ok(());
        }
        // Theorem 5.1: at least one offender is caught — specifically one
        // whose offence fires in the earliest offending phase (later
        // offences may be pre-empted by an earlier abort).
        prop_assert!(
            !out.fined_processors().is_empty(),
            "offenders {:?} but nobody fined (status {:?})",
            offenders,
            out.status
        );
        // Equivocators always abort the session at Bidding.
        let has_equivocator = cfg
            .processors
            .iter()
            .any(|p| matches!(p.behavior, Behavior::EquivocateBids { .. }));
        if has_equivocator {
            prop_assert_eq!(
                out.status.clone(),
                SessionStatus::Aborted { phase: dls::protocol::referee::Phase::Bidding }
            );
        }
    }

    #[test]
    fn compliant_processors_never_lose_to_the_fine_system(cfg in arb_session()) {
        // A compliant worker's utility from fines/rewards alone is >= 0:
        // it can be rewarded, never fined (Corollary 5.1 + Lemma 5.2).
        let out = run_session_vm(&cfg).unwrap();
        for (i, p) in out.processors.iter().enumerate() {
            if p.config.behavior == Behavior::Compliant {
                prop_assert!(p.fined == 0.0, "compliant P{} fined", i + 1);
                prop_assert!(p.rewarded >= 0.0);
            }
        }
    }
}

/// A skim far below any float-noise tolerance is still fined: for every
/// (deviant, target) pair at m ∈ {2, 4, 8}, a deviant scaling the target's
/// compensation by 1 + 5e-10 (half the former 1e-9 tolerance) is the only
/// processor fined, and the skim leaves it worse off than compliance.
#[test]
fn sub_tolerance_payment_skims_are_fined_for_every_pair() {
    for m in [2usize, 4, 8] {
        let session = |behaviors: &dyn Fn(usize) -> Behavior| {
            let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
                .processors(
                    (0..m).map(|i| ProcessorConfig::new(1.0 + 0.375 * i as f64, behaviors(i))),
                )
                .seed(7)
                .blocks(12)
                .build()
                .unwrap();
            run_session_vm(&cfg).unwrap()
        };
        let honest = session(&|_| Behavior::Compliant);
        assert_eq!(honest.status, SessionStatus::Completed);
        for deviant in 0..m {
            for target in 0..m {
                let skim = Behavior::CorruptPayments {
                    target,
                    factor: 1.0 + 5e-10,
                };
                let out = session(&|i| {
                    if i == deviant {
                        skim
                    } else {
                        Behavior::Compliant
                    }
                });
                let cell = format!("m {m} deviant P{} target P{}", deviant + 1, target + 1);
                assert_eq!(out.fined_processors(), vec![deviant], "{cell}");
                assert!(out.utility(deviant) < honest.utility(deviant), "{cell}");
                assert!(out.ledger.conservation_error().abs() < 1e-9, "{cell}");
            }
        }
    }
}
