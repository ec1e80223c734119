//! Chaos suite: every liveness-fault plan crossed with every protocol
//! phase, on both NCP models.
//!
//! The contract under test (tentpole of the fault-tolerance layer):
//!
//! * no injected fault can hang a session — a defaulted party costs at
//!   most one expired phase deadline;
//! * every [`dls_protocol::DegradationReport`] tells the truth about what
//!   was observed (kind, phase, processor) and what was done about it
//!   (exclusion + re-run before Processing, degraded completion after);
//! * a pre-Processing default re-solves to **bit-identical** survivor
//!   allocations and payments as an independent from-scratch session over
//!   the survivor bid set;
//! * a sub-budget delay is a tolerated straggler: clean report, results
//!   bit-identical to the fault-free run;
//! * the budget only bounds delays: a crash settles identically under
//!   every builder-valid budget up to `u64::MAX`, and a delay at the
//!   budget (set after `build()`) removes the party like a crash.

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig, DEFAULT_PHASE_BUDGET_MS};
use dls_protocol::fault::{FaultKind, FaultPlan};
use dls_protocol::referee::Phase;
use dls_protocol::{run_session_vm, SessionOutcome, SessionStatus};
use std::time::{Duration, Instant};

const Z: f64 = 0.25;
const W: [f64; 3] = [1.0, 1.6, 2.2];
/// Never the originator under either NCP model with m = 3.
const FAULTY: usize = 1;
const BUDGET_MS: u64 = 400;
const DELAY_MS: u64 = 50;
const SEED: u64 = 11;

const MODELS: [SystemModel; 2] = [SystemModel::NcpFe, SystemModel::NcpNfe];
const PHASES: [Phase; 4] = [
    Phase::Bidding,
    Phase::Allocating,
    Phase::Processing,
    Phase::Payments,
];

fn session(
    model: SystemModel,
    fault_of: impl Fn(usize) -> FaultPlan,
    behavior_of: impl Fn(usize) -> Behavior,
) -> SessionConfig {
    budgeted_session(model, BUDGET_MS, fault_of, behavior_of)
}

fn budgeted_session(
    model: SystemModel,
    budget_ms: u64,
    fault_of: impl Fn(usize) -> FaultPlan,
    behavior_of: impl Fn(usize) -> Behavior,
) -> SessionConfig {
    // 12 blocks keeps per-session signing cheap; the chaos matrix cares
    // about liveness, not block granularity.
    let mut b = SessionConfig::builder(model, Z)
        .seed(SEED)
        .blocks(12)
        .phase_budget_ms(budget_ms);
    for (i, &w) in W.iter().enumerate() {
        b = b.processor(ProcessorConfig::new(w, behavior_of(i)).with_fault(fault_of(i)));
    }
    b.build().unwrap()
}

/// `FAULTY` runs `plan` and everyone else is fault-free and compliant. A
/// delay at or past the budget is outside builder-valid configs, so it
/// is set after `build()`; every other plan goes through the builder.
fn faulty_session(model: SystemModel, budget_ms: u64, plan: FaultPlan) -> SessionConfig {
    let over_budget = matches!(plan, FaultPlan::DelayAt(_, ms) if ms >= budget_ms);
    let built = if over_budget { FaultPlan::None } else { plan };
    let mut cfg = budgeted_session(
        model,
        budget_ms,
        |i| if i == FAULTY { built } else { FaultPlan::None },
        |_| Behavior::Compliant,
    );
    cfg.processors[FAULTY].fault = plan;
    cfg
}

/// Runs a session and asserts the no-hang bound: a fault is detected at
/// the first barrier its victim misses, so the whole session — including
/// a survivor re-run — may exceed normal execution by at most one phase
/// budget (plus slack for slow CI machines).
fn run_timed(cfg: &SessionConfig) -> SessionOutcome {
    let start = Instant::now();
    let out = run_session_vm(cfg).expect("an injected liveness fault must degrade, not error");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(2 * BUDGET_MS + 1_000),
        "session exceeded its deadline budget by more than one phase: {elapsed:?}"
    );
    out
}

/// Asserts two outcomes settle identically: status, exclusions, fines,
/// withheld payments, and every payment by `to_bits`.
fn assert_same_settlement(a: &SessionOutcome, b: &SessionOutcome, tag: &str) {
    assert_eq!(a.status, b.status, "{tag} status");
    assert_eq!(
        a.degradation.excluded, b.degradation.excluded,
        "{tag} excluded"
    );
    assert_eq!(
        a.degradation.withheld_payments, b.degradation.withheld_payments,
        "{tag} withheld"
    );
    let fines = |o: &SessionOutcome| {
        let default_fines: Vec<(usize, u64)> = o
            .degradation
            .default_fines
            .iter()
            .map(|&(i, f)| (i, f.to_bits()))
            .collect();
        let fined: Vec<u64> = o.processors.iter().map(|p| p.fined.to_bits()).collect();
        (default_fines, fined)
    };
    assert_eq!(fines(a), fines(b), "{tag} fines");
    let payments = |o: &SessionOutcome| -> Vec<Option<(u64, u64)>> {
        o.processors
            .iter()
            .map(|p| {
                p.payment
                    .map(|q| (q.compensation.to_bits(), q.bonus.to_bits()))
            })
            .collect()
    };
    assert_eq!(payments(a), payments(b), "{tag} payments");
}

/// Bit-compares every non-`skip` processor's allocation, meter and
/// payment between two outcomes, plus the realized makespan.
fn assert_survivors_bit_identical(a: &SessionOutcome, b: &SessionOutcome, skip: usize, tag: &str) {
    for (i, (pa, pb)) in a.processors.iter().zip(&b.processors).enumerate() {
        if i == skip {
            continue;
        }
        let p = i + 1;
        assert_eq!(
            pa.alloc_fraction.to_bits(),
            pb.alloc_fraction.to_bits(),
            "{tag} P{p} alloc: {} vs {}",
            pa.alloc_fraction,
            pb.alloc_fraction
        );
        assert_eq!(pa.blocks_granted, pb.blocks_granted, "{tag} P{p} blocks");
        assert_eq!(pa.meter.to_bits(), pb.meter.to_bits(), "{tag} P{p} meter");
        let qa = pa.payment.unwrap_or_else(|| panic!("{tag} P{p}: payment missing"));
        let qb = pb.payment.unwrap_or_else(|| panic!("{tag} P{p}: payment missing"));
        assert_eq!(
            qa.compensation.to_bits(),
            qb.compensation.to_bits(),
            "{tag} P{p} compensation: {} vs {}",
            qa.compensation,
            qb.compensation
        );
        assert_eq!(
            qa.bonus.to_bits(),
            qb.bonus.to_bits(),
            "{tag} P{p} bonus: {} vs {}",
            qa.bonus,
            qb.bonus
        );
    }
    assert_eq!(
        a.makespan.map(f64::to_bits),
        b.makespan.map(f64::to_bits),
        "{tag} makespan"
    );
}

/// The full `{Crash,Mute,Delay,Garbage} × {Bidding,Allocating,Processing,
/// Payments} × {NCP-FE,NCP-NFE}` matrix.
#[test]
fn fault_matrix_never_hangs_and_reports_truthfully() {
    for model in MODELS {
        let clean = run_timed(&session(model, |_| FaultPlan::None, |_| Behavior::Compliant));
        assert!(clean.degradation.is_clean(), "{model}: baseline not clean");
        for phase in PHASES {
            let cells = [
                (FaultPlan::CrashAt(phase), Some(FaultKind::Crash)),
                (FaultPlan::MuteAt(phase), Some(FaultKind::Omission)),
                (FaultPlan::GarbageAt(phase), Some(FaultKind::Garbage)),
                (FaultPlan::DelayAt(phase, DELAY_MS), None),
                // A delay at the budget misses the deadline: the live
                // party is removed at the barrier like a crash.
                (FaultPlan::DelayAt(phase, BUDGET_MS), Some(FaultKind::Crash)),
            ];
            for (plan, kind) in cells {
                let cfg = faulty_session(model, BUDGET_MS, plan);
                let out = run_timed(&cfg);
                let tag = format!("{model}, {plan}");
                if let FaultPlan::DelayAt(_, BUDGET_MS) = plan {
                    // A live party removed at the deadline keeps its
                    // partial result, bid included, like a crashed one.
                    assert_eq!(out.processors[FAULTY].bid, Some(W[FAULTY]), "{tag}");
                }
                if let FaultPlan::CrashAt(_) = plan {
                    // The budget only bounds delays: a crash settles the
                    // same under the default budget and under the largest
                    // one the builder accepts.
                    for budget in [DEFAULT_PHASE_BUDGET_MS, u64::MAX] {
                        let other = run_timed(&faulty_session(model, budget, plan));
                        assert_same_settlement(&other, &out, &format!("{tag}, budget {budget}"));
                    }
                }
                let Some(kind) = kind else {
                    // A sub-budget delay is a tolerated straggler: the
                    // session completes clean and bit-identical.
                    assert!(out.degradation.is_clean(), "{tag}: {}", out.degradation);
                    assert_eq!(out.status, SessionStatus::Completed, "{tag}");
                    assert_survivors_bit_identical(&out, &clean, usize::MAX, &tag);
                    continue;
                };
                // The report names the right processor, phase and kind.
                assert!(
                    out.degradation
                        .faults_at(phase)
                        .iter()
                        .any(|f| f.processor == FAULTY && f.kind == kind),
                    "{tag}: faults = {:?}",
                    out.degradation.faults
                );
                if phase < Phase::Processing {
                    // Pre-Processing default: fined per the §4 schedule,
                    // excluded, survivors re-ran over the remaining bids.
                    assert_eq!(out.degradation.excluded, vec![FAULTY], "{tag}");
                    assert_eq!(out.degradation.rounds, 2, "{tag}");
                    assert_eq!(
                        out.degradation.default_fines,
                        vec![(FAULTY, cfg.fine)],
                        "{tag}"
                    );
                    assert_eq!(out.status, SessionStatus::CompletedWithFines, "{tag}");
                    assert!(out.processors[FAULTY].payment.is_none(), "{tag}");
                    assert!(
                        out.processors[FAULTY].fined >= cfg.fine,
                        "{tag}: fined {}",
                        out.processors[FAULTY].fined
                    );
                } else {
                    // During/after Processing: degraded completion, never
                    // a rollback or re-run.
                    assert_eq!(out.degradation.rounds, 1, "{tag}");
                    assert!(out.degradation.excluded.is_empty(), "{tag}");
                    assert!(out.degradation.default_fines.is_empty(), "{tag}");
                    // The payment vector is missing exactly when the fault
                    // silences the Payments phase itself, or the party was
                    // removed at a barrier before it. A delay postpones a
                    // party's arrival, not its messages, so an over-budget
                    // delay at Payments still delivers the vector; the late
                    // party must not gain by it.
                    let delivered_late = matches!(plan, FaultPlan::DelayAt(Phase::Payments, _));
                    let late = &out.processors[FAULTY];
                    let honest = clean.processors[FAULTY].utility;
                    assert!(!delivered_late || late.utility <= honest, "{tag}: {late:?}");
                    let vector_missing =
                        !delivered_late && (phase == Phase::Payments || kind == FaultKind::Crash);
                    if vector_missing {
                        assert_eq!(
                            out.degradation.withheld_payments,
                            vec![FAULTY],
                            "{tag}"
                        );
                        assert!(out.processors[FAULTY].payment.is_none(), "{tag}");
                        // The missing vector is fined by the ordinary §4
                        // payment adjudication, not a special case.
                        assert_eq!(out.status, SessionStatus::CompletedWithFines, "{tag}");
                        assert_eq!(out.processors[FAULTY].fined, cfg.fine, "{tag}");
                    } else {
                        // Mute/garbage at Processing only loses the meter:
                        // everyone falls back to the bid consistently, the
                        // vectors agree, and nobody is fined. A late vector
                        // was delivered, so it is paid too.
                        assert!(out.degradation.withheld_payments.is_empty(), "{tag}");
                        assert!(out.processors[FAULTY].payment.is_some(), "{tag}");
                        assert_eq!(out.status, SessionStatus::Completed, "{tag}");
                    }
                    // Survivors are always paid in a degraded completion.
                    for i in (0..W.len()).filter(|&i| i != FAULTY) {
                        assert!(
                            out.processors[i].payment.is_some(),
                            "{tag}: P{} unpaid",
                            i + 1
                        );
                    }
                }
            }
        }
    }
}

/// The fault-free compliant session at `blocks` blocks.
fn clean_session(model: SystemModel, blocks: usize) -> SessionConfig {
    let mut cfg = session(model, |_| FaultPlan::None, |_| Behavior::Compliant);
    cfg.blocks = blocks;
    cfg
}

/// Faults must never pay (Thm 5.1): for every faulty index, both NCP
/// models and 12, 60 or 120 blocks, a party absent during or after
/// Processing — crashed, or removed at the barrier after a delay at the
/// budget — ends no better off than complying, no compliant party is
/// fined, and the ledger balances.
#[test]
fn absent_parties_never_gain() {
    let plans = [
        FaultPlan::CrashAt(Phase::Processing),
        FaultPlan::CrashAt(Phase::Payments),
        FaultPlan::DelayAt(Phase::Processing, BUDGET_MS),
        FaultPlan::DelayAt(Phase::Payments, BUDGET_MS),
    ];
    for model in MODELS {
        for blocks in [12, 60, 120] {
            let clean = run_timed(&clean_session(model, blocks));
            for faulty in 0..W.len() {
                for plan in plans {
                    let tag = format!("{model}, {blocks} blocks, P{} {plan}", faulty + 1);
                    let mut cfg = clean_session(model, blocks);
                    cfg.processors[faulty].fault = plan;
                    let out = run_timed(&cfg);
                    let (got, honest) = (&out.processors[faulty], &clean.processors[faulty]);
                    assert!(got.utility <= honest.utility, "{tag}: {got:?} vs {honest:?}");
                    for (i, p) in out.processors.iter().enumerate().filter(|&(i, _)| i != faulty) {
                        assert_eq!(p.fined, 0.0, "{tag}: compliant P{} fined", i + 1);
                    }
                    assert!(out.ledger.conservation_error().abs() < 1e-9, "{tag}: ledger");
                }
            }
        }
    }
}

/// Acceptance bar: a pre-Processing default's survivor re-run must be
/// bit-identical to an independent from-scratch session over the survivor
/// bid set (modelled as the faulty processor sitting out).
#[test]
fn pre_processing_defaults_resolve_to_the_independent_survivor_run() {
    for model in MODELS {
        let ghost = run_timed(&session(
            model,
            |_| FaultPlan::None,
            |i| {
                if i == FAULTY {
                    Behavior::NonParticipant
                } else {
                    Behavior::Compliant
                }
            },
        ));
        for phase in [Phase::Bidding, Phase::Allocating] {
            for plan in [
                FaultPlan::CrashAt(phase),
                FaultPlan::MuteAt(phase),
                FaultPlan::GarbageAt(phase),
            ] {
                let faulted = run_timed(&session(
                    model,
                    |i| if i == FAULTY { plan } else { FaultPlan::None },
                    |_| Behavior::Compliant,
                ));
                let tag = format!("{model}, {plan}");
                assert_survivors_bit_identical(&faulted, &ghost, FAULTY, &tag);
                assert!(faulted.processors[FAULTY].payment.is_none(), "{tag}");
            }
        }
    }
}

/// The load originator itself defaulting at Allocating is the nastiest
/// pre-Processing case: no grants ever go out, the survivors have nothing
/// signed to accuse with, and the referee's deadline/sweep machinery must
/// still detect, exclude and re-run with a new head promoted.
#[test]
fn originator_faults_at_allocating_promote_a_new_head() {
    for model in MODELS {
        let orig = model.originator(W.len()).unwrap();
        let ghost = run_timed(&session(
            model,
            |_| FaultPlan::None,
            |i| {
                if i == orig {
                    Behavior::NonParticipant
                } else {
                    Behavior::Compliant
                }
            },
        ));
        for plan in [
            FaultPlan::CrashAt(Phase::Allocating),
            FaultPlan::MuteAt(Phase::Allocating),
            FaultPlan::GarbageAt(Phase::Allocating),
        ] {
            let faulted = run_timed(&session(
                model,
                |i| if i == orig { plan } else { FaultPlan::None },
                |_| Behavior::Compliant,
            ));
            let tag = format!("{model}, originator {plan}");
            assert_eq!(faulted.degradation.excluded, vec![orig], "{tag}");
            assert_eq!(faulted.degradation.rounds, 2, "{tag}");
            assert_eq!(faulted.status, SessionStatus::CompletedWithFines, "{tag}");
            assert_survivors_bit_identical(&faulted, &ghost, orig, &tag);
        }
    }
}

/// A strategic offence that aborts the session (equivocation) takes
/// precedence over a concurrent liveness default: the session ends
/// `Aborted`, nobody re-runs, and both offenders are fined.
#[test]
fn strategic_abort_takes_precedence_over_liveness_defaults() {
    let cfg = SessionConfig::builder(SystemModel::NcpFe, Z)
        .seed(SEED)
        .phase_budget_ms(BUDGET_MS)
        .processor(ProcessorConfig::new(W[0], Behavior::Compliant))
        .processor(
            ProcessorConfig::new(W[1], Behavior::Compliant)
                .with_fault(FaultPlan::CrashAt(Phase::Bidding)),
        )
        .processor(ProcessorConfig::new(
            W[2],
            Behavior::EquivocateBids { factor: 2.0 },
        ))
        .build()
        .unwrap();
    let out = run_timed(&cfg);
    assert_eq!(
        out.status,
        SessionStatus::Aborted {
            phase: Phase::Bidding
        }
    );
    assert_eq!(out.degradation.rounds, 1);
    assert!(out.degradation.excluded.is_empty(), "no re-run on abort");
    assert!(out
        .degradation
        .faults_at(Phase::Bidding)
        .iter()
        .any(|f| f.processor == 1 && f.kind == FaultKind::Crash));
    assert!(out.processors[2].fined > 0.0, "equivocator fined");
    assert!(out.processors[1].fined > 0.0, "defaulter fined");
}

/// Tier-1 smoke: the cheapest fault in the matrix, kept standalone so the
/// termination property is exercised even when the full matrix is
/// filtered out.
#[test]
fn crash_at_bidding_terminates_within_budget() {
    let cfg = session(
        SystemModel::NcpFe,
        |i| {
            if i == FAULTY {
                FaultPlan::CrashAt(Phase::Bidding)
            } else {
                FaultPlan::None
            }
        },
        |_| Behavior::Compliant,
    );
    let out = run_timed(&cfg); // asserts the wall-clock bound
    assert_eq!(out.degradation.excluded, vec![FAULTY]);
    assert_eq!(out.status, SessionStatus::CompletedWithFines);
}
