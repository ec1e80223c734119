//! Differential suite for the event-driven session executor. The oracle
//! is a table of frozen outcome digests: the SHA-256 of
//! `format!("{outcome:?}")` for every cell of the matrix, recorded from
//! the thread-per-party runtime (one OS thread per processor and one for
//! the referee, condvar phase barriers, real-time deadlines) at commit
//! 6754f5bd880b, where this suite asserted that runtime and the executor
//! bit-identical. That runtime has since been removed. Every execution
//! path must still reproduce the frozen outcomes:
//! [`dls_protocol::run_session_vm`], the static pool
//! ([`dls_protocol::run_session_pooled_with`]) and the work-stealing
//! service ([`dls_protocol::ServiceHandle`]). Between the paths the suite
//! also compares outcomes field by field — allocations, payments, fines,
//! rewards, utilities, message accounting, ledger journal, timeline, and
//! fault-plan degradation reports.
//!
//! Float equality here is `to_bits` (or whole-structure `Debug` equality,
//! which formats floats as their shortest round-trip representation and is
//! therefore also bit-exact); nothing is compared with a tolerance.
//!
//! The matrix: both NCP models × {truthful, each strategic behavior, each
//! liveness-fault plan}, plus the uneven-shard regression (5 sessions on
//! 4 workers — the shape of an earlier batch-sizing bug).

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::fault::FaultPlan;
use dls_protocol::referee::Phase;
use dls_protocol::service::{ServiceConfig, ServiceHandle};
use dls_protocol::{run_session_pooled_with, run_session_vm, SessionOutcome};

/// `(cell, hex SHA-256 of the outcome's Debug rendering)`, frozen from the
/// thread-per-party runtime at commit 6754f5bd880b (see the module docs).
#[rustfmt::skip]
const FROZEN: &[(&str, &str)] = &[
    ("truthful/NcpFe", "ceca5f4f17c763c6e85a6261a9325b973e2b5680d5efd0fe7c66abb7eb93f68f"),
    ("truthful/NcpNfe", "5b32ba5206aa402c6ebb3e06ea10447dece748d347e60fc0b36938099aae513a"),
    ("strategic/misreport/NcpFe", "3a65d8ab9de79a446789bc8a111a46104ddcb297efe387f2c5401daf3529b52f"),
    ("strategic/slack/NcpFe", "4bcec916a9d9c6343692c69c4ab85338ba1b95468ac91ee98237655ed490f16b"),
    ("strategic/equivocate/NcpFe", "8bf466a35e3deb39f8d0945893309de9fb45501e919b494ea8a787fc70766fb1"),
    ("strategic/short-allocate/NcpFe", "a91d2fdc7749326109a94b73b3ba3448f3b4ddb32dcca0413df462d5f483e5f3"),
    ("strategic/over-allocate/NcpFe", "e83cbaeb698b4add5a5dc8694f63edcf5bcfa04de82e685dea95763342ee42f4"),
    ("strategic/corrupt-payments/NcpFe", "4d448faae09e87ce6a7ab3008d05f6c3169f5fe0f753544545daac1087769782"),
    ("strategic/false-accusation/NcpFe", "ec9dab61f57e66a7c13a3499587a4993e1403f0f8725ea75649c12e238117948"),
    ("strategic/forged-bid/NcpFe", "890f81fdd313c1011087f23461a82bab616c76667712f9b2c6d72cabf8931cef"),
    ("strategic/non-participant/NcpFe", "36ef4c348cd41cdf518992c2d05a87bc67fec33b83a5d5344f16080d7384b391"),
    ("strategic/misreport/NcpNfe", "124a53a95196e3595b56df91c8c97223937c75b96ab428be1a51087f25baef0d"),
    ("strategic/slack/NcpNfe", "d27e495572dfe1306f36f8eff282a4ac1fc5f191d6d73695e776306255e13b3c"),
    ("strategic/equivocate/NcpNfe", "27d68ec8c0fb0b3f57562eab1676b421a20cad0ea98b9863b98e44d649942e6e"),
    ("strategic/short-allocate/NcpNfe", "f0d22b5a46553da72dcafb70a8d076a3049d419da98d9fc6212cc0de3f90ae32"),
    ("strategic/over-allocate/NcpNfe", "c175be2d3ae86e262d06e76f9f33487a345848d07d0de9bdb275553a4fcd9d30"),
    ("strategic/corrupt-payments/NcpNfe", "c2de411b41a14df59edad8a2bafe45c2053c37b9dbd1cc3b2d92288b80a32d41"),
    ("strategic/false-accusation/NcpNfe", "b69a5658090317f05980e18a078a7e1c25d5fb910afb08da456f2610528d4c89"),
    ("strategic/forged-bid/NcpNfe", "0d6076da3257e3e94ad5ca837d302452dabf691a13beda04729082310fbfcea1"),
    ("strategic/non-participant/NcpNfe", "17f051ec82a16310886af76be8f01a7175620044c8320d7d66b914c326bc350a"),
    ("fault/crash-bidding/NcpFe", "a685cf536ec8a111b92279c2bc027b382f200f4488c6f94657dd835e54019363"),
    ("fault/crash-allocating/NcpFe", "6384f149ea8407f4571ba2f2b740e70f3551029637cf431ca678714147b5efec"),
    ("fault/crash-processing/NcpFe", "636bc56e0465b14dc70e8604562a8ddefdda5f4511b04b2896e0afe70360ba70"),
    ("fault/crash-payments/NcpFe", "d4f76d2d7716169ed2b2444f429e24dad325b9c4d4316bc831979fdd63c79abd"),
    ("fault/mute-bidding/NcpFe", "38b9c065337a64152162a752f88d4e8482295ee5d3c45900f2df30a986ef930c"),
    ("fault/garbage-payments/NcpFe", "1682032065586666f863db90583252bebaa639c27c0dd5997fac99e637ef8975"),
    ("fault/delay-bidding/NcpFe", "d851b0a2be0fca7ddfc51acd4816b3a26e3e1d2b7fb2a005a98cf757139243c3"),
    ("fault/crash-bidding/NcpNfe", "193b8524d56ef6f1782f8fb774c0ac8d495e6ff6b744af21c298a1036f178ee0"),
    ("fault/crash-allocating/NcpNfe", "2a6783717a03c71285ef25aad5725debb16bf7847948f5db4496f1d04b4fd9b8"),
    ("fault/crash-processing/NcpNfe", "3d685548687e3cd634c42a33bdc1741b91c33b4490e45e7f3c912f429cf60b3c"),
    ("fault/crash-payments/NcpNfe", "15d9da148d8067cb38ac9655837f5fa24395faa946d9d2b9ec3a3ea5de42bcd0"),
    ("fault/mute-bidding/NcpNfe", "7f718b87fd0d43ed11e9203ef8e15e8e4e981c519920874c00057c82efd0569b"),
    ("fault/garbage-payments/NcpNfe", "144e1f67766e4f4fbf1ae76d62ef2539929b0311abf90d89cbeb326072819a1c"),
    ("fault/delay-bidding/NcpNfe", "d214ffb28aefa11ecf5037620bee0f658c54d59ef682bb696f93bc572aa5f7f5"),
    ("uneven-shard/0", "ceca5f4f17c763c6e85a6261a9325b973e2b5680d5efd0fe7c66abb7eb93f68f"),
    ("uneven-shard/1", "ceca5f4f17c763c6e85a6261a9325b973e2b5680d5efd0fe7c66abb7eb93f68f"),
    ("uneven-shard/2", "1a0407fccfdd949c08ee4a062148f83499ca40eb2556761a66f108e73f423278"),
    ("uneven-shard/3", "636bc56e0465b14dc70e8604562a8ddefdda5f4511b04b2896e0afe70360ba70"),
    ("uneven-shard/4", "ceca5f4f17c763c6e85a6261a9325b973e2b5680d5efd0fe7c66abb7eb93f68f"),
];

const Z: f64 = 0.25;
const W: [f64; 4] = [1.0, 1.6, 2.2, 3.1];
const SEED: u64 = 23;
/// The phase budget the digests were frozen under (`DelayAt` below it is
/// a tolerated straggler).
const BUDGET_MS: u64 = 400;

const MODELS: [SystemModel; 2] = [SystemModel::NcpFe, SystemModel::NcpNfe];

fn session(
    model: SystemModel,
    behavior_of: impl Fn(usize) -> Behavior,
    fault_of: impl Fn(usize) -> FaultPlan,
) -> SessionConfig {
    let mut b = SessionConfig::builder(model, Z)
        .seed(SEED)
        .blocks(12)
        .phase_budget_ms(BUDGET_MS);
    for (i, &w) in W.iter().enumerate() {
        b = b.processor(ProcessorConfig::new(w, behavior_of(i)).with_fault(fault_of(i)));
    }
    b.build().expect("differential config must be builder-valid")
}

/// Bit-exact outcome equality: targeted per-field assertions first (for
/// readable failures), then whole-structure `Debug` equality as the
/// catch-all (covers ledger journal, timeline, every degradation field).
fn assert_outcomes_identical(oracle: &SessionOutcome, candidate: &SessionOutcome, what: &str) {
    assert_eq!(oracle.status, candidate.status, "{what}: status");
    assert_eq!(
        oracle.fine.to_bits(),
        candidate.fine.to_bits(),
        "{what}: fine"
    );
    assert_eq!(oracle.messages, candidate.messages, "{what}: message stats");
    assert_eq!(
        oracle.processors.len(),
        candidate.processors.len(),
        "{what}: processor count"
    );
    for (i, (a, b)) in oracle
        .processors
        .iter()
        .zip(&candidate.processors)
        .enumerate()
    {
        assert_eq!(a.participated, b.participated, "{what}: P{i} participated");
        assert_eq!(a.bid, b.bid, "{what}: P{i} bid");
        assert_eq!(
            a.alloc_fraction.to_bits(),
            b.alloc_fraction.to_bits(),
            "{what}: P{i} alloc fraction"
        );
        assert_eq!(a.blocks_granted, b.blocks_granted, "{what}: P{i} blocks");
        assert_eq!(a.meter.to_bits(), b.meter.to_bits(), "{what}: P{i} meter");
        assert_eq!(a.fined.to_bits(), b.fined.to_bits(), "{what}: P{i} fined");
        assert_eq!(
            a.rewarded.to_bits(),
            b.rewarded.to_bits(),
            "{what}: P{i} rewarded"
        );
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: P{i} cost");
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{what}: P{i} utility"
        );
    }
    assert_eq!(
        oracle.makespan.map(f64::to_bits),
        candidate.makespan.map(f64::to_bits),
        "{what}: makespan"
    );
    assert_eq!(
        oracle.degradation.faults, candidate.degradation.faults,
        "{what}: degradation faults"
    );
    assert_eq!(
        oracle.degradation.excluded, candidate.degradation.excluded,
        "{what}: degradation exclusions"
    );
    assert_eq!(
        oracle.degradation.rounds, candidate.degradation.rounds,
        "{what}: rounds"
    );
    assert_eq!(
        oracle.degradation.withheld_payments, candidate.degradation.withheld_payments,
        "{what}: withheld payments"
    );
    assert_eq!(
        format!("{oracle:?}"),
        format!("{candidate:?}"),
        "{what}: full-structure Debug equality"
    );
}

/// Hex SHA-256 of an outcome's `Debug` rendering.
fn outcome_digest(outcome: &SessionOutcome) -> String {
    dls_crypto::sha256::to_hex(&dls_crypto::sha256::digest(
        format!("{outcome:?}").as_bytes(),
    ))
}

fn frozen(cell: &str) -> &'static str {
    FROZEN
        .iter()
        .find(|(name, _)| *name == cell)
        .map(|(_, digest)| *digest)
        .unwrap_or_else(|| panic!("{cell}: no frozen digest"))
}

/// Runs every `(cell, config)` on the single-session entry point, the
/// static pool (4 workers) and the work-stealing service; each outcome
/// must match the cell's frozen digest, and the pooled and service
/// outcomes must equal the single-session one field by field. Returns
/// the single-session outcomes.
fn check_cells(cells: &[(String, SessionConfig)]) -> Vec<SessionOutcome> {
    let cfgs: Vec<SessionConfig> = cells.iter().map(|(_, cfg)| cfg.clone()).collect();
    let pooled = run_session_pooled_with(&cfgs, 4);
    assert_eq!(pooled.len(), cells.len());
    let svc = ServiceHandle::start(ServiceConfig::stealing(2)).expect("service starts");
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|cfg| svc.submit(cfg.clone()).expect("service admits the session"))
        .collect();
    let mut outcomes = Vec::with_capacity(cells.len());
    for (((cell, cfg), pooled), ticket) in cells.iter().zip(&pooled).zip(tickets) {
        let vm = run_session_vm(cfg).unwrap_or_else(|e| panic!("{cell}: vm failed: {e}"));
        let pooled = pooled
            .as_ref()
            .unwrap_or_else(|e| panic!("{cell}: pooled failed: {e}"));
        let served = svc
            .wait(ticket)
            .unwrap_or_else(|| panic!("{cell}: service ticket vanished"))
            .outcome
            .unwrap_or_else(|e| panic!("{cell}: service failed: {e:?}"));
        assert_outcomes_identical(&vm, pooled, &format!("{cell} (pooled)"));
        assert_outcomes_identical(&vm, &served, &format!("{cell} (service)"));
        for (path, outcome) in [("vm", &vm), ("pooled", pooled), ("service", &served)] {
            assert_eq!(
                outcome_digest(outcome),
                frozen(cell),
                "{cell}: {path} outcome differs from the frozen threaded outcome"
            );
        }
        outcomes.push(vm);
    }
    svc.shutdown();
    outcomes
}

#[test]
fn truthful_sessions_bit_identical_both_models() {
    let cells: Vec<(String, SessionConfig)> = MODELS
        .into_iter()
        .map(|model| {
            let cfg = session(model, |_| Behavior::Compliant, |_| FaultPlan::None);
            (format!("truthful/{model:?}"), cfg)
        })
        .collect();
    check_cells(&cells);
}

#[test]
fn strategic_behaviors_bit_identical_both_models() {
    let mut cells = Vec::new();
    for model in MODELS {
        let m = W.len();
        let orig = model
            .originator(m)
            .expect("NCP models always have an originator");
        let victim = (orig + 1) % m;
        // One deviant per session; the deviant index is chosen so the
        // behavior actually bites (originator offences on the originator,
        // everything else on a non-originator).
        let scenarios: Vec<(&str, usize, Behavior)> = vec![
            ("misreport", victim, Behavior::Misreport { factor: 1.4 }),
            ("slack", victim, Behavior::Slack { factor: 1.5 }),
            (
                "equivocate",
                victim,
                Behavior::EquivocateBids { factor: 1.3 },
            ),
            (
                "short-allocate",
                orig,
                Behavior::ShortAllocate {
                    victim,
                    shortfall: 1,
                },
            ),
            (
                "over-allocate",
                orig,
                Behavior::OverAllocate { victim, excess: 2 },
            ),
            (
                "corrupt-payments",
                victim,
                Behavior::CorruptPayments {
                    target: orig,
                    factor: 2.0,
                },
            ),
            (
                "false-accusation",
                victim,
                Behavior::FalselyAccuseAllocation,
            ),
            (
                "forged-bid",
                victim,
                Behavior::ForgeExtraBid {
                    impersonate: (victim + 1) % m,
                },
            ),
            ("non-participant", victim, Behavior::NonParticipant),
        ];
        for (name, deviant, behavior) in scenarios {
            let cfg = session(
                model,
                |i| if i == deviant { behavior } else { Behavior::Compliant },
                |_| FaultPlan::None,
            );
            cells.push((format!("strategic/{name}/{model:?}"), cfg));
        }
    }
    check_cells(&cells);
}

#[test]
fn fault_plans_bit_identical_including_degradation_reports() {
    let mut cells = Vec::new();
    for model in MODELS {
        let m = W.len();
        let orig = model
            .originator(m)
            .expect("NCP models always have an originator");
        let faulty = (orig + 2) % m;
        let plans: Vec<(&str, FaultPlan)> = vec![
            ("crash-bidding", FaultPlan::CrashAt(Phase::Bidding)),
            ("crash-allocating", FaultPlan::CrashAt(Phase::Allocating)),
            ("crash-processing", FaultPlan::CrashAt(Phase::Processing)),
            ("crash-payments", FaultPlan::CrashAt(Phase::Payments)),
            ("mute-bidding", FaultPlan::MuteAt(Phase::Bidding)),
            ("garbage-payments", FaultPlan::GarbageAt(Phase::Payments)),
            ("delay-bidding", FaultPlan::DelayAt(Phase::Bidding, 50)),
        ];
        for (name, plan) in plans {
            let cfg = session(
                model,
                |_| Behavior::Compliant,
                |i| if i == faulty { plan } else { FaultPlan::None },
            );
            cells.push((format!("fault/{name}/{model:?}"), cfg));
        }
    }
    let outcomes = check_cells(&cells);
    for ((what, _), vm) in cells.iter().zip(&outcomes) {
        // The crash/mute/garbage plans must actually degrade — a
        // vacuously clean report would not test the claim.
        let expect_clean = what.starts_with("fault/delay");
        assert_eq!(
            vm.degradation.is_clean(),
            expect_clean,
            "{what}: degradation cleanliness"
        );
    }
}

#[test]
fn uneven_shard_pooled_matches_threaded_per_session() {
    // 5 sessions over 4 workers: worker 0 owns sessions {0, 4}, the rest
    // one each — the non-tiling shape from an earlier batch-sizing bug.
    // Sessions differ (varying seeds and one injected fault) so a
    // misrouted or dropped shard cannot pass by accident.
    let cells: Vec<(String, SessionConfig)> = (0..5u64)
        .map(|k| {
            let mut cfg = session(
                SystemModel::NcpFe,
                |i| {
                    if k == 2 && i == 1 {
                        Behavior::Misreport { factor: 1.2 }
                    } else {
                        Behavior::Compliant
                    }
                },
                |i| {
                    if k == 3 && i == 2 {
                        FaultPlan::CrashAt(Phase::Processing)
                    } else {
                        FaultPlan::None
                    }
                },
            );
            cfg.seed = SEED + k;
            (format!("uneven-shard/{k}"), cfg)
        })
        .collect();
    check_cells(&cells);
}

#[test]
fn frozen_table_covers_the_matrix_once() {
    // 2 truthful + 18 strategic + 14 fault-plan cells + 5 uneven-shard
    // sessions; no cell may be dropped or listed twice.
    assert_eq!(FROZEN.len(), 39);
    for (i, (name, digest)) in FROZEN.iter().enumerate() {
        assert_eq!(digest.len(), 64, "{name}: digest is not hex SHA-256");
        assert!(
            FROZEN.iter().skip(i + 1).all(|(other, _)| other != name),
            "{name}: listed twice"
        );
    }
}
