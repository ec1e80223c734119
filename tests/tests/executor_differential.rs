//! Differential suite for the event-driven session executor. The oracle
//! is a table of frozen outcome digests: the SHA-256 of
//! `format!("{outcome:?}")` for every cell of the matrix, recorded from
//! the thread-per-party runtime (one OS thread per processor and one for
//! the referee, condvar phase barriers, real-time deadlines) at commit
//! 6754f5bd880b, where this suite asserted that runtime and the executor
//! bit-identical. That runtime has since been removed. The full digests
//! were re-frozen once since, from the executor, when signatures and
//! block payloads started to encode as framed byte strings: the outcomes'
//! message byte counts moved, and the wire-neutral column below held. So
//! the full column no longer comes from the removed runtime; the
//! wire-neutral column is what still ties it to those outcomes. Every execution
//! path must still reproduce the frozen outcomes:
//! [`dls_protocol::run_session_vm`] and the service
//! ([`dls_protocol::ServiceHandle`]) under static-shard and work-stealing
//! placement. Between the paths the suite
//! also compares outcomes field by field — allocations, payments, fines,
//! rewards, utilities, message accounting, ledger journal, timeline, and
//! fault-plan degradation reports.
//!
//! Float equality here is `to_bits` (or whole-structure `Debug` equality,
//! which formats floats as their shortest round-trip representation and is
//! therefore also bit-exact); nothing is compared with a tolerance.
//!
//! Each cell carries a second frozen digest over a *wire-neutral*
//! rendering of the outcome: no signature bytes and no byte counts, but
//! everything else — allocations, payments by `to_bits`, fines, verdicts,
//! degradation reports, ledger, timeline and message *counts* per
//! category. A change to the signed wire format (the canonical encoding,
//! the signature scheme) moves the full digests but must leave this
//! column untouched; re-freeze the full column only after this one
//! passes unchanged.
//!
//! The matrix: both NCP models × {truthful, each strategic behavior, each
//! liveness-fault plan}, plus the uneven-shard regression (5 sessions on
//! 4 workers — the shape of an earlier batch-sizing bug).

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::fault::FaultPlan;
use dls_protocol::referee::Phase;
use dls_protocol::service::{ServiceConfig, ServiceHandle};
use dls_protocol::{run_session_vm, SessionOutcome};

/// `(cell, hex SHA-256 of the outcome's Debug rendering, hex SHA-256 of
/// its wire-neutral rendering)`. The wire-neutral digests were frozen from
/// the executor at commit fef4db1ba7ef, before the byte-string encoding of
/// signed bodies changed; the full digests after that change, once the
/// wire-neutral column passed unchanged (see the module docs).
#[rustfmt::skip]
const FROZEN: &[(&str, &str, &str)] = &[
    ("truthful/NcpFe", "4ca35b54e5b2dfd8d261991ae83a52186955762e5b5809e945311c3d35713ac8", "4b6ddccae2c3b519b8b5d0484a43ba396de947253980c87523f123e1f2de9d7a"),
    ("truthful/NcpNfe", "e96e10eeebacdb79c6e353153f8d0ca32c6f1dac3ebf91cdf9da7a6f01baaf39", "f5dfe241e13e3268c7a2124857339a174b04fc1a871738c12893a5fc271b84a0"),
    ("strategic/misreport/NcpFe", "7ebccf0becf52e6a3fd2fca75053fba603ef1b5ec93361942edc4f12d40de5b9", "a6aa58367af1ef64ad284e94bc7bb5249fac58a1de0b0f8ad3ae3e9c60fbefcc"),
    ("strategic/slack/NcpFe", "ae06d8599cc104e36854bae6a5bf2cc7d465a613d9f02c6f407284c8c9a78464", "a24e310aa8ce837bdfc2ee2b493482901dbacbb6db5909a15be80c920c459de6"),
    ("strategic/equivocate/NcpFe", "8bf466a35e3deb39f8d0945893309de9fb45501e919b494ea8a787fc70766fb1", "b43dc0147a0c03e718f7d3b92e6e6bf8a6c494fc8a36f78c55eaa8acce89f8e3"),
    ("strategic/short-allocate/NcpFe", "bbe11a2a11e28bb54685e68a819306f247075077e4d0697dcf4264d0e03f0f7b", "ed48fcfe8f7b89bb81ad17611398c774bc274adca425878beb01f3ea61b54565"),
    ("strategic/over-allocate/NcpFe", "ba4ba79aaa04f01575f2dadd2fc8f753985c35326e8dd6e8e55ca2dbbee1f53d", "7e43549954b3a20eee9fc117f683bbf2a4e3695b7929973cc854c7aa87850030"),
    ("strategic/corrupt-payments/NcpFe", "2c8f9746b6d6e712f3e8f8899b6127e8d4306432f17935df9cbfc64a34595d41", "e6dc8c06a893f08af2ed666041623b484e0f347634d153a70723e544101969e7"),
    ("strategic/false-accusation/NcpFe", "471462d92398e18a0bedb355417718b3d45aaf7d1106252a30e4c466bc631151", "f1de0a64094fc055ebca69d8b605a61507e5f202797e40852e83ea1a79770b5e"),
    ("strategic/forged-bid/NcpFe", "de4cc4176205d29a572535592a0d149fc899046ed93a7c04ab587b5bda93be0a", "f54a9d5af52f3726920984a1d126a54c40ad3c839f0724dddde3004367608937"),
    ("strategic/non-participant/NcpFe", "61be065d4ce4f28549c44582b96e5ad2017d25149f7679cbd7185b77c5c30f35", "44a75e4a4f1d6e7b1e0dd8fa0d935ebfbb5d45aefba58d480351a729e290d316"),
    ("strategic/misreport/NcpNfe", "11ffe3e11a0eae68c7d201f7a5e761e8c4ba40e0075653cf5c53e69e0aa955b4", "827b0ec16949aa496d3e3659263faac5c366719e32a02f38b9e9ba77d663d2da"),
    ("strategic/slack/NcpNfe", "a966ca4a3453c1aaece679df0cf17064446e83b8ed36f1b0efc21a8ee1cb0d02", "d78faccff2131934f8374fec4c0502340e6488c348ac11a2b45ed74c21675111"),
    ("strategic/equivocate/NcpNfe", "27d68ec8c0fb0b3f57562eab1676b421a20cad0ea98b9863b98e44d649942e6e", "9b79ffdd8956fb50492886cbd9e6c12160c01253c94979be7f1a093bfc7f47c4"),
    ("strategic/short-allocate/NcpNfe", "8141292ef1bab5ed627874b65a07a5ff18b6928870ba0cb61da1dfe888a0ca99", "8379603d488d3d55e9242d07ddef2c344493963f423b6b66e98da65ee168fc6b"),
    ("strategic/over-allocate/NcpNfe", "d2c7513b96d7a0eb24c5d39021efc8a6cae6597d548adf1849249ff072c65c2b", "9881c107b710049e306af1e6a46f0c4be2f78c1bfd0138eb8331606a71bcd494"),
    ("strategic/corrupt-payments/NcpNfe", "fa3e8f7503be874d0d81ef6fa1bac0506a7787e7af63795dc10a26728d619587", "5b6d71a44e4ab92aa6798a5c545f3992b8f651e4655b8384fb42811f5adce90a"),
    ("strategic/false-accusation/NcpNfe", "7fc43b9835cc63aa0ddb3e64fa31d1b199ed99880f7696a7fbd8725339d94233", "262ff1bb8f8b1bbd639bbe4801447541e2da94c2041c71410e3b61adbc4b1ecc"),
    ("strategic/forged-bid/NcpNfe", "7ab1b0d9d897aabcf763a72d7ee50e4978c1a742f845f6f40317d56cb1e54800", "b2ae9e2165f3e596b76b9f087470dc074cd88a25a225b3fc192b25cf91bc98b1"),
    ("strategic/non-participant/NcpNfe", "aeb7cf0bf3c530eeb50288b61d2e0b58faa2eb482f80179a51de184a10a50155", "5ad637e66690a0df906221a3191db06438abf08a3db8cd957a09ffaf01166a83"),
    ("fault/crash-bidding/NcpFe", "7a0838d4eb781c064060cbd5a871d9ee111b303cafc68bec19f199ed13a77d49", "4790010b5a8ab829bccf78745f852abb74a9f88eed457c59eea196ab8ab660f8"),
    ("fault/crash-allocating/NcpFe", "2e8b5e3475485bd3572e07dafbb5d26af81dee29624630530076a2ab316a4702", "691646a0a2bdcbb30835da1cc06e27eca3ac8bba77d43c7454c34ec883fc5720"),
    ("fault/crash-processing/NcpFe", "a777adc9158e9de7a224749f78b4b352f82988f41a4fcbd45266e25a85df5b89", "5e84603350441c4502f856706c5dca927059a28f9c49192544b3d37ff5ac3a50"),
    ("fault/crash-payments/NcpFe", "2caaba98355dd7801cf8e40a6218d7385db404e86b3873e6d20d180ea5e568f4", "bb83676a6ce9721b4a20cbcc7b1b42a19d74e48ff9231b24172b1dbdfc48b338"),
    ("fault/mute-bidding/NcpFe", "e899e61bfcfeb886ea745620e46eda5051d1415faf77e6ab93834971a785894d", "81f0c008a508e66b3d226b2ee02f2b21856f47ea62bc99be66001f2a4f069aa8"),
    ("fault/garbage-payments/NcpFe", "97c4ffb0aa2d911cf19cec05ebbb10a2cb4c1f0b7e027e8e60931a7ce68ffe97", "1ecb4d0e4f1c4eeac23d3b2eaa98fdd198cf4e70b94fc5fc43288b2cd427a249"),
    ("fault/delay-bidding/NcpFe", "e0d7f1eaa61a81426c3086e0a663d7088cbc0bd42b87a4ab10377f231e561c9f", "94e1853845acf2f3e7e19b9c8f03c4deb72cb5fe66553989052fb4e6b47bd04a"),
    ("fault/crash-bidding/NcpNfe", "2c4e481f5b2ad9db6a9c6e669f07ed2d945f7769c58372591e065bd7f46c791f", "b84c2ab928dd19eb71883d235bc4a750141e34b82c4951a45a5d6d7903144c41"),
    ("fault/crash-allocating/NcpNfe", "f43891b93accae1d05a0bc2a8bbb352ef26303ee9992fbc0c2b48f730231a0a8", "dc47bd26ce5ce0c0e99d6abf5aea54b2afafb54ed8149fa5afe9d1cec61aa6a3"),
    ("fault/crash-processing/NcpNfe", "ab6a4c96df5c965995de2ef526ef7824edcc3da565408a53dad4e818c27e133d", "5f1d49ead8fb2a877c37eb571859f375fa5c62aae43e8779cff51aca7e806c60"),
    ("fault/crash-payments/NcpNfe", "f48d3d98d8e52b2a7b0a30ff3698d769d6dee6e68cbadc2d1acf023d49f7a2ad", "3cea3d56a5fe0a66db795f69ab88af478675d72c7cb29c881fbe695fd862c15f"),
    ("fault/mute-bidding/NcpNfe", "1d4fbc0588c3214e9394207f4944038f746ff9a3b51e9f38ba1f7b8a4d0289e0", "3a1512949ff3ca8f9a2a2b54a1242495fddc4e94cf68c6a23a885a7afb36858c"),
    ("fault/garbage-payments/NcpNfe", "fa415e9370b00488cd168289c21d33e6ab922e2f8a715d876b9b7127aa18376c", "9b136207abe102071f287ff746aca45f7f40d896d0fc244a17355e2ff8b86349"),
    ("fault/delay-bidding/NcpNfe", "54ce86da76da9c64c5000d1a9248ab867868d9561f22d1e98099d9326a952ff4", "583a411963c74046e98cfcbd81490e87c2f1a1bce0bcb201ac358138b960253e"),
    ("uneven-shard/0", "4ca35b54e5b2dfd8d261991ae83a52186955762e5b5809e945311c3d35713ac8", "4b6ddccae2c3b519b8b5d0484a43ba396de947253980c87523f123e1f2de9d7a"),
    ("uneven-shard/1", "4ca35b54e5b2dfd8d261991ae83a52186955762e5b5809e945311c3d35713ac8", "4b6ddccae2c3b519b8b5d0484a43ba396de947253980c87523f123e1f2de9d7a"),
    ("uneven-shard/2", "2f462169001de56aeabe61669d3baeaea13d11efae5f4de83b0beb9a2dfe1b0a", "3994e25ffb6d83e28de1123d28d7a00673f9d9de3dec0ce08eda25a67a48ce2d"),
    ("uneven-shard/3", "a777adc9158e9de7a224749f78b4b352f82988f41a4fcbd45266e25a85df5b89", "5e84603350441c4502f856706c5dca927059a28f9c49192544b3d37ff5ac3a50"),
    ("uneven-shard/4", "4ca35b54e5b2dfd8d261991ae83a52186955762e5b5809e945311c3d35713ac8", "4b6ddccae2c3b519b8b5d0484a43ba396de947253980c87523f123e1f2de9d7a"),
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

/// Hex SHA-256 of an outcome's wire-neutral rendering: the `Debug` form
/// of every field except the message accounting, which contributes only
/// its per-category counts; payments, the fine and the makespan are also
/// rendered as `to_bits`.
fn wire_neutral_digest(outcome: &SessionOutcome) -> String {
    let counts = ["bid", "grant", "payment-vector", "control"]
        .map(|key| (key, outcome.messages.category(key).0));
    let payments: Vec<Option<(u64, u64)>> = outcome
        .processors
        .iter()
        .map(|p| {
            p.payment
                .as_ref()
                .map(|q| (q.compensation.to_bits(), q.bonus.to_bits()))
        })
        .collect();
    let rendering = format!(
        "{:?}|{:?}|{:?}|{:?}|{counts:?}|{:?}|{:?}|{:?}|{:?}",
        outcome.status,
        outcome.processors,
        payments,
        outcome.fine.to_bits(),
        outcome.ledger,
        outcome.timeline,
        outcome.makespan.map(f64::to_bits),
        outcome.degradation,
    );
    dls_crypto::sha256::to_hex(&dls_crypto::sha256::digest(rendering.as_bytes()))
}

/// The cell's frozen `(full, wire-neutral)` digests.
fn frozen(cell: &str) -> (&'static str, &'static str) {
    FROZEN
        .iter()
        .find(|(name, _, _)| *name == cell)
        .map(|&(_, full, neutral)| (full, neutral))
        .unwrap_or_else(|| panic!("{cell}: no frozen digest"))
}

/// Runs every `(cell, config)` on the single-session entry point, a
/// static-shard service (4 workers) and a work-stealing service (2
/// workers); each outcome must match both of the cell's frozen digests
/// (wire-neutral first, so a wire-format change reports as such), and both
/// service outcomes must equal the single-session one field by field.
/// Returns the single-session outcomes.
fn check_cells(cells: &[(String, SessionConfig)]) -> Vec<SessionOutcome> {
    let services = [
        ("static-shard", ServiceConfig::static_shard(4)),
        ("stealing", ServiceConfig::stealing(2)),
    ]
    .map(|(name, cfg)| (name, ServiceHandle::start(cfg).expect("service starts")));
    let tickets: Vec<Vec<u64>> = services
        .iter()
        .map(|(_, svc)| {
            cells
                .iter()
                .map(|(_, cfg)| svc.submit(cfg.clone()).expect("service admits the session"))
                .collect()
        })
        .collect();
    let mut outcomes = Vec::with_capacity(cells.len());
    for (k, (cell, cfg)) in cells.iter().enumerate() {
        let vm = run_session_vm(cfg).unwrap_or_else(|e| panic!("{cell}: vm failed: {e}"));
        let (full, neutral) = frozen(cell);
        assert_eq!(
            wire_neutral_digest(&vm),
            neutral,
            "{cell}: vm outcome differs from the frozen wire-neutral outcome"
        );
        assert_eq!(
            outcome_digest(&vm),
            full,
            "{cell}: vm outcome differs from the frozen full outcome"
        );
        for ((path, svc), tickets) in services.iter().zip(&tickets) {
            let served = svc
                .wait(tickets[k])
                .unwrap_or_else(|| panic!("{cell}: {path} service ticket vanished"))
                .outcome
                .unwrap_or_else(|e| panic!("{cell}: {path} service failed: {e:?}"));
            assert_outcomes_identical(&vm, &served, &format!("{cell} ({path} service)"));
            assert_eq!(
                wire_neutral_digest(&served),
                neutral,
                "{cell}: {path} service outcome differs from the frozen wire-neutral outcome"
            );
            assert_eq!(
                outcome_digest(&served),
                full,
                "{cell}: {path} service outcome differs from the frozen full outcome"
            );
        }
        outcomes.push(vm);
    }
    for (_, svc) in &services {
        svc.shutdown();
    }
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
fn uneven_shard_services_match_threaded_per_session() {
    // 5 sessions over the 4-worker static-shard service: worker 0 owns
    // sessions {0, 4}, the rest one each — the non-tiling shape from an
    // earlier batch-sizing bug.
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
    for (i, (name, full, neutral)) in FROZEN.iter().enumerate() {
        assert_eq!(full.len(), 64, "{name}: digest is not hex SHA-256");
        assert_eq!(neutral.len(), 64, "{name}: wire-neutral digest is not hex SHA-256");
        assert!(
            FROZEN.iter().skip(i + 1).all(|(other, _, _)| other != name),
            "{name}: listed twice"
        );
    }
}
