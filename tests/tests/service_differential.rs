//! Differential suite for the always-on session service
//! ([`dls_protocol::ServiceHandle`]): placement affects *when* a session
//! runs, never *what* it computes. Every outcome retrieved from the
//! service — under work stealing or static-shard placement, with the
//! per-worker scratch arena reused or rebuilt — must reproduce
//! [`dls_protocol::run_session_vm`] **bit for bit** (which the executor
//! suite in turn pins against frozen outcome digests), across strategic
//! behaviors and liveness-fault plans.
//!
//! Float equality here is `to_bits` (or whole-structure `Debug` equality,
//! which formats floats as their shortest round-trip representation and is
//! therefore also bit-exact); nothing is compared with a tolerance.
//!
//! Also here: the uneven-stream regression the service satellite calls
//! for — 7 sessions over 3 workers, pooled(static) == service(stealing)
//! outcome-for-outcome.

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::fault::FaultPlan;
use dls_protocol::referee::Phase;
use dls_protocol::service::{Placement, ServiceConfig, ServiceHandle};
use dls_protocol::{run_session_pooled_with, run_session_vm, SessionOutcome};

const Z: f64 = 0.25;
const W: [f64; 4] = [1.0, 1.6, 2.2, 3.1];
const SEED: u64 = 31;
const BUDGET_MS: u64 = 400;

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
/// catch-all (ledger journal, timeline, every degradation field).
fn assert_outcomes_identical(oracle: &SessionOutcome, candidate: &SessionOutcome, what: &str) {
    assert_eq!(oracle.status, candidate.status, "{what}: status");
    assert_eq!(
        oracle.fine.to_bits(),
        candidate.fine.to_bits(),
        "{what}: fine"
    );
    assert_eq!(oracle.messages, candidate.messages, "{what}: message stats");
    for (i, (a, b)) in oracle
        .processors
        .iter()
        .zip(&candidate.processors)
        .enumerate()
    {
        assert_eq!(
            a.alloc_fraction.to_bits(),
            b.alloc_fraction.to_bits(),
            "{what}: P{i} alloc fraction"
        );
        assert_eq!(a.fined.to_bits(), b.fined.to_bits(), "{what}: P{i} fined");
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{what}: P{i} utility"
        );
    }
    assert_eq!(
        format!("{oracle:?}"),
        format!("{candidate:?}"),
        "{what}: full-structure Debug equality"
    );
}

/// Submits `cfg` to `svc` and asserts the retrieved outcome is
/// bit-identical to a direct `run_session_vm` solve.
fn assert_service_matches_vm(svc: &ServiceHandle, cfg: &SessionConfig, what: &str) {
    let oracle = run_session_vm(cfg).unwrap_or_else(|e| panic!("{what}: vm failed: {e}"));
    let ticket = svc
        .submit(cfg.clone())
        .unwrap_or_else(|e| panic!("{what}: submit refused: {e}"));
    let done = svc
        .wait(ticket)
        .unwrap_or_else(|| panic!("{what}: service lost ticket {ticket}"));
    let got = done
        .outcome
        .unwrap_or_else(|e| panic!("{what}: service failed: {e}"));
    assert_outcomes_identical(&oracle, &got, what);
}

#[test]
fn strategic_behaviors_bit_identical_through_the_service() {
    let model = SystemModel::NcpFe;
    let m = W.len();
    let orig = model
        .originator(m)
        .expect("NCP models always have an originator");
    let victim = (orig + 1) % m;
    let scenarios: Vec<(&str, usize, Behavior)> = vec![
        ("compliant", victim, Behavior::Compliant),
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
            "corrupt-payments",
            victim,
            Behavior::CorruptPayments {
                target: orig,
                factor: 2.0,
            },
        ),
        ("non-participant", victim, Behavior::NonParticipant),
    ];
    // One stealing service, kept alive across the whole matrix — the
    // steady state an always-on deployment runs in.
    let svc = ServiceHandle::start(ServiceConfig::stealing(3)).expect("service start");
    for (name, deviant, behavior) in scenarios {
        let cfg = session(
            model,
            |i| if i == deviant { behavior } else { Behavior::Compliant },
            |_| FaultPlan::None,
        );
        assert_service_matches_vm(&svc, &cfg, &format!("service/strategic/{name}"));
    }
    svc.shutdown();
}

#[test]
fn fault_plans_bit_identical_through_the_service() {
    let model = SystemModel::NcpNfe;
    let m = W.len();
    let orig = model
        .originator(m)
        .expect("NCP models always have an originator");
    let faulty = (orig + 2) % m;
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("crash-bidding", FaultPlan::CrashAt(Phase::Bidding)),
        ("crash-processing", FaultPlan::CrashAt(Phase::Processing)),
        ("mute-bidding", FaultPlan::MuteAt(Phase::Bidding)),
        ("garbage-payments", FaultPlan::GarbageAt(Phase::Payments)),
        ("delay-bidding", FaultPlan::DelayAt(Phase::Bidding, 50)),
    ];
    // Static-shard placement and a fresh-arena config both take the same
    // per-session driver; alternate them across the fault matrix so both
    // service configurations face degraded re-runs.
    let stat = ServiceHandle::start(ServiceConfig::static_shard(2)).expect("service start");
    let fresh = ServiceHandle::start(ServiceConfig {
        workers: 2,
        placement: Placement::Stealing,
        reuse_scratch: false,
        ..ServiceConfig::stealing(2)
    })
    .expect("service start");
    for (i, (name, plan)) in plans.into_iter().enumerate() {
        let cfg = session(
            model,
            |_| Behavior::Compliant,
            |j| if j == faulty { plan } else { FaultPlan::None },
        );
        let svc = if i % 2 == 0 { &stat } else { &fresh };
        let what = format!("service/fault/{name}");
        assert_service_matches_vm(svc, &cfg, &what);
        // Crash/mute/garbage plans must actually degrade — a vacuously
        // clean report would not test the claim.
        let expect_clean = name.starts_with("delay");
        let vm = run_session_vm(&cfg).expect("vm solve");
        assert_eq!(
            vm.degradation.is_clean(),
            expect_clean,
            "{what}: degradation cleanliness"
        );
    }
    stat.shutdown();
    fresh.shutdown();
}

#[test]
fn uneven_stream_pooled_static_matches_service_stealing() {
    // The satellite regression: 7 sessions over 3 workers — uneven on
    // both the static shard (worker 0 owns {0, 3, 6}) and the stealing
    // service (whichever worker idles takes more). Sessions differ
    // (varying seeds, one strategic deviant, one fault plan) so a
    // misrouted, duplicated, or dropped session cannot pass by accident.
    let cfgs: Vec<SessionConfig> = (0..7u64)
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
                    if k == 5 && i == 2 {
                        FaultPlan::CrashAt(Phase::Processing)
                    } else {
                        FaultPlan::None
                    }
                },
            );
            cfg.seed = SEED + k;
            cfg
        })
        .collect();

    let pooled = run_session_pooled_with(&cfgs, 3);
    assert_eq!(pooled.len(), cfgs.len());

    let svc = ServiceHandle::start(ServiceConfig::stealing(3)).expect("service start");
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|c| svc.submit(c.clone()).expect("submit refused"))
        .collect();
    for (k, (ticket, from_pool)) in tickets.iter().zip(&pooled).enumerate() {
        let done = svc
            .wait(*ticket)
            .unwrap_or_else(|| panic!("session {k}: service lost ticket {ticket}"));
        let stolen = done
            .outcome
            .unwrap_or_else(|e| panic!("session {k}: service: {e}"));
        let pooled_outcome = from_pool
            .as_ref()
            .unwrap_or_else(|e| panic!("session {k}: pooled: {e}"));
        assert_outcomes_identical(
            pooled_outcome,
            &stolen,
            &format!("uneven-stream session {k}"),
        );
    }
    svc.shutdown();
}

// --- Ticket-lifecycle edges --------------------------------------------

#[test]
fn wait_on_consumed_ticket_returns_none_promptly() {
    // A second wait on an already-taken ticket must not park until
    // shutdown: the pending set says the ticket is neither queued nor
    // running, so `wait` answers `None` immediately — even while the
    // single worker is busy with a different session.
    let svc = ServiceHandle::start(ServiceConfig::stealing(1)).expect("service start");
    let cfg = session(SystemModel::NcpFe, |_| Behavior::Compliant, |_| FaultPlan::None);
    let ticket = svc.submit(cfg.clone()).expect("submit refused");
    let first = svc.wait(ticket).expect("first wait must yield the outcome");
    first.outcome.expect("session must succeed");

    // Keep the lone worker occupied so a buggy `wait` that parks on the
    // results condvar would stay parked well past the assertion bound.
    let busy = svc.submit(cfg).expect("submit refused");
    let t0 = std::time::Instant::now();
    assert!(
        svc.wait(ticket).is_none(),
        "consumed ticket must not resolve twice"
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "wait on a consumed ticket must return promptly, not park"
    );
    assert!(svc.try_take(ticket).is_none());
    svc.wait(busy).expect("busy ticket resolves").outcome.expect("ok");
    svc.shutdown();
}

#[test]
fn try_take_racing_wait_yields_exactly_one_winner() {
    let svc = std::sync::Arc::new(
        ServiceHandle::start(ServiceConfig::stealing(2)).expect("service start"),
    );
    let cfg = session(SystemModel::NcpFe, |_| Behavior::Compliant, |_| FaultPlan::None);
    for _ in 0..8 {
        let ticket = svc.submit(cfg.clone()).expect("submit refused");
        let waiter = {
            let svc = std::sync::Arc::clone(&svc);
            std::thread::spawn(move || svc.wait(ticket).is_some())
        };
        // Poll `try_take` against the blocked waiter until one side wins.
        let mut took = false;
        loop {
            if svc.try_take(ticket).is_some() {
                took = true;
                break;
            }
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        let waited = waiter.join().expect("waiter must not panic");
        assert!(
            took ^ waited,
            "exactly one of try_take/wait must win the ticket (took={took}, waited={waited})"
        );
    }
    svc.shutdown();
}

#[test]
fn concurrent_submitters_during_shutdown_lose_no_accepted_ticket() {
    use dls_protocol::service::SubmitError;
    let svc = std::sync::Arc::new(
        ServiceHandle::start(ServiceConfig::stealing(2)).expect("service start"),
    );
    let cfg = session(SystemModel::NcpFe, |_| Behavior::Compliant, |_| FaultPlan::None);
    let mut submitters = Vec::new();
    for _ in 0..4 {
        let svc = std::sync::Arc::clone(&svc);
        let cfg = cfg.clone();
        submitters.push(std::thread::spawn(move || {
            let mut accepted = Vec::new();
            for _ in 0..6 {
                match svc.submit(cfg.clone()) {
                    Ok(t) => accepted.push(t),
                    // The only admissible refusal mid-race is shutdown.
                    Err(SubmitError::ShutDown) => break,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            accepted
        }));
    }
    // Race shutdown against the submitters.
    std::thread::yield_now();
    svc.shutdown();
    for s in submitters {
        for ticket in s.join().expect("submitter must not panic") {
            let done = svc.wait(ticket).unwrap_or_else(|| {
                panic!("accepted ticket {ticket} was lost across shutdown")
            });
            done.outcome
                .unwrap_or_else(|e| panic!("accepted ticket {ticket} failed: {e}"));
        }
    }
}
