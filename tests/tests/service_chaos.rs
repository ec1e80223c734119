//! Service-chaos suite: deterministic fault injection against the
//! supervised session service ([`dls_protocol::ServiceHandle`]).
//!
//! The invariant under test everywhere: **no accepted ticket is ever
//! lost**. Whatever the [`dls_protocol::ServiceFaultPlan`] does — kill
//! workers mid-job, fail spawns, panic the session driver, wedge a
//! worker — every `Ok` ticket from `submit` resolves to a `Completed`,
//! and every outcome that resolves successfully is bit-identical to a
//! direct [`dls_protocol::run_session_vm`] solve (a session reads no
//! clock, so replay after a kill or confiscation is exact, not merely
//! approximate).
//!
//! Overload behavior is exercised by wedging a single worker with
//! [`dls_protocol::ServiceFault::StallWorker`] (supervision off, so the
//! wedge holds) and driving the admission gate to its capacity bound:
//! `Reject` refuses with a typed error, `Block` times out with a typed
//! error, `ShedOldest` evicts the oldest queued ticket into a typed
//! `Shed` outcome — refusals are observable, never silent.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::service::{
    AdmissionPolicy, Placement, ServiceConfig, ServiceError, ServiceHandle, SubmitError,
};
use dls_protocol::supervisor::{ServiceFault, ServiceFaultPlan};
use dls_protocol::run_session_vm;

const Z: f64 = 0.25;
const W: [f64; 3] = [1.0, 1.7, 2.4];

/// A small compliant session; `seed` varies the bid draw so a misrouted
/// or cross-published outcome cannot match its oracle by accident.
fn session(seed: u64) -> SessionConfig {
    let mut b = SessionConfig::builder(SystemModel::NcpFe, Z)
        .seed(seed)
        .blocks(8)
        .phase_budget_ms(400);
    for &w in &W {
        b = b.processor(ProcessorConfig::new(w, Behavior::Compliant));
    }
    b.build().expect("chaos config must be builder-valid")
}

/// Waits for `ticket` and asserts its outcome is bit-identical to the
/// direct `run_session_vm` solve of `cfg`.
fn assert_resolves_bit_exact(svc: &ServiceHandle, ticket: u64, cfg: &SessionConfig, what: &str) {
    let done = svc
        .wait(ticket)
        .unwrap_or_else(|| panic!("{what}: accepted ticket {ticket} was lost"));
    let got = done
        .outcome
        .unwrap_or_else(|e| panic!("{what}: ticket {ticket} failed: {e}"));
    let oracle = run_session_vm(cfg).unwrap_or_else(|e| panic!("{what}: vm failed: {e}"));
    assert_eq!(
        format!("{oracle:?}"),
        format!("{got:?}"),
        "{what}: ticket {ticket} diverged from the vm oracle"
    );
}

/// Spins (bounded) until `ready` holds; panics with `what` on timeout.
fn poll_until(ready: impl Fn() -> bool, what: &str) {
    let t0 = Instant::now();
    while !ready() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// Starts a one-worker, unsupervised service whose worker wedges on its
/// first job, submits that job, and confirms the wedge took hold. The
/// returned wedge ticket still resolves at shutdown (the stop-side drain
/// confiscates and re-runs it inline).
fn wedged_service(queue_capacity: usize, admission: AdmissionPolicy) -> (ServiceHandle, u64) {
    let svc = ServiceHandle::start(ServiceConfig {
        supervise: false,
        queue_capacity: Some(queue_capacity),
        admission,
        fault_plan: ServiceFaultPlan::default().with(ServiceFault::StallWorker { nth_job: 0 }),
        ..ServiceConfig::stealing(1)
    })
    .expect("service start");
    let wedge = svc.submit(session(1000)).expect("wedge submit");
    poll_until(|| svc.stats().stalled == 1, "the worker to wedge");
    (svc, wedge)
}

// --- Kill-churn --------------------------------------------------------

#[test]
fn kill_churn_loses_no_ticket_and_stays_bit_exact() {
    for placement in [Placement::Stealing, Placement::StaticShard] {
        let n: u64 = 12;
        let svc = ServiceHandle::start(ServiceConfig {
            placement,
            // Kill the active worker at every 3rd job start.
            fault_plan: ServiceFaultPlan::kill_every(3, n),
            ..ServiceConfig::stealing(3)
        })
        .expect("service start");
        let cfgs: Vec<SessionConfig> = (0..n).map(session).collect();
        let tickets: Vec<u64> = cfgs
            .iter()
            .map(|c| svc.submit(c.clone()).expect("submit refused"))
            .collect();
        for (t, c) in tickets.iter().zip(&cfgs) {
            assert_resolves_bit_exact(&svc, *t, c, &format!("kill-churn/{placement:?}"));
        }
        let stats = svc.stats();
        assert!(
            stats.killed >= 2,
            "{placement:?}: the plan must actually kill workers (killed={})",
            stats.killed
        );
        assert!(
            stats.orphans_requeued >= 1,
            "{placement:?}: a mid-job kill must orphan at least one job"
        );
        assert!(
            stats.respawns >= 1,
            "{placement:?}: the supervisor must respawn killed workers"
        );
        svc.shutdown();
    }
}

#[test]
fn static_shard_drains_after_respawn_without_shutdown_help() {
    // All waits complete while the service is live, so the recovery is
    // the supervisor's doing — not the shutdown drain's.
    let svc = ServiceHandle::start(ServiceConfig {
        fault_plan: ServiceFaultPlan::default().with(ServiceFault::KillWorkerAtJob { nth_job: 0 }),
        ..ServiceConfig::static_shard(2)
    })
    .expect("service start");
    let cfgs: Vec<SessionConfig> = (0..6).map(session).collect();
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|c| svc.submit(c.clone()).expect("submit refused"))
        .collect();
    for (t, c) in tickets.iter().zip(&cfgs) {
        assert_resolves_bit_exact(&svc, *t, c, "static-shard-respawn");
    }
    let stats = svc.stats();
    assert_eq!(stats.killed, 1);
    assert!(stats.respawns >= 1, "supervisor must heal the killed shard");
    svc.shutdown();
}

#[test]
fn respawned_worker_killed_on_first_job_is_healed_again() {
    // With one worker, each respawn's very first popped job is another
    // kill: the death lands while (or before) the supervisor's spawn
    // bookkeeping runs. The slot must come back sweepable every time —
    // a death stamp erased by stale post-spawn bookkeeping would leave
    // the slot "alive" with no thread and strand the whole queue.
    let kills = 3u64;
    let mut plan = ServiceFaultPlan::default();
    for n in 0..kills {
        plan = plan.with(ServiceFault::KillWorkerAtJob { nth_job: n });
    }
    let svc = ServiceHandle::start(ServiceConfig {
        tick: Duration::from_millis(1),
        fault_plan: plan,
        ..ServiceConfig::stealing(1)
    })
    .expect("service start");
    let cfgs: Vec<SessionConfig> = (0..4).map(|s| session(500 + s)).collect();
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|c| svc.submit(c.clone()).expect("submit refused"))
        .collect();
    for (t, c) in tickets.iter().zip(&cfgs) {
        assert_resolves_bit_exact(&svc, *t, c, "back-to-back-kills");
    }
    let stats = svc.stats();
    assert_eq!(stats.killed, kills, "every planned kill must fire");
    assert!(
        stats.respawns >= kills,
        "each killed occupant must be respawned (respawns={})",
        stats.respawns
    );
    svc.shutdown();
}

// --- Stall detection ---------------------------------------------------

#[test]
fn stalled_worker_is_confiscated_and_the_job_reruns_elsewhere() {
    let svc = ServiceHandle::start(ServiceConfig {
        tick: Duration::from_millis(5),
        stall_ticks: 2,
        fault_plan: ServiceFaultPlan::default().with(ServiceFault::StallWorker { nth_job: 0 }),
        ..ServiceConfig::stealing(2)
    })
    .expect("service start");
    let cfgs: Vec<SessionConfig> = (0..4).map(session).collect();
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|c| svc.submit(c.clone()).expect("submit refused"))
        .collect();
    // Every ticket — including the one held by the wedged worker — must
    // resolve while the service is live: the supervisor declares the
    // silent worker dead, confiscates its job and requeues it.
    for (t, c) in tickets.iter().zip(&cfgs) {
        assert_resolves_bit_exact(&svc, *t, c, "stall-confiscation");
    }
    let stats = svc.stats();
    assert_eq!(stats.stalled, 1);
    assert!(
        stats.confiscated >= 1,
        "stall detection must confiscate the held job"
    );
    svc.shutdown();
}

// --- Driver panics: retry, then quarantine -----------------------------

#[test]
fn transient_driver_panic_retries_once_to_a_bit_exact_outcome() {
    let cfg = session(7);
    let svc = ServiceHandle::start(ServiceConfig {
        fault_plan: ServiceFaultPlan::default()
            .with(ServiceFault::PanicOnTicket { ticket: 0, times: 1 }),
        ..ServiceConfig::stealing(2)
    })
    .expect("service start");
    let ticket = svc.submit(cfg.clone()).expect("submit refused");
    let done = svc.wait(ticket).expect("retried ticket must resolve");
    assert_eq!(done.attempts, 2, "one panic + one clean re-run");
    let got = done.outcome.expect("retry must succeed");
    let oracle = run_session_vm(&cfg).expect("vm solve");
    assert_eq!(format!("{oracle:?}"), format!("{got:?}"));
    let stats = svc.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.quarantined, 0);
    svc.shutdown();
}

#[test]
fn repeated_driver_panic_quarantines_as_poison() {
    let svc = ServiceHandle::start(ServiceConfig {
        fault_plan: ServiceFaultPlan::default()
            .with(ServiceFault::PanicOnTicket { ticket: 0, times: 2 }),
        ..ServiceConfig::stealing(2)
    })
    .expect("service start");
    let poison = svc.submit(session(8)).expect("submit refused");
    let healthy = svc.submit(session(9)).expect("submit refused");

    let done = svc.wait(poison).expect("poison ticket must still resolve");
    assert_eq!(done.attempts, 2, "quarantine happens on the second panic");
    match done.outcome {
        Err(ServiceError::Quarantined { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected a quarantine, got {other:?}"),
    }
    // The pool survives the poison job: healthy work still completes.
    let cfg = session(9);
    assert_resolves_bit_exact(&svc, healthy, &cfg, "post-quarantine");
    let stats = svc.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.retries, 1, "exactly one retry before quarantine");
    svc.shutdown();
}

// --- Admission control -------------------------------------------------

#[test]
fn reject_admission_refuses_with_a_typed_overload_error() {
    let (svc, wedge) = wedged_service(2, AdmissionPolicy::Reject);
    let q1 = svc.submit(session(1)).expect("capacity 1/2");
    let q2 = svc.submit(session(2)).expect("capacity 2/2");
    match svc.submit(session(3)) {
        Err(SubmitError::Overloaded { queued, capacity }) => {
            assert_eq!((queued, capacity), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.rejected, 1);
    // The refusal costs the refused session only; everything accepted
    // still resolves (the queued pair via the shutdown drain).
    svc.shutdown();
    for (t, seed) in [(wedge, 1000), (q1, 1), (q2, 2)] {
        assert_resolves_bit_exact(&svc, t, &session(seed), "reject-admission");
    }
}

#[test]
fn block_admission_times_out_with_a_typed_error() {
    let (svc, wedge) = wedged_service(
        1,
        AdmissionPolicy::Block {
            timeout: Duration::from_millis(100),
        },
    );
    let q1 = svc.submit(session(1)).expect("capacity 1/1");
    let t0 = Instant::now();
    match svc.submit(session(2)) {
        Err(SubmitError::AdmissionTimeout { queued, capacity }) => {
            assert_eq!((queued, capacity), (1, 1));
        }
        other => panic!("expected AdmissionTimeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "Block must actually hold the submitter at the gate"
    );
    assert_eq!(svc.stats().timed_out, 1);
    svc.shutdown();
    for (t, seed) in [(wedge, 1000), (q1, 1)] {
        assert_resolves_bit_exact(&svc, t, &session(seed), "block-admission");
    }
}

#[test]
fn shed_oldest_admission_discloses_the_shed_ticket() {
    let (svc, wedge) = wedged_service(2, AdmissionPolicy::ShedOldest);
    let oldest = svc.submit(session(1)).expect("capacity 1/2");
    let kept = svc.submit(session(2)).expect("capacity 2/2");
    let newest = svc.submit(session(3)).expect("ShedOldest always admits");
    // The oldest queued ticket resolves as a typed shed outcome — while
    // the service is still live, not only at shutdown.
    let done = svc.wait(oldest).expect("shed ticket must resolve");
    match done.outcome {
        Err(ServiceError::Shed { capacity, .. }) => assert_eq!(capacity, 2),
        other => panic!("expected Shed, got {other:?}"),
    }
    assert_eq!(svc.stats().sheds, 1);
    svc.shutdown();
    for (t, seed) in [(wedge, 1000), (kept, 2), (newest, 3)] {
        assert_resolves_bit_exact(&svc, t, &session(seed), "shed-admission");
    }
}

// --- Spawn failures ----------------------------------------------------

#[test]
fn failed_spawn_shrinks_the_pool_instead_of_vanishing() {
    // Unsupervised: the failed slot stays dead, the service runs on the
    // surviving worker and reports the honest pool size. This is the
    // regression test for `start` silently discarding failed spawns.
    let svc = ServiceHandle::start(ServiceConfig {
        supervise: false,
        fault_plan: ServiceFaultPlan::default().with(ServiceFault::SpawnFailAt { attempt: 0 }),
        ..ServiceConfig::static_shard(2)
    })
    .expect("one surviving worker is enough to start");
    assert_eq!(svc.workers(), 1, "workers() must report the shrunk pool");
    assert_eq!(svc.stats().spawn_failures, 1);
    let cfgs: Vec<SessionConfig> = (0..4).map(session).collect();
    let tickets: Vec<u64> = cfgs
        .iter()
        .map(|c| svc.submit(c.clone()).expect("submit refused"))
        .collect();
    // Static placement probes past the dead slot, so the half-pool still
    // drains every shard while live.
    for (t, c) in tickets.iter().zip(&cfgs) {
        assert_resolves_bit_exact(&svc, *t, c, "shrunk-pool");
    }
    svc.shutdown();
}

#[test]
fn supervisor_heals_a_failed_spawn() {
    let svc = ServiceHandle::start(ServiceConfig {
        tick: Duration::from_millis(5),
        fault_plan: ServiceFaultPlan::default().with(ServiceFault::SpawnFailAt { attempt: 0 }),
        ..ServiceConfig::stealing(2)
    })
    .expect("service start");
    poll_until(|| svc.workers() == 2, "the supervisor to respawn the failed slot");
    let stats = svc.stats();
    assert_eq!(stats.spawn_failures, 1);
    assert!(stats.respawns >= 1);
    let cfg = session(11);
    let ticket = svc.submit(cfg.clone()).expect("submit refused");
    assert_resolves_bit_exact(&svc, ticket, &cfg, "healed-pool");
    svc.shutdown();
}

// --- Concurrent churn: the composite no-lost-ticket sweep --------------

#[test]
fn concurrent_submitters_under_kill_churn_lose_nothing() {
    let per_thread: u64 = 6;
    let submitters = 3u64;
    let svc = Arc::new(
        ServiceHandle::start(ServiceConfig {
            fault_plan: ServiceFaultPlan::kill_every(4, per_thread * submitters),
            ..ServiceConfig::stealing(3)
        })
        .expect("service start"),
    );
    let mut threads = Vec::new();
    for s in 0..submitters {
        let svc = Arc::clone(&svc);
        threads.push(thread::spawn(move || {
            let mut accepted = Vec::new();
            for k in 0..per_thread {
                let seed = 100 + s * per_thread + k;
                accepted.push((svc.submit(session(seed)).expect("submit refused"), seed));
            }
            accepted
        }));
    }
    for t in threads {
        for (ticket, seed) in t.join().expect("submitter must not panic") {
            assert_resolves_bit_exact(&svc, ticket, &session(seed), "concurrent-churn");
        }
    }
    assert!(svc.stats().killed >= 1, "the churn plan must fire");
    svc.shutdown();
}
