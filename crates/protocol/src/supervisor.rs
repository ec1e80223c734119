//! Worker supervision and deterministic service-fault injection for
//! [`crate::service`].
//!
//! The service's worker pool is the deployment substrate the paper's
//! mechanism runs on once the control processor is gone, so a worker
//! thread dying must not strand accepted work. This module adds the
//! recovery layer (DESIGN.md §16):
//!
//! * every worker runs under an armed `DeathWatch` — an RAII guard
//!   whose drop-on-unwind/early-return records the death in the
//!   worker's `Slot` and wakes the supervisor;
//! * the supervisor thread sweeps the slots every
//!   [`crate::service::ServiceConfig::tick`]: a dead slot has its
//!   in-progress jobs confiscated from the registry, requeued on a
//!   *different* worker, and its thread respawned (recovery latency is
//!   measured death→respawn and reported in [`ServiceStats`]);
//! * optionally (`stall_ticks > 0`) a worker whose heartbeat stops
//!   while it holds work is declared stalled and treated as dead —
//!   confiscate, requeue, respawn a replacement into the slot.
//!
//! Faults are injected deterministically through [`ServiceFaultPlan`]:
//! kill/stall faults key off the global job-start index, spawn failures
//! off the global spawn-attempt index, and poison off the ticket. The
//! injection points are compiled into ordered sets at `start` and cost
//! one `BTreeSet` probe per job when empty. This plan is orthogonal to
//! the protocol-level [`crate::fault::FaultPlan`]: that one breaks
//! *processors inside a session*, this one breaks *the service running
//! the sessions*.
//!
//! Duplicate runs are benign by construction: recovery may requeue a job
//! whose original worker was merely slow (stall false positive), but the
//! publish path in `service.rs` resolves each ticket exactly once
//! (first-wins), and deterministic replay guarantees both runs would
//! have produced bit-exact outcomes anyway.

use crate::service::Shared;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One deterministic service-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The worker that starts the `nth_job`-th job (global job-start
    /// index, retries and requeues included) dies abruptly with the job
    /// registered in-progress.
    KillWorkerAtJob {
        /// Global job-start index at which the worker dies.
        nth_job: u64,
    },
    /// The `attempt`-th worker-thread spawn (global spawn-attempt index:
    /// initial spawns first, then respawns) fails.
    SpawnFailAt {
        /// Global spawn-attempt index that fails.
        attempt: u64,
    },
    /// The session driver "panics" on this ticket's first `times`
    /// attempts (simulated at the panic-containment seam, so the retry
    /// and quarantine paths are exercised without unwinding).
    PanicOnTicket {
        /// Ticket whose runs are poisoned.
        ticket: u64,
        /// Attempts that panic before the job runs clean (`1` exercises
        /// retry-then-success, `2` retry-then-quarantine).
        times: u32,
    },
    /// The worker that starts the `nth_job`-th job stops making progress
    /// (parks holding the job) until shutdown. With stall detection on,
    /// the supervisor confiscates and re-runs the job elsewhere.
    StallWorker {
        /// Global job-start index at which the worker stalls.
        nth_job: u64,
    },
}

/// A deterministic set of service faults, injected via test-only hooks
/// compiled in at [`crate::service::ServiceHandle::start`]. Empty by
/// default (no faults).
#[derive(Debug, Clone, Default)]
pub struct ServiceFaultPlan {
    /// The faults to inject.
    pub faults: Vec<ServiceFault>,
}

impl ServiceFaultPlan {
    /// Adds one fault (builder style).
    pub fn with(mut self, fault: ServiceFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Kill-churn convenience for the benchmark: kill the active worker
    /// at every `period`-th job start, for job indices in `(0, upto)`.
    pub fn kill_every(period: u64, upto: u64) -> Self {
        let mut plan = ServiceFaultPlan::default();
        if period == 0 {
            return plan;
        }
        let mut n = period;
        while n < upto {
            plan = plan.with(ServiceFault::KillWorkerAtJob { nth_job: n });
            n = n.saturating_add(period);
        }
        plan
    }
}

/// [`ServiceFaultPlan`] compiled to ordered probe sets.
#[derive(Debug, Default)]
pub(crate) struct CompiledPlan {
    pub(crate) kills: BTreeSet<u64>,
    pub(crate) stalls: BTreeSet<u64>,
    pub(crate) panics: BTreeMap<u64, u32>,
    pub(crate) spawn_fails: BTreeSet<u64>,
}

impl CompiledPlan {
    pub(crate) fn compile(plan: &ServiceFaultPlan) -> Self {
        let mut c = CompiledPlan::default();
        for f in &plan.faults {
            match *f {
                ServiceFault::KillWorkerAtJob { nth_job } => {
                    c.kills.insert(nth_job);
                }
                ServiceFault::StallWorker { nth_job } => {
                    c.stalls.insert(nth_job);
                }
                ServiceFault::PanicOnTicket { ticket, times } => {
                    c.panics.insert(ticket, times);
                }
                ServiceFault::SpawnFailAt { attempt } => {
                    c.spawn_fails.insert(attempt);
                }
            }
        }
        c
    }
}

/// Per-worker liveness record. `died_ns` is nanoseconds since the
/// service epoch at the (first unrecovered) death, `u64::MAX` while the
/// slot is healthy or cleanly exited — the supervisor recovers exactly
/// the slots with a recorded death, so clean shutdown exits are never
/// "healed" into respawn churn.
pub(crate) struct Slot {
    pub(crate) alive: AtomicBool,
    /// Heartbeat: bumped by the worker once per loop iteration (i.e.
    /// between jobs). Read by stall detection.
    pub(crate) beat: AtomicU64,
    pub(crate) died_ns: AtomicU64,
    /// Occupancy generation, bumped on every spawn into the slot. A
    /// [`DeathWatch`] captures it at arm time and refuses to touch the
    /// slot once it has moved on, so a stall-confiscated zombie that
    /// exits (or dies) later cannot clear the liveness of the worker
    /// respawned into its slot.
    pub(crate) generation: AtomicU64,
}

impl Slot {
    pub(crate) fn new() -> Self {
        Slot {
            alive: AtomicBool::new(false),
            beat: AtomicU64::new(0),
            died_ns: AtomicU64::new(u64::MAX),
            generation: AtomicU64::new(0),
        }
    }
}

/// RAII death watch armed at the top of every worker loop. A clean exit
/// disarms it; any other way out of the thread — the kill fault's abrupt
/// return, or a real panic escaping the containment seam — drops it
/// armed, which records the death and wakes the supervisor.
///
/// The watch carries the slot generation it was armed under and only
/// updates the slot while that generation is current: after a stall
/// confiscation respawns a replacement into the slot (bumping the
/// generation), the stalled zombie's eventual disarm or death is stale
/// bookkeeping and must not hide the healthy occupant.
pub(crate) struct DeathWatch<'a> {
    shared: &'a Shared,
    w: usize,
    gen: u64,
    armed: bool,
}

impl<'a> DeathWatch<'a> {
    pub(crate) fn arm(shared: &'a Shared, w: usize, gen: u64) -> Self {
        DeathWatch {
            shared,
            w,
            gen,
            armed: true,
        }
    }

    /// The watched slot, while this watch's generation is still current.
    fn current_slot(&self) -> Option<&Slot> {
        self.shared
            .slots
            .get(self.w)
            .filter(|s| s.generation.load(Ordering::Acquire) == self.gen)
    }

    /// Clean exit: the slot goes not-alive with no death recorded.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
        if let Some(s) = self.current_slot() {
            s.alive.store(false, Ordering::Release);
        }
    }
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(s) = self.current_slot() {
            s.alive.store(false, Ordering::Release);
            s.died_ns
                .store(self.shared.epoch.elapsed_ns(), Ordering::Release);
        }
        self.shared.sup_cv.notify_all();
        self.shared.idle_cv.notify_all();
    }
}

/// Lifetime counters for one service, snapshot via
/// [`crate::service::ServiceHandle::stats`]. All counts are cumulative
/// since `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Tickets accepted by `submit`.
    pub submitted: u64,
    /// Tickets resolved (outcome, shed, or quarantine).
    pub completed: u64,
    /// Submits refused by [`crate::service::AdmissionPolicy::Reject`].
    pub rejected: u64,
    /// Submits timed out at the [`crate::service::AdmissionPolicy::Block`] gate.
    pub timed_out: u64,
    /// Queued sessions shed by [`crate::service::AdmissionPolicy::ShedOldest`].
    pub sheds: u64,
    /// Jobs requeued after a first driver panic.
    pub retries: u64,
    /// Jobs quarantined as poison after a second driver panic.
    pub quarantined: u64,
    /// Fault-injected worker kills taken.
    pub killed: u64,
    /// Fault-injected worker stalls taken.
    pub stalled: u64,
    /// Stall declarations by the supervisor (worker treated as dead).
    pub confiscated: u64,
    /// In-progress jobs recovered from dead/stalled workers and requeued.
    pub orphans_requeued: u64,
    /// Worker threads respawned into previously dead slots.
    pub respawns: u64,
    /// Worker-thread spawn attempts that failed (injected or real).
    pub spawn_failures: u64,
    /// Successful steal events (batches, not jobs).
    pub steals: u64,
    /// Results evicted past `results_capacity` (disclosed via the ring).
    pub results_evicted: u64,
    /// Deepest any single worker queue has been.
    pub queue_depth_hwm: u64,
    /// Most completed-but-untaken results retained at once.
    pub results_depth_hwm: u64,
    /// Total worker death→respawn wall-clock nanoseconds.
    pub recovery_ns_total: u64,
    /// Worst single worker death→respawn wall-clock nanoseconds.
    pub recovery_ns_max: u64,
}

/// Atomic backing for [`ServiceStats`].
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) sheds: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) killed: AtomicU64,
    pub(crate) stalled: AtomicU64,
    pub(crate) confiscated: AtomicU64,
    pub(crate) orphans_requeued: AtomicU64,
    pub(crate) respawns: AtomicU64,
    pub(crate) spawn_failures: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) results_evicted: AtomicU64,
    pub(crate) queue_depth_hwm: AtomicU64,
    pub(crate) results_depth_hwm: AtomicU64,
    pub(crate) recovery_ns_total: AtomicU64,
    pub(crate) recovery_ns_max: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let get = |c: &AtomicU64| c.load(Ordering::Acquire);
        ServiceStats {
            submitted: get(&self.submitted),
            completed: get(&self.completed),
            rejected: get(&self.rejected),
            timed_out: get(&self.timed_out),
            sheds: get(&self.sheds),
            retries: get(&self.retries),
            quarantined: get(&self.quarantined),
            killed: get(&self.killed),
            stalled: get(&self.stalled),
            confiscated: get(&self.confiscated),
            orphans_requeued: get(&self.orphans_requeued),
            respawns: get(&self.respawns),
            spawn_failures: get(&self.spawn_failures),
            steals: get(&self.steals),
            results_evicted: get(&self.results_evicted),
            queue_depth_hwm: get(&self.queue_depth_hwm),
            results_depth_hwm: get(&self.results_depth_hwm),
            recovery_ns_total: get(&self.recovery_ns_total),
            recovery_ns_max: get(&self.recovery_ns_max),
        }
    }
}

impl Shared {
    fn slot_died_ns(&self, w: usize) -> u64 {
        self.slots
            .get(w)
            .map(|s| s.died_ns.load(Ordering::Acquire))
            .unwrap_or(u64::MAX)
    }

    /// Records a failed spawn into slot `w`, preserving the original
    /// death stamp (recovery latency measures first-death→heal).
    fn mark_spawn_failure(&self, w: usize) {
        self.stats.spawn_failures.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.slots.get(w) {
            s.alive.store(false, Ordering::Release);
            let _ = s.died_ns.compare_exchange(
                u64::MAX,
                self.epoch.elapsed_ns(),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    fn add_handle(&self, h: JoinHandle<()>) {
        let mut handles = self.handles.lock();
        handles.push(h);
    }

    /// Spawns (or respawns) the worker thread for slot `w`, consuming one
    /// global spawn attempt. A failure — injected via
    /// [`ServiceFault::SpawnFailAt`] or real — marks the slot dead-and-
    /// unrecovered so a supervising service retries on a later sweep.
    pub(crate) fn spawn_worker(self: &Arc<Self>, w: usize) -> Result<(), ()> {
        let attempt = self.spawn_attempts.fetch_add(1, Ordering::SeqCst);
        if self.plan.spawn_fails.contains(&attempt) {
            self.mark_spawn_failure(w);
            return Err(());
        }
        let Some(slot) = self.slots.get(w) else {
            return Err(());
        };
        // Claim the slot before the thread exists: consume the death
        // stamp, advance the generation (staling any DeathWatch a
        // previous occupant still holds), and mark the slot alive. This
        // must happen pre-spawn — the new thread may pop a job and die
        // before `spawn` even returns here, and post-spawn bookkeeping
        // would then erase that fresh death stamp, wedging the slot
        // "alive" with no thread and no recorded death to sweep.
        let died = slot.died_ns.swap(u64::MAX, Ordering::AcqRel);
        let gen = slot.generation.fetch_add(1, Ordering::AcqRel) + 1;
        slot.alive.store(true, Ordering::Release);
        let shared = Arc::clone(self);
        match std::thread::Builder::new()
            .name(format!("dls-service-{w}"))
            .spawn(move || shared.worker_loop(w, gen))
        {
            Ok(h) => {
                if died != u64::MAX {
                    let delta = self.epoch.elapsed_ns().saturating_sub(died);
                    self.stats.respawns.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .recovery_ns_total
                        .fetch_add(delta, Ordering::Relaxed);
                    self.stats
                        .recovery_ns_max
                        .fetch_max(delta, Ordering::AcqRel);
                }
                self.add_handle(h);
                Ok(())
            }
            Err(_) => {
                // Undo the claim: the slot is still dead, and the
                // original death stamp (if any) is restored so recovery
                // latency keeps measuring first-death→heal across
                // retried sweeps.
                self.stats.spawn_failures.fetch_add(1, Ordering::Relaxed);
                slot.alive.store(false, Ordering::Release);
                let stamp = if died != u64::MAX {
                    died
                } else {
                    self.epoch.elapsed_ns()
                };
                slot.died_ns.store(stamp, Ordering::Release);
                Err(())
            }
        }
    }

    /// Spawns the supervisor thread. A (real) spawn failure degrades to
    /// the unsupervised pool and is disclosed in `spawn_failures`.
    pub(crate) fn spawn_supervisor(self: &Arc<Self>) {
        let shared = Arc::clone(self);
        match std::thread::Builder::new()
            .name("dls-service-supervisor".to_string())
            .spawn(move || shared.supervisor_loop())
        {
            Ok(h) => self.add_handle(h),
            Err(_) => {
                self.stats.spawn_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes and returns every in-progress job registered to worker
    /// `w` (the worker is dead or declared stalled; its registrations
    /// are orphans).
    fn confiscate(&self, w: usize) -> Vec<Arc<crate::service::Job>> {
        let mut running = self.running.lock();
        let tickets: Vec<u64> = running
            .iter()
            .filter(|(_, r)| r.worker == w)
            .map(|(t, _)| *t)
            .collect();
        tickets
            .iter()
            .filter_map(|t| running.remove(t))
            .map(|r| r.job)
            .collect()
    }

    /// `true` while worker `w` holds queued or in-progress work.
    fn worker_busy(&self, w: usize) -> bool {
        if self
            .queue_lens
            .get(w)
            .is_some_and(|l| l.load(Ordering::Acquire) > 0)
        {
            return true;
        }
        let running = self.running.lock();
        running.values().any(|r| r.worker == w)
    }

    /// `true` when no in-progress job belongs to a live worker — the
    /// worker-side shutdown drain condition. Jobs registered to *dead*
    /// workers don't block worker exit; they are recovered by the
    /// supervisor or by shutdown's inline drain.
    pub(crate) fn no_live_running(&self) -> bool {
        let running = self.running.lock();
        running.values().all(|r| !self.slot_alive(r.worker))
    }

    /// Moves every job queued on `w` to living workers (used when slot
    /// `w` cannot be respawned right now). No-op without a live target.
    fn drain_queue_away(&self, w: usize) {
        let has_target = (0..self.queues.len()).any(|i| i != w && self.slot_alive(i));
        if !has_target {
            return;
        }
        while let Some(job) = self.pop_local(w) {
            self.requeue_away(job, w);
        }
    }

    /// One supervisor sweep over dead slots: confiscate orphans, requeue
    /// them on living workers, respawn the thread. When the respawn
    /// fails, the slot's queue is redistributed and the slot is retried
    /// on the next sweep.
    fn sweep_dead(self: &Arc<Self>) {
        for w in 0..self.slots.len() {
            if self.slot_died_ns(w) == u64::MAX {
                continue;
            }
            let orphans = self.confiscate(w);
            for job in orphans {
                self.stats.orphans_requeued.fetch_add(1, Ordering::Relaxed);
                self.requeue_away(job, w);
            }
            if self.spawn_worker(w).is_err() {
                self.drain_queue_away(w);
            }
        }
    }

    /// One stall-detection sweep (only when `stall_ticks > 0`): a live
    /// worker whose heartbeat has not moved for `stall_ticks` consecutive
    /// sweeps while it holds work is declared stalled and marked dead, so
    /// the next `sweep_dead` confiscates its work and replaces it. A
    /// false positive (legitimately long session) is safe — the publish
    /// path resolves the ticket first-wins and replay is bit-exact — but
    /// wasteful, which is why the threshold is operator-chosen and
    /// defaults to off.
    fn sweep_stalls(&self, seen: &mut [(u64, u32)]) {
        for (w, slot) in self.slots.iter().enumerate() {
            let Some(entry) = seen.get_mut(w) else {
                continue;
            };
            if !slot.alive.load(Ordering::Acquire) {
                *entry = (0, 0);
                continue;
            }
            let beat = slot.beat.load(Ordering::Relaxed);
            if beat != entry.0 || !self.worker_busy(w) {
                *entry = (beat, 0);
                continue;
            }
            entry.1 = entry.1.saturating_add(1);
            if entry.1 >= self.stall_ticks {
                *entry = (beat, 0);
                self.stats.confiscated.fetch_add(1, Ordering::Relaxed);
                slot.alive.store(false, Ordering::Release);
                slot.died_ns
                    .store(self.epoch.elapsed_ns(), Ordering::Release);
            }
        }
    }

    /// Shutdown-path recovery for the unsupervised pool: requeue every
    /// dead worker's in-progress jobs so live workers (or the inline
    /// drain) resolve their tickets.
    pub(crate) fn recover_all_dead(&self) {
        for w in 0..self.slots.len() {
            if self.slot_alive(w) {
                continue;
            }
            for job in self.confiscate(w) {
                self.stats.orphans_requeued.fetch_add(1, Ordering::Relaxed);
                self.requeue_away(job, w);
            }
        }
    }

    /// The supervisor thread: sweep for dead and stalled workers every
    /// tick (or immediately when a [`DeathWatch`] fires), exit once
    /// shutdown is flagged and nothing is queued or in progress.
    ///
    /// The exit check and the wait both happen under `sup_mx`, and the
    /// wakeups that can make the check pass — shutdown's broadcast and
    /// the drain of the last job after it — notify under `sup_mx` too
    /// ([`Shared::wake_supervisor`]). A wakeup therefore cannot land
    /// between the check and the wait, so shutdown never waits out a
    /// whole tick.
    pub(crate) fn supervisor_loop(self: &Arc<Self>) {
        let mut seen: Vec<(u64, u32)> = vec![(0, 0); self.slots.len()];
        loop {
            self.sweep_dead();
            if self.stall_ticks > 0 {
                self.sweep_stalls(&mut seen);
            }
            let mut guard = self.sup_mx.lock();
            if self.drained_after_shutdown() {
                return;
            }
            self.sup_cv.wait_for(&mut guard, self.tick);
        }
    }

    /// `true` once shutdown is flagged and no job is queued or in
    /// progress: the supervisor's exit condition.
    pub(crate) fn drained_after_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.queued_total() == 0 && self.running_empty()
    }

    /// Wakes the supervisor while holding `sup_mx`, so the wakeup cannot
    /// fall between its exit check and its wait.
    pub(crate) fn wake_supervisor(&self) {
        let _guard = self.sup_mx.lock();
        self.sup_cv.notify_all();
    }
}
