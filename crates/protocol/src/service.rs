//! Always-on auction service: streaming session ingestion over a
//! supervised, overload-safe fixed worker pool with work stealing.
//!
//! This is the one way to run many sessions concurrently, whether they
//! arrive as a batch known up front or as a continuous stream: submit
//! each config with [`ServiceHandle::submit`], then [`ServiceHandle::wait`]
//! on the tickets. A static shard rule (`s mod workers`) lets one slow
//! stream of work (large m, fault-heavy, crypto-enabled) pile sessions
//! behind a busy worker while its neighbours idle. This module keeps the
//! workers alive across submissions and fixes the placement problem twice
//! over:
//!
//! * **at submit time** — a ticket is placed on the *shortest* queue
//!   (by current length, ties to the lowest worker index), not on
//!   `ticket mod workers`;
//! * **at run time** — a worker whose own deque is empty **steals the
//!   back half** of the busiest victim's deque, so a backlog behind a
//!   heavy session drains through every idle worker instead of waiting
//!   for its owner.
//!
//! ## The service fault model
//!
//! The paper removes the trusted control processor, so in a deployment
//! this service *is* the substrate the mechanism runs on — it has to
//! survive overload and worker failure the way PR 4 made sessions
//! survive processor faults. Three layers (DESIGN.md §16):
//!
//! * **Admission** — [`ServiceConfig::queue_capacity`] bounds queued
//!   work; [`AdmissionPolicy`] picks what happens at the bound: typed
//!   rejection, bounded blocking, or shed-oldest with the shed ticket
//!   surfaced as a typed [`Completed`] outcome — never silently.
//!   [`ServiceConfig::results_capacity`] bounds the results map the same
//!   way, with evictions disclosed via [`ServiceStats`] and
//!   [`ServiceHandle::recent_evictions`].
//! * **Supervision** — a supervisor thread ([`crate::supervisor`])
//!   respawns workers whose threads die, requeues their orphaned
//!   in-progress jobs, and (optionally) confiscates work from stalled
//!   workers. Spawn failure at [`ServiceHandle::start`] is a typed
//!   error or a shrunk pool — never a stranded queue.
//! * **Retry & quarantine** — a job whose session driver panics is
//!   retried once on a *different* worker (sound because replay is
//!   deterministic: same [`SessionConfig`] → bit-exact outcome); a
//!   second panic quarantines it as a typed poison outcome instead of
//!   crash-looping.
//!
//! The invariant all three defend: **no accepted ticket is ever lost** —
//! every ticket from a successful [`ServiceHandle::submit`] resolves to
//! an outcome, a shed notice, or a quarantine notice. The chaos suite
//! (`tests/tests/service_chaos.rs`) drives kill/stall/panic churn
//! through [`ServiceFaultPlan`] and asserts exactly that.
//!
//! ## Why determinism survives placement, faults included
//!
//! Virtual time is *per session*: every session runs through
//! [`crate::executor::run_session_vm`]'s state machines via the shared
//! per-session driver, carrying its own [`crate::sched::VirtualClock`]
//! and event queue in the worker's scratch arena. Which worker runs a
//! session, when, and on which attempt is a wall-clock concern that
//! never feeds the protocol: outcomes are bit-exact across both
//! placements and against the frozen outcome digests even when the
//! session's first worker was killed mid-job (pinned by
//! `tests/tests/{service_differential,service_chaos}.rs`). Wall-clock
//! enters exactly once — the [`latency`] module — and those readings are
//! reported *beside* outcomes, never used to compute them.
//!
//! ## Queue discipline
//!
//! Owners pop from the **front** of their deque (oldest first); thieves
//! split off the **back** half (newest). FIFO order is therefore
//! preserved for the oldest queued sessions while the youngest migrate
//! to idle workers. No two queue locks are ever held at once: a steal
//! drains the victim's tail under the victim's lock, releases it, and
//! only then touches the thief's own queue. Recovery requeues follow the
//! same rule and override placement: an orphaned or retried job goes to
//! the shortest *alive* queue other than the failed worker's, even under
//! [`Placement::StaticShard`].

use crate::config::SessionConfig;
use crate::executor::{drive_session, drive_session_caught, VmScratch};
use crate::runtime::{ProtocolViolation, RunError, SessionOutcome};
use crate::supervisor::{CompiledPlan, Counters, DeathWatch, ServiceFaultPlan, ServiceStats, Slot};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many evicted tickets [`ServiceHandle::recent_evictions`] retains.
const EVICTION_RING: usize = 64;

/// Wall-clock latency capture, quarantined: these are the only wall-clock
/// reads on the service path. A stamp is taken at enqueue and read at
/// completion; the resulting nanosecond figure is attached to the
/// [`Completed`] record and never influences a session outcome, which is
/// driven entirely by per-session virtual time. The supervisor reuses the
/// same stamp type to report worker-recovery latency — again a reading
/// beside the data path, never an input to it.
pub(crate) mod latency {
    use std::time::Instant;

    /// An opaque wall-clock timestamp.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Stamp(Instant);

    impl Stamp {
        /// Reads the wall clock once.
        pub(crate) fn now() -> Self {
            // dls-lint: allow(determinism) -- enqueue→complete latency capture; the reading is reported beside the outcome and never feeds protocol state
            Stamp(Instant::now())
        }

        /// Nanoseconds elapsed since the stamp, saturating at `u64::MAX`.
        pub(crate) fn elapsed_ns(&self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }
}

/// How submitted sessions are placed on worker queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Shortest-queue-first at submit, steal-half when idle. The
    /// production policy.
    Stealing,
    /// `ticket mod workers` at submit, no stealing: a deterministic
    /// partition of a batch, kept as the benchmark baseline so both
    /// policies measure identical submission/retrieval machinery. Dead
    /// worker slots are probed past so a shrunk pool still drains every
    /// shard.
    StaticShard,
}

/// What [`ServiceHandle::submit`] does when the queued-session count has
/// reached [`ServiceConfig::queue_capacity`].
///
/// Capacity is enforced against concurrent submitters optimistically:
/// several submitters that pass the admission check together can
/// transiently overshoot the bound by at most the number of in-flight
/// `submit` calls. The bound is on *queued* sessions; running sessions
/// are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail fast with [`SubmitError::Overloaded`].
    Reject,
    /// Backpressure: block the submitter until space frees or `timeout`
    /// elapses, then fail with [`SubmitError::AdmissionTimeout`]. The
    /// timeout is accounted in bounded slices so a burst of wakeups can
    /// only lengthen, never shorten, the total wait.
    Block {
        /// Longest a submitter may be held at the admission gate.
        timeout: Duration,
    },
    /// Admit the new session by evicting the oldest *queued* session,
    /// which resolves to a typed [`ServiceError::Shed`] outcome on its
    /// ticket — shed work is disclosed, never dropped silently.
    ShedOldest,
}

/// Typed refusal from [`ServiceHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// [`AdmissionPolicy::Reject`] and the queue is full.
    Overloaded {
        /// Sessions queued when the submit was refused.
        queued: usize,
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
    /// [`AdmissionPolicy::Block`] and no space freed within the timeout.
    AdmissionTimeout {
        /// Sessions queued when the timeout fired.
        queued: usize,
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
    /// The service is shutting down; no new work is accepted.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { queued, capacity } => {
                write!(f, "service overloaded: {queued} queued >= capacity {capacity}")
            }
            SubmitError::AdmissionTimeout { queued, capacity } => write!(
                f,
                "admission timed out: {queued} queued >= capacity {capacity} for the whole timeout"
            ),
            SubmitError::ShutDown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Typed failure from [`ServiceHandle::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartError {
    /// Every worker spawn failed; a service with zero workers would
    /// strand each accepted ticket, so none is returned instead.
    NoWorkers {
        /// Spawns attempted (the configured worker count).
        attempted: usize,
    },
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::NoWorkers { attempted } => {
                write!(f, "no service workers could be spawned ({attempted} attempted)")
            }
        }
    }
}

impl std::error::Error for StartError {}

/// Why a ticket resolved without a session outcome.
#[derive(Debug)]
pub enum ServiceError {
    /// The session ran and failed with a protocol-level error — the same
    /// error [`crate::executor::run_session_vm`] returns for this config.
    Session(RunError),
    /// The session's driver panicked on two different attempts; the job
    /// is quarantined as poison instead of crash-looping the pool. This
    /// mirrors PR 4's degradation policy one layer up: the *service*
    /// stays live and discloses the failure instead of dying with it.
    Quarantined {
        /// The typed error the final panic was contained to.
        error: RunError,
        /// Driver attempts consumed (always ≥ 2 when quarantined).
        attempts: u32,
    },
    /// The session was evicted unstarted by [`AdmissionPolicy::ShedOldest`]
    /// to admit newer work.
    Shed {
        /// Sessions queued at the moment of shedding.
        queued: usize,
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Session(e) => write!(f, "session failed: {e}"),
            ServiceError::Quarantined { error, attempts } => {
                write!(f, "quarantined as poison after {attempts} attempts: {error}")
            }
            ServiceError::Shed { queued, capacity } => {
                write!(f, "shed unstarted at {queued} queued (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Configuration for [`ServiceHandle::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads to spawn (floored at 1).
    pub workers: usize,
    /// Queue placement and stealing policy.
    pub placement: Placement,
    /// Upper bound on *queued* (not yet running) sessions. `None` — the
    /// default — admits everything, the pre-hardening behaviour.
    pub queue_capacity: Option<usize>,
    /// What `submit` does at the `queue_capacity` bound. Ignored while
    /// `queue_capacity` is `None`.
    pub admission: AdmissionPolicy,
    /// Upper bound on retained completed-but-untaken results. At the
    /// bound, publishing a new result evicts the oldest ticket; evictions
    /// are counted in [`ServiceStats`] and the most recent are listed by
    /// [`ServiceHandle::recent_evictions`]. `None` retains forever.
    pub results_capacity: Option<usize>,
    /// Run the supervisor thread: respawn dead workers, requeue their
    /// orphaned jobs, confiscate from stalled workers. On by default;
    /// turning it off reverts to the unsupervised PR 9 pool (useful in
    /// tests that want a failure to stay unhealed).
    pub supervise: bool,
    /// Supervisor sweep period.
    pub tick: Duration,
    /// Consecutive ticks a busy worker's heartbeat may sit unchanged
    /// before the supervisor declares it stalled and confiscates its
    /// work. `0` — the default — disables stall detection entirely: a
    /// legitimately long session (heavy m, crypto) beats only between
    /// jobs, so any finite threshold trades false positives for
    /// detection latency, and that trade belongs to the operator.
    pub stall_ticks: u32,
    /// Deterministic fault injection for the chaos suite and the faulted
    /// benchmark cells. Empty (no faults) by default.
    pub fault_plan: ServiceFaultPlan,
}

impl ServiceConfig {
    /// `workers` stealing workers with no bounds.
    pub fn stealing(workers: usize) -> Self {
        ServiceConfig {
            workers,
            placement: Placement::Stealing,
            queue_capacity: None,
            admission: AdmissionPolicy::Reject,
            results_capacity: None,
            supervise: true,
            tick: Duration::from_millis(5),
            stall_ticks: 0,
            fault_plan: ServiceFaultPlan::default(),
        }
    }

    /// `workers` static-shard workers with no bounds.
    pub fn static_shard(workers: usize) -> Self {
        ServiceConfig {
            placement: Placement::StaticShard,
            ..ServiceConfig::stealing(workers)
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig::stealing(workers)
    }
}

/// A finished session, retrievable by ticket.
#[derive(Debug)]
pub struct Completed {
    /// The ticket [`ServiceHandle::submit`] returned for this session.
    pub ticket: u64,
    /// Index of the worker that resolved the session (who ran it — an
    /// artifact of placement, not of the protocol). For a shed ticket,
    /// the queue it was shed from; for an inline shutdown drain,
    /// `usize::MAX`.
    pub worker: usize,
    /// Wall-clock enqueue→resolve latency in nanoseconds.
    pub latency_ns: u64,
    /// Driver attempts consumed (1 for the common case; 2 after a
    /// panic-retry; 0 for a shed ticket that never started).
    pub attempts: u32,
    /// The session outcome — bit-exact with
    /// [`crate::executor::run_session_vm`] on the same config — or the
    /// typed reason the service resolved the ticket without one.
    pub outcome: Result<SessionOutcome, ServiceError>,
}

/// One queued session. Shared (`Arc`) between the owning queue and the
/// in-progress registry so recovery can requeue a job without cloning
/// its config; the publish path dedups duplicate runs by ticket.
pub(crate) struct Job {
    pub(crate) ticket: u64,
    pub(crate) cfg: SessionConfig,
    pub(crate) enqueued: latency::Stamp,
    /// Driver attempts started so far; also drives `PanicOnTicket`
    /// injection (panic while `attempts < times`), making the
    /// retry-then-quarantine path deterministic.
    pub(crate) attempts: AtomicU32,
}

/// A job some worker has popped but not yet published: the supervisor's
/// recovery unit. Keyed by ticket in `Shared::running`.
pub(crate) struct Running {
    pub(crate) job: Arc<Job>,
    pub(crate) worker: usize,
}

/// Completed-result storage plus the ticket-lifecycle ledger. `pending`
/// holds every accepted-but-unresolved ticket, so `wait` can distinguish
/// "still coming" (block) from "already consumed/evicted/never issued"
/// (return `None` promptly) without polling `in_flight`.
pub(crate) struct Table {
    pub(crate) done: BTreeMap<u64, Completed>,
    pub(crate) pending: BTreeSet<u64>,
    /// Most recently evicted tickets, newest last (bounded disclosure
    /// ring backing [`ServiceHandle::recent_evictions`]).
    pub(crate) evicted: VecDeque<u64>,
}

/// State shared between the handle, the workers, and the supervisor.
pub(crate) struct Shared {
    /// Per-worker deques. Owners pop the front; thieves split the back.
    pub(crate) queues: Vec<Mutex<VecDeque<Arc<Job>>>>,
    /// Per-queue length mirrors, maintained on push/pop/steal so placement
    /// and victim selection scan atomics instead of taking locks.
    pub(crate) queue_lens: Vec<AtomicUsize>,
    /// Per-worker liveness and heartbeat, maintained by [`DeathWatch`]
    /// and read by placement and the supervisor.
    pub(crate) slots: Vec<Slot>,
    /// Accepted tickets not yet resolved (mirrors `Table::pending`).
    pub(crate) in_flight: AtomicUsize,
    /// Parking lot for idle workers; the mutex guards only the wait.
    pub(crate) idle_mx: Mutex<()>,
    pub(crate) idle_cv: Condvar,
    /// Parking lot for submitters blocked at the admission gate.
    pub(crate) admit_mx: Mutex<()>,
    pub(crate) admit_cv: Condvar,
    /// Parking lot for stall-injected workers (fault injection only).
    pub(crate) stall_mx: Mutex<()>,
    pub(crate) stall_cv: Condvar,
    /// Parking lot for the supervisor between sweeps.
    pub(crate) sup_mx: Mutex<()>,
    pub(crate) sup_cv: Condvar,
    /// Results, pending set, and eviction ring; waited on via `results_cv`.
    pub(crate) table: Mutex<Table>,
    pub(crate) results_cv: Condvar,
    /// In-progress registry: popped-but-unpublished jobs, by ticket.
    pub(crate) running: Mutex<BTreeMap<u64, Running>>,
    /// Live thread handles; the supervisor pushes respawns here so
    /// shutdown can join workers it never saw spawn.
    pub(crate) handles: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) next_ticket: AtomicU64,
    /// Global job-start counter: increments once per pop→run attempt
    /// (retries and requeues included). `KillWorkerAtJob`/`StallWorker`
    /// faults key off this index.
    pub(crate) jobs_started: AtomicU64,
    /// Global spawn-attempt counter (initial spawns and respawns);
    /// `SpawnFailAt` faults key off this index.
    pub(crate) spawn_attempts: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Service birth stamp; slot death/recovery times are nanoseconds
    /// relative to this.
    pub(crate) epoch: latency::Stamp,
    pub(crate) placement: Placement,
    pub(crate) queue_capacity: Option<usize>,
    pub(crate) admission: AdmissionPolicy,
    pub(crate) results_capacity: Option<usize>,
    pub(crate) supervise: bool,
    pub(crate) tick: Duration,
    pub(crate) stall_ticks: u32,
    pub(crate) plan: CompiledPlan,
    pub(crate) stats: Counters,
}

impl Shared {
    pub(crate) fn queued_total(&self) -> usize {
        self.queue_lens
            .iter()
            .map(|l| l.load(Ordering::Acquire))
            .sum()
    }

    /// `true` while worker slot `w` has a live (spawned, not dead) thread.
    pub(crate) fn slot_alive(&self, w: usize) -> bool {
        self.slots
            .get(w)
            .is_some_and(|s| s.alive.load(Ordering::Acquire))
    }

    /// Advances worker `w`'s heartbeat (read by stall detection).
    fn beat(&self, w: usize) {
        if let Some(s) = self.slots.get(w) {
            s.beat.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Picks the queue a fresh ticket lands on, skipping dead slots.
    fn place(&self, ticket: u64) -> usize {
        let n = self.queues.len().max(1);
        match self.placement {
            Placement::StaticShard => {
                let start = (ticket % n as u64) as usize;
                // Probe forward from the home shard to the first alive
                // slot so a shrunk pool still drains every shard.
                (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&w| self.slot_alive(w))
                    .unwrap_or(start)
            }
            Placement::Stealing => self
                .queue_lens
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.slot_alive(i))
                .map(|(i, l)| (l.load(Ordering::Acquire), i))
                .min()
                .map(|(_, i)| i)
                .unwrap_or(0),
        }
    }

    /// Pushes a job onto worker `target`'s deque and wakes the pool.
    pub(crate) fn enqueue(&self, target: usize, job: Arc<Job>) {
        debug_assert!(
            target < self.queues.len(),
            "enqueue target {target} out of range ({} queues): the job would be silently dropped",
            self.queues.len()
        );
        if let Some(q) = self.queues.get(target) {
            q.lock().push_back(job);
        }
        if let Some(len) = self.queue_lens.get(target) {
            let depth = len.fetch_add(1, Ordering::AcqRel).saturating_add(1);
            self.stats
                .queue_depth_hwm
                .fetch_max(depth as u64, Ordering::AcqRel);
        }
        self.idle_cv.notify_all();
    }

    /// Requeues a job away from worker `from`: shortest alive queue other
    /// than `from`, falling back to any alive queue, then to `from`
    /// itself (a dead slot's queue is still drained at shutdown).
    /// Recovery placement deliberately overrides `StaticShard`.
    pub(crate) fn requeue_away(&self, job: Arc<Job>, from: usize) {
        let target = self
            .queue_lens
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != from && self.slot_alive(i))
            .map(|(i, l)| (l.load(Ordering::Acquire), i))
            .min()
            .map(|(_, i)| i)
            .or_else(|| (0..self.queues.len()).find(|&i| self.slot_alive(i)))
            .unwrap_or(from);
        self.enqueue(target, job);
    }

    /// Pops the oldest job from worker `w`'s own deque.
    pub(crate) fn pop_local(&self, w: usize) -> Option<Arc<Job>> {
        if self
            .queue_lens
            .get(w)
            .is_none_or(|l| l.load(Ordering::Acquire) == 0)
        {
            return None;
        }
        let job = self.queues.get(w)?.lock().pop_front();
        if job.is_some() {
            if let Some(len) = self.queue_lens.get(w) {
                len.fetch_sub(1, Ordering::AcqRel);
            }
            self.notify_admission();
        }
        job
    }

    /// Wakes submitters blocked at the admission gate (space may have
    /// freed). Cheap no-op when no capacity is configured.
    fn notify_admission(&self) {
        if self.queue_capacity.is_some() {
            self.admit_cv.notify_all();
        }
    }

    /// Steals the back half of the busiest other queue into worker `w`'s
    /// deque and returns the first stolen job. The victim's lock is
    /// released before the thief's own queue is touched, so no two queue
    /// locks are ever held together.
    fn steal_into(&self, w: usize) -> Option<Arc<Job>> {
        let victim = self
            .queue_lens
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != w)
            .map(|(i, l)| (l.load(Ordering::Acquire), i))
            .filter(|&(len, _)| len > 0)
            .max_by_key(|&(len, i)| (len, std::cmp::Reverse(i)))
            .map(|(_, i)| i)?;

        let mut stolen: VecDeque<Arc<Job>> = {
            let mut q = self.queues.get(victim)?.lock();
            let n = q.len();
            if n == 0 {
                return None;
            }
            // Take ceil(n/2) newest jobs; the victim keeps its oldest.
            let keep = n / 2;
            let tail = q.split_off(keep);
            if let Some(len) = self.queue_lens.get(victim) {
                len.fetch_sub(tail.len(), Ordering::AcqRel);
            }
            tail
        };

        let first = stolen.pop_front();
        if first.is_some() {
            self.stats.steals.fetch_add(1, Ordering::Relaxed);
            self.notify_admission();
        }
        if !stolen.is_empty() {
            let rest = stolen.len();
            if let Some(q) = self.queues.get(w) {
                q.lock().append(&mut stolen);
            }
            if let Some(len) = self.queue_lens.get(w) {
                len.fetch_add(rest, Ordering::AcqRel);
            }
            // The thief's queue just became non-empty; other idle workers
            // may steal from it in turn.
            self.idle_cv.notify_all();
        }
        first
    }

    /// Marks a freshly issued ticket pending (accepted, unresolved).
    fn mark_pending(&self, ticket: u64) {
        {
            let mut table = self.table.lock();
            table.pending.insert(ticket);
        }
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// Removes a still-queued job by ticket from queue `target` (the
    /// submit/shutdown race repair). `true` if the job was found.
    fn cancel_queued(&self, target: usize, ticket: u64) -> bool {
        let removed = match self.queues.get(target) {
            Some(q) => {
                let mut q = q.lock();
                let before = q.len();
                q.retain(|j| j.ticket != ticket);
                before != q.len()
            }
            None => false,
        };
        if removed {
            if let Some(len) = self.queue_lens.get(target) {
                len.fetch_sub(1, Ordering::AcqRel);
            }
        }
        removed
    }

    /// Un-accepts a cancelled ticket (pairs with `mark_pending`).
    fn unmark_pending(&self, ticket: u64) {
        {
            let mut table = self.table.lock();
            table.pending.remove(&ticket);
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Registers a popped job in the in-progress registry so the
    /// supervisor can recover it if this worker dies mid-run.
    fn note_running(&self, job: &Arc<Job>, w: usize) {
        let mut running = self.running.lock();
        running.insert(
            job.ticket,
            Running {
                job: Arc::clone(job),
                worker: w,
            },
        );
    }

    /// Drops a ticket's in-progress registration, if any.
    fn forget_running(&self, ticket: u64) {
        let mut running = self.running.lock();
        running.remove(&ticket);
    }

    /// `true` when no popped job is awaiting publication.
    pub(crate) fn running_empty(&self) -> bool {
        self.running.lock().is_empty()
    }

    /// Publishes a resolution for `ticket`, exactly once: the `pending`
    /// removal is the linearization point, so a duplicate run of the same
    /// job (stall-confiscation races, zombie resumes) publishes first-
    /// wins and the loser is discarded. Deterministic replay makes either
    /// winner bit-exact, so first-wins loses nothing. Evicts the oldest
    /// retained result past `results_capacity`, into the disclosure ring.
    fn publish(&self, done: Completed) {
        let ticket = done.ticket;
        let fresh = {
            let mut table = self.table.lock();
            if table.pending.remove(&ticket) {
                if let Some(cap) = self.results_capacity {
                    while table.done.len() >= cap.max(1) {
                        if let Some((old, _)) = table.done.pop_first() {
                            table.evicted.push_back(old);
                            if table.evicted.len() > EVICTION_RING {
                                table.evicted.pop_front();
                            }
                            self.stats.results_evicted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            break;
                        }
                    }
                }
                table.done.insert(ticket, done);
                self.stats
                    .results_depth_hwm
                    .fetch_max(table.done.len() as u64, Ordering::AcqRel);
                true
            } else {
                false
            }
        };
        self.forget_running(ticket);
        if self.drained_after_shutdown() {
            // The last job after shutdown: the supervisor may be parked
            // for a whole tick waiting for exactly this.
            self.wake_supervisor();
        }
        if !fresh {
            return;
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.results_cv.notify_all();
    }

    /// Sheds the oldest queued job (smallest front ticket across queues)
    /// and resolves its ticket as [`ServiceError::Shed`]. Best-effort
    /// under races: if every queue drained meanwhile, sheds nothing.
    fn shed_oldest(&self, capacity: usize) {
        let victim = {
            let mut best: Option<(u64, usize)> = None;
            for (i, q) in self.queues.iter().enumerate() {
                let front = q.lock().front().map(|j| j.ticket);
                if let Some(t) = front {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            best
        };
        let Some((_, qi)) = victim else { return };
        let Some(job) = self.pop_local(qi) else { return };
        self.stats.sheds.fetch_add(1, Ordering::Relaxed);
        self.publish(Completed {
            ticket: job.ticket,
            worker: qi,
            latency_ns: job.enqueued.elapsed_ns(),
            attempts: 0,
            outcome: Err(ServiceError::Shed {
                queued: self.queued_total(),
                capacity,
            }),
        });
    }

    /// Holds a blocked submitter at the admission gate until space frees,
    /// shutdown begins, or the policy timeout elapses. The timeout is
    /// decremented only by slices the wait actually timed out on, so
    /// spurious or early wakeups can only lengthen the total wait.
    fn admit_block(&self, capacity: usize, timeout: Duration) -> Result<(), SubmitError> {
        let mut remaining = timeout;
        let mut guard = self.admit_mx.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(SubmitError::ShutDown);
            }
            let queued = self.queued_total();
            if queued < capacity {
                return Ok(());
            }
            if remaining.is_zero() {
                self.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::AdmissionTimeout { queued, capacity });
            }
            let slice = remaining.min(Duration::from_millis(10));
            let res = self.admit_cv.wait_for(&mut guard, slice);
            if res.timed_out() {
                remaining = remaining.saturating_sub(slice);
            }
        }
    }

    /// Parks a stall-injected worker until shutdown (fault injection
    /// only). The zombie resumes at shutdown and re-runs its job; the
    /// publish path discards the duplicate if the supervisor already
    /// confiscated and re-ran it elsewhere.
    fn stall_park(&self) {
        let mut guard = self.stall_mx.lock();
        while !self.shutdown.load(Ordering::SeqCst) {
            self.stall_cv
                .wait_for(&mut guard, Duration::from_millis(10));
        }
    }

    /// Runs one popped job to resolution: publish, retry elsewhere after
    /// a first driver panic, quarantine after a second.
    pub(crate) fn run_job(&self, w: usize, job: Arc<Job>, scratch: &mut VmScratch) {
        let attempt = job.attempts.fetch_add(1, Ordering::SeqCst).saturating_add(1);
        let injected_panic = self
            .plan
            .panics
            .get(&job.ticket)
            .is_some_and(|&times| attempt <= times);
        let result = if injected_panic {
            None
        } else {
            drive_session_caught(&job.cfg, scratch)
        };
        match result {
            Some(outcome) => self.publish(Completed {
                ticket: job.ticket,
                worker: w,
                latency_ns: job.enqueued.elapsed_ns(),
                attempts: attempt,
                outcome: outcome.map_err(ServiceError::Session),
            }),
            None => {
                if !injected_panic {
                    // A real panic may have torn the arena mid-session.
                    *scratch = VmScratch::new();
                }
                if attempt >= 2 {
                    self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                    self.publish(Completed {
                        ticket: job.ticket,
                        worker: w,
                        latency_ns: job.enqueued.elapsed_ns(),
                        attempts: attempt,
                        outcome: Err(ServiceError::Quarantined {
                            error: RunError::Protocol(ProtocolViolation::invalid_state(
                                "service worker panicked twice while driving a session; \
                                 job quarantined as poison",
                            )),
                            attempts: attempt,
                        }),
                    });
                } else {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.requeue_away(job, w);
                }
            }
        }
    }

    /// Worker `w`'s main loop: drain own queue, steal when empty, park
    /// when the whole service is idle. Exits once shutdown is flagged and
    /// no work is queued or in progress anywhere. Thread death (fault-
    /// injected or real) is observed by the armed [`DeathWatch`].
    pub(crate) fn worker_loop(&self, w: usize, gen: u64) {
        let mut scratch = VmScratch::new();
        let mut watch = DeathWatch::arm(self, w, gen);
        loop {
            self.beat(w);
            let job = match self.placement {
                Placement::Stealing => self.pop_local(w).or_else(|| self.steal_into(w)),
                Placement::StaticShard => self.pop_local(w),
            };
            if let Some(job) = job {
                let n = self.jobs_started.fetch_add(1, Ordering::SeqCst);
                self.note_running(&job, w);
                if self.plan.kills.contains(&n) {
                    self.stats.killed.fetch_add(1, Ordering::Relaxed);
                    // Abrupt death: the DeathWatch drop records it and the
                    // supervisor recovers the registered job.
                    return;
                }
                if self.plan.stalls.contains(&n) {
                    self.stats.stalled.fetch_add(1, Ordering::Relaxed);
                    self.stall_park();
                }
                self.run_job(w, job, &mut scratch);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst)
                && self.queued_total() == 0
                && self.no_live_running()
            {
                watch.disarm();
                return;
            }
            let mut guard = self.idle_mx.lock();
            // Re-check under the lock: a submit may have landed between
            // the empty scan above and taking the lock. The bounded wait
            // is a backstop against the remaining notify race; it costs
            // at most one timeout of idle latency, never a hang.
            if self.queued_total() == 0 && !self.shutdown.load(Ordering::SeqCst) {
                self.idle_cv
                    .wait_for(&mut guard, Duration::from_millis(10));
            }
        }
    }

    /// Drains thread handles accumulated so far (initial spawns plus any
    /// supervisor respawns).
    fn take_handles(&self) -> Vec<JoinHandle<()>> {
        let mut handles = self.handles.lock();
        handles.split_off(0)
    }

    /// Pops one queued job from any queue (shutdown inline drain).
    fn pop_any(&self) -> Option<Arc<Job>> {
        (0..self.queues.len()).find_map(|i| self.pop_local(i))
    }

    /// Confiscates every in-progress registration (shutdown inline drain;
    /// the per-worker variant lives in the supervisor).
    fn confiscate_all_running(&self) -> Vec<Arc<Job>> {
        let mut running = self.running.lock();
        let drained = std::mem::take(&mut *running);
        drained.into_values().map(|r| r.job).collect()
    }

    /// Runs one job in the calling thread and publishes its resolution
    /// (shutdown inline drain).
    fn resolve_inline(&self, job: Arc<Job>, scratch: &mut VmScratch) {
        let outcome = drive_session(&job.cfg, scratch);
        let attempts = job.attempts.fetch_add(1, Ordering::SeqCst).saturating_add(1);
        self.publish(Completed {
            ticket: job.ticket,
            worker: usize::MAX,
            latency_ns: job.enqueued.elapsed_ns(),
            attempts,
            outcome: outcome.map_err(ServiceError::Session),
        });
    }

    /// Shutdown's last-resort drain: resolves, in the calling thread,
    /// every job still registered in-progress or still queued. Runs after
    /// the worker joins, when every slot may be dead — confiscated jobs
    /// are therefore run directly rather than requeued (`requeue_away`
    /// with zero live slots has no valid target and would drop the job,
    /// stranding its ticket in `pending` forever).
    pub(crate) fn drain_inline(&self) {
        let mut scratch = VmScratch::new();
        for job in self.confiscate_all_running() {
            self.resolve_inline(job, &mut scratch);
        }
        while let Some(job) = self.pop_any() {
            self.resolve_inline(job, &mut scratch);
        }
    }

    /// Wakes every parked thread class (shutdown broadcast).
    fn wake_all(&self) {
        self.idle_cv.notify_all();
        self.admit_cv.notify_all();
        self.stall_cv.notify_all();
        self.wake_supervisor();
        self.results_cv.notify_all();
    }
}

/// A running session service: a supervised fixed pool of long-lived
/// workers consuming a continuous stream of submissions.
///
/// ```no_run
/// use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
/// use dls_protocol::service::{ServiceConfig, ServiceHandle};
/// use dls_dlt::SystemModel;
///
/// let svc = ServiceHandle::start(ServiceConfig::stealing(4)).expect("workers spawned");
/// let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
///     .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
///     .processor(ProcessorConfig::new(2.0, Behavior::Compliant))
///     .build()
///     .unwrap();
/// let ticket = svc.submit(cfg).expect("admitted");
/// let done = svc.wait(ticket).unwrap();
/// println!("latency: {} ns", done.latency_ns);
/// svc.shutdown();
/// ```
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Spawns the worker pool (and, unless disabled, the supervisor) and
    /// returns the submission handle. A slot whose spawn fails starts
    /// dead — the pool shrinks, placement skips it, and the supervisor
    /// heals it later; if *every* spawn fails the service refuses to
    /// start rather than strand accepted tickets.
    pub fn start(cfg: ServiceConfig) -> Result<ServiceHandle, StartError> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queue_lens: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            slots: (0..workers).map(|_| Slot::new()).collect(),
            in_flight: AtomicUsize::new(0),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            admit_mx: Mutex::new(()),
            admit_cv: Condvar::new(),
            stall_mx: Mutex::new(()),
            stall_cv: Condvar::new(),
            sup_mx: Mutex::new(()),
            sup_cv: Condvar::new(),
            table: Mutex::new(Table {
                done: BTreeMap::new(),
                pending: BTreeSet::new(),
                evicted: VecDeque::new(),
            }),
            results_cv: Condvar::new(),
            running: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            next_ticket: AtomicU64::new(0),
            jobs_started: AtomicU64::new(0),
            spawn_attempts: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            epoch: latency::Stamp::now(),
            placement: cfg.placement,
            queue_capacity: cfg.queue_capacity,
            admission: cfg.admission,
            results_capacity: cfg.results_capacity,
            supervise: cfg.supervise,
            tick: cfg.tick,
            stall_ticks: cfg.stall_ticks,
            plan: CompiledPlan::compile(&cfg.fault_plan),
            stats: Counters::default(),
        });
        let mut spawned = 0usize;
        for w in 0..workers {
            if shared.spawn_worker(w).is_ok() {
                spawned += 1;
            }
        }
        if spawned == 0 {
            return Err(StartError::NoWorkers { attempted: workers });
        }
        if shared.supervise {
            shared.spawn_supervisor();
        }
        Ok(ServiceHandle { shared })
    }

    /// Number of workers currently alive. Dips while a dead worker awaits
    /// respawn; `0` is possible mid-recovery (accepted tickets still
    /// resolve — the supervisor respawns, and shutdown drains inline as
    /// a last resort).
    pub fn workers(&self) -> usize {
        (0..self.shared.slots.len())
            .filter(|&w| self.shared.slot_alive(w))
            .count()
    }

    /// Submits a session and returns its ticket, or a typed refusal.
    /// Tickets increase monotonically from zero in submission order.
    /// Once `submit` returns `Ok`, the ticket is *accepted*: it will
    /// resolve to an outcome, a shed notice, or a quarantine notice —
    /// never vanish — even across worker deaths and shutdown races.
    pub fn submit(&self, cfg: SessionConfig) -> Result<u64, SubmitError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShutDown);
        }
        if let Some(capacity) = shared.queue_capacity {
            let capacity = capacity.max(1);
            match shared.admission {
                AdmissionPolicy::Reject => {
                    let queued = shared.queued_total();
                    if queued >= capacity {
                        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(SubmitError::Overloaded { queued, capacity });
                    }
                }
                AdmissionPolicy::Block { timeout } => {
                    shared.admit_block(capacity, timeout)?;
                }
                AdmissionPolicy::ShedOldest => {
                    if shared.queued_total() >= capacity {
                        shared.shed_oldest(capacity);
                    }
                }
            }
        }
        let ticket = shared.next_ticket.fetch_add(1, Ordering::AcqRel);
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.mark_pending(ticket);
        let job = Arc::new(Job {
            ticket,
            cfg,
            enqueued: latency::Stamp::now(),
            attempts: AtomicU32::new(0),
        });
        let target = shared.place(ticket);
        shared.enqueue(target, job);
        // Shutdown race repair: if the stop sequence began after the
        // check above, its drain may already have passed this queue. Pull
        // the job back out; if a worker (or the drain) already popped it,
        // the ticket is being resolved normally and stays accepted.
        if shared.shutdown.load(Ordering::SeqCst) && shared.cancel_queued(target, ticket) {
            shared.unmark_pending(ticket);
            if shared.drained_after_shutdown() {
                shared.wake_supervisor();
            }
            return Err(SubmitError::ShutDown);
        }
        Ok(ticket)
    }

    /// Sessions accepted but not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// A snapshot of the service's health and lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Tickets most recently evicted from the results map (oldest first,
    /// bounded ring) — the disclosure trail for
    /// [`ServiceConfig::results_capacity`].
    pub fn recent_evictions(&self) -> Vec<u64> {
        let table = self.shared.table.lock();
        table.evicted.iter().copied().collect()
    }

    /// Takes a finished session without blocking. `None` if the ticket is
    /// unknown, still pending, already taken, or evicted.
    pub fn try_take(&self, ticket: u64) -> Option<Completed> {
        let mut table = self.shared.table.lock();
        table.done.remove(&ticket)
    }

    /// Blocks until `ticket` resolves and takes its result. Returns
    /// `None` promptly — even while other sessions are still running —
    /// for a ticket that was never issued, was already taken, or was
    /// evicted from the results map.
    pub fn wait(&self, ticket: u64) -> Option<Completed> {
        if ticket >= self.shared.next_ticket.load(Ordering::Acquire) {
            return None;
        }
        let mut table = self.shared.table.lock();
        loop {
            if let Some(done) = table.done.remove(&ticket) {
                return Some(done);
            }
            if !table.pending.contains(&ticket) {
                // Consumed, evicted, or cancelled — it is not coming back.
                return None;
            }
            self.shared
                .results_cv
                .wait_for(&mut table, Duration::from_millis(10));
        }
    }

    /// Flags shutdown, lets the pool drain every accepted session, and
    /// joins workers and supervisor. Idempotent. Anything still queued
    /// after the joins (submit races, unsupervised dead workers) is
    /// drained inline so no accepted ticket is lost. Pending results stay
    /// retrievable until the handle is dropped.
    pub fn shutdown(&self) {
        self.stop();
    }

    fn stop(&self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        if !shared.supervise {
            // No supervisor to recover dead workers' registered jobs:
            // requeue them here so live workers (or the inline drain
            // below) can resolve their tickets.
            shared.recover_all_dead();
        }
        loop {
            shared.wake_all();
            let handles = shared.take_handles();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // Inline last-resort drain: anything still queued or registered
        // (all-workers-dead faults, late submit races) resolves here, in
        // the caller's thread, so acceptance always means resolution.
        shared.drain_inline();
        // Wake any waiter stuck on a ticket that will never complete.
        shared.results_cv.notify_all();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Behavior, ProcessorConfig};
    use crate::supervisor::ServiceFault;
    use dls_dlt::SystemModel;

    fn cfg(seed: u64) -> SessionConfig {
        SessionConfig::builder(SystemModel::NcpFe, 0.25)
            .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
            .processor(ProcessorConfig::new(2.0, Behavior::Compliant))
            .processor(ProcessorConfig::new(3.0, Behavior::Compliant))
            .seed(seed)
            .build()
            .expect("valid session config")
    }

    fn start(cfg: ServiceConfig) -> ServiceHandle {
        ServiceHandle::start(cfg).expect("service starts")
    }

    #[test]
    fn tickets_are_monotonic_and_results_keyed_by_ticket() {
        let svc = start(ServiceConfig::stealing(2));
        let t0 = svc.submit(cfg(1)).expect("admitted");
        let t1 = svc.submit(cfg(2)).expect("admitted");
        let t2 = svc.submit(cfg(3)).expect("admitted");
        assert_eq!((t0, t1, t2), (0, 1, 2));
        // Retrieve out of submission order.
        let d2 = svc.wait(t2).expect("t2 completes");
        let d0 = svc.wait(t0).expect("t0 completes");
        let d1 = svc.wait(t1).expect("t1 completes");
        assert_eq!((d0.ticket, d1.ticket, d2.ticket), (t0, t1, t2));
        for d in [&d0, &d1, &d2] {
            assert!(d.outcome.is_ok(), "compliant session failed: {:?}", d.outcome);
            assert_eq!(d.attempts, 1);
        }
        svc.shutdown();
    }

    #[test]
    fn wait_on_unissued_ticket_returns_none() {
        let svc = start(ServiceConfig::stealing(1));
        assert!(svc.wait(99).is_none());
        assert!(svc.try_take(0).is_none());
        svc.shutdown();
    }

    #[test]
    fn wait_on_consumed_ticket_returns_none_after_drain() {
        let svc = start(ServiceConfig::stealing(1));
        let t = svc.submit(cfg(7)).expect("admitted");
        assert!(svc.wait(t).is_some());
        assert!(svc.wait(t).is_none(), "consumed ticket must not hang");
        svc.shutdown();
    }

    #[test]
    fn static_shard_matches_stealing_outcomes() {
        let steal = start(ServiceConfig::stealing(3));
        let shard = start(ServiceConfig::static_shard(3));
        for seed in 10..14 {
            let ts = steal.submit(cfg(seed)).expect("admitted");
            let th = shard.submit(cfg(seed)).expect("admitted");
            let a = steal.wait(ts).expect("stealing completes");
            let b = shard.wait(th).expect("static completes");
            let a = a.outcome.expect("stealing outcome");
            let b = b.outcome.expect("static outcome");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        steal.shutdown();
        shard.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_sessions() {
        let svc = start(ServiceConfig::stealing(2));
        let tickets: Vec<u64> = (0..6)
            .map(|s| svc.submit(cfg(20 + s)).expect("admitted"))
            .collect();
        svc.shutdown();
        let table = svc.shared.table.lock();
        for t in tickets {
            assert!(table.done.contains_key(&t), "ticket {t} not drained");
        }
        assert!(table.pending.is_empty(), "pending set not drained");
    }

    #[test]
    fn workers_reports_alive_slots_not_max_one() {
        let svc = start(ServiceConfig::stealing(3));
        assert_eq!(svc.workers(), 3);
        svc.shutdown();
        // After shutdown every worker exited cleanly and disarmed; slots
        // stay marked alive only while their thread runs.
        assert_eq!(svc.workers(), 0, "no threads -> zero workers, not 1");
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let svc = start(ServiceConfig::stealing(1));
        svc.shutdown();
        assert_eq!(svc.submit(cfg(1)), Err(SubmitError::ShutDown));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let svc = start(ServiceConfig::stealing(2));
        let t = svc.submit(cfg(40)).expect("admitted");
        svc.shutdown();
        svc.shutdown();
        assert!(svc.wait(t).is_some());
    }

    #[test]
    fn shutdown_with_a_job_in_flight_returns_promptly_under_a_long_tick() {
        // A 60 s tick: if shutdown's wakeup or the last job's drain could
        // slip past the supervisor's exit check, the join below would wait
        // out the whole tick.
        let svc = start(ServiceConfig {
            tick: Duration::from_secs(60),
            ..ServiceConfig::stealing(2)
        });
        let t = svc.submit(cfg(80)).expect("admitted");
        let begun = latency::Stamp::now();
        svc.shutdown();
        let took_ns = begun.elapsed_ns();
        assert!(
            took_ns < 1_000_000_000,
            "shutdown with a job in flight took {took_ns} ns"
        );
        assert!(svc.wait(t).is_some_and(|done| done.outcome.is_ok()));
    }

    #[test]
    fn requeue_away_prefers_a_different_alive_worker() {
        let svc = start(ServiceConfig {
            // Large tick so the supervisor never steals this test's jobs.
            tick: Duration::from_secs(60),
            ..ServiceConfig::stealing(3)
        });
        // Quiesce, then requeue a probe job "away from" worker 0 and
        // check it landed on worker 1 or 2.
        while svc.in_flight() > 0 {
            std::thread::yield_now();
        }
        let job = Arc::new(Job {
            ticket: u64::MAX,
            cfg: cfg(50),
            enqueued: latency::Stamp::now(),
            attempts: AtomicU32::new(0),
        });
        svc.shared.requeue_away(job, 0);
        let lens: Vec<usize> = svc
            .shared
            .queue_lens
            .iter()
            .map(|l| l.load(Ordering::Acquire))
            .collect();
        assert_eq!(
            lens.first().copied(),
            Some(0),
            "retry must not return to the failed worker"
        );
        // Drain the probe (its ticket was never accepted, so the publish
        // is discarded; just make shutdown's drain path run it).
        svc.shutdown();
    }

    #[test]
    fn results_capacity_evicts_oldest_with_disclosure() {
        let svc = start(ServiceConfig {
            results_capacity: Some(2),
            ..ServiceConfig::stealing(2)
        });
        let tickets: Vec<u64> = (0..5)
            .map(|s| svc.submit(cfg(60 + s)).expect("admitted"))
            .collect();
        svc.shutdown();
        let stats = svc.stats();
        assert_eq!(stats.results_evicted, 3, "5 results into capacity 2");
        assert_eq!(svc.recent_evictions().len(), 3);
        let retained: Vec<&u64> = tickets
            .iter()
            .filter(|t| !svc.recent_evictions().contains(t))
            .collect();
        assert_eq!(retained.len(), 2);
        for t in svc.recent_evictions() {
            assert!(svc.wait(t).is_none(), "evicted ticket {t} must resolve to None");
        }
        for t in retained {
            assert!(svc.wait(*t).is_some(), "retained ticket {t} must be takeable");
        }
    }

    #[test]
    fn inline_drain_resolves_running_jobs_with_every_slot_dead() {
        // A kill fault leaves its job registered in-progress on a dead
        // worker. With supervision off and the pool's only worker dead,
        // that registration can still be present at stop()'s post-join
        // drain (a death landing after recover_all_dead's sweep); drive
        // that drain directly and require the ticket to resolve instead
        // of stranding in `pending` forever.
        let plan = ServiceFaultPlan::default().with(ServiceFault::KillWorkerAtJob { nth_job: 0 });
        let svc = start(ServiceConfig {
            supervise: false,
            fault_plan: plan,
            ..ServiceConfig::stealing(1)
        });
        let t = svc.submit(cfg(70)).expect("admitted");
        while svc.workers() != 0 {
            std::thread::yield_now();
        }
        assert!(
            !svc.shared.running_empty(),
            "killed worker's job must stay registered"
        );
        svc.shared.shutdown.store(true, Ordering::SeqCst);
        svc.shared.drain_inline();
        let done = svc.wait(t).expect("confiscated job must resolve, not strand");
        assert!(done.outcome.is_ok(), "drained session failed: {:?}", done.outcome);
        assert_eq!(done.worker, usize::MAX, "resolved by the inline drain");
    }

    #[test]
    fn stale_death_watch_cannot_hide_a_newer_occupant() {
        let svc = start(ServiceConfig::stealing(1));
        // Worker 0 runs at generation 1. Forge a watch from a previous
        // occupant (generation 0) and drop it armed, as a stall-
        // confiscated zombie's late exit would: the current occupant
        // must stay visible to placement and keep a clean death stamp.
        drop(DeathWatch::arm(&svc.shared, 0, 0));
        assert!(svc.shared.slot_alive(0), "stale watch must not clear liveness");
        assert_eq!(
            svc.shared.slots[0].died_ns.load(Ordering::Acquire),
            u64::MAX,
            "stale watch must not stamp a death"
        );
        svc.shutdown();
    }

    #[test]
    fn spawn_fail_on_every_slot_is_a_typed_start_error() {
        let plan = ServiceFaultPlan::default()
            .with(ServiceFault::SpawnFailAt { attempt: 0 })
            .with(ServiceFault::SpawnFailAt { attempt: 1 });
        let err = ServiceHandle::start(ServiceConfig {
            supervise: false,
            fault_plan: plan,
            ..ServiceConfig::stealing(2)
        });
        match err {
            Err(StartError::NoWorkers { attempted }) => assert_eq!(attempted, 2),
            other => panic!("expected NoWorkers, got {:?}", other.map(|_| "handle")),
        }
    }
}
