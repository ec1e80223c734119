//! Event-driven session executor: the DLS-BL-NCP round as explicit state
//! machines stepped by one deterministic loop. It is the one protocol
//! runtime: a single session ([`run_session_vm`]) and every session the
//! service ([`crate::service`]) runs both go through `drive_session`.
//!
//! One round is data, not threads:
//!
//! * every processor is a [`ProcessorState`] machine ([`ProcMachine`])
//!   advanced through the protocol phases by the engine;
//! * the referee is a [`RefereeState`] machine embedded in the engine
//!   loop, calling the referee's `adjudicate_*` and the shared verdict
//!   and verification helpers in [`crate::runtime`];
//! * the twelve lock-step phase barriers are calls to
//!   [`crate::sched::resolve_barrier`] on a per-session virtual
//!   millisecond clock: `DelayAt` faults post late arrival events and the
//!   phase budget posts a deadline event, so a party whose arrival misses
//!   the deadline is removed and recorded as crashed without any real
//!   time passing.
//!
//! The in-memory transport models the paper's network assumptions: agents
//! choose *what* to send, never how it is delivered; a broadcast reaches
//! every peer in one step (reliable atomic broadcast, so equivocation
//! takes two broadcasts, which peers detect as in §4); and every message
//! is counted by category and wire size, the measurement behind
//! experiment E10 (Theorem 5.4: Θ(m²)). Parties act in processor-index
//! order at every step, so with several simultaneous equivocators the
//! reported conflict is picked by sender index.
//!
//! ## Bit-exactness contract
//!
//! Outcomes are checked against oracles that share no code with this
//! module:
//!
//! * **frozen outcome digests** — SHA-256 of the `Debug` rendering of
//!   every outcome in the differential matrix
//!   (`tests/tests/executor_differential.rs`, plus this module's unit
//!   tests), recorded while a separate thread-per-party runtime still ran
//!   beside this one and agreed with it bit for bit. The single-session
//!   path and the service under both placements must reproduce them;
//! * **the trusted market** — `dls_mechanism::Market::run` on the same
//!   rates gives the payments a compliant session must reach
//!   (`tests/tests/end_to_end.rs`);
//! * **exact payments** — `dls_mechanism::exact::compute_payments_exact`
//!   over rationals checks the f64 payment pipeline
//!   (`tests/tests/differential.rs`).
//!
//! The execution paths agree with each other by construction:
//!
//! * they all run `drive_session`, so the session loop (round retries,
//!   ledger, degradation policy, timeline) and the round are the same
//!   code; the paths differ only in which worker runs a session and when;
//! * values every processor would derive identically from broadcast data
//!   (the agreed bid vector, α, the base payment vector) are computed once
//!   and shared, which cannot change a single bit of any output;
//! * RSA signing is deterministic in (key, message), so the per-setup
//!   signature cache reconstructs byte-identical envelopes, and the
//!   user-signed data set is deterministic in `(seed, key_bits, blocks)`
//!   so it is prepared once per setup and shared.
//!
//! A `DelayAt` at or beyond the phase budget is outside builder-valid
//! configurations (the builder rejects it); in a hand-assembled config
//! the delayed party misses that phase's deadline and is removed.

use crate::blocks::{integer_allocation, DataSet, SignedBlock, USER_IDENTITY};
use crate::config::{Behavior, CryptoProfile, ProcessorConfig, SessionConfig};
use crate::fault::{FaultKind, FaultPlan, LivenessFault};
use crate::messages::{
    BidBody, Evidence, GrantBody, Msg, PaymentEntry, PaymentVectorBody, PhaseReport, Verdict,
};
use crate::referee::{Phase, Referee};
use crate::runtime::{
    faulted_send, generate_keys_cached, merge_defaults, missing, record_verdict,
    remap_active_configs, run_session_with, vectors_all_equal, verify_bid_view, verify_profiled,
    MessageStats, ProcResult, ProtocolViolation, RefResult, RoundOutput, RunError, SessionOutcome,
};
use crate::sched::{resolve_barrier, EventQueue, VirtualClock};
use dls_crypto::pki::{KeyPair, Registry};
use dls_crypto::{Signed, VerifyCache};
use dls_dlt::BusParams;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deterministic per-setup caches
// ---------------------------------------------------------------------------

/// Entries kept in the signature cache before it is wholesale cleared (a
/// bound, not an LRU: the working set of a scenario sweep is far smaller).
const SIG_CACHE_CAP: usize = 1 << 16;

/// Process-wide cache of user-signed data sets keyed by
/// `(seed, key_bits, blocks)`. [`DataSet::prepare`] is deterministic in
/// the user key (itself deterministic in `(seed, key_bits)`) and the block
/// count, so rounds and sessions sharing a setup share the prepared set —
/// the multiround analogue of the seeded RSA key cache.
pub(crate) fn dataset_cached(
    seed: u64,
    key_bits: usize,
    blocks: usize,
    user: &KeyPair,
) -> Result<Arc<DataSet>, RunError> {
    type Cache = BTreeMap<(u64, usize, usize), Arc<DataSet>>;
    static CACHE: Mutex<Option<Cache>> = Mutex::new(None);
    if let Some(ds) = CACHE
        .lock()
        .get_or_insert_with(Cache::new)
        .get(&(seed, key_bits, blocks))
    {
        return Ok(Arc::clone(ds));
    }
    // Prepared outside the lock: concurrent workers may race to build the
    // same set, but preparation is deterministic so the duplicates are
    // identical and last-write-wins is harmless.
    let ds = Arc::new(
        DataSet::prepare(user, blocks, 32).map_err(|e| RunError::Crypto(e.to_string()))?,
    );
    CACHE
        .lock()
        .get_or_insert_with(Cache::new)
        .insert((seed, key_bits, blocks), Arc::clone(&ds));
    Ok(ds)
}

/// Deterministic cached signing. RSA signing here is hash-then-modexp with
/// a fixed exponent — no randomized padding — so the signature over a given
/// canonical body under a given key is a pure function. The cache maps
/// `(identity, key_bits, seed, sha256(canonical body))` to the raw
/// signature bytes. The body is encoded and hashed once: a miss signs that
/// digest, and both hit and miss build the envelope via [`Signed::forge`]
/// with the *genuine* bytes, which is bit-identical to [`KeyPair::sign`]
/// and verifies like any honestly signed message.
fn sign_cached<T: Serialize>(
    key: &KeyPair,
    key_bits: usize,
    seed: u64,
    body: T,
) -> Result<Signed<T>, RunError> {
    type SigCache = BTreeMap<(String, usize, u64, [u8; 32]), Vec<u8>>;
    static SIGS: Mutex<Option<SigCache>> = Mutex::new(None);

    let bytes =
        dls_crypto::canon::to_bytes(&body).map_err(|e| RunError::Crypto(e.to_string()))?;
    let digest = dls_crypto::sha256::digest(&bytes);
    let cache_key = (key.identity().to_string(), key_bits, seed, digest);
    if let Some(sig) = SIGS
        .lock()
        .get_or_insert_with(SigCache::new)
        .get(&cache_key)
    {
        return Ok(Signed::forge(body, key.identity().to_string(), sig.clone()));
    }
    let sig = key.sign_digest(&digest).0;
    let mut guard = SIGS.lock();
    let cache = guard.get_or_insert_with(SigCache::new);
    if cache.len() >= SIG_CACHE_CAP {
        cache.clear();
    }
    cache.insert(cache_key, sig.clone());
    Ok(Signed::forge(body, key.identity().to_string(), sig))
}

// ---------------------------------------------------------------------------
// Virtual transport
// ---------------------------------------------------------------------------

/// The in-memory transport. Recording rules: a processor broadcast
/// counts m−1 copies, a referee broadcast m, point links 1; garbage
/// frames are recorded but dropped at processor intake. Each processor
/// has a `VecDeque` inbox, and bid broadcasts are additionally logged for
/// the shared collection pass.
///
/// The queues themselves are borrowed from the worker's [`VmScratch`]
/// arena, so a long-lived worker allocates its inboxes once and reuses
/// them for every session it executes; only messages, never containers,
/// are per-session.
struct VmNet<'a> {
    m: usize,
    stats: MessageStats,
    inboxes: &'a mut Vec<VecDeque<Msg>>,
    ref_inbox: &'a mut Vec<(usize, Msg)>,
    /// Processor bid broadcasts in send order; the engine verifies each
    /// once instead of once per receiver (all receivers of an atomic
    /// broadcast see the same envelope, so the per-receiver results are
    /// identical by construction).
    bid_log: &'a mut Vec<(usize, Signed<BidBody>)>,
}

impl<'a> VmNet<'a> {
    /// Binds the arena buffers to one round of an `m`-party session,
    /// clearing whatever the previous session left behind. Buffers only
    /// ever grow to the largest `m` the worker has seen (a few dozen
    /// `VecDeque` headers), so mixed workloads don't thrash the arena.
    fn new(
        m: usize,
        inboxes: &'a mut Vec<VecDeque<Msg>>,
        ref_inbox: &'a mut Vec<(usize, Msg)>,
        bid_log: &'a mut Vec<(usize, Signed<BidBody>)>,
    ) -> Self {
        if inboxes.len() < m {
            inboxes.resize_with(m, VecDeque::new);
        }
        for q in inboxes.iter_mut() {
            q.clear();
        }
        ref_inbox.clear();
        bid_log.clear();
        VmNet {
            m,
            stats: MessageStats::default(),
            inboxes,
            ref_inbox,
            bid_log,
        }
    }

    fn record(&mut self, msg: &Msg, copies: u64) {
        self.stats
            .record(msg.category(), copies, msg.wire_size() as u64);
    }

    /// Atomic broadcast from processor `from` to all other processors.
    fn broadcast(&mut self, from: usize, msg: Msg) {
        let copies = self.m.saturating_sub(1) as u64;
        self.record(&msg, copies);
        match msg {
            // Bids go to the shared collection log (verified once).
            Msg::Bid(signed) => self.bid_log.push((from, signed)),
            // Garbage frames are dropped at processor inbox intake,
            // like a payload that fails signature verification (§4).
            Msg::Garbage { .. } => {}
            other => {
                for (j, q) in self.inboxes.iter_mut().enumerate().take(self.m) {
                    if j != from {
                        q.push_back(other.clone());
                    }
                }
            }
        }
    }

    /// Referee broadcast to all processors.
    fn broadcast_referee(&mut self, msg: Msg) {
        self.record(&msg, self.m as u64);
        for q in self.inboxes.iter_mut().take(self.m) {
            q.push_back(msg.clone());
        }
    }

    /// Unicast between processors; out-of-range destinations drop.
    fn unicast(&mut self, to: usize, msg: Msg) {
        self.record(&msg, 1);
        if to < self.m {
            if let Some(q) = self.inboxes.get_mut(to) {
                q.push_back(msg);
            }
        }
    }

    /// Processor → referee.
    fn to_referee(&mut self, from: usize, msg: Msg) {
        self.record(&msg, 1);
        self.ref_inbox.push((from, msg));
    }

    /// Drains everything the referee has received since the last drain,
    /// in send order (the engine sends in processor-index order, so this
    /// is deterministic; every consumer of this ordering is
    /// order-insensitive or sorts). Draining
    /// in place keeps the arena buffer's allocation alive for the next
    /// collection point.
    fn drain_referee(&mut self) -> std::vec::Drain<'_, (usize, Msg)> {
        self.ref_inbox.drain(..)
    }
}

/// Removes and returns the first message `f` maps to `Some`, holding
/// everything else back in order for later steps (a fast originator's
/// grant can be queued behind a verdict not yet consumed; garbage never
/// reaches these queues).
fn take_first_msg<T>(
    q: &mut VecDeque<Msg>,
    mut f: impl FnMut(&Msg) -> Option<T>,
) -> Option<T> {
    let pos = q.iter().position(|m| f(m).is_some())?;
    q.remove(pos).and_then(|m| f(&m))
}

/// Removes and returns every message `f` maps to `Some`, in order.
fn take_all_msgs<T>(q: &mut VecDeque<Msg>, mut f: impl FnMut(&Msg) -> Option<T>) -> Vec<T> {
    let mut out = Vec::new();
    let mut keep = VecDeque::with_capacity(q.len());
    while let Some(m) = q.pop_front() {
        match f(&m) {
            Some(t) => out.push(t),
            None => keep.push_back(m),
        }
    }
    *q = keep;
    out
}

fn take_verdict(q: &mut VecDeque<Msg>) -> Option<Verdict> {
    take_first_msg(q, |m| match m {
        Msg::Verdict(v) => Some(v.clone()),
        _ => None,
    })
}

// ---------------------------------------------------------------------------
// Liveness bookkeeping
// ---------------------------------------------------------------------------

/// The referee's liveness ledger for one virtual round: a party missing
/// at a barrier deadline is a crash; an alive party absent from a
/// collection point is an omission, or garbage if it delivered a garbage
/// frame.
struct VmWatch {
    alive: Vec<bool>,
    garbage: BTreeSet<usize>,
    faults: Vec<LivenessFault>,
}

impl VmWatch {
    fn new(m: usize) -> Self {
        VmWatch {
            alive: vec![true; m],
            garbage: BTreeSet::new(),
            faults: Vec::new(),
        }
    }

    fn record_crash(&mut self, phase: Phase, id: usize) {
        if let Some(slot) = self.alive.get_mut(id) {
            if *slot {
                *slot = false;
                self.faults.push(LivenessFault {
                    phase,
                    processor: id,
                    kind: FaultKind::Crash,
                });
            }
        }
    }

    fn note_garbage(&mut self, from: usize) {
        if from < self.alive.len() {
            self.garbage.insert(from);
        }
    }

    fn sweep(&mut self, phase: Phase, senders: &BTreeSet<usize>) {
        let missing_ids: Vec<usize> = self
            .alive
            .iter()
            .enumerate()
            .filter(|(id, alive)| **alive && !senders.contains(id))
            .map(|(id, _)| id)
            .collect();
        for id in missing_ids {
            let kind = if self.garbage.contains(&id) {
                FaultKind::Garbage
            } else {
                FaultKind::Omission
            };
            self.faults.push(LivenessFault {
                phase,
                processor: id,
                kind,
            });
        }
    }

    fn defaulted_at(&self, phase: Phase) -> BTreeSet<usize> {
        self.faults
            .iter()
            .filter(|f| f.phase == phase)
            .map(|f| f.processor)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Processor state machine
// ---------------------------------------------------------------------------

/// Where a processor machine stands in the protocol. The active states are
/// keyed by the protocol phases; the terminal states record how the
/// machine stopped participating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorState {
    /// Computing/broadcasting its bid (pre-B1) or collecting peers' bids
    /// and reporting (pre-B2).
    Bidding,
    /// Waiting for the referee's bidding verdict (B3).
    AwaitBidVerdict,
    /// Allocation phase: the originator splits and grants, everyone else
    /// awaits a grant (around B4/B5).
    Allocating,
    /// Waiting for the referee's allocation verdict (B6).
    AwaitAllocationVerdict,
    /// Executing its installment; meter emitted (around B7).
    Processing,
    /// Waiting for the referee's meter broadcast (B8).
    AwaitMeters,
    /// Computing and submitting its payment vector (around B9).
    Payments,
    /// Waiting for payment settlement (B10–B12).
    AwaitSettlement,
    /// Terminal: crashed via an injected `CrashAt` fault; the partial
    /// result survives.
    Crashed,
    /// Terminal: removed at a barrier deadline while still live (only
    /// reachable with delays at/beyond the budget); the result defaults.
    Defaulted,
    /// Terminal: stopped by a non-proceed verdict.
    Halted,
    /// Terminal: ran the full protocol.
    Done,
}

/// When the machine arrives at the next barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalPlan {
    OnTime,
    /// An injected `DelayAt` for the entered phase: late by this many
    /// virtual milliseconds at the next barrier only.
    Delayed(u64),
    /// A crashed machine never arrives (it is removed at the deadline).
    Never,
}

/// One processor as an explicit state machine. Stepped by the engine; all
/// message side effects go through [`VmNet`].
struct ProcMachine {
    i: usize,
    cfg: ProcessorConfig,
    key: KeyPair,
    state: ProcessorState,
    /// Removed from the barrier set (crashed or deadline-defaulted).
    removed: bool,
    arrival: ArrivalPlan,
    result: ProcResult,
    /// Length of the block list this machine holds (its own grant).
    my_blocks_len: usize,
}

impl ProcMachine {
    /// Applies the phase-entry fault hook: `true` means the machine
    /// crashed and must stop; a delay schedules a late arrival at the
    /// next barrier instead of sleeping.
    fn phase_entry(&mut self, phase: Phase) -> bool {
        match self.cfg.fault {
            FaultPlan::CrashAt(p) if p == phase => {
                self.state = ProcessorState::Crashed;
                self.arrival = ArrivalPlan::Never;
                true
            }
            FaultPlan::DelayAt(p, ms) if p == phase => {
                self.arrival = ArrivalPlan::Delayed(ms);
                false
            }
            _ => false,
        }
    }

    /// The delay this machine posts at the next barrier; consumed on use.
    fn arrival_delay(&mut self, budget_ms: u64) -> u64 {
        match self.arrival {
            ArrivalPlan::OnTime => 0,
            ArrivalPlan::Delayed(ms) => {
                self.arrival = ArrivalPlan::OnTime;
                ms
            }
            // Never arrives: models as exactly the deadline, which the
            // deadline event outranks, so the machine is always removed.
            ArrivalPlan::Never => budget_ms,
        }
    }
}

/// Where the engine's embedded referee stands; advanced with a checked
/// transition so a sequencing bug surfaces as a typed error instead of a
/// silently wrong verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefereeState {
    /// Collecting bids and bidding reports (B1–B3).
    Bidding,
    /// Collecting allocation reports (B4–B6).
    Allocating,
    /// Collecting meters (B7–B8).
    Processing,
    /// Collecting payment vectors / bid views (B9–B12).
    Payments,
    /// Round finished (verdict issued or aborted).
    Settled,
}

fn advance_referee(
    state: &mut RefereeState,
    from: RefereeState,
    to: RefereeState,
) -> Result<(), RunError> {
    if *state != from {
        return Err(RunError::Protocol(ProtocolViolation::invalid_state(
            format!("referee state machine expected {from:?}, was {state:?}"),
        )));
    }
    *state = to;
    Ok(())
}

// ---------------------------------------------------------------------------
// The event-driven round
// ---------------------------------------------------------------------------

/// Per-worker scratch reused across sessions: the event heap, the barrier
/// arrival list, and the virtual transport's queues all allocate once per
/// worker instead of once per session (or, for arrivals, once per
/// barrier — twelve times a round). A long-lived service worker therefore
/// reaches a steady state where per-session work allocates messages and
/// outcomes but no container churn.
pub struct VmScratch {
    queue: EventQueue,
    /// `(party, delay_ms)` staging for each barrier resolution.
    arrivals: Vec<(usize, u64)>,
    /// Per-processor inboxes lent to [`VmNet`] each round.
    inboxes: Vec<VecDeque<Msg>>,
    /// Referee inbox lent to [`VmNet`] each round.
    ref_inbox: Vec<(usize, Msg)>,
    /// Bid-broadcast log lent to [`VmNet`] each round.
    bid_log: Vec<(usize, Signed<BidBody>)>,
}

impl VmScratch {
    /// Fresh scratch for one worker's event loop.
    pub fn new() -> Self {
        VmScratch {
            queue: EventQueue::new(),
            arrivals: Vec::new(),
            inboxes: Vec::new(),
            ref_inbox: Vec::new(),
            bid_log: Vec::new(),
        }
    }
}

impl Default for VmScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolves one phase barrier in virtual time and applies removals:
/// crashed machines keep their partial result, live machines removed at
/// the deadline default and lose theirs.
fn vm_barrier(
    phase: Phase,
    budget_ms: u64,
    clock: &mut VirtualClock,
    queue: &mut EventQueue,
    arrivals: &mut Vec<(usize, u64)>,
    machines: &mut [ProcMachine],
    watch: &mut VmWatch,
) {
    arrivals.clear();
    arrivals.extend(
        machines
            .iter_mut()
            .filter(|p| !p.removed)
            .map(|p| (p.i, p.arrival_delay(budget_ms))),
    );
    let out = resolve_barrier(queue, clock.now_ms(), budget_ms, arrivals);
    clock.advance_to(out.completed_at_ms);
    for p in machines.iter_mut() {
        if p.removed || out.removed.binary_search(&p.i).is_err() {
            continue;
        }
        p.removed = true;
        watch.record_crash(phase, p.i);
        if p.state != ProcessorState::Crashed {
            p.state = ProcessorState::Defaulted;
            p.result = ProcResult::default();
        }
    }
}

/// Referee-side report collection from the virtual transport: reports
/// sorted by sender, garbage senders listed separately.
fn collect_reports_vm(net: &mut VmNet<'_>) -> (Vec<(usize, PhaseReport)>, Vec<usize>) {
    let mut out = Vec::new();
    let mut garbage = Vec::new();
    for (from, msg) in net.drain_referee() {
        match msg {
            Msg::Report { report, .. } => out.push((from, report)),
            Msg::Garbage { .. } => garbage.push(from),
            _ => {}
        }
    }
    out.sort_by_key(|(from, _)| *from);
    (out, garbage)
}

/// Counts the valid user-signed blocks in a verified grant. Blocks that
/// are byte-identical to the data set's original at the same id verified
/// once when the set was prepared, so equality substitutes for the RSA
/// check; anything else (tampered or foreign) falls back to a real
/// verification, so the per-block results equal verifying every block.
fn count_valid_blocks(body: &GrantBody, dataset: &DataSet, registry: &Registry) -> usize {
    let same_block = |a: &SignedBlock, b: &SignedBlock| {
        a.signer() == b.signer()
            && a.signature() == b.signature()
            && a.body_unverified() == b.body_unverified()
    };
    body.blocks
        .iter()
        .filter(|b| {
            let id = b.body_unverified().id as usize;
            match dataset.blocks().get(id) {
                Some(orig) if same_block(orig, b) => true,
                _ => b.verify(registry).is_ok(),
            }
        })
        .count()
}

/// Shared bid collection: verifies each logged broadcast once, in send
/// order, producing the per-sender first-bid slots and the conflict list
/// every honest receiver would derive (a receiver's own view differs only
/// in excluding conflicts it caused itself, which the engine filters per
/// machine).
struct BidCollection {
    slots: Vec<Option<Signed<BidBody>>>,
    conflicts: Vec<(usize, Signed<BidBody>, Signed<BidBody>)>,
}

fn collect_bids(
    net: &VmNet<'_>,
    m: usize,
    registry: &Registry,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> BidCollection {
    let mut slots: Vec<Option<Signed<BidBody>>> = vec![None; m];
    let mut conflicts = Vec::new();
    for (_, signed) in net.bid_log.iter() {
        let verified = match profile {
            // One cached verification per logged broadcast; later passes
            // over the same envelope (anywhere in the round) are memo hits.
            CryptoProfile::Amortized => signed.verify_cached(registry, cache),
            // Honest per-receiver cost model: each of the m−1 receivers of
            // the atomic broadcast verifies for itself. Verification is
            // deterministic, so the extra modexps burn time, never change
            // the verdict.
            CryptoProfile::PerReceiverNaive => {
                let receivers = m.saturating_sub(1);
                for _ in 1..receivers {
                    let _ = signed.verify_naive(registry);
                }
                signed.verify_naive(registry)
            }
        };
        let Ok(body) = verified else {
            continue; // failed verification: discarded (§4)
        };
        let sender = body.processor;
        if signed.signer() != format!("P{}", sender + 1) {
            continue;
        }
        if !(body.bid.is_finite() && body.bid > 0.0) {
            continue;
        }
        let Some(slot) = slots.get_mut(sender) else {
            continue;
        };
        match slot {
            Some(existing) => {
                if existing.body_unverified() != signed.body_unverified() {
                    conflicts.push((sender, existing.clone(), signed.clone()));
                }
            }
            None => *slot = Some(signed.clone()),
        }
    }
    BidCollection { slots, conflicts }
}

/// One DLS-BL-NCP round on the virtual clock, with every barrier
/// resolved by the event queue. Each round is self-contained: identities
/// `P1..Pk`, keys, registry and data set are re-derived from the session
/// seed, so a survivor re-run is bit-identical to a from-scratch session
/// over the same participant set.
pub(crate) fn drive_round(
    cfg: &SessionConfig,
    active: &[usize],
    scratch: &mut VmScratch,
) -> Result<RoundOutput, RunError> {
    let m = active.len();
    if m < 2 {
        return Err(RunError::TooFewParticipants);
    }
    let procs: Vec<ProcessorConfig> = remap_active_configs(cfg, active);

    // --- Setup: cached PKI + cached user-signed data set -------------------
    let mut identities: Vec<String> = (1..=m).map(|i| format!("P{i}")).collect();
    identities.push(USER_IDENTITY.to_string());
    let mut keys = generate_keys_cached(&identities, cfg.key_bits, cfg.seed)?;
    let user = keys
        .pop()
        .ok_or_else(|| RunError::Crypto("key generation returned no user key".into()))?;
    let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
    let dataset = dataset_cached(cfg.seed, cfg.key_bits, cfg.blocks, &user)?;
    let originator = cfg.model.originator(m).ok_or(RunError::UnsupportedModel)?;
    let referee = Referee::new(registry.clone(), cfg.model, cfg.z, m, cfg.fine, cfg.blocks);
    // Per-ROUND verification cache, never per-session: survivor re-runs
    // rebind identities `P1..Pk` to different original processors, so the
    // same (signer, body, signature) triple can verify under a different
    // public key next round. Memoized verdicts must not outlive the round.
    let verify_cache = VerifyCache::new();
    let profile = cfg.crypto_profile;

    let model = cfg.model;
    let z = cfg.z;
    let blocks_total = cfg.blocks;
    let budget_ms = cfg.phase_budget_ms;
    let key_bits = cfg.key_bits;
    let seed = cfg.seed;

    // Split the scratch arena so the transport can hold its buffers for
    // the whole round while barriers borrow the event queue independently.
    let VmScratch {
        queue,
        arrivals,
        inboxes,
        ref_inbox,
        bid_log,
    } = scratch;
    let mut net = VmNet::new(m, inboxes, ref_inbox, bid_log);
    let mut clock = VirtualClock::new();
    let mut watch = VmWatch::new(m);
    let mut ref_state = RefereeState::Bidding;
    let mut rr = RefResult {
        aborted: None,
        any_fines: false,
        verdicts: Vec::new(),
        meters: None,
        final_q: None,
        faults: Vec::new(),
        defaulted_pre: Vec::new(),
        delivered_vectors: BTreeSet::new(),
        strategic_abort: false,
    };

    let mut machines: Vec<ProcMachine> = Vec::with_capacity(m);
    for (i, pcfg) in procs.iter().enumerate() {
        let key = keys.get(i).cloned().ok_or_else(|| {
            RunError::Crypto(format!("no key generated for processor {i}"))
        })?;
        machines.push(ProcMachine {
            i,
            cfg: *pcfg,
            key,
            state: ProcessorState::Bidding,
            removed: false,
            arrival: ArrivalPlan::OnTime,
            result: ProcResult::default(),
            my_blocks_len: 0,
        });
    }

    let sign_err = |e: RunError| e;
    let finish = |machines: Vec<ProcMachine>,
                  rr: RefResult,
                  net: VmNet<'_>,
                  procs: Vec<ProcessorConfig>| RoundOutput {
        procs,
        proc_results: machines.into_iter().map(|p| p.result).collect(),
        rr,
        messages: net.stats,
    };

    // ---- Phase 1: Bidding (pre-B1 processor actions) ----------------------
    for p in machines.iter_mut() {
        if p.state != ProcessorState::Bidding || p.phase_entry(Phase::Bidding) {
            continue;
        }
        let my_bid = p.cfg.bid().ok_or_else(|| {
            RunError::Protocol(
                ProtocolViolation::invalid_state(
                    "a non-participant reached the bidding phase",
                )
                .at_phase(Phase::Bidding),
            )
        })?;
        let first = sign_cached(
            &p.key,
            key_bits,
            seed,
            BidBody {
                processor: p.i,
                bid: my_bid,
            },
        )
        .map_err(sign_err)?;
        match faulted_send(&p.cfg.fault, Phase::Bidding, p.i, Msg::Bid(first.clone())) {
            Some(garbage @ Msg::Garbage { .. }) => net.broadcast(p.i, garbage),
            Some(msg) => {
                p.result.bid = Some(my_bid);
                net.broadcast(p.i, msg);
                match p.cfg.behavior {
                    Behavior::EquivocateBids { factor } => {
                        let second = sign_cached(
                            &p.key,
                            key_bits,
                            seed,
                            BidBody {
                                processor: p.i,
                                bid: my_bid * factor,
                            },
                        )?;
                        net.broadcast(p.i, Msg::Bid(second));
                    }
                    Behavior::ForgeExtraBid { impersonate } => {
                        let forged = Signed::forge(
                            BidBody {
                                processor: impersonate,
                                bid: 0.01,
                            },
                            format!("P{}", impersonate + 1),
                            vec![0x5a; 48],
                        );
                        net.broadcast(p.i, Msg::Bid(forged));
                    }
                    _ => {}
                }
            }
            None => {} // mute: the bid is withheld
        }
    }
    vm_barrier(Phase::Bidding, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B1

    // Shared bid collection + per-machine reports (pre-B2).
    let collected = collect_bids(&net, m, &registry, &verify_cache, profile);
    for p in machines.iter_mut() {
        if p.state != ProcessorState::Bidding {
            continue;
        }
        let equivocation = collected
            .conflicts
            .iter()
            .filter(|(sender, _, _)| *sender != p.i)
            .next_back();
        let report = match equivocation {
            Some((who, a, b)) => PhaseReport::Accuse {
                accused: *who,
                evidence: Evidence::Equivocation {
                    first: a.clone(),
                    second: b.clone(),
                },
            },
            None => PhaseReport::Ok,
        };
        if let Some(msg) = faulted_send(
            &p.cfg.fault,
            Phase::Bidding,
            p.i,
            Msg::Report { from: p.i, report },
        ) {
            net.to_referee(p.i, msg);
        }
        p.state = ProcessorState::AwaitBidVerdict;
    }
    vm_barrier(Phase::Bidding, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B2

    // Referee: bidding adjudication (pre-B3).
    let (reports, garbage) = collect_reports_vm(&mut net);
    for from in garbage {
        watch.note_garbage(from);
    }
    let senders: BTreeSet<usize> = reports.iter().map(|(from, _)| *from).collect();
    watch.sweep(Phase::Bidding, &senders);
    let strategic = referee.adjudicate_bidding(&reports);
    let defaulted = watch.defaulted_at(Phase::Bidding);
    let (verdict, strategic_fines) = merge_defaults(&referee, strategic, &defaulted, true);
    record_verdict(&mut rr, Phase::Bidding, &verdict);
    net.broadcast_referee(Msg::Verdict(verdict.clone()));
    vm_barrier(Phase::Bidding, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B3
    if !verdict.proceed {
        advance_referee(&mut ref_state, RefereeState::Bidding, RefereeState::Settled)?;
        rr.aborted = Some(Phase::Bidding);
        rr.strategic_abort = strategic_fines;
        rr.defaulted_pre = defaulted.into_iter().collect();
        rr.faults = watch.faults;
        return Ok(finish(machines, rr, net, procs));
    }
    advance_referee(&mut ref_state, RefereeState::Bidding, RefereeState::Allocating)?;

    // ---- Phase 2: Allocating (post-B3 / pre-B4) ---------------------------
    // The round proceeded, so every slot holds the one agreed bid; the
    // vector every processor assembles is this same object.
    let mut signed_bids: Vec<Signed<BidBody>> = Vec::with_capacity(m);
    for b in collected.slots {
        signed_bids
            .push(b.ok_or_else(|| missing("peer bid after clean bidding phase", Phase::Bidding))?);
    }
    let bids: Vec<f64> = signed_bids
        .iter()
        .map(|s| s.body_unverified().bid)
        .collect();
    let params = BusParams::new(z, bids.clone()).map_err(|_| {
        RunError::Protocol(
            ProtocolViolation::invalid_state("agreed bids do not form valid bus parameters")
                .at_phase(Phase::Allocating),
        )
    })?;
    let alpha = dls_dlt::optimal::fractions(model, &params);
    let counts = integer_allocation(&alpha, blocks_total);

    for p in machines.iter_mut() {
        if p.state != ProcessorState::AwaitBidVerdict {
            continue;
        }
        let verdict = take_verdict(net.inboxes.get_mut(p.i).unwrap_or(&mut VecDeque::new()))
            .ok_or_else(|| missing("bidding verdict", Phase::Bidding))?;
        if !verdict.proceed {
            p.state = ProcessorState::Halted;
            continue;
        }
        p.state = ProcessorState::Allocating;
        if p.phase_entry(Phase::Allocating) {
            continue;
        }
        p.result.alloc_fraction = alpha.get(p.i).copied().unwrap_or(0.0);
        if p.i == originator {
            let grants = dataset.split(&counts);
            for (to, blocks) in grants.into_iter().enumerate() {
                if to == p.i {
                    p.my_blocks_len = blocks.len();
                    continue;
                }
                let mut blocks = blocks;
                match p.cfg.behavior {
                    Behavior::ShortAllocate { victim, shortfall } if victim == to => {
                        let keep = blocks.len().saturating_sub(shortfall);
                        blocks.truncate(keep);
                    }
                    Behavior::OverAllocate { victim, excess } if victim == to => {
                        if let Some(pad) =
                            blocks.first().or_else(|| dataset.blocks().first()).cloned()
                        {
                            for _ in 0..excess {
                                blocks.push(pad.clone());
                            }
                        }
                    }
                    _ => {}
                }
                let grant = sign_cached(&p.key, key_bits, seed, GrantBody { to, blocks })?;
                if let Some(msg) =
                    faulted_send(&p.cfg.fault, Phase::Allocating, p.i, Msg::Grant(grant))
                {
                    net.unicast(to, msg);
                }
            }
            p.result.blocks_granted = p.my_blocks_len;
        }
    }
    vm_barrier(Phase::Allocating, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B4

    // Grant verification + allocation reports (pre-B5).
    for p in machines.iter_mut() {
        if p.state != ProcessorState::Allocating {
            continue;
        }
        let mut alloc_report = PhaseReport::Ok;
        if p.i != originator {
            let granted: Option<Signed<GrantBody>> = net
                .inboxes
                .get_mut(p.i)
                .map(|q| {
                    take_all_msgs(q, |m| match m {
                        Msg::Grant(g) => Some(g.clone()),
                        _ => None,
                    })
                })
                .and_then(|mut v| v.pop());
            if let Some(grant) = granted {
                let valid_blocks =
                    match verify_profiled(&grant, &registry, &verify_cache, profile) {
                        Ok(body) => count_valid_blocks(body, &dataset, &registry),
                        Err(_) => 0,
                    };
                p.result.blocks_granted = valid_blocks;
                p.my_blocks_len = grant.body_unverified().blocks.len();
                let expected = counts.get(p.i).copied().unwrap_or(0);
                let mismatch = valid_blocks != expected;
                let false_accusation =
                    p.cfg.behavior == Behavior::FalselyAccuseAllocation && !mismatch;
                if mismatch || false_accusation {
                    alloc_report = PhaseReport::Accuse {
                        accused: originator,
                        evidence: Evidence::WrongAllocation {
                            grant: grant.clone(),
                            bid_view: signed_bids.clone(),
                            expected_blocks: expected,
                        },
                    };
                }
            }
        }
        if let Some(msg) = faulted_send(
            &p.cfg.fault,
            Phase::Allocating,
            p.i,
            Msg::Report {
                from: p.i,
                report: alloc_report,
            },
        ) {
            net.to_referee(p.i, msg);
        }
        p.state = ProcessorState::AwaitAllocationVerdict;
    }
    vm_barrier(Phase::Allocating, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B5

    // Referee: allocation adjudication (pre-B6).
    let (reports, garbage) = collect_reports_vm(&mut net);
    for from in garbage {
        watch.note_garbage(from);
    }
    let senders: BTreeSet<usize> = reports.iter().map(|(from, _)| *from).collect();
    watch.sweep(Phase::Allocating, &senders);
    let strategic = referee.adjudicate_allocation(&reports, &dataset);
    let defaulted = watch.defaulted_at(Phase::Allocating);
    let (verdict, strategic_fines) = merge_defaults(&referee, strategic, &defaulted, true);
    record_verdict(&mut rr, Phase::Allocating, &verdict);
    net.broadcast_referee(Msg::Verdict(verdict.clone()));
    vm_barrier(Phase::Allocating, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B6
    if !verdict.proceed {
        advance_referee(&mut ref_state, RefereeState::Allocating, RefereeState::Settled)?;
        rr.aborted = Some(Phase::Allocating);
        rr.strategic_abort = strategic_fines;
        rr.defaulted_pre = defaulted.into_iter().collect();
        rr.faults = watch.faults;
        return Ok(finish(machines, rr, net, procs));
    }
    advance_referee(&mut ref_state, RefereeState::Allocating, RefereeState::Processing)?;

    // ---- Phase 3: Processing (pre-B7) -------------------------------------
    for p in machines.iter_mut() {
        if p.state != ProcessorState::AwaitAllocationVerdict {
            continue;
        }
        let verdict = net
            .inboxes
            .get_mut(p.i)
            .and_then(take_verdict)
            .ok_or_else(|| missing("allocation verdict", Phase::Allocating))?;
        if !verdict.proceed {
            p.state = ProcessorState::Halted;
            continue;
        }
        p.state = ProcessorState::Processing;
        if p.phase_entry(Phase::Processing) {
            continue;
        }
        let real_fraction = p.my_blocks_len as f64 / blocks_total as f64;
        let phi = real_fraction * p.cfg.exec_w();
        p.result.meter = phi;
        if let Some(msg) = faulted_send(
            &p.cfg.fault,
            Phase::Processing,
            p.i,
            Msg::Meter { of: p.i, phi },
        ) {
            net.to_referee(p.i, msg);
        }
        p.state = ProcessorState::AwaitMeters;
    }
    vm_barrier(Phase::Processing, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B7

    // Referee: meter collection + broadcast (pre-B8).
    let mut meter_slots: Vec<Option<f64>> = vec![None; m];
    for (from, msg) in net.drain_referee() {
        match msg {
            Msg::Meter { of, phi } => {
                if let Some(slot) = meter_slots.get_mut(of) {
                    *slot = Some(phi);
                }
            }
            Msg::Garbage { .. } => watch.note_garbage(from),
            _ => {}
        }
    }
    let senders: BTreeSet<usize> = meter_slots
        .iter()
        .enumerate()
        .filter_map(|(id, s)| s.map(|_| id))
        .collect();
    watch.sweep(Phase::Processing, &senders);
    let meters: Vec<f64> = meter_slots.iter().map(|s| s.unwrap_or(0.0)).collect();
    rr.meters = Some(meters.clone());
    net.broadcast_referee(Msg::Meters(meters.clone()));
    vm_barrier(Phase::Processing, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B8
    advance_referee(&mut ref_state, RefereeState::Processing, RefereeState::Payments)?;

    // ---- Phase 4: Payments (pre-B9) ---------------------------------------
    // Every machine received the same meter broadcast and holds the same
    // agreed bids and α, so the honest payment vector is computed once;
    // per-machine tampering applies to a clone.
    let observed: Vec<f64> = meters
        .iter()
        .zip(&alpha)
        .map(|(phi, a)| if *a > 0.0 { phi / a } else { 0.0 })
        .collect();
    let observed: Vec<f64> = observed
        .iter()
        .zip(&bids)
        .map(|(o, b)| if *o > 0.0 { *o } else { *b })
        .collect();
    let base_q: Vec<PaymentEntry> =
        dls_mechanism::compute_payments(model, &params, &alpha, &observed)
            .into_iter()
            .map(|p| PaymentEntry {
                compensation: p.compensation,
                bonus: p.bonus,
            })
            .collect();

    for p in machines.iter_mut() {
        if p.state != ProcessorState::AwaitMeters {
            continue;
        }
        let _meters: Vec<f64> = net
            .inboxes
            .get_mut(p.i)
            .and_then(|q| {
                take_first_msg(q, |m| match m {
                    Msg::Meters(v) => Some(v.clone()),
                    _ => None,
                })
            })
            .ok_or_else(|| missing("meter vector", Phase::Processing))?;
        p.state = ProcessorState::Payments;
        if p.phase_entry(Phase::Payments) {
            continue;
        }
        let mut q = base_q.clone();
        if let Behavior::CorruptPayments { target, factor } = p.cfg.behavior {
            if let Some(entry) = q.get_mut(target) {
                entry.compensation *= factor;
            }
        }
        let pv = sign_cached(
            &p.key,
            key_bits,
            seed,
            PaymentVectorBody { processor: p.i, q },
        )?;
        if let Some(msg) = faulted_send(&p.cfg.fault, Phase::Payments, p.i, Msg::PaymentVector(pv))
        {
            net.to_referee(p.i, msg);
        }
        p.state = ProcessorState::AwaitSettlement;
    }
    vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B9

    // Referee: payment vector collection (pre-B10).
    let mut vectors = Vec::new();
    for (from, msg) in net.drain_referee() {
        match msg {
            Msg::PaymentVector(v) => vectors.push(v),
            Msg::Garbage { .. } => watch.note_garbage(from),
            _ => {}
        }
    }
    // Phase-level batch sweep: settle
    // every envelope's verdict once so the delivered sweep, equality
    // check, and any dispute path hit memoized verdicts.
    if profile == CryptoProfile::Amortized {
        for sv in &vectors {
            let _ = sv.verify_cached(referee.registry(), &verify_cache);
        }
    }
    let mut delivered = BTreeSet::new();
    for sv in &vectors {
        if let Ok(body) = verify_profiled(sv, referee.registry(), &verify_cache, profile) {
            if sv.signer() == format!("P{}", body.processor + 1) && body.processor < m {
                delivered.insert(body.processor);
            }
        }
    }
    watch.sweep(Phase::Payments, &delivered);
    rr.delivered_vectors = delivered;

    let agreed = if vectors_all_equal(&vectors, m, &referee, &verify_cache, profile) {
        vectors.first()
    } else {
        None
    };
    if let Some(first) = agreed {
        let q = first.body_unverified().q.clone();
        rr.final_q = Some(q);
        net.broadcast_referee(Msg::Verdict(Verdict::ok()));
        record_verdict(&mut rr, Phase::Payments, &Verdict::ok());
        vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B10
        // No machine finds a BidRequest, so none sends a view.
        for p in machines.iter_mut() {
            if p.state != ProcessorState::AwaitSettlement {
                continue;
            }
            if let Some(q) = net.inboxes.get_mut(p.i) {
                let _ = take_all_msgs(q, |m| matches!(m, Msg::BidRequest).then_some(()));
            }
        }
        vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B11
        net.broadcast_referee(Msg::Verdict(Verdict::ok()));
        vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B12
        rr.faults = watch.faults;
        for p in machines.iter_mut() {
            if p.state == ProcessorState::AwaitSettlement {
                let _ = net.inboxes.get_mut(p.i).and_then(take_verdict);
                p.state = ProcessorState::Done;
            }
        }
        advance_referee(&mut ref_state, RefereeState::Payments, RefereeState::Settled)?;
        return Ok(finish(machines, rr, net, procs));
    }

    // Vectors disagree (or one is missing): request the bids (§4).
    net.broadcast_referee(Msg::BidRequest);
    vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B10
    for p in machines.iter_mut() {
        if p.state != ProcessorState::AwaitSettlement {
            continue;
        }
        let bid_request = net
            .inboxes
            .get_mut(p.i)
            .map(|q| !take_all_msgs(q, |m| matches!(m, Msg::BidRequest).then_some(())).is_empty())
            .unwrap_or(false);
        if bid_request {
            if let Some(msg) = faulted_send(
                &p.cfg.fault,
                Phase::Payments,
                p.i,
                Msg::BidView {
                    from: p.i,
                    view: signed_bids.clone(),
                },
            ) {
                net.to_referee(p.i, msg);
            }
        }
    }
    vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B11

    // Referee: bid views → recomputed payments → final verdict (pre-B12).
    let mut agreed_bids: Option<Vec<f64>> = None;
    for (from, msg) in net.drain_referee() {
        match msg {
            Msg::BidView { view, .. } => {
                if agreed_bids.is_none() {
                    if let Some(b) =
                        verify_bid_view(&view, m, &referee, &verify_cache, profile)
                    {
                        agreed_bids = Some(b);
                    }
                }
            }
            Msg::Garbage { .. } => watch.note_garbage(from),
            _ => {}
        }
    }
    let agreed_bids = agreed_bids.ok_or_else(|| {
        RunError::Protocol(
            ProtocolViolation::invalid_state(
                "no verifiable bid view received for payment adjudication",
            )
            .at_phase(Phase::Payments),
        )
    })?;
    let ref_params = BusParams::new(referee.z(), agreed_bids.clone()).map_err(|_| {
        RunError::Protocol(
            ProtocolViolation::invalid_state("verified bid view has invalid rates")
                .at_phase(Phase::Payments),
        )
    })?;
    let ref_alpha = dls_dlt::optimal::fractions(referee.model(), &ref_params);
    let ref_observed: Vec<f64> = meters
        .iter()
        .zip(ref_alpha.iter())
        .zip(agreed_bids.iter())
        .map(|((phi, a), b)| if *a > 0.0 && *phi > 0.0 { phi / a } else { *b })
        .collect();
    let (verdict, correct) = referee
        .adjudicate_payments(&vectors, &agreed_bids, &ref_observed)
        .map_err(|e| {
            RunError::Protocol(
                ProtocolViolation::invalid_state(e.to_string()).at_phase(Phase::Payments),
            )
        })?;
    rr.final_q = Some(correct);
    record_verdict(&mut rr, Phase::Payments, &verdict);
    net.broadcast_referee(Msg::Verdict(verdict));
    vm_barrier(Phase::Payments, budget_ms, &mut clock, queue, arrivals, &mut machines, &mut watch); // B12
    rr.faults = watch.faults;
    for p in machines.iter_mut() {
        if p.state == ProcessorState::AwaitSettlement {
            let _ = net.inboxes.get_mut(p.i).and_then(take_verdict);
            p.state = ProcessorState::Done;
        }
    }
    advance_referee(&mut ref_state, RefereeState::Payments, RefereeState::Settled)?;
    Ok(finish(machines, rr, net, procs))
}

// ---------------------------------------------------------------------------
// Session-level entry points
// ---------------------------------------------------------------------------

/// The one per-session driver every execution path shares: the service
/// ([`crate::service`]) under either placement and the single-session
/// entry point both call this, so placement policies cannot drift from
/// each other — they differ only in *which worker* and *when*
/// `drive_session` runs, never in what it computes.
pub(crate) fn drive_session(
    cfg: &SessionConfig,
    scratch: &mut VmScratch,
) -> Result<SessionOutcome, RunError> {
    run_session_with(cfg, |c, active| drive_round(c, active, scratch))
}

/// [`drive_session`] behind a panic barrier: a panic anywhere in the
/// session drivers is contained to `None` so callers that own long-lived
/// threads (the service worker loop, its supervisor) can translate it
/// into a typed, retryable failure instead of unwinding the thread. The
/// scratch arena is rebuilt by the caller after a `None` — a panicked
/// driver may have left it mid-session.
pub(crate) fn drive_session_caught(
    cfg: &SessionConfig,
    scratch: &mut VmScratch,
) -> Option<Result<SessionOutcome, RunError>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive_session(cfg, scratch))).ok()
}

/// Runs one DLS-BL-NCP session end to end: the single-session entry
/// point.
///
/// Non-participants are excluded from the active market (they receive
/// utility 0, per §4); behaviours whose `victim`/`target` indices point at
/// non-participants degrade to [`Behavior::Compliant`].
///
/// A liveness fault detected before Processing defaults the absentee: it
/// is fined `F`, excluded, and the survivors re-run the protocol over the
/// remaining bid set. A fault during/after Processing completes the
/// session degraded instead. If exclusions leave fewer than two live
/// processors the session errors with
/// [`crate::runtime::ViolationKind::QuorumLost`].
pub fn run_session_vm(cfg: &SessionConfig) -> Result<SessionOutcome, RunError> {
    let mut scratch = VmScratch::new();
    drive_session(cfg, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_crypto::rsa::MIN_MODULUS_BITS;
    use dls_dlt::SystemModel;

    fn base_cfg(behaviors: &[Behavior]) -> SessionConfig {
        let ws = [3.0, 2.0, 4.0, 5.0];
        SessionConfig::builder(SystemModel::NcpFe, 1.0)
            .processors(
                ws.iter()
                    .zip(behaviors)
                    .map(|(&w, &b)| ProcessorConfig::new(w, b)),
            )
            .blocks(12)
            .key_bits(MIN_MODULUS_BITS)
            .seed(7)
            .build()
            .expect("valid config")
    }

    fn outcomes_equal(a: &SessionOutcome, b: &SessionOutcome) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.processors.len(), b.processors.len());
        for (x, y) in a.processors.iter().zip(&b.processors) {
            assert_eq!(x.bid, y.bid);
            assert_eq!(x.alloc_fraction.to_bits(), y.alloc_fraction.to_bits());
            assert_eq!(x.blocks_granted, y.blocks_granted);
            assert_eq!(x.meter.to_bits(), y.meter.to_bits());
            assert_eq!(x.fined.to_bits(), y.fined.to_bits());
            assert_eq!(x.rewarded.to_bits(), y.rewarded.to_bits());
            assert_eq!(x.utility.to_bits(), y.utility.to_bits());
        }
        assert_eq!(a.makespan.map(f64::to_bits), b.makespan.map(f64::to_bits));
        assert_eq!(a.degradation.faults, b.degradation.faults);
    }

    /// Hex SHA-256 of an outcome's `Debug` rendering, which formats every
    /// float at its shortest round-trip form and so is bit-exact.
    fn outcome_digest(o: &SessionOutcome) -> String {
        dls_crypto::sha256::to_hex(&dls_crypto::sha256::digest(format!("{o:?}").as_bytes()))
    }

    // Outcome digests of `base_cfg` sessions, recorded at commit 6754f5bd880b
    // from the thread-per-party runtime (one OS thread per processor and
    // one for the referee, condvar phase barriers), which these tests then
    // asserted bit-identical to this executor. That runtime has since been
    // removed; its outcomes stay pinned here.
    /// All compliant (the per-receiver profile renders the same outcome).
    const THREADED_TRUTHFUL: &str =
        "0efffc39431a12310978176d4685289d5c17cace67ad87ec6d25a57861fdf90f";
    /// All compliant, P3 crashes at Bidding.
    const THREADED_CRASH_BIDDING: &str =
        "ce55b01a76813df062eebcbea00c403db457c177534b617430a8331351baa606";
    /// P1 equivocates (factor 1.5), per-receiver profile.
    const THREADED_EQUIVOCATE_PER_RECEIVER: &str =
        "9d49461ea4759fd26e16f9a800f2057b791c30f03a299696cdfb868c8a48eb33";
    /// P2 corrupts P1's payment (factor 0.25), per-receiver profile.
    const THREADED_CORRUPT_PAYMENTS_PER_RECEIVER: &str =
        "8acde849ebd0c712bc83565c13c5be94da4dacf4205d065e326dfbe5d10b3957";

    #[test]
    fn truthful_session_matches_threaded_bit_for_bit() {
        let cfg = base_cfg(&[Behavior::Compliant; 4]);
        let vm = run_session_vm(&cfg).expect("vm");
        assert_eq!(outcome_digest(&vm), THREADED_TRUTHFUL);
    }

    #[test]
    fn crash_fault_degradation_matches_threaded() {
        let mut cfg = base_cfg(&[Behavior::Compliant; 4]);
        if let Some(p) = cfg.processors.get_mut(2) {
            p.fault = FaultPlan::CrashAt(Phase::Bidding);
        }
        let vm = run_session_vm(&cfg).expect("vm");
        assert_eq!(outcome_digest(&vm), THREADED_CRASH_BIDDING);
        assert!(!vm.degradation.is_clean());
    }

    #[test]
    fn per_receiver_profile_is_outcome_neutral() {
        // The crypto profile changes how many modexps verification spends,
        // never a verdict: amortized and per-receiver sessions must be
        // bit-identical to each other and to the frozen threaded outcome,
        // across a clean run, an equivocation abort, and a payment dispute
        // (the dispute exercises the profiled bid-view adjudication path).
        let scenarios: [(&[Behavior], &str); 3] = [
            (&[Behavior::Compliant; 4], THREADED_TRUTHFUL),
            (&[
                Behavior::EquivocateBids { factor: 1.5 },
                Behavior::Compliant,
                Behavior::Compliant,
                Behavior::Compliant,
            ], THREADED_EQUIVOCATE_PER_RECEIVER),
            (&[
                Behavior::Compliant,
                Behavior::CorruptPayments {
                    target: 0,
                    factor: 0.25,
                },
                Behavior::Compliant,
                Behavior::Compliant,
            ], THREADED_CORRUPT_PAYMENTS_PER_RECEIVER),
        ];
        for (behaviors, frozen) in scenarios {
            let amortized = base_cfg(behaviors);
            let mut naive = base_cfg(behaviors);
            naive.crypto_profile = CryptoProfile::PerReceiverNaive;
            let a = run_session_vm(&amortized).expect("amortized vm");
            let b = run_session_vm(&naive).expect("per-receiver vm");
            outcomes_equal(&a, &b);
            assert_eq!(outcome_digest(&b), frozen);
        }
    }

    #[test]
    fn sign_cached_reconstructs_identical_envelopes() {
        let mut keys =
            generate_keys_cached(&["P1".to_string()], MIN_MODULUS_BITS, 99).expect("keys");
        let key = keys.pop().expect("one key");
        let body = BidBody {
            processor: 0,
            bid: 2.5,
        };
        let a = sign_cached(&key, MIN_MODULUS_BITS, 99, body.clone()).expect("first sign");
        let b = sign_cached(&key, MIN_MODULUS_BITS, 99, body).expect("cached sign");
        assert_eq!(a, b);
        let registry = Registry::from_keypairs(std::iter::once(&key));
        assert!(b.verify(&registry).is_ok());
    }

    #[test]
    fn sign_cached_miss_matches_keypair_sign() {
        let mut keys =
            generate_keys_cached(&["P1".to_string()], MIN_MODULUS_BITS, 98).expect("keys");
        let key = keys.pop().expect("one key");
        let body = BidBody {
            processor: 3,
            bid: 0.8125,
        };
        // Seed 98 is used by no other test, so the first call is a miss
        // that signs the digest directly.
        let cached = sign_cached(&key, MIN_MODULUS_BITS, 98, body.clone()).expect("sign");
        assert_eq!(cached, key.sign(body).expect("direct sign"));
    }
}
