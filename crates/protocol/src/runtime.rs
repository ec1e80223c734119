//! The session loop of DLS-BL-NCP and the types every session reports.
//!
//! A session is one or more protocol rounds. Each round runs on the
//! event-driven executor ([`crate::executor::run_session_vm`]); this
//! module holds what sits around the rounds:
//!
//! * the outcome and error types ([`SessionOutcome`], [`RunError`],
//!   [`ProtocolViolation`], [`MessageStats`]);
//! * `run_session_with`, the loop that runs rounds until one completes:
//!   it books verdict fines and rewards on the [`Ledger`], excludes
//!   liveness defaulters and re-runs the survivors, withholds payments
//!   from parties that defaulted during or after Processing, and
//!   assembles the realized timeline and per-processor outcomes;
//! * the per-round pieces the executor's referee and processors call:
//!   the active-set behaviour remap, the seeded key cache, the
//!   outbound fault hook, verdict merging and the payment/bid-view
//!   verification helpers.
//!
//! ## Liveness faults and degradation
//!
//! The paper assumes every processor shows up at every phase. The
//! protocol here drops that assumption: each processor carries a
//! [`FaultPlan`] (crash/mute/delay/garbage, orthogonal to its strategy),
//! and the referee closes every phase barrier at a virtual-time deadline
//! ([`crate::config::SessionConfig::phase_budget_ms`]). A party missing
//! at the deadline is recorded as a [`LivenessFault`]. Faults detected
//! before Processing default the absentee (fined `F` per the §4
//! schedule) and the survivors re-run the session over the remaining bid
//! set; faults during/after Processing complete degraded (meter hole,
//! missing payment vector fined by the ordinary payment adjudication,
//! payment withheld). Every session reports what happened in
//! [`SessionOutcome::degradation`].

use crate::config::{Behavior, CryptoProfile, ProcessorConfig, SessionConfig};
use crate::fault::{DegradationReport, FaultPlan, LivenessFault};
use crate::ledger::{Account, Ledger, TransferReason};
use crate::messages::{BidBody, Msg, MsgCategory, PaymentEntry, PaymentVectorBody, Verdict};
use crate::referee::{Phase, Referee};
use dls_crypto::pki::{KeyPair, Registry, SignatureError};
use dls_crypto::{Signed, VerifyCache};
use dls_dlt::{BusParams, SystemModel};
use dls_netsim::{simulate, SessionSpec as NetSessionSpec, Timeline};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What kind of lock-step invariant broke.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// An expected message was missing at a phase boundary.
    MissingMessage(&'static str),
    /// A runtime invariant broke: an internal index was out of range, a
    /// value that was validated upstream turned out invalid, or an
    /// adjudication step could not run.
    InvalidState(String),
    /// Liveness defaults left fewer than the two live processors the
    /// protocol needs.
    QuorumLost {
        /// How many live processors remained.
        survivors: usize,
    },
}

/// A structured protocol-runtime violation: *what* broke
/// ([`ViolationKind`]), and — when known — *where* ([`Phase`]) and *who*
/// (processor index).
///
/// [`fmt::Display`] prints only the kind's message (identical to the
/// historical stringly-typed errors); phase and processor are structured
/// context for programmatic matching.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolViolation {
    /// Phase at which the violation surfaced, if known.
    pub phase: Option<Phase>,
    /// Processor the violation is attributed to, if any.
    pub processor: Option<usize>,
    /// What broke.
    pub kind: ViolationKind,
}

impl ProtocolViolation {
    /// An invalid-state violation with a free-form description.
    pub fn invalid_state(msg: impl Into<String>) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::InvalidState(msg.into()),
        }
    }

    /// A missing-message violation (`what` names the expected message).
    pub fn missing_message(what: &'static str) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::MissingMessage(what),
        }
    }

    /// A quorum-lost violation.
    pub fn quorum_lost(survivors: usize) -> Self {
        ProtocolViolation {
            phase: None,
            processor: None,
            kind: ViolationKind::QuorumLost { survivors },
        }
    }

    /// Attaches the phase the violation surfaced at.
    pub fn at_phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Attaches the processor the violation is attributed to.
    pub fn by_processor(mut self, processor: usize) -> Self {
        self.processor = Some(processor);
        self
    }
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ViolationKind::MissingMessage(what) => {
                write!(f, "expected {what} missing at phase boundary")
            }
            ViolationKind::InvalidState(msg) => write!(f, "{msg}"),
            ViolationKind::QuorumLost { survivors } => write!(
                f,
                "liveness defaults left {survivors} live processor(s), below the required two"
            ),
        }
    }
}

/// Errors when running a session.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The protocol needs at least two *participating* processors.
    TooFewParticipants,
    /// The CP model has a trusted external originator and is not subject to
    /// the NCP protocol; use `dls-mechanism` directly for CP baselines.
    UnsupportedModel,
    /// Key generation failed (modulus too small).
    Crypto(String),
    /// A lock-step invariant broke at runtime: an expected message was
    /// missing at a phase boundary, an internal index was out of range, or
    /// an adjudication step could not run. Sessions surface this instead
    /// of panicking.
    Protocol(ProtocolViolation),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TooFewParticipants => {
                write!(f, "fewer than two processors participate")
            }
            RunError::UnsupportedModel => write!(
                f,
                "the NCP protocol runs on NCP-FE / NCP-NFE; CP has a trusted control processor"
            ),
            RunError::Crypto(e) => write!(f, "crypto setup failed: {e}"),
            RunError::Protocol(v) => write!(f, "protocol runtime failure: {v}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A missing-message error at a lock-step phase boundary.
pub(crate) fn missing(what: &'static str, phase: Phase) -> RunError {
    RunError::Protocol(ProtocolViolation::missing_message(what).at_phase(phase))
}

/// Per-category message accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    counts: BTreeMap<&'static str, (u64, u64)>,
}

impl MessageStats {
    pub(crate) fn record(&mut self, category: MsgCategory, copies: u64, bytes_each: u64) {
        let key = match category {
            MsgCategory::Bid => "bid",
            MsgCategory::Grant => "grant",
            MsgCategory::PaymentVector => "payment-vector",
            MsgCategory::Control => "control",
        };
        let e = self.counts.entry(key).or_insert((0, 0));
        e.0 += copies;
        e.1 += copies * bytes_each;
    }

    /// Records `copies` deliveries of a message (public entry point for
    /// alternative transports, e.g. the centralized baseline).
    pub fn record_public(&mut self, category: MsgCategory, copies: u64, bytes_each: u64) {
        self.record(category, copies, bytes_each);
    }

    /// Accumulates another stats block into this one (used to total the
    /// traffic of a multi-round degraded session).
    pub(crate) fn merge(&mut self, other: &MessageStats) {
        for (key, (copies, bytes)) in &other.counts {
            let e = self.counts.entry(key).or_insert((0, 0));
            e.0 += copies;
            e.1 += bytes;
        }
    }

    /// `(message count, total bytes)` for a category key
    /// (`"bid"`, `"grant"`, `"payment-vector"`, `"control"`).
    pub fn category(&self, key: &str) -> (u64, u64) {
        self.counts.get(key).copied().unwrap_or((0, 0))
    }

    /// Total messages delivered.
    pub fn total_messages(&self) -> u64 {
        self.counts.values().map(|(c, _)| c).sum()
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.counts.values().map(|(_, b)| b).sum()
    }
}

/// Outcome status of a session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// All phases completed, no fines.
    Completed,
    /// The work completed but deviants (or liveness defaulters) were fined
    /// along the way.
    CompletedWithFines,
    /// The protocol terminated early at `phase` because fines were raised.
    Aborted {
        /// Phase at which the verdict terminated the session.
        phase: Phase,
    },
}

/// Per-processor results, indexed like the *original* configuration.
#[derive(Debug, Clone)]
pub struct ProcessorOutcome {
    /// The configuration this processor played.
    pub config: ProcessorConfig,
    /// `false` for [`Behavior::NonParticipant`].
    pub participated: bool,
    /// First broadcast bid, if any.
    pub bid: Option<f64>,
    /// Real-valued allocation fraction `α_i(b)` (0 if the session aborted
    /// during bidding or the processor did not participate).
    pub alloc_fraction: f64,
    /// Blocks actually granted.
    pub blocks_granted: usize,
    /// Tamper-proof meter reading `φ_i` (0 unless processing ran).
    pub meter: f64,
    /// Final payment entry from the forwarded vector `Q`, if the session
    /// reached payments and the entry was not withheld for a
    /// during-/after-Processing liveness default.
    pub payment: Option<PaymentEntry>,
    /// Total fines paid.
    pub fined: f64,
    /// Total rewards received from the fine pool.
    pub rewarded: f64,
    /// Cost incurred (computation time actually spent).
    pub cost: f64,
    /// Net utility: ledger balance − cost.
    pub utility: f64,
}

/// Everything a session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Completion status.
    pub status: SessionStatus,
    /// Per-processor outcomes (original indexing).
    pub processors: Vec<ProcessorOutcome>,
    /// The fine `F` in force.
    pub fine: f64,
    /// Message accounting (totalled across every round of a degraded
    /// session).
    pub messages: MessageStats,
    /// Conservation-checked money movements.
    pub ledger: Ledger,
    /// Realized execution timeline (only when processing ran).
    pub timeline: Option<Timeline>,
    /// Realized makespan (only when processing ran).
    pub makespan: Option<f64>,
    /// Liveness faults observed and how the session degraded around them
    /// ([`DegradationReport::is_clean`] for a fault-free session).
    pub degradation: DegradationReport,
}

impl SessionOutcome {
    /// Utility of processor `i` (original indexing).
    ///
    /// # Panics
    /// Panics if `i` is not an original processor index, like any slice
    /// access with a caller-supplied index.
    pub fn utility(&self, i: usize) -> f64 {
        // dls-lint: allow(no-panic-in-protocol) -- public accessor with a documented index contract; callers pass indices from the configs they built
        self.processors[i].utility
    }

    /// Indices fined during the session.
    pub fn fined_processors(&self) -> Vec<usize> {
        self.processors
            .iter()
            .enumerate()
            .filter(|(_, p)| p.fined > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The session runner
// ---------------------------------------------------------------------------

/// Original index of an active-position, falling back to the position
/// itself so a money movement is never silently dropped.
fn orig_of(active: &[usize], pos: usize) -> usize {
    active.get(pos).copied().unwrap_or(pos)
}

/// Total fines paid / rewards received by `orig` per the ledger journal.
fn ledger_sums(ledger: &Ledger, orig: usize) -> (f64, f64) {
    let account = Account::Processor(orig);
    let fined: f64 = ledger
        .journal()
        .iter()
        .filter(|t| t.reason == TransferReason::Fine && t.from == account)
        .map(|t| t.amount)
        .sum();
    let rewarded: f64 = ledger
        .journal()
        .iter()
        .filter(|t| t.reason == TransferReason::Reward && t.to == account)
        .map(|t| t.amount)
        .sum();
    (fined, rewarded)
}

/// The session loop: runs `round_fn` over the active set until a round
/// completes, then books the ledger, withheld payments, the realized
/// timeline and the per-processor outcomes. Both execution paths (the
/// single-session entry point and the service) reach it through
/// [`crate::executor::drive_session`] with the executor's round function.
///
/// Non-participants are excluded from the active market (they receive
/// utility 0, per §4); behaviours whose `victim`/`target` indices point at
/// non-participants degrade to [`Behavior::Compliant`].
///
/// A liveness fault detected before Processing defaults the absentee:
/// it is fined `F`, excluded, and the survivors re-run the protocol over
/// the remaining bid set (allocations and payments over the survivor set
/// are identical to a from-scratch session without the defaulter, because
/// each round re-derives keys, blocks and bids from the same seed). A
/// fault during/after Processing completes the session degraded instead.
/// If exclusions leave fewer than two live processors the session errors
/// with [`ViolationKind::QuorumLost`].
pub(crate) fn run_session_with(
    cfg: &SessionConfig,
    mut round_fn: impl FnMut(&SessionConfig, &[usize]) -> Result<RoundOutput, RunError>,
) -> Result<SessionOutcome, RunError> {
    if cfg.model == SystemModel::Cp {
        return Err(RunError::UnsupportedModel);
    }
    // Active set in original indices; shrinks as defaulters are excluded.
    let mut active: Vec<usize> = cfg
        .processors
        .iter()
        .enumerate()
        .filter(|(_, p)| p.behavior != Behavior::NonParticipant)
        .map(|(i, _)| i)
        .collect();
    if active.len() < 2 {
        return Err(RunError::TooFewParticipants);
    }

    let mut degradation = DegradationReport::default();
    let mut ledger = Ledger::new();
    let mut messages = MessageStats::default();
    // Partial results of defaulted processors, keyed by original index.
    let mut halted: BTreeMap<usize, ProcResult> = BTreeMap::new();
    let mut any_fines = false;

    let (round_active, round) = loop {
        degradation.rounds += 1;
        let round_active = active.clone();
        let round = round_fn(cfg, &round_active)?;
        any_fines |= round.rr.any_fines;
        messages.merge(&round.messages);

        // Verdict fines/rewards land on the ledger in original indexing,
        // no matter how the session ends.
        for (_, verdict) in &round.rr.verdicts {
            for &(i, amount) in &verdict.fined {
                ledger.transfer(
                    Account::Processor(orig_of(&round_active, i)),
                    Account::FinePool,
                    amount,
                    TransferReason::Fine,
                );
            }
            for &(i, amount) in &verdict.rewards {
                ledger.transfer(
                    Account::FinePool,
                    Account::Processor(orig_of(&round_active, i)),
                    amount,
                    TransferReason::Reward,
                );
            }
        }
        for f in &round.rr.faults {
            degradation.faults.push(LivenessFault {
                phase: f.phase,
                processor: orig_of(&round_active, f.processor),
                kind: f.kind,
            });
        }

        let defaulted: Vec<usize> = round
            .rr
            .defaulted_pre
            .iter()
            .map(|&pos| orig_of(&round_active, pos))
            .collect();
        let liveness_only_abort =
            round.rr.aborted.is_some() && !round.rr.strategic_abort && !defaulted.is_empty();
        if liveness_only_abort {
            // Default the absentees (their fines are already on the
            // ledger via the merged verdict) and re-solve around them.
            for &orig in &defaulted {
                degradation.default_fines.push((orig, cfg.fine));
                degradation.excluded.push(orig);
                if let Some(pos) = round_active.iter().position(|&o| o == orig) {
                    halted.insert(
                        orig,
                        round.proc_results.get(pos).cloned().unwrap_or_default(),
                    );
                }
            }
            active.retain(|orig| !defaulted.contains(orig));
            if active.len() < 2 {
                return Err(RunError::Protocol(ProtocolViolation::quorum_lost(
                    active.len(),
                )));
            }
            continue;
        }
        break (round_active, round);
    };
    let RoundOutput {
        procs,
        proc_results,
        rr,
        messages: _,
    } = round;
    degradation.excluded.sort_unstable();

    // Payments for processors that defaulted during/after Processing are
    // withheld: they delivered no verified payment vector of their own and
    // cannot be paid through the forwarded `Q`.
    let withheld_pos: BTreeSet<usize> = rr
        .faults
        .iter()
        .filter(|f| f.phase >= Phase::Processing && !rr.delivered_vectors.contains(&f.processor))
        .map(|f| f.processor)
        .collect();
    degradation.withheld_payments = withheld_pos
        .iter()
        .map(|&pos| orig_of(&round_active, pos))
        .collect();

    if let Some(q) = &rr.final_q {
        for (i, entry) in q.iter().enumerate() {
            if withheld_pos.contains(&i) {
                continue;
            }
            let total = entry.total();
            if total >= 0.0 {
                ledger.transfer(
                    Account::User,
                    Account::Processor(orig_of(&round_active, i)),
                    total,
                    TransferReason::Payment,
                );
            } else {
                ledger.transfer(
                    Account::Processor(orig_of(&round_active, i)),
                    Account::User,
                    -total,
                    TransferReason::Payment,
                );
            }
        }
    }

    // --- Realized timeline (only when processing ran) ----------------------
    let (timeline, makespan) = if rr.meters.is_some() {
        let exec: Vec<f64> = procs.iter().map(|p| p.exec_w()).collect();
        let alloc: Vec<f64> = proc_results.iter().map(|r| r.alloc_fraction).collect();
        // Realized rates come from validated configs (finite, positive).
        let params = BusParams::new(cfg.z, exec).map_err(|_| {
            RunError::Protocol(ProtocolViolation::invalid_state(
                "realized execution rates invalid",
            ))
        })?;
        let tl = simulate(&NetSessionSpec::new(cfg.model, params, alloc));
        let mk = tl.makespan;
        (Some(tl), Some(mk))
    } else {
        (None, None)
    };

    // --- Per-processor outcomes in original indexing ------------------------
    let to_final: BTreeMap<usize, usize> = round_active
        .iter()
        .enumerate()
        .map(|(pos, &orig)| (orig, pos))
        .collect();
    let mut processors = Vec::with_capacity(cfg.m());
    for (orig, &config) in cfg.processors.iter().enumerate() {
        let outcome = if config.behavior == Behavior::NonParticipant {
            ProcessorOutcome {
                config,
                participated: false,
                bid: None,
                alloc_fraction: 0.0,
                blocks_granted: 0,
                meter: 0.0,
                payment: None,
                fined: 0.0,
                rewarded: 0.0,
                cost: 0.0,
                utility: 0.0,
            }
        } else if let Some(&pos) = to_final.get(&orig) {
            let Some(r) = proc_results.get(pos) else {
                return Err(RunError::Protocol(ProtocolViolation::invalid_state(
                    format!("active position {pos} has no processor result"),
                )));
            };
            let (fined, rewarded) = ledger_sums(&ledger, orig);
            let cost = r.meter;
            let utility = ledger.balance(&Account::Processor(orig)) - cost;
            ProcessorOutcome {
                config,
                participated: true,
                bid: r.bid,
                alloc_fraction: r.alloc_fraction,
                blocks_granted: r.blocks_granted,
                meter: r.meter,
                payment: if withheld_pos.contains(&pos) {
                    None
                } else {
                    rr.final_q.as_ref().and_then(|q| q.get(pos).copied())
                },
                fined,
                rewarded,
                cost,
                utility,
            }
        } else {
            // Excluded mid-session: partial results from the round it
            // defaulted in, payment withheld by construction.
            let r = halted.get(&orig).cloned().unwrap_or_default();
            let (fined, rewarded) = ledger_sums(&ledger, orig);
            let cost = r.meter;
            let utility = ledger.balance(&Account::Processor(orig)) - cost;
            ProcessorOutcome {
                config,
                participated: true,
                bid: r.bid,
                alloc_fraction: r.alloc_fraction,
                blocks_granted: r.blocks_granted,
                meter: r.meter,
                payment: None,
                fined,
                rewarded,
                cost,
                utility,
            }
        };
        processors.push(outcome);
    }

    let status = match rr.aborted {
        Some(phase) => SessionStatus::Aborted { phase },
        None if any_fines => SessionStatus::CompletedWithFines,
        None => SessionStatus::Completed,
    };

    Ok(SessionOutcome {
        status,
        processors,
        fine: cfg.fine,
        messages,
        ledger,
        timeline,
        makespan,
        degradation,
    })
}

/// Everything one protocol round produced (active-set indexing).
pub(crate) struct RoundOutput {
    /// The remapped configs the round's processors played, active order.
    pub(crate) procs: Vec<ProcessorConfig>,
    /// Per-processor partial results, active order.
    pub(crate) proc_results: Vec<ProcResult>,
    /// The referee's round result.
    pub(crate) rr: RefResult,
    /// Traffic of this round alone.
    pub(crate) messages: MessageStats,
}

/// Remaps index-bearing behaviours into active coordinates. A behaviour
/// whose victim/target is not active degrades to Compliant.
pub(crate) fn remap_active_configs(
    cfg: &SessionConfig,
    active: &[usize],
) -> Vec<ProcessorConfig> {
    let to_active: BTreeMap<usize, usize> = active
        .iter()
        .enumerate()
        .map(|(pos, &orig)| (orig, pos))
        .collect();
    active
        .iter()
        .filter_map(|&orig| cfg.processors.get(orig))
        .map(|p| {
            let behavior = match p.behavior {
                Behavior::ShortAllocate { victim, shortfall } => to_active
                    .get(&victim)
                    .map(|&v| Behavior::ShortAllocate {
                        victim: v,
                        shortfall,
                    })
                    .unwrap_or(Behavior::Compliant),
                Behavior::OverAllocate { victim, excess } => to_active
                    .get(&victim)
                    .map(|&v| Behavior::OverAllocate { victim: v, excess })
                    .unwrap_or(Behavior::Compliant),
                Behavior::CorruptPayments { target, factor } => to_active
                    .get(&target)
                    .map(|&t| Behavior::CorruptPayments { target: t, factor })
                    .unwrap_or(Behavior::Compliant),
                Behavior::ForgeExtraBid { impersonate } => to_active
                    .get(&impersonate)
                    .map(|&t| Behavior::ForgeExtraBid { impersonate: t })
                    .unwrap_or(Behavior::Compliant),
                other => other,
            };
            ProcessorConfig {
                true_w: p.true_w,
                behavior,
                fault: p.fault,
            }
        })
        .collect()
}

/// Parallel, cached deterministic key generation. Each `(identity, seed,
/// bits)` triple always yields the same key pair within a process.
pub(crate) fn generate_keys_cached(
    identities: &[String],
    bits: usize,
    seed: u64,
) -> Result<Vec<KeyPair>, RunError> {
    type Cache = BTreeMap<(String, usize, u64), KeyPair>;
    static CACHE: Mutex<Option<Cache>> = Mutex::new(None);

    let mut misses: Vec<(usize, String)> = Vec::new();
    let mut out: Vec<Option<KeyPair>> = vec![None; identities.len()];
    {
        let mut guard = CACHE.lock();
        let cache = guard.get_or_insert_with(Cache::new);
        for (idx, (slot, id)) in out.iter_mut().zip(identities).enumerate() {
            match cache.get(&(id.clone(), bits, seed)) {
                Some(kp) => *slot = Some(kp.clone()),
                None => misses.push((idx, id.clone())),
            }
        }
    }
    if !misses.is_empty() {
        let generated: Result<Vec<(usize, Result<KeyPair, RunError>)>, RunError> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = misses
                    .iter()
                    .map(|(idx, id)| {
                        let idx = *idx;
                        let id = id.clone();
                        scope.spawn(move || {
                            // Distinct deterministic stream per identity.
                            let mut h = dls_crypto::sha256::Sha256::new();
                            h.update(&seed.to_le_bytes());
                            h.update(id.as_bytes());
                            let digest = h.finalize();
                            // Little-endian fold of the first 8 digest
                            // bytes (equals u64::from_le_bytes without the
                            // panicking slice-to-array conversion).
                            let sub_seed = digest
                                .iter()
                                .take(8)
                                .rev()
                                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
                            let mut rng = StdRng::seed_from_u64(sub_seed);
                            let kp = KeyPair::generate(id, bits, &mut rng)
                                .map_err(|e| RunError::Crypto(e.to_string()));
                            (idx, kp)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| RunError::Crypto("keygen thread panicked".into()))
                    })
                    .collect()
            });
        let mut guard = CACHE.lock();
        let cache = guard.get_or_insert_with(Cache::new);
        for (idx, kp) in generated? {
            let kp = kp?;
            cache.insert((kp.identity().to_string(), bits, seed), kp.clone());
            if let Some(slot) = out.get_mut(idx) {
                *slot = Some(kp);
            }
        }
    }
    out.into_iter()
        .map(|kp| kp.ok_or_else(|| RunError::Crypto("missing generated key".into())))
        .collect()
}

// ---------------------------------------------------------------------------
// Fault-injection hooks
// ---------------------------------------------------------------------------

/// Outbound-message hook: `None` drops the message (mute), a garbage
/// frame replaces it for a garbling fault, otherwise it passes through.
pub(crate) fn faulted_send(fault: &FaultPlan, phase: Phase, from: usize, msg: Msg) -> Option<Msg> {
    if fault.garbles(phase) {
        Some(Msg::Garbage { from })
    } else if fault.silences(phase) {
        None
    } else {
        Some(msg)
    }
}

/// What one processor produced in a round (active-set indexing).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcResult {
    pub(crate) bid: Option<f64>,
    pub(crate) alloc_fraction: f64,
    pub(crate) blocks_granted: usize,
    pub(crate) meter: f64,
}

// ---------------------------------------------------------------------------
// Referee round result and adjudication helpers
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct RefResult {
    pub(crate) aborted: Option<Phase>,
    pub(crate) any_fines: bool,
    pub(crate) verdicts: Vec<(Phase, Verdict)>,
    pub(crate) meters: Option<Vec<f64>>,
    pub(crate) final_q: Option<Vec<PaymentEntry>>,
    /// Liveness faults detected this round (active-set indexing).
    pub(crate) faults: Vec<LivenessFault>,
    /// Parties defaulted by the verdict that aborted the round
    /// (pre-Processing liveness faults, active-set indexing).
    pub(crate) defaulted_pre: Vec<usize>,
    /// Processors that delivered a verified payment vector of their own.
    pub(crate) delivered_vectors: BTreeSet<usize>,
    /// `true` when the aborting verdict also fined a *strategic* deviant
    /// (evidence-based offence); such a session ends aborted instead of
    /// re-running, exactly as before faults existed.
    pub(crate) strategic_abort: bool,
}

/// Folds liveness defaulters into a strategic verdict: the merged deviant
/// set is fined per the §4 schedule (`F` each, pot split among survivors)
/// and the verdict aborts iff `abort`. Returns the merged verdict and
/// whether the *strategic* verdict alone already fined someone.
pub(crate) fn merge_defaults(
    referee: &Referee,
    strategic: Verdict,
    defaulted: &BTreeSet<usize>,
    abort: bool,
) -> (Verdict, bool) {
    let strategic_fines = !strategic.fined.is_empty();
    if defaulted.is_empty() {
        return (strategic, strategic_fines);
    }
    let mut deviants: BTreeSet<usize> = strategic.fined.iter().map(|&(i, _)| i).collect();
    deviants.extend(defaulted.iter().copied());
    (referee.verdict_for(&deviants, abort), strategic_fines)
}

pub(crate) fn record_verdict(result: &mut RefResult, phase: Phase, verdict: &Verdict) {
    if !verdict.fined.is_empty() {
        result.any_fines = true;
    }
    result.verdicts.push((phase, verdict.clone()));
}

/// Routes one envelope verification through the session's crypto profile:
/// `Amortized` memoizes the verdict in the round-shared [`VerifyCache`]
/// (one modexp per distinct envelope, every later receiver hits the
/// cache); `PerReceiverNaive` re-verifies via plain `pow_mod` every time,
/// modelling the pre-Montgomery per-receiver cost. Verification is
/// deterministic, so both routes return identical verdicts — the profile
/// changes only how many modexps are spent, never the outcome.
pub(crate) fn verify_profiled<'a, T: serde::Serialize>(
    signed: &'a Signed<T>,
    registry: &Registry,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> Result<&'a T, SignatureError> {
    match profile {
        CryptoProfile::Amortized => signed.verify_cached(registry, cache),
        CryptoProfile::PerReceiverNaive => signed.verify_naive(registry),
    }
}

/// Equality check across submitted payment vectors: requires a verified
/// vector from each of the `m` processors, all numerically equal.
pub(crate) fn vectors_all_equal(
    vectors: &[Signed<PaymentVectorBody>],
    m: usize,
    referee: &Referee,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> bool {
    use crate::referee::payments_agree;
    let mut per_proc: Vec<Option<&PaymentVectorBody>> = vec![None; m];
    for sv in vectors {
        let Ok(body) = verify_profiled(sv, referee.registry(), cache, profile) else {
            return false;
        };
        // `get_mut` rejects out-of-range indices; duplicates also fail.
        let Some(slot) = per_proc.get_mut(body.processor) else {
            return false;
        };
        if slot.is_some() {
            return false;
        }
        *slot = Some(body);
    }
    let Some(first) = per_proc.first().and_then(|b| *b) else {
        return false;
    };
    per_proc.iter().all(|b| match b {
        Some(body) => {
            body.q.len() == first.q.len()
                && body.q.iter().zip(&first.q).all(|(a, b)| {
                    payments_agree(a.compensation, b.compensation)
                        && payments_agree(a.bonus, b.bonus)
                })
        }
        None => false,
    })
}

pub(crate) fn verify_bid_view(
    view: &[Signed<BidBody>],
    m: usize,
    referee: &Referee,
    cache: &VerifyCache,
    profile: CryptoProfile,
) -> Option<Vec<f64>> {
    if view.len() != m {
        return None;
    }
    let mut bids = vec![f64::NAN; m];
    for sb in view {
        let body = verify_profiled(sb, referee.registry(), cache, profile).ok()?;
        if sb.signer() != format!("P{}", body.processor + 1) {
            return None;
        }
        // Only finite positive rates form valid bus parameters; a view
        // carrying anything else is rejected like a bad signature.
        if !(body.bid.is_finite() && body.bid > 0.0) {
            return None;
        }
        // `get_mut` also rejects out-of-range indices; a non-NaN slot is
        // a duplicate.
        let slot = bids.get_mut(body.processor)?;
        if !slot.is_nan() {
            return None;
        }
        *slot = body.bid;
    }
    Some(bids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_matches_legacy_text() {
        // Satellite contract: the structured errors render exactly the
        // strings the stringly-typed RunError::Protocol(String) produced.
        let cases = [
            (
                RunError::Protocol(ProtocolViolation::missing_message("bidding verdict")),
                "protocol runtime failure: expected bidding verdict missing at phase boundary",
            ),
            (
                RunError::Protocol(ProtocolViolation::invalid_state(
                    "realized execution rates invalid",
                )),
                "protocol runtime failure: realized execution rates invalid",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
        // Structured context is attached without changing the rendering.
        let v = ProtocolViolation::missing_message("meter vector")
            .at_phase(Phase::Processing)
            .by_processor(2);
        assert_eq!(v.phase, Some(Phase::Processing));
        assert_eq!(v.processor, Some(2));
        assert_eq!(
            v.to_string(),
            "expected meter vector missing at phase boundary"
        );
    }

    #[test]
    fn message_stats_accumulate_by_category() {
        let mut s = MessageStats::default();
        s.record(MsgCategory::Bid, 3, 100);
        s.record(MsgCategory::Bid, 1, 50);
        s.record(MsgCategory::PaymentVector, 2, 400);
        assert_eq!(s.category("bid"), (4, 350));
        assert_eq!(s.category("payment-vector"), (2, 800));
        assert_eq!(s.category("grant"), (0, 0));
        assert_eq!(s.total_messages(), 6);
        assert_eq!(s.total_bytes(), 1150);
    }

    #[test]
    fn message_stats_merge_sums_rounds() {
        let mut a = MessageStats::default();
        a.record(MsgCategory::Bid, 2, 10);
        a.record(MsgCategory::Control, 5, 8);
        let mut b = MessageStats::default();
        b.record(MsgCategory::Bid, 3, 10);
        b.record(MsgCategory::Grant, 1, 100);
        a.merge(&b);
        assert_eq!(a.category("bid"), (5, 50));
        assert_eq!(a.category("grant"), (1, 100));
        assert_eq!(a.category("control"), (5, 40));
    }

    #[test]
    fn key_cache_is_deterministic_and_identity_scoped() {
        let ids = vec!["P1".to_string(), "P2".to_string()];
        let a = generate_keys_cached(&ids, 384, 99).unwrap();
        let b = generate_keys_cached(&ids, 384, 99).unwrap();
        assert_eq!(a[0].public(), b[0].public());
        assert_eq!(a[1].public(), b[1].public());
        assert_ne!(a[0].public(), a[1].public(), "identities get distinct keys");
        let c = generate_keys_cached(&ids, 384, 100).unwrap();
        assert_ne!(a[0].public(), c[0].public(), "seeds get distinct keys");
    }
}
