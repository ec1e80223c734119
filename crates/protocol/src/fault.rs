//! Liveness faults: injection plans, detected fault records, and the
//! per-session degradation report.
//!
//! The paper's protocol (§4) assumes every processor shows up at every
//! phase; the referee/fine machinery adjudicates *evidence*, and a silent
//! processor produces none. This module makes that failure mode a
//! first-class input (a [`FaultPlan`] per processor, orthogonal to the
//! strategic [`crate::config::Behavior`] catalogue) and a first-class
//! output (a [`DegradationReport`] on every [`crate::SessionOutcome`]).
//!
//! ## Fault semantics
//!
//! Each plan names a [`Phase`] and affects the processor's **entire
//! output for that phase** (its broadcast/unicast payload *and* its
//! referee-facing report/meter/vector — a dead or wedged node does not
//! selectively deliver):
//!
//! * [`FaultPlan::CrashAt`] — the processor stops at the start of the
//!   phase and never arrives at another barrier. Detected when the
//!   referee closes the next barrier without it.
//! * [`FaultPlan::MuteAt`] — omission: the processor stays alive and
//!   keeps arriving at the barriers, but withholds every message of the
//!   phase. Detected by the referee as a missing end-of-phase message.
//! * [`FaultPlan::DelayAt`] — a straggler: the processor acts normally
//!   but arrives late at the phase's first barrier. A delay below the
//!   session's phase budget must **not** trip the deadline; the session
//!   completes fault-free. A delay at or past the budget misses it.
//! * [`FaultPlan::GarbageAt`] — every message of the phase is replaced by
//!   a syntactically invalid payload, dropped at receipt exactly like a
//!   bad signature (§4: "if the message fails verification, it is
//!   discarded"). Observationally an omission, but the referee records
//!   the garbage frames it received and classifies the fault as
//!   [`FaultKind::Garbage`].
//!
//! ## Degradation policy
//!
//! A fault detected **before Processing** has done no work yet: the
//! referee declares the absentee defaulted, fines its escrow `F` per the
//! §4 fine schedule (the pot goes to the survivors, exactly like any
//! other offence), and the survivors re-run the session over the
//! remaining bid set. A fault detected **during or after Processing**
//! cannot be rolled back — work was done — so the session completes
//! degraded: the absentee's meter reads 0, its missing payment vector is
//! fined by the ordinary §4 payment adjudication, its payment is
//! withheld, and the report records the fault instead of the session
//! erroring out.

use crate::referee::Phase;
use std::fmt;

/// A liveness-fault injection plan for one processor, orthogonal to its
/// strategic [`crate::config::Behavior`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultPlan {
    /// No fault: the processor is live in every phase.
    #[default]
    None,
    /// Stops at the start of the phase; never heard from again.
    CrashAt(Phase),
    /// Omission: alive and pacing barriers, but every message of the
    /// phase is withheld.
    MuteAt(Phase),
    /// Straggler: arrives this many milliseconds late at the phase's
    /// first barrier, otherwise behaves normally.
    DelayAt(Phase, u64),
    /// Every message of the phase is replaced by an invalid payload that
    /// receivers drop like a failed signature.
    GarbageAt(Phase),
}

impl FaultPlan {
    /// The phase the plan targets, if any.
    pub fn phase(&self) -> Option<Phase> {
        match self {
            FaultPlan::None => None,
            FaultPlan::CrashAt(p)
            | FaultPlan::MuteAt(p)
            | FaultPlan::DelayAt(p, _)
            | FaultPlan::GarbageAt(p) => Some(*p),
        }
    }

    /// `true` when the plan suppresses (or corrupts) the processor's
    /// output in `phase` while keeping the processor alive.
    pub(crate) fn silences(&self, phase: Phase) -> bool {
        matches!(
            self,
            FaultPlan::MuteAt(p) | FaultPlan::GarbageAt(p) if *p == phase
        )
    }

    /// `true` when the plan replaces the phase's messages with garbage
    /// frames instead of plain silence.
    pub(crate) fn garbles(&self, phase: Phase) -> bool {
        matches!(self, FaultPlan::GarbageAt(p) if *p == phase)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::None => write!(f, "no fault"),
            FaultPlan::CrashAt(p) => write!(f, "crash at {p:?}"),
            FaultPlan::MuteAt(p) => write!(f, "mute at {p:?}"),
            FaultPlan::DelayAt(p, ms) => write!(f, "delay {ms}ms at {p:?}"),
            FaultPlan::GarbageAt(p) => write!(f, "garbage at {p:?}"),
        }
    }
}

/// How a detected liveness fault manifested on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The processor never arrived at a phase barrier: the deadline
    /// expired with the party missing.
    Crash,
    /// The processor paced the barriers but an expected message never
    /// arrived.
    Omission,
    /// The processor delivered a payload that failed validation and was
    /// dropped at receipt.
    Garbage,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::Omission => write!(f, "omission"),
            FaultKind::Garbage => write!(f, "garbage"),
        }
    }
}

/// One detected liveness fault, in the session's **original** processor
/// indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessFault {
    /// Phase at which the fault was detected.
    pub phase: Phase,
    /// The faulty processor (original index).
    pub processor: usize,
    /// How the fault manifested.
    pub kind: FaultKind,
}

impl fmt::Display for LivenessFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by P{} at {:?}",
            self.kind,
            self.processor + 1,
            self.phase
        )
    }
}

/// Everything a session observed and did about liveness faults. Returned
/// on **every** [`crate::SessionOutcome`] so downstream tests can assert
/// exact degradation behavior; a fault-free session returns
/// [`DegradationReport::is_clean`] `= true`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Faults observed, in detection order, original indexing.
    pub faults: Vec<LivenessFault>,
    /// Processors excluded before Processing and re-solved around
    /// (original indexing, ascending).
    pub excluded: Vec<usize>,
    /// Number of protocol rounds executed (1 for a fault-free session;
    /// +1 for every pre-Processing default that forced a survivor
    /// re-run).
    pub rounds: usize,
    /// Fines levied for liveness defaults `(processor, amount)`,
    /// original indexing. Strategic fines are *not* listed here; they
    /// appear in the ledger as always.
    pub default_fines: Vec<(usize, f64)>,
    /// Processors whose payment entry was withheld because they
    /// defaulted during/after Processing (no delivered receipt).
    pub withheld_payments: Vec<usize>,
}

impl DegradationReport {
    /// A report for a session that observed no faults.
    pub fn clean() -> Self {
        DegradationReport {
            rounds: 1,
            ..DegradationReport::default()
        }
    }

    /// `true` when the session saw no liveness fault at all.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty() && self.excluded.is_empty() && self.withheld_payments.is_empty()
    }

    /// Faults detected at `phase`.
    pub fn faults_at(&self, phase: Phase) -> Vec<LivenessFault> {
        self.faults.iter().filter(|f| f.phase == phase).copied().collect()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean ({} round)", self.rounds);
        }
        write!(f, "{} round(s);", self.rounds)?;
        for fault in &self.faults {
            write!(f, " [{fault}]")?;
        }
        if !self.excluded.is_empty() {
            write!(f, " excluded {:?}", self.excluded)?;
        }
        if !self.withheld_payments.is_empty() {
            write!(f, " withheld {:?}", self.withheld_payments)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_phase_and_silencing() {
        assert_eq!(FaultPlan::None.phase(), None);
        assert_eq!(
            FaultPlan::CrashAt(Phase::Bidding).phase(),
            Some(Phase::Bidding)
        );
        assert!(FaultPlan::MuteAt(Phase::Payments).silences(Phase::Payments));
        assert!(!FaultPlan::MuteAt(Phase::Payments).silences(Phase::Bidding));
        assert!(FaultPlan::GarbageAt(Phase::Bidding).silences(Phase::Bidding));
        assert!(FaultPlan::GarbageAt(Phase::Bidding).garbles(Phase::Bidding));
        assert!(!FaultPlan::MuteAt(Phase::Bidding).garbles(Phase::Bidding));
        assert!(!FaultPlan::DelayAt(Phase::Bidding, 5).silences(Phase::Bidding));
    }

    #[test]
    fn clean_report() {
        let r = DegradationReport::clean();
        assert!(r.is_clean());
        assert_eq!(r.rounds, 1);
        assert_eq!(r.to_string(), "clean (1 round)");
    }

    #[test]
    fn report_accessors() {
        let mut r = DegradationReport::clean();
        r.faults.push(LivenessFault {
            phase: Phase::Bidding,
            processor: 1,
            kind: FaultKind::Crash,
        });
        r.faults.push(LivenessFault {
            phase: Phase::Payments,
            processor: 2,
            kind: FaultKind::Omission,
        });
        r.excluded.push(1);
        r.rounds = 2;
        assert!(!r.is_clean());
        assert_eq!(r.faults_at(Phase::Bidding).len(), 1);
        assert_eq!(r.faults_at(Phase::Payments).len(), 1);
        assert_eq!(r.faults_at(Phase::Allocating).len(), 0);
        let text = r.to_string();
        assert!(text.contains("crash by P2 at Bidding"), "{text}");
        assert!(text.contains("excluded [1]"), "{text}");
    }

    #[test]
    fn displays() {
        assert_eq!(FaultPlan::None.to_string(), "no fault");
        assert_eq!(
            FaultPlan::DelayAt(Phase::Processing, 30).to_string(),
            "delay 30ms at Processing"
        );
        assert_eq!(FaultKind::Garbage.to_string(), "garbage");
    }
}
