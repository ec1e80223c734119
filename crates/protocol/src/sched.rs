//! Deterministic scheduling primitives for the event-driven session
//! executor ([`crate::executor`]).
//!
//! Phase barriers and injected `DelayAt` faults run in **virtual time**:
//! a per-session millisecond clock that only ever jumps forward to the
//! completion time of the next phase barrier. No party parks and nothing
//! sleeps. A barrier is resolved by a tiny discrete-event loop — every
//! party posts an *arrival* event (its injected delay past the phase
//! start), the referee posts the *deadline* event (phase start + budget),
//! and events are popped in `(time, sequence)` order. Parties whose
//! arrival pops at or after the deadline are removed and recorded as
//! crashed. The whole chaos matrix therefore resolves in microseconds of
//! real time while reporting the faults, verdicts and degradation a
//! real-time deadline would produce.
//!
//! The clock and queue are per session, so which worker of the service
//! ([`crate::service`]) runs a session, and when, never changes an
//! outcome.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A session's virtual clock, in milliseconds. Starts at zero and advances
/// only when a phase barrier completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// A clock at virtual time zero (session start).
    pub fn new() -> Self {
        VirtualClock { now_ms: 0 }
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Jumps the clock forward to `t` (never backward: a barrier completes
    /// at or after the time it started).
    pub fn advance_to(&mut self, t: u64) {
        self.now_ms = self.now_ms.max(t);
    }
}

/// What a scheduled event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Party `id` arrives at the current barrier.
    Arrive(usize),
    /// The referee's phase deadline expires.
    Deadline,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_ms: u64,
    // Encoded so `Ord` can be derived: an arrival exactly at the deadline
    // is late (the check is `now >= deadline`), so the deadline must win
    // ties — `kind_rank` (0 = Deadline, 1 = Arrive) therefore sorts before
    // the insertion sequence.
    kind_rank: u8,
    seq: u64,
    party: usize,
}

impl Event {
    fn kind(&self) -> EventKind {
        if self.kind_rank == 0 {
            EventKind::Deadline
        } else {
            EventKind::Arrive(self.party)
        }
    }
}

/// A deterministic min-heap of timed events. Ties on the timestamp are
/// broken by kind (deadline first: an arrival exactly at the deadline is
/// late) and then by insertion order, so a
/// replay of the same pushes always pops the same sequence.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `kind` at `time_ms`.
    pub fn push(&mut self, time_ms: u64, kind: EventKind) {
        let (kind_rank, party) = match kind {
            EventKind::Deadline => (0, usize::MAX),
            EventKind::Arrive(id) => (1, id),
        };
        self.heap.push(Reverse(Event {
            time_ms,
            seq: self.seq,
            kind_rank,
            party,
        }));
        self.seq = self.seq.wrapping_add(1);
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(u64, EventKind)> {
        self.heap.pop().map(|Reverse(e)| (e.time_ms, e.kind()))
    }

    /// Discards all pending events (reused across barriers and sessions so
    /// a worker allocates its heap once).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The outcome of one resolved phase barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierOutcome {
    /// Virtual time at which the barrier completed: the latest surviving
    /// arrival, or the deadline when parties were removed.
    pub completed_at_ms: u64,
    /// Parties removed because their arrival missed the deadline, in
    /// ascending id order.
    pub removed: Vec<usize>,
}

/// Resolves one phase barrier in virtual time.
///
/// `arrivals` lists `(party, delay_ms)` for every party expected at the
/// barrier; `delay_ms` is the party's injected delay past the phase start
/// (zero for everyone without a matching `DelayAt` fault). The referee's
/// deadline sits at `now_ms + budget_ms`. A party whose arrival would pop
/// at or after the deadline event is removed: it is still absent when
/// the referee closes the barrier.
pub fn resolve_barrier(
    queue: &mut EventQueue,
    now_ms: u64,
    budget_ms: u64,
    arrivals: &[(usize, u64)],
) -> BarrierOutcome {
    queue.clear();
    let deadline = now_ms.saturating_add(budget_ms);
    queue.push(deadline, EventKind::Deadline);
    for &(party, delay_ms) in arrivals {
        queue.push(now_ms.saturating_add(delay_ms), EventKind::Arrive(party));
    }
    let mut arrived: Vec<usize> = Vec::with_capacity(arrivals.len());
    let mut latest_arrival = now_ms;
    let mut removed: Vec<usize> = Vec::new();
    let mut deadline_hit = false;
    while let Some((t, kind)) = queue.pop() {
        match kind {
            EventKind::Arrive(id) if !deadline_hit => {
                arrived.push(id);
                latest_arrival = latest_arrival.max(t);
            }
            EventKind::Arrive(id) => removed.push(id),
            EventKind::Deadline => {
                if arrived.len() == arrivals.len() {
                    // Everyone made it before the deadline popped; the
                    // remaining event would only have been the deadline.
                    break;
                }
                deadline_hit = true;
            }
        }
    }
    removed.sort_unstable();
    BarrierOutcome {
        completed_at_ms: if deadline_hit { deadline } else { latest_arrival },
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_never_moves_backward() {
        let mut c = VirtualClock::new();
        c.advance_to(10);
        c.advance_to(5);
        assert_eq!(c.now_ms(), 10);
    }

    #[test]
    fn queue_pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Arrive(2));
        q.push(3, EventKind::Arrive(0));
        q.push(5, EventKind::Arrive(1));
        assert_eq!(q.pop(), Some((3, EventKind::Arrive(0))));
        assert_eq!(q.pop(), Some((5, EventKind::Arrive(2))));
        assert_eq!(q.pop(), Some((5, EventKind::Arrive(1))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn deadline_wins_timestamp_ties() {
        let mut q = EventQueue::new();
        q.push(7, EventKind::Arrive(0));
        q.push(7, EventKind::Deadline);
        assert_eq!(q.pop(), Some((7, EventKind::Deadline)));
    }

    #[test]
    fn equal_timestamp_arrivals_pop_in_exact_insertion_order() {
        // All events share one timestamp: the only remaining order is the
        // insertion sequence, including across interleaved party ids and
        // after the heap has been partially drained.
        let mut q = EventQueue::new();
        for id in [9, 1, 7, 3, 5] {
            q.push(11, EventKind::Arrive(id));
        }
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(9))));
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(1))));
        // Pushing more equal-timestamp events mid-drain continues the
        // global sequence; they sort after everything already queued.
        q.push(11, EventKind::Arrive(2));
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(7))));
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(3))));
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(5))));
        assert_eq!(q.pop(), Some((11, EventKind::Arrive(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn deadline_outranks_every_tied_arrival_regardless_of_push_order() {
        // The deadline wins the timestamp tie even when pushed last, after
        // many arrivals with lower sequence numbers — kind_rank dominates
        // the insertion sequence.
        let mut q = EventQueue::new();
        for id in 0..4 {
            q.push(30, EventKind::Arrive(id));
        }
        q.push(30, EventKind::Deadline);
        assert_eq!(q.pop(), Some((30, EventKind::Deadline)));
        // The tied arrivals still drain in insertion order afterwards.
        for id in 0..4 {
            assert_eq!(q.pop(), Some((30, EventKind::Arrive(id))));
        }
    }

    #[test]
    fn clear_resets_pending_events_but_ordering_survives_reuse() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Arrive(0));
        q.push(1, EventKind::Deadline);
        q.clear();
        assert_eq!(q.pop(), None);
        // Reused queue (one heap per worker, per-barrier clears): ordering
        // rules are unchanged after a clear.
        q.push(8, EventKind::Arrive(1));
        q.push(8, EventKind::Deadline);
        assert_eq!(q.pop(), Some((8, EventKind::Deadline)));
        assert_eq!(q.pop(), Some((8, EventKind::Arrive(1))));
    }

    #[test]
    fn barrier_ties_remove_every_at_deadline_arrival() {
        // Three parties arrive exactly at the deadline, one before it; the
        // deadline event outranks all three ties, so all three are removed
        // and reported in ascending id order (ids pushed out of order).
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 10, 40, &[(3, 40), (0, 5), (2, 40), (1, 40)]);
        assert_eq!(out.removed, vec![1, 2, 3]);
        assert_eq!(out.completed_at_ms, 50);
    }

    #[test]
    fn barrier_survivor_tie_with_other_survivors_keeps_latest_arrival_time() {
        // Two survivors tie just *below* the deadline: both survive, and
        // the barrier completes at their (shared) arrival time, not at the
        // deadline.
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 0, 50, &[(0, 49), (1, 49)]);
        assert!(out.removed.is_empty());
        assert_eq!(out.completed_at_ms, 49);
    }

    #[test]
    fn barrier_all_on_time() {
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 100, 50, &[(0, 0), (1, 5), (2, 0)]);
        assert_eq!(out.removed, Vec::<usize>::new());
        assert_eq!(out.completed_at_ms, 105);
    }

    #[test]
    fn barrier_removes_over_budget_party() {
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 0, 50, &[(0, 0), (1, 60), (2, 10)]);
        assert_eq!(out.removed, vec![1]);
        assert_eq!(out.completed_at_ms, 50);
    }

    #[test]
    fn barrier_removes_exactly_at_deadline() {
        // delay == budget: the deadline event outranks the tied arrival
        // (`now >= deadline` removes).
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 0, 50, &[(0, 0), (1, 50)]);
        assert_eq!(out.removed, vec![1]);
        assert_eq!(out.completed_at_ms, 50);
    }

    #[test]
    fn barrier_with_no_delays_completes_at_now() {
        let mut q = EventQueue::new();
        let out = resolve_barrier(&mut q, 42, 50, &[(0, 0), (1, 0)]);
        assert_eq!(out.completed_at_ms, 42);
        assert!(out.removed.is_empty());
    }
}
