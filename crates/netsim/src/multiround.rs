//! Multi-installment (multi-round) scheduling baseline — the comparison
//! point cited by the paper as \[20\] (Yang, van der Raadt & Casanova,
//! *Multiround algorithms for scheduling divisible loads*).
//!
//! Single-round bus scheduling leaves late processors idle while early
//! transfers complete. Splitting the load into `R` installments pipelines
//! communication behind computation: every processor starts after only
//! `1/R`-th of its data has arrived. This module implements the uniform
//! multi-installment heuristic (each round distributes `1/R` of the load
//! with the single-round optimal fractions) and measures the makespan on
//! the one-port bus — the experiment behind E12.

use crate::session::Segment;
use dls_dlt::bus::{BusClock, Sink};
use dls_dlt::{optimal, BusParams, SystemModel};
use std::fmt;

/// Invalid multi-round request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiroundError {
    /// `rounds == 0` — no installments means no schedule to execute.
    ZeroRounds,
    /// A fault names a processor outside `0..m`.
    UnknownProcessor {
        /// The offending index.
        processor: usize,
        /// Number of processors on the bus.
        m: usize,
    },
    /// Every processor departed before round `round`; the remaining load
    /// has no one left to run on.
    AllDeparted {
        /// First round with an empty participant set (0-based).
        round: usize,
    },
}

impl fmt::Display for MultiroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiroundError::ZeroRounds => write!(f, "at least one round is required"),
            MultiroundError::UnknownProcessor { processor, m } => {
                write!(f, "fault names processor {processor}, but the bus has m = {m}")
            }
            MultiroundError::AllDeparted { round } => {
                write!(f, "all processors departed before round {round}")
            }
        }
    }
}

impl std::error::Error for MultiroundError {}

/// A liveness fault for the multi-round executor: `processor` departs at
/// the start of round `round` (0-based) and takes no further
/// installments. Mirrors the session runtime's crash/omission defaults
/// (`dls-protocol`'s `FaultPlan`), projected onto the installment
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundFault {
    /// Departing processor (0-based).
    pub processor: usize,
    /// First round it misses (0-based); a value `>= rounds` never fires.
    pub round: usize,
}

/// Result of a multi-round execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiroundResult {
    /// Number of installments used.
    pub rounds: usize,
    /// Total execution time.
    pub makespan: f64,
    /// Per-processor compute segments, one per round while the processor
    /// participates, in time order.
    pub compute: Vec<Vec<Segment>>,
    /// Bus segments `(recipient, round, segment)`.
    pub bus: Vec<(usize, usize, Segment)>,
    /// Participant set of each round, ascending. Without faults every
    /// round records the full roster; a round after a departure records
    /// the reduced survivor set it actually re-solved over.
    pub participants: Vec<Vec<usize>>,
}

impl MultiroundResult {
    /// Fraction of the makespan the bus spent transmitting.
    pub fn bus_utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.bus.iter().map(|(_, _, s)| s.duration()).sum();
        busy / self.makespan
    }
}

/// Executes `rounds` uniform installments of the CP-model schedule on a
/// one-port bus and returns the realized timing.
///
/// Round `r`'s transfers start as soon as the bus is free (the bus never
/// waits for computation); each processor executes its installments in
/// arrival order.
///
/// # Errors
/// Returns [`MultiroundError::ZeroRounds`] if `rounds == 0` (previously a
/// panic; zero installments is a caller input error, not an invariant
/// breach, so it is reported as a typed error).
pub fn simulate_multiround(
    params: &BusParams,
    rounds: usize,
) -> Result<MultiroundResult, MultiroundError> {
    simulate_multiround_faulty(params, rounds, &[])
}

/// [`simulate_multiround`] with per-round liveness faults. A departed
/// processor takes no further installments; each subsequent round's `1/R`
/// of the load is re-split with the single-round optimal fractions over
/// the **survivor** sub-bus, and the round's reduced participant set is
/// recorded in [`MultiroundResult::participants`]. With `faults` empty
/// the result is bit-identical to the fault-free executor.
///
/// # Errors
/// [`MultiroundError::ZeroRounds`] if `rounds == 0`;
/// [`MultiroundError::UnknownProcessor`] if a fault names a processor
/// outside the bus; [`MultiroundError::AllDeparted`] if some round is
/// left with no participants.
pub fn simulate_multiround_faulty(
    params: &BusParams,
    rounds: usize,
    faults: &[RoundFault],
) -> Result<MultiroundResult, MultiroundError> {
    if rounds == 0 {
        return Err(MultiroundError::ZeroRounds);
    }
    let m = params.m();
    let z = params.z();
    let w = params.w();
    for f in faults {
        if f.processor >= m {
            return Err(MultiroundError::UnknownProcessor {
                processor: f.processor,
                m,
            });
        }
    }

    let mut clock = BusClock::new(w.to_vec());
    let mut record = Installments {
        round: 0,
        compute: vec![Vec::with_capacity(rounds); m],
        bus: Vec::with_capacity(rounds * m),
    };
    let mut participants: Vec<Vec<usize>> = Vec::with_capacity(rounds);
    // Survivor fractions, re-solved only when the participant set shrinks.
    let mut cached: Option<(Vec<usize>, Vec<f64>)> = None;
    let mut chunks = vec![0.0; m];

    for r in 0..rounds {
        let alive: Vec<usize> = (0..m)
            .filter(|&i| !faults.iter().any(|f| f.processor == i && f.round <= r))
            .collect();
        if alive.is_empty() {
            return Err(MultiroundError::AllDeparted { round: r });
        }
        let stale = cached.as_ref().map_or(true, |(set, _)| *set != alive);
        if stale {
            let sub_w: Vec<f64> = alive.iter().map(|&i| w[i]).collect();
            let sub = BusParams::new(z, sub_w)
                .map_err(|_| MultiroundError::AllDeparted { round: r })?;
            let alpha = optimal::fractions(SystemModel::Cp, &sub);
            cached = Some((alive.clone(), alpha));
        }
        let alpha = cached.as_ref().map_or(&[] as &[f64], |(_, a)| a.as_slice());
        // One CP load of the round's installments; departed processors
        // get zero volume, which the record skips.
        chunks.fill(0.0);
        for (pos, &i) in alive.iter().enumerate() {
            chunks[i] = alpha.get(pos).copied().unwrap_or(0.0) / rounds as f64;
        }
        record.round = r;
        clock.push_load(SystemModel::Cp, &1.0, &z, &chunks, &mut record);
        participants.push(alive);
    }

    Ok(MultiroundResult {
        rounds,
        makespan: *clock.makespan(),
        compute: record.compute,
        bus: record.bus,
        participants,
    })
}

/// Records each round's non-empty installments.
struct Installments {
    round: usize,
    compute: Vec<Vec<Segment>>,
    bus: Vec<(usize, usize, Segment)>,
}

impl Sink<f64> for Installments {
    fn send(&mut self, i: usize, chunk: &f64, &start: &f64, &end: &f64) {
        if *chunk > 0.0 {
            self.bus.push((i, self.round, Segment { start, end }));
        }
    }

    fn compute(&mut self, i: usize, chunk: &f64, &start: &f64, &end: &f64) {
        if *chunk > 0.0 {
            self.compute[i].push(Segment { start, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BusParams {
        BusParams::new(0.3, vec![1.0, 1.5, 2.0, 2.5, 3.0]).unwrap()
    }

    #[test]
    fn single_round_matches_closed_form() {
        let p = params();
        let got = simulate_multiround(&p, 1).unwrap().makespan;
        let want = optimal::optimal_makespan(SystemModel::Cp, &p);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn more_rounds_never_hurt_without_overheads() {
        // With zero per-round overhead, pipelining is monotone beneficial.
        let p = params();
        let mut last = f64::INFINITY;
        for r in 1..=8 {
            let t = simulate_multiround(&p, r).unwrap().makespan;
            assert!(t <= last + 1e-12, "round {r}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn multiround_beats_single_round_strictly() {
        let p = params();
        let t1 = simulate_multiround(&p, 1).unwrap().makespan;
        let t4 = simulate_multiround(&p, 4).unwrap().makespan;
        assert!(t4 < t1, "pipelining should strictly help: {t4} vs {t1}");
    }

    #[test]
    fn one_port_respected() {
        let res = simulate_multiround(&params(), 3).unwrap();
        for k in 1..res.bus.len() {
            assert!(res.bus[k].2.start >= res.bus[k - 1].2.end - 1e-15);
        }
    }

    #[test]
    fn installments_execute_in_order_per_processor() {
        let res = simulate_multiround(&params(), 4).unwrap();
        for segs in &res.compute {
            assert_eq!(segs.len(), 4);
            for k in 1..segs.len() {
                assert!(segs[k].start >= segs[k - 1].end - 1e-15);
            }
        }
    }

    #[test]
    fn bus_utilization_bounded() {
        let res = simulate_multiround(&params(), 2).unwrap();
        let u = res.bus_utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn zero_rounds_is_a_typed_error() {
        assert_eq!(
            simulate_multiround(&params(), 0),
            Err(MultiroundError::ZeroRounds)
        );
        assert_eq!(
            MultiroundError::ZeroRounds.to_string(),
            "at least one round is required"
        );
    }

    #[test]
    fn faultless_run_records_full_roster_each_round() {
        let res = simulate_multiround(&params(), 3).unwrap();
        assert_eq!(res.participants.len(), 3);
        for round in &res.participants {
            assert_eq!(round, &vec![0, 1, 2, 3, 4]);
        }
        // The wrapper is literally the faulty executor with no faults.
        let faulty = simulate_multiround_faulty(&params(), 3, &[]).unwrap();
        assert_eq!(res, faulty);
    }

    #[test]
    fn departed_processor_takes_no_further_installments() {
        let p = params();
        let fault = RoundFault {
            processor: 2,
            round: 2,
        };
        let res = simulate_multiround_faulty(&p, 4, &[fault]).unwrap();
        assert_eq!(res.compute[2].len(), 2, "two rounds before departure");
        for (k, round) in res.participants.iter().enumerate() {
            if k < 2 {
                assert_eq!(round, &vec![0, 1, 2, 3, 4], "round {k}");
            } else {
                assert_eq!(round, &vec![0, 1, 3, 4], "round {k}");
            }
        }
        assert!(res
            .bus
            .iter()
            .all(|&(i, r, _)| i != 2 || r < 2), "no transfers to the departed");
        // Survivors keep executing in every round.
        for i in [0usize, 1, 3, 4] {
            assert_eq!(res.compute[i].len(), 4, "processor {i}");
        }
    }

    #[test]
    fn survivor_rounds_resolve_over_the_reduced_bus() {
        let p = params();
        let fault = RoundFault {
            processor: 0,
            round: 1,
        };
        let res = simulate_multiround_faulty(&p, 3, &[fault]).unwrap();
        // Rounds 1.. split 1/R of the load with the optimal fractions of
        // the 4-survivor sub-bus, visible in the bus transfer durations.
        let sub = BusParams::new(0.3, vec![1.5, 2.0, 2.5, 3.0]).unwrap();
        let sub_alpha = optimal::fractions(SystemModel::Cp, &sub);
        for &(i, r, ref seg) in &res.bus {
            if r == 0 {
                continue;
            }
            let pos = [1usize, 2, 3, 4]
                .iter()
                .position(|&s| s == i)
                .expect("only survivors transfer");
            let want = sub_alpha[pos] / 3.0 * 0.3;
            assert!(
                (seg.duration() - want).abs() <= 1e-12,
                "round {r} processor {i}: {} vs {want}",
                seg.duration()
            );
        }
    }

    #[test]
    fn fault_validation() {
        let p = params();
        assert_eq!(
            simulate_multiround_faulty(&p, 2, &[RoundFault { processor: 9, round: 0 }]),
            Err(MultiroundError::UnknownProcessor { processor: 9, m: 5 })
        );
        let everyone: Vec<RoundFault> = (0..5)
            .map(|processor| RoundFault { processor, round: 1 })
            .collect();
        assert_eq!(
            simulate_multiround_faulty(&p, 3, &everyone),
            Err(MultiroundError::AllDeparted { round: 1 })
        );
        // A fault scheduled past the last round never fires.
        let late = [RoundFault { processor: 0, round: 7 }];
        let res = simulate_multiround_faulty(&p, 3, &late).unwrap();
        assert_eq!(res, simulate_multiround(&p, 3).unwrap());
    }

    #[test]
    fn diminishing_returns() {
        // The marginal gain of extra rounds shrinks (no overhead model, so
        // gains monotonically approach the comm/compute overlap bound).
        let p = params();
        let t1 = simulate_multiround(&p, 1).unwrap().makespan;
        let t2 = simulate_multiround(&p, 2).unwrap().makespan;
        let t8 = simulate_multiround(&p, 8).unwrap().makespan;
        let t16 = simulate_multiround(&p, 16).unwrap().makespan;
        assert!(t1 - t2 > t8 - t16, "early rounds matter most");
    }
}
