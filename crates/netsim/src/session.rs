//! Executing a divisible-load schedule on the simulated bus.
//!
//! The originator holds the whole load and transmits each fraction to its
//! recipient as one bus transfer (one-port: transfers serialize), and each
//! recipient computes as soon as its data has arrived. The originator
//! itself follows the model: with a front end it computes from time 0 in
//! parallel with its sends (NCP-FE); without one it computes only after
//! its last send (NCP-NFE); the CP originator never computes. The timing
//! is one load on the shared [`BusClock`] recurrence.

use dls_dlt::bus::{BusClock, Sink};
use dls_dlt::{BusParams, SystemModel};
use serde::Serialize;

/// A closed time interval `[start, end]` on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Segment {
    /// Interval start.
    pub start: f64,
    /// Interval end (`>= start`).
    pub end: f64,
}

impl Segment {
    /// Interval length.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// `true` iff `self` and `other` overlap in more than a point.
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// What one processor did during the session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProcTimeline {
    /// Bus transfer delivering this processor's fraction (`None` for the
    /// originator, whose data never crosses the bus, and for zero-sized
    /// fractions).
    pub recv: Option<Segment>,
    /// Computation interval (`None` for the computeless CP originator or a
    /// zero fraction).
    pub compute: Option<Segment>,
}

/// The complete simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Timeline {
    /// Per-processor activity, indexed like the allocation vector. For the
    /// CP model, index 0..m are the workers (the control processor `P_0` is
    /// not part of the vector; its sends appear as the workers' `recv`
    /// segments).
    pub procs: Vec<ProcTimeline>,
    /// Bus occupancy: every transfer, in transmission order, tagged with
    /// the receiving processor's index.
    pub bus: Vec<(usize, Segment)>,
    /// Latest finish over all processors.
    pub makespan: f64,
}

impl Timeline {
    /// Per-processor finish times (end of compute, or of receive when a
    /// processor computes nothing; 0 if it does nothing at all).
    pub fn finish_times(&self) -> Vec<f64> {
        self.procs
            .iter()
            .map(|p| {
                p.compute
                    .map(|s| s.end)
                    .or(p.recv.map(|s| s.end))
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Checks the one-port invariant: no two bus transfers overlap.
    pub fn bus_is_one_port(&self) -> bool {
        for i in 0..self.bus.len() {
            for j in i + 1..self.bus.len() {
                if self.bus[i].1.overlaps(&self.bus[j].1) {
                    return false;
                }
            }
        }
        true
    }
}

/// A schedule to execute: model, *execution-rate* parameters (use observed
/// rates `w̃` to simulate slacking processors) and the allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    model: SystemModel,
    params: BusParams,
    alloc: Vec<f64>,
}

impl SessionSpec {
    /// Bundles a schedule for execution.
    ///
    /// # Panics
    /// Panics if the allocation length does not match the parameters or an
    /// allocation entry is negative/NaN.
    pub fn new(model: SystemModel, params: BusParams, alloc: Vec<f64>) -> Self {
        assert_eq!(alloc.len(), params.m(), "allocation length mismatch");
        assert!(
            alloc.iter().all(|a| a.is_finite() && *a >= 0.0),
            "allocation entries must be finite and non-negative"
        );
        SessionSpec {
            model,
            params,
            alloc,
        }
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.model
    }
}

/// Records the non-empty fractions' segments into a [`Timeline`].
struct Record {
    procs: Vec<ProcTimeline>,
    bus: Vec<(usize, Segment)>,
}

impl Sink<f64> for Record {
    fn send(&mut self, i: usize, volume: &f64, &start: &f64, &end: &f64) {
        if *volume > 0.0 {
            let seg = Segment { start, end };
            self.bus.push((i, seg));
            self.procs[i].recv = Some(seg);
        }
    }

    fn compute(&mut self, i: usize, volume: &f64, &start: &f64, &end: &f64) {
        if *volume > 0.0 {
            self.procs[i].compute = Some(Segment { start, end });
        }
    }
}

/// Runs the schedule on the bus and returns the timeline. Recipients are
/// served in index order (Theorem 2.2: order does not matter for the
/// optimum; this is the paper's canonical order).
pub fn simulate(spec: &SessionSpec) -> Timeline {
    let idle = ProcTimeline {
        recv: None,
        compute: None,
    };
    let mut record = Record {
        procs: vec![idle; spec.params.m()],
        bus: Vec::new(),
    };
    let mut clock = BusClock::new(spec.params.w().to_vec());
    let z = spec.params.z();
    let makespan = clock.push_load(spec.model, &1.0, &z, &spec.alloc, &mut record);
    Timeline {
        procs: record.procs,
        bus: record.bus,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_dlt::{finish_times, optimal, ALL_MODELS};

    fn params() -> BusParams {
        BusParams::new(0.2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn simulator_matches_closed_form_at_optimum() {
        for model in ALL_MODELS {
            let p = params();
            let alloc = optimal::fractions(model, &p);
            let tl = simulate(&SessionSpec::new(model, p.clone(), alloc.clone()));
            let closed = finish_times(model, &p, &alloc);
            let simulated = tl.finish_times();
            for (s, c) in simulated.iter().zip(&closed) {
                assert!((s - c).abs() < 1e-12, "{model}: {simulated:?} vs {closed:?}");
            }
        }
    }

    #[test]
    fn simulator_matches_closed_form_off_optimum() {
        let allocs = [
            vec![0.25, 0.25, 0.25, 0.25],
            vec![0.7, 0.1, 0.1, 0.1],
            vec![0.0, 0.5, 0.5, 0.0],
        ];
        for model in ALL_MODELS {
            for alloc in &allocs {
                let p = params();
                let tl = simulate(&SessionSpec::new(model, p.clone(), alloc.clone()));
                let closed = finish_times(model, &p, alloc);
                for (i, (s, c)) in tl.finish_times().iter().zip(&closed).enumerate() {
                    // Zero fractions finish "at 0" in the simulator (they do
                    // nothing) but the closed form still charges the comm
                    // prefix; skip them.
                    if alloc[i] == 0.0 {
                        continue;
                    }
                    assert!((s - c).abs() < 1e-12, "{model} {alloc:?} P{i}");
                }
            }
        }
    }

    #[test]
    fn one_port_invariant() {
        for model in ALL_MODELS {
            let p = params();
            let alloc = optimal::fractions(model, &p);
            let tl = simulate(&SessionSpec::new(model, p, alloc));
            assert!(tl.bus_is_one_port(), "{model}");
        }
    }

    #[test]
    fn compute_follows_receive() {
        for model in ALL_MODELS {
            let p = params();
            let alloc = optimal::fractions(model, &p);
            let tl = simulate(&SessionSpec::new(model, p, alloc));
            for (i, proc_) in tl.procs.iter().enumerate() {
                if let (Some(r), Some(c)) = (proc_.recv, proc_.compute) {
                    assert!(
                        c.start >= r.end - 1e-15,
                        "{model} P{i}: compute starts before data arrives"
                    );
                }
            }
        }
    }

    #[test]
    fn cp_everyone_receives() {
        let p = params();
        let alloc = optimal::fractions(SystemModel::Cp, &p);
        let tl = simulate(&SessionSpec::new(SystemModel::Cp, p, alloc));
        assert!(tl.procs.iter().all(|pr| pr.recv.is_some()));
        assert_eq!(tl.bus.len(), 4);
    }

    #[test]
    fn ncp_fe_originator_computes_from_zero() {
        let p = params();
        let alloc = optimal::fractions(SystemModel::NcpFe, &p);
        let tl = simulate(&SessionSpec::new(SystemModel::NcpFe, p, alloc));
        let orig = &tl.procs[0];
        assert!(orig.recv.is_none());
        assert_eq!(orig.compute.unwrap().start, 0.0);
        assert_eq!(tl.bus.len(), 3);
    }

    #[test]
    fn ncp_nfe_originator_computes_after_sends() {
        let p = params();
        let alloc = optimal::fractions(SystemModel::NcpNfe, &p);
        let tl = simulate(&SessionSpec::new(SystemModel::NcpNfe, p, alloc));
        let orig = &tl.procs[3];
        assert!(orig.recv.is_none());
        let last_bus_end = tl
            .bus
            .iter()
            .map(|(_, s)| s.end)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((orig.compute.unwrap().start - last_bus_end).abs() < 1e-15);
    }

    #[test]
    fn slacking_execution_rates_extend_compute() {
        // Simulate at observed rates: P2 runs 3x slower than the allocation
        // assumed.
        let p = params();
        let alloc = optimal::fractions(SystemModel::NcpFe, &p);
        let slow = p.with_rate(1, p.w()[1] * 3.0);
        let tl_fast = simulate(&SessionSpec::new(SystemModel::NcpFe, p, alloc.clone()));
        let tl_slow = simulate(&SessionSpec::new(SystemModel::NcpFe, slow, alloc));
        assert!(tl_slow.makespan > tl_fast.makespan);
        assert!(
            tl_slow.procs[1].compute.unwrap().duration()
                > tl_fast.procs[1].compute.unwrap().duration() * 2.9
        );
    }

    #[test]
    fn zero_fraction_processor_does_nothing() {
        let p = params();
        let tl = simulate(&SessionSpec::new(
            SystemModel::Cp,
            p,
            vec![0.5, 0.0, 0.3, 0.2],
        ));
        assert!(tl.procs[1].recv.is_none());
        assert!(tl.procs[1].compute.is_none());
        assert_eq!(tl.bus.len(), 3);
    }

    #[test]
    fn single_processor_sessions() {
        let p = BusParams::new(0.5, vec![2.0]).unwrap();
        // NCP-FE: the lone originator just computes.
        let tl = simulate(&SessionSpec::new(SystemModel::NcpFe, p.clone(), vec![1.0]));
        assert_eq!(tl.makespan, 2.0);
        assert!(tl.bus.is_empty());
        // CP: the lone worker receives then computes.
        let tl = simulate(&SessionSpec::new(SystemModel::Cp, p, vec![1.0]));
        assert_eq!(tl.makespan, 2.5);
        assert_eq!(tl.bus.len(), 1);
    }

    #[test]
    fn segment_helpers() {
        let a = Segment { start: 0.0, end: 1.0 };
        let b = Segment { start: 0.5, end: 2.0 };
        let c = Segment { start: 1.0, end: 2.0 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching endpoints do not overlap");
        assert_eq!(b.duration(), 1.5);
    }
}
