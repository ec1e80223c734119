//! The one-port bus timeline kernel: the single `bus_free`/`proc_free`
//! recurrence behind every simulated schedule in the workspace.
//!
//! On a one-port bus a send of `v` units ends at `bus_free + v·z`, and its
//! receiver computes from `max(send_end, proc_free)` for `v·w_i` (Eqs. 1–3,
//! Thm 2.1). [`BusClock::push_load`] applies that rule to one load under a
//! system model; a single load, `R` equal installments and a `k`-load
//! pipeline are all sequences of `push_load` calls.
//!
//! The clock is generic over the time type `T`: `f64` for the fast paths
//! and `dls_num::Rational` for the exact certificate
//! ([`crate::multiload::pipeline_schedule_exact`]), so both precisions run
//! the same code. Callers observe the scheduled segments through a
//! [`Sink`]; `()` records nothing and compiles away.
//!
//! This module is covered by the workspace no-panic lint gate: it runs on
//! every multi-load re-quote and every simulated session.

use crate::model::SystemModel;
use std::ops::{Add, Mul};

/// Observer of the segments a [`BusClock`] schedules. Both methods default
/// to doing nothing. Zero-volume steps are reported too (as empty
/// segments), so a sink that draws timelines filters on `volume`.
pub trait Sink<T> {
    /// Processor `i`'s `volume` units occupied the bus over `[start, end]`.
    fn send(&mut self, _i: usize, _volume: &T, _start: &T, _end: &T) {}
    /// Processor `i` computed `volume` units over `[start, end]`.
    fn compute(&mut self, _i: usize, _volume: &T, _start: &T, _end: &T) {}
}

/// The sink that records nothing.
impl<T> Sink<T> for () {}

/// Bus and processor availability on a one-port bus with compute rates
/// `w`, starting idle at time zero.
#[derive(Debug)]
pub struct BusClock<T> {
    w: Vec<T>,
    bus_free: T,
    proc_free: Vec<T>,
    bus_busy: T,
    makespan: T,
}

/// The later of two instants (the first on a tie).
fn later<T: PartialOrd + Clone>(a: &T, b: &T) -> T {
    if b > a {
        b.clone()
    } else {
        a.clone()
    }
}

impl<T> BusClock<T>
where
    T: Clone + Default + PartialOrd,
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T>,
{
    /// An idle bus over processors with compute rates `w`.
    pub fn new(w: Vec<T>) -> Self {
        let proc_free = vec![T::default(); w.len()];
        BusClock {
            w,
            bus_free: T::default(),
            proc_free,
            bus_busy: T::default(),
            makespan: T::default(),
        }
    }

    /// Total time the bus has spent transmitting.
    pub fn bus_busy(&self) -> &T {
        &self.bus_busy
    }

    /// Latest compute end so far (zero before any load).
    pub fn makespan(&self) -> &T {
        &self.makespan
    }

    /// Sends `volume` units to processor `i` as soon as the bus is free,
    /// then computes them once they have arrived and `i` is free. Returns
    /// the compute end.
    fn send_then_compute(&mut self, i: usize, volume: &T, z: &T, sink: &mut impl Sink<T>) -> T {
        let duration = volume * z;
        let end = &self.bus_free + &duration;
        sink.send(i, volume, &self.bus_free, &end);
        self.bus_busy = &self.bus_busy + &duration;
        self.bus_free = end.clone();
        self.compute(i, volume, &end, sink)
    }

    /// Computes `volume` units on processor `i` from local data, starting
    /// once `ready` has passed and `i` is free. Returns the compute end.
    fn compute(&mut self, i: usize, volume: &T, ready: &T, sink: &mut impl Sink<T>) -> T {
        let (Some(w_i), Some(free)) = (self.w.get(i), self.proc_free.get_mut(i)) else {
            return ready.clone();
        };
        let start = later(ready, free);
        let end = &start + &(volume * w_i);
        sink.compute(i, volume, &start, &end);
        *free = end.clone();
        end
    }

    /// Schedules one load of volume `size` and bus intensity `z`, split by
    /// the fractions `alpha`, behind everything already on the clock, and
    /// returns the instant its last fraction finishes computing.
    ///
    /// The originator follows `model`: the CP originator only sends (in
    /// index order); the NCP-FE originator `P_1` computes its own fraction
    /// from local data while it sends the rest; the NCP-NFE originator
    /// `P_m` drives the bus, so the load's sends wait for its previous
    /// computation and its own fraction computes after them.
    pub fn push_load(
        &mut self,
        model: SystemModel,
        size: &T,
        z: &T,
        alpha: &[T],
        sink: &mut impl Sink<T>,
    ) -> T {
        let m = self.w.len();
        let mut finish = T::default();
        match model {
            SystemModel::Cp => {
                for (i, a) in alpha.iter().enumerate().take(m) {
                    let end = self.send_then_compute(i, &(size * a), z, sink);
                    finish = later(&finish, &end);
                }
            }
            SystemModel::NcpFe => {
                if let Some(a) = alpha.first() {
                    let end = self.compute(0, &(size * a), &T::default(), sink);
                    finish = later(&finish, &end);
                }
                for (i, a) in alpha.iter().enumerate().take(m).skip(1) {
                    let end = self.send_then_compute(i, &(size * a), z, sink);
                    finish = later(&finish, &end);
                }
            }
            SystemModel::NcpNfe => {
                // The originator drives the bus itself, so it cannot send
                // while it still computes the previous load.
                let o = m.saturating_sub(1);
                if let Some(free) = self.proc_free.get(o) {
                    self.bus_free = later(&self.bus_free, free);
                }
                for (i, a) in alpha.iter().enumerate().take(o) {
                    let end = self.send_then_compute(i, &(size * a), z, sink);
                    finish = later(&finish, &end);
                }
                if let Some(a) = alpha.get(o) {
                    let sends_done = self.bus_free.clone();
                    let end = self.compute(o, &(size * a), &sends_done, sink);
                    finish = later(&finish, &end);
                }
            }
        }
        self.makespan = later(&self.makespan, &finish);
        finish
    }
}
