//! Multi-load installment scheduling on one shared bus — k loads per
//! session, per-load chain splices, pipelined distribution.
//!
//! The paper schedules exactly **one** divisible load per session. The
//! multi-load literature (Gallet/Robert/Vivien, *Scheduling multiple
//! divisible loads on a linear processor network*; Marchal/Rehn/Robert/
//! Vivien, *star platforms*) treats the regime a busy bus actually sees:
//! `k` loads contending for the same one-port bus, each with its own
//! volume and communication intensity. This module provides the two
//! pieces the auction layers build on:
//!
//! * [`InstallmentScheduler`] — `k` persistent [`ChainState`]s **sharing
//!   one rate vector**. Every load has its own bus intensity `z_ℓ` (time
//!   per unit of that load on the bus), so its telescoped link factors
//!   `k_j = w_j/(z_ℓ + w_{j+1})` differ per load even though the bids
//!   `w` are common. A bid update therefore costs one *suffix splice per
//!   load* ([`ChainState::update_bid`], O(m − i) with two divisions each)
//!   instead of `k` full from-scratch re-solves — the amortization the
//!   multi-load auction engine (`dls-mechanism`) builds on and the live
//!   splice gate in `tests/tests/scaling.rs` measures.
//! * [`pipeline_schedule`] — the pipelined timeline: loads are
//!   distributed over the bus in order, and load `j+1`'s distribution
//!   overlaps load `j`'s computation. Within each load the allocation is
//!   the closed-form equal-finish optimum (Theorem 2.1, per-load); the
//!   *pipelined* k-load makespan has no closed form — it is the fixpoint
//!   of a max-recurrence over bus and processor availability — so the
//!   timeline is evaluated by the O(k·m) [`BusClock`] recurrence, and
//!   [`pipeline_schedule_exact`] runs that same generic recurrence over
//!   exact rationals (`dls_num::Rational`) as the certification /
//!   adjudication fallback.
//!
//! ## Timeline model
//!
//! All `k` loads are resident at the source (the control processor for
//! CP, the originator for the NCP models) at time 0; the bus is one-port
//! and serves loads in index order. Per model:
//!
//! * **CP** — the computeless control processor sends every fraction;
//!   workers compute as data arrives and their previous installment ends.
//! * **NCP-FE** — the originator `P_1` has a front end: it computes its
//!   own fractions back-to-back while transmitting everyone else's.
//! * **NCP-NFE** — the originator `P_m` has **no** front end: within a
//!   load it computes only after finishing that load's sends, and —
//!   because it is also the party driving the bus — the *next* load's
//!   distribution cannot start until its current computation is done.
//!   Pipelining still overlaps worker computation with communication,
//!   but the originator serializes, so NFE gains are structurally
//!   smaller than FE/CP gains (disclosed by the harness).
//!
//! ## Bit-exactness contract
//!
//! [`InstallmentScheduler::update_bid`] inherits [`ChainState`]'s
//! contract: each per-load chain is spliced with the same expressions in
//! the same order as a from-scratch rebuild, so every per-load quote is
//! **bit-identical** to `k` independent [`ChainState::new`] solves on
//! the final rates. The `multiload_differential` integration suite pins
//! this across models, head/tail update slots, and a misreport grid.
//!
//! This module is covered by the workspace no-panic lint gate: every
//! public entry point validates its inputs and reports
//! [`MultiLoadError`] instead of panicking.

use crate::bus::BusClock;
use crate::chain::ChainState;
use crate::model::{BusParams, ParamError, SystemModel};
use crate::{exact, optimal};
use dls_num::Rational;
use std::fmt;

/// One divisible load in a multi-load session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Load volume in units of the normalized single load (`> 0`). All
    /// per-load times scale linearly in the volume.
    pub size: f64,
    /// Bus intensity of this load: time to transmit one unit over the
    /// bus (`≥ 0`). Different load types (compute-bound vs data-bound)
    /// differ exactly here.
    pub z: f64,
}

impl LoadSpec {
    /// A unit-volume load with bus intensity `z`.
    pub fn unit(z: f64) -> Self {
        LoadSpec { size: 1.0, z }
    }

    /// A load of volume `size` with bus intensity `z`.
    pub fn new(size: f64, z: f64) -> Self {
        LoadSpec { size, z }
    }
}

/// Rejected multi-load input.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiLoadError {
    /// The shared bid vector was not a valid market.
    Params(ParamError),
    /// A session must carry at least one load.
    NoLoads,
    /// A load with a non-finite/non-positive volume or invalid intensity.
    InvalidLoad {
        /// Offending load (0-based).
        load: usize,
        /// The offending volume.
        size: f64,
        /// The offending bus intensity.
        z: f64,
    },
    /// A processor index outside `0..m`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of processors in the market.
        m: usize,
    },
    /// A load index outside `0..k`.
    LoadOutOfRange {
        /// The offending load index.
        load: usize,
        /// Number of loads in the session.
        k: usize,
    },
    /// A bid that is not finite and positive.
    InvalidBid {
        /// Offending processor (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for MultiLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiLoadError::Params(e) => write!(f, "{e}"),
            MultiLoadError::NoLoads => write!(f, "a multi-load session needs at least one load"),
            MultiLoadError::InvalidLoad { load, size, z } => write!(
                f,
                "load {load} (size {size}, z {z}) must have finite size > 0 and finite z >= 0"
            ),
            MultiLoadError::IndexOutOfRange { index, m } => {
                write!(f, "processor index {index} out of range for m = {m}")
            }
            MultiLoadError::LoadOutOfRange { load, k } => {
                write!(f, "load index {load} out of range for k = {k}")
            }
            MultiLoadError::InvalidBid { index, value } => {
                write!(f, "bid b[{index}] = {value} must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for MultiLoadError {}

impl From<ParamError> for MultiLoadError {
    fn from(e: ParamError) -> Self {
        MultiLoadError::Params(e)
    }
}

fn check_load(load: usize, spec: &LoadSpec) -> Result<(), MultiLoadError> {
    let ok = spec.size.is_finite() && spec.size > 0.0 && spec.z.is_finite() && spec.z >= 0.0;
    if ok {
        Ok(())
    } else {
        Err(MultiLoadError::InvalidLoad {
            load,
            size: spec.size,
            z: spec.z,
        })
    }
}

/// `k` persistent per-load chain states over one shared rate vector.
///
/// See the [module docs](self): a bid update splices each load's chain
/// suffix (one [`ChainState::update_bid`] per load) instead of
/// re-solving `k` markets, and every per-load query is answered from the
/// cached products, bit-identical to a from-scratch solve.
#[derive(Debug, Clone)]
pub struct InstallmentScheduler {
    model: SystemModel,
    loads: Vec<LoadSpec>,
    /// One chain per load, all over the same `w` vector (differing only
    /// in the per-load `z`). Invariant: `chains` is non-empty and every
    /// chain agrees on `w`.
    chains: Vec<ChainState>,
}

impl InstallmentScheduler {
    /// Builds the per-load chains over a shared bid vector — O(k·m), the
    /// only unavoidable allocations.
    pub fn new(
        model: SystemModel,
        bids: &[f64],
        loads: &[LoadSpec],
    ) -> Result<Self, MultiLoadError> {
        if loads.is_empty() {
            return Err(MultiLoadError::NoLoads);
        }
        let mut chains = Vec::with_capacity(loads.len());
        for (index, spec) in loads.iter().enumerate() {
            check_load(index, spec)?;
            let params = BusParams::new(spec.z, bids.to_vec())?;
            chains.push(ChainState::new(model, &params));
        }
        Ok(InstallmentScheduler {
            model,
            loads: loads.to_vec(),
            chains,
        })
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.model
    }

    /// Number of processors `m`.
    pub fn m(&self) -> usize {
        self.chains.first().map(ChainState::m).unwrap_or(0)
    }

    /// Number of loads `k`.
    pub fn k(&self) -> usize {
        self.loads.len()
    }

    /// The load specifications.
    pub fn loads(&self) -> &[LoadSpec] {
        &self.loads
    }

    /// The current shared bid vector.
    pub fn bids(&self) -> &[f64] {
        self.chains
            .first()
            .map(|c| c.params().w())
            .unwrap_or(&[])
    }

    fn check_bid(&self, index: usize, value: f64) -> Result<(), MultiLoadError> {
        let m = self.m();
        if index >= m {
            return Err(MultiLoadError::IndexOutOfRange { index, m });
        }
        if !value.is_finite() || value <= 0.0 {
            return Err(MultiLoadError::InvalidBid { index, value });
        }
        Ok(())
    }

    /// Replaces bid `i` across every load via the incremental chain
    /// splice — one O(m − i) [`ChainState::update_bid`] per load, `2k`
    /// divisions total. The hot path.
    pub fn update_bid(&mut self, i: usize, bid: f64) -> Result<(), MultiLoadError> {
        self.check_bid(i, bid)?;
        for chain in &mut self.chains {
            chain.update_bid(i, bid);
        }
        Ok(())
    }

    /// Replaces bid `i` across every load via `k` full from-scratch
    /// rebuilds of the cached chains (O(k·m), `k·m` divisions). Same
    /// observable behaviour as [`InstallmentScheduler::update_bid`],
    /// bit-for-bit; the reference path the differential suite and the
    /// benchmark pit the splice against.
    pub fn update_bid_rebuild(&mut self, i: usize, bid: f64) -> Result<(), MultiLoadError> {
        self.check_bid(i, bid)?;
        for chain in &mut self.chains {
            chain.update_bid_rebuild(i, bid);
        }
        Ok(())
    }

    /// The cached chain of one load (for read-only queries).
    pub fn chain(&self, load: usize) -> Result<&ChainState, MultiLoadError> {
        let k = self.k();
        self.chains
            .get(load)
            .ok_or(MultiLoadError::LoadOutOfRange { load, k })
    }

    /// Mutable access to one load's chain for payment-style queries
    /// ([`ChainState::makespan_without`] rebuilds its suffix sums lazily
    /// behind `&mut`). Mutating *bids* through this handle would break
    /// the shared-rate invariant — use
    /// [`InstallmentScheduler::update_bid`] for that.
    pub fn chain_mut(&mut self, load: usize) -> Result<&mut ChainState, MultiLoadError> {
        let k = self.k();
        self.chains
            .get_mut(load)
            .ok_or(MultiLoadError::LoadOutOfRange { load, k })
    }

    /// Writes load `load`'s optimal fractions `α(b)` into `out`
    /// (normalized; volume-independent). Bit-identical to
    /// [`crate::optimal::fractions`] on `(z_ℓ, w)`.
    pub fn fractions_into(&self, load: usize, out: &mut Vec<f64>) -> Result<(), MultiLoadError> {
        self.chain(load).map(|c| c.fractions_into(out))
    }

    /// Standalone optimal makespan of load `load` — the normalized
    /// single-load quote scaled by the load's volume. O(1) from the
    /// cached prefix sums.
    pub fn load_makespan(&self, load: usize) -> Result<f64, MultiLoadError> {
        let size = self
            .loads
            .get(load)
            .map(|s| s.size)
            .unwrap_or(f64::NAN);
        self.chain(load).map(|c| size * c.optimal_makespan())
    }

    /// Sum of the standalone per-load makespans: the makespan of running
    /// the loads strictly one after another with no overlap — the
    /// baseline [`pipeline_schedule`] is measured against.
    pub fn sequential_makespan(&self) -> f64 {
        self.loads
            .iter()
            .zip(&self.chains)
            .map(|(spec, chain)| spec.size * chain.optimal_makespan())
            .sum()
    }

    /// The pipelined timeline of all `k` loads under the current bids
    /// (see [`pipeline_schedule`]): load `j+1`'s distribution overlaps
    /// load `j`'s computation, subject to the one-port bus and the
    /// per-model originator constraints.
    pub fn schedule(&self) -> PipelineSchedule {
        let mut alpha = Vec::with_capacity(self.m());
        let mut clock = BusClock::new(self.bids().to_vec());
        let mut load_finish = Vec::with_capacity(self.k());
        for (spec, chain) in self.loads.iter().zip(&self.chains) {
            chain.fractions_into(&mut alpha);
            load_finish.push(clock.push_load(self.model, &spec.size, &spec.z, &alpha, &mut ()));
        }
        PipelineSchedule {
            load_finish,
            makespan: *clock.makespan(),
            sequential_makespan: self.sequential_makespan(),
            bus_busy: *clock.bus_busy(),
        }
    }
}

/// The realized pipelined timeline of a multi-load session.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSchedule {
    /// Per-load completion time (the instant the load's last fraction
    /// finishes computing).
    pub load_finish: Vec<f64>,
    /// Completion time of the whole session: `max(load_finish)`.
    pub makespan: f64,
    /// The no-overlap baseline: sum of the standalone per-load optimal
    /// makespans.
    pub sequential_makespan: f64,
    /// Total time the bus spends transmitting (for utilization
    /// accounting; computation it overlaps is the pipelining gain).
    pub bus_busy: f64,
}

impl PipelineSchedule {
    /// Pipelining speedup over the strictly sequential baseline
    /// (`≥ 1` up to rounding whenever every load is served).
    pub fn speedup(&self) -> f64 {
        if self.makespan > 0.0 {
            self.sequential_makespan / self.makespan
        } else {
            1.0
        }
    }
}

/// Pipelined timeline of `loads` on the shared bus under bid vector
/// `bids`, each load allocated by its closed-form equal-finish optimum.
/// Convenience over [`InstallmentScheduler::schedule`] for one-shot use.
pub fn pipeline_schedule(
    model: SystemModel,
    bids: &[f64],
    loads: &[LoadSpec],
) -> Result<PipelineSchedule, MultiLoadError> {
    InstallmentScheduler::new(model, bids, loads).map(|s| s.schedule())
}

/// Exact-rational pipelined timeline: re-derives every per-load
/// allocation with the exact solver ([`crate::exact::fractions`]) and runs
/// the same [`BusClock`] recurrence as [`pipeline_schedule`] over
/// [`Rational`] — zero rounding anywhere. This is the fallback /
/// certification path: the pipelined k-load makespan has no closed
/// form, so exactness claims (and disputes between processors about a
/// shared timeline) are settled here rather than in floating point.
///
/// Inputs convert from f64 losslessly; returns `(per-load finish,
/// makespan, sequential baseline)`.
pub fn pipeline_schedule_exact(
    model: SystemModel,
    bids: &[f64],
    loads: &[LoadSpec],
) -> Result<ExactPipeline, MultiLoadError> {
    if loads.is_empty() {
        return Err(MultiLoadError::NoLoads);
    }
    for (index, spec) in loads.iter().enumerate() {
        check_load(index, spec)?;
    }
    // Validate the shared bid vector once through the f64 twin; after
    // that, every input is finite and from_f64 is lossless.
    let _ = BusParams::new(0.0, bids.to_vec())?;
    let rat = |x: f64| Rational::from_f64(x).ok();
    let mut w: Vec<Rational> = Vec::with_capacity(bids.len());
    for (index, &x) in bids.iter().enumerate() {
        match rat(x) {
            Some(r) => w.push(r),
            None => {
                return Err(MultiLoadError::Params(ParamError::InvalidRate {
                    index,
                    value: x,
                }))
            }
        }
    }
    let mut clock = BusClock::new(w.clone());
    let mut load_finish = Vec::with_capacity(loads.len());
    let mut sequential = Rational::zero();
    for (index, spec) in loads.iter().enumerate() {
        let (s, z) = match (rat(spec.size), rat(spec.z)) {
            (Some(s), Some(z)) => (s, z),
            _ => {
                return Err(MultiLoadError::InvalidLoad {
                    load: index,
                    size: spec.size,
                    z: spec.z,
                })
            }
        };
        let params = exact::ExactParams::new(z.clone(), w.clone());
        let alpha = exact::fractions(model, &params);
        sequential = &sequential + &(&s * &exact::optimal_makespan(model, &params));
        load_finish.push(clock.push_load(model, &s, &z, &alpha, &mut ()));
    }
    Ok(ExactPipeline {
        load_finish,
        makespan: clock.makespan().clone(),
        sequential_makespan: sequential,
    })
}

/// Result of [`pipeline_schedule_exact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactPipeline {
    /// Per-load completion times.
    pub load_finish: Vec<Rational>,
    /// Session completion time.
    pub makespan: Rational,
    /// Sum of the standalone per-load optimal makespans.
    pub sequential_makespan: Rational,
}

/// Standalone optimal makespan of one load from scratch — the
/// k-independent-solves reference the scheduler's cached quotes are
/// differential-tested against (allocation-free given a scratch buffer).
pub fn independent_load_makespan(
    model: SystemModel,
    params: &BusParams,
    spec: &LoadSpec,
    scratch: &mut Vec<f64>,
) -> f64 {
    optimal::fractions_into(model, params, scratch);
    spec.size * crate::model::makespan(model, params, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ALL_MODELS;

    fn bids() -> Vec<f64> {
        vec![1.0, 2.5, 0.8, 3.2, 1.7]
    }

    fn loads() -> Vec<LoadSpec> {
        vec![
            LoadSpec::new(1.0, 0.25),
            LoadSpec::new(0.5, 0.125),
            LoadSpec::new(2.0, 0.5),
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn per_load_quotes_match_independent_chains_bitwise() {
        for model in ALL_MODELS {
            let sched = InstallmentScheduler::new(model, &bids(), &loads()).unwrap();
            for (l, spec) in loads().iter().enumerate() {
                let p = BusParams::new(spec.z, bids()).unwrap();
                let fresh = ChainState::new(model, &p);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sched.fractions_into(l, &mut a).unwrap();
                fresh.fractions_into(&mut b);
                assert_eq!(bits(&a), bits(&b), "{model} load {l}");
                assert_eq!(
                    sched.load_makespan(l).unwrap().to_bits(),
                    (spec.size * fresh.optimal_makespan()).to_bits(),
                    "{model} load {l}"
                );
            }
        }
    }

    #[test]
    fn splice_and_rebuild_agree_bitwise_across_updates() {
        for model in ALL_MODELS {
            let mut inc = InstallmentScheduler::new(model, &bids(), &loads()).unwrap();
            let mut full = InstallmentScheduler::new(model, &bids(), &loads()).unwrap();
            let updates = [(3usize, 0.9), (0, 2.2), (4, 1.1), (2, 6.5), (4, 0.3)];
            for &(i, b) in &updates {
                inc.update_bid(i, b).unwrap();
                full.update_bid_rebuild(i, b).unwrap();
                for l in 0..inc.k() {
                    assert_eq!(
                        inc.load_makespan(l).unwrap().to_bits(),
                        full.load_makespan(l).unwrap().to_bits(),
                        "{model} load {l} after update {i}"
                    );
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    inc.fractions_into(l, &mut a).unwrap();
                    full.fractions_into(l, &mut b).unwrap();
                    assert_eq!(bits(&a), bits(&b), "{model} load {l} after update {i}");
                }
            }
        }
    }

    #[test]
    fn single_load_pipeline_matches_standalone_makespan() {
        for model in ALL_MODELS {
            let one = [LoadSpec::unit(0.25)];
            let sched = InstallmentScheduler::new(model, &bids(), &one).unwrap();
            let timeline = sched.schedule();
            let standalone = sched.load_makespan(0).unwrap();
            assert!(
                (timeline.makespan - standalone).abs() < 1e-12,
                "{model}: {} vs {standalone}",
                timeline.makespan
            );
        }
    }

    #[test]
    fn pipeline_beats_sequential_and_never_reorders_loads() {
        for model in ALL_MODELS {
            let sched = InstallmentScheduler::new(model, &bids(), &loads()).unwrap();
            let t = sched.schedule();
            assert!(
                t.makespan <= t.sequential_makespan + 1e-12,
                "{model}: pipelined {} > sequential {}",
                t.makespan,
                t.sequential_makespan
            );
            // Loads are served in order: finishes are non-decreasing in
            // every model where the originator serializes, and the last
            // load always finishes last overall.
            assert_eq!(t.load_finish.len(), 3, "{model}");
            assert!(
                (t.makespan - t.load_finish.iter().cloned().fold(f64::MIN, f64::max)).abs()
                    < 1e-15,
                "{model}"
            );
            assert!(t.speedup() >= 1.0 - 1e-12, "{model}");
        }
    }

    #[test]
    fn exact_pipeline_certifies_f64_recurrence() {
        // Dyadic inputs convert exactly; the f64 recurrence must agree
        // with the zero-rounding rational replay to fp tolerance.
        let bids = vec![1.5, 2.25, 0.75, 3.0];
        let loads = vec![LoadSpec::new(1.0, 0.375), LoadSpec::new(0.5, 0.25)];
        for model in ALL_MODELS {
            let fp = pipeline_schedule(model, &bids, &loads).unwrap();
            let ex = pipeline_schedule_exact(model, &bids, &loads).unwrap();
            assert!(
                (fp.makespan - ex.makespan.to_f64()).abs() < 1e-12,
                "{model}: {} vs {}",
                fp.makespan,
                ex.makespan.to_f64()
            );
            assert!(
                (fp.sequential_makespan - ex.sequential_makespan.to_f64()).abs() < 1e-12,
                "{model}"
            );
            for (f, e) in fp.load_finish.iter().zip(&ex.load_finish) {
                assert!((f - e.to_f64()).abs() < 1e-12, "{model}");
            }
        }
    }

    #[test]
    fn nfe_originator_serializes_the_bus() {
        // On NCP-NFE the originator drives the bus without a front end,
        // so pipelining gains are smaller than on NCP-FE for the same
        // rates and loads.
        let many: Vec<LoadSpec> = (0..6).map(|_| LoadSpec::unit(0.4)).collect();
        let fe = pipeline_schedule(SystemModel::NcpFe, &bids(), &many).unwrap();
        let nfe = pipeline_schedule(SystemModel::NcpNfe, &bids(), &many).unwrap();
        assert!(
            fe.speedup() >= nfe.speedup(),
            "FE speedup {} < NFE speedup {}",
            fe.speedup(),
            nfe.speedup()
        );
    }

    #[test]
    fn typed_errors_cover_bad_inputs() {
        assert!(matches!(
            InstallmentScheduler::new(SystemModel::Cp, &bids(), &[]),
            Err(MultiLoadError::NoLoads)
        ));
        assert!(matches!(
            InstallmentScheduler::new(SystemModel::Cp, &bids(), &[LoadSpec::new(-1.0, 0.2)]),
            Err(MultiLoadError::InvalidLoad { load: 0, .. })
        ));
        assert!(matches!(
            InstallmentScheduler::new(SystemModel::Cp, &[], &[LoadSpec::unit(0.2)]),
            Err(MultiLoadError::Params(_))
        ));
        let mut s =
            InstallmentScheduler::new(SystemModel::Cp, &bids(), &[LoadSpec::unit(0.2)]).unwrap();
        assert!(matches!(
            s.update_bid(9, 1.0),
            Err(MultiLoadError::IndexOutOfRange { index: 9, m: 5 })
        ));
        assert!(matches!(
            s.update_bid(0, f64::NAN),
            Err(MultiLoadError::InvalidBid { index: 0, .. })
        ));
        assert!(matches!(
            s.load_makespan(7),
            Err(MultiLoadError::LoadOutOfRange { load: 7, k: 1 })
        ));
        // A failed update leaves the scheduler usable.
        assert!(s.update_bid(1, 3.0).is_ok());
        assert_eq!(s.bids().get(1).copied(), Some(3.0));
    }

    #[test]
    fn bus_busy_accounts_every_transfer() {
        // CP transmits everything: bus_busy = Σ_ℓ s_ℓ·z_ℓ (α sums to 1).
        let sched = InstallmentScheduler::new(SystemModel::Cp, &bids(), &loads()).unwrap();
        let t = sched.schedule();
        let expect: f64 = loads().iter().map(|l| l.size * l.z).sum();
        assert!((t.bus_busy - expect).abs() < 1e-12);
    }
}
