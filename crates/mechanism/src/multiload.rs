//! k-load auctions: one bid vector, `k` concurrent allocations,
//! cross-load payments and utilities.
//!
//! The single-load DLS-BL mechanism ([`crate::Market`]) auctions one
//! divisible load. In a multi-load session the same `m` processors serve
//! `k` loads (different volumes and bus intensities), and *one* report
//! `b_i` determines processor `i`'s allocation in **all** `k` markets at
//! once. Two consequences this module makes concrete:
//!
//! * **Amortization** — [`MultiLoadEngine`] keeps the `k` per-load chain
//!   states of [`InstallmentScheduler`] warm, so a bid revision costs one
//!   suffix splice per load and each load's O(m) leave-one-out payment
//!   vector ([`compute_payments_into`]) reuses the cached chain products.
//! * **Cross-load incentives** — a misreport shifts the processor's
//!   fraction in every load, so its session utility is the *sum* of the
//!   per-load utilities, `U_i = Σ_ℓ s_ℓ·(Q_i^ℓ − α_i^ℓ·w̃_i)`. Because
//!   each per-load mechanism is strategyproof for every fixed `b_{-i}`
//!   (Theorem 4.1) and the sum of functions maximized at `b_i = w_i` is
//!   maximized at `b_i = w_i`, truthful reporting still dominates; the
//!   `multiload_differential` suite pins this empirically on a misreport
//!   grid rather than taking the argument on faith.
//!
//! Payments are computed on the **normalized** (unit-volume) per-load
//! market and scaled by the load volume `s_ℓ` — payments in the DLS-BL
//! family are linear in load size, so `Payment { s·C, s·B }` is the
//! exact per-load payment and stays bit-comparable to
//! `compute_payments` on the same normalized inputs.
//!
//! This module is inside the workspace no-panic lint scope: all entry
//! points validate and return typed errors.

use crate::market::{
    compute_payments_into, AgentSpec, Market, MarketError, MechanismOutcome, Payment,
    PaymentScratch,
};
use dls_dlt::multiload::{InstallmentScheduler, LoadSpec, MultiLoadError, PipelineSchedule};
use dls_dlt::SystemModel;
use std::fmt;

/// Rejected multi-load market input.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiMarketError {
    /// The per-load scheduler rejected the loads or the bid vector.
    Load(MultiLoadError),
    /// A per-load market rejected the agents.
    Market(MarketError),
    /// An observed execution vector had the wrong length.
    LengthMismatch {
        /// Expected length (`m`).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// An observed execution rate that is not finite and positive.
    InvalidObserved {
        /// Offending processor (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for MultiMarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiMarketError::Load(e) => write!(f, "{e}"),
            MultiMarketError::Market(e) => write!(f, "{e}"),
            MultiMarketError::LengthMismatch { expected, got } => {
                write!(f, "expected a vector of length {expected}, got {got}")
            }
            MultiMarketError::InvalidObserved { index, value } => {
                write!(f, "observed rate w~[{index}] = {value} must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for MultiMarketError {}

impl From<MultiLoadError> for MultiMarketError {
    fn from(e: MultiLoadError) -> Self {
        MultiMarketError::Load(e)
    }
}

impl From<MarketError> for MultiMarketError {
    fn from(e: MarketError) -> Self {
        MultiMarketError::Market(e)
    }
}

/// Incremental k-load auction engine: warm per-load chains, splice-cost
/// bid revisions, allocation-free per-load payment queries.
///
/// The multi-load analogue of [`crate::AuctionEngine`]; the live splice
/// gate in `tests/tests/scaling.rs` drives exactly this type.
#[derive(Debug, Clone)]
pub struct MultiLoadEngine {
    sched: InstallmentScheduler,
    /// Per-load allocation buffers, refreshed lazily after bid changes.
    alloc: Vec<Vec<f64>>,
    alloc_dirty: bool,
    scratch: PaymentScratch,
    payments: Vec<Payment>,
}

impl MultiLoadEngine {
    /// Builds the engine over a shared bid vector and `k` load specs.
    pub fn new(
        model: SystemModel,
        bids: &[f64],
        loads: &[LoadSpec],
    ) -> Result<Self, MultiMarketError> {
        let sched = InstallmentScheduler::new(model, bids, loads)?;
        let alloc = vec![Vec::new(); sched.k()];
        Ok(MultiLoadEngine {
            sched,
            alloc,
            alloc_dirty: true,
            scratch: PaymentScratch::default(),
            payments: Vec::new(),
        })
    }

    /// Number of processors `m`.
    pub fn m(&self) -> usize {
        self.sched.m()
    }

    /// Number of loads `k`.
    pub fn k(&self) -> usize {
        self.sched.k()
    }

    /// The load specifications.
    pub fn loads(&self) -> &[LoadSpec] {
        self.sched.loads()
    }

    /// The current shared bid vector.
    pub fn bids(&self) -> &[f64] {
        self.sched.bids()
    }

    /// Revises bid `i` across all `k` loads via per-load suffix splices —
    /// the O(k·(m − i)) hot path.
    pub fn submit_bid(&mut self, i: usize, bid: f64) -> Result<(), MultiMarketError> {
        self.sched.update_bid(i, bid)?;
        self.alloc_dirty = true;
        Ok(())
    }

    fn refresh_alloc(&mut self) {
        if self.alloc_dirty {
            for (l, buf) in self.alloc.iter_mut().enumerate() {
                // Loads and alloc buffers are created together; the
                // index is always in range.
                let _ = self.sched.fractions_into(l, buf);
            }
            self.alloc_dirty = false;
        }
    }

    /// Standalone optimal makespan of load `load` under the current bids
    /// (volume-scaled) — the per-load quote, O(1) from cached products.
    pub fn load_makespan(&self, load: usize) -> Result<f64, MultiMarketError> {
        Ok(self.sched.load_makespan(load)?)
    }

    /// The session quote: the pipelined timeline of all `k` loads under
    /// the current bids.
    pub fn schedule(&self) -> PipelineSchedule {
        self.sched.schedule()
    }

    /// Allocation `α(b)` of load `load` (normalized fractions).
    pub fn fractions(&mut self, load: usize) -> Result<&[f64], MultiMarketError> {
        let k = self.k();
        self.refresh_alloc();
        self.alloc
            .get(load)
            .map(|v| v.as_slice())
            .ok_or(MultiMarketError::Load(MultiLoadError::LoadOutOfRange {
                load,
                k,
            }))
    }

    fn check_observed(&self, observed: &[f64]) -> Result<(), MultiMarketError> {
        let m = self.m();
        if observed.len() != m {
            return Err(MultiMarketError::LengthMismatch {
                expected: m,
                got: observed.len(),
            });
        }
        for (index, &value) in observed.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(MultiMarketError::InvalidObserved { index, value });
            }
        }
        Ok(())
    }

    /// Per-load DLS-BL payments for load `load` given the observed
    /// execution rates, scaled by the load volume. O(m) via the cached
    /// chain ([`compute_payments_into`]); `out` is overwritten.
    pub fn payments_into(
        &mut self,
        load: usize,
        observed: &[f64],
        out: &mut Vec<Payment>,
    ) -> Result<(), MultiMarketError> {
        self.check_observed(observed)?;
        self.refresh_alloc();
        let size = self
            .sched
            .loads()
            .get(load)
            .map(|s| s.size)
            .unwrap_or(f64::NAN);
        let k = self.k();
        let alloc = self
            .alloc
            .get(load)
            .ok_or(MultiMarketError::Load(MultiLoadError::LoadOutOfRange {
                load,
                k,
            }))?
            .clone();
        let chain = self.sched.chain_mut(load)?;
        compute_payments_into(chain, &alloc, observed, &mut self.scratch, &mut self.payments);
        out.clear();
        out.extend(self.payments.iter().map(|p| Payment {
            compensation: size * p.compensation,
            bonus: size * p.bonus,
        }));
        Ok(())
    }

    /// Cross-load session utilities: for every processor,
    /// `U_i = Σ_ℓ s_ℓ·(Q_i^ℓ − α_i^ℓ·w̃_i)` — payments minus execution
    /// cost, summed over all `k` loads the single report `b_i` touched.
    /// `out` is overwritten.
    pub fn utilities_into(
        &mut self,
        observed: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), MultiMarketError> {
        self.check_observed(observed)?;
        let m = self.m();
        out.clear();
        out.resize(m, 0.0);
        let mut payments = Vec::with_capacity(m);
        for l in 0..self.k() {
            self.payments_into(l, observed, &mut payments)?;
            self.refresh_alloc();
            let size = self.sched.loads().get(l).map(|s| s.size).unwrap_or(0.0);
            let alloc = match self.alloc.get(l) {
                Some(a) => a,
                None => continue,
            };
            for ((u, p), (&a, &w)) in out
                .iter_mut()
                .zip(&payments)
                .zip(alloc.iter().zip(observed))
            {
                *u += p.total() - size * a * w;
            }
        }
        Ok(())
    }
}

/// A one-shot k-load market: `k` per-load DLS-BL markets over the same
/// agent reports, with session-level (cross-load) accounting.
#[derive(Debug, Clone)]
pub struct MultiLoadMarket {
    model: SystemModel,
    loads: Vec<LoadSpec>,
    agents: Vec<AgentSpec>,
}

impl MultiLoadMarket {
    /// Validates and constructs the market: the shared agents must form a
    /// valid single-load market at every load's bus intensity.
    pub fn new(
        model: SystemModel,
        loads: &[LoadSpec],
        agents: Vec<AgentSpec>,
    ) -> Result<Self, MultiMarketError> {
        if loads.is_empty() {
            return Err(MultiMarketError::Load(MultiLoadError::NoLoads));
        }
        let bids: Vec<f64> = agents.iter().map(|a| a.bid).collect();
        // One scheduler build validates every (z_ℓ, b) pair and the load
        // specs; Market::new re-validates agents per load below.
        let _ = InstallmentScheduler::new(model, &bids, loads)?;
        for spec in loads {
            let _ = Market::new(model, spec.z, agents.clone())?;
        }
        Ok(MultiLoadMarket {
            model,
            loads: loads.to_vec(),
            agents,
        })
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.model
    }

    /// The load specifications.
    pub fn loads(&self) -> &[LoadSpec] {
        &self.loads
    }

    /// The agents.
    pub fn agents(&self) -> &[AgentSpec] {
        &self.agents
    }

    /// Runs all `k` per-load mechanisms and assembles the session
    /// outcome. Each per-load outcome is the *normalized* (unit-volume)
    /// [`Market::run`] result; session aggregates scale by volume.
    pub fn run(&self) -> Result<MultiLoadOutcome, MultiMarketError> {
        let mut per_load = Vec::with_capacity(self.loads.len());
        for spec in &self.loads {
            let market = Market::new(self.model, spec.z, self.agents.clone())?;
            per_load.push(market.run());
        }
        let bids: Vec<f64> = self.agents.iter().map(|a| a.bid).collect();
        let pipeline = dls_dlt::multiload::pipeline_schedule(self.model, &bids, &self.loads)?;
        Ok(MultiLoadOutcome {
            loads: self.loads.clone(),
            per_load,
            pipeline,
        })
    }
}

/// Result of a k-load session auction.
#[derive(Debug, Clone)]
pub struct MultiLoadOutcome {
    /// The load specifications (volumes scale the per-load outcomes).
    pub loads: Vec<LoadSpec>,
    /// Normalized per-load mechanism outcomes, in load order.
    pub per_load: Vec<MechanismOutcome>,
    /// The planned pipelined timeline under the reported bids.
    pub pipeline: PipelineSchedule,
}

impl MultiLoadOutcome {
    /// Number of loads `k`.
    pub fn k(&self) -> usize {
        self.loads.len()
    }

    /// Processor `i`'s session utility: volume-weighted sum of its
    /// per-load utilities, `U_i = Σ_ℓ s_ℓ·U_i^ℓ`. Returns `None` for an
    /// out-of-range processor.
    pub fn utility(&self, i: usize) -> Option<f64> {
        let m = self.per_load.first()?.alloc.len();
        if i >= m {
            return None;
        }
        Some(
            self.loads
                .iter()
                .zip(&self.per_load)
                .map(|(spec, out)| spec.size * out.utility(i))
                .sum(),
        )
    }

    /// Total user bill across all loads: `Σ_ℓ s_ℓ·Σ_i Q_i^ℓ`.
    pub fn user_bill(&self) -> f64 {
        self.loads
            .iter()
            .zip(&self.per_load)
            .map(|(spec, out)| spec.size * out.user_bill())
            .sum()
    }

    /// Session social cost: the pipelined makespan of the planned
    /// timeline (the quantity multi-load scheduling minimizes; see the
    /// dlt module docs for why it has no closed form).
    pub fn social_cost(&self) -> f64 {
        self.pipeline.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::compute_payments;
    use dls_dlt::{BusParams, ALL_MODELS};

    fn loads() -> Vec<LoadSpec> {
        vec![
            LoadSpec::new(1.0, 0.25),
            LoadSpec::new(0.5, 0.125),
            LoadSpec::new(2.0, 0.5),
        ]
    }

    fn rates() -> Vec<f64> {
        vec![1.0, 2.5, 0.8, 3.2]
    }

    #[test]
    fn engine_payments_match_reference_scaled_bitwise() {
        for model in ALL_MODELS {
            let bids = rates();
            let mut engine = MultiLoadEngine::new(model, &bids, &loads()).unwrap();
            engine.submit_bid(2, 1.9).unwrap();
            let bids_now: Vec<f64> = engine.bids().to_vec();
            let observed = bids_now.clone();
            let mut got = Vec::new();
            for (l, spec) in loads().iter().enumerate() {
                engine.payments_into(l, &observed, &mut got).unwrap();
                let params = BusParams::new(spec.z, bids_now.clone()).unwrap();
                let alloc = dls_dlt::optimal::fractions(model, &params);
                let reference = compute_payments(model, &params, &alloc, &observed);
                assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(
                        g.compensation.to_bits(),
                        (spec.size * r.compensation).to_bits(),
                        "{model} load {l}"
                    );
                    assert_eq!(
                        g.bonus.to_bits(),
                        (spec.size * r.bonus).to_bits(),
                        "{model} load {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn market_utility_is_volume_weighted_sum() {
        for model in ALL_MODELS {
            let agents: Vec<AgentSpec> = rates().iter().map(|&w| AgentSpec::truthful(w)).collect();
            let market = MultiLoadMarket::new(model, &loads(), agents).unwrap();
            let out = market.run().unwrap();
            for i in 0..rates().len() {
                let manual: f64 = loads()
                    .iter()
                    .zip(&out.per_load)
                    .map(|(s, o)| s.size * o.utility(i))
                    .sum();
                assert_eq!(out.utility(i).unwrap().to_bits(), manual.to_bits(), "{model}");
            }
            assert!(out.utility(99).is_none());
            assert!(out.user_bill() > 0.0, "{model}");
            assert!(out.social_cost() > 0.0, "{model}");
            assert!(
                out.social_cost() <= out.pipeline.sequential_makespan + 1e-12,
                "{model}"
            );
        }
    }

    #[test]
    fn truthful_dominates_misreports_across_all_loads() {
        // Coarse in-crate grid; the integration suite runs the dense one.
        let true_w = rates();
        for model in ALL_MODELS {
            for victim in [0usize, 2] {
                let truthful: Vec<AgentSpec> =
                    true_w.iter().map(|&w| AgentSpec::truthful(w)).collect();
                let honest = MultiLoadMarket::new(model, &loads(), truthful)
                    .unwrap()
                    .run()
                    .unwrap()
                    .utility(victim)
                    .unwrap();
                for factor in [0.7, 0.9, 1.1, 1.6] {
                    let mut agents: Vec<AgentSpec> =
                        true_w.iter().map(|&w| AgentSpec::truthful(w)).collect();
                    agents[victim] = AgentSpec::misreporting(true_w[victim], factor);
                    let lied = MultiLoadMarket::new(model, &loads(), agents)
                        .unwrap()
                        .run()
                        .unwrap()
                        .utility(victim)
                        .unwrap();
                    assert!(
                        honest >= lied - 1e-9,
                        "{model} victim {victim} factor {factor}: {honest} < {lied}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_utilities_match_market_for_truthful_agents() {
        for model in ALL_MODELS {
            let agents: Vec<AgentSpec> = rates().iter().map(|&w| AgentSpec::truthful(w)).collect();
            let market = MultiLoadMarket::new(model, &loads(), agents).unwrap();
            let out = market.run().unwrap();
            let mut engine = MultiLoadEngine::new(model, &rates(), &loads()).unwrap();
            let mut utils = Vec::new();
            engine.utilities_into(&rates(), &mut utils).unwrap();
            for (i, &u) in utils.iter().enumerate() {
                let reference = out.utility(i).unwrap();
                assert!(
                    (u - reference).abs() <= 1e-12 * reference.abs().max(1.0),
                    "{model} i={i}: {u} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn typed_errors_cover_bad_inputs() {
        let mut engine =
            MultiLoadEngine::new(dls_dlt::SystemModel::Cp, &rates(), &loads()).unwrap();
        assert!(matches!(
            engine.submit_bid(99, 1.0),
            Err(MultiMarketError::Load(MultiLoadError::IndexOutOfRange { .. }))
        ));
        let mut out = Vec::new();
        assert!(matches!(
            engine.payments_into(0, &[1.0], &mut out),
            Err(MultiMarketError::LengthMismatch { expected: 4, got: 1 })
        ));
        assert!(matches!(
            engine.payments_into(0, &[1.0, -2.0, 1.0, 1.0], &mut out),
            Err(MultiMarketError::InvalidObserved { index: 1, .. })
        ));
        assert!(matches!(
            engine.payments_into(9, &rates(), &mut out),
            Err(MultiMarketError::Load(MultiLoadError::LoadOutOfRange { .. }))
        ));
        assert!(MultiLoadMarket::new(dls_dlt::SystemModel::Cp, &[], vec![]).is_err());
    }
}
