//! Incremental auction engine: one market, cached chain state, typed
//! errors, zero steady-state allocations.
//!
//! [`Market`](crate::Market) is a one-shot value type: every `run()`
//! rebuilds the chain products and allocates fresh vectors. An auctioneer
//! re-quoting a market after each arriving bid does strictly less work than
//! that — between consecutive bids only one rate changes. [`AuctionEngine`]
//! keeps a [`ChainState`] (the cached link factors, unnormalized fractions
//! and prefix/suffix sums) plus scratch arenas for the allocation, finish
//! times and payments alive across solves:
//!
//! * [`AuctionEngine::submit_bid`] — O(m − i) incremental splice of the
//!   cached products (two divisions), the hot path;
//! * [`AuctionEngine::submit_bid_rebuild`] — same observable behaviour via a
//!   full from-scratch rebuild; the reference path the incremental one is
//!   differential-tested and benchmarked against;
//! * [`AuctionEngine::evaluate`] / [`AuctionEngine::payments`] — read the
//!   current quote (fractions, makespan, per-agent payments) out of the
//!   retained buffers, allocation-free after warm-up.
//!
//! Incremental and rebuild paths agree **bit-exactly** (IEEE-754
//! determinism; see `dls_dlt::chain`), so callers may mix them freely.
//!
//! This module is covered by the workspace no-panic lint gate: every public
//! entry point validates its inputs and reports [`EngineError`] instead of
//! panicking.

use crate::market::{compute_payments_into, Payment, PaymentScratch};
use dls_dlt::{finish_times_into, BusParams, ChainState, ParamError, SystemModel};
use std::fmt;

/// Rejected [`AuctionEngine`] input.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The initial bid vector was not a valid market.
    Params(ParamError),
    /// A processor index outside `0..m`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of processors in the market.
        m: usize,
    },
    /// A bid that is not finite and positive.
    InvalidBid {
        /// Offending processor (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An observed execution rate that is not finite and positive.
    InvalidObserved {
        /// Offending processor (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A vector whose length disagrees with the market size.
    LengthMismatch {
        /// Expected length (`m`).
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Params(e) => write!(f, "{e}"),
            EngineError::IndexOutOfRange { index, m } => {
                write!(f, "processor index {index} out of range for m = {m}")
            }
            EngineError::InvalidBid { index, value } => {
                write!(f, "bid b[{index}] = {value} must be finite and > 0")
            }
            EngineError::InvalidObserved { index, value } => {
                write!(f, "observed rate w̃[{index}] = {value} must be finite and > 0")
            }
            EngineError::LengthMismatch { expected, got } => {
                write!(f, "expected a vector of length {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParamError> for EngineError {
    fn from(e: ParamError) -> Self {
        EngineError::Params(e)
    }
}

/// The engine's current quote: optimal makespan and load fractions under
/// the present bid vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation<'a> {
    /// Optimal total execution time `T(α(b), b)`.
    pub makespan: f64,
    /// Optimal load fractions `α(b)` (borrowed from the engine's arena).
    pub fractions: &'a [f64],
}

/// A persistent, incrementally updatable solver for one market.
///
/// See the [module docs](self) for the re-solve strategy. Results are
/// bit-identical to the one-shot [`Market`](crate::Market) /
/// [`compute_payments`](crate::compute_payments) pipeline on the same bids.
#[derive(Debug, Clone)]
pub struct AuctionEngine {
    chain: ChainState,
    /// Cached `α(b)`; valid iff `!alloc_dirty`.
    alloc: Vec<f64>,
    alloc_dirty: bool,
    scratch: PaymentScratch,
    payments: Vec<Payment>,
    finish: Vec<f64>,
}

impl AuctionEngine {
    /// Builds an engine over an initial bid vector (O(m), the only
    /// unavoidable allocations).
    pub fn new(model: SystemModel, z: f64, bids: Vec<f64>) -> Result<Self, EngineError> {
        let params = BusParams::new(z, bids)?;
        let m = params.m();
        Ok(AuctionEngine {
            chain: ChainState::new(model, &params),
            alloc: Vec::with_capacity(m),
            alloc_dirty: true,
            scratch: PaymentScratch::default(),
            payments: Vec::with_capacity(m),
            finish: Vec::with_capacity(m),
        })
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.chain.model()
    }

    /// Number of processors `m`.
    pub fn m(&self) -> usize {
        self.chain.m()
    }

    /// Bus communication rate.
    pub fn z(&self) -> f64 {
        self.chain.params().z()
    }

    /// The current bid vector.
    pub fn bids(&self) -> &[f64] {
        self.chain.params().w()
    }

    fn check_bid(&self, index: usize, value: f64) -> Result<(), EngineError> {
        let m = self.m();
        if index >= m {
            return Err(EngineError::IndexOutOfRange { index, m });
        }
        if !value.is_finite() || value <= 0.0 {
            return Err(EngineError::InvalidBid { index, value });
        }
        Ok(())
    }

    /// Replaces bid `i` via the incremental chain splice — O(m − i) with
    /// two divisions. The hot path.
    pub fn submit_bid(&mut self, i: usize, bid: f64) -> Result<(), EngineError> {
        self.check_bid(i, bid)?;
        self.chain.update_bid(i, bid);
        self.alloc_dirty = true;
        Ok(())
    }

    /// Replaces bid `i` via a full from-scratch rebuild of the cached chain
    /// (O(m), m divisions). Same observable behaviour as
    /// [`AuctionEngine::submit_bid`], bit-for-bit; kept as the reference /
    /// fallback path and as the benchmark baseline.
    pub fn submit_bid_rebuild(&mut self, i: usize, bid: f64) -> Result<(), EngineError> {
        self.check_bid(i, bid)?;
        self.chain.update_bid_rebuild(i, bid);
        self.alloc_dirty = true;
        Ok(())
    }

    /// Replaces the entire bid vector (full rebuild into the retained
    /// buffers): clears a new market of the same size on one engine
    /// without reallocating.
    pub fn load_bids(&mut self, bids: &[f64]) -> Result<(), EngineError> {
        let m = self.m();
        if bids.len() != m {
            return Err(EngineError::LengthMismatch {
                expected: m,
                got: bids.len(),
            });
        }
        for (index, &value) in bids.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(EngineError::InvalidBid { index, value });
            }
        }
        self.chain.reload(bids);
        self.alloc_dirty = true;
        Ok(())
    }

    /// Optimal makespan under the current bids — O(1) from the cached
    /// prefix sums.
    pub fn optimal_makespan(&self) -> f64 {
        self.chain.optimal_makespan()
    }

    /// Optimal fractions under the current bids, materialized lazily into
    /// the engine's arena (O(m) after a bid change, O(1) when cached).
    pub fn fractions(&mut self) -> &[f64] {
        if self.alloc_dirty {
            self.chain.fractions_into(&mut self.alloc);
            self.alloc_dirty = false;
        }
        &self.alloc
    }

    /// The full quote: makespan plus fractions.
    pub fn evaluate(&mut self) -> Evaluation<'_> {
        let makespan = self.optimal_makespan();
        Evaluation {
            makespan,
            fractions: self.fractions(),
        }
    }

    /// Realized finish times of the current allocation when each processor
    /// executes at `observed` rather than its bid rate.
    pub fn finish_times(&mut self, observed: &[f64]) -> Result<&[f64], EngineError> {
        self.check_observed(observed)?;
        let exec = BusParams::new(self.z(), observed.to_vec())?;
        if self.alloc_dirty {
            self.chain.fractions_into(&mut self.alloc);
            self.alloc_dirty = false;
        }
        finish_times_into(self.model(), &exec, &self.alloc, &mut self.finish);
        Ok(&self.finish)
    }

    fn check_observed(&self, observed: &[f64]) -> Result<(), EngineError> {
        let m = self.m();
        if observed.len() != m {
            return Err(EngineError::LengthMismatch {
                expected: m,
                got: observed.len(),
            });
        }
        for (index, &value) in observed.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(EngineError::InvalidObserved { index, value });
            }
        }
        Ok(())
    }

    /// DLS-BL payments (Eq. 12) for the current bids and the given observed
    /// execution rates, written into the engine's arenas — bit-identical to
    /// [`compute_payments`](crate::compute_payments) on the same inputs.
    pub fn payments(&mut self, observed: &[f64]) -> Result<&[Payment], EngineError> {
        self.check_observed(observed)?;
        if self.alloc_dirty {
            self.chain.fractions_into(&mut self.alloc);
            self.alloc_dirty = false;
        }
        compute_payments_into(
            &mut self.chain,
            &self.alloc,
            observed,
            &mut self.scratch,
            &mut self.payments,
        );
        Ok(&self.payments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::compute_payments;
    use dls_dlt::{optimal, ALL_MODELS};

    #[test]
    fn fresh_engine_matches_one_shot_solvers() {
        let bids = vec![1.0, 2.5, 0.8, 3.2];
        for model in ALL_MODELS {
            let mut eng = AuctionEngine::new(model, 0.3, bids.clone()).unwrap();
            let params = BusParams::new(0.3, bids.clone()).unwrap();
            let expect = optimal::fractions(model, &params);
            let eval = eng.evaluate();
            assert_eq!(eval.fractions, expect.as_slice(), "{model}");
        }
    }

    #[test]
    fn incremental_and_rebuild_paths_agree_bitwise() {
        for model in ALL_MODELS {
            let bids = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            let mut inc = AuctionEngine::new(model, 0.25, bids.clone()).unwrap();
            let mut full = AuctionEngine::new(model, 0.25, bids).unwrap();
            let updates = [(3usize, 0.9), (0, 2.2), (4, 1.1), (2, 6.5)];
            for &(i, b) in &updates {
                inc.submit_bid(i, b).unwrap();
                full.submit_bid_rebuild(i, b).unwrap();
                assert_eq!(
                    inc.optimal_makespan().to_bits(),
                    full.optimal_makespan().to_bits(),
                    "{model} update {i}"
                );
                let a: Vec<u64> = inc.fractions().iter().map(|x| x.to_bits()).collect();
                let b: Vec<u64> = full.fractions().iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "{model} update {i}");
            }
        }
    }

    #[test]
    fn payments_match_compute_payments() {
        for model in ALL_MODELS {
            let bids = vec![1.5, 2.0, 1.0];
            let observed = vec![1.5, 2.6, 1.0];
            let mut eng = AuctionEngine::new(model, 0.2, bids.clone()).unwrap();
            let params = BusParams::new(0.2, bids).unwrap();
            let alloc = optimal::fractions(model, &params);
            let expect = compute_payments(model, &params, &alloc, &observed);
            let got = eng.payments(&observed).unwrap();
            assert_eq!(got, expect.as_slice(), "{model}");
        }
    }

    #[test]
    fn typed_errors_cover_bad_inputs() {
        let mut eng = AuctionEngine::new(SystemModel::Cp, 0.2, vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            eng.submit_bid(5, 1.0),
            Err(EngineError::IndexOutOfRange { index: 5, m: 2 })
        ));
        assert!(matches!(
            eng.submit_bid(0, -1.0),
            Err(EngineError::InvalidBid { index: 0, .. })
        ));
        assert!(matches!(
            eng.load_bids(&[1.0]),
            Err(EngineError::LengthMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            eng.payments(&[1.0, f64::NAN]),
            Err(EngineError::InvalidObserved { index: 1, .. })
        ));
        assert!(matches!(
            AuctionEngine::new(SystemModel::Cp, -1.0, vec![1.0]),
            Err(EngineError::Params(_))
        ));
        // A failed submission leaves the engine usable.
        assert!(eng.submit_bid(1, 3.0).is_ok());
        assert_eq!(eng.bids(), &[1.0, 3.0]);
    }

    #[test]
    fn load_bids_matches_fresh_engine() {
        for model in ALL_MODELS {
            let mut eng = AuctionEngine::new(model, 0.2, vec![1.0, 2.0, 3.0]).unwrap();
            eng.submit_bid(1, 9.0).unwrap(); // dirty the cache first
            eng.load_bids(&[2.0, 1.0, 4.0]).unwrap();
            let mut fresh = AuctionEngine::new(model, 0.2, vec![2.0, 1.0, 4.0]).unwrap();
            assert_eq!(
                eng.optimal_makespan().to_bits(),
                fresh.optimal_makespan().to_bits(),
                "{model}"
            );
            assert_eq!(eng.fractions(), fresh.fractions(), "{model}");
        }
    }
}
