//! # `dls` — strategyproof divisible-load scheduling for bus networks
//!
//! A faithful, from-scratch reproduction of Carroll & Grosu,
//! *A Strategyproof Mechanism for Scheduling Divisible Loads in Bus
//! Networks without Control Processor* (IPPS 2006), as a production-style
//! Rust workspace. This crate is the public facade: it re-exports the
//! substrate crates and offers a compact [`Session`] API for the common
//! case — "run a DLS-BL-NCP session with these processors and tell me what
//! happened".
//!
//! ## The stack
//!
//! | Layer | Crate | Paper section |
//! |-------|-------|---------------|
//! | [`num`] | exact integers/rationals | (substrate) |
//! | [`crypto`] | SHA-256, RSA-style signatures, PKI | §4 assumptions |
//! | [`dlt`] | bus models + optimal allocations | §2 |
//! | [`mechanism`] | DLS-BL compensation-and-bonus payments | §3 |
//! | [`netsim`] | bus schedule executor + Gantt | Figures 1–3 |
//! | [`protocol`] | DLS-BL-NCP with referee, fines, finking | §4–5 |
//!
//! ## Quickstart
//!
//! ```
//! use dls::{Behavior, Session};
//!
//! let outcome = Session::ncp_fe(0.2)
//!     .worker(1.0)
//!     .worker(2.0)
//!     .worker_with(3.0, Behavior::Misreport { factor: 1.5 })
//!     .seed(42)
//!     .run()
//!     .unwrap();
//!
//! // Misreporting is legal — the session completes without fines…
//! assert!(outcome.fined_processors().is_empty());
//! // …the mechanism simply makes it unprofitable (Theorem 5.2).
//! println!("P3 utility: {}", outcome.utility(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use dls_crypto as crypto;
pub use dls_dlt as dlt;
pub use dls_mechanism as mechanism;
pub use dls_netsim as netsim;
pub use dls_num as num;
pub use dls_protocol as protocol;

pub use dls_dlt::SystemModel;
pub use dls_mechanism::AgentSpec;
pub use dls_protocol::config::{Behavior, ConfigError, ProcessorConfig};
pub use dls_protocol::runtime::{RunError, SessionOutcome, SessionStatus};

use dls_protocol::config::SessionConfig;

/// Errors from the facade [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// Invalid configuration.
    Config(ConfigError),
    /// Failure while executing the session.
    Run(RunError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "{e}"),
            SessionError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Fluent builder for a DLS-BL-NCP session.
///
/// A thin veneer over [`protocol::config::SessionConfig`]; use that type
/// directly for full control (block counts, key sizes, explicit fines).
#[derive(Debug, Clone)]
pub struct Session {
    model: SystemModel,
    z: f64,
    processors: Vec<ProcessorConfig>,
    fine: Option<f64>,
    blocks: Option<usize>,
    seed: u64,
}

impl Session {
    /// A session on a bus without control processor where the originator
    /// has a front end (`P_1` holds the load).
    pub fn ncp_fe(z: f64) -> Self {
        Session::new(SystemModel::NcpFe, z)
    }

    /// A session where the originator has no front end (`P_m` holds the
    /// load).
    pub fn ncp_nfe(z: f64) -> Self {
        Session::new(SystemModel::NcpNfe, z)
    }

    /// A session on an explicit model.
    pub fn new(model: SystemModel, z: f64) -> Self {
        Session {
            model,
            z,
            processors: Vec::new(),
            fine: None,
            blocks: None,
            seed: 0,
        }
    }

    /// Adds a truthful, compliant processor with true rate `w`.
    pub fn worker(mut self, w: f64) -> Self {
        self.processors
            .push(ProcessorConfig::new(w, Behavior::Compliant));
        self
    }

    /// Adds a processor with an explicit strategy.
    pub fn worker_with(mut self, w: f64, behavior: Behavior) -> Self {
        self.processors.push(ProcessorConfig::new(w, behavior));
        self
    }

    /// Overrides the fine `F` (must satisfy `F ≥ Σ α_j·w_j`).
    pub fn fine(mut self, fine: f64) -> Self {
        self.fine = Some(fine);
        self
    }

    /// Overrides the block count the user splits the load into.
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = Some(blocks);
        self
    }

    /// Sets the deterministic seed (key generation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the underlying [`SessionConfig`] without running it.
    pub fn config(&self) -> Result<SessionConfig, ConfigError> {
        let mut b = SessionConfig::builder(self.model, self.z)
            .processors(self.processors.iter().copied())
            .seed(self.seed);
        if let Some(f) = self.fine {
            b = b.fine(f);
        }
        if let Some(n) = self.blocks {
            b = b.blocks(n);
        }
        b.build()
    }

    /// Runs the full DLS-BL-NCP protocol and returns the outcome.
    pub fn run(&self) -> Result<SessionOutcome, SessionError> {
        let cfg = self.config().map_err(SessionError::Config)?;
        dls_protocol::run_session_vm(&cfg).map_err(SessionError::Run)
    }
}

/// One-call helpers for the DLT layer, for users who only want schedules.
pub mod quick {
    use super::SystemModel;
    use dls_dlt::{optimal, BusParams, ParamError};

    /// Optimal load fractions for processors with rates `w` on a bus with
    /// communication rate `z`.
    pub fn allocate(model: SystemModel, z: f64, w: &[f64]) -> Result<Vec<f64>, ParamError> {
        let params = BusParams::new(z, w.to_vec())?;
        Ok(optimal::fractions(model, &params))
    }

    /// Optimal makespan for the same inputs.
    pub fn makespan(model: SystemModel, z: f64, w: &[f64]) -> Result<f64, ParamError> {
        let params = BusParams::new(z, w.to_vec())?;
        Ok(optimal::optimal_makespan(model, &params))
    }

    /// ASCII Gantt chart of the optimal schedule (Figures 1–3 style).
    pub fn gantt(model: SystemModel, z: f64, w: &[f64]) -> Result<String, ParamError> {
        let params = BusParams::new(z, w.to_vec())?;
        let alloc = optimal::fractions(model, &params);
        let tl = dls_netsim::simulate(&dls_netsim::SessionSpec::new(model, params, alloc));
        Ok(dls_netsim::gantt::render_default(&tl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_allocate_matches_dlt() {
        let a = quick::allocate(SystemModel::NcpFe, 0.2, &[1.0, 2.0]).unwrap();
        assert_eq!(a.len(), 2);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(quick::allocate(SystemModel::Cp, 0.2, &[]).is_err());
    }

    #[test]
    fn quick_gantt_renders() {
        let g = quick::gantt(SystemModel::NcpNfe, 0.3, &[1.0, 2.0, 3.0]).unwrap();
        assert!(g.contains("P1"));
        assert!(g.contains("Comm"));
    }

    #[test]
    fn quick_makespan_sane() {
        let t = quick::makespan(SystemModel::NcpFe, 0.2, &[1.0, 2.0, 3.0]).unwrap();
        assert!(t > 0.0 && t < 1.0); // three processors beat the fastest solo (1.0)
    }

    #[test]
    fn session_builder_produces_valid_config() {
        let cfg = Session::ncp_fe(0.2)
            .worker(1.0)
            .worker(2.0)
            .blocks(30)
            .seed(5)
            .config()
            .unwrap();
        assert_eq!(cfg.m(), 2);
        assert_eq!(cfg.blocks, 30);
    }

    #[test]
    fn session_builder_propagates_config_errors() {
        let err = Session::ncp_fe(0.2).worker(1.0).config().unwrap_err();
        assert!(matches!(err, ConfigError::TooFewProcessors));
    }
}
