//! Multi-load sessions: one processor market, `k` loads, every
//! execution path through the shared session driver.
//!
//! A [`MultiLoadSession`] is `k` per-load [`SessionConfig`]s over the
//! *same* processor market (same participants, same keys, same seed —
//! one PKI registration amortized across every load, mirroring how the
//! auction layer amortizes one bid vector across `k` chains;
//! `dls_mechanism::MultiLoadEngine`). Each load may differ in bus
//! intensity `z` and block count (the protocol-level notion of load
//! volume).
//!
//! The runners deliberately add **no new execution path**: both route
//! through the same `drive_session` seam the single-load paths use, so a
//! multi-load session inherits every existing guarantee — fault
//! degradation, ledger conservation, service supervision — with zero new
//! protocol code:
//!
//! * [`MultiLoadSession::run_vm`] — loads in order on one event-driven
//!   executor, sharing a single `VmScratch` (per-load results bit-exact
//!   with [`crate::executor::run_session_vm`] on each config).
//! * [`MultiLoadSession::run_service`] — loads submitted to a running
//!   supervised service ([`ServiceHandle`]); admission control, retry
//!   and quarantine apply per load unchanged.

use crate::config::{
    ConfigError, CryptoProfile, ProcessorConfig, SessionConfig, SessionConfigBuilder,
};
use crate::executor::{drive_session, VmScratch};
use crate::runtime::{RunError, SessionOutcome, SessionStatus};
use crate::service::{Completed, ServiceHandle, SubmitError};
use dls_dlt::SystemModel;
use std::fmt;

/// Rejected multi-load session specification.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiSessionError {
    /// A session must carry at least one load.
    NoLoads,
    /// A per-load session config failed validation.
    Config {
        /// Offending load (0-based).
        load: usize,
        /// The underlying error.
        source: ConfigError,
    },
}

impl fmt::Display for MultiSessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiSessionError::NoLoads => {
                write!(f, "a multi-load session needs at least one load")
            }
            MultiSessionError::Config { load, source } => {
                write!(f, "load {load}: {source}")
            }
        }
    }
}

impl std::error::Error for MultiSessionError {}

/// A validated k-load session over one processor market.
#[derive(Debug, Clone)]
pub struct MultiLoadSession {
    sessions: Vec<SessionConfig>,
}

/// Builder for [`MultiLoadSession`]. Market-level settings (processors,
/// seed, keys, crypto profile, phase budget) are shared by every load;
/// each [`MultiLoadSessionBuilder::load`] call adds one load.
#[derive(Debug, Clone)]
pub struct MultiLoadSessionBuilder {
    model: SystemModel,
    processors: Vec<ProcessorConfig>,
    loads: Vec<(f64, usize)>,
    seed: u64,
    key_bits: Option<usize>,
    fine: Option<f64>,
    phase_budget_ms: Option<u64>,
    crypto_profile: Option<CryptoProfile>,
}

impl MultiLoadSession {
    /// Starts a builder for `model`.
    pub fn builder(model: SystemModel) -> MultiLoadSessionBuilder {
        MultiLoadSessionBuilder {
            model,
            processors: Vec::new(),
            loads: Vec::new(),
            seed: 0,
            key_bits: None,
            fine: None,
            phase_budget_ms: None,
            crypto_profile: None,
        }
    }

    /// Number of loads `k`.
    pub fn k(&self) -> usize {
        self.sessions.len()
    }

    /// The validated per-load session configs, in load order.
    pub fn sessions(&self) -> &[SessionConfig] {
        &self.sessions
    }

    /// Runs the loads in order on one event-driven executor with a shared
    /// scratch. Per-load results are bit-exact with
    /// [`crate::executor::run_session_vm`] on [`MultiLoadSession::sessions`].
    pub fn run_vm(&self) -> MultiSessionOutcome {
        let mut scratch = VmScratch::new();
        let per_load = self
            .sessions
            .iter()
            .map(|cfg| drive_session(cfg, &mut scratch))
            .collect();
        MultiSessionOutcome { per_load }
    }

    /// Submits every load to a running supervised service and waits for
    /// all of them, returning completions in load order. A submit
    /// rejection (admission control) fails the whole call — the session
    /// is one unit of work. A ticket the service drops entirely is
    /// reported as `None` in its slot.
    pub fn run_service(
        &self,
        svc: &ServiceHandle,
    ) -> Result<Vec<Option<Completed>>, SubmitError> {
        let mut tickets = Vec::with_capacity(self.sessions.len());
        for cfg in &self.sessions {
            tickets.push(svc.submit(cfg.clone())?);
        }
        Ok(tickets.into_iter().map(|t| svc.wait(t)).collect())
    }
}

impl MultiLoadSessionBuilder {
    /// Adds one processor (shared by every load).
    pub fn processor(mut self, p: ProcessorConfig) -> Self {
        self.processors.push(p);
        self
    }

    /// Adds processors in bulk.
    pub fn processors(mut self, ps: impl IntoIterator<Item = ProcessorConfig>) -> Self {
        self.processors.extend(ps);
        self
    }

    /// Adds one load with bus rate `z` and `blocks` blocks.
    pub fn load(mut self, z: f64, blocks: usize) -> Self {
        self.loads.push((z, blocks));
        self
    }

    /// Deterministic seed (shared: every load runs over the same keys).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// RSA modulus size for participant keys.
    pub fn key_bits(mut self, bits: usize) -> Self {
        self.key_bits = Some(bits);
        self
    }

    /// Explicit fine `F` applied to every load (defaults to each load's
    /// automatic fine otherwise).
    pub fn fine(mut self, fine: f64) -> Self {
        self.fine = Some(fine);
        self
    }

    /// Per-phase wall-clock budget in milliseconds (shared).
    pub fn phase_budget_ms(mut self, ms: u64) -> Self {
        self.phase_budget_ms = Some(ms);
        self
    }

    /// Signature-verification cost model (shared).
    pub fn crypto_profile(mut self, profile: CryptoProfile) -> Self {
        self.crypto_profile = Some(profile);
        self
    }

    /// Validates every per-load config through the standard
    /// [`SessionConfig::builder`] path.
    pub fn build(self) -> Result<MultiLoadSession, MultiSessionError> {
        if self.loads.is_empty() {
            return Err(MultiSessionError::NoLoads);
        }
        let mut sessions = Vec::with_capacity(self.loads.len());
        for (load, &(z, blocks)) in self.loads.iter().enumerate() {
            let mut b: SessionConfigBuilder = SessionConfig::builder(self.model, z)
                .processors(self.processors.iter().cloned())
                .blocks(blocks)
                .seed(self.seed);
            if let Some(bits) = self.key_bits {
                b = b.key_bits(bits);
            }
            if let Some(fine) = self.fine {
                b = b.fine(fine);
            }
            if let Some(ms) = self.phase_budget_ms {
                b = b.phase_budget_ms(ms);
            }
            if let Some(profile) = self.crypto_profile {
                b = b.crypto_profile(profile);
            }
            sessions.push(
                b.build()
                    .map_err(|source| MultiSessionError::Config { load, source })?,
            );
        }
        Ok(MultiLoadSession { sessions })
    }
}

/// Per-load outcomes of a multi-load session run, in load order.
#[derive(Debug)]
pub struct MultiSessionOutcome {
    /// One session result per load.
    pub per_load: Vec<Result<SessionOutcome, RunError>>,
}

impl MultiSessionOutcome {
    /// Number of loads `k`.
    pub fn k(&self) -> usize {
        self.per_load.len()
    }

    /// `true` iff every load ran to completion (with or without fines).
    pub fn all_completed(&self) -> bool {
        self.per_load.iter().all(|r| {
            matches!(
                r.as_ref().map(|o| &o.status),
                Ok(SessionStatus::Completed) | Ok(SessionStatus::CompletedWithFines)
            )
        })
    }

    /// Processor `i`'s session utility: sum of its per-load utilities
    /// over the loads that produced an outcome. `None` if `i` is out of
    /// range for any completed load.
    pub fn total_utility(&self, i: usize) -> Option<f64> {
        let mut total = 0.0;
        for r in &self.per_load {
            if let Ok(out) = r {
                let _ = out.processors.get(i)?;
                total += out.utility(i);
            }
        }
        Some(total)
    }

    /// Realized makespans of the completed loads, `None` where a load
    /// aborted before processing or failed to run.
    pub fn makespans(&self) -> Vec<Option<f64>> {
        self.per_load
            .iter()
            .map(|r| r.as_ref().ok().and_then(|o| o.makespan))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Behavior;
    use crate::executor::run_session_vm;
    use crate::service::ServiceConfig;

    fn session() -> MultiLoadSession {
        MultiLoadSession::builder(SystemModel::NcpFe)
            .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
            .processor(ProcessorConfig::new(2.0, Behavior::Compliant))
            .processor(ProcessorConfig::new(3.0, Behavior::Compliant))
            .load(0.2, 24)
            .load(0.1, 12)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn vm_path_is_bit_exact_with_single_load_runs() {
        let ml = session();
        let out = ml.run_vm();
        assert!(out.all_completed());
        assert_eq!(out.k(), 2);
        for (cfg, got) in ml.sessions().iter().zip(&out.per_load) {
            let single = run_session_vm(cfg).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.makespan.map(f64::to_bits), single.makespan.map(f64::to_bits));
            for i in 0..cfg.m() {
                assert_eq!(got.utility(i).to_bits(), single.utility(i).to_bits());
            }
        }
        // Cross-load utility is the plain sum.
        let manual: f64 = out
            .per_load
            .iter()
            .map(|r| r.as_ref().unwrap().utility(0))
            .sum();
        assert_eq!(out.total_utility(0).unwrap().to_bits(), manual.to_bits());
        assert!(out.total_utility(99).is_none());
        assert!(out.makespans().iter().all(|m| m.is_some()));
    }

    fn assert_service_matches_vm(svc_cfg: ServiceConfig) {
        let ml = session();
        let vm = ml.run_vm();
        let svc = ServiceHandle::start(svc_cfg).unwrap();
        let completed = ml.run_service(&svc).unwrap();
        svc.shutdown();
        assert_eq!(completed.len(), 2);
        for (c, v) in completed.iter().zip(&vm.per_load) {
            let c = c.as_ref().unwrap();
            let got = c.outcome.as_ref().unwrap();
            let want = v.as_ref().unwrap();
            assert_eq!(
                got.makespan.map(f64::to_bits),
                want.makespan.map(f64::to_bits)
            );
            assert_eq!(
                got.ledger.conservation_error().to_bits(),
                want.ledger.conservation_error().to_bits()
            );
        }
    }

    #[test]
    fn service_path_runs_every_load_supervised() {
        assert_service_matches_vm(ServiceConfig::stealing(2));
    }

    /// The static-placement service is what replaced the pooled runner:
    /// each load still lands on a fixed worker and must match the VM path.
    #[test]
    fn pooled_path_matches_vm_path() {
        assert_service_matches_vm(ServiceConfig::static_shard(2));
    }

    #[test]
    fn builder_rejects_bad_specs() {
        assert!(matches!(
            MultiLoadSession::builder(SystemModel::NcpFe)
                .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
                .build(),
            Err(MultiSessionError::NoLoads)
        ));
        // Too few participants for the NCP protocol.
        assert!(matches!(
            MultiLoadSession::builder(SystemModel::NcpFe)
                .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
                .load(0.2, 12)
                .build(),
            Err(MultiSessionError::Config { load: 0, .. })
        ));
    }
}
