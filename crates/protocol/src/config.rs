//! Session and per-processor configuration, including the catalogue of
//! deviant behaviours used by the compliance experiments (E8/E9) and the
//! orthogonal liveness-fault plans used by the chaos suite.

use crate::fault::FaultPlan;
use dls_dlt::{BusParams, ParamError, SystemModel};
use std::fmt;

/// Default per-phase budget (milliseconds): a barrier deadline that an
/// injected [`FaultPlan::DelayAt`] must stay below to count as a
/// tolerated straggler. No clock is read; the budget is only compared
/// against injected delays.
pub const DEFAULT_PHASE_BUDGET_MS: u64 = 5_000;

/// How the session accounts for signature-verification work.
///
/// Verification is deterministic (hash-then-modexp over fixed bytes under a
/// fixed registry), so both profiles produce bit-identical session outcomes;
/// they differ only in how many modexps they spend getting there. The
/// per-receiver profile exists as an honest measurement baseline for the
/// amortized-verification gate in `tests/tests/scaling.rs`, re-verifying
/// every envelope at every receiver the way the pre-cache runtime did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoProfile {
    /// Verify each distinct envelope once per session and share the verdict
    /// across receivers through the session's verification cache.
    #[default]
    Amortized,
    /// Verify every envelope independently at every receiver with the plain
    /// `pow_mod` path — the pre-Montgomery, pre-cache cost model.
    PerReceiverNaive,
}

impl fmt::Display for CryptoProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoProfile::Amortized => write!(f, "amortized"),
            CryptoProfile::PerReceiverNaive => write!(f, "per-receiver"),
        }
    }
}

/// How a strategic processor plays the protocol. Every variant other than
/// [`Behavior::Compliant`] models one of the offences enumerated at the end
/// of §4 (or a strategic-but-legal manipulation of the §3 mechanism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Truthful bid, full-speed execution, honest protocol execution.
    Compliant,
    /// Bids `factor·w` instead of `w` (legal but strategically useless by
    /// Theorem 5.2). Executes at true speed.
    Misreport {
        /// Multiplier applied to the true rate (`> 1` feigns slowness).
        factor: f64,
    },
    /// Bids truthfully but executes `factor ≥ 1` slower than bid — the case
    /// the *verification* part of the mechanism punishes via the bonus.
    Slack {
        /// Slow-down multiplier (`≥ 1`).
        factor: f64,
    },
    /// Offence (i): broadcasts two different authenticated bids
    /// (`w` and `factor·w`) during the Bidding phase.
    EquivocateBids {
        /// Multiplier for the second, contradictory bid.
        factor: f64,
    },
    /// Offence (ii), under-allocation: as the load originator, withholds
    /// `shortfall` blocks from the victim processor's grant.
    ShortAllocate {
        /// Index of the victim processor.
        victim: usize,
        /// Number of blocks withheld.
        shortfall: usize,
    },
    /// Offence (ii), over-allocation: as the load originator, pads the
    /// victim's grant with `excess` duplicated blocks (caught by comparing
    /// with the user-signed original data set).
    OverAllocate {
        /// Index of the victim processor.
        victim: usize,
        /// Number of extra blocks.
        excess: usize,
    },
    /// Offence (iii): submits a payment vector with entry `target` scaled
    /// by `factor` during the Computing Payments phase.
    CorruptPayments {
        /// Whose payment to inflate/deflate.
        target: usize,
        /// Multiplier applied to that entry.
        factor: f64,
    },
    /// Offence (v): reports a perfectly correct load grant as wrong
    /// (an unsubstantiated claim — the *accuser* is fined).
    FalselyAccuseAllocation,
    /// Broadcasts its own valid bid **plus** a bid forged under another
    /// processor's identity (random signature bytes). The paper's rule —
    /// "if the message fails verification, it is discarded" — means the
    /// forgery is silently dropped and must neither disrupt the session
    /// nor frame the impersonated processor (Lemma 5.2).
    ForgeExtraBid {
        /// Identity to impersonate.
        impersonate: usize,
    },
    /// Does not broadcast a bid; sits the session out with utility 0.
    NonParticipant,
}

impl Behavior {
    /// `true` for behaviours the referee should end up fining.
    pub fn is_finable_offence(&self) -> bool {
        matches!(
            self,
            Behavior::EquivocateBids { .. }
                | Behavior::ShortAllocate { .. }
                | Behavior::OverAllocate { .. }
                | Behavior::CorruptPayments { .. }
                | Behavior::FalselyAccuseAllocation
        )
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Compliant => write!(f, "compliant"),
            Behavior::Misreport { factor } => write!(f, "misreport x{factor}"),
            Behavior::Slack { factor } => write!(f, "slack x{factor}"),
            Behavior::EquivocateBids { factor } => write!(f, "equivocate x{factor}"),
            Behavior::ShortAllocate { victim, shortfall } => {
                write!(f, "short-allocate P{} by {shortfall}", victim + 1)
            }
            Behavior::OverAllocate { victim, excess } => {
                write!(f, "over-allocate P{} by {excess}", victim + 1)
            }
            Behavior::CorruptPayments { target, factor } => {
                write!(f, "corrupt Q[{}] x{factor}", target + 1)
            }
            Behavior::FalselyAccuseAllocation => write!(f, "false accusation"),
            Behavior::ForgeExtraBid { impersonate } => {
                write!(f, "forge bid as P{}", impersonate + 1)
            }
            Behavior::NonParticipant => write!(f, "non-participant"),
        }
    }
}

/// One processor: its private type, its strategy, and its liveness-fault
/// plan (orthogonal axes — a processor can be strategically compliant yet
/// crash, or deviant yet perfectly live).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorConfig {
    /// True unit-processing time `w_i`.
    pub true_w: f64,
    /// Strategy.
    pub behavior: Behavior,
    /// Liveness-fault injection plan ([`FaultPlan::None`] for a live
    /// processor).
    pub fault: FaultPlan,
}

impl ProcessorConfig {
    /// Convenience constructor (no fault).
    pub fn new(true_w: f64, behavior: Behavior) -> Self {
        ProcessorConfig {
            true_w,
            behavior,
            fault: FaultPlan::None,
        }
    }

    /// Attaches a liveness-fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// The bid this processor will (first) broadcast, or `None` if it does
    /// not participate.
    pub fn bid(&self) -> Option<f64> {
        match self.behavior {
            Behavior::NonParticipant => None,
            Behavior::Misreport { factor } => Some(self.true_w * factor),
            Behavior::EquivocateBids { .. } => Some(self.true_w),
            _ => Some(self.true_w),
        }
    }

    /// The rate the processor actually executes at (`w̃_i ≥ w_i`).
    pub fn exec_w(&self) -> f64 {
        match self.behavior {
            Behavior::Slack { factor } => self.true_w * factor.max(1.0),
            _ => self.true_w,
        }
    }
}

/// Errors building a [`SessionConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Fewer than two processors (the NCP protocol needs peers to monitor
    /// one another).
    TooFewProcessors,
    /// Underlying DLT parameter problem.
    Params(ParamError),
    /// The fine does not satisfy the deterrence bound `F ≥ Σ_j α_j·w_j`
    /// (paper, Bidding phase). The bound is evaluated at the bids.
    FineTooSmall {
        /// Configured fine.
        fine: f64,
        /// Minimum admissible fine.
        bound: f64,
    },
    /// A behaviour references a processor index that does not exist.
    BadIndex {
        /// Offending processor.
        processor: usize,
    },
    /// Invalid strategy parameter (NaN, non-positive factor, slack < 1…).
    BadStrategy {
        /// Offending processor.
        processor: usize,
    },
    /// Zero blocks configured.
    NoBlocks,
    /// The per-phase budget is zero — every party would miss every
    /// barrier deadline.
    ZeroPhaseBudget,
    /// A [`FaultPlan::DelayAt`] reaches the phase budget, which
    /// makes the "tolerated straggler" plan indistinguishable from a
    /// crash; configure a crash if that is the intent.
    DelayExceedsBudget {
        /// Offending processor.
        processor: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewProcessors => {
                write!(f, "DLS-BL-NCP requires at least 2 processors")
            }
            ConfigError::Params(e) => write!(f, "{e}"),
            ConfigError::FineTooSmall { fine, bound } => write!(
                f,
                "fine {fine} violates the deterrence bound F >= sum(alpha_j w_j) = {bound}"
            ),
            ConfigError::BadIndex { processor } => {
                write!(f, "processor {processor}: behaviour references missing index")
            }
            ConfigError::BadStrategy { processor } => {
                write!(f, "processor {processor}: invalid strategy parameter")
            }
            ConfigError::NoBlocks => write!(f, "the load must have at least one block"),
            ConfigError::ZeroPhaseBudget => {
                write!(f, "the phase budget must be at least one millisecond")
            }
            ConfigError::DelayExceedsBudget { processor } => write!(
                f,
                "processor {processor}: DelayAt reaches the phase budget (use CrashAt)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ParamError> for ConfigError {
    fn from(e: ParamError) -> Self {
        ConfigError::Params(e)
    }
}

/// A complete session specification.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// System model (NCP-FE or NCP-NFE for the paper's protocol; CP is
    /// accepted for baseline comparisons — the "originator" is then an
    /// external trusted P_0 and originator offences are unavailable).
    pub model: SystemModel,
    /// Bus communication rate.
    pub z: f64,
    /// The processors.
    pub processors: Vec<ProcessorConfig>,
    /// The fine `F`.
    pub fine: f64,
    /// Number of equal-sized blocks the user splits the load into.
    pub blocks: usize,
    /// RSA modulus size for participant keys.
    pub key_bits: usize,
    /// Deterministic seed for key generation and any tie-breaking.
    pub seed: u64,
    /// Budget per protocol phase, in milliseconds. The referee closes
    /// each barrier at this deadline: a processor that crashed, or whose
    /// injected delay is at least the budget, misses it and is declared
    /// defaulted instead of hanging the session. Delays below the budget
    /// are tolerated stragglers. No clock is read.
    pub phase_budget_ms: u64,
    /// Signature-verification cost model (outcome-neutral; see
    /// [`CryptoProfile`]).
    pub crypto_profile: CryptoProfile,
}

impl SessionConfig {
    /// Starts a builder with required parameters and sensible defaults
    /// (`blocks = 60`, minimal keys, automatic fine at 4× the bound).
    pub fn builder(model: SystemModel, z: f64) -> SessionConfigBuilder {
        SessionConfigBuilder {
            model,
            z,
            processors: Vec::new(),
            fine: None,
            blocks: 60,
            key_bits: dls_crypto::rsa::MIN_MODULUS_BITS,
            seed: 0,
            phase_budget_ms: DEFAULT_PHASE_BUDGET_MS,
            crypto_profile: CryptoProfile::default(),
        }
    }

    /// Number of processors `m`.
    pub fn m(&self) -> usize {
        self.processors.len()
    }

    /// Index of the load-originating processor.
    pub fn originator(&self) -> Option<usize> {
        self.model.originator(self.m())
    }

    /// The bid vector assuming everyone participates with its first bid.
    pub fn bids(&self) -> Vec<f64> {
        self.processors
            .iter()
            .map(|p| p.bid().unwrap_or(p.true_w))
            .collect()
    }

    /// The deterrence lower bound on the fine: `Σ_j α_j(b)·b_j` evaluated
    /// at the bids (the paper states `F ≥ Σ α_j w_j`; only bids are public
    /// when `F` is announced). Built configs always carry a valid bid
    /// vector; a hand-assembled one with degenerate bids gets `+∞` — no
    /// fine is admissible for a market that cannot be solved.
    pub fn fine_bound(&self) -> f64 {
        let Ok(params) = BusParams::new(self.z, self.bids()) else {
            return f64::INFINITY;
        };
        let alpha = dls_dlt::optimal::fractions(self.model, &params);
        alpha
            .iter()
            .zip(params.w())
            .map(|(a, w)| a * w)
            .sum()
    }
}

/// Builder for [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    model: SystemModel,
    z: f64,
    processors: Vec<ProcessorConfig>,
    fine: Option<f64>,
    blocks: usize,
    key_bits: usize,
    seed: u64,
    phase_budget_ms: u64,
    crypto_profile: CryptoProfile,
}

impl SessionConfigBuilder {
    /// Adds a processor.
    pub fn processor(mut self, p: ProcessorConfig) -> Self {
        self.processors.push(p);
        self
    }

    /// Adds many processors.
    pub fn processors(mut self, ps: impl IntoIterator<Item = ProcessorConfig>) -> Self {
        self.processors.extend(ps);
        self
    }

    /// Sets the fine `F` explicitly (validated against the deterrence
    /// bound at `build`).
    pub fn fine(mut self, fine: f64) -> Self {
        self.fine = Some(fine);
        self
    }

    /// Sets the block count.
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the RSA modulus size.
    pub fn key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-phase budget in milliseconds (validated
    /// non-zero at `build`).
    pub fn phase_budget_ms(mut self, ms: u64) -> Self {
        self.phase_budget_ms = ms;
        self
    }

    /// Sets the signature-verification cost model (default
    /// [`CryptoProfile::Amortized`]; outcome-neutral either way).
    pub fn crypto_profile(mut self, profile: CryptoProfile) -> Self {
        self.crypto_profile = profile;
        self
    }

    /// Validates and builds.
    pub fn build(self) -> Result<SessionConfig, ConfigError> {
        let m = self.processors.len();
        if m < 2 {
            return Err(ConfigError::TooFewProcessors);
        }
        if self.blocks == 0 {
            return Err(ConfigError::NoBlocks);
        }
        if self.phase_budget_ms == 0 {
            return Err(ConfigError::ZeroPhaseBudget);
        }
        for (processor, p) in self.processors.iter().enumerate() {
            if let FaultPlan::DelayAt(_, ms) = p.fault {
                if ms >= self.phase_budget_ms {
                    return Err(ConfigError::DelayExceedsBudget { processor });
                }
            }
            if !p.true_w.is_finite() || p.true_w <= 0.0 {
                return Err(ConfigError::BadStrategy { processor });
            }
            match p.behavior {
                Behavior::Misreport { factor } | Behavior::EquivocateBids { factor } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(ConfigError::BadStrategy { processor });
                    }
                }
                Behavior::Slack { factor } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(ConfigError::BadStrategy { processor });
                    }
                }
                Behavior::CorruptPayments { target, factor } => {
                    if target >= m {
                        return Err(ConfigError::BadIndex { processor });
                    }
                    if !factor.is_finite() || factor == 1.0 {
                        return Err(ConfigError::BadStrategy { processor });
                    }
                }
                Behavior::ShortAllocate { victim, shortfall } => {
                    if victim >= m {
                        return Err(ConfigError::BadIndex { processor });
                    }
                    if shortfall == 0 {
                        return Err(ConfigError::BadStrategy { processor });
                    }
                }
                Behavior::OverAllocate { victim, excess } => {
                    if victim >= m {
                        return Err(ConfigError::BadIndex { processor });
                    }
                    if excess == 0 {
                        return Err(ConfigError::BadStrategy { processor });
                    }
                }
                Behavior::ForgeExtraBid { impersonate } => {
                    if impersonate >= m {
                        return Err(ConfigError::BadIndex { processor });
                    }
                }
                Behavior::Compliant
                | Behavior::FalselyAccuseAllocation
                | Behavior::NonParticipant => {}
            }
        }

        let cfg = SessionConfig {
            model: self.model,
            z: self.z,
            processors: self.processors,
            fine: 0.0, // placeholder, set below
            blocks: self.blocks,
            key_bits: self.key_bits,
            seed: self.seed,
            phase_budget_ms: self.phase_budget_ms,
            crypto_profile: self.crypto_profile,
        };
        // Validate the bid vector as DLT parameters.
        let _ = BusParams::new(cfg.z, cfg.bids())?;
        let bound = cfg.fine_bound();
        let fine = self.fine.unwrap_or(4.0 * bound.max(f64::MIN_POSITIVE));
        if fine < bound {
            return Err(ConfigError::FineTooSmall { fine, bound });
        }
        Ok(SessionConfig { fine, ..cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_compliant() -> Vec<ProcessorConfig> {
        vec![
            ProcessorConfig::new(1.0, Behavior::Compliant),
            ProcessorConfig::new(2.0, Behavior::Compliant),
            ProcessorConfig::new(3.0, Behavior::Compliant),
        ]
    }

    #[test]
    fn builder_defaults() {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .build()
            .unwrap();
        assert_eq!(cfg.m(), 3);
        assert!(cfg.fine >= cfg.fine_bound());
        assert_eq!(cfg.blocks, 60);
        assert_eq!(cfg.originator(), Some(0));
    }

    #[test]
    fn rejects_single_processor() {
        let err = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::TooFewProcessors);
    }

    #[test]
    fn rejects_small_fine() {
        let err = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .fine(1e-6)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::FineTooSmall { .. }));
    }

    #[test]
    fn accepts_fine_at_bound() {
        let probe = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .build()
            .unwrap();
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .fine(probe.fine_bound())
            .build()
            .unwrap();
        assert_eq!(cfg.fine, probe.fine_bound());
    }

    #[test]
    fn rejects_bad_strategy_parameters() {
        for bad in [
            Behavior::Misreport { factor: 0.0 },
            Behavior::Slack { factor: 0.5 },
            Behavior::CorruptPayments { target: 9, factor: 2.0 },
            Behavior::CorruptPayments { target: 0, factor: 1.0 },
            Behavior::ShortAllocate { victim: 9, shortfall: 1 },
            Behavior::OverAllocate { victim: 0, excess: 0 },
        ] {
            let err = SessionConfig::builder(SystemModel::NcpFe, 0.2)
                .processor(ProcessorConfig::new(1.0, bad))
                .processor(ProcessorConfig::new(2.0, Behavior::Compliant))
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::BadStrategy { .. } | ConfigError::BadIndex { .. }),
                "{bad:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn bids_and_exec_rates() {
        let p = ProcessorConfig::new(2.0, Behavior::Misreport { factor: 1.5 });
        assert_eq!(p.bid(), Some(3.0));
        assert_eq!(p.exec_w(), 2.0);
        let s = ProcessorConfig::new(2.0, Behavior::Slack { factor: 2.0 });
        assert_eq!(s.bid(), Some(2.0));
        assert_eq!(s.exec_w(), 4.0);
        let n = ProcessorConfig::new(2.0, Behavior::NonParticipant);
        assert_eq!(n.bid(), None);
    }

    #[test]
    fn finable_offences_classified() {
        assert!(!Behavior::Compliant.is_finable_offence());
        assert!(!Behavior::Misreport { factor: 2.0 }.is_finable_offence());
        assert!(!Behavior::Slack { factor: 2.0 }.is_finable_offence());
        assert!(Behavior::EquivocateBids { factor: 2.0 }.is_finable_offence());
        assert!(Behavior::FalselyAccuseAllocation.is_finable_offence());
    }

    #[test]
    fn fault_plans_validated_against_budget() {
        use crate::referee::Phase;
        let err = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .phase_budget_ms(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPhaseBudget);

        let mut slow = three_compliant();
        slow[1] = slow[1].with_fault(FaultPlan::DelayAt(Phase::Bidding, 500));
        let err = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(slow.clone())
            .phase_budget_ms(500)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DelayExceedsBudget { processor: 1 });
        // A delay strictly below the budget is a tolerated straggler.
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(slow)
            .phase_budget_ms(501)
            .build()
            .unwrap();
        assert_eq!(cfg.phase_budget_ms, 501);
        assert_eq!(
            cfg.processors[1].fault,
            FaultPlan::DelayAt(Phase::Bidding, 500)
        );
        // Defaults: no fault, the documented budget.
        assert_eq!(cfg.processors[0].fault, FaultPlan::None);
        let plain = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .build()
            .unwrap();
        assert_eq!(plain.phase_budget_ms, DEFAULT_PHASE_BUDGET_MS);
    }

    #[test]
    fn crypto_profile_defaults_to_amortized() {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .build()
            .unwrap();
        assert_eq!(cfg.crypto_profile, CryptoProfile::Amortized);
        let naive = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .crypto_profile(CryptoProfile::PerReceiverNaive)
            .build()
            .unwrap();
        assert_eq!(naive.crypto_profile, CryptoProfile::PerReceiverNaive);
        assert_eq!(naive.crypto_profile.to_string(), "per-receiver");
    }

    #[test]
    fn fine_bound_is_weighted_makespan_sum() {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors(three_compliant())
            .build()
            .unwrap();
        let params = BusParams::new(0.2, vec![1.0, 2.0, 3.0]).unwrap();
        let alpha = dls_dlt::optimal::fractions(SystemModel::NcpFe, &params);
        let expected: f64 = alpha.iter().zip(params.w()).map(|(a, w)| a * w).sum();
        assert!((cfg.fine_bound() - expected).abs() < 1e-12);
    }
}
