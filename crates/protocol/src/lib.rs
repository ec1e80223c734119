//! # `dls-protocol` — the DLS-BL-NCP mechanism
//!
//! The paper's primary contribution (Carroll & Grosu, IPPS 2006, §4–5): a
//! strategyproof mechanism for scheduling divisible loads on bus networks
//! **without** a trusted control processor. Every strategic processor runs
//! the DLS-BL mechanism itself; compliance is enforced by mutual monitoring
//! ("finking"), a minimally-trusted **referee** that adjudicates evidence,
//! and fines large enough to deter deviation (`F ≥ Σ_j α_j·w_j`).
//!
//! ## Protocol phases (§4)
//!
//! 1. **Initialization** — every participant registers a public key with
//!    the PKI; the user splits the load into signed, uniquely identified
//!    blocks `S_user(B, I_B)`.
//! 2. **Bidding** — all-to-all broadcast of digitally signed bids
//!    `S_{P_i}(b_i, P_i)`. Equivocation (different bids to different peers)
//!    is reported with the two signed messages as evidence; the deviant is
//!    fined `F` and each informer receives `F/(m−1)`.
//! 3. **Allocating load** — every processor computes `α(b)` locally
//!    (Algorithm 2.1/2.2); the load-originating processor transmits each
//!    `P_i`'s blocks. Wrong assignments (`α'_i ≠ α_i`) are reported and
//!    adjudicated from the signed bid vectors and the signed grant.
//! 4. **Processing** — processors execute; a tamper-proof meter reports the
//!    execution time `φ_i` to the referee, which broadcasts `(φ_1…φ_m)`.
//! 5. **Computing payments** — every processor independently computes the
//!    DLS-BL payment vector `Q` and submits `S_{P_i}(P_i, Q)` to the
//!    referee, which checks all vectors for equality, fines the `x`
//!    processors with wrong vectors and rewards the rest `x·F/(m−x)`, then
//!    forwards `Q` to the payment infrastructure.
//!
//! ## What this crate provides
//!
//! * [`config`] — session and per-processor configuration, including the
//!   [`config::Behavior`] catalogue of deviant strategies (equivocators,
//!   misreporters, slackers, cheating originators, payment corrupters,
//!   false accusers).
//! * [`executor`] — the protocol round as explicit processor and referee
//!   state machines stepped by one deterministic loop on a virtual clock,
//!   over an in-memory transport that models the tamper-proof network
//!   with atomic broadcast; every message is counted (experiment E10,
//!   Theorem 5.4 Θ(m²)). [`run_session_vm`] runs one session.
//! * [`service`] — the supervised worker pool every batch or stream of
//!   sessions runs on: submit each config to a [`ServiceHandle`], then
//!   wait on the tickets.
//! * [`runtime`] — the session loop around the rounds (degraded re-runs,
//!   ledger, realized timeline) and the outcome and error types.
//! * [`referee`] — evidence types and adjudication, fines and reward
//!   distribution (Lemmas 5.1–5.2, Theorem 5.1).
//! * [`ledger`] — conservation-checked accounting of payments, fines and
//!   rewards.
//! * [`fault`] — liveness faults the paper assumes away: per-processor
//!   crash/omission/delay/garbage injection plans, deadline-bounded phase
//!   detection, and the per-session [`fault::DegradationReport`]. A
//!   defaulted participant is fined and re-solved around instead of
//!   stranding its peers at a phase barrier.
//!
//! ```no_run
//! use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
//! use dls_dlt::SystemModel;
//!
//! let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.2)
//!     .processor(ProcessorConfig::new(1.0, Behavior::Compliant))
//!     .processor(ProcessorConfig::new(2.0, Behavior::Misreport { factor: 1.5 }))
//!     .processor(ProcessorConfig::new(3.0, Behavior::Compliant))
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let outcome = dls_protocol::run_session_vm(&cfg).unwrap();
//! println!("status: {:?}", outcome.status);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod centralized;
pub mod config;
pub mod executor;
pub mod fault;
pub mod ledger;
pub mod messages;
pub mod multiload;
pub mod referee;
pub mod runtime;
pub mod sched;
pub mod service;
pub mod supervisor;

pub use config::{Behavior, ProcessorConfig, SessionConfig};
pub use executor::{run_session_vm, ProcessorState};
pub use multiload::{
    MultiLoadSession, MultiLoadSessionBuilder, MultiSessionError, MultiSessionOutcome,
};
pub use service::{
    AdmissionPolicy, Completed, Placement, ServiceConfig, ServiceError, ServiceHandle, StartError,
    SubmitError,
};
pub use supervisor::{ServiceFault, ServiceFaultPlan, ServiceStats};
pub use fault::{DegradationReport, FaultKind, FaultPlan, LivenessFault};
pub use runtime::{ProtocolViolation, RunError, SessionOutcome, SessionStatus, ViolationKind};
