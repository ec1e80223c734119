//! # `dls-dlt` — Divisible Load Theory core
//!
//! Implements §2 of Carroll & Grosu, *A Strategyproof Mechanism for
//! Scheduling Divisible Loads in Bus Networks without Control Processor*
//! (IPPS 2006): the three bus-network system models, their finishing-time
//! equations (Eqs. 1–3), and the closed-form optimal allocation algorithms
//! (Algorithms 2.1 and 2.2, plus the CP variant from the DLT literature).
//!
//! ## The three models
//!
//! A divisible load of (normalized) size 1 is split into fractions
//! `α = (α_1, …, α_m)`, `Σ α_i = 1`. Processor `P_i` computes a unit of load
//! in time `w_i`; the bus transmits a unit in time `z` (one-port model: only
//! one transmission at a time).
//!
//! * [`SystemModel::Cp`] — **BUS-LINEAR-CP**: a dedicated, computeless
//!   control processor `P_0` sends the fractions in order; every worker
//!   waits for its data:
//!   `T_i(α) = z·Σ_{j≤i} α_j + α_i·w_i` (Eq. 1).
//! * [`SystemModel::NcpFe`] — **BUS-LINEAR-NCP-FE**: no control processor;
//!   the load *originates at* `P_1`, which has a front end and computes
//!   while it transmits: `T_1 = α_1 w_1`,
//!   `T_i = z·Σ_{j≤i} α_j + α_i w_i` for `i ≥ 2` (Eq. 2; the `j = 1` term is
//!   excluded from the communication prefix because `P_1` never sends its
//!   own fraction over the bus — see [`finish_times`]).
//! * [`SystemModel::NcpNfe`] — **BUS-LINEAR-NCP-NFE**: the load originates
//!   at `P_m`, which has *no* front end and therefore computes only after
//!   finishing all sends: `T_i = z·Σ_{j≤i} α_j + α_i w_i` for `i < m`,
//!   `T_m = z·Σ_{j≤m−1} α_j + α_m w_m` (Eq. 3).
//!
//! ## Optimality
//!
//! * **Theorem 2.1** — the optimal allocation has every processor finish at
//!   the same instant. [`optimal::fractions`] returns that allocation;
//!   [`diagnostics::equal_finish_residual`] measures how far any allocation
//!   is from satisfying it.
//! * **Theorem 2.2** — the optimal makespan does not depend on the order in
//!   which the originator serves the processors.
//!   [`diagnostics::order_invariance_spread`] measures this empirically.
//!
//! Both f64 ([`optimal`]) and exact-rational ([`exact`]) solvers are
//! provided; the exact solver certifies the floating-point one in tests.
//!
//! ```
//! use dls_dlt::{BusParams, SystemModel, optimal, finish_times};
//!
//! let params = BusParams::new(0.2, vec![1.0, 2.0, 3.0]).unwrap();
//! let alpha = optimal::fractions(SystemModel::NcpFe, &params);
//! let times = finish_times(SystemModel::NcpFe, &params, &alpha);
//! // Theorem 2.1: everyone finishes together.
//! let spread = times.iter().cloned().fold(f64::MIN, f64::max)
//!     - times.iter().cloned().fold(f64::MAX, f64::min);
//! assert!(spread < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod chain;
pub mod diagnostics;
pub mod exact;
pub mod linear;
pub mod loo;
mod model;
pub mod multiload;
pub mod optimal;

pub use chain::ChainState;
pub use loo::LeaveOneOut;
pub use multiload::{
    pipeline_schedule, pipeline_schedule_exact, InstallmentScheduler, LoadSpec, MultiLoadError,
    PipelineSchedule,
};
pub use model::{
    finish_times, finish_times_into, makespan, BusParams, ParamError, SystemModel, ALL_MODELS,
};
