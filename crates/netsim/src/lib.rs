//! # `dls-netsim` — bus-network schedule simulator
//!
//! An executor for divisible-load schedules on one-port bus networks.
//! Where `dls-dlt` computes finishing times from the closed-form equations
//! (Eqs. 1–3), this crate *runs* the schedule: the load originator
//! transmits fractions one at a time over a shared bus (one-port model)
//! and each processor starts computing when its data arrives.
//!
//! Two consumers:
//!
//! * **Validation** — the simulated finish times must agree with the closed
//!   forms to rounding error; integration tests and experiments E1–E3 rely
//!   on this cross-check.
//! * **Visualization** — the per-processor communication/computation
//!   [`Timeline`] regenerates the paper's Figures 1–3 as ASCII Gantt charts
//!   ([`gantt`]).
//!
//! The timing comes from one recurrence, `dls_dlt::bus::BusClock`, the
//! same kernel the multi-load pipeline runs: [`simulate`] pushes one load
//! through it and [`multiround`] one load per installment round. The
//! linear-network model ([`linear`]) has a link per hop rather than a
//! shared bus and walks the chain in one forward pass.
//!
//! ```
//! use dls_dlt::{BusParams, SystemModel, optimal};
//! use dls_netsim::{simulate, SessionSpec};
//!
//! let params = BusParams::new(0.2, vec![1.0, 2.0, 3.0]).unwrap();
//! let alloc = optimal::fractions(SystemModel::NcpFe, &params);
//! let timeline = simulate(&SessionSpec::new(SystemModel::NcpFe, params.clone(), alloc));
//! // The simulator agrees with the closed form.
//! let t_closed = dls_dlt::optimal::optimal_makespan(SystemModel::NcpFe, &params);
//! assert!((timeline.makespan - t_closed).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gantt;
pub mod linear;
pub mod multiround;
mod session;

pub use session::{simulate, ProcTimeline, Segment, SessionSpec, Timeline};
