//! # `dls-netsim` — discrete-event bus-network simulator
//!
//! An independent executor for divisible-load schedules on one-port bus
//! networks. Where `dls-dlt` computes finishing times from the closed-form
//! equations (Eqs. 1–3), this crate *runs* the schedule: the load
//! originator transmits fractions one at a time over a shared bus
//! (one-port model) and each processor is a small state machine that starts
//! computing when its data arrives.
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
//! The event engine ([`engine`]) is a generic, deterministic
//! priority-queue DES kernel (FIFO tie-breaking) shared by this crate's
//! simulators ([`simulate`] and the linear-network model in [`linear`]).
//! The protocol crate does not use it: its executor resolves phase
//! barriers on its own `sched::EventQueue`.
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

pub mod engine;
pub mod gantt;
pub mod linear;
pub mod multiround;
mod session;

pub use session::{simulate, ProcTimeline, Segment, SessionSpec, Timeline};
