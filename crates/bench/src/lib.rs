//! Shared benchmark infrastructure: [`workloads`] hosts the deterministic
//! rate generators used by the Criterion benches, the experiment harness
//! and the integration tests; [`service`] hosts the always-on service
//! tail-latency sweep behind the committed `BENCH_service.json`. The
//! payment, auction-engine, session-batch and multi-load cost claims are
//! gated live in `tests/tests/scaling.rs` instead of by committed sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod service;
pub mod workloads;
