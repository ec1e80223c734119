//! # `dls-mechanism` — the DLS-BL mechanism with verification
//!
//! Implements §3 of Carroll & Grosu (IPPS 2006), which restates the DLS-BL
//! compensation-and-bonus mechanism of Grosu & Carroll (ISPDC 2005):
//!
//! Each processor `P_i` is a *one-parameter agent* whose private type is its
//! true unit-processing time `t_i = w_i`. It reports a bid `b_i` (possibly
//! `≠ w_i`) and later *executes* at an observed rate `w̃_i ≥ w_i` (a
//! processor can pretend to be slower than it is, never faster). The
//! mechanism with verification:
//!
//! 1. computes the allocation `α(b)` with the optimal DLT algorithm for the
//!    system model (Algorithms 2.1/2.2);
//! 2. observes the per-processor execution times `φ_i = α_i·w̃_i` (a
//!    tamper-proof meter) and recovers `w̃_i = φ_i / α_i`;
//! 3. pays `Q_i(b, w̃) = C_i + B_i` where
//!    * `C_i = α_i(b)·w̃_i` — **compensation**, reimbursing the cost the
//!      processor actually incurred (`V_i = −α_i·w̃_i`), and
//!    * `B_i = T(α(b_{-i}), b_{-i}) − T(α(b), (b_{-i}, w̃_i))` — **bonus**,
//!      the processor's marginal contribution to reducing the total
//!      execution time, evaluated at its *observed* speed.
//!
//! The resulting utility is `U_i = Q_i + V_i = B_i`. Since the first bonus
//! term does not depend on `P_i` at all, maximizing `U_i` means minimizing
//! `T(α(b), (b_{-i}, w̃_i))` — which the agent achieves exactly by bidding
//! its true `w_i` and executing at full speed (Theorem 3.1,
//! strategyproofness). Truthful workers get `U_i ≥ 0` (Theorem 3.2,
//! voluntary participation).
//!
//! [`validate`] provides exhaustive-sweep checkers for both theorems, used
//! by the test-suite and by the experiment harness (experiments E6/E7).
//!
//! ```
//! use dls_dlt::SystemModel;
//! use dls_mechanism::{AgentSpec, Market};
//!
//! // Three truthful processors on a bus with z = 0.2.
//! let market = Market::new(
//!     SystemModel::NcpFe,
//!     0.2,
//!     vec![
//!         AgentSpec::truthful(1.0),
//!         AgentSpec::truthful(2.0),
//!         AgentSpec::truthful(3.0),
//!     ],
//! ).unwrap();
//! let outcome = market.run();
//! // Voluntary participation: truthful agents never lose.
//! for i in 0..3 {
//!     assert!(outcome.utility(i) >= -1e-12);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exact;
mod market;
pub mod multiload;
pub mod validate;

pub use engine::{AuctionEngine, EngineError, Evaluation};
pub use multiload::{MultiLoadEngine, MultiLoadMarket, MultiLoadOutcome, MultiMarketError};
pub use market::{
    compute_payments, compute_payments_into, compute_payments_naive, AgentSpec, Market,
    MarketError, MechanismOutcome, Payment, PaymentScratch,
};
