//! The DLS-BL market: agents, allocation, payments, utilities.

use dls_dlt::chain::Scalar;
use dls_dlt::{finish_times, finish_times_into, BusParams, ChainState, ParamError, SystemModel};
use serde::Serialize;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// One strategic processor: its private type, its report, and how it
/// actually executes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AgentSpec {
    /// True unit-processing time `w_i` (private type `t_i`).
    pub true_w: f64,
    /// Reported bid `b_i`.
    pub bid: f64,
    /// Observed execution rate `w̃_i`. Physically constrained to
    /// `w̃_i ≥ w_i` — a processor can stall but not overclock.
    pub exec_w: f64,
}

impl AgentSpec {
    /// A truthful, fully compliant agent: `b_i = w̃_i = w_i`.
    pub fn truthful(w: f64) -> Self {
        AgentSpec {
            true_w: w,
            bid: w,
            exec_w: w,
        }
    }

    /// An agent that misreports its capacity by `factor` (`> 1` feigns
    /// slowness, `< 1` feigns speed) but executes at its true rate —
    /// unless the bid claims it is *slower* than it is, in which case it
    /// must stall to match its own claim or run at full speed; we model the
    /// pure misreport (executes at true speed).
    pub fn misreporting(w: f64, factor: f64) -> Self {
        AgentSpec {
            true_w: w,
            bid: w * factor,
            exec_w: w,
        }
    }

    /// A truthful bidder that then executes `factor ≥ 1` slower than bid.
    pub fn slacking(w: f64, factor: f64) -> Self {
        AgentSpec {
            true_w: w,
            bid: w,
            exec_w: w * factor,
        }
    }

    /// `true` iff the agent reports truthfully and executes at full speed.
    pub fn is_compliant(&self) -> bool {
        self.bid == self.true_w && self.exec_w == self.true_w
    }
}

/// Invalid market specification.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketError {
    /// The underlying DLT parameters were invalid.
    Params(ParamError),
    /// An agent's `exec_w` violates the physical constraint `w̃_i ≥ w_i`.
    Overclocked {
        /// Offending agent (0-based).
        index: usize,
    },
    /// A non-finite or non-positive value in an agent spec.
    InvalidAgent {
        /// Offending agent (0-based).
        index: usize,
    },
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::Params(e) => write!(f, "{e}"),
            MarketError::Overclocked { index } => write!(
                f,
                "agent {index}: execution rate faster than true capacity (w̃ < w)"
            ),
            MarketError::InvalidAgent { index } => {
                write!(f, "agent {index}: rates must be finite and positive")
            }
        }
    }
}

impl std::error::Error for MarketError {}

impl From<ParamError> for MarketError {
    fn from(e: ParamError) -> Self {
        MarketError::Params(e)
    }
}

/// Payment handed to one processor, split per Eq. (12), in `f64` or in
/// exact rationals ([`crate::exact::ExactPayment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payment<T = f64> {
    /// `C_i = α_i·w̃_i` — reimbursement of incurred cost.
    pub compensation: T,
    /// `B_i = T(α(b_{-i}), b_{-i}) − T(α(b), (b_{-i}, w̃_i))`.
    pub bonus: T,
}

impl<T> Payment<T>
where
    for<'a> &'a T: Add<&'a T, Output = T>,
{
    /// Total payment `Q_i = C_i + B_i`.
    pub fn total(&self) -> T {
        &self.compensation + &self.bonus
    }
}

/// A fully specified DLS-BL market instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Market {
    model: SystemModel,
    z: f64,
    agents: Vec<AgentSpec>,
}

impl Market {
    /// Validates and constructs a market.
    pub fn new(
        model: SystemModel,
        z: f64,
        agents: Vec<AgentSpec>,
    ) -> Result<Self, MarketError> {
        for (index, a) in agents.iter().enumerate() {
            let vals = [a.true_w, a.bid, a.exec_w];
            if vals.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return Err(MarketError::InvalidAgent { index });
            }
            if a.exec_w < a.true_w {
                return Err(MarketError::Overclocked { index });
            }
        }
        // Validate the bid vector as DLT parameters up front.
        let _ = BusParams::new(z, agents.iter().map(|a| a.bid).collect::<Vec<_>>())?;
        Ok(Market { model, z, agents })
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.model
    }

    /// Bus communication rate.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The agents.
    pub fn agents(&self) -> &[AgentSpec] {
        &self.agents
    }

    /// Number of agents `m`.
    pub fn m(&self) -> usize {
        self.agents.len()
    }

    /// The bid vector `b`.
    pub fn bids(&self) -> Vec<f64> {
        self.agents.iter().map(|a| a.bid).collect()
    }

    /// The observed execution vector `w̃`.
    pub fn observed(&self) -> Vec<f64> {
        self.agents.iter().map(|a| a.exec_w).collect()
    }

    /// Runs the mechanism: allocation from bids, execution at observed
    /// rates, payments per Eq. (12).
    ///
    /// Single-pass over the `_into` APIs: the bid and observed vectors are
    /// moved into their [`BusParams`] (not cloned), and every intermediate
    /// vector is written exactly once into its output slot.
    pub fn run(&self) -> MechanismOutcome {
        let bid_params = BusParams::new(self.z, self.bids()).expect("validated in new()");
        let mut chain = ChainState::new(self.model, &bid_params);
        let mut alloc = Vec::with_capacity(self.m());
        chain.fractions_into(&mut alloc);

        // Actual session finish times: allocation from bids, but each
        // processor computing at its observed rate.
        let exec_params = BusParams::new(self.z, self.observed()).expect("validated in new()");
        let mut finish = Vec::with_capacity(self.m());
        finish_times_into(self.model, &exec_params, &alloc, &mut finish);
        let actual_makespan = finish.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        let mut payments = Vec::with_capacity(self.m());
        let mut scratch = PaymentScratch::default();
        compute_payments_into(&mut chain, &alloc, exec_params.w(), &mut scratch, &mut payments);

        MechanismOutcome {
            model: self.model,
            agents: self.agents.clone(),
            alloc,
            finish_times: finish,
            actual_makespan,
            payments,
        }
    }
}

/// Payments for every agent given the bid-derived allocation and the
/// observed execution rates. Exposed separately so the distributed protocol
/// (every processor recomputes `Q` in the Computing Payments phase) can call
/// the *identical* function the trusted mechanism would.
///
/// O(m) total for the whole vector: the first bonus terms come from one
/// shared [`ChainState`], and the second terms exploit that the
/// mixed schedule `(b_{-i}, w̃_i)` differs from the all-bids schedule in
/// exactly one finish time — `T_i` shifts by `α_i·(w̃_i − b_i)` while every
/// `T_j`, `j ≠ i`, is untouched — so precomputed prefix/suffix maxima of
/// the base finish times answer each makespan in O(1). The Θ(m²)
/// per-agent re-solve survives as [`compute_payments_naive`], the oracle the
/// differential tests compare against.
pub fn compute_payments(
    model: SystemModel,
    bid_params: &BusParams,
    alloc: &[f64],
    observed: &[f64],
) -> Vec<Payment> {
    let mut chain = ChainState::new(model, bid_params);
    let mut scratch = PaymentScratch::default();
    let mut out = Vec::with_capacity(bid_params.m());
    compute_payments_into(&mut chain, alloc, observed, &mut scratch, &mut out);
    out
}

/// Reusable intermediate buffers for [`compute_payments_into`]. One
/// instance amortizes every internal vector of the payment computation
/// across evaluations; after the first call of a given market size no
/// further allocation occurs.
#[derive(Debug, Clone, Default)]
pub struct PaymentScratch<T = f64> {
    /// Finish times of the all-bids schedule under the given allocation.
    base: Vec<T>,
    /// `prefix_max[i] = max(base[..=i])`.
    prefix_max: Vec<T>,
    /// `suffix_max[i] = max(base[i..])`.
    suffix_max: Vec<T>,
}

/// The payment kernel behind [`compute_payments`], [`Market::run`], the
/// multi-load engine and, over [`Rational`](dls_num::Rational),
/// [`crate::exact::compute_payments_exact`], writing into caller-owned
/// buffers. The bid-side chain products come from `chain` (whose cached
/// prefix/suffix sums answer each leave-one-out query in O(1)); in `f64`
/// the results are bit-identical to [`compute_payments`] on the same
/// inputs.
///
/// # Panics
/// Panics if `alloc` or `observed` disagree with `chain.m()` in length.
pub fn compute_payments_into<T: Scalar>(
    chain: &mut ChainState<T>,
    alloc: &[T],
    observed: &[T],
    scratch: &mut PaymentScratch<T>,
    out: &mut Vec<Payment<T>>,
) where
    for<'a> &'a T: Add<&'a T, Output = T>
        + Sub<&'a T, Output = T>
        + Mul<&'a T, Output = T>
        + Div<&'a T, Output = T>,
{
    let m = chain.m();
    assert_eq!(alloc.len(), m);
    assert_eq!(observed.len(), m);
    finish_times_into(chain.model(), chain.params(), alloc, &mut scratch.base);
    scratch.prefix_max.clear();
    scratch.prefix_max.extend_from_slice(&scratch.base);
    running_max(scratch.prefix_max.iter_mut());
    scratch.suffix_max.clear();
    scratch.suffix_max.extend_from_slice(&scratch.base);
    running_max(scratch.suffix_max.iter_mut().rev());
    out.clear();
    for i in 0..m {
        // First term: optimal time of the market without P_i — independent
        // of anything P_i reports or does. A single-agent market has no
        // reduced counterpart; the term is then the time of doing nothing
        // at all, i.e. the whole load unserved. We follow [9] and define it
        // as the solo processing time on an absent market = +∞
        // conceptually; practically the mechanism is only run with m ≥ 2
        // (the protocol requires peers), so we fall back to the agent's own
        // bid time to keep the math finite.
        let t_without = chain.makespan_without(i);
        let w = T::rates(chain.params()).1;
        let t_without = t_without.unwrap_or_else(|| &alloc[i] * &w[i]);
        let compensation = &alloc[i] * &observed[i];
        // Second term: the realized schedule, others at their bids, P_i
        // at its observed speed — only T_i moves, by α_i·(w̃_i − b_i), so
        // it is the max of P_i's shifted time and the others' maxima.
        let mut t_actual = &scratch.base[i] + &(&alloc[i] * &(&observed[i] - &w[i]));
        if i > 0 {
            t_actual.max_assign(&scratch.prefix_max[i - 1]);
        }
        if i + 1 < m {
            t_actual.max_assign(&scratch.suffix_max[i + 1]);
        }
        out.push(Payment {
            compensation,
            bonus: &t_without - &t_actual,
        });
    }
}

/// Turns the cells `xs` visits into their running maxima, in visiting
/// order.
fn running_max<'a, T: Scalar + 'a>(mut xs: impl Iterator<Item = &'a mut T>) {
    if let Some(mut prev) = xs.next() {
        for x in xs {
            x.max_assign(prev);
            prev = x;
        }
    }
}

/// The Θ(m²) payment computation: per-agent reduced-market re-solve plus a
/// full mixed-schedule makespan, Θ(m) each. Retained, in `f64` and (through
/// [`crate::exact::compute_payments_exact_naive`]) in exact rationals, as
/// the differential-test oracle for [`compute_payments_into`], with which
/// it shares only the chain recursion ([`ChainState::fractions_of`]) and
/// [`finish_times`].
///
/// # Panics
/// Panics if `alloc` or `observed` disagree with the market in length, or
/// an observed rate is not a valid rate.
pub fn compute_payments_naive<T: Scalar>(
    model: SystemModel,
    bid_params: &T::Params,
    alloc: &[T],
    observed: &[T],
) -> Vec<Payment<T>>
where
    for<'a> &'a T: Add<&'a T, Output = T>
        + Sub<&'a T, Output = T>
        + Mul<&'a T, Output = T>
        + Div<&'a T, Output = T>,
{
    let (z, w) = T::rates(bid_params);
    let m = w.len();
    assert_eq!(alloc.len(), m);
    assert_eq!(observed.len(), m);
    let market = |rates: Vec<T>| T::params(z.clone(), rates).expect("valid rates");
    let latest = |times: Vec<T>| {
        let mut times = times.into_iter();
        let mut max = times.next().expect("at least one processor");
        times.for_each(|t| max.max_assign(&t));
        max
    };
    (0..m)
        .map(|i| {
            let compensation = &alloc[i] * &observed[i];
            // Reduced market: the bids without P_i, solved from scratch.
            let t_without = if m == 1 {
                &alloc[i] * &w[i]
            } else {
                let mut reduced = w.to_vec();
                reduced.remove(i);
                let reduced = market(reduced);
                let mut fractions = Vec::with_capacity(m - 1);
                ChainState::fractions_of(model, &reduced, &mut fractions);
                latest(finish_times(model, &reduced, &fractions))
            };
            // Realized schedule: everyone at their bid, P_i at its observed
            // rate.
            let mut mixed = w.to_vec();
            mixed[i] = observed[i].clone();
            let t_actual = latest(finish_times(model, &market(mixed), alloc));
            Payment {
                compensation,
                bonus: &t_without - &t_actual,
            }
        })
        .collect()
}

/// Everything the mechanism produced for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismOutcome {
    model: SystemModel,
    agents: Vec<AgentSpec>,
    /// Allocation `α(b)` computed from the bids.
    pub alloc: Vec<f64>,
    /// Realized finish times (allocation from bids, observed speeds).
    pub finish_times: Vec<f64>,
    /// Realized total execution time.
    pub actual_makespan: f64,
    /// Per-agent payments.
    pub payments: Vec<Payment>,
}

impl MechanismOutcome {
    /// Agent `i`'s utility `U_i = Q_i + V_i = C_i + B_i − α_i·w̃_i = B_i`.
    pub fn utility(&self, i: usize) -> f64 {
        let valuation = -self.alloc[i] * self.agents[i].exec_w;
        self.payments[i].total() + valuation
    }

    /// Total amount the user is billed: `Σ Q_i`.
    pub fn user_bill(&self) -> f64 {
        self.payments.iter().map(Payment::total).sum()
    }

    /// The social cost the paper's mechanism minimizes under truthful play:
    /// the realized makespan.
    pub fn social_cost(&self) -> f64 {
        self.actual_makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_dlt::{optimal, ALL_MODELS};

    fn truthful_market(model: SystemModel) -> Market {
        Market::new(
            model,
            0.2,
            vec![
                AgentSpec::truthful(1.0),
                AgentSpec::truthful(2.0),
                AgentSpec::truthful(3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_overclocking() {
        let bad = AgentSpec {
            true_w: 2.0,
            bid: 2.0,
            exec_w: 1.5,
        };
        assert!(matches!(
            Market::new(SystemModel::Cp, 0.1, vec![AgentSpec::truthful(1.0), bad]),
            Err(MarketError::Overclocked { index: 1 })
        ));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let bad = AgentSpec {
            true_w: -1.0,
            bid: 1.0,
            exec_w: 1.0,
        };
        assert!(matches!(
            Market::new(SystemModel::Cp, 0.1, vec![bad]),
            Err(MarketError::InvalidAgent { index: 0 })
        ));
        assert!(matches!(
            Market::new(SystemModel::Cp, -0.5, vec![AgentSpec::truthful(1.0)]),
            Err(MarketError::Params(_))
        ));
    }

    #[test]
    fn truthful_utility_equals_bonus() {
        for model in ALL_MODELS {
            let out = truthful_market(model).run();
            for i in 0..3 {
                // U_i = B_i exactly: compensation cancels valuation.
                assert!(
                    (out.utility(i) - out.payments[i].bonus).abs() < 1e-12,
                    "{model} agent {i}"
                );
            }
        }
    }

    #[test]
    fn truthful_workers_get_nonnegative_utility() {
        for model in ALL_MODELS {
            let m = truthful_market(model);
            let out = m.run();
            for i in 0..3 {
                // Skip the NCP originator: its participation is structural
                // (it holds the load) and its bonus can be negative — the
                // voluntary-participation theorem covers workers.
                if model.originator(3) == Some(i) {
                    continue;
                }
                assert!(out.utility(i) >= -1e-12, "{model} agent {i}: {}", out.utility(i));
            }
        }
    }

    #[test]
    fn compensation_reimburses_incurred_cost() {
        let out = truthful_market(SystemModel::NcpFe).run();
        for i in 0..3 {
            // Truthful agents: C_i = α_i·w_i with w = (1, 2, 3).
            let expected = out.alloc[i] * (i + 1) as f64;
            assert!((out.payments[i].compensation - expected).abs() < 1e-12);
            assert!(out.payments[i].compensation > 0.0);
        }
    }

    #[test]
    fn slacking_reduces_utility() {
        for model in ALL_MODELS {
            let honest = truthful_market(model).run();
            let slacker = Market::new(
                model,
                0.2,
                vec![
                    AgentSpec::slacking(1.0, 2.0), // executes twice as slow
                    AgentSpec::truthful(2.0),
                    AgentSpec::truthful(3.0),
                ],
            )
            .unwrap()
            .run();
            assert!(
                slacker.utility(0) < honest.utility(0),
                "{model}: slacking should hurt ({} vs {})",
                slacker.utility(0),
                honest.utility(0)
            );
        }
    }

    #[test]
    fn overbidding_reduces_utility() {
        for model in ALL_MODELS {
            let honest = truthful_market(model).run();
            let liar = Market::new(
                model,
                0.2,
                vec![
                    AgentSpec::misreporting(1.0, 1.8),
                    AgentSpec::truthful(2.0),
                    AgentSpec::truthful(3.0),
                ],
            )
            .unwrap()
            .run();
            assert!(
                liar.utility(0) <= honest.utility(0) + 1e-12,
                "{model}: overbidding should not help ({} vs {})",
                liar.utility(0),
                honest.utility(0)
            );
        }
    }

    #[test]
    fn underbidding_reduces_utility() {
        // Claiming to be faster than you are gets you more load than you
        // can chew; the realized schedule is longer and the bonus smaller.
        for model in ALL_MODELS {
            let honest = truthful_market(model).run();
            let liar = Market::new(
                model,
                0.2,
                vec![
                    AgentSpec {
                        true_w: 1.0,
                        bid: 0.4,
                        exec_w: 1.0,
                    },
                    AgentSpec::truthful(2.0),
                    AgentSpec::truthful(3.0),
                ],
            )
            .unwrap()
            .run();
            assert!(
                liar.utility(0) <= honest.utility(0) + 1e-12,
                "{model}: underbidding should not help ({} vs {})",
                liar.utility(0),
                honest.utility(0)
            );
        }
    }

    #[test]
    fn realized_makespan_reflects_slow_execution() {
        let honest = truthful_market(SystemModel::Cp).run();
        let slacker = Market::new(
            SystemModel::Cp,
            0.2,
            vec![
                AgentSpec::slacking(1.0, 3.0),
                AgentSpec::truthful(2.0),
                AgentSpec::truthful(3.0),
            ],
        )
        .unwrap()
        .run();
        assert!(slacker.actual_makespan > honest.actual_makespan);
    }

    #[test]
    fn user_bill_covers_all_payments() {
        let out = truthful_market(SystemModel::NcpNfe).run();
        let manual: f64 = out.payments.iter().map(Payment::total).sum();
        assert!((out.user_bill() - manual).abs() < 1e-12);
        assert!(out.user_bill() > 0.0);
    }

    #[test]
    fn fast_payments_match_naive_oracle() {
        for model in ALL_MODELS {
            let market = Market::new(
                model,
                0.2,
                vec![
                    AgentSpec::misreporting(1.0, 1.5),
                    AgentSpec::truthful(2.0),
                    AgentSpec::slacking(1.5, 2.0),
                    AgentSpec::truthful(3.0),
                ],
            )
            .unwrap();
            let bid_params = BusParams::new(market.z(), market.bids()).unwrap();
            let alloc = optimal::fractions(model, &bid_params);
            let fast = compute_payments(model, &bid_params, &alloc, &market.observed());
            let naive = compute_payments_naive(model, &bid_params, &alloc, &market.observed());
            for (f, n) in fast.iter().zip(&naive) {
                assert!((f.compensation - n.compensation).abs() < 1e-12, "{model}");
                assert!((f.bonus - n.bonus).abs() < 1e-12, "{model}: {f:?} vs {n:?}");
            }
        }
    }

    #[test]
    fn payments_function_matches_market_run() {
        let m = truthful_market(SystemModel::NcpFe);
        let out = m.run();
        let bid_params = BusParams::new(m.z(), m.bids()).unwrap();
        let manual = compute_payments(m.model(), &bid_params, &out.alloc, &m.observed());
        assert_eq!(manual, out.payments);
    }
}
