//! The chain kernel: the one telescoped recursion behind every DLT solve
//! and every leave-one-out payment term, in `f64` and in exact rationals.
//!
//! ## The recursion (Algorithms 2.1/2.2)
//!
//! Equal finish times (Theorem 2.1) tie consecutive fractions together:
//! `α_{j+1} = k_j·α_j` with `k_j = w_j/(z + w_{j+1})` for CP and NCP-FE
//! (Eq. 7). The NCP-NFE originator `P_m` receives nothing over the bus, so
//! its incoming link is `w_{m−1}/w_m` instead (Eqs. 8–9). With `u_1 = 1`
//! the unnormalized fractions telescope,
//!
//! ```text
//! u_j = (w_1 ⋯ w_{j−1}) / ((z+w_2) ⋯ (z+w_j)),
//! ```
//!
//! `α = u/S` with `S = Σ_j u_j`, and the optimal makespan is `T = c(w_1)/S`,
//! where `c(x) = z + x` for CP and NCP-NFE and `c(x) = x` for NCP-FE.
//!
//! ## The leave-one-out splice
//!
//! The DLS-BL bonus needs `T(α(b_{-i}), b_{-i})` for every `i`. Removing a
//! middle agent `i` deletes the factor `w_i` from every later numerator
//! and `z + w_i` from every later denominator: it multiplies `u_j`, `j > i`,
//! by the neighbor-independent factor `ρ_i = (z + w_i)/w_i`. The reduced
//! normalizer is `S_{-i} = P_{i−1} + ρ_i·Q_{i+1}` with `P` the prefix and
//! `Q` the suffix sums of `u`. Order invariance (Theorem 2.2) keeps the
//! survivors in their original order, so only the endpoints need care: a
//! removed head changes the seed of the chain, and a removed NCP-NFE
//! originator turns the last link back into a plain one. Every term is
//! O(1) once the sums exist, so a whole payment vector is O(m).
//!
//! ## One kernel, three uses
//!
//! * [`ChainState::fractions_of`] runs the recursion once into a caller's
//!   buffer; [`crate::optimal::fractions`] and [`crate::exact::fractions`]
//!   are thin calls to it.
//! * [`ChainState`] keeps the link factors, `u` and the prefix sums alive
//!   between solves. In an auction consecutive solves differ in one bid,
//!   so [`ChainState::update_bid`] refreshes the (at most two) links that
//!   mention `w_i` and re-runs the recursion for `j ≥ max(i, 1)` only. The
//!   suffix sums serve only the payment queries
//!   ([`ChainState::makespan_without`]), so they are rebuilt lazily behind
//!   a dirty flag; a quote never pays for them.
//! * [`crate::LeaveOneOut`] is a chain whose suffix sums are built up
//!   front, so its queries take `&self`.
//!
//! The kernel is generic over its [`Scalar`]: `f64` on the payment hot
//! path and [`Rational`] for the exact certificate run the same code,
//! with the by-reference operator bounds of [`crate::bus::BusClock`].
//!
//! ## Bit-exactness contract
//!
//! Each cell comes from one expression (the link rule, `u_j = u_{j−1}·k_{j−1}`,
//! `p_j = p_{j−1} + u_j`, `s_j = s_{j+1} + u_j`) and IEEE-754 is
//! deterministic, so a spliced `f64` chain is **bit-identical** to
//! [`ChainState::new`] and [`crate::optimal::fractions`] on the final rates
//! (pinned by `engine_differential` with `f64::to_bits`).

use crate::exact::ExactParams;
use crate::model::{BusParams, SystemModel};
use dls_num::Rational;
use std::fmt;
use std::ops::{Add, Div, Mul};

/// A scalar the chain runs on, bound to the validated parameter set that
/// carries it: `f64` in [`BusParams`], [`Rational`] in [`ExactParams`].
/// `Default` is zero; arithmetic goes through by-reference operators.
pub trait Scalar: Clone + Default + fmt::Debug {
    /// The `(z, w)` parameter set over this scalar.
    type Params: Clone + fmt::Debug;
    /// The seed `u_0 = 1`.
    fn one() -> Self;
    /// The bus rate `z` and the processing rates `w`.
    fn rates(params: &Self::Params) -> (&Self, &[Self]);
    /// Replaces `w[i]`.
    ///
    /// # Panics
    /// Panics on an invalid rate.
    fn set_rate(params: &mut Self::Params, i: usize, w_i: Self);
    /// Parameters from raw parts, `None` when they do not form a market.
    fn params(z: Self, w: Vec<Self>) -> Option<Self::Params>;
    /// `self = max(self, other)`, the step of a running maximum. `f64`
    /// goes through [`f64::max`], so the `f64` payment maxima keep its
    /// bits.
    fn max_assign(&mut self, other: &Self);
}

impl Scalar for f64 {
    type Params = BusParams;
    fn one() -> Self {
        1.0
    }
    fn rates(params: &BusParams) -> (&f64, &[f64]) {
        params.rates()
    }
    fn set_rate(params: &mut BusParams, i: usize, w_i: f64) {
        params.set_rate(i, w_i);
    }
    fn params(z: f64, w: Vec<f64>) -> Option<BusParams> {
        BusParams::new(z, w).ok()
    }
    fn max_assign(&mut self, other: &f64) {
        *self = self.max(*other);
    }
}

impl Scalar for Rational {
    type Params = ExactParams;
    fn one() -> Self {
        Rational::one()
    }
    fn rates(params: &ExactParams) -> (&Rational, &[Rational]) {
        (&params.z, &params.w)
    }
    fn set_rate(params: &mut ExactParams, i: usize, w_i: Rational) {
        assert!(w_i.is_positive(), "invalid rate {w_i}");
        params.w[i] = w_i;
    }
    fn params(z: Rational, w: Vec<Rational>) -> Option<ExactParams> {
        (!w.is_empty()).then(|| ExactParams::new(z, w))
    }
    fn max_assign(&mut self, other: &Rational) {
        if *other > *self {
            *self = other.clone();
        }
    }
}

/// Cached chain products of one market: link factors, unnormalized
/// fractions, prefix sums, and (lazily) suffix sums.
///
/// Construction is O(m); [`ChainState::update_bid`] is O(m − i) with two
/// divisions; every query is allocation-free.
#[derive(Debug, Clone)]
pub struct ChainState<T: Scalar = f64> {
    model: SystemModel,
    params: T::Params,
    /// Link factors: `u[j+1] = u[j]·k[j]` (length `m − 1`).
    k: Vec<T>,
    /// Unnormalized fractions, `u[0] = 1`.
    u: Vec<T>,
    /// `prefix[j] = u[0] + … + u[j]`.
    prefix: Vec<T>,
    /// `suffix[j] = u[j] + … + u[m−1]`; valid iff `!suffix_dirty`.
    suffix: Vec<T>,
    suffix_dirty: bool,
}

impl ChainState<f64> {
    /// Builds the `f64` chain state for `params` in O(m).
    pub fn new(model: SystemModel, params: &BusParams) -> Self {
        Self::from_params(model, params.clone())
    }
}

impl<T: Scalar> ChainState<T>
where
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T> + Div<&'a T, Output = T>,
{
    /// Builds the chain state over `params` in O(m).
    pub fn from_params(model: SystemModel, params: T::Params) -> Self {
        let m = T::rates(&params).1.len();
        let mut state = ChainState {
            model,
            params,
            k: Vec::with_capacity(m.saturating_sub(1)),
            u: Vec::with_capacity(m),
            prefix: Vec::with_capacity(m),
            suffix: Vec::with_capacity(m),
            suffix_dirty: true,
        };
        state.rebuild();
        state
    }

    /// Writes the optimal fractions `α` for `params` into `out` (cleared
    /// first) in one pass of the recursion, with no allocation beyond
    /// `out`'s capacity and no chain kept.
    pub fn fractions_of(model: SystemModel, params: &T::Params, out: &mut Vec<T>) {
        let rates = T::rates(params);
        out.clear();
        out.push(T::one());
        let total = telescope(rates.1.len(), 1, out, T::one(), |j| link(model, rates, j), |_| {});
        normalize(out, &total);
    }

    /// The system model the chain was built for.
    pub fn model(&self) -> SystemModel {
        self.model
    }

    /// The current parameters (bids) behind the cached products.
    pub fn params(&self) -> &T::Params {
        &self.params
    }

    /// Number of processors `m`.
    pub fn m(&self) -> usize {
        self.u.len()
    }

    /// From-scratch recompute of every cached product into the retained
    /// buffers (no allocation once the buffers have grown). This is the
    /// reference path: [`ChainState::update_bid`] must agree with a
    /// `rebuild` on the same rates bit-for-bit.
    pub fn rebuild(&mut self) {
        let (model, rates) = (self.model, T::rates(&self.params));
        let (k, prefix) = (&mut self.k, &mut self.prefix);
        k.clear();
        prefix.clear();
        prefix.push(T::one());
        self.u.clear();
        self.u.push(T::one());
        let cell = |j| {
            let x = link(model, rates, j);
            k.push(x.clone());
            x
        };
        telescope(rates.1.len(), 1, &mut self.u, T::one(), cell, |p| prefix.push(p.clone()));
        self.suffix_dirty = true;
    }

    /// Replaces bid `i` and splices the cached products: refreshes the (at
    /// most two) link factors mentioning `w[i]`, then re-runs the
    /// product/prefix recursion for `j ≥ max(i, 1)` only. Suffix sums are
    /// invalidated, not recomputed (they are rebuilt lazily by the payment
    /// queries).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the new rate is invalid (as
    /// [`BusParams::with_rate`]); validated callers like
    /// [`crate::InstallmentScheduler::update_bid`] check first and return
    /// typed errors.
    pub fn update_bid(&mut self, i: usize, w_i: T) {
        let m = self.m();
        assert!(i < m, "processor index {i} out of range for m = {m}");
        T::set_rate(&mut self.params, i, w_i);
        let (model, rates) = (self.model, T::rates(&self.params));
        if i > 0 {
            self.k[i - 1] = link(model, rates, i - 1);
        }
        if i + 1 < m {
            self.k[i] = link(model, rates, i);
        }
        // u[0] = 1 never changes; everything from max(i, 1) is downstream
        // of a refreshed link.
        let from = i.max(1);
        let (k, prefix) = (&self.k, &mut self.prefix);
        prefix.truncate(from);
        let p = prefix[from - 1].clone();
        telescope(m, from, &mut self.u, p, |j| k[j].clone(), |p| prefix.push(p.clone()));
        self.suffix_dirty = true;
    }

    /// [`ChainState::update_bid`] followed by a full [`ChainState::rebuild`]
    /// — the from-scratch fallback path the incremental splice is
    /// differential-tested (and benchmarked) against.
    ///
    /// # Panics
    /// Same contract as [`ChainState::update_bid`].
    pub fn update_bid_rebuild(&mut self, i: usize, w_i: T) {
        let m = self.m();
        assert!(i < m, "processor index {i} out of range for m = {m}");
        T::set_rate(&mut self.params, i, w_i);
        self.rebuild();
    }

    /// Head cost `c(x)` of a multi-processor market whose first surviving
    /// processor has rate `x`: `z + x` for CP and NCP-NFE, `x` for NCP-FE
    /// (the FE originator computes while it transmits).
    fn head_cost(&self, x: &T) -> T {
        match self.model {
            SystemModel::NcpFe => x.clone(),
            SystemModel::Cp | SystemModel::NcpNfe => T::rates(&self.params).0 + x,
        }
    }

    /// Makespan of a one-processor market of rate `r`: `z + r` for CP (the
    /// control processor still sends the whole load), `r` for both NCP
    /// models (the lone processor holds it).
    fn solo(&self, r: &T) -> T {
        match self.model {
            SystemModel::Cp => T::rates(&self.params).0 + r,
            SystemModel::NcpFe | SystemModel::NcpNfe => r.clone(),
        }
    }

    /// Optimal makespan `T(α(b), b)` of the full market, O(1) from the
    /// cached prefix sums.
    pub fn optimal_makespan(&self) -> T {
        let (m, w) = (self.m(), T::rates(&self.params).1);
        if m == 1 {
            return self.solo(&w[0]);
        }
        &self.head_cost(&w[0]) / &self.prefix[m - 1]
    }

    /// Writes the optimal fractions `α(b)` into `out` (cleared first) with
    /// no allocation beyond `out`'s capacity. Equal to
    /// [`ChainState::fractions_of`] on the same rates (bit-identical in
    /// `f64`).
    pub fn fractions_into(&self, out: &mut Vec<T>) {
        out.clear();
        out.extend_from_slice(&self.u);
        normalize(out, &self.prefix[self.prefix.len() - 1]);
    }

    /// Rebuilds the suffix sums if a bid update invalidated them.
    pub(crate) fn ensure_suffix(&mut self) {
        if !self.suffix_dirty {
            return;
        }
        self.suffix.clear();
        self.suffix.extend_from_slice(&self.u);
        // s_j = s_{j+1} + u_j from s_m = 0 (exact: every u_j is positive).
        let mut s = T::default();
        for cell in self.suffix.iter_mut().rev() {
            s = &s + &*cell;
            *cell = s.clone();
        }
        self.suffix_dirty = false;
    }

    /// Optimal makespan of the market with processor `i` removed — the
    /// payment bonus term — in O(1) after the (lazy, O(m)) suffix rebuild.
    ///
    /// Returns `None` when `i` is out of range or no reduced market exists
    /// (`m ≤ 1`).
    pub fn makespan_without(&mut self, i: usize) -> Option<T> {
        self.ensure_suffix();
        self.without(i)
    }

    /// The leave-one-out splice over fresh suffix sums (see the module
    /// docs for the derivation).
    pub(crate) fn without(&self, i: usize) -> Option<T> {
        let (z, w) = T::rates(&self.params);
        let m = w.len();
        if m <= 1 || i >= m {
            return None;
        }
        if m == 2 {
            return Some(self.solo(&w[1 - i]));
        }
        // m ≥ 3 from here; the reduced market has ≥ 2 processors.
        if i == 0 {
            // New head is P_2: its chain is u[1..] verbatim (the shared
            // scale u[1] cancels between numerator and normalizer).
            return Some(&(&self.head_cost(&w[1]) * &self.u[1]) / &self.suffix[1]);
        }
        let s = if i == m - 1 && self.model == SystemModel::NcpNfe {
            // Removing the NFE originator promotes P_{m−1}: its incoming
            // link changes from the plain w_{m−2}/(z+w_{m−1}) to the
            // front-end-free w_{m−2}/w_{m−1}, so the stored u[m−2] is
            // rescaled by (z+w[m−2])/w[m−2] (0-based) while u[m−1] dies.
            let wl = &w[m - 2];
            &self.prefix[m - 3] + &(&(&self.u[m - 2] * &(z + wl)) / wl)
        } else if i == m - 1 {
            // CP/FE tail removal: the suffix is simply empty.
            self.prefix[i - 1].clone()
        } else {
            // Middle removal: every u[j], j > i, is scaled by ρ_i.
            let rho = &(z + &w[i]) / &w[i];
            &self.prefix[i - 1] + &(&rho * &self.suffix[i + 1])
        };
        Some(&self.head_cost(&w[0]) / &s)
    }
}

/// Link factor `k_j` between cells `j` and `j + 1`: `w_j/(z + w_{j+1})`,
/// except NCP-NFE's last link `w_{m−2}/w_{m−1}` into the front-end-free
/// originator.
fn link<T>(model: SystemModel, (z, w): (&T, &[T]), j: usize) -> T
where
    for<'a> &'a T: Add<&'a T, Output = T> + Div<&'a T, Output = T>,
{
    if model == SystemModel::NcpNfe && j + 2 == w.len() {
        &w[j] / &w[j + 1]
    } else {
        &w[j] / &(z + &w[j + 1])
    }
}

/// The telescoped recursion from cell `from ≥ 1` to `m − 1`:
/// `u_j = u_{j−1}·k_{j−1}` with `k_{j−1} = cell(j − 1)`, and
/// `p_j = p_{j−1} + u_j` starting from `p = p_{from−1}`, each handed to
/// `sum`. `u` keeps its first `from` cells; the rest are replaced.
/// Returns the full sum `p_{m−1}`.
fn telescope<T>(
    m: usize,
    from: usize,
    u: &mut Vec<T>,
    mut p: T,
    mut cell: impl FnMut(usize) -> T,
    mut sum: impl FnMut(&T),
) -> T
where
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T>,
{
    u.truncate(from);
    for j in from..m {
        let next = &u[j - 1] * &cell(j - 1);
        p = &p + &next;
        sum(&p);
        u.push(next);
    }
    p
}

/// Divides every cell of `u` by `total`.
fn normalize<T>(u: &mut [T], total: &T)
where
    for<'a> &'a T: Div<&'a T, Output = T>,
{
    for x in u.iter_mut() {
        *x = &*x / total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::loo::LeaveOneOut;
    use crate::model::ALL_MODELS;
    use crate::optimal;

    fn params(z: f64, w: &[f64]) -> BusParams {
        BusParams::new(z, w.to_vec()).unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn fresh_chain_matches_fractions_bitwise() {
        let p = params(0.3, &[1.0, 2.5, 0.8, 3.2, 1.7, 2.2]);
        for model in ALL_MODELS {
            let chain = ChainState::new(model, &p);
            let mut got = Vec::new();
            chain.fractions_into(&mut got);
            assert_eq!(bits(&got), bits(&optimal::fractions(model, &p)), "{model}");
        }
    }

    #[test]
    fn update_bid_matches_rebuild_bitwise() {
        let p = params(0.25, &[1.0, 2.0, 3.0, 1.5, 2.5]);
        for model in ALL_MODELS {
            for i in 0..5 {
                let mut inc = ChainState::new(model, &p);
                let mut full = ChainState::new(model, &p);
                inc.update_bid(i, 1.75);
                full.update_bid_rebuild(i, 1.75);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                inc.fractions_into(&mut a);
                full.fractions_into(&mut b);
                assert_eq!(bits(&a), bits(&b), "{model} i={i}");
                assert_eq!(
                    inc.optimal_makespan().to_bits(),
                    full.optimal_makespan().to_bits(),
                    "{model} i={i}"
                );
                for j in 0..5 {
                    assert_eq!(
                        inc.makespan_without(j).map(f64::to_bits),
                        full.makespan_without(j).map(f64::to_bits),
                        "{model} update {i} query {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_sequence_matches_from_scratch_bitwise() {
        // Many stacked updates must not drift from a fresh build on the
        // final rates — the cache never accumulates its own rounding.
        let p = params(0.2, &[1.0, 2.0, 3.0, 4.0]);
        for model in ALL_MODELS {
            let mut chain = ChainState::new(model, &p);
            let updates = [(2usize, 0.7), (0, 1.9), (3, 2.2), (1, 0.4), (3, 3.3)];
            let mut w = p.w().to_vec();
            for &(i, x) in &updates {
                chain.update_bid(i, x);
                w[i] = x;
            }
            let fresh = ChainState::new(model, &params(0.2, &w));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            chain.fractions_into(&mut a);
            fresh.fractions_into(&mut b);
            assert_eq!(bits(&a), bits(&b), "{model}");
        }
    }

    #[test]
    fn makespan_without_matches_leave_one_out_bitwise() {
        let p = params(0.3, &[1.0, 2.5, 0.8, 3.2, 1.7]);
        for model in ALL_MODELS {
            let mut chain = ChainState::new(model, &p);
            let loo = LeaveOneOut::new(model, p.z(), p.w().to_vec());
            for i in 0..p.m() {
                let fast = chain.makespan_without(i).unwrap();
                assert_eq!(Some(fast.to_bits()), loo.makespan_without(i).map(f64::to_bits));
                let naive = optimal::makespan_without_naive(model, &p, i).unwrap();
                assert!((fast - naive).abs() <= 1e-12 * naive, "{model} i={i}");
            }
            assert_eq!(Some(chain.optimal_makespan()), loo.optimal_makespan(), "{model}");
        }
    }

    #[test]
    fn head_and_tail_updates_refresh_special_links() {
        // Head updates touch only k[0]; NFE originator updates touch the
        // front-end-free last link. Both must match a fresh build.
        for model in ALL_MODELS {
            for &(i, x) in &[(0usize, 0.5), (2usize, 4.0)] {
                let p = params(0.4, &[1.0, 2.0, 3.0]);
                let mut chain = ChainState::new(model, &p);
                chain.update_bid(i, x);
                let fresh = ChainState::new(model, &p.with_rate(i, x));
                let (mut a, mut b) = (Vec::new(), Vec::new());
                chain.fractions_into(&mut a);
                fresh.fractions_into(&mut b);
                assert_eq!(bits(&a), bits(&b), "{model} i={i}");
            }
        }
    }

    #[test]
    fn tiny_markets() {
        for model in ALL_MODELS {
            // m = 1: no links; makespan tracks the lone rate.
            let mut one = ChainState::new(model, &params(0.5, &[3.0]));
            let expected = if model == SystemModel::Cp { 3.5 } else { 3.0 };
            assert_eq!(one.optimal_makespan(), expected, "{model}");
            assert_eq!(one.makespan_without(0), None);
            one.update_bid(0, 2.0);
            let expected = if model == SystemModel::Cp { 2.5 } else { 2.0 };
            assert_eq!(one.optimal_makespan(), expected, "{model}");

            // m = 2: removal leaves a solo market; updates hit both link
            // shapes (plain and NFE front-end-free).
            let mut two = ChainState::new(model, &params(1.0, &[2.0, 3.0]));
            let solo = if model == SystemModel::Cp { [4.0, 3.0] } else { [3.0, 2.0] };
            for (i, t) in solo.into_iter().enumerate() {
                assert_eq!(two.makespan_without(i), Some(t), "{model} i={i}");
            }
            two.update_bid(1, 4.0);
            let fresh = ChainState::new(model, &params(1.0, &[2.0, 4.0]));
            assert_eq!(
                two.optimal_makespan().to_bits(),
                fresh.optimal_makespan().to_bits(),
                "{model}"
            );
        }
    }

    /// The exact certificate: seeded splices on a `Rational` chain — head,
    /// tail (the NCP-NFE originator) and random slots — each checked
    /// against a fresh chain, Σα = 1, equal finish times (Theorem 2.1) and
    /// a from-scratch re-solve of every reduced market.
    #[test]
    fn exact_splices_are_certified() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let z = rat(1, 4);
        for model in ALL_MODELS {
            for m in [1usize, 2, 3, 5, 12] {
                let w = (0..m).map(|_| rat(4 + draw(37) as i64, 8)).collect();
                let mut chain =
                    ChainState::<Rational>::from_params(model, ExactParams::new(z.clone(), w));
                let mut slots = vec![0, m - 1];
                slots.extend((0..4).map(|_| draw(m as u64) as usize));
                for i in slots {
                    chain.update_bid(i, rat(4 + draw(37) as i64, 8));
                    let p = chain.params().clone();
                    let tag = format!("{model} m={m} i={i}");
                    let fresh = ChainState::<Rational>::from_params(model, p.clone());
                    assert_eq!((&chain.k, &chain.u), (&fresh.k, &fresh.u), "{tag}");
                    assert_eq!(chain.prefix, fresh.prefix, "{tag}");
                    let mut alpha = Vec::new();
                    chain.fractions_into(&mut alpha);
                    let sum = alpha.iter().fold(Rational::zero(), |s, a| &s + a);
                    assert_eq!(sum, Rational::one(), "{tag}");
                    let t = exact::finish_times(model, &p, &alpha);
                    assert!(t.iter().all(|x| *x == t[0]), "{tag}: {t:?}");
                    assert_eq!(chain.optimal_makespan(), t[0], "{tag}");
                    for j in 0..m {
                        let reduced = (m > 1).then(|| {
                            let mut r = p.w.clone();
                            r.remove(j);
                            exact::optimal_makespan(model, &ExactParams::new(z.clone(), r))
                        });
                        assert_eq!(chain.makespan_without(j), reduced, "{tag} without {j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_bid_rejects_bad_index() {
        let mut chain = ChainState::new(SystemModel::Cp, &params(0.2, &[1.0, 2.0]));
        chain.update_bid(2, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn update_bid_rejects_bad_rate() {
        let mut chain = ChainState::new(SystemModel::Cp, &params(0.2, &[1.0, 2.0]));
        chain.update_bid(0, f64::NAN);
    }
}
