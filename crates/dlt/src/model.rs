//! System models and finishing-time equations (Eqs. 1–3).

use crate::chain::Scalar;
use serde::Serialize;
use std::fmt;
use std::ops::{Add, Mul};

/// Which bus-network system the load is scheduled on (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SystemModel {
    /// BUS-LINEAR-CP: dedicated control processor `P_0` distributes the
    /// load; all of `P_1..P_m` are workers.
    Cp,
    /// BUS-LINEAR-NCP-FE: no control processor; `P_1` holds the load and has
    /// a front end (overlaps its own computation with communication).
    NcpFe,
    /// BUS-LINEAR-NCP-NFE: no control processor; `P_m` holds the load and
    /// has no front end (computes only after all sends finish).
    NcpNfe,
}

/// All three models, in paper order — convenient for sweeps.
pub const ALL_MODELS: [SystemModel; 3] = [SystemModel::Cp, SystemModel::NcpFe, SystemModel::NcpNfe];

impl SystemModel {
    /// Index (0-based) of the load-originating processor among the `m`
    /// computing processors, or `None` for the CP model (the originator
    /// `P_0` computes nothing and is not part of the allocation vector).
    pub fn originator(&self, m: usize) -> Option<usize> {
        match self {
            SystemModel::Cp => None,
            SystemModel::NcpFe => Some(0),
            SystemModel::NcpNfe => Some(m.checked_sub(1).expect("m >= 1")),
        }
    }

    /// Short machine-readable name used in benchmark/experiment output.
    pub fn tag(&self) -> &'static str {
        match self {
            SystemModel::Cp => "cp",
            SystemModel::NcpFe => "ncp-fe",
            SystemModel::NcpNfe => "ncp-nfe",
        }
    }
}

impl fmt::Display for SystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemModel::Cp => write!(f, "BUS-LINEAR-CP"),
            SystemModel::NcpFe => write!(f, "BUS-LINEAR-NCP-FE"),
            SystemModel::NcpNfe => write!(f, "BUS-LINEAR-NCP-NFE"),
        }
    }
}

/// Invalid [`BusParams`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// No processors.
    NoProcessors,
    /// A processing rate was zero, negative, NaN or infinite.
    InvalidRate {
        /// Index of the offending processor (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The communication rate was negative, NaN or infinite.
    InvalidCommRate(f64),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NoProcessors => write!(f, "at least one processor is required"),
            ParamError::InvalidRate { index, value } => {
                write!(f, "processing rate w[{index}] = {value} must be finite and > 0")
            }
            ParamError::InvalidCommRate(z) => {
                write!(f, "communication rate z = {z} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Parameters of a bus network: communication rate `z` (time per unit load
/// on the bus) and per-processor computing rates `w_i` (time per unit load
/// on `P_i`). Processor indices are 0-based in code (`w[0]` is the paper's
/// `w_1`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BusParams {
    z: f64,
    w: Vec<f64>,
}

impl BusParams {
    /// Validates and constructs parameters.
    ///
    /// `z == 0` is allowed (an infinitely fast bus — useful as a degenerate
    /// case in tests); each `w_i` must be strictly positive and finite.
    pub fn new(z: f64, w: Vec<f64>) -> Result<Self, ParamError> {
        if w.is_empty() {
            return Err(ParamError::NoProcessors);
        }
        if !z.is_finite() || z < 0.0 {
            return Err(ParamError::InvalidCommRate(z));
        }
        for (index, &value) in w.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(ParamError::InvalidRate { index, value });
            }
        }
        Ok(BusParams { z, w })
    }

    /// Communication rate.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Processing rates (`w[i]` is the paper's `w_{i+1}`).
    pub fn w(&self) -> &[f64] {
        &self.w
    }

    /// Number of computing processors `m`.
    pub fn m(&self) -> usize {
        self.w.len()
    }

    /// `(z, w)` by reference, for the generic chain kernel.
    pub(crate) fn rates(&self) -> (&f64, &[f64]) {
        (&self.z, &self.w)
    }

    /// `true` iff the parameters are in the **classical DLT regime**
    /// `z < min_i w_i` (shipping a unit of load is cheaper than computing
    /// it anywhere).
    ///
    /// The optimality theorems of §2 implicitly assume this regime: outside
    /// it, full participation can *increase* the makespan in the NCP-NFE
    /// model (the originator delays its own computation to feed processors
    /// that are not worth feeding), so the equal-finish allocation is
    /// optimal only among full-participation schedules, not globally.
    pub fn in_dlt_regime(&self) -> bool {
        let min_w = self.w.iter().cloned().fold(f64::INFINITY, f64::min);
        self.z < min_w
    }

    /// Parameters with processor `i` removed — the *reduced market* used by
    /// the mechanism's bonus term `T(α(b_{-i}))`.
    ///
    /// Returns `None` when removal would leave an empty system.
    pub fn without(&self, i: usize) -> Option<BusParams> {
        if self.w.len() <= 1 || i >= self.w.len() {
            return None;
        }
        let mut w = self.w.clone();
        w.remove(i);
        Some(BusParams { z: self.z, w })
    }

    /// Parameters with `w[i]` replaced (used to evaluate an allocation under
    /// *observed* rather than bid rates: `T(α(b), (b_{-i}, w̃_i))`).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the new rate is invalid.
    pub fn with_rate(&self, i: usize, w_i: f64) -> BusParams {
        assert!(w_i.is_finite() && w_i > 0.0, "invalid rate {w_i}");
        let mut w = self.w.clone();
        w[i] = w_i;
        BusParams { z: self.z, w }
    }

    /// Replaces `w[i]` in place — the mutating counterpart of
    /// [`BusParams::with_rate`], used by the incremental chain cache
    /// ([`crate::ChainState`]) to avoid rebuilding the parameter vector on
    /// every bid update.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or the new rate is invalid (same
    /// contract as [`BusParams::with_rate`]).
    pub fn set_rate(&mut self, i: usize, w_i: f64) {
        assert!(w_i.is_finite() && w_i > 0.0, "invalid rate {w_i}");
        self.w[i] = w_i;
    }

    /// Parameters reordered by `perm` (`perm[k]` = old index of the
    /// processor now in position `k`). Used by order-invariance checks
    /// (Theorem 2.2).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..m`.
    pub fn permuted(&self, perm: &[usize]) -> BusParams {
        assert_eq!(perm.len(), self.w.len(), "permutation length mismatch");
        let mut seen = vec![false; self.w.len()];
        let w = perm
            .iter()
            .map(|&old| {
                assert!(!seen[old], "index {old} repeated in permutation");
                seen[old] = true;
                self.w[old]
            })
            .collect();
        BusParams { z: self.z, w }
    }
}

/// Finishing times `T_i(α)` for an arbitrary (not necessarily optimal)
/// allocation, per Eqs. (1)–(3).
///
/// The allocation need not sum to 1 — the equations are linear in `α` and
/// partial allocations arise in fault-injected protocol runs.
///
/// One subtlety for [`SystemModel::NcpFe`]: the paper writes
/// `T_i = z·Σ_{j≤i} α_j + α_i w_i` with the sum starting at `j = 1`, but
/// `P_1`'s own fraction never crosses the bus (the load is already there),
/// as Figure 2 shows — the first transmission on the bus is `α_2 z`. The
/// communication prefix therefore starts at `j = 2`. The same closed form
/// (Algorithm 2.1) solves both readings because only *differences* of
/// consecutive finish times constrain the optimum; we implement the
/// figure-accurate timing so the bus simulator and the closed
/// form agree exactly.
///
/// Generic over the [`Scalar`], so it is also [`crate::exact::finish_times`].
///
/// # Panics
/// Panics if `alloc.len() != params.m()`.
pub fn finish_times<T: Scalar>(
    model: SystemModel,
    params: &T::Params,
    alloc: &[T],
) -> Vec<T>
where
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T>,
{
    let mut times = Vec::with_capacity(alloc.len());
    finish_times_into(model, params, alloc, &mut times);
    times
}

/// [`finish_times`] writing into a caller-owned buffer (cleared first) —
/// the allocation-free variant used by the incremental auction engine's
/// re-solve path. Produces bit-identical values to [`finish_times`].
///
/// # Panics
/// Panics if `alloc.len() != params.m()`.
pub fn finish_times_into<T: Scalar>(
    model: SystemModel,
    params: &T::Params,
    alloc: &[T],
    times: &mut Vec<T>,
) where
    for<'a> &'a T: Add<&'a T, Output = T> + Mul<&'a T, Output = T>,
{
    let (z, w) = T::rates(params);
    let m = w.len();
    assert_eq!(alloc.len(), m, "allocation length mismatch");
    times.clear();
    // T_i = z·Σ α_j + α_i·w_i, summing the fractions sent so far. The
    // NCP-FE originator P_1 computes its own at once, from local data; the
    // NCP-NFE originator P_m sends α_1..α_{m−1}, then computes its own.
    let (first, sent) = match model {
        SystemModel::Cp => (0, m),
        SystemModel::NcpFe => (1, m),
        SystemModel::NcpNfe => (0, m.saturating_sub(1)),
    };
    if first == 1 {
        times.push(&alloc[0] * &w[0]);
    }
    let mut prefix = T::default();
    for (a, w_i) in alloc[first..sent].iter().zip(&w[first..sent]) {
        prefix = &prefix + a;
        times.push(&(z * &prefix) + &(a * w_i));
    }
    if sent < m {
        times.push(&(z * &prefix) + &(&alloc[sent] * &w[sent]));
    }
}

/// Total execution time `T(α) = max_i T_i(α)` of an allocation.
pub fn makespan(model: SystemModel, params: &BusParams, alloc: &[f64]) -> f64 {
    finish_times(model, params, alloc)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params3() -> BusParams {
        BusParams::new(0.5, vec![1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(matches!(
            BusParams::new(0.1, vec![]),
            Err(ParamError::NoProcessors)
        ));
        assert!(matches!(
            BusParams::new(0.1, vec![1.0, 0.0]),
            Err(ParamError::InvalidRate { index: 1, .. })
        ));
        assert!(matches!(
            BusParams::new(0.1, vec![1.0, -2.0]),
            Err(ParamError::InvalidRate { index: 1, .. })
        ));
        assert!(matches!(
            BusParams::new(0.1, vec![f64::NAN]),
            Err(ParamError::InvalidRate { index: 0, .. })
        ));
        assert!(matches!(
            BusParams::new(-0.1, vec![1.0]),
            Err(ParamError::InvalidCommRate(_))
        ));
        assert!(matches!(
            BusParams::new(f64::INFINITY, vec![1.0]),
            Err(ParamError::InvalidCommRate(_))
        ));
        assert!(BusParams::new(0.0, vec![1.0]).is_ok());
    }

    #[test]
    fn finish_times_cp_hand_computed() {
        // z=0.5, w=(1,2,4), α=(0.5, 0.3, 0.2):
        // T_1 = 0.5·0.5 + 0.5·1 = 0.75
        // T_2 = 0.5·0.8 + 0.3·2 = 1.0
        // T_3 = 0.5·1.0 + 0.2·4 = 1.3
        let t = finish_times(SystemModel::Cp, &params3(), &[0.5, 0.3, 0.2]);
        assert!((t[0] - 0.75).abs() < 1e-12);
        assert!((t[1] - 1.0).abs() < 1e-12);
        assert!((t[2] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn finish_times_ncp_fe_hand_computed() {
        // T_1 = 0.5·1 = 0.5 (no communication for the originator)
        // T_2 = 0.5·0.3 + 0.3·2 = 0.75
        // T_3 = 0.5·0.5 + 0.2·4 = 1.05
        let t = finish_times(SystemModel::NcpFe, &params3(), &[0.5, 0.3, 0.2]);
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[1] - 0.75).abs() < 1e-12);
        assert!((t[2] - 1.05).abs() < 1e-12);
    }

    #[test]
    fn finish_times_ncp_nfe_hand_computed() {
        // P_3 is the originator.
        // T_1 = 0.5·0.5 + 0.5·1 = 0.75
        // T_2 = 0.5·0.8 + 0.3·2 = 1.0
        // T_3 = 0.5·0.8 + 0.2·4 = 1.2   (prefix excludes α_3)
        let t = finish_times(SystemModel::NcpNfe, &params3(), &[0.5, 0.3, 0.2]);
        assert!((t[0] - 0.75).abs() < 1e-12);
        assert!((t[1] - 1.0).abs() < 1e-12);
        assert!((t[2] - 1.2).abs() < 1e-12);
    }

    #[test]
    fn single_processor() {
        let p = BusParams::new(0.5, vec![2.0]).unwrap();
        assert_eq!(finish_times(SystemModel::NcpFe, &p, &[1.0]), vec![2.0]);
        // NCP-NFE with m=1: originator computes everything, nothing is sent.
        assert_eq!(finish_times(SystemModel::NcpNfe, &p, &[1.0]), vec![2.0]);
        // CP: the single worker still receives its data over the bus.
        assert_eq!(finish_times(SystemModel::Cp, &p, &[1.0]), vec![2.5]);
    }

    #[test]
    fn makespan_is_max() {
        let p = params3();
        let a = [0.5, 0.3, 0.2];
        for model in ALL_MODELS {
            let t = finish_times(model, &p, &a);
            let expect = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(makespan(model, &p, &a), expect);
        }
    }

    #[test]
    fn originator_index() {
        assert_eq!(SystemModel::Cp.originator(5), None);
        assert_eq!(SystemModel::NcpFe.originator(5), Some(0));
        assert_eq!(SystemModel::NcpNfe.originator(5), Some(4));
    }

    #[test]
    fn without_reduces() {
        let p = params3();
        let q = p.without(1).unwrap();
        assert_eq!(q.w(), &[1.0, 4.0]);
        assert_eq!(q.z(), 0.5);
        assert!(p.without(3).is_none());
        let single = BusParams::new(0.1, vec![1.0]).unwrap();
        assert!(single.without(0).is_none());
    }

    #[test]
    fn with_rate_replaces() {
        let p = params3().with_rate(2, 8.0);
        assert_eq!(p.w(), &[1.0, 2.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn with_rate_rejects_nonpositive() {
        let _ = params3().with_rate(0, 0.0);
    }

    #[test]
    fn permuted_reorders() {
        let p = params3().permuted(&[2, 0, 1]);
        assert_eq!(p.w(), &[4.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn permuted_rejects_duplicates() {
        let _ = params3().permuted(&[0, 0, 1]);
    }

    #[test]
    fn zero_allocation_times() {
        // A processor allocated nothing finishes at its communication time
        // prefix — degenerate but well-defined.
        let t = finish_times(SystemModel::Cp, &params3(), &[0.0, 0.0, 0.0]);
        assert_eq!(t, vec![0.0, 0.0, 0.0]);
    }
}
