//! Linear (daisy-chain) network extension — the paper's stated future work
//! ("for future work, we are planning to investigate other network
//! architectures", §6).
//!
//! Topology: `P_1 − P_2 − … − P_m`, the load originating at the boundary
//! processor `P_1`. Link `i` (connecting `P_i` to `P_{i+1}`) moves one unit
//! of load in time `z_i`. Processors have front ends and use store-and-
//! forward: `P_i` keeps its own fraction and simultaneously forwards the
//! remaining tail `Σ_{j>i} α_j` down the chain while it computes.
//!
//! Equal-finish optimality (the linear-network analogue of Theorem 2.1)
//! gives the backward recursion
//!
//! ```text
//! α_i·w_i = z_i·Σ_{j>i} α_j + α_{i+1}·w_{i+1},   i = 1…m−1
//! ```
//!
//! solved in O(m) by accumulating the tail sum from the far end.

use serde::Serialize;
use std::fmt;

/// Parameters of a linear daisy-chain network.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinearParams {
    /// Per-link communication rates; `links[i]` connects `P_{i+1}` to
    /// `P_{i+2}` (0-based: link i is between processors i and i+1).
    /// Length `m − 1`.
    links: Vec<f64>,
    /// Per-processor computing rates, length `m`.
    w: Vec<f64>,
}

/// Invalid [`LinearParams`].
#[derive(Debug, Clone, PartialEq)]
pub enum LinearParamError {
    /// No processors.
    NoProcessors,
    /// `links.len() != w.len() - 1`.
    LinkCountMismatch {
        /// Provided links.
        links: usize,
        /// Provided processors.
        processors: usize,
    },
    /// A rate was non-finite or out of range.
    InvalidRate {
        /// Description of the offending parameter.
        what: &'static str,
        /// Index.
        index: usize,
    },
}

impl fmt::Display for LinearParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearParamError::NoProcessors => write!(f, "at least one processor required"),
            LinearParamError::LinkCountMismatch { links, processors } => write!(
                f,
                "{links} links cannot connect {processors} processors (need m-1)"
            ),
            LinearParamError::InvalidRate { what, index } => {
                write!(f, "invalid {what} at index {index}")
            }
        }
    }
}

impl std::error::Error for LinearParamError {}

impl LinearParams {
    /// Validated constructor. Links may be `0` (free links); processor
    /// rates must be strictly positive.
    pub fn new(links: Vec<f64>, w: Vec<f64>) -> Result<Self, LinearParamError> {
        if w.is_empty() {
            return Err(LinearParamError::NoProcessors);
        }
        if links.len() + 1 != w.len() {
            return Err(LinearParamError::LinkCountMismatch {
                links: links.len(),
                processors: w.len(),
            });
        }
        for (index, &z) in links.iter().enumerate() {
            if !z.is_finite() || z < 0.0 {
                return Err(LinearParamError::InvalidRate { what: "link rate", index });
            }
        }
        for (index, &x) in w.iter().enumerate() {
            if !x.is_finite() || x <= 0.0 {
                return Err(LinearParamError::InvalidRate {
                    what: "processing rate",
                    index,
                });
            }
        }
        Ok(LinearParams { links, w })
    }

    /// Uniform-link convenience constructor.
    pub fn uniform_links(z: f64, w: Vec<f64>) -> Result<Self, LinearParamError> {
        let links = vec![z; w.len().saturating_sub(1)];
        LinearParams::new(links, w)
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.w.len()
    }

    /// Per-link rates.
    pub fn links(&self) -> &[f64] {
        &self.links
    }

    /// Per-processor rates.
    pub fn w(&self) -> &[f64] {
        &self.w
    }
}

/// Optimal equal-finish fractions for the chain.
pub fn fractions(params: &LinearParams) -> Vec<f64> {
    let m = params.m();
    if m == 1 {
        return vec![1.0];
    }
    let w = params.w();
    let z = params.links();
    // Unnormalized backward pass: set α_m = 1, then
    // α_i = (z_i · tail + α_{i+1} w_{i+1}) / w_i, tail = Σ_{j>i} α_j.
    let mut alpha = vec![0.0; m];
    alpha[m - 1] = 1.0;
    let mut tail = 1.0;
    for i in (0..m - 1).rev() {
        alpha[i] = (z[i] * tail + alpha[i + 1] * w[i + 1]) / w[i];
        tail += alpha[i];
    }
    let total: f64 = alpha.iter().sum();
    for a in &mut alpha {
        *a /= total;
    }
    alpha
}

/// Arrival times `t_i` (when `P_i` has fully received its data) and finish
/// times `T_i = t_i + α_i·w_i` for an arbitrary allocation.
///
/// # Panics
/// Panics if `alloc.len() != params.m()`.
pub fn finish_times(params: &LinearParams, alloc: &[f64]) -> Vec<f64> {
    let m = params.m();
    assert_eq!(alloc.len(), m, "allocation length mismatch");
    let w = params.w();
    let z = params.links();
    let mut times = Vec::with_capacity(m);
    let mut arrival = 0.0;
    let mut tail: f64 = alloc.iter().sum();
    for i in 0..m {
        times.push(arrival + alloc[i] * w[i]);
        tail -= alloc[i];
        if i < m - 1 {
            // Forwarding the remaining tail down link i takes z_i·tail.
            arrival += z[i] * tail;
        }
    }
    times
}

/// Optimal makespan of the chain.
pub fn optimal_makespan(params: &LinearParams) -> f64 {
    let alpha = fractions(params);
    finish_times(params, &alpha)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LinearParams {
        LinearParams::new(vec![0.2, 0.3, 0.1], vec![1.0, 2.0, 1.5, 3.0]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(matches!(
            LinearParams::new(vec![], vec![]),
            Err(LinearParamError::NoProcessors)
        ));
        assert!(matches!(
            LinearParams::new(vec![0.1], vec![1.0, 2.0, 3.0]),
            Err(LinearParamError::LinkCountMismatch { .. })
        ));
        assert!(matches!(
            LinearParams::new(vec![-0.1], vec![1.0, 2.0]),
            Err(LinearParamError::InvalidRate { what: "link rate", .. })
        ));
        assert!(matches!(
            LinearParams::new(vec![0.1], vec![1.0, 0.0]),
            Err(LinearParamError::InvalidRate { what: "processing rate", .. })
        ));
        assert!(LinearParams::new(vec![], vec![2.0]).is_ok());
    }

    #[test]
    fn fractions_sum_to_one_and_positive() {
        let a = fractions(&sample());
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn equal_finish_at_optimum() {
        let p = sample();
        let a = fractions(&p);
        let t = finish_times(&p, &a);
        for x in &t {
            assert!((x - t[0]).abs() < 1e-12, "{t:?}");
        }
    }

    #[test]
    fn two_processor_hand_solved() {
        // α_1 w_1 = z α_2 + α_2 w_2 with z=1, w=(2,3):
        // 2 α_1 = 4 α_2 → α = (2/3, 1/3); T = 2·2/3 = 4/3.
        let p = LinearParams::new(vec![1.0], vec![2.0, 3.0]).unwrap();
        let a = fractions(&p);
        assert!((a[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((a[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((optimal_makespan(&p) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn chain_with_two_nodes_equals_ncp_fe_bus() {
        // With m = 2 the chain and the NCP-FE bus are the same machine:
        // one originator computing immediately, one link to the peer.
        let p_lin = LinearParams::new(vec![0.4], vec![1.0, 2.5]).unwrap();
        let p_bus = crate::BusParams::new(0.4, vec![1.0, 2.5]).unwrap();
        let a_lin = fractions(&p_lin);
        let a_bus = crate::optimal::fractions(crate::SystemModel::NcpFe, &p_bus);
        for (x, y) in a_lin.iter().zip(&a_bus) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(
            (optimal_makespan(&p_lin)
                - crate::optimal::optimal_makespan(crate::SystemModel::NcpFe, &p_bus))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn free_links_balance_by_speed() {
        // z = 0 everywhere: α_i ∝ 1/w_i like a free bus.
        let p = LinearParams::uniform_links(0.0, vec![1.0, 2.0, 4.0]).unwrap();
        let a = fractions(&p);
        assert!((a[0] - 4.0 / 7.0).abs() < 1e-12);
        assert!((a[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((a[2] - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn deep_chain_pays_more_than_bus() {
        // Same rates: a chain forwards the tail across EVERY hop, so with
        // equal per-hop and bus rates the chain's optimal makespan is no
        // better than the NCP-FE bus.
        let w = vec![1.0, 1.5, 2.0, 2.5, 3.0];
        let chain = LinearParams::uniform_links(0.25, w.clone()).unwrap();
        let bus = crate::BusParams::new(0.25, w).unwrap();
        let t_chain = optimal_makespan(&chain);
        let t_bus = crate::optimal::optimal_makespan(crate::SystemModel::NcpFe, &bus);
        assert!(t_chain >= t_bus - 1e-12, "{t_chain} vs {t_bus}");
    }

    #[test]
    fn single_processor() {
        let p = LinearParams::new(vec![], vec![2.0]).unwrap();
        assert_eq!(fractions(&p), vec![1.0]);
        assert_eq!(optimal_makespan(&p), 2.0);
    }

    #[test]
    fn uniform_allocation_suboptimal() {
        let p = sample();
        let uniform = vec![0.25; 4];
        let t_uniform = finish_times(&p, &uniform)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(t_uniform > optimal_makespan(&p));
    }
}
