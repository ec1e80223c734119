//! Centralized DLS-BL baseline: the bus **with** a trusted control
//! processor (`P_0`), i.e. the system of the authors' earlier ISPDC 2005
//! paper that DLS-BL-NCP removes the trust assumption from.
//!
//! `P_0` collects the signed bids, computes the allocation and the
//! payments itself, and distributes load and money. No referee, no
//! finking, no payment-vector cross-checking — and therefore only **Θ(m)**
//! messages instead of Θ(m²). Running both flavours on the same market is
//! experiment E12 ("the cost of decentralization").

use crate::blocks::{integer_allocation, DataSet, USER_IDENTITY};
use crate::config::{ProcessorConfig, SessionConfig};
use crate::messages::{BidBody, GrantBody, Msg, PaymentEntry, PaymentVectorBody};
use crate::runtime::{MessageStats, RunError};
use dls_crypto::pki::{KeyPair, Registry};
use dls_dlt::{BusParams, SystemModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a centralized (trusted `P_0`) DLS-BL session.
#[derive(Debug, Clone)]
pub struct CentralizedOutcome {
    /// Allocation computed by `P_0`.
    pub alloc: Vec<f64>,
    /// Blocks granted per processor.
    pub blocks_granted: Vec<usize>,
    /// Payments computed by `P_0`.
    pub payments: Vec<PaymentEntry>,
    /// Per-agent utilities (identical in expectation to the distributed
    /// protocol on compliant markets).
    pub utilities: Vec<f64>,
    /// Message accounting — Θ(m), the baseline for Theorem 5.4.
    pub messages: MessageStats,
}

/// Runs the DLS-BL mechanism with a trusted control processor on the same
/// configuration format as [`crate::executor::run_session_vm`].
///
/// Only the CP system model applies; the configuration's behaviours are
/// honoured for bids and execution speed (protocol offences like
/// equivocation are impossible against a trusted center and are treated as
/// plain truthful participation).
pub fn run_centralized(cfg: &SessionConfig) -> Result<CentralizedOutcome, RunError> {
    if cfg.model != SystemModel::Cp {
        return Err(RunError::UnsupportedModel);
    }
    let m = cfg.m();
    let mut stats = MessageStats::default();

    // PKI setup: processors and P_0's user key.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let keys: Vec<KeyPair> = (0..m)
        .map(|i| {
            KeyPair::generate(format!("P{}", i + 1), cfg.key_bits, &mut rng)
                .map_err(|e| RunError::Crypto(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    let user = KeyPair::generate(USER_IDENTITY, cfg.key_bits, &mut rng)
        .map_err(|e| RunError::Crypto(e.to_string()))?;
    let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
    let dataset = DataSet::prepare(&user, cfg.blocks, 32)
        .map_err(|e| RunError::Crypto(e.to_string()))?;

    // 1) Bids: each processor sends ONE signed bid to P_0 (m messages).
    let mut bids = Vec::with_capacity(m);
    for (i, p) in cfg.processors.iter().enumerate() {
        let bid = p.bid().unwrap_or(p.true_w);
        let msg = Msg::Bid(
            keys[i]
                .sign(BidBody { processor: i, bid })
                .map_err(|e| RunError::Crypto(e.to_string()))?,
        );
        record(&mut stats, &msg);
        // P_0 verifies before use.
        if let Msg::Bid(signed) = &msg {
            let body = signed
                .verify(&registry)
                .map_err(|e| RunError::Crypto(e.to_string()))?;
            bids.push(body.bid);
        }
    }

    // 2) P_0 computes the allocation and distributes blocks (m messages).
    let params = BusParams::new(cfg.z, bids.clone()).expect("validated bids");
    let alloc = dls_dlt::optimal::fractions(SystemModel::Cp, &params);
    let counts = integer_allocation(&alloc, cfg.blocks);
    let grants = dataset.split(&counts);
    for (i, blocks) in grants.iter().enumerate() {
        let msg = Msg::Grant(
            user.sign(GrantBody {
                to: i,
                blocks: blocks.clone(),
            })
            .map_err(|e| RunError::Crypto(e.to_string()))?,
        );
        record(&mut stats, &msg);
    }

    // 3) Execution: P_0 observes each processor's time (the verification
    //    step); one meter report per processor (m messages).
    let observed: Vec<f64> = cfg.processors.iter().map(ProcessorConfig::exec_w).collect();
    for (i, (&phi_rate, &a)) in observed.iter().zip(&alloc).enumerate() {
        record(
            &mut stats,
            &Msg::Meter {
                of: i,
                phi: a * phi_rate,
            },
        );
    }

    // 4) P_0 computes payments and sends each processor ITS entry — O(1)
    //    per processor, m messages total (the distributed protocol needs a
    //    full m-entry vector from every processor instead).
    let payments: Vec<PaymentEntry> =
        dls_mechanism::compute_payments(SystemModel::Cp, &params, &alloc, &observed)
            .into_iter()
            .map(PaymentEntry::from)
            .collect();
    for (i, entry) in payments.iter().enumerate() {
        let msg = Msg::PaymentVector(
            keys[i] // modelled as a single-entry signed receipt
                .sign(PaymentVectorBody {
                    processor: i,
                    q: vec![*entry],
                })
                .map_err(|e| RunError::Crypto(e.to_string()))?,
        );
        record(&mut stats, &msg);
    }

    let utilities: Vec<f64> = (0..m)
        .map(|i| payments[i].total() - alloc[i] * observed[i])
        .collect();

    Ok(CentralizedOutcome {
        alloc,
        blocks_granted: counts,
        payments,
        utilities,
        messages: stats,
    })
}

fn record(stats: &mut MessageStats, msg: &Msg) {
    stats.record(msg.category(), 1, msg.wire_size() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Behavior;

    fn cfg(m: usize) -> SessionConfig {
        SessionConfig::builder(SystemModel::Cp, 0.2)
            .processors((0..m).map(|i| {
                ProcessorConfig::new(1.0 + i as f64 * 0.5, Behavior::Compliant)
            }))
            .seed(4)
            .blocks(3 * m)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_ncp_models() {
        let bad = SessionConfig::builder(SystemModel::NcpFe, 0.2)
            .processors([1.0, 2.0].map(|w| ProcessorConfig::new(w, Behavior::Compliant)))
            .build()
            .unwrap();
        assert!(matches!(
            run_centralized(&bad),
            Err(RunError::UnsupportedModel)
        ));
    }

    #[test]
    fn produces_optimal_allocation_and_positive_utilities() {
        let out = run_centralized(&cfg(4)).unwrap();
        assert!((out.alloc.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(out.blocks_granted.iter().sum::<usize>(), 12);
        // CP has no structural originator: all truthful agents gain.
        assert!(out.utilities.iter().all(|&u| u >= -1e-9));
    }

    #[test]
    fn message_count_is_linear() {
        for m in [2usize, 4, 8] {
            let out = run_centralized(&cfg(m)).unwrap();
            // 4 message classes × m messages each.
            assert_eq!(out.messages.total_messages(), 4 * m as u64, "m={m}");
        }
    }

    #[test]
    fn payments_match_trusted_market() {
        use dls_mechanism::{AgentSpec, Market};
        let out = run_centralized(&cfg(3)).unwrap();
        let market = Market::new(
            SystemModel::Cp,
            0.2,
            (0..3)
                .map(|i| AgentSpec::truthful(1.0 + i as f64 * 0.5))
                .collect(),
        )
        .unwrap()
        .run();
        for i in 0..3 {
            assert!((out.payments[i].total() - market.payments[i].total()).abs() < 1e-12);
            assert!((out.utilities[i] - market.utility(i)).abs() < 1e-12);
        }
    }
}
