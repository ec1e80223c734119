//! The referee: a minimally-trusted third party that stays passive until a
//! processor signals presumed cheating, then adjudicates from signed
//! evidence, levies fines and distributes the proceeds (§4).
//!
//! Unlike the control processor of DLS-BL, the referee holds **no**
//! processor parameters up front; everything it learns comes from verified
//! signatures presented as evidence (plus the tamper-proof meter readings
//! in the Processing phase).

use crate::blocks::DataSet;
use crate::messages::{
    is_processor_identity, BidBody, Evidence, PaymentEntry, PaymentVectorBody, PhaseReport, Verdict,
};
use dls_crypto::pki::{is_equivocation, Registry};
use dls_crypto::Signed;
use dls_dlt::{BusParams, SystemModel};
use std::collections::BTreeSet;

/// Protocol phase identifiers (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// All-to-all signed bid broadcast.
    Bidding,
    /// The originator distributes user-signed blocks.
    Allocating,
    /// Processors execute; the tamper-proof meter reports `φ_i`.
    Processing,
    /// Every processor submits its payment vector `Q`.
    Payments,
}

/// `true` when two payment vectors are the same, entry for entry, to the
/// bit (`f64::to_bits` equality of every compensation and bonus).
///
/// Payment vectors are compared bitwise, with no tolerance. Every honest
/// processor and the referee's recomputation call the same
/// `dls_mechanism::compute_payments` on the same agreed bids and meter
/// readings, and that computation uses only IEEE-754 `+ − × ÷`, so honest
/// vectors are identical bits. Any accepted difference is money a deviant
/// can skim: with a 1e-9 relative tolerance, P1 (whose vector the executor
/// settles on when all agree) could scale a payment by 1 + 5e-10 unfined.
pub fn payments_identical(a: &[PaymentEntry], b: &[PaymentEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.compensation.to_bits() == y.compensation.to_bits()
                && x.bonus.to_bits() == y.bonus.to_bits()
        })
}

/// Relative tolerance of [`payments_agree`].
///
/// Adjudication does not use it: the referee and the executor compare
/// payment vectors bitwise ([`payments_identical`]). It remains for
/// checks outside the protocol that compare a payment with a value
/// computed along a different floating-point path.
pub const PAYMENT_TOLERANCE: f64 = 1e-9;

/// `true` when two payment values agree within the magnitude-scaled
/// [`PAYMENT_TOLERANCE`] (absolute `1e-9` around zero, relative above 1).
///
/// Not a protocol check; see [`PAYMENT_TOLERANCE`].
pub fn payments_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= PAYMENT_TOLERANCE * 1f64.max(a.abs()).max(b.abs())
}

/// Errors the referee can surface instead of panicking mid-adjudication.
///
/// The referee is the one party every processor must be able to rely on;
/// a panic here would deadlock the session, so every failure mode is a
/// typed value the runtime converts into a session error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefereeError {
    /// The bids handed to payment adjudication do not form valid bus
    /// parameters (non-finite or non-positive). The runtime validates
    /// bids at receipt, so reaching this means the caller skipped that
    /// validation.
    InvalidAgreedBids,
}

impl std::fmt::Display for RefereeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefereeError::InvalidAgreedBids => {
                write!(f, "agreed bids do not form valid bus parameters")
            }
        }
    }
}

impl std::error::Error for RefereeError {}

/// Referee state for one session.
#[derive(Debug, Clone)]
pub struct Referee {
    registry: Registry,
    model: SystemModel,
    z: f64,
    m: usize,
    originator: Option<usize>,
    fine: f64,
    total_blocks: usize,
}

impl Referee {
    /// Sets up the referee with the public session facts (no processor
    /// parameters).
    pub fn new(
        registry: Registry,
        model: SystemModel,
        z: f64,
        m: usize,
        fine: f64,
        total_blocks: usize,
    ) -> Self {
        Referee {
            registry,
            model,
            z,
            m,
            originator: model.originator(m),
            fine,
            total_blocks,
        }
    }

    /// The fine `F`.
    pub fn fine(&self) -> f64 {
        self.fine
    }

    /// The PKI registry the referee verifies evidence against.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The system model.
    pub fn model(&self) -> SystemModel {
        self.model
    }

    /// The bus communication rate.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Builds the verdict for a set of deviants at a phase boundary:
    /// each deviant pays `F`; the pot `x·F` is split evenly among the
    /// `m − x` non-deviants; the protocol terminates iff `abort`.
    ///
    /// `pub(crate)` so the runtime can apply the same fine schedule to
    /// liveness defaulters (crash/omission faults produce no evidence a
    /// processor could submit, so the runtime reports them directly).
    pub(crate) fn verdict_for(&self, deviants: &BTreeSet<usize>, abort: bool) -> Verdict {
        if deviants.is_empty() {
            return Verdict::ok();
        }
        let x = deviants.len();
        let pot = self.fine * x as f64;
        let survivors: Vec<usize> = (0..self.m).filter(|i| !deviants.contains(i)).collect();
        let share = if survivors.is_empty() {
            0.0
        } else {
            pot / survivors.len() as f64
        };
        Verdict {
            proceed: !abort,
            fined: deviants.iter().map(|&i| (i, self.fine)).collect(),
            rewards: survivors.into_iter().map(|i| (i, share)).collect(),
        }
    }

    /// Adjudicates the Bidding phase: equivocation evidence must show two
    /// valid signatures from the accused over different bids. Unfounded
    /// accusations fine the accuser instead. Any fine aborts the session.
    pub fn adjudicate_bidding(&self, reports: &[(usize, PhaseReport)]) -> Verdict {
        let mut deviants = BTreeSet::new();
        for (reporter, report) in reports {
            let PhaseReport::Accuse { accused, evidence } = report else {
                continue;
            };
            match evidence.as_ref() {
                Evidence::Equivocation { first, second } => {
                    let substantiated = is_processor_identity(first.signer(), *accused)
                        && is_equivocation(first, second, &self.registry);
                    if substantiated {
                        deviants.insert(*accused);
                    } else {
                        deviants.insert(*reporter);
                    }
                }
                // Wrong evidence type for this phase: unfounded.
                Evidence::WrongAllocation { .. } => {
                    deviants.insert(*reporter);
                }
            }
        }
        self.verdict_for(&deviants, true)
    }

    /// Adjudicates the Allocating phase. For each accusation the referee:
    ///
    /// 1. verifies the reporter's signed bid view (all m signatures; an
    ///    inconsistent or unverifiable vector fines the *reporter*);
    /// 2. recomputes `α(b)` and the integer block allocation;
    /// 3. verifies the grant signature (it must come from the originator)
    ///    and checks every block against the user-signed data set;
    /// 4. fines the originator if the grant truly deviates, otherwise the
    ///    reporter (unsubstantiated claim).
    ///
    /// Any fine aborts the session.
    pub fn adjudicate_allocation(
        &self,
        reports: &[(usize, PhaseReport)],
        dataset: &DataSet,
    ) -> Verdict {
        let mut deviants = BTreeSet::new();
        for (reporter, report) in reports {
            let PhaseReport::Accuse { accused, evidence } = report else {
                continue;
            };
            let Evidence::WrongAllocation {
                grant,
                bid_view,
                expected_blocks: _,
            } = evidence.as_ref()
            else {
                deviants.insert(*reporter);
                continue;
            };
            match self.judge_allocation_claim(*reporter, *accused, grant, bid_view, dataset) {
                ClaimJudgement::OriginatorGuilty => {
                    deviants.insert(*accused);
                }
                ClaimJudgement::Unfounded => {
                    deviants.insert(*reporter);
                }
            }
        }
        self.verdict_for(&deviants, true)
    }

    fn judge_allocation_claim(
        &self,
        reporter: usize,
        accused: usize,
        grant: &Signed<crate::messages::GrantBody>,
        bid_view: &[Signed<BidBody>],
        dataset: &DataSet,
    ) -> ClaimJudgement {
        // The accused must be the originator — only it sends grants.
        if Some(accused) != self.originator {
            return ClaimJudgement::Unfounded;
        }
        // Verify the reporter's bid view: one valid bid per processor.
        let mut bids = vec![f64::NAN; self.m];
        if bid_view.len() != self.m {
            return ClaimJudgement::Unfounded;
        }
        for signed_bid in bid_view {
            let Ok(body) = signed_bid.verify(&self.registry) else {
                return ClaimJudgement::Unfounded;
            };
            if !is_processor_identity(signed_bid.signer(), body.processor) {
                return ClaimJudgement::Unfounded;
            }
            // Out-of-range processor indices and duplicate bids both make
            // the view inconsistent, which blames the reporter.
            match bids.get_mut(body.processor) {
                Some(slot) if slot.is_nan() => *slot = body.bid,
                _ => return ClaimJudgement::Unfounded,
            }
        }
        // The grant must verify and be addressed to the reporter.
        let Ok(grant_body) = grant.verify(&self.registry) else {
            return ClaimJudgement::Unfounded;
        };
        if !is_processor_identity(grant.signer(), accused) || grant_body.to != reporter {
            return ClaimJudgement::Unfounded;
        }
        // Recompute the allocation the originator should have sent.
        let Ok(params) = BusParams::new(self.z, bids) else {
            return ClaimJudgement::Unfounded;
        };
        let alpha = dls_dlt::optimal::fractions(self.model, &params);
        let counts = crate::blocks::integer_allocation(&alpha, self.total_blocks);
        let Some(&expected) = counts.get(reporter) else {
            return ClaimJudgement::Unfounded;
        };

        // Count only genuine blocks; duplicates and foreign blocks are not
        // part of a correct grant.
        let mut seen = BTreeSet::new();
        let mut genuine = 0usize;
        let mut bogus = false;
        for b in &grant_body.blocks {
            if dataset.contains(b, &self.registry) {
                if seen.insert(b.body_unverified().id) {
                    genuine += 1;
                } else {
                    bogus = true; // duplicated block
                }
            } else {
                bogus = true; // failed integrity / foreign block
            }
        }
        if bogus || genuine != expected {
            ClaimJudgement::OriginatorGuilty
        } else {
            ClaimJudgement::Unfounded
        }
    }

    /// Adjudicates the Computing Payments phase: verifies every signed
    /// vector, recomputes the correct `Q` from the (already agreed) bids
    /// and meters, fines every processor whose vector deviates, and
    /// returns the correct vector for the payment infrastructure.
    ///
    /// Per §4 the session still completes — work is already done — so the
    /// verdict proceeds even when fines are levied.
    ///
    /// # Errors
    ///
    /// Returns [`RefereeError::InvalidAgreedBids`] when `bids` cannot form
    /// valid bus parameters; the runtime validates bids at receipt, so an
    /// error here indicates a caller bug, not processor misbehavior.
    pub fn adjudicate_payments(
        &self,
        vectors: &[Signed<PaymentVectorBody>],
        bids: &[f64],
        observed: &[f64],
    ) -> Result<(Verdict, Vec<PaymentEntry>), RefereeError> {
        let params = BusParams::new(self.z, bids.to_vec())
            .map_err(|_| RefereeError::InvalidAgreedBids)?;
        let alloc = dls_dlt::optimal::fractions(self.model, &params);
        let correct: Vec<PaymentEntry> =
            dls_mechanism::compute_payments(self.model, &params, &alloc, observed)
                .into_iter()
                .map(PaymentEntry::from)
                .collect();

        let mut deviants = BTreeSet::new();
        let mut seen = vec![false; self.m];
        for sv in vectors {
            let Ok(body) = sv.verify(&self.registry) else {
                continue; // unverifiable vectors are ignored; absence fines below
            };
            if !is_processor_identity(sv.signer(), body.processor) {
                continue;
            }
            let Some(prev) = seen.get_mut(body.processor) else {
                continue; // out-of-range index: treated like an absent vector
            };
            if *prev {
                // Contradictory duplicates fine the sender (§4).
                deviants.insert(body.processor);
                continue;
            }
            *prev = true;
            if !payments_identical(&body.q, &correct) {
                deviants.insert(body.processor);
            }
        }
        for (i, s) in seen.iter().enumerate() {
            if !s {
                deviants.insert(i); // failed to submit a valid vector
            }
        }
        Ok((self.verdict_for(&deviants, false), correct))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClaimJudgement {
    OriginatorGuilty,
    Unfounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{integer_allocation, DataSet, USER_IDENTITY};
    use crate::messages::GrantBody;
    use dls_crypto::pki::KeyPair;
    use dls_crypto::rsa::MIN_MODULUS_BITS;
    use dls_crypto::VerifyCache;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        keys: Vec<KeyPair>,
        referee: Referee,
        dataset: DataSet,
        bids: Vec<f64>,
    }

    const BLOCKS: usize = 30;

    fn fixture(model: SystemModel) -> Fixture {
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<KeyPair> = (0..3)
            .map(|i| KeyPair::generate(format!("P{}", i + 1), MIN_MODULUS_BITS, &mut rng).unwrap())
            .collect();
        let user = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).unwrap();
        let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
        let referee = Referee::new(registry, model, 0.2, 3, 10.0, BLOCKS);
        let dataset = DataSet::prepare(&user, BLOCKS, 8).unwrap();
        Fixture {
            keys,
            referee,
            dataset,
            bids: vec![1.0, 2.0, 3.0],
        }
    }

    fn signed_bid(f: &Fixture, i: usize, bid: f64) -> Signed<BidBody> {
        f.keys[i].sign(BidBody { processor: i, bid }).unwrap()
    }

    fn bid_view(f: &Fixture) -> Vec<Signed<BidBody>> {
        (0..3).map(|i| signed_bid(f, i, f.bids[i])).collect()
    }

    /// The correct grant for `to` under the fixture bids.
    fn correct_grant(f: &Fixture, model: SystemModel, to: usize) -> Signed<GrantBody> {
        let params = BusParams::new(0.2, f.bids.clone()).unwrap();
        let alpha = dls_dlt::optimal::fractions(model, &params);
        let counts = integer_allocation(&alpha, BLOCKS);
        let grants = f.dataset.split(&counts);
        let orig = model.originator(3).unwrap();
        f.keys[orig]
            .sign(GrantBody {
                to,
                blocks: grants[to].clone(),
            })
            .unwrap()
    }

    // ------------------------- Bidding phase -------------------------

    #[test]
    fn bidding_no_reports_is_clean() {
        let f = fixture(SystemModel::NcpFe);
        let v = f
            .referee
            .adjudicate_bidding(&[(1, PhaseReport::Ok), (2, PhaseReport::Ok)]);
        assert_eq!(v, Verdict::ok());
    }

    #[test]
    fn bidding_equivocation_fines_equivocator() {
        let f = fixture(SystemModel::NcpFe);
        let first = signed_bid(&f, 0, 1.0);
        let second = signed_bid(&f, 0, 2.0);
        let v = f.referee.adjudicate_bidding(&[(
            1,
            PhaseReport::Accuse {
                accused: 0,
                evidence: Box::new(Evidence::Equivocation { first, second }),
            },
        )]);
        assert!(!v.proceed);
        assert_eq!(v.fined, vec![(0, 10.0)]);
        // Pot F split between the two survivors: F/(m-1) = 5 each.
        assert_eq!(v.rewards, vec![(1, 5.0), (2, 5.0)]);
    }

    #[test]
    fn bidding_unfounded_accusation_fines_accuser() {
        let f = fixture(SystemModel::NcpFe);
        // Same bid twice is not equivocation.
        let first = signed_bid(&f, 0, 1.0);
        let second = signed_bid(&f, 0, 1.0);
        let v = f.referee.adjudicate_bidding(&[(
            2,
            PhaseReport::Accuse {
                accused: 0,
                evidence: Box::new(Evidence::Equivocation { first, second }),
            },
        )]);
        assert!(!v.proceed);
        assert_eq!(v.fined, vec![(2, 10.0)]);
    }

    #[test]
    fn bidding_forged_evidence_fines_accuser() {
        let f = fixture(SystemModel::NcpFe);
        let first = signed_bid(&f, 0, 1.0);
        // Accuser forges the "second" bid itself.
        let second = f.keys[2]
            .sign(BidBody {
                processor: 0,
                bid: 9.0,
            })
            .unwrap();
        let second = Signed::forge(
            second.body_unverified().clone(),
            "P1",
            second.signature().0.clone(),
        );
        let v = f.referee.adjudicate_bidding(&[(
            2,
            PhaseReport::Accuse {
                accused: 0,
                evidence: Box::new(Evidence::Equivocation { first, second }),
            },
        )]);
        assert_eq!(v.fined, vec![(2, 10.0)]);
    }

    #[test]
    fn bidding_multiple_reports_single_fine() {
        let f = fixture(SystemModel::NcpFe);
        let mk = |reporter: usize| {
            (
                reporter,
                PhaseReport::Accuse {
                    accused: 0,
                    evidence: Box::new(Evidence::Equivocation {
                        first: signed_bid(&f, 0, 1.0),
                        second: signed_bid(&f, 0, 4.0),
                    }),
                },
            )
        };
        let v = f.referee.adjudicate_bidding(&[mk(1), mk(2)]);
        assert_eq!(v.fined, vec![(0, 10.0)]);
        assert_eq!(v.rewards.len(), 2);
    }

    // ------------------------- Allocating phase -------------------------

    #[test]
    fn allocation_correct_grant_fines_false_accuser() {
        let f = fixture(SystemModel::NcpFe);
        let grant = correct_grant(&f, SystemModel::NcpFe, 1);
        let v = f.referee.adjudicate_allocation(
            &[(
                1,
                PhaseReport::Accuse {
                    accused: 0,
                    evidence: Box::new(Evidence::WrongAllocation {
                        grant,
                        bid_view: bid_view(&f),
                        expected_blocks: 99,
                    }),
                },
            )],
            &f.dataset,
        );
        assert!(!v.proceed);
        assert_eq!(v.fined, vec![(1, 10.0)]);
    }

    #[test]
    fn allocation_short_grant_fines_originator() {
        let f = fixture(SystemModel::NcpFe);
        let full = correct_grant(&f, SystemModel::NcpFe, 1);
        let mut body = full.body_unverified().clone();
        body.blocks.pop(); // withhold one block
        let short = f.keys[0].sign(body).unwrap();
        let v = f.referee.adjudicate_allocation(
            &[(
                1,
                PhaseReport::Accuse {
                    accused: 0,
                    evidence: Box::new(Evidence::WrongAllocation {
                        grant: short,
                        bid_view: bid_view(&f),
                        expected_blocks: 0,
                    }),
                },
            )],
            &f.dataset,
        );
        assert_eq!(v.fined, vec![(0, 10.0)]);
        assert_eq!(v.rewards, vec![(1, 5.0), (2, 5.0)]);
    }

    #[test]
    fn allocation_duplicated_blocks_fine_originator() {
        let f = fixture(SystemModel::NcpFe);
        let full = correct_grant(&f, SystemModel::NcpFe, 1);
        let mut body = full.body_unverified().clone();
        let dup = body.blocks[0].clone();
        body.blocks.pop();
        body.blocks.push(dup); // same count, one block duplicated
        let padded = f.keys[0].sign(body).unwrap();
        let v = f.referee.adjudicate_allocation(
            &[(
                1,
                PhaseReport::Accuse {
                    accused: 0,
                    evidence: Box::new(Evidence::WrongAllocation {
                        grant: padded,
                        bid_view: bid_view(&f),
                        expected_blocks: 0,
                    }),
                },
            )],
            &f.dataset,
        );
        assert_eq!(v.fined, vec![(0, 10.0)]);
    }

    #[test]
    fn allocation_bad_bid_view_fines_reporter() {
        let f = fixture(SystemModel::NcpFe);
        let grant = correct_grant(&f, SystemModel::NcpFe, 1);
        // Reporter alters P3's bid inside its submitted view: signature
        // breaks, so the referee blames the reporter.
        let mut view = bid_view(&f);
        view[2] = view[2].clone().tamper(|mut b| {
            b.bid = 0.5;
            b
        });
        let v = f.referee.adjudicate_allocation(
            &[(
                1,
                PhaseReport::Accuse {
                    accused: 0,
                    evidence: Box::new(Evidence::WrongAllocation {
                        grant,
                        bid_view: view,
                        expected_blocks: 0,
                    }),
                },
            )],
            &f.dataset,
        );
        assert_eq!(v.fined, vec![(1, 10.0)]);
    }

    #[test]
    fn allocation_accusing_non_originator_is_unfounded() {
        let f = fixture(SystemModel::NcpFe);
        let grant = correct_grant(&f, SystemModel::NcpFe, 1);
        let v = f.referee.adjudicate_allocation(
            &[(
                1,
                PhaseReport::Accuse {
                    accused: 2, // P3 never sends grants
                    evidence: Box::new(Evidence::WrongAllocation {
                        grant,
                        bid_view: bid_view(&f),
                        expected_blocks: 0,
                    }),
                },
            )],
            &f.dataset,
        );
        assert_eq!(v.fined, vec![(1, 10.0)]);
    }

    // ------------------------- Payments phase -------------------------

    fn correct_q(f: &Fixture, model: SystemModel, observed: &[f64]) -> Vec<PaymentEntry> {
        let params = BusParams::new(0.2, f.bids.clone()).unwrap();
        let alloc = dls_dlt::optimal::fractions(model, &params);
        dls_mechanism::compute_payments(model, &params, &alloc, observed)
            .into_iter()
            .map(PaymentEntry::from)
            .collect()
    }

    #[test]
    fn payments_all_correct_proceeds_clean() {
        let f = fixture(SystemModel::NcpFe);
        let observed = f.bids.clone();
        let q = correct_q(&f, SystemModel::NcpFe, &observed);
        let vectors: Vec<_> = (0..3)
            .map(|i| {
                f.keys[i]
                    .sign(PaymentVectorBody {
                        processor: i,
                        q: q.clone(),
                    })
                    .unwrap()
            })
            .collect();
        let (v, correct) = f
            .referee
            .adjudicate_payments(&vectors, &f.bids, &observed)
            .unwrap();
        assert_eq!(v, Verdict::ok());
        assert_eq!(correct.len(), 3);
    }

    #[test]
    fn payments_corrupted_vector_fined_but_session_completes() {
        let f = fixture(SystemModel::NcpFe);
        let observed = f.bids.clone();
        let q = correct_q(&f, SystemModel::NcpFe, &observed);
        let mut bad_q = q.clone();
        bad_q[1].bonus *= 3.0;
        let vectors: Vec<_> = (0..3)
            .map(|i| {
                let body = PaymentVectorBody {
                    processor: i,
                    q: if i == 2 { bad_q.clone() } else { q.clone() },
                };
                f.keys[i].sign(body).unwrap()
            })
            .collect();
        let (v, correct) = f
            .referee
            .adjudicate_payments(&vectors, &f.bids, &observed)
            .unwrap();
        assert!(v.proceed, "payment-phase fines do not abort");
        assert_eq!(v.fined, vec![(2, 10.0)]);
        // x·F/(m−x) = 10/2 = 5 to each correct processor.
        assert_eq!(v.rewards, vec![(0, 5.0), (1, 5.0)]);
        // The forwarded vector is the correct one, not the corrupted one.
        assert!((correct[1].bonus - q[1].bonus).abs() < 1e-12);
    }

    #[test]
    fn payments_missing_vector_fined() {
        let f = fixture(SystemModel::NcpFe);
        let observed = f.bids.clone();
        let q = correct_q(&f, SystemModel::NcpFe, &observed);
        let vectors: Vec<_> = (0..2) // P3 never submits
            .map(|i| {
                f.keys[i]
                    .sign(PaymentVectorBody {
                        processor: i,
                        q: q.clone(),
                    })
                    .unwrap()
            })
            .collect();
        let (v, _) = f
            .referee
            .adjudicate_payments(&vectors, &f.bids, &observed)
            .unwrap();
        assert_eq!(v.fined, vec![(2, 10.0)]);
    }

    #[test]
    fn payments_contradictory_duplicates_fined() {
        let f = fixture(SystemModel::NcpFe);
        let observed = f.bids.clone();
        let q = correct_q(&f, SystemModel::NcpFe, &observed);
        let mut other = q.clone();
        other[0].compensation += 1.0;
        let vectors = vec![
            f.keys[0]
                .sign(PaymentVectorBody {
                    processor: 0,
                    q: q.clone(),
                })
                .unwrap(),
            f.keys[0]
                .sign(PaymentVectorBody {
                    processor: 0,
                    q: other,
                })
                .unwrap(),
            f.keys[1]
                .sign(PaymentVectorBody {
                    processor: 1,
                    q: q.clone(),
                })
                .unwrap(),
            f.keys[2]
                .sign(PaymentVectorBody {
                    processor: 2,
                    q: q.clone(),
                })
                .unwrap(),
        ];
        let (v, _) = f
            .referee
            .adjudicate_payments(&vectors, &f.bids, &observed)
            .unwrap();
        assert_eq!(v.fined, vec![(0, 10.0)]);
    }

    #[test]
    fn verdict_pot_accounting() {
        let f = fixture(SystemModel::NcpFe);
        let deviants: BTreeSet<usize> = [0, 1].into_iter().collect();
        let v = f.referee.verdict_for(&deviants, true);
        let fined: f64 = v.fined.iter().map(|(_, a)| a).sum();
        let rewarded: f64 = v.rewards.iter().map(|(_, a)| a).sum();
        assert_eq!(fined, 20.0);
        assert_eq!(rewarded, 20.0);
        assert_eq!(v.rewards, vec![(2, 20.0)]);
    }

    /// The next representable value above a positive finite `x` (what
    /// `f64::next_up` returns, spelled out for the workspace's MSRV).
    fn next_up(x: f64) -> f64 {
        assert!(x.is_finite() && x > 0.0);
        f64::from_bits(x.to_bits() + 1)
    }

    /// `m` processor keys plus the user's, and a referee over them.
    fn keyed_referee(m: usize, seed: u64, z: f64, fine: f64) -> (Vec<KeyPair>, Referee) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<KeyPair> = (0..m)
            .map(|i| KeyPair::generate(format!("P{}", i + 1), MIN_MODULUS_BITS, &mut rng).unwrap())
            .collect();
        let user = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).unwrap();
        let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
        let referee = Referee::new(registry, SystemModel::NcpFe, z, m, fine, BLOCKS);
        (keys, referee)
    }

    fn sign_vectors(keys: &[KeyPair], qs: &[&Vec<PaymentEntry>]) -> Vec<Signed<PaymentVectorBody>> {
        qs.iter()
            .enumerate()
            .map(|(i, q)| {
                keys[i]
                    .sign(PaymentVectorBody {
                        processor: i,
                        q: (*q).clone(),
                    })
                    .unwrap()
            })
            .collect()
    }

    fn payments_for(z: f64, bids: &[f64]) -> Vec<PaymentEntry> {
        let params = BusParams::new(z, bids.to_vec()).unwrap();
        let alpha = dls_dlt::optimal::fractions(SystemModel::NcpFe, &params);
        dls_mechanism::compute_payments(SystemModel::NcpFe, &params, &alpha, bids)
            .into_iter()
            .map(PaymentEntry::from)
            .collect()
    }

    #[test]
    fn payment_ulp_noise_is_fined_at_every_magnitude() {
        // Bitwise comparison: one ULP, or a sign flip of zero, is a
        // different vector.
        let q = vec![PaymentEntry {
            compensation: 1e12,
            bonus: 0.0,
        }];
        assert!(payments_identical(&q, &q.clone()));
        let mut moved = q.clone();
        moved[0].compensation = next_up(1e12);
        assert!(!payments_identical(&q, &moved));
        let mut negated = q.clone();
        negated[0].bonus = -0.0;
        assert!(!payments_identical(&q, &negated));
        assert!(!payments_identical(&q, &[]));

        // At large w/z honest payments land far above 1e9. Honest vectors
        // are the referee's own bits, so they pass; relative noise of
        // 1e-12 is fined on every vector that carries it.
        let (keys, referee) = keyed_referee(3, 29, 2.0e9, 1.0e15);
        let bids = vec![1.0e10, 2.0e10, 3.0e10];
        let correct = payments_for(2.0e9, &bids);
        assert!(
            correct.iter().any(|e| e.total().abs() > 1.0e9),
            "fixture must exercise the large-magnitude regime: {correct:?}"
        );
        let (verdict, _) = referee
            .adjudicate_payments(
                &sign_vectors(&keys, &[&correct, &correct, &correct]),
                &bids,
                &bids,
            )
            .unwrap();
        assert!(
            verdict.fined.is_empty(),
            "honest vectors fined: {:?}",
            verdict.fined
        );
        let noisy: Vec<PaymentEntry> = correct
            .iter()
            .map(|e| PaymentEntry {
                compensation: e.compensation * (1.0 + 1e-12),
                bonus: e.bonus * (1.0 + 1e-12),
            })
            .collect();
        let (verdict, _) = referee
            .adjudicate_payments(
                &sign_vectors(&keys, &[&correct, &noisy, &noisy]),
                &bids,
                &bids,
            )
            .unwrap();
        let fined: Vec<usize> = verdict.fined.iter().map(|&(i, _)| i).collect();
        assert_eq!(fined, vec![1, 2], "ULP-level noise at scale must be fined");
    }

    #[test]
    fn one_ulp_or_a_sub_tolerance_skim_is_fined_for_every_pair() {
        // Every (deviant, target) pair at m ∈ {2, 4, 8}: the deviant's
        // vector moves the target's compensation by one ULP or scales it
        // by 1 + 5e-10 (half the former tolerance). The referee fines
        // exactly the deviant, and the executor's all-equal check refuses
        // to settle on the vectors.
        for m in [2usize, 4, 8] {
            let (keys, referee) = keyed_referee(m, 40 + m as u64, 0.2, 10.0);
            let bids: Vec<f64> = (0..m).map(|i| 1.0 + 0.375 * i as f64).collect();
            let correct = payments_for(0.2, &bids);
            let cache = VerifyCache::new();
            for deviant in 0..m {
                for target in 0..m {
                    let skims: [fn(f64) -> f64; 2] = [next_up, |c| c * (1.0 + 5e-10)];
                    for skim in skims {
                        let mut bad = correct.clone();
                        bad[target].compensation = skim(bad[target].compensation);
                        assert!(!payments_identical(&bad, &correct));
                        let qs: Vec<&Vec<PaymentEntry>> = (0..m)
                            .map(|i| if i == deviant { &bad } else { &correct })
                            .collect();
                        let vectors = sign_vectors(&keys, &qs);
                        let (verdict, q) =
                            referee.adjudicate_payments(&vectors, &bids, &bids).unwrap();
                        let fined: Vec<usize> = verdict.fined.iter().map(|&(i, _)| i).collect();
                        assert_eq!(
                            fined,
                            vec![deviant],
                            "m {m} deviant {deviant} target {target}"
                        );
                        assert!(payments_identical(&q, &correct));
                        assert!(!crate::runtime::vectors_all_equal(
                            &vectors,
                            m,
                            &referee,
                            &cache,
                            crate::config::CryptoProfile::Amortized,
                        ));
                    }
                }
            }
            let honest = sign_vectors(&keys, &vec![&correct; m]);
            assert!(crate::runtime::vectors_all_equal(
                &honest,
                m,
                &referee,
                &cache,
                crate::config::CryptoProfile::Amortized,
            ));
        }
    }
}
