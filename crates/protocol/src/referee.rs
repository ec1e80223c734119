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

/// Tolerance used when comparing independently computed payment vectors.
/// All honest processors run the identical deterministic computation, so
/// honest disagreement is at most a few ULPs; anything beyond this is a
/// corrupted vector.
///
/// The tolerance is **relative**: a payment difference is accepted when it
/// is within `PAYMENT_TOLERANCE × max(1, |a|, |b|)` (see
/// [`payments_agree`]). An absolute `1e-9` cut-off breaks at large
/// `w`/`z`, where honest payments reach `1e9` and beyond and a few ULPs
/// of float noise already exceed it; scaling by the magnitude keeps the
/// check ULP-tight at every scale while remaining absolute (`1e-9`)
/// around zero.
pub const PAYMENT_TOLERANCE: f64 = 1e-9;

/// `true` when two independently computed payment values agree within the
/// magnitude-scaled [`PAYMENT_TOLERANCE`].
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
                .map(|p| PaymentEntry {
                    compensation: p.compensation,
                    bonus: p.bonus,
                })
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
            let ok = body.q.len() == correct.len()
                && body.q.iter().zip(&correct).all(|(a, b)| {
                    payments_agree(a.compensation, b.compensation)
                        && payments_agree(a.bonus, b.bonus)
                });
            if !ok {
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
            .map(|p| PaymentEntry {
                compensation: p.compensation,
                bonus: p.bonus,
            })
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

    #[test]
    fn payment_tolerance_scales_with_magnitude() {
        // Unit behaviour of the relative comparison: absolute 1e-9 around
        // zero, relative 1e-9 at scale.
        assert!(payments_agree(0.0, 5e-10));
        assert!(!payments_agree(0.0, 5e-9));
        assert!(payments_agree(1e12, 1e12 + 100.0));
        assert!(!payments_agree(1e12, 1.001e12));

        // Regression at large w/z: honest payments land far above 1e9,
        // where a few ULPs of float noise already exceed an absolute
        // 1e-9 cut-off. The scaled tolerance must accept ULP-level
        // relative noise and still fine a genuine corruption.
        let mut rng = StdRng::seed_from_u64(29);
        let keys: Vec<KeyPair> = (0..3)
            .map(|i| {
                KeyPair::generate(format!("P{}", i + 1), MIN_MODULUS_BITS, &mut rng).unwrap()
            })
            .collect();
        let user = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).unwrap();
        let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
        let bids = vec![1.0e10, 2.0e10, 3.0e10];
        let z = 2.0e9;
        let referee = Referee::new(registry, SystemModel::NcpFe, z, 3, 1.0e15, BLOCKS);
        let params = BusParams::new(z, bids.clone()).unwrap();
        let alpha = dls_dlt::optimal::fractions(SystemModel::NcpFe, &params);
        let correct: Vec<PaymentEntry> =
            dls_mechanism::compute_payments(SystemModel::NcpFe, &params, &alpha, &bids)
                .into_iter()
                .map(|p| PaymentEntry {
                    compensation: p.compensation,
                    bonus: p.bonus,
                })
                .collect();
        assert!(
            correct.iter().any(|e| e.total().abs() > 1.0e9),
            "fixture must exercise the large-magnitude regime: {correct:?}"
        );
        // Relative noise ~1e-12 (a few ULPs of a long float pipeline) is
        // absolute noise ~1e-3 here — fatal under the old absolute check.
        let noisy: Vec<PaymentEntry> = correct
            .iter()
            .map(|e| PaymentEntry {
                compensation: e.compensation * (1.0 + 1e-12),
                bonus: e.bonus * (1.0 + 1e-12),
            })
            .collect();
        let sign_all = |qs: [&Vec<PaymentEntry>; 3]| -> Vec<Signed<PaymentVectorBody>> {
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
        };
        let (verdict, _) = referee
            .adjudicate_payments(&sign_all([&noisy, &noisy, &noisy]), &bids, &bids)
            .unwrap();
        assert!(
            verdict.fined.is_empty(),
            "ULP-level noise at scale must not be fined: {:?}",
            verdict.fined
        );

        // A genuine corruption at the same scale is still caught.
        let mut corrupt = noisy.clone();
        corrupt[0].compensation *= 1.001;
        let (verdict, _) = referee
            .adjudicate_payments(&sign_all([&noisy, &corrupt, &noisy]), &bids, &bids)
            .unwrap();
        assert_eq!(verdict.fined.len(), 1);
        assert_eq!(verdict.fined[0].0, 1);
    }
}
