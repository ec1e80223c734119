//! Protocol messages. Every body that crosses the (simulated) network is
//! wrapped in a [`Signed`] envelope, matching the paper's `S_β(m)` notation.

use crate::blocks::SignedBlock;
use dls_crypto::Signed;
use dls_mechanism::Payment;
use serde::Serialize;

/// A processor's signed bid `S_{P_i}(b_i, P_i)` (Bidding phase).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BidBody {
    /// 0-based processor index `i`.
    pub processor: usize,
    /// The reported unit-processing time `b_i`.
    pub bid: f64,
}

/// The load grant the originator sends to one processor (Allocating phase).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GrantBody {
    /// Recipient processor index.
    pub to: usize,
    /// The user-signed blocks assigned to the recipient.
    pub blocks: Vec<SignedBlock>,
}

/// One entry of the payment vector `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PaymentEntry {
    /// Compensation `C_i`.
    pub compensation: f64,
    /// Bonus `B_i`.
    pub bonus: f64,
}

impl PaymentEntry {
    /// Total payment `Q_i`.
    pub fn total(&self) -> f64 {
        self.compensation + self.bonus
    }
}

/// The wire form of a mechanism payment. A type of its own, because its
/// name and field order are part of the signed pre-image.
impl From<Payment> for PaymentEntry {
    fn from(p: Payment) -> Self {
        PaymentEntry {
            compensation: p.compensation,
            bonus: p.bonus,
        }
    }
}

/// A processor's signed payment vector `S_{P_i}(P_i, Q)` (Computing
/// Payments phase).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaymentVectorBody {
    /// Sender index.
    pub processor: usize,
    /// The full vector `Q = (Q_1 … Q_m)`.
    pub q: Vec<PaymentEntry>,
}

/// Evidence attached to a referee report.
#[derive(Debug, Clone)]
pub enum Evidence {
    /// Two authenticated, contradictory bids from the same processor
    /// (Bidding-phase offence).
    Equivocation {
        /// First signed bid.
        first: Signed<BidBody>,
        /// Second, different signed bid from the same signer.
        second: Signed<BidBody>,
    },
    /// The reporter's grant disagrees with the allocation it computed.
    /// Both parties' signed bid vectors allow the referee to recompute
    /// `α(b)`; the signed grant proves what the originator actually sent.
    WrongAllocation {
        /// The signed grant the reporter received.
        grant: Signed<GrantBody>,
        /// The signed bids the reporter collected (its view of `b`).
        bid_view: Vec<Signed<BidBody>>,
        /// Blocks the reporter expected (from its own α computation).
        expected_blocks: usize,
    },
}

/// A processor's end-of-phase message to the referee: either "no problem"
/// or an accusation with evidence.
#[derive(Debug, Clone)]
pub enum PhaseReport {
    /// Nothing to report.
    Ok,
    /// Accusation with evidence.
    Accuse {
        /// The accused processor.
        accused: usize,
        /// Supporting evidence, boxed so every other message stays small.
        evidence: Box<Evidence>,
    },
}

/// Everything a processor can put on the wire.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Broadcast signed bid.
    Bid(Signed<BidBody>),
    /// Unicast load grant from the originator.
    Grant(Signed<GrantBody>),
    /// Tamper-proof meter reading `φ_i` forwarded to the referee. This
    /// message is emitted by the *meter hardware*, not the strategic
    /// processor, so its value is outside the agent's control (§4,
    /// Processing phase).
    Meter {
        /// Metered processor.
        of: usize,
        /// Measured execution time `φ_i`.
        phi: f64,
    },
    /// Referee: per-processor measured execution times `(φ_1…φ_m)`.
    Meters(Vec<f64>),
    /// Signed payment vector to the referee.
    PaymentVector(Signed<PaymentVectorBody>),
    /// Referee → all: payment vectors disagreed; submit your signed bid
    /// views (§4: "the bids are provided to the referee which computes the
    /// payments").
    BidRequest,
    /// Processor → referee: its collected signed bid vector.
    BidView {
        /// Submitting processor.
        from: usize,
        /// The signed bids it collected during the Bidding phase.
        view: Vec<Signed<BidBody>>,
    },
    /// End-of-phase report to the referee.
    Report {
        /// Reporting processor.
        from: usize,
        /// The report.
        report: PhaseReport,
    },
    /// Referee verdict broadcast after each phase.
    Verdict(Verdict),
    /// A syntactically invalid payload (failed deserialization / garbage
    /// signature envelope). Receivers drop it at receipt, exactly like a
    /// message that fails verification (§4); the referee additionally
    /// remembers who sent it so a garbage fault is classified as such
    /// rather than as plain silence.
    Garbage {
        /// Claimed sender.
        from: usize,
    },
}

impl Msg {
    /// Rough wire size in bytes: canonical body bytes (each envelope's
    /// memoized encoded length) + signature, or a fixed overhead for
    /// unsigned control messages. Used by the
    /// communication-complexity accounting (Theorem 5.4).
    pub fn wire_size(&self) -> usize {
        fn signed_size<T: Serialize>(s: &Signed<T>) -> usize {
            s.encoded_len().unwrap_or(0) + s.signature().0.len()
        }
        match self {
            Msg::Bid(s) => signed_size(s),
            Msg::Grant(s) => signed_size(s),
            Msg::Meter { .. } => 16,
            Msg::Meters(v) => 8 * v.len() + 8,
            Msg::PaymentVector(s) => signed_size(s),
            Msg::BidRequest => 8,
            Msg::BidView { view, .. } => {
                8 + view.iter().map(signed_size).sum::<usize>()
            }
            Msg::Report { report, .. } => match report {
                PhaseReport::Ok => 16,
                PhaseReport::Accuse { evidence, .. } => match evidence.as_ref() {
                    Evidence::Equivocation { first, second } => {
                        16 + signed_size(first) + signed_size(second)
                    }
                    Evidence::WrongAllocation {
                        grant, bid_view, ..
                    } => {
                        16 + signed_size(grant)
                            + bid_view.iter().map(signed_size).sum::<usize>()
                    }
                },
            },
            Msg::Verdict(v) => 16 + 16 * (v.fined.len() + v.rewards.len()),
            // An opaque blob the size of a small signed frame.
            Msg::Garbage { .. } => 48,
        }
    }

    /// Category for the per-phase communication accounting.
    pub fn category(&self) -> MsgCategory {
        match self {
            Msg::Bid(_) => MsgCategory::Bid,
            Msg::Grant(_) => MsgCategory::Grant,
            Msg::Meter { .. } | Msg::Meters(_) => MsgCategory::Control,
            Msg::PaymentVector(_) => MsgCategory::PaymentVector,
            Msg::BidRequest | Msg::BidView { .. } => MsgCategory::Control,
            Msg::Report { .. } => MsgCategory::Control,
            Msg::Verdict(_) => MsgCategory::Control,
            Msg::Garbage { .. } => MsgCategory::Control,
        }
    }
}

/// `true` iff `signer` is processor `i`'s registered identity, `P{i+1}` —
/// exactly the strings `signer == format!("P{}", i + 1)` accepts, without
/// allocating. `i + 1` is compared in `u128`, so `usize::MAX` has an
/// identity (`P18446744073709551616` on 64-bit targets) instead of
/// overflowing.
pub fn is_processor_identity(signer: &str, i: usize) -> bool {
    let Some(digits) = signer.strip_prefix('P') else {
        return false;
    };
    // No sign, no leading zero, nothing but ASCII digits.
    if digits.is_empty() || digits.starts_with('0') {
        return false;
    }
    let mut value: u128 = 0;
    for c in digits.chars() {
        let Some(next) = c
            .to_digit(10)
            .and_then(|d| value.checked_mul(10)?.checked_add(u128::from(d)))
        else {
            return false;
        };
        value = next;
    }
    u128::try_from(i).is_ok_and(|i| i.checked_add(1) == Some(value))
}

/// Coarse message classes used by experiment E10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgCategory {
    /// Bidding-phase broadcasts (Θ(m²) deliveries).
    Bid,
    /// Load grants (Θ(m) messages, payload ∝ blocks).
    Grant,
    /// Payment vectors (Θ(m) messages × Θ(m) size = Θ(m²) cost — the
    /// dominant term of Theorem 5.4).
    PaymentVector,
    /// Referee coordination (reports, verdicts, meters).
    Control,
}

/// The referee's decision at a phase boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the protocol continues to the next phase.
    pub proceed: bool,
    /// Processors fined in this phase and the amount each pays.
    pub fined: Vec<(usize, f64)>,
    /// Rewards/compensation paid out of the fine pool `(processor,
    /// amount)`.
    pub rewards: Vec<(usize, f64)>,
}

impl Verdict {
    /// The all-clear verdict.
    pub fn ok() -> Self {
        Verdict {
            proceed: true,
            fined: Vec::new(),
            rewards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payment_entry_total() {
        let e = PaymentEntry {
            compensation: 1.5,
            bonus: -0.25,
        };
        assert_eq!(e.total(), 1.25);
    }

    #[test]
    fn verdict_ok_proceeds() {
        let v = Verdict::ok();
        assert!(v.proceed);
        assert!(v.fined.is_empty());
    }

    #[test]
    fn wire_sizes_positive_and_ordered() {
        let meters = Msg::Meters(vec![1.0; 8]);
        assert!(meters.wire_size() > 0);
        let big = Msg::Meters(vec![1.0; 64]);
        assert!(big.wire_size() > meters.wire_size());
    }

    // Encoded sizes from the canonical tag layout, written out by hand so
    // the size oracle below shares no code with the encoder: a tag is one
    // byte, lengths and counts are u64 (8 bytes), a string is its length
    // plus its bytes, a byte string is tag + length + raw bytes.
    const TAG: usize = 1;
    const U64: usize = 8;
    fn string(s: &str) -> usize {
        U64 + s.len()
    }
    fn struct_header(name: &str) -> usize {
        TAG + string(name) + U64
    }
    fn byte_string(n: usize) -> usize {
        TAG + U64 + n
    }
    /// `Signed { body, signer, signature }` around a `body_len`-byte body.
    fn envelope(body_len: usize, signer: &str, sig_len: usize) -> usize {
        struct_header("Signed")
            + string("body")
            + body_len
            + string("signer")
            + TAG
            + string(signer)
            + string("signature")
            + byte_string(sig_len)
    }

    fn signed_block(id: u64, payload: usize, sig: usize) -> SignedBlock {
        let block = crate::blocks::Block {
            id,
            payload: vec![0x5a; payload],
        };
        Signed::forge(block, crate::blocks::USER_IDENTITY, vec![0xab; sig])
    }

    #[test]
    fn signed_block_costs_one_byte_per_payload_and_signature_byte() {
        // Block { id: u64, payload: bytes }.
        let block = |p: usize| {
            struct_header("Block") + string("id") + TAG + U64 + string("payload") + byte_string(p)
        };
        let c = envelope(block(0), crate::blocks::USER_IDENTITY, 0);
        assert_eq!(c, 153, "hand-derived constant for the \"user\" signer");
        for (p, k) in [(0, 0), (1, 48), (16, 64), (64, 48), (200, 128)] {
            let env = signed_block(7, p, k);
            let encoded = dls_crypto::canon::to_bytes(&env).expect("encodes");
            assert_eq!(encoded.len(), p + k + c, "payload {p}, signature {k}");
            assert_eq!(env.encoded_len().expect("encodes"), block(p));
        }
    }

    #[test]
    fn grant_size_is_linear_in_its_block_count() {
        let (p, k) = (16, 48);
        let per_block = p + k + 153;
        // GrantBody { to: usize, blocks: seq of signed blocks, END }.
        let grant = |b: usize| {
            struct_header("GrantBody")
                + string("to")
                + TAG
                + U64
                + string("blocks")
                + TAG
                + U64
                + b * per_block
                + TAG
        };
        for b in [0, 1, 2, 5, 24] {
            let body = GrantBody {
                to: 1,
                blocks: (0..b as u64).map(|id| signed_block(id, p, k)).collect(),
            };
            let env = Signed::forge(body, "P1", vec![0xcd; k]);
            assert_eq!(env.encoded_len().expect("encodes"), grant(b), "{b} blocks");
            assert_eq!(Msg::Grant(env).wire_size(), grant(b) + k, "{b} blocks");
        }
    }

    #[test]
    fn processor_identity_matches_the_formatted_name() {
        let formatted = |signer: &str, i: usize| signer == format!("P{}", i + 1);
        let cases: [(&str, usize); 12] = [
            ("P1", 0),
            ("P01", 0),
            ("p1", 0),
            ("P1 ", 0),
            (" P1", 0),
            ("P+1", 0),
            ("P10", 0),
            ("P10", 9),
            ("P2", 0),
            ("", 0),
            ("P", 0),
            ("P0", 0),
        ];
        for (signer, i) in cases {
            assert_eq!(is_processor_identity(signer, i), formatted(signer, i), "{signer:?} vs {i}");
        }
        assert!(is_processor_identity("P1", 0));
        assert!(is_processor_identity("P10", 9));
        assert!(!is_processor_identity("P10", 0));
        assert!(!is_processor_identity("P01", 0));
        // `usize::MAX + 1` has a name and nothing shorter or wrapped
        // matches it.
        let max_name = format!("P{}", u128::from(u64::MAX) + 1);
        assert_eq!(is_processor_identity(&max_name, usize::MAX), usize::BITS == 64);
        assert!(!is_processor_identity("P0", usize::MAX));
        assert!(!is_processor_identity(&format!("P{}", usize::MAX), usize::MAX));
        // Digit strings beyond u128 are rejected, not wrapped.
        assert!(!is_processor_identity(&format!("P{}0", u128::MAX), 0));
    }

    /// From-scratch wire size of one envelope: canonical body bytes plus
    /// signature bytes.
    fn scratch_size<T: Serialize>(s: &Signed<T>) -> usize {
        dls_crypto::canon::to_bytes(s.body_unverified())
            .expect("encodable body")
            .len()
            + s.signature().0.len()
    }

    #[test]
    fn wire_size_matches_a_from_scratch_encode_for_every_signed_variant() {
        use crate::blocks::{DataSet, USER_IDENTITY};
        use dls_crypto::pki::KeyPair;
        use dls_crypto::rsa::MIN_MODULUS_BITS;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(7);
        let p1 = KeyPair::generate("P1", MIN_MODULUS_BITS, &mut rng).expect("key");
        let p2 = KeyPair::generate("P2", MIN_MODULUS_BITS, &mut rng).expect("key");
        let user = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).expect("key");
        let data = DataSet::prepare(&user, 5, 32).expect("data set");
        let bid = |k: &KeyPair, processor, bid| k.sign(BidBody { processor, bid }).expect("sign");
        let (b1, b2) = (bid(&p1, 0, 1.5), bid(&p2, 1, 2.25));
        // Forged and tampered envelopes start with an empty memo.
        let forged = Signed::forge(BidBody { processor: 0, bid: 9.0 }, "P1", vec![7; 40]);
        let tampered = b1.clone().tamper(|mut b| {
            b.bid = 0.5;
            b
        });
        let view = vec![b1.clone(), b2.clone(), forged.clone(), tampered.clone()];
        let grant = p1
            .sign(GrantBody {
                to: 1,
                blocks: data.blocks().to_vec(),
            })
            .expect("sign");
        let vector = p2
            .sign(PaymentVectorBody {
                processor: 1,
                q: vec![
                    PaymentEntry {
                        compensation: 1.0,
                        bonus: 0.25,
                    };
                    3
                ],
            })
            .expect("sign");
        let view_size: usize = view.iter().map(scratch_size).sum();
        let cases = [
            (Msg::Bid(b1.clone()), scratch_size(&b1)),
            (Msg::Bid(forged.clone()), scratch_size(&forged)),
            (Msg::Bid(tampered.clone()), scratch_size(&tampered)),
            (Msg::Grant(grant.clone()), scratch_size(&grant)),
            (Msg::PaymentVector(vector.clone()), scratch_size(&vector)),
            (
                Msg::BidView {
                    from: 1,
                    view: view.clone(),
                },
                8 + view_size,
            ),
            (
                Msg::Report {
                    from: 1,
                    report: PhaseReport::Accuse {
                        accused: 0,
                        evidence: Box::new(Evidence::Equivocation {
                            first: b1.clone(),
                            second: forged.clone(),
                        }),
                    },
                },
                16 + scratch_size(&b1) + scratch_size(&forged),
            ),
            (
                Msg::Report {
                    from: 1,
                    report: PhaseReport::Accuse {
                        accused: 0,
                        evidence: Box::new(Evidence::WrongAllocation {
                            grant: grant.clone(),
                            bid_view: view,
                            expected_blocks: 2,
                        }),
                    },
                },
                16 + scratch_size(&grant) + view_size,
            ),
        ];
        for (msg, expected) in &cases {
            // Twice: the first call may fill memos, the second reads them.
            assert_eq!(msg.wire_size(), *expected, "{:?}", msg.category());
            assert_eq!(msg.wire_size(), *expected, "{:?}", msg.category());
        }
    }

    #[test]
    fn categories() {
        assert_eq!(Msg::Meters(vec![]).category(), MsgCategory::Control);
        assert_eq!(
            Msg::Report {
                from: 0,
                report: PhaseReport::Ok
            }
            .category(),
            MsgCategory::Control
        );
    }
}
