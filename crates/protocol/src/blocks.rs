//! The user's load: equal-sized, uniquely identified, user-signed blocks
//! `S_user(B, I_B)` (Initialization phase), plus the integer block
//! allocation derived from the real-valued fractions.

use dls_crypto::canon::Bytes;
use dls_crypto::pki::{KeyPair, Registry, SignatureError};
use dls_crypto::Signed;
use serde::Serialize;

/// Identity under which the user registers its signing key.
pub const USER_IDENTITY: &str = "user";

/// One block of the divisible load: a unique identifier plus payload bytes.
///
/// The payload is synthetic (the computation itself is simulated) but real
/// bytes flow through the signature machinery, so integrity failures are
/// detectable exactly as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Unique block identifier `I_B`.
    pub id: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

// Hand-written only so the payload encodes as one framed byte string
// (`canon::Bytes`); the struct name, field names and order are the
// derived form's.
impl Serialize for Block {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Block", 2)?;
        s.serialize_field("id", &self.id)?;
        s.serialize_field("payload", &Bytes(&self.payload))?;
        s.end()
    }
}

/// A user-signed block.
pub type SignedBlock = Signed<Block>;

/// The prepared data set: all signed blocks, in identifier order.
#[derive(Debug, Clone)]
pub struct DataSet {
    blocks: Vec<SignedBlock>,
    block_payload: usize,
}

impl DataSet {
    /// Splits the (synthetic) load into `count` signed blocks of
    /// `payload_len` bytes each.
    pub fn prepare(
        user: &KeyPair,
        count: usize,
        payload_len: usize,
    ) -> Result<Self, SignatureError> {
        // Signing is the dominant cost; blocks are independent, so fan the
        // work out across a bounded number of threads.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(count.max(1));
        let chunk = count.div_ceil(workers);
        let signed: Vec<Result<Vec<SignedBlock>, SignatureError>> =
            std::thread::scope(|scope| {
                (0..workers)
                    .map(|w| {
                        let lo = w * chunk;
                        let hi = ((w + 1) * chunk).min(count);
                        scope.spawn(move || {
                            (lo..hi)
                                .map(|id| {
                                    // Deterministic synthetic payload,
                                    // distinct per block.
                                    let payload: Vec<u8> = (0..payload_len)
                                        .map(|k| (id * 131 + k * 7 + 13) as u8)
                                        .collect();
                                    user.sign(Block {
                                        id: id as u64,
                                        payload,
                                    })
                                })
                                .collect()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("signing thread panicked"))
                    .collect()
            });
        let mut blocks = Vec::with_capacity(count);
        for part in signed {
            blocks.extend(part?);
        }
        Ok(DataSet {
            blocks,
            block_payload: payload_len,
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` iff the data set has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Payload size per block.
    pub fn block_payload(&self) -> usize {
        self.block_payload
    }

    /// The signed blocks.
    pub fn blocks(&self) -> &[SignedBlock] {
        &self.blocks
    }

    /// Slices the data set into per-processor grants of the given block
    /// counts (consecutive ranges in identifier order).
    ///
    /// # Panics
    /// Panics if the counts do not sum to `len()`.
    pub fn split(&self, counts: &[usize]) -> Vec<Vec<SignedBlock>> {
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.blocks.len(),
            "block counts must cover the data set exactly"
        );
        let mut out = Vec::with_capacity(counts.len());
        let mut start = 0;
        for &c in counts {
            out.push(self.blocks[start..start + c].to_vec());
            start += c;
        }
        out
    }

    /// `true` iff `block` is a genuine, untampered member of this data set
    /// (signature verifies and the payload matches the original).
    pub fn contains(&self, block: &SignedBlock, registry: &Registry) -> bool {
        let Ok(body) = block.verify(registry) else {
            return false;
        };
        self.blocks
            .get(body.id as usize)
            .is_some_and(|orig| orig.body_unverified() == body)
    }
}

/// Converts real-valued fractions into integer block counts summing to
/// `total`, by the largest-remainder (Hamilton) method. Deterministic;
/// ties break toward lower indices.
pub fn integer_allocation(fractions: &[f64], total: usize) -> Vec<usize> {
    assert!(!fractions.is_empty(), "empty allocation");
    let sum: f64 = fractions.iter().sum();
    assert!(sum > 0.0, "fractions must have positive mass");
    let ideal: Vec<f64> = fractions
        .iter()
        .map(|f| f / sum * total as f64)
        .collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..fractions.len()).collect();
    // Largest fractional remainder first; index ascending on ties.
    order.sort_by(|&a, &b| {
        let ra = ideal[a] - ideal[a].floor();
        let rb = ideal[b] - ideal[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    for &i in order.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_crypto::rsa::MIN_MODULUS_BITS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn user() -> (KeyPair, Registry) {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).unwrap();
        let reg = Registry::from_keypairs([&kp]);
        (kp, reg)
    }

    #[test]
    fn prepare_signs_every_block() {
        let (kp, reg) = user();
        let ds = DataSet::prepare(&kp, 10, 16).unwrap();
        assert_eq!(ds.len(), 10);
        for (i, b) in ds.blocks().iter().enumerate() {
            let body = b.verify(&reg).unwrap();
            assert_eq!(body.id, i as u64);
            assert_eq!(body.payload.len(), 16);
        }
    }

    #[test]
    fn payloads_distinct() {
        let (kp, _) = user();
        let ds = DataSet::prepare(&kp, 4, 16).unwrap();
        let p0 = &ds.blocks()[0].body_unverified().payload;
        let p1 = &ds.blocks()[1].body_unverified().payload;
        assert_ne!(p0, p1);
    }

    #[test]
    fn split_covers_exactly() {
        let (kp, _) = user();
        let ds = DataSet::prepare(&kp, 10, 8).unwrap();
        let grants = ds.split(&[3, 0, 7]);
        assert_eq!(grants[0].len(), 3);
        assert_eq!(grants[1].len(), 0);
        assert_eq!(grants[2].len(), 7);
        assert_eq!(grants[2][0].body_unverified().id, 3);
    }

    #[test]
    #[should_panic(expected = "cover the data set")]
    fn split_rejects_bad_counts() {
        let (kp, _) = user();
        let ds = DataSet::prepare(&kp, 10, 8).unwrap();
        let _ = ds.split(&[3, 3]);
    }

    #[test]
    fn contains_accepts_genuine_rejects_foreign() {
        let (kp, reg) = user();
        let ds = DataSet::prepare(&kp, 5, 8).unwrap();
        assert!(ds.contains(&ds.blocks()[2], &reg));
        // A block signed by someone else.
        let mut rng = StdRng::seed_from_u64(77);
        let imposter = KeyPair::generate(USER_IDENTITY, MIN_MODULUS_BITS, &mut rng).unwrap();
        let fake = imposter
            .sign(Block {
                id: 2,
                payload: vec![0; 8],
            })
            .unwrap();
        assert!(!ds.contains(&fake, &reg));
        // A tampered genuine block.
        let tampered = ds.blocks()[2].clone().tamper(|mut b| {
            b.payload[0] ^= 1;
            b
        });
        assert!(!ds.contains(&tampered, &reg));
    }

    #[test]
    fn integer_allocation_sums_to_total() {
        let fr = [0.4, 0.35, 0.25];
        for total in [1usize, 7, 60, 1000] {
            let c = integer_allocation(&fr, total);
            assert_eq!(c.iter().sum::<usize>(), total, "total {total}");
        }
    }

    #[test]
    fn integer_allocation_proportional() {
        let c = integer_allocation(&[0.5, 0.3, 0.2], 100);
        assert_eq!(c, vec![50, 30, 20]);
    }

    #[test]
    fn integer_allocation_largest_remainder() {
        // ideal = (1.5, 1.5): one unit left over goes to the lower index.
        let c = integer_allocation(&[0.5, 0.5], 3);
        assert_eq!(c, vec![2, 1]);
    }

    #[test]
    fn integer_allocation_handles_zero_fraction() {
        let c = integer_allocation(&[0.0, 1.0], 10);
        assert_eq!(c, vec![0, 10]);
    }
}
