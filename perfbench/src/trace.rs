//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented.
//!
//! For session workloads the parent span is a serial `run_session_vm` of a
//! sampled session. Its child spans replay that session's work on the same
//! bodies, following the §4 message schedule: canonical encoding and
//! SHA-256 as often as the executor runs them outside signing and
//! verification, `KeyPair::sign` for every body this process has not
//! produced before (the executor's signature cache serves repeats),
//! `Signed::verify` once per envelope (the executor's per-round verify
//! cache), `optimal::fractions`, `compute_payments`, and the referee calls
//! the executor makes on these paths: `Referee::adjudicate_bidding` after
//! every bidding phase (the crash round ends there),
//! `Referee::adjudicate_allocation` after a clean allocation, and the
//! payment vectors' equality check. The replay signs with benchmark-owned
//! keys of the session's width. The payment vectors' verifications are
//! children of the referee span (the referee is who checks them), so the
//! referee's self time excludes them.
//!
//! `Referee::adjudicate_payments` runs only when payment vectors disagree,
//! which no workload produces; it is timed on the agreed bids and meters
//! as a side measurement (`referee.adjudicate_payments_us`) outside the
//! span tree, so it is not subtracted from the residual.
//!
//! A span's self time is its duration minus its children's durations; the
//! parent's self time is `executor.residual_us` — state machines,
//! transport, cache lookups and clones — so self times add up to
//! `executor.session_us` by construction.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dls_crypto::pki::{KeyPair, Registry};
use dls_crypto::Signed;
use dls_dlt::BusParams;
use dls_mechanism::compute_payments;
use dls_protocol::blocks::{integer_allocation, DataSet};
use dls_protocol::config::SessionConfig;
use dls_protocol::messages::{BidBody, GrantBody, PaymentEntry, PaymentVectorBody, PhaseReport};
use dls_protocol::referee::{payments_agree, Phase, Referee};
use dls_protocol::{run_session_vm, FaultPlan, SessionOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{self, Expect};
use crate::drive::Requote;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `crypto.sign`.
    pub name: &'static str,
    /// The session (or re-quote) the span belongs to.
    pub session: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

/// Per-name totals: summed self time and summed duration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Σ self time, ns (can be slightly negative from timer noise).
    pub self_ns: i64,
    /// Σ duration, ns.
    pub dur_ns: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, session: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            session,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, session, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of span `id`, ns.
    pub fn dur(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, Span::dur)
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += s.dur() as i64 - child as i64;
            t.dur_ns += s.dur();
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"name\": \"{}\", \"session\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.session, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// The three signed body kinds, with how often the executor encodes and
/// hashes each outside `KeyPair::sign` / `Signed::verify` in a clean round
/// (signature-cache lookup, wire-size accounting, verify-cache lookups).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Bid,
    Grant,
    Payment,
}

impl Kind {
    fn encode_span(self) -> &'static str {
        match self {
            Kind::Bid => "crypto.encode.bid",
            Kind::Grant => "crypto.encode.grant",
            Kind::Payment => "crypto.encode.payment",
        }
    }

    fn sha_span(self) -> &'static str {
        match self {
            Kind::Bid => "crypto.sha256.bid",
            Kind::Grant => "crypto.sha256.grant",
            Kind::Payment => "crypto.sha256.payment",
        }
    }

    /// `(encodes, hashes)` besides the one of each inside
    /// `Signed::verify`. The executor encodes a bid or grant for its
    /// signature-cache lookup, its wire-size count and its verify-cache
    /// lookup, and hashes it for the first and (verdict key) the last, with
    /// the verification's own hash on a miss; a payment vector meets two
    /// more verify-cache lookups (the referee's delivery sweep and its
    /// equality check), each one encode and one hash.
    fn extra(self) -> (usize, usize) {
        match self {
            Kind::Bid | Kind::Grant => (2, 2),
            Kind::Payment => (4, 4),
        }
    }
}

/// Replays sessions' crypto, DLT, mechanism and referee work.
pub struct Replayer {
    keys: Vec<KeyPair>,
    registry: Registry,
    datasets: BTreeMap<usize, DataSet>,
    signatures: HashMap<(usize, [u8; 32]), Vec<u8>>,
    /// Bytes through `canon::to_bytes`, including inside sign and verify.
    pub bytes_encoded: u64,
    /// Fresh signatures made.
    pub signs: u64,
    /// Signatures verified.
    pub verifies: u64,
    /// Time in the side measurement of `Referee::adjudicate_payments`, ns.
    pub adjudicate_payments_ns: u64,
    /// Calls of the side measurement.
    pub adjudicate_payments_calls: u64,
}

/// Wall time of the replayer's own set-up, the per-layer `setup.*` figures.
pub struct ReplaySetup {
    /// `KeyPair::generate` for every identity, s.
    pub keygen_s: f64,
    /// `DataSet::prepare` for every block count, s.
    pub dataset_s: f64,
}

impl Replayer {
    /// Generates `m` processor keys and a user key of `bits` and prepares
    /// a data set for each block count, timing both.
    pub fn new(m: usize, bits: usize, blocks: &[usize]) -> Result<(Replayer, ReplaySetup), String> {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(0x7265_706c_6179);
        let keys: Vec<KeyPair> = (1..=m)
            .map(|i| KeyPair::generate(format!("P{i}"), bits, &mut rng))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("replay key generation failed: {e}"))?;
        let user = KeyPair::generate(dls_protocol::blocks::USER_IDENTITY, bits, &mut rng)
            .map_err(|e| format!("replay key generation failed: {e}"))?;
        let keygen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut datasets = BTreeMap::new();
        for &b in blocks {
            let ds = DataSet::prepare(&user, b, 32).map_err(|e| format!("data set: {e}"))?;
            datasets.insert(b, ds);
        }
        let dataset_s = t.elapsed().as_secs_f64();
        let registry = Registry::from_keypairs(keys.iter().chain(std::iter::once(&user)));
        Ok((
            Replayer {
                keys,
                registry,
                datasets,
                signatures: HashMap::new(),
                bytes_encoded: 0,
                signs: 0,
                verifies: 0,
                adjudicate_payments_ns: 0,
                adjudicate_payments_calls: 0,
            },
            ReplaySetup {
                keygen_s,
                dataset_s,
            },
        ))
    }

    /// Encodes and hashes `body` as the executor does, and signs it if no
    /// earlier body of this process had the same signer and bytes.
    fn body<T: serde::Serialize>(
        &mut self,
        tr: &mut Tracer,
        sid: u64,
        parent: usize,
        kind: Kind,
        signer: usize,
        body: T,
    ) -> Result<Signed<T>, String> {
        let (encodes, hashes) = kind.extra();
        let mut bytes = Vec::new();
        for _ in 0..encodes {
            bytes = tr
                .time(kind.encode_span(), sid, Some(parent), || {
                    dls_crypto::canon::to_bytes(&body)
                })
                .map_err(|e| format!("encode failed: {e}"))?;
            self.bytes_encoded += bytes.len() as u64;
        }
        let mut digest = [0u8; 32];
        for _ in 0..hashes {
            digest = tr.time(kind.sha_span(), sid, Some(parent), || {
                dls_crypto::sha256::digest(&bytes)
            });
        }
        let key = self
            .keys
            .get(signer)
            .ok_or_else(|| format!("no replay key for P{}", signer + 1))?;
        if let Some(sig) = self.signatures.get(&(signer, digest)) {
            return Ok(Signed::forge(body, key.identity(), sig.clone()));
        }
        let signed = tr
            .time("crypto.sign", sid, Some(parent), || key.sign(body))
            .map_err(|e| format!("sign failed: {e}"))?;
        self.signs += 1;
        self.bytes_encoded += bytes.len() as u64;
        self.signatures
            .insert((signer, digest), signed.signature().0.clone());
        Ok(signed)
    }

    fn verify<T: serde::Serialize>(
        &mut self,
        tr: &mut Tracer,
        sid: u64,
        parent: usize,
        env: &Signed<T>,
    ) -> Result<(), String> {
        let registry = &self.registry;
        tr.time("crypto.verify", sid, Some(parent), || env.verify(registry))
            .map_err(|e| format!("replayed envelope failed to verify: {e}"))?;
        self.verifies += 1;
        self.bytes_encoded +=
            dls_crypto::canon::to_bytes(env.body_unverified()).map_or(0, |b| b.len() as u64);
        Ok(())
    }

    /// Replays session `cfg` (whose executor run is span `parent` and
    /// produced `out`). Supports the workloads' two shapes: a clean round,
    /// and a `CrashAt(Bidding)` round followed by a survivor re-run.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        sid: u64,
        parent: usize,
        cfg: &SessionConfig,
        out: &SessionOutcome,
    ) -> Result<(), String> {
        let m = cfg.m();
        let all: Vec<usize> = (0..m).collect();
        let crashed = cfg
            .processors
            .iter()
            .position(|p| p.fault != FaultPlan::None);
        let rounds: Vec<(Vec<usize>, Option<usize>)> = match crashed {
            None => vec![(all, None)],
            Some(c) if cfg.processors[c].fault == FaultPlan::CrashAt(Phase::Bidding) => {
                let survivors: Vec<usize> = all.iter().copied().filter(|&i| i != c).collect();
                vec![(all, Some(c)), (survivors, None)]
            }
            Some(_) => return Err("the replay covers only CrashAt(Bidding) faults".into()),
        };
        if out.degradation.rounds != rounds.len() {
            return Err(format!(
                "session took {} rounds, the replay schedule has {}",
                out.degradation.rounds,
                rounds.len()
            ));
        }
        // The §4 schedule must match the traffic the executor counted.
        let (mut bids, mut grants, mut vectors) = (0u64, 0u64, 0u64);
        for (active, crashed) in &rounds {
            let mr = active.len() as u64;
            let bidders = mr - u64::from(crashed.is_some());
            bids += bidders * (mr - 1);
            if crashed.is_none() {
                grants += mr - 1;
                vectors += mr;
            }
        }
        let counted = (
            out.messages.category("bid").0,
            out.messages.category("grant").0,
            out.messages.category("payment-vector").0,
        );
        if counted != (bids, grants, vectors) {
            return Err(format!(
                "executor counted (bid, grant, payment-vector) messages {counted:?}, the replay schedule has {:?}",
                (bids, grants, vectors)
            ));
        }
        for (active, crashed) in &rounds {
            self.round(tr, sid, parent, cfg, active, *crashed)?;
        }
        Ok(())
    }

    fn round(
        &mut self,
        tr: &mut Tracer,
        sid: u64,
        parent: usize,
        cfg: &SessionConfig,
        active: &[usize],
        crashed: Option<usize>,
    ) -> Result<(), String> {
        let mr = active.len();
        let rates: Vec<f64> = active
            .iter()
            .map(|&i| cfg.processors.get(i).map_or(f64::NAN, |p| p.true_w))
            .collect();
        let referee = Referee::new(
            self.registry.clone(),
            cfg.model,
            cfg.z,
            mr,
            cfg.fine,
            cfg.blocks,
        );
        // Every live processor reports "no problem" at each phase end; a
        // crashed one sends nothing (the executor fines it as a defaulter,
        // outside the referee's public API).
        let reports: Vec<(usize, PhaseReport)> = active
            .iter()
            .enumerate()
            .filter(|&(_, &orig)| Some(orig) != crashed)
            .map(|(p, _)| (p, PhaseReport::Ok))
            .collect();
        // Bidding.
        for (p, (&orig, &bid)) in active.iter().zip(&rates).enumerate() {
            if Some(orig) == crashed {
                continue;
            }
            let env = self.body(tr, sid, parent, Kind::Bid, p, BidBody { processor: p, bid })?;
            self.verify(tr, sid, parent, &env)?;
        }
        let verdict = tr.time("referee.adjudicate", sid, Some(parent), || {
            referee.adjudicate_bidding(&reports)
        });
        if !verdict.fined.is_empty() {
            return Err(format!(
                "replayed bidding verdict fined {:?}",
                verdict.fined
            ));
        }
        if crashed.is_some() {
            return Ok(()); // the defaulter's fine ends the round
        }
        // Allocating.
        let params = BusParams::new(cfg.z, rates.clone()).map_err(|e| e.to_string())?;
        let alpha = tr.time("dlt.solve", sid, Some(parent), || {
            dls_dlt::optimal::fractions(cfg.model, &params)
        });
        let counts = integer_allocation(&alpha, cfg.blocks);
        let originator = cfg.model.originator(mr).ok_or("model has no originator")?;
        let dataset = self
            .datasets
            .get(&cfg.blocks)
            .ok_or_else(|| format!("no replay data set of {} blocks", cfg.blocks))?;
        let split = dataset.split(&counts);
        for (to, blocks) in split.into_iter().enumerate() {
            if to == originator {
                continue;
            }
            let grant = GrantBody { to, blocks };
            let env = self.body(tr, sid, parent, Kind::Grant, originator, grant)?;
            self.verify(tr, sid, parent, &env)?;
        }
        let dataset = self
            .datasets
            .get(&cfg.blocks)
            .ok_or_else(|| format!("no replay data set of {} blocks", cfg.blocks))?;
        let verdict = tr.time("referee.adjudicate", sid, Some(parent), || {
            referee.adjudicate_allocation(&reports, dataset)
        });
        if !verdict.fined.is_empty() {
            return Err(format!(
                "replayed allocation verdict fined {:?}",
                verdict.fined
            ));
        }
        // Processing: meters read the granted blocks at the true rate.
        let observed: Vec<f64> = alpha
            .iter()
            .zip(&counts)
            .zip(&rates)
            .map(|((&a, &c), &w)| {
                let phi = c as f64 / cfg.blocks as f64 * w;
                if a > 0.0 && phi > 0.0 {
                    phi / a
                } else {
                    w
                }
            })
            .collect();
        // Payments.
        let q: Vec<PaymentEntry> = tr
            .time("mechanism.payments", sid, Some(parent), || {
                compute_payments(cfg.model, &params, &alpha, &observed)
            })
            .into_iter()
            .map(|p| PaymentEntry {
                compensation: p.compensation,
                bonus: p.bonus,
            })
            .collect();
        let mut envs = Vec::with_capacity(mr);
        for p in 0..mr {
            let body = PaymentVectorBody {
                processor: p,
                q: q.clone(),
            };
            envs.push(self.body(tr, sid, parent, Kind::Payment, p, body)?);
        }
        // The referee verifies every vector and, finding them equal, settles
        // with no dispute: `adjudicate_payments` is not called on this path.
        let id = tr.begin("referee.adjudicate", sid, Some(parent));
        for env in &envs {
            self.verify(tr, sid, id, env)?;
        }
        let agreed = vectors_agree(&envs);
        tr.end(id);
        if !agreed {
            return Err("replayed payment vectors disagree".into());
        }
        // Side measurement, outside the span tree: the dispute path's
        // `adjudicate_payments` on the agreed bids and meters.
        let t = Instant::now();
        let verdict = referee.adjudicate_payments(&envs, &rates, &observed);
        self.adjudicate_payments_ns += t.elapsed().as_nanos() as u64;
        self.adjudicate_payments_calls += 1;
        match verdict {
            Ok((v, _)) if v.fined.is_empty() => Ok(()),
            Ok((v, _)) => Err(format!("replayed referee fined {:?}", v.fined)),
            Err(e) => Err(format!("replayed referee failed: {e}")),
        }
    }
}

/// The referee's equality check on a clean round: one vector per processor,
/// all agreeing entry by entry.
fn vectors_agree(envs: &[Signed<PaymentVectorBody>]) -> bool {
    let Some(first) = envs.first().map(|e| e.body_unverified()) else {
        return false;
    };
    envs.iter().enumerate().all(|(p, e)| {
        let body = e.body_unverified();
        body.processor == p
            && body.q.len() == first.q.len()
            && body.q.iter().zip(&first.q).all(|(a, b)| {
                payments_agree(a.compensation, b.compensation) && payments_agree(a.bonus, b.bonus)
            })
    })
}

/// Counts the executor reported for one session.
#[derive(Debug, Default, Clone, Copy)]
pub struct Traffic {
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Rounds run.
    pub rounds: u64,
}

/// Runs sampled session `cfg` serially under a parent span, checks it, and
/// replays its layers. Returns the session's wall time (ns) and traffic.
pub fn session(
    tr: &mut Tracer,
    rp: &mut Replayer,
    sid: u64,
    cfg: &SessionConfig,
) -> Result<(u64, Traffic), String> {
    let id = tr.begin("executor.session", sid, None);
    let out = run_session_vm(cfg);
    tr.end(id);
    let out = out.map_err(|e| format!("sampled session failed: {e}"))?;
    check::session(&Expect::of(cfg), &out)?;
    rp.replay(tr, sid, id, cfg, &out)?;
    let traffic = Traffic {
        messages: out.messages.total_messages(),
        bytes: out.messages.total_bytes(),
        rounds: out.degradation.rounds as u64,
    };
    Ok((tr.dur(id), traffic))
}

/// Marks the bodies of a session run during set-up as already produced,
/// without keeping its spans.
pub fn mark(rp: &mut Replayer, cfg: &SessionConfig) -> Result<(), String> {
    let out = run_session_vm(cfg).map_err(|e| format!("set-up session failed: {e}"))?;
    let mut discard = Tracer::new();
    let id = discard.begin("executor.session", 0, None);
    discard.end(id);
    rp.replay(&mut discard, 0, id, cfg, &out)
}

/// One traced re-quote: the op is the parent span, each layer call a child.
pub fn requote_op(
    tr: &mut Tracer,
    rq: &mut Requote,
    sid: u64,
    i: usize,
    bid: f64,
) -> Result<u64, String> {
    let id = tr.begin("requote.op", sid, None);
    let res = (|| {
        tr.time("dlt.update_bid", sid, Some(id), || {
            rq.engine.submit_bid(i, bid)
        })
        .map_err(|e| e.to_string())?;
        if let Some(b) = rq.bids.get_mut(i) {
            *b = bid;
        }
        // The first allocation query refreshes all k loads from the spliced
        // chains; the payment queries then reuse them.
        tr.time("dlt.solve", sid, Some(id), || {
            rq.engine.fractions(0).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
        for (l, out) in rq.payments.iter_mut().enumerate() {
            let (engine, bids) = (&mut rq.engine, &rq.bids);
            tr.time("mechanism.payments", sid, Some(id), || {
                engine.payments_into(l, bids, out)
            })
            .map_err(|e| e.to_string())?;
        }
        rq.makespan = tr.time("dlt.schedule", sid, Some(id), || {
            rq.engine.schedule().makespan
        });
        Ok::<(), String>(())
    })();
    tr.end(id);
    res.map(|()| tr.dur(id))
}
