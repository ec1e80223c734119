//! The four workloads, their inputs, and why each exists.
//!
//! A DLS-BL-NCP session is mostly crypto and protocol plumbing: every
//! processor signs its bid, the originator signs every grant, every
//! processor signs its payment vector, and peers and the referee verify
//! them (Θ(m²) messages, Thm 5.4). The DLT solve and the leave-one-out
//! payments are a rounding error next to that. Each workload below is built
//! so that one layer dominates and another is bypassed; the split quoted
//! with each comes from the traced run (`--trace 1`) on a 2-core x86-64 VM
//! and is the reference a later change to that layer is judged against.
//!
//! * **`fresh-closed`** — closed loop, [`CLOSED_WINDOW`] sessions in
//!   flight on [`MAX_WORKERS`] service workers. Every session is a market
//!   never seen before in the process ([`FRESH`]: m = 8, 512-bit keys, 24
//!   blocks, rates at 2⁻²⁰ quantization, NCP-FE and NCP-NFE alternating),
//!   so the executor's signature cache misses on every bid and payment
//!   vector and the private-key modexp dominates.
//!   *Stresses* `crypto` (`KeyPair::sign`); *bypasses* the signature
//!   cache. Measured split of a 6.3 ms session: `crypto.sign` 82%
//!   (≈ 18 fresh signatures), verify 7.6%, encode + SHA-256 6.2%, referee
//!   0.1%, DLT solve and payments 1.8 µs (< 0.1%), executor residual 3.8%.
//! * **`repeat-closed`** — the same closed drive cycling through a pool of
//!   [`POOL_SIZE`] [`LIGHT`] markets (m = 4, 384-bit keys, 12 blocks) that
//!   set-up has already run, so every signature is a cache hit.
//!   *Stresses* verify, canonical encoding + SHA-256 and executor
//!   bookkeeping; *bypasses* signing. A sign-kernel change must read "no
//!   change" here. Measured split of a 0.29 ms session: `crypto.sign` 0%,
//!   verify 48%, encode + SHA-256 43% (grant bodies carry the user-signed
//!   blocks), referee 0.7%, DLT solve and payments 0.2%, executor
//!   residual 8.4%.
//! * **`skewed-paced`** — open loop at the fixed rate [`ARRIVAL_PER_S`]
//!   (≈ 50% of the 2-worker capacity of this mix when the rate was set).
//!   Light sessions come from the repeat pool; every [`HEAVY_PERIOD`]-th
//!   session is a fresh [`HEAVY`] market (m = 64) whose last processor has
//!   `CrashAt(Bidding)`, forcing verdicts, a fine and a survivor re-run.
//!   Latency is measured from each arrival's due time, so `p50_ms` is a
//!   light session and `p99_ms` a heavy one, including its queue wait.
//!   *Stresses* the service queue, placement, work stealing and the
//!   referee's degradation path; the heavy sessions sign ≈ 190 fresh
//!   bodies each. Measured split of the mix (mean session 1.7 ms, 2%
//!   heavy): `crypto.sign` 45% (all of it in heavy sessions), verify 22%,
//!   encode + SHA-256 25%, referee 0.6%, executor residual 7%; workers
//!   50–75% busy (an estimate from serial replays, depending on the
//!   host's speed), queue wait p99 ≈ 1.4 ms.
//! * **`requote-stream`** — one thread, no crypto, no service. A
//!   `MultiLoadEngine` with m = [`REQUOTE_M`], k = [`REQUOTE_K`] takes a
//!   seeded stream of bid updates; each op is `submit_bid` (k `ChainState`
//!   splices) + per-load `payments_into` + `schedule`.
//!   *Stresses* `dlt` and `mechanism`; *bypasses* `crypto`, `executor` and
//!   `service`. Measured split of a 254 µs re-quote: `payments_into` 75%,
//!   `schedule` 17%, `submit_bid` splices 5.3%, allocation refresh 2.7%,
//!   loop residual 0.4%.
//!
//! The referee's share is what the executor asks of it on these paths:
//! `Referee::adjudicate_bidding` after every bidding phase,
//! `Referee::adjudicate_allocation` after a clean allocation, and the
//! check that all payment vectors agree, which settles every clean round.
//! `Referee::adjudicate_payments`, the dispute path, never runs here: no
//! workload sends disagreeing vectors. The traced run times it on the
//! agreed bids and meters as a side figure (`referee.adjudicate_payments_us`:
//! 42 µs at m = 4, 148 µs at m = 8), outside the split.
//!
//! Inputs derive from `--seed`; keys derive from fixed per-workload
//! constants, so set-up does the same key search on every run and the
//! `setup_s` figure is comparable across seeds.

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls_protocol::referee::Phase;
use dls_protocol::FaultPlan;

/// Bus communication rate `z` of every session market (dyadic).
pub const Z: f64 = 0.0625;
/// Processor rates are log-uniform in `[RATE_LO, RATE_HI)`.
pub const RATE_LO: f64 = 1.0;
/// Upper end of the rate range.
pub const RATE_HI: f64 = 8.0;

/// Service worker threads, capped at the core count at run time.
pub const MAX_WORKERS: usize = 2;
/// In-flight window of the closed loops: four sessions per worker, kept
/// full (a result is taken in whatever order it finishes). A new session
/// queues behind about three others, so its submit→result latency is about
/// four service times. Taking results oldest-first instead let the window
/// drain behind a slow head, and the median latency jumped between modes
/// from run to run.
pub const CLOSED_WINDOW: usize = 8;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Size and crypto parameters of one session shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Processors.
    pub m: usize,
    /// RSA modulus width.
    pub key_bits: usize,
    /// Blocks the user splits the load into.
    pub blocks: usize,
    /// Rates are quantized to multiples of `1 / denom`.
    pub denom: u32,
}

/// `fresh-closed` markets: rates fine enough that no bid repeats.
pub const FRESH: Shape = Shape {
    m: 8,
    key_bits: 512,
    blocks: 24,
    denom: 1 << 20,
};
/// The repeat pool shared by `repeat-closed` and the light sessions of
/// `skewed-paced`.
pub const LIGHT: Shape = Shape {
    m: 4,
    key_bits: 384,
    blocks: 12,
    denom: 64,
};
/// The heavy crash sessions of `skewed-paced`.
pub const HEAVY: Shape = Shape {
    m: 64,
    key_bits: 384,
    blocks: 64,
    denom: 1 << 20,
};
/// Markets in the repeat pool.
pub const POOL_SIZE: usize = 16;
/// Session `k` of `skewed-paced` is heavy when `k % HEAVY_PERIOD ==
/// HEAVY_PERIOD - 1`. One in 50 rather than one in 200: at 1/200 the heavy
/// sessions are 0.5% of arrivals, so `p99_ms` fell among the light
/// sessions that happened to queue behind a heavy one, and its spread
/// across runs was 0.5–2.8× its median. At 1/50, `p99_ms` is the latency
/// of a heavy session, which is what the sign kernel, the referee and the
/// queue placement move.
pub const HEAVY_PERIOD: usize = 50;
/// Fixed offered load of `skewed-paced`, sessions per second. Set once to
/// ≈ 50% of the 2-worker capacity of this mix at this commit: two workers
/// over the mix's mean session time of ≈ 1.1 ms (traced run, 2-core
/// x86-64 VM) give ≈ 1700/s. It is a property of the workload, never
/// recalibrated, so the offered load cannot move with the code under test.
/// 50% rather than 70%: host speed on a shared 2-core VM drifts by ±30%
/// over minutes, and at 1200/s two runs in six saturated and their median
/// latency grew from 0.7 ms to 28–76 ms.
pub const ARRIVAL_PER_S: f64 = 850.0;

/// Processors in the `requote-stream` engine.
pub const REQUOTE_M: usize = 1024;
/// Loads in the `requote-stream` engine.
pub const REQUOTE_K: usize = 8;
/// Every `REQUOTE_CHECK_EVERY`-th re-quote is checked against the oracle.
pub const REQUOTE_CHECK_EVERY: u64 = 64;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen m = 8 markets, closed loop.
    FreshClosed,
    /// Cached m = 4 markets, closed loop.
    RepeatClosed,
    /// Repeat pool plus rare heavy crash markets, open loop.
    SkewedPaced,
    /// Multi-load bid updates on one engine.
    RequoteStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FreshClosed,
        Workload::RepeatClosed,
        Workload::SkewedPaced,
        Workload::RequoteStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshClosed => "fresh-closed",
            Workload::RepeatClosed => "repeat-closed",
            Workload::SkewedPaced => "skewed-paced",
            Workload::RequoteStream => "requote-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Key widths the workload's sessions use.
    pub fn key_bits(self) -> &'static [usize] {
        match self {
            Workload::FreshClosed => &[512],
            Workload::RepeatClosed | Workload::SkewedPaced => &[384],
            Workload::RequoteStream => &[],
        }
    }

    /// Operations per measurement block: 0.1–0.6 s of the stream, with
    /// enough operations for a block's p99 and, on `skewed-paced`, ten
    /// heavy sessions per block.
    pub fn block_ops(self) -> usize {
        match self {
            Workload::FreshClosed => 200,
            Workload::RepeatClosed => 600,
            Workload::SkewedPaced => 500,
            Workload::RequoteStream => 500,
        }
    }

    /// Largest market the workload runs (sizes the replay key set).
    pub fn max_m(self) -> usize {
        match self {
            Workload::FreshClosed => FRESH.m,
            Workload::RepeatClosed => LIGHT.m,
            Workload::SkewedPaced => HEAVY.m,
            Workload::RequoteStream => REQUOTE_M,
        }
    }
}

/// Seed domains: every derived seed names what it is for, so warm-up,
/// pool and stream markets can never collide.
#[derive(Debug, Clone, Copy)]
pub enum Domain {
    /// Set-up warm-up markets (run index = set-up repetition).
    Warmup = 1,
    /// Measured stream markets (run index = which stream of the process).
    Stream = 2,
    /// Repeat-pool markets.
    Pool = 3,
    /// The re-quote engine and its update stream.
    Requote = 4,
    /// Key material (not derived from `--seed`).
    Keys = 5,
}

/// splitmix64 step (Steele, Lea & Flood 2014), frozen here so no
/// dependency update can change a workload.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds the parts into one seed.
pub fn derive(parts: &[u64]) -> u64 {
    let mut acc = 0x005e_ed0f_d15b_u64;
    for &p in parts {
        acc ^= p;
        acc = splitmix64(&mut acc);
    }
    acc
}

/// Seed of market `index` of stream `run` in `domain`, from the workload
/// seed. Distinct `(domain, run, index)` give unrelated markets.
pub fn market_seed(seed: u64, domain: Domain, run: u64, index: u64) -> u64 {
    derive(&[seed, domain as u64, run, index])
}

/// Key seed for set-up slot `slot` of `workload`. Fixed constants, not
/// `--seed`: RSA key search time depends on the seed, and set-up time must
/// be comparable between runs that use different workload seeds.
pub fn key_seed(workload: Workload, slot: u64) -> u64 {
    derive(&[0x6b65_7973, Domain::Keys as u64, workload as u64, slot])
}

/// `m` rates log-uniform in `[RATE_LO, RATE_HI)`, quantized to `1/denom`.
pub fn rates(m: usize, denom: u32, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let denom = f64::from(denom);
    (0..m)
        .map(|_| {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let w = RATE_LO * (RATE_HI / RATE_LO).powf(u);
            (w * denom).round().max(1.0) / denom
        })
        .collect()
}

/// Builds a compliant session over `rates`; `crash_last` gives the last
/// processor a `CrashAt(Bidding)` fault.
pub fn session(
    shape: Shape,
    model: SystemModel,
    rates: &[f64],
    key_seed: u64,
    crash_last: bool,
) -> Result<SessionConfig, String> {
    let mut procs: Vec<ProcessorConfig> = rates
        .iter()
        .map(|&w| ProcessorConfig::new(w, Behavior::Compliant))
        .collect();
    if crash_last {
        if let Some(p) = procs.last_mut() {
            p.fault = FaultPlan::CrashAt(Phase::Bidding);
        }
    }
    SessionConfig::builder(model, Z)
        .processors(procs)
        .blocks(shape.blocks)
        .key_bits(shape.key_bits)
        .seed(key_seed)
        .build()
        .map_err(|e| format!("session config rejected: {e}"))
}

/// NCP-FE for even indices, NCP-NFE for odd ones.
pub fn model_for(index: u64) -> SystemModel {
    if index.is_multiple_of(2) {
        SystemModel::NcpFe
    } else {
        SystemModel::NcpNfe
    }
}

/// The repeat pool for `seed` under `key_seed`.
pub fn repeat_pool(seed: u64, key_seed: u64) -> Result<Vec<SessionConfig>, String> {
    (0..POOL_SIZE as u64)
        .map(|slot| {
            let r = rates(
                LIGHT.m,
                LIGHT.denom,
                market_seed(seed, Domain::Pool, 0, slot),
            );
            session(LIGHT, model_for(slot), &r, key_seed, false)
        })
        .collect()
}

/// A never-seen market: fresh `FRESH` sessions on `fresh-closed`, heavy
/// crash sessions on `skewed-paced`.
pub fn fresh_market(
    workload: Workload,
    seed: u64,
    domain: Domain,
    run: u64,
    index: u64,
    key_seed: u64,
) -> Result<SessionConfig, String> {
    let ms = market_seed(seed, domain, run, index);
    match workload {
        Workload::SkewedPaced => {
            let r = rates(HEAVY.m, HEAVY.denom, ms);
            session(HEAVY, SystemModel::NcpFe, &r, key_seed, true)
        }
        _ => {
            let r = rates(FRESH.m, FRESH.denom, ms);
            session(FRESH, model_for(index), &r, key_seed, false)
        }
    }
}

/// The session stream of one measured run of a session workload.
pub struct Stream {
    workload: Workload,
    seed: u64,
    run: u64,
    key_seed: u64,
    pool: Vec<SessionConfig>,
}

impl Stream {
    /// Stream `run` of `workload` under `key_seed`, over the set-up's pool.
    pub fn new(
        workload: Workload,
        seed: u64,
        run: u64,
        key_seed: u64,
        pool: Vec<SessionConfig>,
    ) -> Self {
        Stream {
            workload,
            seed,
            run,
            key_seed,
            pool,
        }
    }

    /// `true` when session `k` is a heavy crash session.
    pub fn is_heavy(&self, k: u64) -> bool {
        self.workload == Workload::SkewedPaced && k % HEAVY_PERIOD as u64 == HEAVY_PERIOD as u64 - 1
    }

    /// Session `k` of the stream.
    pub fn session(&self, k: u64) -> Result<SessionConfig, String> {
        match self.workload {
            Workload::FreshClosed => fresh_market(
                self.workload,
                self.seed,
                Domain::Stream,
                self.run,
                k,
                self.key_seed,
            ),
            Workload::SkewedPaced if self.is_heavy(k) => fresh_market(
                self.workload,
                self.seed,
                Domain::Stream,
                self.run,
                k,
                self.key_seed,
            ),
            _ => self
                .pool
                .get(k as usize % self.pool.len().max(1))
                .cloned()
                .ok_or_else(|| "the repeat pool is empty".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_markets_never_repeat_across_runs_or_warmup() {
        let key = key_seed(Workload::FreshClosed, 0);
        let mut seen = std::collections::BTreeSet::new();
        for (domain, run) in [
            (Domain::Warmup, 0),
            (Domain::Stream, 0),
            (Domain::Stream, 1),
        ] {
            for k in 0..200 {
                let cfg = fresh_market(Workload::FreshClosed, 7, domain, run, k, key).unwrap();
                let bits: Vec<u64> = cfg.processors.iter().map(|p| p.true_w.to_bits()).collect();
                assert!(
                    seen.insert(bits),
                    "market repeated: {domain:?} run {run} k {k}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let key = key_seed(Workload::SkewedPaced, 0);
        let a = Stream::new(
            Workload::SkewedPaced,
            3,
            0,
            key,
            repeat_pool(3, key).unwrap(),
        );
        let b = Stream::new(
            Workload::SkewedPaced,
            3,
            0,
            key,
            repeat_pool(3, key).unwrap(),
        );
        for k in [0, 1, 199, 399] {
            let (x, y) = (a.session(k).unwrap(), b.session(k).unwrap());
            assert_eq!(x.processors, y.processors);
            assert_eq!(x.model, y.model);
        }
        assert!(a.is_heavy(199) && !a.is_heavy(198));
        assert_eq!(a.session(199).unwrap().m(), HEAVY.m);
        assert_eq!(a.session(0).unwrap().m(), LIGHT.m);
    }

    #[test]
    fn rates_are_in_range_and_quantized() {
        for &w in &rates(256, 64, 11) {
            assert!((RATE_LO..=RATE_HI).contains(&w), "{w}");
            assert_eq!(w * 64.0, (w * 64.0).round());
        }
    }
}
