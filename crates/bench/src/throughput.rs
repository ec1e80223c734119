//! Auction-throughput sweep: the data source for `BENCH_throughput.json`.
//!
//! Two families of cells, both on the frozen
//! [`crate::workloads::quantized_rates`] workloads (splitmix64, dyadic
//! rates — reproducible entry-for-entry from the config alone):
//!
//! * **auctions/sec** — full market clearings (makespan + DLS-BL payments)
//!   at batch sizes × market sizes; every market of a batch is cleared on
//!   one reused [`AuctionEngine`] ([`AuctionEngine::load_bids`] then
//!   [`AuctionEngine::payments`]), so per-market cost is a rebuild into
//!   retained buffers.
//! * **bid-updates/sec** — single-bid re-quotes (submit + makespan read)
//!   replaying the *same* frozen update schedule down three paths:
//!   `"incremental"`, the engine's chain-splice hot path
//!   ([`dls_mechanism::AuctionEngine::submit_bid`]); `"engine-rebuild"`,
//!   the engine's in-place full-rebuild fallback
//!   ([`dls_mechanism::AuctionEngine::submit_bid_rebuild`], same retained
//!   arenas, no allocation); and `"full-recompute"`, the pre-engine
//!   one-shot pipeline a caller without the engine uses for every
//!   re-quote — fresh [`BusParams`] + [`dls_dlt::optimal::optimal_makespan`]
//!   per update, re-validating and re-allocating the whole market.
//!
//! The incremental/engine-rebuild ratio isolates the splice: update
//! positions are uniform over `0..m`, so the expected splice length is
//! `m/2` links against the rebuild's `m`, with two divisions instead of
//! `m` and no suffix sums (quote evaluation never needs them). The
//! incremental/full-recompute ratio is the serving-layer headline: what
//! the cached-state engine saves over re-entering the one-shot solver on
//! every bid.
//!
//! This module is covered by the workspace no-panic lint gate: measurement
//! never unwraps — engine errors propagate as [`EngineError`].

use std::time::Instant;

use dls_dlt::{optimal, BusParams, ALL_MODELS};
use dls_mechanism::{AuctionEngine, EngineError};

use crate::payments::model_slug;
use crate::workloads::{quantized_rates, splitmix64};

/// Schema identifier written into the JSON header; bump when the layout of
/// the file changes incompatibly.
pub const SCHEMA: &str = "dls-bench-throughput-v2";

/// Everything that determines a throughput sweep; the output is
/// reproducible from the config alone (wall-clock numbers aside).
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// splitmix64 seed for rates and update schedules.
    pub seed: u64,
    /// Bus communication rate `z` (dyadic).
    pub z: f64,
    /// Lower bound of the log-uniform rate range.
    pub lo: f64,
    /// Upper bound of the log-uniform rate range.
    pub hi: f64,
    /// Rates are quantized to multiples of `1/denom`.
    pub denom: u32,
    /// Market sizes for the auctions/sec cells.
    pub auction_sizes: Vec<usize>,
    /// Batch sizes for the auctions/sec cells.
    pub batch_sizes: Vec<usize>,
    /// Market sizes for the bid-updates/sec cells.
    pub update_sizes: Vec<usize>,
    /// Bid updates timed per measurement block (amortizes timer overhead).
    pub updates_per_block: usize,
    /// Per-cell time budget in nanoseconds (min-of-reps, at least two).
    pub target_ns_per_cell: u128,
}

impl ThroughputConfig {
    /// The full sweep behind the committed `BENCH_throughput.json`.
    pub fn full() -> Self {
        ThroughputConfig {
            seed: 42,
            z: 0.0625,
            lo: 1.0,
            hi: 8.0,
            denom: 64,
            auction_sizes: vec![16, 256, 1024, 4096],
            batch_sizes: vec![1, 8, 64],
            update_sizes: vec![16, 256, 1024, 4096],
            updates_per_block: 256,
            target_ns_per_cell: 250_000_000,
        }
    }

    /// A seconds-scale subset used by the tier-1 schema/regression test
    /// (keeps `m = 1024` so the incremental-vs-rebuild comparison stays
    /// meaningful at test time).
    pub fn quick() -> Self {
        ThroughputConfig {
            auction_sizes: vec![16, 64],
            batch_sizes: vec![1, 8],
            update_sizes: vec![16, 1024],
            updates_per_block: 64,
            target_ns_per_cell: 2_000_000,
            ..ThroughputConfig::full()
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct ThroughputEntry {
    /// Model slug: `"cp"`, `"ncp-fe"`, or `"ncp-nfe"`.
    pub model: &'static str,
    /// Market size.
    pub m: usize,
    /// Cell family: `"auction"` or `"bid-update"`.
    pub kind: &'static str,
    /// Path slug: `"engine"` for auctions; `"incremental"` (chain
    /// splice), `"engine-rebuild"` (in-place fallback) or
    /// `"full-recompute"` (one-shot solve per update) for bid updates.
    pub path: &'static str,
    /// Batch size (markets cleared per timed block); `1` for bid-update
    /// cells.
    pub batch: usize,
    /// Best-of-reps wall-clock per operation (one auction / one update),
    /// nanoseconds. Fractional: the timed block/batch is divided by the
    /// operation count in `f64`, so sub-nanosecond resolution survives at
    /// small `m` instead of truncating.
    pub ns_per_op: f64,
    /// Derived rate, operations per second (rounded to the nearest
    /// integer).
    pub ops_per_sec: u128,
}

/// Times `op` with a min-of-reps loop: at least two repetitions, stopping
/// once `target_ns` total has elapsed or 64 reps have run.
fn time_ns<R>(target_ns: u128, mut op: impl FnMut() -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut reps: u32 = 0;
    let mut total: u128 = 0;
    let mut last;
    loop {
        let t0 = Instant::now();
        last = op();
        let dt = t0.elapsed().as_nanos();
        best = best.min(dt);
        total += dt;
        reps += 1;
        if reps >= 2 && (total >= target_ns || reps >= 64) {
            return (best, last);
        }
    }
}

fn ops_per_sec(ops: u128, ns: u128) -> u128 {
    if ns == 0 {
        return 0;
    }
    // Round rather than truncate: derived from the full block time in f64,
    // which is exact well past our nanosecond counts (< 2^53).
    (ops as f64 * 1e9 / ns as f64).round() as u128
}

/// The observed-rate vector for a bid vector: every seventh agent slacks by
/// one quantum (same pattern as the payments sweep — keeps rates dyadic
/// while exercising the mixed-schedule shift).
fn slacked(bids: &[f64], denom: u32) -> Vec<f64> {
    bids.iter()
        .enumerate()
        .map(|(i, &w)| {
            if i % 7 == 3 {
                w + 1.0 / denom as f64
            } else {
                w
            }
        })
        .collect()
}

/// The batch of `markets` independent `m`-processor markets for one
/// auctions/sec cell, as `(bids, observed)` pairs; market `k` draws its
/// rates from seed `seed + k`.
pub fn auction_workload(
    cfg: &ThroughputConfig,
    m: usize,
    markets: usize,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..markets)
        .map(|k| {
            let seed = cfg.seed.wrapping_add(k as u64);
            let bids = quantized_rates(m, cfg.lo, cfg.hi, seed, cfg.denom);
            let observed = slacked(&bids, cfg.denom);
            (bids, observed)
        })
        .collect()
}

/// The frozen `(position, new_rate)` schedule replayed by both bid-update
/// paths: positions from the splitmix64 stream, rates from the quantized
/// generator (always valid bids).
pub fn update_schedule(cfg: &ThroughputConfig, m: usize) -> Vec<(usize, f64)> {
    let rates = quantized_rates(
        cfg.updates_per_block,
        cfg.lo,
        cfg.hi,
        cfg.seed.wrapping_add(0x5eed),
        cfg.denom,
    );
    let mut state = cfg.seed.wrapping_add(0xb1d5);
    rates
        .iter()
        .map(|&r| ((splitmix64(&mut state) as usize) % m, r))
        .collect()
}

/// Runs the whole sweep, emitting progress on stderr.
pub fn run_sweep(cfg: &ThroughputConfig) -> Result<Vec<ThroughputEntry>, EngineError> {
    let mut entries = Vec::new();
    for &model in &ALL_MODELS {
        let slug = model_slug(model);

        for &m in &cfg.auction_sizes {
            for &batch in &cfg.batch_sizes {
                let work = auction_workload(cfg, m, batch);
                let Some((first, _)) = work.first() else {
                    continue;
                };
                let mut engine = AuctionEngine::new(model, cfg.z, first.clone())?;
                let (ns_batch, last) = time_ns(cfg.target_ns_per_cell, || {
                    let mut acc = 0.0;
                    for (bids, observed) in &work {
                        engine.load_bids(bids)?;
                        acc += engine.optimal_makespan();
                        acc += engine
                            .payments(observed)?
                            .iter()
                            .map(|p| p.total())
                            .sum::<f64>();
                    }
                    Ok::<f64, EngineError>(std::hint::black_box(acc))
                });
                last?;
                let ns = ns_batch as f64 / batch as f64;
                let ops = ops_per_sec(batch as u128, ns_batch);
                eprintln!(
                    "{slug:8} m={m:5} auction    batch={batch:3} {ns:>14.1} ns/op  {ops:>9} ops/s"
                );
                entries.push(ThroughputEntry {
                    model: slug,
                    m,
                    kind: "auction",
                    path: "engine",
                    batch,
                    ns_per_op: ns,
                    ops_per_sec: ops,
                });
            }
        }

        for &m in &cfg.update_sizes {
            let bids = quantized_rates(m, cfg.lo, cfg.hi, cfg.seed, cfg.denom);
            let schedule = update_schedule(cfg, m);
            let block = schedule.len() as u128;
            if block == 0 {
                continue;
            }
            for path in ["incremental", "engine-rebuild", "full-recompute"] {
                let mut engine = AuctionEngine::new(model, cfg.z, bids.clone())?;
                let mut bids_now = bids.clone();
                let (ns_block, last) = time_ns(cfg.target_ns_per_cell, || {
                    let mut acc = 0.0;
                    for &(i, r) in &schedule {
                        match path {
                            "engine-rebuild" => {
                                engine.submit_bid_rebuild(i, r)?;
                                acc += engine.optimal_makespan();
                            }
                            "full-recompute" => {
                                // The pre-engine one-shot pipeline: mutate
                                // the bid vector, rebuild the market from
                                // scratch, re-solve.
                                if let Some(slot) = bids_now.get_mut(i) {
                                    *slot = r;
                                }
                                let params = BusParams::new(cfg.z, bids_now.clone())?;
                                acc += optimal::optimal_makespan(model, &params);
                            }
                            _ => {
                                engine.submit_bid(i, r)?;
                                acc += engine.optimal_makespan();
                            }
                        }
                    }
                    Ok::<f64, EngineError>(std::hint::black_box(acc))
                });
                last?;
                let ns = ns_block as f64 / block as f64;
                let ops = ops_per_sec(block, ns_block);
                eprintln!(
                    "{slug:8} m={m:5} bid-update {path:<14} {ns:>14.1} ns/op  {ops:>9} ops/s"
                );
                entries.push(ThroughputEntry {
                    model: slug,
                    m,
                    kind: "bid-update",
                    path,
                    batch: 1,
                    ns_per_op: ns,
                    ops_per_sec: ops,
                });
            }
        }
    }
    Ok(entries)
}

/// Speedup of the incremental bid-update path over the from-scratch
/// one-shot `"full-recompute"` path at size `m` for `model`; `None` when
/// either entry is missing.
pub fn update_speedup(entries: &[ThroughputEntry], model: &str, m: usize) -> Option<f64> {
    let find = |path: &str| {
        entries
            .iter()
            .find(|e| e.model == model && e.m == m && e.kind == "bid-update" && e.path == path)
            .map(|e| e.ns_per_op)
    };
    let (inc, full) = (find("incremental")?, find("full-recompute")?);
    if inc <= 0.0 {
        return None;
    }
    Some(full / inc)
}

/// Renders the sweep as the committed `BENCH_throughput.json` document.
/// Hand-rolled writer (the workspace deliberately has no JSON dependency);
/// all dynamic values are integers and short slugs, so escaping is not
/// needed.
pub fn render_json(cfg: &ThroughputConfig, entries: &[ThroughputEntry]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!(
        "  \"config\": {{\"seed\": {}, \"z\": {:?}, \"lo\": {:?}, \"hi\": {:?}, \"denom\": {}, \"updates_per_block\": {}}},\n",
        cfg.seed, cfg.z, cfg.lo, cfg.hi, cfg.denom, cfg.updates_per_block
    ));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"m\": {}, \"kind\": \"{}\", \"path\": \"{}\", \"batch\": {}, \"ns_per_op\": {:?}, \"ops_per_sec\": {}}}{sep}\n",
            e.model, e.m, e.kind, e.path, e.batch, e.ns_per_op, e.ops_per_sec
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_in_range() {
        let cfg = ThroughputConfig::quick();
        let s1 = update_schedule(&cfg, 1024);
        let s2 = update_schedule(&cfg, 1024);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), cfg.updates_per_block);
        for &(i, r) in &s1 {
            assert!(i < 1024);
            assert!(r.is_finite() && r > 0.0);
        }
    }

    #[test]
    fn auction_workload_varies_per_market() {
        let cfg = ThroughputConfig::quick();
        let work = auction_workload(&cfg, 16, 3);
        assert_eq!(work.len(), 3);
        assert_ne!(work[0].0, work[1].0);
        assert!(work.iter().all(|(b, o)| b.len() == 16 && o.len() == 16));
    }

    #[test]
    fn render_json_has_schema_and_balanced_braces() {
        let cfg = ThroughputConfig::quick();
        let entries = vec![ThroughputEntry {
            model: "cp",
            m: 16,
            kind: "auction",
            path: "engine",
            batch: 8,
            ns_per_op: 1200.5,
            ops_per_sec: 833_333,
        }];
        let json = render_json(&cfg, &entries);
        assert!(json.contains("\"schema\": \"dls-bench-throughput-v2\""));
        assert!(json.contains("\"kind\": \"auction\""));
        // Fractional per-op figures survive into the JSON (no integer
        // truncation of small per-op times).
        assert!(json.contains("\"ns_per_op\": 1200.5"));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(opens, 3, "root + config + one entry");
    }

    #[test]
    fn update_speedup_reads_matching_entries() {
        let mk = |path: &'static str, ns: f64| ThroughputEntry {
            model: "cp",
            m: 1024,
            kind: "bid-update",
            path,
            batch: 1,
            ns_per_op: ns,
            ops_per_sec: 0,
        };
        let entries = vec![mk("incremental", 100.0), mk("full-recompute", 900.0)];
        assert_eq!(update_speedup(&entries, "cp", 1024), Some(9.0));
        assert_eq!(update_speedup(&entries, "cp", 16), None);
    }
}
