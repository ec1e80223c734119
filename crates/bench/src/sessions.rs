//! Session-throughput sweep: the data source for `BENCH_sessions.json`.
//!
//! One cell = (market size `m`) × (batch of independent sessions) ×
//! crypto profile, on the `"service"` path: every session of the batch is
//! submitted to one [`ServiceHandle`] with static-shard placement
//! (session `s` on worker `s mod workers`) and the harness waits on the
//! tickets. Each worker steps the event-driven executor's state machines
//! with virtual-time barriers and delays.
//!
//! Every cell runs the *same* frozen batch: a fixed market (rates from
//! [`crate::workloads::quantized_rates`] at a fixed seed) with session `k`
//! playing scenario `k mod 8` from a chaos cycle (compliant, misreport,
//! slack, crash, delay, garbage, corrupt payments, mute) — so the sweep
//! exercises verdicts, fines and degraded re-runs, not just the happy
//! path, and the executor's deterministic signature/dataset caches warm
//! exactly as they would serving steady repeat traffic.
//!
//! Since schema v2 each entry also carries a `verify` column — the
//! session's crypto profile:
//!
//! * **`"amortized"`** — per-key Montgomery contexts plus the round-shared
//!   verification cache: each distinct signed envelope costs one modexp,
//!   every other receiver hits the memoized verdict.
//! * **`"per-receiver"`** — the pre-Montgomery baseline: every receiver of
//!   a broadcast re-verifies via plain `pow_mod`, so the bidding phase
//!   alone costs m·(m−1) modexps. The executor's unit tests prove the
//!   profile is outcome-neutral, so the columns compare identical work.
//!
//! Honest-measurement notes, reflected in the JSON:
//!
//! * min-of-reps timing (warm steady state); the per-receiver baseline
//!   runs fewer reps;
//! * every cell benefits from the process-wide deterministic key,
//!   dataset and signature caches and shares per-round broadcast
//!   verification.
//!
//! Covered by the workspace no-panic lint gate: measurement never
//! unwraps — session errors surface as the harness error string.

use std::time::Instant;

use dls_dlt::SystemModel;
use dls_protocol::config::{Behavior, CryptoProfile, ProcessorConfig, SessionConfig};
use dls_protocol::referee::Phase;
use dls_protocol::service::{ServiceConfig, ServiceHandle};
use dls_protocol::FaultPlan;

use crate::workloads::quantized_rates;

/// Schema identifier written into the JSON header; bump when the layout of
/// the file changes incompatibly.
pub const SCHEMA: &str = "dls-bench-sessions-v3";

/// Length of the frozen scenario cycle session `k` draws from
/// (`k mod SCENARIO_CYCLE`).
pub const SCENARIO_CYCLE: usize = 8;

/// Everything that determines a sessions sweep; the workload is
/// reproducible from the config alone (wall-clock numbers aside).
#[derive(Debug, Clone)]
pub struct SessionsConfig {
    /// Seed for the market rates and all session key material.
    pub seed: u64,
    /// Bus communication rate `z` (dyadic).
    pub z: f64,
    /// Lower bound of the log-uniform rate range.
    pub lo: f64,
    /// Upper bound of the log-uniform rate range.
    pub hi: f64,
    /// Rates are quantized to multiples of `1/denom`.
    pub denom: u32,
    /// Market sizes.
    pub m_sizes: Vec<usize>,
    /// Sessions per batch.
    pub batch_sizes: Vec<usize>,
    /// Service worker threads.
    pub workers: usize,
    /// Blocks per session load.
    pub blocks: usize,
    /// RSA modulus width for all session key material. The full sweep
    /// runs 1024-bit keys so verification cost is realistic relative to
    /// session overhead; the quick subset keeps the 384-bit minimum so
    /// the debug-build tier-1 test stays fast.
    pub key_bits: usize,
    /// Per-cell time budget in nanoseconds for the min-of-reps loop.
    pub target_ns_per_cell: u128,
}

impl SessionsConfig {
    /// The full sweep behind the committed `BENCH_sessions.json`.
    pub fn full() -> Self {
        SessionsConfig {
            seed: 42,
            z: 0.0625,
            lo: 1.0,
            hi: 8.0,
            denom: 64,
            m_sizes: vec![4, 16, 64],
            batch_sizes: vec![1, 64, 1024],
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            blocks: 60,
            key_bits: 1024,
            target_ns_per_cell: 1_000_000_000,
        }
    }

    /// A seconds-scale subset used by the tier-1 schema/sanity test.
    pub fn quick() -> Self {
        SessionsConfig {
            m_sizes: vec![4, 16],
            batch_sizes: vec![1, 8],
            key_bits: dls_crypto::rsa::MIN_MODULUS_BITS,
            target_ns_per_cell: 50_000_000,
            ..SessionsConfig::full()
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct SessionsEntry {
    /// Model slug (the sweep runs NCP-FE, the paper's primary model).
    pub model: &'static str,
    /// Market size.
    pub m: usize,
    /// Sessions per batch.
    pub batch: usize,
    /// Execution path; always `"service"`.
    pub path: &'static str,
    /// Crypto profile the cell ran under: `"amortized"` (Montgomery
    /// contexts + round-shared verification cache) or `"per-receiver"`
    /// (plain `pow_mod`, re-verified by every receiver).
    pub verify: &'static str,
    /// Sessions executed in the timed block (the full batch).
    pub sessions_timed: usize,
    /// Best-of-reps wall-clock per session, nanoseconds (fractional).
    pub ns_per_session: f64,
    /// Derived rate, sessions per second (rounded).
    pub sessions_per_sec: u128,
}

/// The frozen chaos cycle: which deviation (if any) session `k` injects.
/// Everything is builder-valid at the default 5 s phase budget and any
/// `m ≥ 4`; index arithmetic keeps the victim/faulty parties distinct from
/// the originator so the sweep exercises both verdict-clean rounds and
/// degraded re-runs.
fn scenario_processors(m: usize, rates: &[f64], k: usize) -> Vec<ProcessorConfig> {
    let mut ps: Vec<ProcessorConfig> = rates
        .iter()
        .map(|&w| ProcessorConfig::new(w, Behavior::Compliant))
        .collect();
    let last = m.saturating_sub(1);
    let apply = |p: &mut ProcessorConfig, b: Behavior| p.behavior = b;
    match k % SCENARIO_CYCLE {
        1 => {
            if let Some(p) = ps.get_mut(1) {
                apply(p, Behavior::Misreport { factor: 1.25 });
            }
        }
        2 => {
            if let Some(p) = ps.get_mut(2) {
                apply(p, Behavior::Slack { factor: 1.5 });
            }
        }
        3 => {
            if let Some(p) = ps.get_mut(last) {
                p.fault = FaultPlan::CrashAt(Phase::Processing);
            }
        }
        4 => {
            if let Some(p) = ps.get_mut(1) {
                p.fault = FaultPlan::DelayAt(Phase::Bidding, 2);
            }
        }
        5 => {
            if let Some(p) = ps.get_mut(2) {
                p.fault = FaultPlan::GarbageAt(Phase::Payments);
            }
        }
        6 => {
            if let Some(p) = ps.get_mut(1) {
                apply(p, Behavior::CorruptPayments { target: 0, factor: 2.0 });
            }
        }
        7 => {
            if let Some(p) = ps.get_mut(last) {
                p.fault = FaultPlan::MuteAt(Phase::Allocating);
            }
        }
        _ => {}
    }
    ps
}

/// The frozen batch for one cell: `batch` sessions over the fixed
/// `m`-market, session `k` playing scenario `k mod 8`, all verifying
/// under `profile`.
pub fn session_batch(
    cfg: &SessionsConfig,
    m: usize,
    batch: usize,
    profile: CryptoProfile,
) -> Result<Vec<SessionConfig>, String> {
    let rates = quantized_rates(m, cfg.lo, cfg.hi, cfg.seed, cfg.denom);
    (0..batch)
        .map(|k| {
            SessionConfig::builder(SystemModel::NcpFe, cfg.z)
                .processors(scenario_processors(m, &rates, k))
                .blocks(cfg.blocks)
                .seed(cfg.seed)
                .key_bits(cfg.key_bits)
                .crypto_profile(profile)
                .build()
                .map_err(|e| format!("scenario {k} for m={m} failed to build: {e}"))
        })
        .collect()
}

/// Min-of-reps timing with explicit bounds: at least `min_reps`, at most
/// `max_reps`, stopping once `target_ns` total has elapsed.
fn time_ns_bounded<R>(
    target_ns: u128,
    min_reps: u32,
    max_reps: u32,
    mut op: impl FnMut() -> R,
) -> (u128, R) {
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
        if reps >= min_reps && (total >= target_ns || reps >= max_reps) {
            return (best, last);
        }
    }
}

fn sessions_per_sec(sessions: u128, ns: u128) -> u128 {
    if ns == 0 {
        return 0;
    }
    (sessions as f64 * 1e9 / ns as f64).round() as u128
}

/// Runs the whole sweep, emitting progress on stderr.
pub fn run_sweep(cfg: &SessionsConfig) -> Result<Vec<SessionsEntry>, String> {
    let mut entries = Vec::new();
    // Warm the process-wide crypto caches with one session per market
    // size before timing; min-of-reps would hide the one-time keygen
    // anyway, but paying it outside the timed region keeps every rep of
    // the first cell comparable to the last.
    let mut warmups = Vec::new();
    for &m in &cfg.m_sizes {
        warmups.extend(session_batch(cfg, m, 1, CryptoProfile::Amortized)?);
    }
    crate::workloads::warm_session_caches(&warmups, 1)?;
    let svc = ServiceHandle::start(ServiceConfig::static_shard(cfg.workers))
        .map_err(|e| format!("service failed to start: {e}"))?;
    for &m in &cfg.m_sizes {
        for &batch in &cfg.batch_sizes {
            if batch == 0 {
                continue;
            }
            // Amortized verification, then the per-receiver naive
            // baseline on the same batch: every broadcast re-verified by
            // each receiver via plain pow_mod. That is roughly m× the
            // verification work, so it runs fewer reps; outcomes are
            // bit-identical (differential-tested), the cell measures cost
            // only.
            for (verify, profile, min_reps, max_reps) in [
                ("amortized", CryptoProfile::Amortized, 2, 64),
                ("per-receiver", CryptoProfile::PerReceiverNaive, 1, 8),
            ] {
                let cfgs = session_batch(cfg, m, batch, profile)?;
                let (ns_block, last) =
                    time_ns_bounded(cfg.target_ns_per_cell, min_reps, max_reps, || {
                        let tickets: Vec<u64> = cfgs
                            .iter()
                            .map(|c| svc.submit(c.clone()))
                            .collect::<Result<_, _>>()
                            .map_err(|e| format!("service refused a session: {e}"))?;
                        for t in tickets {
                            let done = svc
                                .wait(t)
                                .ok_or_else(|| format!("service lost ticket {t}"))?;
                            done.outcome
                                .map_err(|e| format!("session {t} failed: {e}"))?;
                        }
                        Ok::<(), String>(())
                    });
                last?;
                let ns = ns_block as f64 / batch as f64;
                let ops = sessions_per_sec(batch as u128, ns_block);
                eprintln!("ncp-fe   m={m:4} batch={batch:5} service  {verify:<12} {ns:>14.1} ns/session  {ops:>8} sessions/s");
                entries.push(SessionsEntry {
                    model: "ncp-fe",
                    m,
                    batch,
                    path: "service",
                    verify,
                    sessions_timed: batch,
                    ns_per_session: ns,
                    sessions_per_sec: ops,
                });
            }
        }
    }
    svc.shutdown();
    Ok(entries)
}

/// Speedup of amortized verification over the per-receiver baseline at
/// `(m, batch)` on the service path — the headline number for the
/// Montgomery + verification-cache work; `None` when either entry is
/// missing.
pub fn crypto_speedup(entries: &[SessionsEntry], m: usize, batch: usize) -> Option<f64> {
    let find = |verify: &str| {
        entries
            .iter()
            .find(|e| e.m == m && e.batch == batch && e.path == "service" && e.verify == verify)
            .map(|e| e.ns_per_session)
    };
    let (amortized, naive) = (find("amortized")?, find("per-receiver")?);
    if amortized <= 0.0 {
        return None;
    }
    Some(naive / amortized)
}

/// Renders the sweep as the committed `BENCH_sessions.json` document.
/// Hand-rolled writer (the workspace deliberately has no JSON dependency);
/// all dynamic values are numbers and short slugs, so escaping is not
/// needed.
pub fn render_json(cfg: &SessionsConfig, entries: &[SessionsEntry]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!(
        "  \"config\": {{\"seed\": {}, \"z\": {:?}, \"lo\": {:?}, \"hi\": {:?}, \"denom\": {}, \"blocks\": {}, \"workers\": {}, \"key_bits\": {}, \"scenario_cycle\": {}}},\n",
        cfg.seed,
        cfg.z,
        cfg.lo,
        cfg.hi,
        cfg.denom,
        cfg.blocks,
        cfg.workers,
        cfg.key_bits,
        SCENARIO_CYCLE
    ));
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"m\": {}, \"batch\": {}, \"path\": \"{}\", \"verify\": \"{}\", \"sessions_timed\": {}, \"ns_per_session\": {:?}, \"sessions_per_sec\": {}}}{sep}\n",
            e.model, e.m, e.batch, e.path, e.verify, e.sessions_timed, e.ns_per_session, e.sessions_per_sec
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_and_cycle_scenarios() {
        let cfg = SessionsConfig::quick();
        let a = session_batch(&cfg, 4, 10, CryptoProfile::Amortized).unwrap();
        let b = session_batch(&cfg, 4, 10, CryptoProfile::Amortized).unwrap();
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.processors, y.processors);
            assert_eq!(x.seed, y.seed);
        }
        // Session 8 replays scenario 0 (all compliant, no faults).
        assert_eq!(a[8].processors, a[0].processors);
        // Scenario 3 injects a crash; scenario 0 does not.
        assert_ne!(a[3].processors, a[0].processors);
    }

    #[test]
    fn every_scenario_builds_at_m4_and_m64() {
        let cfg = SessionsConfig::quick();
        for m in [4usize, 64] {
            for profile in [CryptoProfile::Amortized, CryptoProfile::PerReceiverNaive] {
                let batch = session_batch(&cfg, m, SCENARIO_CYCLE, profile).unwrap();
                assert_eq!(batch.len(), SCENARIO_CYCLE);
                assert!(batch.iter().all(|c| c.crypto_profile == profile));
            }
        }
    }

    #[test]
    fn render_json_has_schema_and_balanced_braces() {
        let cfg = SessionsConfig::quick();
        let entries = vec![SessionsEntry {
            model: "ncp-fe",
            m: 16,
            batch: 64,
            path: "service",
            verify: "amortized",
            sessions_timed: 64,
            ns_per_session: 812_500.25,
            sessions_per_sec: 1231,
        }];
        let json = render_json(&cfg, &entries);
        assert!(json.contains("\"schema\": \"dls-bench-sessions-v3\""));
        assert!(json.contains("\"path\": \"service\""));
        assert!(json.contains("\"verify\": \"amortized\""));
        assert!(json.contains("\"ns_per_session\": 812500.25"));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(opens, 3, "root + config + one entry");
    }

    #[test]
    fn crypto_speedup_reads_matching_entries() {
        let mk = |path: &'static str, verify: &'static str, ns: f64| SessionsEntry {
            model: "ncp-fe",
            m: 16,
            batch: 1024,
            path,
            verify,
            sessions_timed: 16,
            ns_per_session: ns,
            sessions_per_sec: 0,
        };
        let entries = vec![
            mk("service", "amortized", 100.0),
            mk("service", "per-receiver", 700.0),
        ];
        assert_eq!(crypto_speedup(&entries, 16, 1024), Some(7.0));
        assert_eq!(crypto_speedup(&entries, 4, 1024), None);
    }
}
