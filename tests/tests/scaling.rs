//! Scale and reproducibility smoke tests: the protocol at larger m,
//! bit-exact replay across models and seeds, the exact payment solver at
//! benchmark scale, and the benchmark JSON schema.

use dls::protocol::config::{Behavior, ProcessorConfig, SessionConfig};
use dls::protocol::run_session_vm;
use dls::{SessionStatus, SystemModel};
use dls_bench::multiload;
use dls_bench::payments::{render_json, run_sweep, workload, SweepConfig, SCHEMA};
use dls_bench::service;
use dls_bench::sessions;
use dls_bench::throughput;

fn rates(m: usize) -> Vec<f64> {
    (0..m).map(|i| 1.0 + (i % 5) as f64 * 0.4).collect()
}

#[test]
fn twenty_four_processor_session_completes() {
    let m = 24;
    let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.05)
        .processors(rates(m).into_iter().map(|w| ProcessorConfig::new(w, Behavior::Compliant)))
        .seed(13)
        .blocks(4 * m)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    assert_eq!(out.status, SessionStatus::Completed);
    assert_eq!(out.processors.len(), m);
    // Exactly m(m-1) bid deliveries and m payment vectors.
    assert_eq!(out.messages.category("bid").0 as usize, m * (m - 1));
    assert_eq!(out.messages.category("payment-vector").0 as usize, m);
    // All blocks accounted for.
    let total: usize = out.processors.iter().map(|p| p.blocks_granted).sum();
    assert_eq!(total, 4 * m);
    assert!(out.ledger.conservation_error().abs() < 1e-9);
}

#[test]
fn deviant_detection_scales() {
    // One equivocator among 12: exactly it is fined, everyone else gets
    // F/11.
    let m = 12;
    let deviant = 7;
    let cfg = SessionConfig::builder(SystemModel::NcpNfe, 0.05)
        .processors(rates(m).into_iter().enumerate().map(|(i, w)| {
            ProcessorConfig::new(
                w,
                if i == deviant {
                    Behavior::EquivocateBids { factor: 3.0 }
                } else {
                    Behavior::Compliant
                },
            )
        }))
        .seed(13)
        .blocks(2 * m)
        .build()
        .unwrap();
    let out = run_session_vm(&cfg).unwrap();
    assert_eq!(out.fined_processors(), vec![deviant]);
    let share = out.fine / (m - 1) as f64;
    for (i, p) in out.processors.iter().enumerate() {
        if i != deviant {
            assert!((p.rewarded - share).abs() < 1e-9, "P{}", i + 1);
        }
    }
}

#[test]
fn replay_is_bit_exact_across_models_and_seeds() {
    for model in [SystemModel::NcpFe, SystemModel::NcpNfe] {
        for seed in [0u64, 9, 14] {
            let mk = || {
                let cfg = SessionConfig::builder(model, 0.15)
                    .processors(
                        rates(5)
                            .into_iter()
                            .map(|w| ProcessorConfig::new(w, Behavior::Compliant)),
                    )
                    .seed(seed)
                    .build()
                    .unwrap();
                run_session_vm(&cfg).unwrap()
            };
            let (a, b) = (mk(), mk());
            assert_eq!(a.status, b.status, "{model} seed {seed}");
            assert_eq!(a.makespan, b.makespan);
            for (x, y) in a.processors.iter().zip(&b.processors) {
                assert_eq!(x.utility, y.utility);
                assert_eq!(x.meter, y.meter);
                assert_eq!(x.payment.map(|q| q.total()), y.payment.map(|q| q.total()));
            }
            assert_eq!(a.messages, b.messages);
        }
    }
}

#[test]
fn different_seeds_change_keys_not_economics() {
    // Seeds affect cryptographic material only; the market outcome is
    // identical because the economics are deterministic in the config.
    let mk = |seed| {
        let cfg = SessionConfig::builder(SystemModel::NcpFe, 0.15)
            .processors(
                rates(4)
                    .into_iter()
                    .map(|w| ProcessorConfig::new(w, Behavior::Compliant)),
            )
            .seed(seed)
            .build()
            .unwrap();
        run_session_vm(&cfg).unwrap()
    };
    let (a, b) = (mk(21), mk(22));
    for (x, y) in a.processors.iter().zip(&b.processors) {
        assert_eq!(x.utility, y.utility);
        assert_eq!(x.blocks_granted, y.blocks_granted);
    }
}

/// The O(m) exact payment path must stay tractable at benchmark scale.
/// m = 256 exact payments per model, with a wall-clock budget generous
/// enough for debug builds and loaded CI machines — the point is to catch
/// an accidental return to Θ(m²) (which blows this budget by orders of
/// magnitude), not to measure.
#[test]
fn exact_payments_complete_at_m_256() {
    use dls::mechanism::exact::compute_payments_exact;
    use dls::num::Rational;

    let cfg = SweepConfig::full();
    let start = std::time::Instant::now();
    for model in dls::dlt::ALL_MODELS {
        let (bids, observed) = workload(&cfg, 256);
        let to_rat = |xs: &[f64]| -> Vec<Rational> {
            xs.iter().map(|&x| Rational::from_f64(x).unwrap()).collect()
        };
        let payments = compute_payments_exact(
            model,
            &Rational::from_f64(cfg.z).unwrap(),
            &to_rat(&bids),
            &to_rat(&observed),
        )
        .unwrap();
        assert_eq!(payments.len(), 256);
        // Truthful non-slackers must not lose (Theorem 3.2, exactly). The
        // NCP originators are exempt: removing the head processor promotes
        // its successor into the free-computation originator slot, so the
        // reduced bus can be *faster* and the originator's first bonus term
        // smaller than its second (see `removing_nfe_originator_can_speed_up`
        // in dls-dlt; the FE analogue is symmetric).
        let originator = |i: usize| match model {
            SystemModel::Cp => false,
            SystemModel::NcpFe => i == 0,
            SystemModel::NcpNfe => i == 255,
        };
        for (i, p) in payments.iter().enumerate() {
            if i % 7 != 3 && !originator(i) {
                assert!(!p.bonus.is_negative(), "{model}: agent {i} bonus < 0");
            }
        }
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(120),
        "exact m=256 blew the generous wall-clock budget: {:?}",
        start.elapsed()
    );
}

/// Minimal structural validation of a payments-benchmark JSON document
/// against the schema documented in EXPERIMENTS.md. Hand-rolled on purpose:
/// the workspace has no JSON dependency, and `render_json` emits one entry
/// per line, so line-level checks are exact.
fn validate_payments_json(json: &str) {
    assert!(
        json.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        "schema marker missing"
    );
    assert!(json.contains("\"config\":"), "config object missing");
    let models = ["\"cp\"", "\"ncp-fe\"", "\"ncp-nfe\""];
    let paths = [
        "\"f64-fast\"",
        "\"f64-naive\"",
        "\"exact-fast\"",
        "\"exact-naive\"",
        "\"exact-parallel\"",
    ];
    let mut entries = 0;
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"") {
            continue;
        }
        entries += 1;
        for key in [
            "\"model\": ",
            "\"m\": ",
            "\"path\": ",
            "\"ns_per_op\": ",
            "\"peak_rational_bits\": ",
            "\"extrapolated\": ",
        ] {
            assert!(line.contains(key), "entry missing {key}: {line}");
        }
        assert!(
            models.iter().any(|m| line.contains(&format!("\"model\": {m}"))),
            "unknown model in {line}"
        );
        assert!(
            paths.iter().any(|p| line.contains(&format!("\"path\": {p}"))),
            "unknown path in {line}"
        );
        assert!(
            line.contains("\"extrapolated\": true") || line.contains("\"extrapolated\": false"),
            "extrapolated not boolean in {line}"
        );
    }
    assert!(entries > 0, "no entries found");
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count(), "unbalanced braces");
}

/// A quick sweep must emit a document matching the documented schema, and
/// the committed `BENCH_payments.json` (when present) must still match it.
#[test]
fn bench_json_matches_documented_schema() {
    let cfg = SweepConfig::quick();
    let entries = run_sweep(&cfg);
    // Every (model, path) combination the quick config asks for is present.
    for model in ["cp", "ncp-fe", "ncp-nfe"] {
        for path in ["f64-fast", "f64-naive", "exact-fast", "exact-naive"] {
            assert!(
                entries.iter().any(|e| e.model == model && e.path == path),
                "missing {model}/{path}"
            );
        }
    }
    // Quick config extrapolates naive to m = 16.
    assert!(entries
        .iter()
        .any(|e| e.path == "exact-naive" && e.m == 16 && e.extrapolated));
    validate_payments_json(&render_json(&cfg, &entries));

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_payments.json");
    match std::fs::read_to_string(committed) {
        Ok(json) => validate_payments_json(&json),
        Err(_) => eprintln!("BENCH_payments.json not present; skipping committed-file check"),
    }
}

/// Structural validation of a throughput-benchmark JSON document against
/// the schema documented in EXPERIMENTS.md — same hand-rolled line-level
/// style as [`validate_payments_json`].
fn validate_throughput_json(json: &str) {
    assert!(
        json.contains(&format!("\"schema\": \"{}\"", throughput::SCHEMA)),
        "schema marker missing"
    );
    assert!(json.contains("\"config\":"), "config object missing");
    let models = ["\"cp\"", "\"ncp-fe\"", "\"ncp-nfe\""];
    let kinds = ["\"auction\"", "\"bid-update\""];
    let paths = [
        "\"batched\"",
        "\"incremental\"",
        "\"engine-rebuild\"",
        "\"full-recompute\"",
    ];
    let mut entries = 0;
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"") {
            continue;
        }
        entries += 1;
        for key in [
            "\"model\": ",
            "\"m\": ",
            "\"kind\": ",
            "\"path\": ",
            "\"batch\": ",
            "\"ns_per_op\": ",
            "\"ops_per_sec\": ",
        ] {
            assert!(line.contains(key), "entry missing {key}: {line}");
        }
        assert!(
            models.iter().any(|m| line.contains(&format!("\"model\": {m}"))),
            "unknown model in {line}"
        );
        assert!(
            kinds.iter().any(|k| line.contains(&format!("\"kind\": {k}"))),
            "unknown kind in {line}"
        );
        assert!(
            paths.iter().any(|p| line.contains(&format!("\"path\": {p}"))),
            "unknown path in {line}"
        );
    }
    assert!(entries > 0, "no entries found");
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count(), "unbalanced braces");
}

/// A quick throughput sweep must cover every (model, kind, path) cell of
/// its config, emit a document matching the documented schema, and show the
/// incremental bid-update path no slower than the full-recompute fallback
/// at m = 1024 — the structural property the tentpole exists for. The
/// committed `BENCH_throughput.json` (when present) must match the schema
/// too.
#[test]
fn throughput_bench_json_matches_documented_schema() {
    let cfg = throughput::ThroughputConfig::quick();
    let entries = throughput::run_sweep(&cfg).expect("quick sweep must succeed");
    for model in ["cp", "ncp-fe", "ncp-nfe"] {
        for &m in &cfg.auction_sizes {
            for &batch in &cfg.batch_sizes {
                assert!(
                    entries.iter().any(|e| e.model == model
                        && e.kind == "auction"
                        && e.m == m
                        && e.batch == batch),
                    "missing {model}/auction m={m} batch={batch}"
                );
            }
        }
        for &m in &cfg.update_sizes {
            for path in ["incremental", "engine-rebuild", "full-recompute"] {
                assert!(
                    entries.iter().any(|e| e.model == model
                        && e.kind == "bid-update"
                        && e.m == m
                        && e.path == path),
                    "missing {model}/bid-update/{path} m={m}"
                );
            }
        }
        // The incremental splice must not lose to the full rebuild at the
        // largest quick size. Generous: asserts >= 1x (no regression to a
        // pessimized splice), not the >= 5x the release benchmark shows —
        // debug builds and loaded CI machines add noise.
        let speedup = throughput::update_speedup(&entries, model, 1024)
            .expect("m=1024 bid-update entries present");
        assert!(
            speedup >= 1.0,
            "{model}: incremental bid updates slower than full recompute at m=1024: {speedup:.2}x"
        );
    }
    validate_throughput_json(&throughput::render_json(&cfg, &entries));

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_throughput.json");
    match std::fs::read_to_string(committed) {
        Ok(json) => validate_throughput_json(&json),
        Err(_) => eprintln!("BENCH_throughput.json not present; skipping committed-file check"),
    }
}

/// Structural validation of a sessions-benchmark JSON document against the
/// schema documented in EXPERIMENTS.md — same hand-rolled line-level style
/// as [`validate_payments_json`].
fn validate_sessions_json(json: &str) {
    assert!(
        json.contains(&format!("\"schema\": \"{}\"", sessions::SCHEMA)),
        "schema marker missing"
    );
    assert!(json.contains("\"config\":"), "config object missing");
    let mut entries = 0;
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"") {
            continue;
        }
        entries += 1;
        for key in [
            "\"model\": ",
            "\"m\": ",
            "\"batch\": ",
            "\"path\": ",
            "\"verify\": ",
            "\"sessions_timed\": ",
            "\"ns_per_session\": ",
            "\"sessions_per_sec\": ",
        ] {
            assert!(line.contains(key), "entry missing {key}: {line}");
        }
        assert!(
            line.contains("\"path\": \"pooled\""),
            "unknown path in {line}"
        );
        assert!(
            line.contains("\"verify\": \"amortized\"")
                || line.contains("\"verify\": \"per-receiver\""),
            "unknown verify profile in {line}"
        );
    }
    assert!(entries > 0, "no entries found");
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count(), "unbalanced braces");
}

/// Extracts `ns_per_session` from the committed-JSON entry matching
/// `(m, batch, path, verify)`, if present.
fn committed_ns_per_session(
    json: &str,
    m: usize,
    batch: usize,
    path: &str,
    verify: &str,
) -> Option<f64> {
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"")
            || !line.contains(&format!("\"m\": {m},"))
            || !line.contains(&format!("\"batch\": {batch},"))
            || !line.contains(&format!("\"path\": \"{path}\""))
            || !line.contains(&format!("\"verify\": \"{verify}\""))
        {
            continue;
        }
        let tail = line.split("\"ns_per_session\": ").nth(1)?;
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        return num.parse().ok();
    }
    None
}

/// Per-session cost of the thread-per-party runtime (one OS thread per
/// processor plus the referee, condvar phase barriers) in the committed
/// `BENCH_sessions.json` at commit 6754f5bd880b: the `"threaded"`,
/// amortized, m = 16, batch = 1024 cell, in ns/session. That runtime has
/// been removed; the pooled executor's committed cell is still held to at
/// most a tenth of this baseline.
const THREADED_M16_B1024_NS_PER_SESSION: f64 = 771658034.6875;

/// A quick sessions sweep must cover every (m, batch, path, verify) cell
/// of its config and emit a document matching the documented schema. The
/// committed `BENCH_sessions.json` (when present) must match the schema
/// and carry both headlines: the pooled executor at least 10× the frozen
/// threaded-runtime baseline's sessions/sec at m = 16, batch = 1024, and
/// amortized verification at least 5× the per-receiver `pow_mod`
/// baseline at m = 64 — the cell where the Θ(m²) broadcast makes
/// per-receiver verification the dominant cost.
#[test]
fn sessions_bench_json_matches_documented_schema() {
    let cfg = sessions::SessionsConfig::quick();
    let entries = sessions::run_sweep(&cfg).expect("quick sweep must succeed");
    for &m in &cfg.m_sizes {
        for &batch in &cfg.batch_sizes {
            for (path, verify) in [("pooled", "amortized"), ("pooled", "per-receiver")] {
                assert!(
                    entries.iter().any(|e| e.m == m
                        && e.batch == batch
                        && e.path == path
                        && e.verify == verify),
                    "missing {path}/{verify} m={m} batch={batch}"
                );
            }
        }
    }
    validate_sessions_json(&sessions::render_json(&cfg, &entries));

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sessions.json");
    match std::fs::read_to_string(committed) {
        Ok(json) => {
            validate_sessions_json(&json);
            let pooled = committed_ns_per_session(&json, 16, 1024, "pooled", "amortized")
                .expect("committed file has the pooled amortized m=16 batch=1024 cell");
            let threaded = THREADED_M16_B1024_NS_PER_SESSION;
            assert!(
                pooled > 0.0 && threaded / pooled >= 10.0,
                "committed BENCH_sessions.json no longer shows the >= 10x pooled speedup \
                 at m=16 batch=1024: {:.1}x",
                threaded / pooled
            );
            let amortized = committed_ns_per_session(&json, 64, 1024, "pooled", "amortized")
                .expect("committed file has the pooled amortized m=64 batch=1024 cell");
            let naive = committed_ns_per_session(&json, 64, 1024, "pooled", "per-receiver")
                .expect("committed file has the pooled per-receiver m=64 batch=1024 cell");
            assert!(
                amortized > 0.0 && naive / amortized >= 5.0,
                "committed BENCH_sessions.json no longer shows the >= 5x amortized \
                 verification speedup at m=64 batch=1024: {:.1}x",
                naive / amortized
            );
        }
        Err(_) => eprintln!("BENCH_sessions.json not present; skipping committed-file check"),
    }
}

/// Structural validation of a service-benchmark JSON document against the
/// schema documented in EXPERIMENTS.md — same hand-rolled line-level style
/// as [`validate_sessions_json`].
fn validate_service_json(json: &str) {
    assert!(
        json.contains(&format!("\"schema\": \"{}\"", service::SCHEMA)),
        "schema marker missing"
    );
    assert!(json.contains("\"config\":"), "config object missing");
    let mut entries = 0;
    let mut paced = 0;
    let mut churn = 0;
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"mix\"") {
            continue;
        }
        entries += 1;
        for key in [
            "\"mix\": ",
            "\"mode\": ",
            "\"path\": ",
            "\"scratch\": ",
            "\"batch\": ",
            "\"workers\": ",
            "\"arrival_per_sec\": ",
            "\"sessions_per_sec\": ",
            "\"p50_ns\": ",
            "\"p95_ns\": ",
            "\"p99_ns\": ",
            "\"max_ns\": ",
            "\"rss_mb\": ",
            "\"kill_every\": ",
            "\"kills\": ",
            "\"respawns\": ",
            "\"recovery_max_ns\": ",
            "\"lost\": ",
        ] {
            assert!(line.contains(key), "entry missing {key}: {line}");
        }
        // The no-lost-ticket invariant is part of the schema: a document
        // with a nonzero `lost` column must never be committed (the
        // sweep itself errors out before writing one).
        assert!(
            line.contains("\"lost\": 0}") || line.contains("\"lost\": 0,"),
            "entry discloses lost tickets: {line}"
        );
        if !line.contains("\"kill_every\": 0,") {
            churn += 1;
        }
        assert!(
            line.contains("\"mix\": \"uniform\"") || line.contains("\"mix\": \"skewed\""),
            "unknown mix in {line}"
        );
        assert!(
            line.contains("\"mode\": \"closed\"") || line.contains("\"mode\": \"paced\""),
            "unknown mode in {line}"
        );
        assert!(
            line.contains("\"path\": \"service-steal\"")
                || line.contains("\"path\": \"service-static\"")
                || line.contains("\"path\": \"pooled-static\""),
            "unknown path in {line}"
        );
        assert!(
            line.contains("\"scratch\": \"reused\"") || line.contains("\"scratch\": \"fresh\""),
            "unknown scratch column in {line}"
        );
        if line.contains("\"mode\": \"paced\"") {
            paced += 1;
        }
    }
    assert!(entries > 0, "no entries found");
    assert!(paced >= 2, "paced cells missing (both service paths expected)");
    assert!(
        churn >= 2,
        "kill-churn cells missing (both service paths expected)"
    );
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count(), "unbalanced braces");
}

/// Extracts a numeric field from the committed service-JSON entry matching
/// `(mix, mode, path, scratch)`, if present. `churn` selects between the
/// kill-churn re-run of a cell (`kill_every > 0`) and its fault-free
/// sibling, which share all four identifying columns.
fn committed_service_field(
    json: &str,
    mix: &str,
    mode: &str,
    path: &str,
    scratch: &str,
    churn: bool,
    field: &str,
) -> Option<f64> {
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"mix\"")
            || !line.contains(&format!("\"mix\": \"{mix}\""))
            || !line.contains(&format!("\"mode\": \"{mode}\""))
            || !line.contains(&format!("\"path\": \"{path}\""))
            || !line.contains(&format!("\"scratch\": \"{scratch}\""))
            || line.contains("\"kill_every\": 0,") == churn
        {
            continue;
        }
        let tail = line.split(&format!("\"{field}\": ")).nth(1)?;
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        return num.parse().ok();
    }
    None
}

/// A quick service sweep must cover every documented cell shape, emit a
/// document matching the schema, and show work stealing beating static
/// sharding on paced tail latency. The committed `BENCH_service.json`
/// (when present) must match the schema and carry the two acceptance
/// headlines: on the paced skewed mix, stealing's p99 latency at most
/// half of static sharding's at equal worker count; and on the uniform
/// closed control, the service's sessions/sec no worse than the pooled
/// batch baseline (0.95 floor: the same per-session driver plus ticket
/// machinery, measured on a shared box). Schema v2 adds the kill-churn
/// acceptance: churn cells present on both service paths, zero lost
/// tickets anywhere, supervisor respawns covering every kill, and the
/// committed churn p99 within 5x of the fault-free sibling cell.
#[test]
fn service_bench_json_matches_documented_schema() {
    let cfg = service::ServiceBenchConfig::quick();
    let entries = service::run_sweep(&cfg).expect("quick service sweep must succeed");
    for (mix, mode, path) in [
        ("uniform", "closed", "service-steal"),
        ("uniform", "closed", "service-static"),
        ("uniform", "closed", "pooled-static"),
        ("skewed", "closed", "service-steal"),
        ("skewed", "closed", "service-static"),
        ("skewed", "paced", "service-steal"),
        ("skewed", "paced", "service-static"),
    ] {
        assert!(
            entries
                .iter()
                .any(|e| e.mix == mix && e.mode == mode && e.path == path),
            "missing cell {mix}/{mode}/{path}"
        );
    }
    assert!(
        entries.iter().any(|e| e.scratch == "fresh"),
        "scratch-arena disclosure cell missing"
    );
    // Kill-churn cells: present on both service paths, with the plan
    // actually firing, the supervisor actually healing, and — the whole
    // point — zero lost tickets anywhere in the sweep.
    for path in ["service-steal", "service-static"] {
        let churn = entries
            .iter()
            .find(|e| e.kill_every > 0 && e.path == path)
            .unwrap_or_else(|| panic!("kill-churn cell missing for {path}"));
        assert!(churn.kills >= 1, "{path}: churn plan never killed a worker");
        assert!(
            churn.respawns >= churn.kills,
            "{path}: {} kills but only {} respawns — the supervisor left slots dead",
            churn.kills,
            churn.respawns
        );
        assert!(
            churn.recovery_max_ns > 0,
            "{path}: kills recorded but no recovery latency measured"
        );
    }
    assert!(
        entries.iter().all(|e| e.lost == 0),
        "sweep lost accepted tickets"
    );
    service::churn_p99_ratio(&entries)
        .expect("churn and fault-free skewed closed stealing cells must pair by batch");
    // Latency capture must produce ordered, non-degenerate percentiles on
    // the paced cells.
    for e in entries
        .iter()
        .filter(|e| e.mode == "paced" || e.path != "pooled-static")
    {
        assert!(
            e.p50_ns <= e.p95_ns && e.p95_ns <= e.p99_ns && e.p99_ns <= e.max_ns,
            "latency percentiles out of order in {}/{}/{}",
            e.mix,
            e.mode,
            e.path
        );
        assert!(e.p50_ns > 0, "zero p50 in {}/{}/{}", e.mix, e.mode, e.path);
    }
    // Generous in-test bound (debug build, loaded CI): stealing must at
    // least not lose to static sharding on paced tail latency — the
    // structural concentration effect is ~4-5× in release, so parity is a
    // red flag, not noise. The real ≥ 2× criterion is asserted against
    // the committed release JSON below.
    let improvement = service::p99_improvement(&entries)
        .expect("paced cells present on both service paths");
    assert!(
        improvement >= 1.0,
        "work stealing worse than static sharding on paced skewed p99: {improvement:.2}x"
    );
    validate_service_json(&service::render_json(&cfg, &entries));

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_service.json");
    match std::fs::read_to_string(committed) {
        Ok(json) => {
            validate_service_json(&json);
            let steal_p99 = committed_service_field(
                &json, "skewed", "paced", "service-steal", "reused", false, "p99_ns",
            )
            .expect("committed file has the paced stealing cell");
            let static_p99 = committed_service_field(
                &json, "skewed", "paced", "service-static", "reused", false, "p99_ns",
            )
            .expect("committed file has the paced static cell");
            assert!(
                steal_p99 > 0.0 && static_p99 / steal_p99 >= 2.0,
                "committed BENCH_service.json no longer shows the >= 2x p99 improvement \
                 from work stealing on the skewed paced mix: {:.2}x",
                static_p99 / steal_p99
            );
            let svc_rate = committed_service_field(
                &json, "uniform", "closed", "service-steal", "reused", false, "sessions_per_sec",
            )
            .expect("committed file has the uniform closed stealing cell");
            let pooled_rate = committed_service_field(
                &json, "uniform", "closed", "pooled-static", "reused", false, "sessions_per_sec",
            )
            .expect("committed file has the uniform closed pooled baseline");
            assert!(
                pooled_rate > 0.0 && svc_rate / pooled_rate >= 0.95,
                "committed BENCH_service.json shows the service losing to the pooled \
                 batch baseline on the uniform control: {:.2}x",
                svc_rate / pooled_rate
            );
            // Kill-churn acceptance: the faulted stealing cell's p99 stays
            // within 5x of its fault-free sibling at the same batch (the
            // supervisor requeues around kills instead of head-of-line
            // blocking the stream), and the worst death->respawn recovery
            // stays sub-second on a loaded box.
            let churn_p99 = committed_service_field(
                &json, "skewed", "closed", "service-steal", "reused", true, "p99_ns",
            )
            .expect("committed file has the kill-churn stealing cell");
            let base_p99 = committed_service_field(
                &json, "skewed", "closed", "service-steal", "reused", false, "p99_ns",
            )
            .expect("committed file has the fault-free skewed closed stealing cell");
            assert!(
                base_p99 > 0.0 && churn_p99 / base_p99 <= 5.0,
                "committed BENCH_service.json shows kill-churn inflating skewed closed \
                 p99 beyond the 5x acceptance bound: {:.2}x",
                churn_p99 / base_p99
            );
            for path in ["service-steal", "service-static"] {
                let recovery = committed_service_field(
                    &json, "skewed", "closed", path, "reused", true, "recovery_max_ns",
                )
                .unwrap_or_else(|| panic!("committed file has the {path} kill-churn cell"));
                assert!(
                    recovery > 0.0 && recovery <= 1e9,
                    "{path}: worst death->respawn recovery latency out of bounds: {recovery}ns"
                );
            }
        }
        Err(_) => eprintln!("BENCH_service.json not present; skipping committed-file check"),
    }
}

/// Structural validation of a multiload-benchmark JSON document against
/// the schema documented in EXPERIMENTS.md — same hand-rolled line-level
/// style as [`validate_sessions_json`].
fn validate_multiload_json(json: &str) {
    assert!(
        json.contains(&format!("\"schema\": \"{}\"", multiload::SCHEMA)),
        "schema marker missing"
    );
    assert!(json.contains("\"config\":"), "config object missing");
    let mut entries = 0;
    let mut sessions = 0;
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"") {
            continue;
        }
        entries += 1;
        for key in [
            "\"model\": ",
            "\"m\": ",
            "\"k\": ",
            "\"path\": ",
            "\"ops\": ",
            "\"ns_per_op\": ",
            "\"per_load_ns\": ",
            "\"loads_per_sec\": ",
        ] {
            assert!(line.contains(key), "entry missing {key}: {line}");
        }
        assert!(
            line.contains("\"model\": \"cp\"")
                || line.contains("\"model\": \"ncp-fe\"")
                || line.contains("\"model\": \"ncp-nfe\""),
            "unknown model in {line}"
        );
        assert!(
            line.contains("\"path\": \"splice\"")
                || line.contains("\"path\": \"rebuild\"")
                || line.contains("\"path\": \"resolve\"")
                || line.contains("\"path\": \"session-vm\""),
            "unknown path in {line}"
        );
        if line.contains("\"path\": \"session-vm\"") {
            sessions += 1;
        }
    }
    assert!(entries > 0, "no entries found");
    assert!(sessions > 0, "protocol-level session-vm cells missing");
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count(), "unbalanced braces");
}

/// Extracts a numeric field from the committed multiload-JSON entry
/// matching `(model, m, k, path)`, if present.
fn committed_multiload_field(
    json: &str,
    model: &str,
    m: usize,
    k: usize,
    path: &str,
    field: &str,
) -> Option<f64> {
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"model\"")
            || !line.contains(&format!("\"model\": \"{model}\""))
            || !line.contains(&format!("\"m\": {m},"))
            || !line.contains(&format!("\"k\": {k},"))
            || !line.contains(&format!("\"path\": \"{path}\""))
        {
            continue;
        }
        let tail = line.split(&format!("\"{field}\": ")).nth(1)?;
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        return num.parse().ok();
    }
    None
}

/// A quick multiload sweep must cover every documented cell shape, emit a
/// document matching the schema, and never show the splice path losing to
/// the k-independent-solves baseline. The committed `BENCH_multiload.json`
/// (when present) must match the schema and carry the acceptance
/// headline: the splice path at least 3x the k-independent-solves
/// baseline in loads/sec at k = 64 on the largest market, for every
/// model.
#[test]
fn multiload_bench_json_matches_documented_schema() {
    let cfg = multiload::MultiloadConfig::quick();
    let entries = multiload::run_sweep(&cfg).expect("quick multiload sweep must succeed");
    for model in ["cp", "ncp-fe", "ncp-nfe"] {
        for &m in &cfg.m_sizes {
            for &k in &cfg.k_sizes {
                for path in ["splice", "rebuild", "resolve"] {
                    assert!(
                        entries.iter().any(|e| e.model == model
                            && e.m == m
                            && e.k == k
                            && e.path == path),
                        "missing {model} m={m} k={k} {path}"
                    );
                }
            }
        }
    }
    for &k in &cfg.session_k {
        assert!(
            entries
                .iter()
                .any(|e| e.path == "session-vm" && e.k == k),
            "missing session-vm k={k}"
        );
    }
    let &m = cfg.m_sizes.iter().max().expect("quick config has sizes");
    let &k = cfg.k_sizes.iter().max().expect("quick config has k sizes");
    for model in ["cp", "ncp-fe", "ncp-nfe"] {
        // Generous in-test bound (debug build, loaded CI): the warm
        // splice must at least match k from-scratch re-solves. The real
        // >= 3x criterion is asserted against the committed release JSON
        // below.
        let speedup = multiload::splice_speedup(&entries, model, m, k)
            .expect("largest quick cell present on both paths");
        assert!(
            speedup >= 1.0,
            "splice slower than k independent solves for {model} at m={m} k={k}: {speedup:.2}x"
        );
    }
    validate_multiload_json(&multiload::render_json(&cfg, &entries));

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_multiload.json");
    match std::fs::read_to_string(committed) {
        Ok(json) => {
            validate_multiload_json(&json);
            for model in ["cp", "ncp-fe", "ncp-nfe"] {
                let splice = committed_multiload_field(
                    &json, model, 1024, 64, "splice", "loads_per_sec",
                )
                .expect("committed file has the m=1024 k=64 splice cell");
                let resolve = committed_multiload_field(
                    &json, model, 1024, 64, "resolve", "loads_per_sec",
                )
                .expect("committed file has the m=1024 k=64 resolve cell");
                assert!(
                    resolve > 0.0 && splice / resolve >= 3.0,
                    "committed BENCH_multiload.json no longer shows the >= 3x splice \
                     speedup over k independent solves for {model} at m=1024 k=64: {:.2}x",
                    splice / resolve
                );
            }
        }
        Err(_) => eprintln!("BENCH_multiload.json not present; skipping committed-file check"),
    }
}
