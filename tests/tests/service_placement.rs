//! The service placement gate: a quick run of the always-on service sweep
//! (`dls_bench::service`) plus the committed release-build
//! `BENCH_service.json`, checked against the documented schema and the
//! placement and kill-churn bars.
//!
//! The gate compares paced tail latency of work stealing against static
//! sharding, so it lives in a test binary of its own: cargo runs test
//! binaries one after another, and no other test of the suite shares the
//! cores with its paced pairs.

use dls_bench::service;

/// Structural validation of a service-benchmark JSON document against the
/// schema documented in EXPERIMENTS.md. Hand-rolled on purpose: the
/// workspace has no JSON dependency, and `render_json` emits one entry per
/// line, so line-level checks are exact.
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
                || line.contains("\"path\": \"service-static\""),
            "unknown path in {line}"
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
/// `(mix, mode, path)`, if present. `churn` selects between the kill-churn
/// re-run of a cell (`kill_every > 0`) and its fault-free sibling, which
/// share all three identifying columns.
fn committed_service_field(
    json: &str,
    mix: &str,
    mode: &str,
    path: &str,
    churn: bool,
    field: &str,
) -> Option<f64> {
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"mix\"")
            || !line.contains(&format!("\"mix\": \"{mix}\""))
            || !line.contains(&format!("\"mode\": \"{mode}\""))
            || !line.contains(&format!("\"path\": \"{path}\""))
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
/// (when present) must match the schema and carry the placement
/// headline: on the paced skewed mix, stealing's p99 latency at most half
/// of static sharding's at equal worker count. It also carries the
/// kill-churn acceptance: churn cells present on both service paths, zero lost
/// tickets anywhere, supervisor respawns covering every kill, and the
/// committed churn p99 within 5x of the fault-free sibling cell.
#[test]
fn service_bench_json_matches_documented_schema() {
    let cfg = service::ServiceBenchConfig::quick();
    let entries = service::run_sweep(&cfg).expect("quick service sweep must succeed");
    for (mix, mode, path) in [
        ("uniform", "closed", "service-steal"),
        ("uniform", "closed", "service-static"),
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
    // every cell.
    for e in &entries {
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
            let steal_p99 =
                committed_service_field(&json, "skewed", "paced", "service-steal", false, "p99_ns")
                    .expect("committed file has the paced stealing cell");
            let static_p99 = committed_service_field(
                &json,
                "skewed",
                "paced",
                "service-static",
                false,
                "p99_ns",
            )
            .expect("committed file has the paced static cell");
            assert!(
                steal_p99 > 0.0 && static_p99 / steal_p99 >= 2.0,
                "committed BENCH_service.json no longer shows the >= 2x p99 improvement \
                 from work stealing on the skewed paced mix: {:.2}x",
                static_p99 / steal_p99
            );
            // Kill-churn acceptance: the faulted stealing cell's p99 stays
            // within 5x of its fault-free sibling at the same batch (the
            // supervisor requeues around kills instead of head-of-line
            // blocking the stream), and the worst death->respawn recovery
            // stays sub-second on a loaded box.
            let churn_p99 =
                committed_service_field(&json, "skewed", "closed", "service-steal", true, "p99_ns")
                    .expect("committed file has the kill-churn stealing cell");
            let base_p99 = committed_service_field(
                &json,
                "skewed",
                "closed",
                "service-steal",
                false,
                "p99_ns",
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
                    &json,
                    "skewed",
                    "closed",
                    path,
                    true,
                    "recovery_max_ns",
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
