//! Fixture-driven tests for the five cross-file analysis passes
//! (determinism, state-machine, lock-order, unchecked-arith,
//! portable-float), the lexer's
//! adversarial corners they depend on, and a self-check that the analyzer
//! source itself scans clean.

use dls_lint::analyze_sources;
use dls_lint::diag::Report;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Analyzes one fixture as if it lived at `rel_path` in the workspace.
fn run(rel_path: &str, name: &str) -> Report {
    analyze_sources(vec![(rel_path.to_string(), fixture(name))])
}

fn rules(report: &Report) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

// ----------------------------- determinism -----------------------------

#[test]
fn determinism_flags_clock_sleep_and_unordered_in_scope() {
    let report = run("crates/protocol/src/multiload.rs", "det_hit.rs");
    let r = rules(&report);
    assert_eq!(r.len(), 10, "4 time + 6 unordered hits: {:#?}", report.diagnostics);
    assert!(r.iter().all(|r| *r == "determinism"));
    let msgs: Vec<&str> = report.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Instant::now")));
    assert!(msgs.iter().any(|m| m.contains("SystemTime")));
    assert!(msgs.iter().any(|m| m.contains("thread::sleep")));
    assert!(msgs.iter().any(|m| m.contains("HashMap")));
    assert!(msgs.iter().any(|m| m.contains("HashSet")));
}

#[test]
fn determinism_bench_scope_guards_unordered_but_allows_real_time() {
    // Regression for the committed-output audit: bench report assembly must
    // stay iteration-order deterministic, but benches legitimately measure
    // real time, so only the unordered-collection half applies there.
    let report = run("crates/bench/src/service.rs", "det_hit.rs");
    let r = rules(&report);
    assert_eq!(r.len(), 6, "unordered hits only: {:#?}", report.diagnostics);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.message.contains("HashMap") || d.message.contains("HashSet")));
}

#[test]
fn determinism_ignores_out_of_scope_files() {
    let report = run("crates/netsim/src/driver.rs", "det_hit.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn determinism_suppressions_cover_and_count() {
    let report = run("crates/protocol/src/multiload.rs", "det_suppressed.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.suppressed, 4, "use-HashMap, Instant, decl+ctor HashMap");
}

#[test]
fn determinism_lookalikes_stay_clean() {
    let report = run("crates/protocol/src/executor.rs", "det_clean.rs");
    let non_sm: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "determinism")
        .collect();
    assert!(non_sm.is_empty(), "{non_sm:#?}");
}

// ---------------------------- state-machine ----------------------------

#[test]
fn state_machine_accepts_the_declared_graph() {
    let report = run("crates/protocol/src/executor.rs", "sm_clean.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert!(report.passes_run.contains(&"state-machine"));
}

#[test]
fn state_machine_flags_undeclared_variant_edge_and_wildcard() {
    let report = run("crates/protocol/src/executor.rs", "sm_bad.rs");
    let msgs: Vec<&str> = report.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(msgs.len(), 4, "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("`ProcessorState::Zombie` is not in the declared")));
    assert!(msgs.iter().any(|m| m.contains("Processing -> Done")));
    assert!(msgs.iter().any(|m| m.contains("Settled -> Bidding")));
    assert!(msgs.iter().any(|m| m.contains("<statically unknown> -> Settled")));
    assert!(report.diagnostics.iter().all(|d| d.rule == "state-machine"));
}

#[test]
fn state_machine_suppressions_cover_and_count() {
    let report = run("crates/protocol/src/executor.rs", "sm_suppressed.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.suppressed, 4);
}

#[test]
fn state_machine_flags_missing_enum() {
    // A file at the executor path without the declared enums is a spec
    // violation, not a silent skip.
    let report = analyze_sources(vec![(
        "crates/protocol/src/executor.rs".to_string(),
        "pub fn nothing_here() {}\n".to_string(),
    )]);
    let msgs: Vec<&str> = report.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`ProcessorState` not found")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`RefereeState` not found")),
        "{msgs:#?}"
    );
}

// ------------------------------ lock-order -----------------------------

#[test]
fn lock_order_flags_cycles_and_multi_hold_waits() {
    let report = run("crates/protocol/src/runtime.rs", "lock_cycle.rs");
    let msgs: Vec<&str> = report.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(msgs.len(), 3, "{msgs:#?}");
    assert!(
        msgs.iter().any(|m| m.contains("lock-order cycle")
            && m.contains("bcast")
            && m.contains("stats")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("lock-order cycle")
            && m.contains("queue")
            && m.contains("table")),
        "direct-call cycle via helper/inner: {msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("condvar wait") && m.contains("2 locks")),
        "{msgs:#?}"
    );
}

#[test]
fn lock_order_accepts_ordered_nesting_and_reacquisition() {
    let report = run("crates/protocol/src/runtime.rs", "lock_clean.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert!(report.passes_run.contains(&"lock-order"));
}

// ---------------------------- unchecked-arith --------------------------

#[test]
fn arith_flags_every_bare_operator_form() {
    let report = run("crates/num/src/biguint.rs", "arith_hit.rs");
    let r = rules(&report);
    assert_eq!(r.len(), 8, "+ - * << += -= *= <<=: {:#?}", report.diagnostics);
    assert!(r.iter().all(|r| *r == "unchecked-arith"));
    for op in ["`+`", "`-`", "`*`", "`<<`", "`+=`", "`-=`", "`*=`", "`<<=`"] {
        assert!(
            report.diagnostics.iter().any(|d| d.message.contains(op)),
            "missing {op}"
        );
    }
}

#[test]
fn arith_ignores_out_of_scope_files() {
    let report = run("crates/mechanism/src/payments.rs", "arith_hit.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn arith_suppressions_cover_and_count() {
    let report = run("crates/num/src/biguint.rs", "arith_suppressed.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.suppressed, 2);
}

#[test]
fn arith_widening_is_relative_to_the_limb_width() {
    // Every scoped file computes in u64 limbs: `as u64` widens nothing,
    // in biguint.rs exactly as in montgomery.rs; only `as u128` does.
    for rel in ["crates/num/src/montgomery.rs", "crates/num/src/biguint.rs"] {
        let report = run(rel, "arith_limb_width.rs");
        assert_eq!(rules(&report), ["unchecked-arith"], "{rel}: {:#?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 7);
        assert!(report.diagnostics[0].message.contains("`+`"));
    }
}

// ---------------------------- portable-float ---------------------------

/// Golden `(line, message prefix)` list for `float_ops_hit.rs`: every
/// banned form fires exactly once, and no lookalike does.
const FLOAT_OPS_GOLDEN: &[(usize, &str)] = &[
    (7, "`mul_add` on the payment path: fused multiply-add"),
    (8, "`powf` on the payment path: libm transcendental"),
    (8, "`powi` on the payment path: libm transcendental"),
    (9, "`exp` on the payment path: libm transcendental"),
    (9, "`ln` on the payment path: libm transcendental"),
    (10, "`log10` on the payment path: libm transcendental"),
    (10, "`log` on the payment path: libm transcendental"),
    (11, "`sin` on the payment path: libm transcendental"),
    (11, "`tanh` on the payment path: libm transcendental"),
    (12, "`cbrt` on the payment path: libm transcendental"),
    (12, "`hypot` on the payment path: libm transcendental"),
    (14, "`exp_m1` on the payment path: libm transcendental"),
    (15, "`ln_1p` on the payment path: libm transcendental"),
];

#[test]
fn portable_float_golden_on_the_payment_path() {
    for rel in [
        "crates/protocol/src/referee.rs",
        "crates/dlt/src/model.rs",
        "crates/dlt/src/loo.rs",
        "crates/mechanism/src/market.rs",
    ] {
        let report = run(rel, "float_ops_hit.rs");
        let got: Vec<(usize, &str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.line, d.message.as_str()))
            .collect();
        assert_eq!(got.len(), FLOAT_OPS_GOLDEN.len(), "{rel}: {:#?}", report.diagnostics);
        for ((line, msg), (want_line, want_prefix)) in got.iter().zip(FLOAT_OPS_GOLDEN) {
            assert_eq!(line, want_line, "{rel}: {msg}");
            assert!(msg.starts_with(want_prefix), "{rel}: line {line}: {msg}");
        }
        assert!(report.diagnostics.iter().all(|d| d.rule == "portable-float"));
        assert!(report.passes_run.contains(&"portable-float"));
        // The one suppressed `mul_add` at the end of the fixture.
        assert_eq!(report.suppressed, 1, "{rel}");
    }
}

#[test]
fn portable_float_ignores_files_off_the_payment_path() {
    let report = run("crates/netsim/src/gantt.rs", "float_ops_hit.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert!(!report.passes_run.contains(&"portable-float"));
}

// ------------------------- lexer adversarial ---------------------------

#[test]
fn lexer_survives_raw_strings_nested_comments_and_tuple_indices() {
    // Scoped so every rule that could misfire (floats, determinism) is
    // active; all the lookalikes live inside literals/comments or are
    // tuple-index chains, so the file must scan clean — and the fake
    // directives inside literals must not count as suppressions.
    let report = run("crates/num/src/kernel.rs", "lexer_adversarial.rs");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.suppressed, 0, "directives inside literals must not parse");
}

// ------------------------------ self-check -----------------------------

#[test]
fn analyzer_source_scans_clean() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut inputs = Vec::new();
    let mut stack = vec![src_dir.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("src dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = format!(
                    "crates/lint/src/{}",
                    path.strip_prefix(&src_dir)
                        .expect("under src")
                        .display()
                );
                inputs.push((
                    rel.replace('\\', "/"),
                    std::fs::read_to_string(&path).expect("source readable"),
                ));
            }
        }
    }
    assert!(inputs.len() >= 10, "lint sources discovered: {}", inputs.len());
    let report = analyze_sources(inputs);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

// --------------------------- report plumbing ---------------------------

#[test]
fn pass_findings_carry_pass_names_in_json() {
    let report = run("crates/num/src/biguint.rs", "arith_hit.rs");
    let json = report.render_json();
    assert!(json.contains("\"pass\": \"unchecked-arith\""), "{json}");
    // biguint.rs is also in the determinism pass scope, so both report.
    assert!(
        json.contains("\"passes\": [\"determinism\", \"unchecked-arith\"]"),
        "{json}"
    );
}

// ------------------------------ scopes ---------------------------------

#[test]
fn every_scope_path_exists_in_the_workspace() {
    // A deleted or renamed file left in a scope list silently covers
    // nothing; every entry must name a file (or, `/`-terminated, a
    // directory) that exists.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in dls_lint::passes::scope_paths() {
        let path = root.join(rel);
        let exists = if rel.ends_with('/') {
            path.is_dir()
        } else {
            path.is_file()
        };
        assert!(exists, "a lint scope names {rel}, which is not in the workspace");
    }
}
