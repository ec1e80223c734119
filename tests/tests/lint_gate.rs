//! The lint gate: `cargo test` fails if any workspace invariant checked
//! by `dls-lint` is violated.
//!
//! There is no baseline file: the only way to accept a finding is an
//! inline `// dls-lint: allow(<rule>) -- <reason>` suppression, which the
//! scan itself honours (and flags when it lacks a reason or covers
//! nothing).
//!
//! The same scan is available interactively as `cargo run -p dls-lint`
//! (add `--json` for machine-readable output).

use std::path::Path;

/// Walks up from this package to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
fn workspace_root() -> &'static Path {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
        })
        .expect("test package lives inside the workspace")
}

#[test]
fn workspace_passes_dls_lint() {
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    assert!(
        report.diagnostics.is_empty(),
        "dls-lint found {} violation(s):\n\n{}",
        report.diagnostics.len(),
        report.render_text()
    );
}

#[test]
fn all_analysis_passes_run_on_the_workspace() {
    // Each pass activates only when its scoped files are present; a rename
    // of executor.rs/runtime.rs/biguint.rs must not silently disable a pass.
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    for pass in dls_lint::passes::PASS_NAMES {
        assert!(
            report.passes_run.contains(pass),
            "pass {pass:?} did not activate — were its scoped files renamed? \
             (ran: {:?})",
            report.passes_run
        );
    }
}

#[test]
fn lint_scan_covers_the_whole_workspace() {
    // A refactor that silently excludes members from the scan would make
    // the gate above pass vacuously; pin rough coverage floors.
    let report = dls_lint::scan_workspace(workspace_root()).expect("scan runs");
    assert!(
        report.files_scanned >= 70,
        "only {} files scanned — did member discovery break?",
        report.files_scanned
    );
    assert!(
        report.manifests_checked >= 11,
        "only {} manifests checked — did member discovery break?",
        report.manifests_checked
    );
}
