//! `dls-lint` CLI: scans the workspace and reports invariant violations.
//!
//! ```text
//! dls-lint [--json] [--root <dir>] [--baseline <file>] [--rules] [--help]
//! ```
//!
//! Runs the per-file rules (floats, panics, crate hygiene) plus the five
//! cross-file analysis passes (determinism, state-machine, lock-order,
//! unchecked-arith, portable-float). With `--baseline`, findings recorded
//! in the given `lint_baseline.json` are reported but do not affect the
//! exit status.
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => {
                    eprintln!("error: --baseline needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                for (name, what) in dls_lint::rules::ALL_RULES {
                    println!("{name}\n    {what}\n");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "dls-lint: workspace invariant analyzer\n\n\
                     USAGE: dls-lint [--json] [--root <dir>] [--baseline <file>] [--rules]\n\n\
                     Per-file rules: no-float-in-exact, no-panic-in-protocol, \
                     crate-hygiene.\n\
                     Cross-file passes: determinism (wall-clock/unordered \
                     collections in virtual-time modules), state-machine \
                     (executor phase-order spec), lock-order (deadlock \
                     cycles in the service and session caches), unchecked-arith (bare \
                     operators in the bignum limb kernels), portable-float \
                     (mul_add and libm calls on the payment path).\n\
                     Suppress a finding with `// dls-lint: allow(<rule>) -- <reason>`;\n\
                     --baseline accepts findings listed in a lint_baseline.json."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let start = root.unwrap_or_else(|| PathBuf::from("."));
    // Relative paths (the common `cargo run -p dls-lint` case from a
    // subdirectory) have no ancestors to walk; resolve before searching.
    let start = start.canonicalize().unwrap_or(start);
    let Some(root) = dls_lint::walk::find_workspace_root(&start) else {
        eprintln!(
            "error: no workspace root found at or above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    let baseline = match baseline_path {
        Some(p) => {
            let text = match std::fs::read_to_string(&p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            match dls_lint::baseline::parse(&text) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => Vec::new(),
    };

    match dls_lint::scan_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            let (fresh, accepted) = dls_lint::baseline::diff(&report.diagnostics, &baseline);
            if !accepted.is_empty() {
                eprintln!("dls-lint: {} finding(s) accepted by baseline", accepted.len());
            }
            if fresh.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
