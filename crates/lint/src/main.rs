//! `dls-lint` CLI: scans the workspace and reports invariant violations.
//!
//! ```text
//! dls-lint [--json] [--root <dir>] [--rules] [--help]
//! ```
//!
//! Runs the per-file rules (floats, panics, crate hygiene) plus the five
//! cross-file analysis passes (determinism, state-machine, lock-order,
//! unchecked-arith, portable-float). The only way to accept a finding is
//! an inline `// dls-lint: allow(<rule>) -- <reason>` suppression.
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
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
            "--rules" => {
                for (name, what) in dls_lint::rules::ALL_RULES {
                    println!("{name}\n    {what}\n");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "dls-lint: workspace invariant analyzer\n\n\
                     USAGE: dls-lint [--json] [--root <dir>] [--rules]\n\n\
                     Per-file rules: no-float-in-exact, no-panic-in-protocol, \
                     crate-hygiene.\n\
                     Cross-file passes: determinism (wall-clock/unordered \
                     collections in deterministic modules), state-machine \
                     (executor phase-order spec), lock-order (deadlock \
                     cycles in the service and session caches), unchecked-arith (bare \
                     operators in the bignum limb kernels), portable-float \
                     (mul_add and libm calls on the payment path).\n\
                     Suppress a finding with `// dls-lint: allow(<rule>) -- <reason>`."
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

    match dls_lint::scan_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
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
