//! # `dls-lint` / dls-analyze — workspace invariant analyzer
//!
//! A std-only, offline static analyzer that machine-enforces the repo
//! invariants behind the paper's strategyproofness guarantees. The
//! per-file lexical rules from PR 1:
//!
//! * **no-float-in-exact** — the exact-arithmetic crates (`dls-num`,
//!   `dls-crypto`, `mechanism::exact`, `dlt::exact`) must not use `f32`/
//!   `f64` or float literals outside annotated conversion boundaries, so
//!   payments `Q_i = C_i + B_i` (Theorems 4.1/5.2) stay bit-exact.
//! * **no-panic-in-protocol** — `unwrap()`, `expect()`, `panic!`-family
//!   macros and slice indexing are forbidden in the protocol hot paths
//!   (`runtime`, `referee`, `ledger`, `messages`): a deviant peer must cost
//!   itself a fine (Lemma 5.1), never crash the session.
//! * **crate-hygiene** — every crate root carries `#![forbid(unsafe_code)]`
//!   and `#![warn(missing_docs)]`; member manifests resolve dependencies
//!   through `[workspace.dependencies]` and inherit `[workspace.lints]`.
//!
//! Plus five cross-file passes (see [`passes`]) guarding the dynamic
//! invariants the executor differential only samples:
//!
//! * **determinism** — no wall-clock reads, sleeps or unordered
//!   `HashMap`/`HashSet` in the declared deterministic session and
//!   canonical-encoding modules.
//! * **state-machine** — the executor's `ProcessorState`/`RefereeState`
//!   transition graphs must match the declared phase-order spec.
//! * **lock-order** — `Mutex`/`Condvar` acquisition nesting across the
//!   session service, its supervisor and the shared session caches must
//!   be cycle-free.
//! * **unchecked-arith** — no bare `+ - * <<` on integer limbs in the
//!   bignum kernels outside wrapping/checked/widening forms.
//! * **portable-float** — no `mul_add` or libm transcendental on the
//!   payment path, whose vectors honest nodes compare with `to_bits`.
//!
//! Violations are burned down explicitly with
//! `// dls-lint: allow(<rule>) -- <reason>`; the reason is mandatory and
//! unused suppressions are themselves violations.
//!
//! Run it three ways:
//!
//! ```text
//! cargo run -p dls-lint            # rustc-style diagnostics, exit 1 on hit
//! cargo run -p dls-lint -- --json  # machine-readable report (schema v2)
//! cargo test -q                    # tests/lint_gate.rs enforces it forever
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use diag::{Diagnostic, Report};

use std::path::Path;

/// One source file, read and lexed exactly once so the per-file rules and
/// every cross-file pass share the same token stream, test-code exclusion
/// ranges and suppression table.
pub(crate) struct SourceFile {
    /// Workspace-relative unix path (scope selector for every rule).
    pub(crate) rel: String,
    /// Source split into lines (for diagnostic snippets).
    pub(crate) lines: Vec<String>,
    /// Lexed tokens + comments.
    pub(crate) lexed: lexer::Lexed,
    /// `#[test]` / `#[cfg(test)]` line ranges, excluded from lexical rules.
    pub(crate) excluded: Vec<(usize, usize)>,
}

impl SourceFile {
    fn new(rel: String, source: &str) -> Self {
        let lexed = lexer::lex(source);
        let excluded = rules::test_code_lines(&lexed.tokens);
        SourceFile {
            rel,
            lines: source.lines().map(str::to_string).collect(),
            lexed,
            excluded,
        }
    }

    /// Diagnostic snippet for `line` (1-based).
    pub(crate) fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Analyzes a set of in-memory sources (`(workspace-relative path, source)`)
/// with the full engine: per-file rules, cross-file passes, suppression
/// accounting. This is the core [`scan_workspace`] runs over the real tree
/// and the fixture tests run over synthetic ones.
pub fn analyze_sources(inputs: Vec<(String, String)>) -> Report {
    let mut files: Vec<SourceFile> = Vec::with_capacity(inputs.len());
    let mut sups: Vec<suppress::Suppressions> = Vec::with_capacity(inputs.len());
    for (rel, source) in inputs {
        let sf = SourceFile::new(rel, &source);
        sups.push(suppress::Suppressions::from_comments(&sf.lexed.comments));
        files.push(sf);
    }

    // Raw findings, tagged with the index of the file they belong to so
    // suppression filtering can use that file's directive table.
    let mut raw: Vec<(usize, Diagnostic)> = Vec::new();
    for (idx, sf) in files.iter().enumerate() {
        let mut per_file = Vec::new();
        rules::check_file(sf, &mut per_file);
        raw.extend(per_file.into_iter().map(|d| (idx, d)));
    }
    let passes_run = passes::run_all(&files, &mut raw);

    let mut report = Report {
        files_scanned: files.len(),
        passes_run,
        ..Report::default()
    };
    for (idx, d) in raw {
        if sups
            .get_mut(idx)
            .map(|s| s.covers(d.rule, d.line))
            .unwrap_or(false)
        {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }

    // Directive hygiene: malformed directives are always violations; a
    // well-formed directive that silenced nothing is stale (evaluated
    // rules only — `crate-hygiene` allows belong to the manifest checker).
    for (sf, sup) in files.iter().zip(&sups) {
        for bad in &sup.bad {
            report.diagnostics.push(Diagnostic {
                rule: rules::BAD_SUPPRESSION,
                file: sf.rel.clone(),
                line: bad.line,
                col: 1,
                message: bad.problem.clone(),
                snippet: sf.snippet(bad.line),
                help: "write `// dls-lint: allow(<rule>) -- <reason>`".to_string(),
            });
        }
        for s in &sup.entries {
            if !s.used
                && s.rules
                    .iter()
                    .any(|r| rules::rule_evaluated_for(r, &sf.rel))
            {
                report.diagnostics.push(Diagnostic {
                    rule: rules::UNUSED_SUPPRESSION,
                    file: sf.rel.clone(),
                    line: s.directive_line,
                    col: 1,
                    message: format!(
                        "suppression of {} silences nothing and must be removed",
                        s.rules.join(", ")
                    ),
                    snippet: sf.snippet(s.directive_line),
                    help: String::new(),
                });
            }
        }
    }

    report.sort();
    report
}

/// Runs every rule and pass over the workspace rooted at `root` and returns
/// the aggregated report (sorted, deterministic).
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let members = walk::member_dirs(root)?;
    let mut sources: Vec<(String, String)> = Vec::new();

    for member in &members {
        // Manifest hygiene.
        let manifest_path = member.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest_path) {
            report.manifests_checked += 1;
            let rel = walk::rel_unix(root, &manifest_path);
            report
                .diagnostics
                .extend(manifest::check_manifest(&rel, &content, &mut report.suppressed));
        }

        // Crate-root attributes.
        let lib = member.join("src/lib.rs");
        let main = member.join("src/main.rs");
        let crate_root = if lib.is_file() {
            Some(lib)
        } else if main.is_file() {
            Some(main)
        } else {
            None
        };
        if let Some(crate_root) = crate_root {
            if let Ok(src) = std::fs::read_to_string(&crate_root) {
                let rel = walk::rel_unix(root, &crate_root);
                report.diagnostics.extend(manifest::check_crate_root(
                    &rel,
                    &src,
                    &mut report.suppressed,
                ));
            }
        }

        // Source files, collected for the shared per-file + cross-file run.
        for file in walk::rust_files(member) {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            sources.push((walk::rel_unix(root, &file), src));
        }
    }

    let analyzed = analyze_sources(sources);
    report.files_scanned = analyzed.files_scanned;
    report.suppressed += analyzed.suppressed;
    report.passes_run = analyzed.passes_run;
    report.diagnostics.extend(analyzed.diagnostics);

    report.sort();
    Ok(report)
}
