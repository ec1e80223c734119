//! Determinism pass: the identical-computation assumption, statically.
//!
//! The mechanism's strategyproofness theorems (Thms 5.1–5.3) hold because
//! every honest participant derives the same allocation, meters and
//! payments from the same signed bids. Two classes of code break that
//! without failing any functional test:
//!
//! * **wall-clock reads** (`Instant::now`, `SystemTime`) and
//!   `thread::sleep` inside the session path — the executor is
//!   bit-reproducible precisely because it reads no clock at all: a phase
//!   barrier removes a party by its fault plan and the configured phase
//!   budget alone, and a real clock read makes outcomes host-dependent.
//! * **unordered collections** (`HashMap`/`HashSet`) in modules whose
//!   iteration order can reach a committed output, a canonical encoding or
//!   a message sequence — `RandomState` hashing makes the order differ
//!   *between processes*, so two honest runs sign different bytes.
//!
//! No session path reads time: a phase deadline is a comparison of an
//! injected delay against the budget, so `runtime.rs` and the executor
//! carry no suppression at all. The one legitimate wall-clock read is the service's
//! enqueue→complete latency stamp, behind a mandatory-reason suppression in
//! `service.rs`'s private `latency` module; any *new* wall-clock read in
//! scope needs a written justification too.

use crate::diag::Diagnostic;
use crate::rules::{in_ranges, DETERMINISM};
use crate::SourceFile;

/// Modules where real time must not be read at all: the session executor
/// and everything whose outputs feed canonical (signed) bytes.
pub(crate) const WALLCLOCK_SCOPE_FILES: &[&str] = &[
    "crates/protocol/src/executor.rs",
    "crates/protocol/src/runtime.rs",
    "crates/protocol/src/service.rs",
    "crates/protocol/src/supervisor.rs",
    "crates/protocol/src/multiload.rs",
    "crates/crypto/src/canon.rs",
];
pub(crate) const WALLCLOCK_SCOPE_PREFIXES: &[&str] = &[
    "crates/dlt/src/",
    "crates/mechanism/src/",
    "crates/num/src/",
];

/// Modules where unordered collections are forbidden: the wall-clock scope
/// plus every canonical encoder and the bench report assembly (whose output
/// tables are committed artifacts and must be stable across runs).
pub(crate) const UNORDERED_SCOPE_PREFIXES: &[&str] = &["crates/crypto/src/", "crates/bench/src/"];

/// `true` when the wall-clock half of the rule applies to `rel`.
fn wallclock_scope(rel: &str) -> bool {
    WALLCLOCK_SCOPE_FILES.contains(&rel)
        || WALLCLOCK_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// `true` when the unordered-collection half of the rule applies to `rel`.
fn unordered_scope(rel: &str) -> bool {
    wallclock_scope(rel) || UNORDERED_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// `true` when any half of the determinism rule evaluates in `rel` (drives
/// unused-suppression accounting).
pub fn in_scope(rel: &str) -> bool {
    unordered_scope(rel)
}

/// Runs the pass; returns `true` when at least one scoped file was seen.
pub(crate) fn run(files: &[SourceFile], out: &mut Vec<(usize, Diagnostic)>) -> bool {
    let mut activated = false;
    for (idx, sf) in files.iter().enumerate() {
        let wall = wallclock_scope(&sf.rel);
        let unordered = unordered_scope(&sf.rel);
        if !wall && !unordered {
            continue;
        }
        activated = true;
        let toks = &sf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != crate::lexer::TokenKind::Ident || in_ranges(&sf.excluded, t.line) {
                continue;
            }
            let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
            let message = match t.text.as_str() {
                // `Instant::now()` — storing/passing an `Instant` someone
                // else read is fine; *reading* the clock is the violation.
                "Instant" if text(i + 1) == ":" && text(i + 2) == ":" && text(i + 3) == "now" => {
                    if !wall {
                        continue;
                    }
                    "wall-clock read `Instant::now()` in a declared deterministic module"
                        .to_string()
                }
                // Any use of `SystemTime` is host state (even UNIX_EPOCH
                // arithmetic exists only to difference against a read).
                "SystemTime" => {
                    if !wall {
                        continue;
                    }
                    "`SystemTime` in a declared deterministic module".to_string()
                }
                // `thread::sleep` / `std::thread::sleep`.
                "sleep" if text(i.wrapping_sub(1)) == ":" && i >= 3 && text(i - 3) == "thread" => {
                    if !wall {
                        continue;
                    }
                    "`thread::sleep` in a declared deterministic module".to_string()
                }
                name @ ("HashMap" | "HashSet") => {
                    if !unordered {
                        continue;
                    }
                    format!(
                        "unordered `{name}` in a deterministic module — per-process \
                         RandomState iteration order can leak into committed output"
                    )
                }
                _ => continue,
            };
            out.push((
                idx,
                Diagnostic {
                    rule: DETERMINISM,
                    file: sf.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message,
                    snippet: sf.snippet(t.line),
                    help: "express deadlines through the phase-budget config and \
                           use BTreeMap/BTreeSet (or sort before iterating); a genuinely \
                           real deadline needs `// dls-lint: allow(determinism) -- <reason>`"
                        .to_string(),
                },
            ));
        }
    }
    activated
}
