//! The cross-file analysis passes (the "dls-analyze" layer).
//!
//! Unlike the per-file lexical rules, a pass sees the whole workspace
//! snapshot at once: every scoped file read, lexed and suppression-parsed
//! exactly once. Each pass guards one invariant of the paper's
//! strategyproofness argument that the dynamic test suite can only sample:
//!
//! * [`determinism`] — Theorems 5.1–5.3 assume every honest party computes
//!   the *same* allocation and payments from the same bids; wall-clock
//!   reads, sleeps and unordered-collection iteration are one edit away
//!   from breaking that silently.
//! * [`state_machine`] — the executor's phase order (Bidding → … → Done)
//!   is the protocol itself; an undeclared transition is a protocol bug
//!   even when no current test drives it.
//! * [`lock_order`] — the service's worker, admission, supervisor and
//!   result locks and the shared session caches must stay deadlock-free,
//!   or an accepted ticket can hang instead of resolving.
//! * [`arith`] — exact payment agreement is only as sound as the bignum
//!   limb kernels; a silently wrapping `+` would corrupt `Q_i` bit-exactly
//!   on every honest node at once.
//! * [`float_ops`] — payment vectors are compared with `to_bits`, so the
//!   float path from bids to `Q_i` may use only correctly rounded
//!   operations: no `mul_add`, no libm transcendentals.
//!
//! A pass pushes raw diagnostics tagged with the source-file index; the
//! engine in `lib.rs` applies suppressions and directive hygiene
//! afterwards, so `// dls-lint: allow(<rule>) -- <reason>` works for pass
//! findings exactly as for per-file rules.

pub mod arith;
pub mod determinism;
pub mod float_ops;
pub mod lock_order;
pub mod state_machine;

use crate::diag::Diagnostic;
use crate::SourceFile;

/// All pass names, in the order they run.
pub const PASS_NAMES: &[&str] = &[
    "determinism",
    "state-machine",
    "lock-order",
    "unchecked-arith",
    "portable-float",
];

/// Every workspace path that a per-file rule or a pass names in its
/// scope: files, and directories as `/`-terminated prefixes. An entry
/// naming a path that is not in the workspace covers nothing, so the
/// test suite checks that each one exists.
pub fn scope_paths() -> Vec<&'static str> {
    let mut paths = Vec::new();
    for scope in [
        crate::rules::FLOAT_SCOPE,
        crate::rules::PANIC_SCOPE,
        determinism::WALLCLOCK_SCOPE_FILES,
        determinism::WALLCLOCK_SCOPE_PREFIXES,
        determinism::UNORDERED_SCOPE_PREFIXES,
        lock_order::SCOPE,
        float_ops::SCOPE,
        arith::SCOPE,
    ] {
        paths.extend_from_slice(scope);
    }
    paths.push(state_machine::EXECUTOR);
    paths
}

/// Runs every pass over the snapshot. Returns the names of the passes that
/// found at least one scoped file and actually analyzed something (the gate
/// asserts all five activate on the real workspace).
pub(crate) fn run_all(
    files: &[SourceFile],
    out: &mut Vec<(usize, Diagnostic)>,
) -> Vec<&'static str> {
    let mut ran = Vec::new();
    if determinism::run(files, out) {
        ran.push("determinism");
    }
    if state_machine::run(files, out) {
        ran.push("state-machine");
    }
    if lock_order::run(files, out) {
        ran.push("lock-order");
    }
    if arith::run(files, out) {
        ran.push("unchecked-arith");
    }
    if float_ops::run(files, out) {
        ran.push("portable-float");
    }
    ran
}
