//! The rule catalog and the per-file checking engine.
//!
//! Each rule protects a specific invariant of the paper's strategyproofness
//! argument (Carroll & Grosu, IPPS 2006):
//!
//! * [`NO_FLOAT_IN_EXACT`] — Theorems 4.1/5.2 need payments `Q_i = C_i +
//!   B_i` agreed upon *bit-for-bit* by every processor; the exact-arithmetic
//!   crates must therefore never touch IEEE-754 floats except at explicitly
//!   annotated conversion boundaries.
//! * [`NO_PANIC_IN_PROTOCOL`] — Lemma 5.1's fining argument assumes the
//!   referee and runtime survive arbitrary deviant input; a panic on a
//!   malformed message is a free denial-of-service for a cheater.
//! * [`CRATE_HYGIENE`] — workspace-wide guarantees (`forbid(unsafe_code)`,
//!   documented public APIs, centralized dependency versions) that keep the
//!   other two rules meaningful.

use crate::lexer::{Token, TokenKind};
use crate::diag::Diagnostic;

/// Rule name: floats forbidden in exact-arithmetic code.
pub const NO_FLOAT_IN_EXACT: &str = "no-float-in-exact";
/// Rule name: panicking constructs forbidden in protocol hot paths.
pub const NO_PANIC_IN_PROTOCOL: &str = "no-panic-in-protocol";
/// Rule name: crate-root attributes and manifest hygiene.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// Pseudo-rule for malformed `dls-lint:` directives.
pub const BAD_SUPPRESSION: &str = "bad-suppression";
/// Pseudo-rule for directives that silence nothing.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";
/// Cross-file rule: wall-clock reads, sleeps and unordered collections are
/// forbidden in the declared deterministic modules.
pub const DETERMINISM: &str = "determinism";
/// Cross-file rule: the executor's state machines must match the declared
/// phase-order spec.
pub const STATE_MACHINE: &str = "state-machine";
/// Cross-file rule: lock acquisition nesting must be cycle-free.
pub const LOCK_ORDER: &str = "lock-order";
/// Cross-file rule: bare integer arithmetic is forbidden in the bignum limb
/// kernels outside wrapping/checked/widening forms.
pub const UNCHECKED_ARITH: &str = "unchecked-arith";
/// Cross-file rule: fused multiply-add and libm transcendentals are
/// forbidden on the payment path.
pub const PORTABLE_FLOAT: &str = "portable-float";

/// All rule names, for `--rules` listing and directive validation.
pub const ALL_RULES: &[(&str, &str)] = &[
    (
        NO_FLOAT_IN_EXACT,
        "f32/f64 and float literals are forbidden in the exact-arithmetic \
         crates (crates/num, crates/crypto, mechanism/exact.rs, dlt/exact.rs); \
         exact payment agreement (Thm 4.1/5.2) must not depend on IEEE-754",
    ),
    (
        NO_PANIC_IN_PROTOCOL,
        "unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! and \
         slice indexing are forbidden in protocol hot paths \
         (protocol/src/{runtime,referee,ledger,messages,fault,config,\
         executor,service,supervisor,multiload}.rs, \
         mechanism/src/multiload.rs, dlt/src/{multiload,bus}.rs, \
         bench/src/service.rs); a malformed message must \
         yield a typed error, not a crashed session (Lemma 5.1)",
    ),
    (
        CRATE_HYGIENE,
        "crate roots must carry #![forbid(unsafe_code)] and \
         #![warn(missing_docs)]; member manifests must resolve dependencies \
         through [workspace.dependencies] and inherit [workspace.lints]",
    ),
    (
        DETERMINISM,
        "wall-clock reads (Instant::now, SystemTime), thread::sleep and \
         unordered HashMap/HashSet are forbidden in the declared deterministic \
         session and canonical-encoding modules; the mechanism's strategyproofness \
         (Thms 5.1-5.3) assumes every honest party computes identically",
    ),
    (
        STATE_MACHINE,
        "every `state = ...` transition in the executor must be an edge of \
         the declared phase-order spec (Bidding -> ... -> Done, with \
         Crashed/Defaulted as accept-from-any sinks), and every declared \
         state must be reachable",
    ),
    (
        LOCK_ORDER,
        "Mutex/Condvar acquisition nesting across the session service, its \
         supervisor and the shared session caches must form an acyclic lock \
         graph, and a condvar wait may hold only its own lock (static \
         deadlock-freedom for the service's parking lots)",
    ),
    (
        UNCHECKED_ARITH,
        "bare + - * << on integer limbs in the bignum kernels is forbidden \
         outside wrapping_/checked_/carrying_ forms or widening-cast \
         accumulators; exact payment agreement must not silently wrap",
    ),
    (
        PORTABLE_FLOAT,
        "mul_add and the libm transcendentals (powf, powi, exp*, ln*, log*, \
         trigonometric and hyperbolic functions, cbrt, hypot) are forbidden on \
         the payment path (dlt/src/{model,loo,optimal,chain}.rs, \
         mechanism/src/{market,multiload}.rs, \
         protocol/src/{referee,runtime,executor}.rs); payment vectors are \
         compared with to_bits, so only correctly rounded operations \
         (+ - * / sqrt) may feed them",
    ),
    (
        BAD_SUPPRESSION,
        "a `// dls-lint:` directive could not be parsed (every allow needs \
         `(<rule>)` and a ` -- <reason>`)",
    ),
    (
        UNUSED_SUPPRESSION,
        "a `// dls-lint: allow` directive silences nothing and must be removed",
    ),
];

/// `true` for names that may appear inside `allow(...)`.
pub fn is_known_rule(name: &str) -> bool {
    name == NO_FLOAT_IN_EXACT
        || name == NO_PANIC_IN_PROTOCOL
        || name == CRATE_HYGIENE
        || name == DETERMINISM
        || name == STATE_MACHINE
        || name == LOCK_ORDER
        || name == UNCHECKED_ARITH
        || name == PORTABLE_FLOAT
}

/// `true` when `scope` covers `rel_path`: an entry ending in `/` covers
/// every path under that directory, any other entry exactly one file.
pub(crate) fn scope_covers(scope: &[&str], rel_path: &str) -> bool {
    scope.iter().any(|entry| {
        if entry.ends_with('/') {
            rel_path.starts_with(entry)
        } else {
            rel_path == *entry
        }
    })
}

/// Paths (workspace-relative, unix separators) covered by
/// [`NO_FLOAT_IN_EXACT`].
pub(crate) const FLOAT_SCOPE: &[&str] = &[
    "crates/num/src/",
    "crates/crypto/src/",
    "crates/mechanism/src/exact.rs",
    "crates/dlt/src/exact.rs",
];

/// `true` when [`NO_FLOAT_IN_EXACT`] applies to `rel_path`.
pub fn float_rule_applies(rel_path: &str) -> bool {
    scope_covers(FLOAT_SCOPE, rel_path)
}

/// Paths covered by [`NO_PANIC_IN_PROTOCOL`]. Beyond the protocol hot
/// paths, the incremental auction engine (`mechanism/src/multiload.rs`)
/// qualifies: it re-solves markets from cached state on every bid
/// update, so a panic there lets a deviant bid crash the auctioneer
/// mid-round. The fault/degradation modules (`fault.rs`,
/// `config.rs`) qualify for the same reason inverted: the layer that turns
/// crashes into typed reports must not itself panic. The session
/// executor (`executor.rs`) multiplexes many sessions on one
/// worker, so a panic there takes down every session queued on that
/// worker, not just the faulty one.
/// The always-on service (`service.rs`) is the strongest case of all: its
/// workers outlive any one session, so a panic kills capacity for every
/// future submission; its bench harness (`bench/src/service.rs`) rides
/// along because it drives the service from a benchmark binary that must
/// report, not abort. The multi-load installment stack
/// (`dlt/src/multiload.rs`, `mechanism/src/multiload.rs`,
/// `protocol/src/multiload.rs`) qualifies end to end: one k-load session
/// splices k chains per bid update, so a panic in any layer aborts every
/// in-flight load of the session at once. The bus timeline kernel
/// (`dlt/src/bus.rs`) those schedules run on qualifies with them: it runs
/// on every multi-load re-quote and every processed session.
pub(crate) const PANIC_SCOPE: &[&str] = &[
    "crates/protocol/src/runtime.rs",
    "crates/protocol/src/referee.rs",
    "crates/protocol/src/ledger.rs",
    "crates/protocol/src/messages.rs",
    "crates/protocol/src/fault.rs",
    "crates/protocol/src/config.rs",
    "crates/protocol/src/executor.rs",
    "crates/protocol/src/service.rs",
    "crates/protocol/src/supervisor.rs",
    "crates/bench/src/service.rs",
    "crates/dlt/src/multiload.rs",
    "crates/dlt/src/bus.rs",
    "crates/mechanism/src/multiload.rs",
    "crates/protocol/src/multiload.rs",
];

/// `true` when [`NO_PANIC_IN_PROTOCOL`] applies to `rel_path`.
pub fn panic_rule_applies(rel_path: &str) -> bool {
    scope_covers(PANIC_SCOPE, rel_path)
}

/// Lints one source file in isolation. `rel_path` selects the applicable
/// rules (per-file and cross-file passes alike); the returned diagnostics
/// are unsuppressed violations (suppressed ones are counted in
/// `suppressed_out`).
pub fn lint_source(rel_path: &str, source: &str, suppressed_out: &mut usize) -> Vec<Diagnostic> {
    let report = crate::analyze_sources(vec![(rel_path.to_string(), source.to_string())]);
    *suppressed_out += report.suppressed;
    report.diagnostics
}

/// Runs the per-file lexical rules over one prepared source file, pushing
/// raw (pre-suppression) diagnostics.
pub(crate) fn check_file(sf: &crate::SourceFile, out: &mut Vec<Diagnostic>) {
    let lines: Vec<&str> = sf.lines.iter().map(String::as_str).collect();
    if float_rule_applies(&sf.rel) {
        check_floats(&sf.rel, &sf.lexed.tokens, &sf.excluded, &lines, out);
    }
    if panic_rule_applies(&sf.rel) {
        check_panics(&sf.rel, &sf.lexed.tokens, &sf.excluded, &lines, out);
    }
}

/// `true` when a suppression for `rule` is meaningful in `rel_path` — i.e.
/// some rule or pass actually evaluates that rule there. Directives for
/// rules that are never evaluated in a file are left alone (notably
/// `crate-hygiene`, consumed by the manifest checker), while evaluated-but-
/// unused ones are reported as stale.
pub(crate) fn rule_evaluated_for(rule: &str, rel_path: &str) -> bool {
    (rule == NO_FLOAT_IN_EXACT && float_rule_applies(rel_path))
        || (rule == NO_PANIC_IN_PROTOCOL && panic_rule_applies(rel_path))
        || (rule == DETERMINISM && crate::passes::determinism::in_scope(rel_path))
        || (rule == STATE_MACHINE && crate::passes::state_machine::in_scope(rel_path))
        || (rule == LOCK_ORDER && crate::passes::lock_order::in_scope(rel_path))
        || (rule == UNCHECKED_ARITH && crate::passes::arith::in_scope(rel_path))
        || (rule == PORTABLE_FLOAT && crate::passes::float_ops::in_scope(rel_path))
}

/// Returns a sorted list of `(start_line, end_line)` ranges (inclusive)
/// holding `#[cfg(test)]` modules and `#[test]` functions. Rules skip code
/// inside them: tests may unwrap and compare against floats freely.
pub(crate) fn test_code_lines(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_test_attr_at(tokens, i) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip over this and any further attributes.
        let mut j = i;
        while j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "#" {
            j = skip_attr(tokens, j);
        }
        // Find the body: the first `{` before a terminating `;`.
        let mut k = j;
        let mut open = None;
        while k < tokens.len() {
            if tokens[k].kind == TokenKind::Punct {
                if tokens[k].text == "{" {
                    open = Some(k);
                    break;
                }
                if tokens[k].text == ";" {
                    break;
                }
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_brace(tokens, open);
        let end_line = tokens.get(close).map(|t| t.line).unwrap_or(usize::MAX);
        ranges.push((start_line, end_line));
        i = close.saturating_add(1);
    }
    ranges
}

/// Is `tokens[i..]` the start of `#[test]`, `#[cfg(test)]` or a
/// `#[cfg_attr(test, ...)]`-style attribute mentioning `test`?
fn is_test_attr_at(tokens: &[Token], i: usize) -> bool {
    if tokens.get(i).map(|t| t.text.as_str()) != Some("#") {
        return false;
    }
    if tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
        return false;
    }
    let end = skip_attr(tokens, i);
    let inner = &tokens[i + 2..end.saturating_sub(1).max(i + 2)];
    match inner.first() {
        Some(t) if t.text == "test" && inner.len() == 1 => true,
        // `cfg(test)` / `cfg(any(test, …))` are test code; `cfg(not(test))`
        // is the opposite and must stay in scope.
        Some(t) if t.text == "cfg" => {
            inner.iter().any(|t| t.text == "test") && !inner.iter().any(|t| t.text == "not")
        }
        _ => false,
    }
}

/// Given `tokens[i] == "#"` starting an attribute, returns the index just
/// past the closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut k = i + 1;
    if tokens.get(k).map(|t| t.text.as_str()) != Some("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    while k < tokens.len() {
        if tokens[k].kind == TokenKind::Punct {
            match tokens[k].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    tokens.len()
}

/// Given `tokens[open] == "{"`, returns the index of the matching `}` (or
/// the last token on unbalanced input).
pub(crate) fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < tokens.len() {
        if tokens[k].kind == TokenKind::Punct {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

pub(crate) fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| a <= line && line <= b)
}

pub(crate) fn snippet(lines: &[&str], line: usize) -> String {
    lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// no-float-in-exact
// ---------------------------------------------------------------------------

fn check_floats(
    rel_path: &str,
    tokens: &[Token],
    excluded: &[(usize, usize)],
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for t in tokens {
        if in_ranges(excluded, t.line) {
            continue;
        }
        let message = match t.kind {
            TokenKind::Ident if t.text == "f32" || t.text == "f64" => {
                format!("`{}` used in exact-arithmetic code", t.text)
            }
            TokenKind::Number if t.is_float => {
                format!("float literal `{}` in exact-arithmetic code", t.text)
            }
            _ => continue,
        };
        out.push(Diagnostic {
            rule: NO_FLOAT_IN_EXACT,
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: snippet(lines, t.line),
            help: "use dls_num::Rational / integer arithmetic, or annotate a \
                   conversion boundary with `// dls-lint: allow(no-float-in-exact) -- <reason>`"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// no-panic-in-protocol
// ---------------------------------------------------------------------------

/// Keywords that may legally precede `[` without it being an index
/// expression (array literals / patterns, `let [a, b] = …`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "if", "else", "match", "return", "in", "as", "ref", "move", "box", "break",
    "continue",
    "await", "yield", "where", "const", "static", "dyn", "impl", "for", "while", "loop", "fn",
    "pub", "use", "mod", "struct", "enum", "union", "trait", "type", "unsafe", "extern",
];

fn check_panics(
    rel_path: &str,
    tokens: &[Token],
    excluded: &[(usize, usize)],
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, t) in tokens.iter().enumerate() {
        if in_ranges(excluded, t.line) {
            continue;
        }
        let prev = idx.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(idx + 1);
        let message = match t.kind {
            TokenKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                // `.unwrap(` / `.expect(` method calls only; idents like
                // `unwrap_or` lex as one token and never reach here.
                let is_method_call = prev.map(|p| p.text == ".").unwrap_or(false)
                    && next.map(|n| n.text == "(").unwrap_or(false);
                if !is_method_call {
                    continue;
                }
                format!("`.{}()` may panic on deviant input", t.text)
            }
            TokenKind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) =>
            {
                let is_macro = next.map(|n| n.text == "!").unwrap_or(false);
                // `core::panic` paths and shadowing idents are not calls.
                let after_path = prev.map(|p| p.text == ":").unwrap_or(false);
                if !is_macro || after_path {
                    continue;
                }
                format!("`{}!` aborts the session on a reachable path", t.text)
            }
            TokenKind::Punct if t.text == "[" => {
                let indexing = match prev {
                    Some(p) => match p.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                        TokenKind::Punct => p.text == "]" || p.text == ")" || p.text == "?",
                        _ => false,
                    },
                    None => false,
                };
                if !indexing {
                    continue;
                }
                "slice indexing panics when out of bounds".to_string()
            }
            _ => continue,
        };
        out.push(Diagnostic {
            rule: NO_PANIC_IN_PROTOCOL,
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: snippet(lines, t.line),
            help: "return a typed error (RunError/RefereeError) or use \
                   .get()/.get_mut(); if infallibility is provable, annotate with \
                   `// dls-lint: allow(no-panic-in-protocol) -- <proof>`"
                .to_string(),
        });
    }
}
