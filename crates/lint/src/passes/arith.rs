//! Unchecked-arithmetic pass: exact-payment soundness in the limb kernels.
//!
//! Payments in the mechanism are agreed bit-exactly: every honest node
//! recomputes `Q_i` from the same bids and must land on the same bytes.
//! The bignum kernels in `crates/num` are the foundation of that — and a
//! bare `+`/`-`/`*`/`<<` on a limb type wraps silently in release builds,
//! corrupting the payment on *every* node at once (so no cross-check
//! catches it). The kernels therefore spell out their carry discipline
//! with `wrapping_`/`checked_`/`carrying_`-style forms or widening
//! casts; this pass flags the bare operators that slip through.
//!
//! Heuristic, lexical, and deliberately noisy-by-default in scope: a line
//! is exempt when it shows its own evidence of discipline (an explicit
//! `wrapping_*`/`checked_*`/`overflowing_*`/`saturating_*`/`carrying_*`
//! call, or a widening cast to `u128`/`i128`, twice the `u64` limb width of
//! every scoped file); an operator is
//! exempt when one operand is a literal or a SCREAMING_CASE named
//! constant (small-step index bookkeeping like `i + 1` can't overflow
//! before memory does), or when it sits inside `[...]` (index expressions
//! are `usize` bounded by an allocation — at most `isize::MAX` bytes — and
//! every use is bounds-checked at the indexing site). Everything else
//! needs a fix or a `// dls-lint: allow(unchecked-arith) -- <proof>` with
//! a written bound argument.

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::rules::{in_ranges, UNCHECKED_ARITH};
use crate::SourceFile;

/// The limb kernels whose arithmetic feeds exact payments — the slice
/// kernels and word storage, the integers and modular arithmetic on them,
/// the Montgomery kernel and the per-key RSA contexts built on it. All
/// compute in `u64` limbs.
pub(crate) const SCOPE: &[&str] = &[
    "crates/num/src/biguint.rs",
    "crates/num/src/bigint.rs",
    "crates/num/src/limbs.rs",
    "crates/num/src/modmath.rs",
    "crates/num/src/montgomery.rs",
    "crates/crypto/src/ctx.rs",
];

/// `true` when the pass evaluates in `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.contains(&rel)
}

/// Keywords that make a preceding-token position a unary (not binary)
/// context for `-`/`*`/`+`.
const UNARY_CONTEXT_KEYWORDS: &[&str] = &[
    "return", "if", "else", "match", "in", "as", "mut", "let", "while", "for", "break",
    "continue", "move", "ref", "where", "impl", "fn", "use", "pub", "const", "static",
    "struct", "enum", "trait", "type", "loop", "unsafe", "dyn",
];

/// Method-name prefixes that prove a line handles overflow explicitly.
const DISCIPLINE_PREFIXES: &[&str] = &[
    "wrapping_", "checked_", "overflowing_", "saturating_", "carrying_", "widening_",
    "borrowing_",
];

/// `true` when a cast to `ty` absorbs a product or sum of two `u64` limbs.
fn widens(ty: &str) -> bool {
    matches!(ty, "u128" | "i128")
}

fn is_screaming_const(text: &str) -> bool {
    text.len() > 1
        && text.chars().any(|c| c.is_ascii_uppercase())
        && text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// `true` when the token can be the left operand of a binary operator.
fn is_left_operand(t: &Token) -> bool {
    match t.kind {
        TokenKind::Ident => !UNARY_CONTEXT_KEYWORDS.contains(&t.text.as_str()),
        TokenKind::Number => true,
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// `true` when the token can start the right operand of a binary operator.
fn is_right_operand(t: &Token) -> bool {
    matches!(t.kind, TokenKind::Ident | TokenKind::Number)
        || (t.kind == TokenKind::Punct && t.text == "(")
}

/// `true` when either operand is a literal or named constant (exempt:
/// bounded-step bookkeeping, not limb arithmetic).
fn operand_exempt(t: &Token) -> bool {
    t.kind == TokenKind::Number || (t.kind == TokenKind::Ident && is_screaming_const(&t.text))
}

/// Runs the pass; returns `true` when at least one scoped file was seen.
pub(crate) fn run(files: &[SourceFile], out: &mut Vec<(usize, Diagnostic)>) -> bool {
    let mut activated = false;
    for (idx, sf) in files.iter().enumerate() {
        if !in_scope(&sf.rel) {
            continue;
        }
        activated = true;
        let toks = &sf.lexed.tokens;

        // Per-line discipline evidence: any token on the line proving the
        // overflow behavior is explicit.
        let mut evidenced: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let proves = DISCIPLINE_PREFIXES.iter().any(|p| t.text.starts_with(p))
                || (t.text == "as"
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| widens(&n.text)));
            if proves && !evidenced.contains(&t.line) {
                evidenced.push(t.line);
            }
        }

        // Bracket depth: arithmetic inside `[...]` is index/capacity
        // bookkeeping guarded by the bounds check, not limb arithmetic.
        let mut bracket_depth = 0usize;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "[" => {
                    bracket_depth += 1;
                    continue;
                }
                "]" => {
                    bracket_depth = bracket_depth.saturating_sub(1);
                    continue;
                }
                _ => {}
            }
            if bracket_depth > 0 || in_ranges(&sf.excluded, t.line) {
                continue;
            }
            let prev = match i.checked_sub(1).and_then(|p| toks.get(p)) {
                Some(p) => p,
                None => continue,
            };
            let op: &str;
            let rhs_idx: usize;
            match t.text.as_str() {
                "+" | "-" | "*" => {
                    if !is_left_operand(prev) {
                        continue;
                    }
                    match toks.get(i + 1) {
                        // Compound assignment `x += y`: judge the RHS after `=`.
                        Some(n) if n.text == "=" && n.kind == TokenKind::Punct => {
                            op = match t.text.as_str() {
                                "+" => "+=",
                                "-" => "-=",
                                _ => "*=",
                            };
                            rhs_idx = i + 2;
                        }
                        Some(n) if is_right_operand(n) => {
                            op = match t.text.as_str() {
                                "+" => "+",
                                "-" => "-",
                                _ => "*",
                            };
                            rhs_idx = i + 1;
                        }
                        _ => continue,
                    }
                }
                "<" => {
                    // `<<` is two adjacent `<` puncts on one line.
                    let Some(n) = toks.get(i + 1) else { continue };
                    if n.text != "<" || n.line != t.line || n.col != t.col + 1 {
                        continue;
                    }
                    if !is_left_operand(prev) {
                        continue;
                    }
                    match toks.get(i + 2) {
                        Some(e) if e.text == "=" && e.kind == TokenKind::Punct => {
                            op = "<<=";
                            rhs_idx = i + 3;
                        }
                        Some(e) if is_right_operand(e) => {
                            op = "<<";
                            rhs_idx = i + 2;
                        }
                        _ => continue,
                    }
                }
                _ => continue,
            }
            if evidenced.contains(&t.line) {
                continue;
            }
            // Literal / named-constant operand on either side: exempt
            // (shift-by-constant and step-by-constant are bounded by
            // inspection, not a carry-discipline question).
            if operand_exempt(prev) || toks.get(rhs_idx).is_some_and(operand_exempt) {
                continue;
            }
            out.push((
                idx,
                Diagnostic {
                    rule: UNCHECKED_ARITH,
                    file: sf.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "bare `{op}` in a limb kernel — wraps silently in release and \
                         corrupts exact payments identically on every node"
                    ),
                    snippet: sf.snippet(t.line),
                    help: "use a wrapping_/checked_/carrying_ form or a widening cast on \
                           the same line; a provably-bounded index needs \
                           `// dls-lint: allow(unchecked-arith) -- <bound argument>`"
                        .to_string(),
                },
            ));
        }
    }
    activated
}
