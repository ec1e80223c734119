//! Portable-float pass: no fused or libm float operations on the payment
//! path.
//!
//! Honest processors and the referee agree on payment vectors with
//! `f64::to_bits` (a one-ULP difference is fined), so every float
//! operation between the bids and `Q_i = C_i + B_i` must round the same
//! way on every host. IEEE-754 guarantees that for `+ - * /` and `sqrt`,
//! which are correctly rounded. It does not for:
//!
//! * `mul_add` — one rounding instead of two, so it differs from the
//!   `a * b + c` an honest peer computes, and falls back to a software
//!   routine where the target has no FMA instruction;
//! * the libm transcendentals (`powf`, `powi`, `exp*`, `ln*`, `log*`,
//!   trigonometric and hyperbolic functions, `cbrt`, `hypot`) — their
//!   last-bit results are implementation-defined and differ between libm
//!   builds and platforms.
//!
//! The pass flags a method call of any of these (`x.powf(..)`) and any
//! use through a float path (`f64::powf(..)`, `map(f64::ln)`) in the
//! modules that compute the allocation, the leave-one-out payments and
//! their adjudication. It is lexical: a field access (`x.exp`), a free
//! function of the same name or another type's path (`log::info`) is not
//! the float method and stays clean.

use crate::diag::Diagnostic;
use crate::rules::{in_ranges, PORTABLE_FLOAT};
use crate::SourceFile;

/// The payment path: the finish times behind every bonus
/// `t_without − t_actual`, DLT solve and leave-one-out payments, the
/// markets that price them, and the protocol code that recomputes and
/// compares them.
const SCOPE: &[&str] = &[
    "crates/dlt/src/model.rs",
    "crates/dlt/src/loo.rs",
    "crates/dlt/src/optimal.rs",
    "crates/dlt/src/chain.rs",
    "crates/mechanism/src/market.rs",
    "crates/mechanism/src/multiload.rs",
    "crates/protocol/src/referee.rs",
    "crates/protocol/src/runtime.rs",
    "crates/protocol/src/executor.rs",
];

/// Float methods whose result is not fixed bit-for-bit by IEEE-754.
const BANNED: &[&str] = &[
    "mul_add", "powf", "powi", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10",
    "sin", "cos", "tan", "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
    "asinh", "acosh", "atanh", "cbrt", "hypot",
];

/// `true` when the pass evaluates in `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.contains(&rel)
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
        let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
        for (i, t) in toks.iter().enumerate() {
            if t.kind != crate::lexer::TokenKind::Ident
                || !BANNED.contains(&t.text.as_str())
                || in_ranges(&sf.excluded, t.line)
            {
                continue;
            }
            // `x.powf(..)`, or `f64::powf` called or passed as a function.
            let method_call = text(i.wrapping_sub(1)) == "." && text(i + 1) == "(";
            let float_path = i >= 3
                && text(i - 1) == ":"
                && text(i - 2) == ":"
                && matches!(text(i - 3), "f64" | "f32");
            if !method_call && !float_path {
                continue;
            }
            let what = if t.text == "mul_add" {
                "fused multiply-add `mul_add` rounds once, unlike the `a * b + c` an honest \
                 peer computes"
            } else {
                "libm transcendental is not correctly rounded; its last bit varies by \
                 platform"
            };
            out.push((
                idx,
                Diagnostic {
                    rule: PORTABLE_FLOAT,
                    file: sf.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!("`{}` on the payment path: {what}", t.text),
                    snippet: sf.snippet(t.line),
                    help: "use + - * / and sqrt (correctly rounded, so every honest node \
                           agrees bit-for-bit), or annotate a non-payment use with \
                           `// dls-lint: allow(portable-float) -- <reason>`"
                        .to_string(),
                },
            ));
        }
    }
    activated
}
