//! State-machine pass: the executor's transition graphs vs. the declared
//! phase-order spec.
//!
//! The protocol *is* its phase order — Bidding → AwaitBidVerdict →
//! Allocating → … → Done, with Crashed/Defaulted reachable from anywhere
//! (faults) and Halted only out of a verdict wait. The event-driven
//! executor encodes that order as `state = …` assignments scattered over a
//! ~600-line round function; the multi-load extensions on the roadmap will
//! multiply them. This pass re-derives the transition graph from the token
//! stream and diffs it against the spec below, so an illegal edge (say,
//! Processing → Done skipping settlement) fails the tier-1 gate even
//! before any test drives it.
//!
//! ## Extraction heuristics
//!
//! Single-file, lexical, no type information — and still exact for the
//! shape `executor.rs` uses:
//!
//! * The **from-state context** inside a function is tracked through
//!   comparisons: `state == Enum::V` and the guard form
//!   `if state != Enum::V { continue/return }` both pin the context to
//!   `V`; a `!=` comparison whose block *does* something (the
//!   `vm_barrier` default path) resets the context to *unknown*.
//! * An assignment `state = Enum::V` records the edge `context → V`.
//!   Assignments to non-terminal states update the context (the round
//!   function chains phases in one loop body); terminal states do not
//!   (their arms `continue`).
//! * Edges from an *unknown* context are legal only into the declared
//!   accept-from-any sinks (Crashed, Defaulted).
//! * `advance_referee(&mut s, Enum::From, Enum::To)` calls yield referee
//!   edges directly; plain `= RefereeState::V` bindings must construct the
//!   declared initial state.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::STATE_MACHINE;
use crate::SourceFile;

/// The file this pass validates.
pub(crate) const EXECUTOR: &str = "crates/protocol/src/executor.rs";

/// Declared processor machine: states in enum order.
const PROC_STATES: &[&str] = &[
    "Bidding",
    "AwaitBidVerdict",
    "Allocating",
    "AwaitAllocationVerdict",
    "Processing",
    "AwaitMeters",
    "Payments",
    "AwaitSettlement",
    "Crashed",
    "Defaulted",
    "Halted",
    "Done",
];
const PROC_INITIAL: &str = "Bidding";
/// Fault sinks reachable from any state (crash/deadline removal).
const PROC_SINKS_FROM_ANY: &[&str] = &["Crashed", "Defaulted"];
/// Terminal states: assignments into them never advance the phase context.
const PROC_TERMINAL: &[&str] = &["Crashed", "Defaulted", "Halted", "Done"];
/// The legal phase-order edges (besides `* -> sink`).
const PROC_EDGES: &[(&str, &str)] = &[
    ("Bidding", "AwaitBidVerdict"),
    ("AwaitBidVerdict", "Halted"),
    ("AwaitBidVerdict", "Allocating"),
    ("Allocating", "AwaitAllocationVerdict"),
    ("AwaitAllocationVerdict", "Halted"),
    ("AwaitAllocationVerdict", "Processing"),
    ("Processing", "AwaitMeters"),
    ("AwaitMeters", "Payments"),
    ("Payments", "AwaitSettlement"),
    ("AwaitSettlement", "Done"),
];

/// Declared referee machine.
const REF_STATES: &[&str] = &["Bidding", "Allocating", "Processing", "Payments", "Settled"];
const REF_INITIAL: &str = "Bidding";
const REF_EDGES: &[(&str, &str)] = &[
    ("Bidding", "Allocating"),
    ("Bidding", "Settled"),
    ("Allocating", "Processing"),
    ("Allocating", "Settled"),
    ("Processing", "Payments"),
    ("Payments", "Settled"),
];

/// `true` when the pass evaluates in `rel`.
pub fn in_scope(rel: &str) -> bool {
    rel == EXECUTOR
}

/// An observed transition: `from == None` means the context was statically
/// unknown (a wildcard edge).
struct Edge {
    from: Option<String>,
    to: String,
    line: usize,
    col: usize,
}

/// Runs the pass; returns `true` when the executor file was in the
/// snapshot (the gate separately asserts it activates on the workspace).
pub(crate) fn run(files: &[SourceFile], out: &mut Vec<(usize, Diagnostic)>) -> bool {
    let Some((idx, sf)) = files.iter().enumerate().find(|(_, f)| in_scope(&f.rel)) else {
        return false;
    };
    let mut push = |line: usize, col: usize, message: String, help: &str| {
        out.push((
            idx,
            Diagnostic {
                rule: STATE_MACHINE,
                file: sf.rel.clone(),
                line,
                col,
                message,
                snippet: sf.snippet(line),
                help: help.to_string(),
            },
        ));
    };

    check_machine(
        sf,
        &MachineSpec {
            enum_name: "ProcessorState",
            states: PROC_STATES,
            initial: PROC_INITIAL,
            sinks_from_any: PROC_SINKS_FROM_ANY,
            terminal: PROC_TERMINAL,
            edges: PROC_EDGES,
        },
        &mut push,
    );
    check_machine(
        sf,
        &MachineSpec {
            enum_name: "RefereeState",
            states: REF_STATES,
            initial: REF_INITIAL,
            sinks_from_any: &[],
            terminal: &[],
            edges: REF_EDGES,
        },
        &mut push,
    );
    true
}

struct MachineSpec {
    enum_name: &'static str,
    states: &'static [&'static str],
    initial: &'static str,
    sinks_from_any: &'static [&'static str],
    terminal: &'static [&'static str],
    edges: &'static [(&'static str, &'static str)],
}

fn check_machine(
    sf: &SourceFile,
    spec: &MachineSpec,
    push: &mut impl FnMut(usize, usize, String, &str),
) {
    let toks = &sf.lexed.tokens;
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");

    // --- 1. Enum declaration vs. declared state list -----------------------
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut enum_line = None;
    for i in 0..toks.len() {
        if text(i) == "enum" && text(i + 1) == spec.enum_name {
            enum_line = Some(toks[i].line);
            // Body: the next `{` .. matching `}`; variants are idents at
            // depth 1 directly after `{` or `,` (fieldless enums only,
            // which is all this machine uses).
            let mut k = i + 2;
            while k < toks.len() && text(k) != "{" {
                k += 1;
            }
            let close = crate::rules::match_brace(toks, k);
            let mut depth = 0usize;
            for j in k..=close.min(toks.len().saturating_sub(1)) {
                match text(j) {
                    "{" => depth += 1,
                    "}" => depth = depth.saturating_sub(1),
                    _ => {
                        if depth == 1
                            && toks[j].kind == TokenKind::Ident
                            && matches!(text(j.wrapping_sub(1)), "{" | ",")
                        {
                            variants.push((toks[j].text.clone(), toks[j].line));
                        }
                    }
                }
            }
            break;
        }
    }
    let Some(enum_line) = enum_line else {
        push(
            1,
            1,
            format!(
                "declared state machine `{}` not found in {}",
                spec.enum_name, sf.rel
            ),
            "the pass spec in crates/lint/src/passes/state_machine.rs names this \
             enum; update the spec together with the executor",
        );
        return;
    };
    for (v, line) in &variants {
        if !spec.states.contains(&v.as_str()) {
            push(
                *line,
                1,
                format!(
                    "state `{}::{v}` is not in the declared phase spec",
                    spec.enum_name
                ),
                "add the state and its legal edges to the spec in \
                 crates/lint/src/passes/state_machine.rs",
            );
        }
    }
    for s in spec.states {
        if !variants.iter().any(|(v, _)| v == s) {
            push(
                enum_line,
                1,
                format!(
                    "declared state `{}::{s}` is missing from the enum",
                    spec.enum_name
                ),
                "remove it from the spec or restore the variant",
            );
        }
    }

    // --- 2. Observed transitions ------------------------------------------
    let edges = extract_edges(sf, spec);
    let legal = |from: &Option<String>, to: &str| -> bool {
        if spec.sinks_from_any.contains(&to) {
            return true;
        }
        match from {
            Some(f) => spec.edges.iter().any(|(a, b)| a == f && *b == to),
            None => false,
        }
    };
    for e in &edges {
        if !legal(&e.from, &e.to) {
            let from = e.from.as_deref().unwrap_or("<statically unknown>");
            push(
                e.line,
                e.col,
                format!(
                    "undeclared transition {from} -> {to} of `{}`",
                    spec.enum_name,
                    to = e.to
                ),
                "every phase transition must be an edge of the declared spec in \
                 crates/lint/src/passes/state_machine.rs; extend the spec \
                 deliberately if the protocol really gained this edge",
            );
        }
    }

    // --- 3. Reachability ---------------------------------------------------
    for (v, line) in &variants {
        if v == spec.initial || !spec.states.contains(&v.as_str()) {
            continue;
        }
        let incoming = edges.iter().any(|e| e.to == *v);
        if !incoming {
            push(
                *line,
                1,
                format!(
                    "state `{}::{v}` is unreachable: no observed transition enters it",
                    spec.enum_name
                ),
                "dead states hide protocol drift; remove the variant or wire the \
                 transition that should produce it",
            );
        }
    }
}

/// Extracts every observed transition of `spec.enum_name` from the file.
fn extract_edges(sf: &SourceFile, spec: &MachineSpec) -> Vec<Edge> {
    let toks = &sf.lexed.tokens;
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let mut edges: Vec<Edge> = Vec::new();
    // The statically tracked "current state" context; `None` = unknown.
    let mut ctx: Option<String> = None;

    let mut i = 0usize;
    while i < toks.len() {
        // Function boundaries reset the context.
        if text(i) == "fn" {
            ctx = None;
            i += 1;
            continue;
        }
        // `advance_referee(… , Enum::From, Enum::To)` checked transitions.
        if toks[i].kind == TokenKind::Ident
            && text(i) == "advance_referee"
            && text(i + 1) == "("
            && text(i.wrapping_sub(1)) != "fn"
        {
            let mut depth = 0usize;
            let mut k = i + 1;
            let mut named: Vec<(String, usize, usize)> = Vec::new();
            while k < toks.len() {
                match text(k) {
                    "(" => depth += 1,
                    ")" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {
                        if text(k) == spec.enum_name && text(k + 1) == ":" && text(k + 2) == ":" {
                            named.push((
                                text(k + 3).to_string(),
                                toks[k].line,
                                toks[k].col,
                            ));
                        }
                    }
                }
                k += 1;
            }
            if named.len() >= 2 {
                edges.push(Edge {
                    from: Some(named[0].0.clone()),
                    to: named[1].0.clone(),
                    line: named[1].1,
                    col: named[1].2,
                });
            }
            i = k.max(i + 1);
            continue;
        }
        // Comparisons and assignments: `<ident> <op> Enum :: V`.
        let (op_len, is_eq, is_neq, is_assign) = if text(i + 1) == "=" && text(i + 2) == "=" {
            (3, true, false, false)
        } else if text(i + 1) == "!" && text(i + 2) == "=" {
            (3, false, true, false)
        } else if text(i + 1) == "=" {
            (2, false, false, true)
        } else {
            (0, false, false, false)
        };
        if op_len > 0
            && toks[i].kind == TokenKind::Ident
            && text(i + op_len) == spec.enum_name
            && text(i + op_len + 1) == ":"
            && text(i + op_len + 2) == ":"
            && toks
                .get(i + op_len + 3)
                .map(|t| t.kind == TokenKind::Ident)
                .unwrap_or(false)
        {
            let variant = text(i + op_len + 3).to_string();
            let vtok = &toks[i + op_len + 3];
            if is_eq {
                ctx = Some(variant);
            } else if is_neq {
                // Guard (`{ continue/return`) pins the context; a handling
                // block (the vm_barrier default path) loses it.
                let mut k = i + op_len + 4;
                while k < toks.len() && text(k) != "{" {
                    k += 1;
                }
                if matches!(text(k + 1), "continue" | "return") {
                    ctx = Some(variant);
                } else {
                    ctx = None;
                }
            } else if is_assign {
                let prev = text(i.wrapping_sub(1));
                if prev == "let" || prev == "mut" {
                    // `let [mut] x = Enum::V` constructs a fresh machine:
                    // legal only in the declared initial state. A non-initial
                    // construction is reported as a wildcard edge (which is
                    // never legal outside the fault sinks).
                    if variant != spec.initial {
                        edges.push(Edge {
                            from: None,
                            to: variant,
                            line: vtok.line,
                            col: vtok.col,
                        });
                    }
                } else {
                    edges.push(Edge {
                        from: ctx.clone(),
                        to: variant.clone(),
                        line: vtok.line,
                        col: vtok.col,
                    });
                    if !spec.terminal.contains(&variant.as_str()) {
                        ctx = Some(variant);
                    }
                }
            }
            i += op_len + 4;
            continue;
        }
        // Struct-literal construction: `state : Enum :: V` (single colon).
        if toks[i].kind == TokenKind::Ident
            && text(i) == "state"
            && text(i + 1) == ":"
            && text(i + 2) == spec.enum_name
            && text(i + 3) == ":"
            && text(i + 4) == ":"
        {
            let variant = text(i + 5).to_string();
            let line = toks.get(i + 5).map(|t| t.line).unwrap_or(toks[i].line);
            let col = toks.get(i + 5).map(|t| t.col).unwrap_or(1);
            if variant != spec.initial {
                edges.push(Edge {
                    from: None,
                    to: variant,
                    line,
                    col,
                });
            }
            i += 6;
            continue;
        }
        i += 1;
    }
    edges
}
