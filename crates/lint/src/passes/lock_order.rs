//! Lock-order pass: static deadlock-freedom for the session service.
//!
//! The service's parking lots (idle workers, blocked submitters, stalled
//! workers, the supervisor — each one `Mutex` + `Condvar`), its results
//! table and in-progress registry, and the process-wide session caches
//! (seeded keys, data sets, signatures) only stay deadlock-free as long as
//! no two threads acquire the same pair of locks in opposite orders. The
//! nesting is small — `publish` holds the results table while it clears
//! the in-progress registry and wakes the supervisor — but recovery and
//! shutdown paths add lock sites faster than anyone re-audits them by
//! hand.
//!
//! The pass extracts, per function, the sequence of `<lock>.lock()`
//! acquisitions plus calls into other scoped functions, closes the call
//! graph transitively, and builds the *held-before* graph: an edge
//! `A -> B` whenever `B` is (or may be, through a callee) acquired while
//! `A` is held. A cycle in that graph is a potential deadlock and fails
//! the gate. It also flags a condvar `wait`/`wait_for` reached while more
//! than one lock is held — every parking lot parks with exactly its own
//! mutex.
//!
//! Over-approximations (documented, deliberate): a guard is assumed held
//! until the end of its function (drops are invisible lexically), locks
//! are identified by field/static name across files, and self-edges are
//! ignored (sequential re-acquisition of the same lock in one function —
//! the cache double-checked-init pattern — is not nesting).

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{match_brace, LOCK_ORDER};
use crate::SourceFile;

/// Files holding the service's locks and the session caches' locks.
const SCOPE: &[&str] = &[
    "crates/protocol/src/runtime.rs",
    "crates/protocol/src/executor.rs",
    "crates/protocol/src/service.rs",
    "crates/protocol/src/supervisor.rs",
];

/// `true` when the pass evaluates in `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.contains(&rel)
}

/// One function's lexically extracted lock behavior.
struct FnInfo {
    name: String,
    /// Direct acquisitions in body order: (lock name, line, col).
    acquires: Vec<(String, usize, usize)>,
    /// Calls to other scoped functions in body order: (callee, position
    /// in the acquisition interleaving, line).
    calls: Vec<(String, usize, usize)>,
    file_idx: usize,
    file_rel: String,
    /// Condvar waits: (held count at the wait, line, col).
    waits: Vec<(usize, usize, usize)>,
}

/// Runs the pass; returns `true` when at least one scoped file was seen.
pub(crate) fn run(files: &[SourceFile], out: &mut Vec<(usize, Diagnostic)>) -> bool {
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut activated = false;
    for (idx, sf) in files.iter().enumerate() {
        if !in_scope(&sf.rel) {
            continue;
        }
        activated = true;
        extract_fns(idx, sf, &mut fns);
    }
    if !activated {
        return false;
    }

    // Transitive lock sets per function name (merged across files: locks
    // are name-identified, so a helper called cross-file still counts).
    let mut locks_of: Vec<(String, Vec<String>)> = fns
        .iter()
        .map(|f| {
            let mut l: Vec<String> = f.acquires.iter().map(|(n, _, _)| n.clone()).collect();
            l.sort();
            l.dedup();
            (f.name.clone(), l)
        })
        .collect();
    // Fixpoint over the call graph (bounded: lock-name sets only grow).
    loop {
        let snapshot = locks_of.clone();
        let mut changed = false;
        for (fi, f) in fns.iter().enumerate() {
            for (callee, _, _) in &f.calls {
                let callee_locks: Vec<String> = snapshot
                    .iter()
                    .filter(|(n, _)| n == callee)
                    .flat_map(|(_, l)| l.iter().cloned())
                    .collect();
                for l in callee_locks {
                    let own = &mut locks_of[fi].1;
                    if !own.contains(&l) {
                        own.push(l);
                        own.sort();
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let locks_of_name = |name: &str| -> Vec<String> {
        let mut l: Vec<String> = locks_of
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect();
        l.sort();
        l.dedup();
        l
    };

    // Held-before edges: (from, to, file_idx, line, via).
    let mut edges: Vec<(String, String, usize, usize, String)> = Vec::new();
    for f in &fns {
        // Interleave acquisitions and calls by token position: both vectors
        // carry their position index in `.1`/`.1` respectively.
        let mut events: Vec<(usize, bool, usize)> = Vec::new(); // (pos, is_call, idx)
        for (i, (_, pos, _)) in f.acquires.iter().enumerate() {
            events.push((*pos, false, i));
        }
        for (i, (_, pos, _)) in f.calls.iter().enumerate() {
            events.push((*pos, true, i));
        }
        events.sort();
        let mut held: Vec<String> = Vec::new();
        for (_, is_call, i) in events {
            if is_call {
                let (callee, _, line) = &f.calls[i];
                for l in locks_of_name(callee) {
                    for h in &held {
                        if *h != l {
                            edges.push((
                                h.clone(),
                                l.clone(),
                                f.file_idx,
                                *line,
                                format!("via call to `{callee}` in `{}`", f.name),
                            ));
                        }
                    }
                }
            } else {
                let (l, _, line) = &f.acquires[i];
                for h in &held {
                    if h != l {
                        edges.push((
                            h.clone(),
                            l.clone(),
                            f.file_idx,
                            *line,
                            format!("in `{}`", f.name),
                        ));
                    }
                }
                if !held.contains(l) {
                    held.push(l.clone());
                }
            }
        }
        // Condvar waits with more than one lock held.
        for (held_count, line, col) in &f.waits {
            if *held_count > 1 {
                out.push((
                    f.file_idx,
                    Diagnostic {
                        rule: LOCK_ORDER,
                        file: f.file_rel.clone(),
                        line: *line,
                        col: *col,
                        message: format!(
                            "condvar wait in `{}` while holding {} locks — the parked \
                             thread keeps every extra lock across the whole wait",
                            f.name, held_count
                        ),
                        snippet: files
                            .get(f.file_idx)
                            .map(|sf| sf.snippet(*line))
                            .unwrap_or_default(),
                        help: "park with exactly the condvar's own mutex held; release \
                               (drop) other guards first"
                            .to_string(),
                    },
                ));
            }
        }
    }

    // Cycle detection over the held-before graph.
    report_cycles(files, &edges, out);
    activated
}

/// Extracts function lock/call/wait info from one scoped file.
fn extract_fns(file_idx: usize, sf: &SourceFile, out: &mut Vec<FnInfo>) {
    let toks = &sf.lexed.tokens;
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    // First collect all fn names in scoped files so calls are recognizable
    // in a single forward walk (two-pass: names, then bodies).
    let mut i = 0usize;
    while i < toks.len() {
        if text(i) != "fn" || toks.get(i + 1).map(|t| t.kind) != Some(TokenKind::Ident) {
            i += 1;
            continue;
        }
        let name = text(i + 1).to_string();
        // Find the body `{` before a `;` (trait method decls have none).
        let mut k = i + 2;
        let mut open = None;
        while k < toks.len() {
            match text(k) {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k.max(i + 1);
            continue;
        };
        let close = match_brace(toks, open);
        let mut info = FnInfo {
            name,
            acquires: Vec::new(),
            calls: Vec::new(),
            file_idx,
            file_rel: sf.rel.clone(),
            waits: Vec::new(),
        };
        let mut held_names: Vec<String> = Vec::new();
        for j in open..=close.min(toks.len().saturating_sub(1)) {
            if toks[j].kind != TokenKind::Ident {
                continue;
            }
            match text(j) {
                // `<owner>.lock()` — the lock is the ident before `.lock`.
                "lock" if text(j.wrapping_sub(1)) == "." && text(j + 1) == "(" => {
                    if j >= 2 && toks[j - 2].kind == TokenKind::Ident {
                        let lock = text(j - 2).to_string();
                        if !held_names.contains(&lock) {
                            held_names.push(lock.clone());
                        }
                        info.acquires.push((lock, j, toks[j].line));
                    }
                }
                // Condvar waits (parking_lot: wait / wait_for / wait_while).
                "wait" | "wait_for" | "wait_while"
                    if text(j.wrapping_sub(1)) == "." && text(j + 1) == "(" =>
                {
                    info.waits.push((held_names.len(), toks[j].line, toks[j].col));
                }
                // Any other `name(` is a potential call; filtered against
                // the scoped fn set when edges are built.
                _ if text(j + 1) == "(" && text(j.wrapping_sub(1)) != "fn" => {
                    info.calls.push((text(j).to_string(), j, toks[j].line));
                }
                _ => {}
            }
        }
        out.push(info);
        i = close.saturating_add(1);
    }
}

/// Finds cycles in the held-before graph and reports one diagnostic per
/// distinct cycle (deterministic order).
fn report_cycles(
    files: &[SourceFile],
    edges: &[(String, String, usize, usize, String)],
    out: &mut Vec<(usize, Diagnostic)>,
) {
    let mut nodes: Vec<&str> = edges
        .iter()
        .flat_map(|(a, b, _, _, _)| [a.as_str(), b.as_str()])
        .collect();
    nodes.sort();
    nodes.dedup();
    let mut reported: Vec<Vec<String>> = Vec::new();
    for start in &nodes {
        // DFS from each node; a path returning to `start` is a cycle.
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.to_string(), vec![start.to_string()])];
        while let Some((node, path)) = stack.pop() {
            for (a, b, fidx, line, via) in edges {
                if a != &node {
                    continue;
                }
                if b == start {
                    let mut cycle = path.clone();
                    cycle.push(b.clone());
                    let mut canon = cycle.clone();
                    canon.sort();
                    canon.dedup();
                    if reported.contains(&canon) {
                        continue;
                    }
                    reported.push(canon);
                    out.push((
                        *fidx,
                        Diagnostic {
                            rule: LOCK_ORDER,
                            file: files.get(*fidx).map(|f| f.rel.clone()).unwrap_or_default(),
                            line: *line,
                            col: 1,
                            message: format!(
                                "lock-order cycle: {} ({via} closes the cycle)",
                                cycle.join(" -> ")
                            ),
                            snippet: files
                                .get(*fidx)
                                .map(|f| f.snippet(*line))
                                .unwrap_or_default(),
                            help: "two threads taking these locks in opposite orders can \
                                   deadlock; pick one global order and stick to it"
                                .to_string(),
                        },
                    ));
                } else if !path.contains(b) {
                    let mut p = path.clone();
                    p.push(b.clone());
                    stack.push((b.clone(), p));
                }
            }
        }
    }
}
