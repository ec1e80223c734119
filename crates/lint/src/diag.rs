//! Diagnostics: rustc-style text rendering and the machine-readable
//! `--json` report.

use std::fmt::Write as _;

/// Analyzer pass a rule belongs to: the per-file lexical rules and the
/// suppression/manifest machinery report as `core`; each cross-file pass
/// reports under its own name.
pub fn pass_of(rule: &str) -> &'static str {
    match rule {
        crate::rules::DETERMINISM => "determinism",
        crate::rules::STATE_MACHINE => "state-machine",
        crate::rules::LOCK_ORDER => "lock-order",
        crate::rules::UNCHECKED_ARITH => "unchecked-arith",
        crate::rules::PORTABLE_FLOAT => "portable-float",
        _ => "core",
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired (e.g. `no-float-in-exact`).
    pub rule: &'static str,
    /// Workspace-relative file path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Hint on how to fix or suppress.
    pub help: String,
}

impl Diagnostic {
    /// Renders the diagnostic in rustc's `error[...]` style.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "error[{}]: {}", self.rule, self.message);
        let _ = writeln!(s, "  --> {}:{}:{}", self.file, self.line, self.col);
        if !self.snippet.is_empty() {
            let gutter = self.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(s, "{pad} |");
            let _ = writeln!(s, "{gutter} | {}", self.snippet);
            let _ = writeln!(s, "{pad} |");
        }
        if !self.help.is_empty() {
            let _ = writeln!(s, "   = help: {}", self.help);
        }
        s
    }
}

/// Full report for one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in (file, line, col) order after [`Report::sort`].
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
    /// Number of diagnostics silenced by suppression directives.
    pub suppressed: usize,
    /// Names of the cross-file passes that found their scope files and
    /// analyzed them in this run (empty for manually assembled reports).
    pub passes_run: Vec<&'static str>,
}

impl Report {
    /// Orders diagnostics by file, then line, then column, then rule.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| {
                (a.file.as_str(), a.line, a.col, a.rule)
                    .cmp(&(b.file.as_str(), b.line, b.col, b.rule))
            });
    }

    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the whole report as rustc-style text plus a summary line.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.render());
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "dls-lint: {} violation(s), {} suppressed, {} file(s) and {} manifest(s) checked",
            self.diagnostics.len(),
            self.suppressed,
            self.files_scanned,
            self.manifests_checked
        );
        s
    }

    /// Serializes the report as a stable JSON document (schema version 2:
    /// each diagnostic names its pass, the summary lists the passes run).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 2,\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            let _ = write!(
                s,
                "\"rule\": {}, \"pass\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}, \"snippet\": {}",
                json_str(d.rule),
                json_str(pass_of(d.rule)),
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.message),
                json_str(&d.snippet),
            );
            s.push('}');
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        let passes = self
            .passes_run
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "  \"summary\": {{\"violations\": {}, \"suppressed\": {}, \
             \"files_scanned\": {}, \"manifests_checked\": {}, \"passes\": [{}]}}\n",
            self.diagnostics.len(),
            self.suppressed,
            self.files_scanned,
            self.manifests_checked,
            passes
        );
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string encoder (std-only crate: no serde here).
fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
