//! `instant_lint` — the InstantDB workspace invariant checker.
//!
//! A dependency-free tokenizer + rule engine enforcing the invariants in
//! the workspace `INVARIANTS.md`:
//!
//! | rule | invariant |
//! |------|-----------|
//! | L001 | no `unwrap`/`expect`/`panic!` in hot-path crate library code |
//! | L002 | every `Mutex`/`RwLock` carries a globally-unique `lock-rank` |
//! | L003 | every `unsafe` carries a `SAFETY:` comment |
//! | L004 | no direct `std::sync` locks outside `shims/` |
//! | L005 | no printing from library code |
//! | L000 | every `lint:allow` names one of the rules above |
//!
//! Violations render as `file:line:col: [Lxxx] message` (clickable in
//! terminals and CI). The escape hatch everywhere is a `lint:allow`
//! comment naming the rule and a mandatory reason; L002 additionally
//! accepts `// lock-rank: unranked(reason)` for locks whose ordering
//! discipline is not a static total order.
//!
//! Every rule reads one file's token stream; only rank uniqueness looks
//! across files. Lock *order* is checked where it runs: the debug-build
//! rank checker in `shims/parking_lot` panics on any out-of-order
//! acquisition the test suite executes.

pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

use std::fs;
use std::io;
use std::path::Path;

pub use rules::{RankDecl, Violation};
pub use source::{FileContext, SourceFile};

/// Lint a single file's source text under an explicit context. The
/// building block for both the workspace walk and the fixture tests.
pub fn lint_source(ctx: FileContext, source: &str) -> rules::FileReport {
    rules::check_file(&SourceFile::parse(ctx, source))
}

/// Outcome of a full workspace lint.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub violations: Vec<Violation>,
    pub rank_decls: Vec<RankDecl>,
    pub files_checked: usize,
}

/// Walk every workspace member's `src/` tree under `root` and run all
/// rules: the per-file token rules, then the cross-file rank-uniqueness
/// pass.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for member in workspace::discover(root)? {
        for rel in &member.sources {
            let text = fs::read_to_string(root.join(rel))?;
            let ctx = FileContext {
                rel_path: rel.clone(),
                member: member.name.clone(),
            };
            let file_report = lint_source(ctx, &text);
            report.violations.extend(file_report.violations);
            report.rank_decls.extend(file_report.rank_decls);
            report.files_checked += 1;
        }
    }
    report
        .violations
        .extend(rules::check_rank_uniqueness(&report.rank_decls));
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}
