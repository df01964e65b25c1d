//! The five invariant rules (L001–L005), plus L000 for an allow that
//! names none of them. Each is a pure function over a [`SourceFile`]'s
//! tokens and comments; rationale and escape hatches are documented per
//! rule and in the workspace `INVARIANTS.md`.

use std::fmt;

use crate::source::{RankAnnotation, SourceFile, RULES};

/// One rule violation, positioned for clickable terminal output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A `// lock-rank: <N>` declaration site, collected per file so the
/// workspace pass can check global uniqueness.
#[derive(Debug, Clone)]
pub struct RankDecl {
    pub rank: u32,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// Everything a single-file lint pass produces.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub rank_decls: Vec<RankDecl>,
}

/// Run every applicable rule on one file.
pub fn check_file(file: &SourceFile) -> FileReport {
    let mut report = FileReport::default();
    l000_unknown_allows(file, &mut report);
    l001_panic_hygiene(file, &mut report);
    l002_lock_ranks(file, &mut report);
    l003_safety_comments(file, &mut report);
    l004_std_sync_imports(file, &mut report);
    l005_print_hygiene(file, &mut report);
    report
}

/// Cross-file pass: declared lock ranks must be globally unique (two
/// locks that share a rank can never be held together under the shim's
/// strict ordering, which is almost never what the author meant).
pub fn check_rank_uniqueness(decls: &[RankDecl]) -> Vec<Violation> {
    let mut sorted: Vec<&RankDecl> = decls.iter().collect();
    sorted.sort_by_key(|d| (d.rank, d.file.clone(), d.line));
    let mut out = Vec::new();
    for pair in sorted.windows(2) {
        if pair[0].rank == pair[1].rank {
            out.push(Violation {
                file: pair[1].file.clone(),
                line: pair[1].line,
                col: pair[1].col,
                rule: "L002",
                message: format!(
                    "duplicate lock-rank {} (first declared at {}:{})",
                    pair[1].rank, pair[0].file, pair[0].line
                ),
            });
        }
    }
    out
}

fn violation(
    file: &SourceFile,
    line: u32,
    col: u32,
    rule: &'static str,
    message: String,
) -> Violation {
    Violation {
        file: file.ctx.rel_path.clone(),
        line,
        col,
        rule,
        message,
    }
}

/// L000: every `lint:allow` names a rule in [`RULES`]. An allow for a
/// rule that does not exist silences nothing. Applies everywhere; there
/// is no escape hatch.
fn l000_unknown_allows(file: &SourceFile, report: &mut FileReport) {
    for (line, col, id) in file.unknown_allows() {
        report.violations.push(violation(
            file,
            line,
            col,
            "L000",
            format!(
                "`lint:allow({id}, ...)` names no rule; the rules are {}",
                RULES.join(", ")
            ),
        ));
    }
}

/// L001: no `unwrap`/`expect`/`panic!` in non-test, non-binary code of
/// the four hot-path crates (`wal`, `server`, `core`, `storage`). A
/// panic there kills a daemon thread silently and voids the durability /
/// timely-degradation guarantee. Escape: `// lint:allow(L001, reason)`
/// for provably-infallible cases. `assert!`/`debug_assert!` are exempt
/// by design: they state invariants, they don't handle errors.
fn l001_panic_hygiene(file: &SourceFile, report: &mut FileReport) {
    if !file.ctx.panic_hygiene_applies() || file.ctx.is_bin() {
        return;
    }
    let toks = file.tokens();
    for (i, tok) in toks.iter().enumerate() {
        let flagged = match tok.text.as_str() {
            // Method-position only (`.unwrap()`): `unwrap_or` etc. are
            // distinct idents and never match.
            "unwrap" | "expect" | "unwrap_err" | "expect_err" => i > 0 && toks[i - 1].is_punct('.'),
            "panic" => toks.get(i + 1).is_some_and(|t| t.is_punct('!')),
            _ => false,
        };
        if !flagged || file.in_test_code(tok.line) || file.allows("L001", tok.line) {
            continue;
        }
        let what = if tok.text == "panic" {
            "panic!".to_string()
        } else {
            format!(".{}()", tok.text)
        };
        report.violations.push(violation(
            file,
            tok.line,
            tok.col,
            "L001",
            format!(
                "{what} in hot-path code: return a typed Error, or justify with \
                 `// lint:allow(L001, reason)`"
            ),
        ));
    }
}

/// L002: every `Mutex<...>` / `RwLock<...>` type mention in non-test,
/// non-shim code must carry a `// lock-rank: <N>` annotation (or
/// `lock-rank: unranked(reason)` for locks whose discipline is not a
/// static total order). Declared ranks are collected for the global
/// uniqueness pass. Rank 0 is reserved for the shim's "unchecked"
/// sentinel and may not be declared.
fn l002_lock_ranks(file: &SourceFile, report: &mut FileReport) {
    if file.ctx.is_shim() {
        return;
    }
    let toks = file.tokens();
    for (i, tok) in toks.iter().enumerate() {
        let is_lock_type = (tok.is_ident("Mutex") || tok.is_ident("RwLock"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('<'));
        if !is_lock_type || file.in_test_code(tok.line) {
            continue;
        }
        match file.lock_rank(tok.line) {
            Some(RankAnnotation::Ranked(0)) => {
                report.violations.push(violation(
                    file,
                    tok.line,
                    tok.col,
                    "L002",
                    "lock-rank 0 is reserved (it means unchecked); use \
                     `lock-rank: unranked(reason)` to opt out explicitly"
                        .to_string(),
                ));
            }
            Some(RankAnnotation::Ranked(rank)) => {
                report.rank_decls.push(RankDecl {
                    rank,
                    file: file.ctx.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                });
            }
            Some(RankAnnotation::Unranked { reason_ok: true }) => {}
            Some(RankAnnotation::Unranked { reason_ok: false }) => {
                report.violations.push(violation(
                    file,
                    tok.line,
                    tok.col,
                    "L002",
                    "`lock-rank: unranked(...)` needs a non-empty reason".to_string(),
                ));
            }
            Some(RankAnnotation::Malformed) => {
                report.violations.push(violation(
                    file,
                    tok.line,
                    tok.col,
                    "L002",
                    "malformed lock-rank annotation: expected `lock-rank: <N>` or \
                     `lock-rank: unranked(reason)`"
                        .to_string(),
                ));
            }
            None if file.allows("L002", tok.line) => {}
            None => {
                report.violations.push(violation(
                    file,
                    tok.line,
                    tok.col,
                    "L002",
                    format!(
                        "{} needs a `// lock-rank: <N>` annotation (or \
                         `lock-rank: unranked(reason)`); see INVARIANTS.md",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// L003: every `unsafe` keyword needs a `SAFETY:` comment on the same
/// line or directly above. Applies everywhere, including tests — an
/// unjustified `unsafe` is no better for being in a test.
fn l003_safety_comments(file: &SourceFile, report: &mut FileReport) {
    for tok in file.tokens() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        if file.has_safety_comment(tok.line) || file.allows("L003", tok.line) {
            continue;
        }
        report.violations.push(violation(
            file,
            tok.line,
            tok.col,
            "L003",
            "`unsafe` without a `// SAFETY:` comment explaining why the \
             obligations hold"
                .to_string(),
        ));
    }
}

/// L004: no direct `std::sync::{Mutex, RwLock, Condvar}` outside
/// `shims/` — every lock goes through the `parking_lot` shim so the
/// debug rank checker sees it. (`std::sync::Arc`, atomics, mpsc are
/// fine.)
fn l004_std_sync_imports(file: &SourceFile, report: &mut FileReport) {
    if file.ctx.is_shim() {
        return;
    }
    let toks = file.tokens();
    for i in 0..toks.len() {
        // Match the path prefix `std :: sync ::`.
        let is_std_sync = toks[i].is_ident("std")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sync"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(':'));
        if !is_std_sync {
            continue;
        }
        // Walk the rest of the path / use-tree and flag lock types.
        let mut j = i + 6;
        while let Some(t) = toks.get(j) {
            let path_token = t.kind == crate::lexer::TokKind::Ident
                || t.is_punct(':')
                || t.is_punct(',')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct('*');
            if !path_token {
                break;
            }
            if matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar")
                && !file.allows("L004", t.line)
            {
                report.violations.push(violation(
                    file,
                    t.line,
                    t.col,
                    "L004",
                    format!(
                        "direct std::sync::{} bypasses the parking_lot shim's \
                         lock-rank instrumentation; import it from `parking_lot`",
                        t.text
                    ),
                ));
            }
            j += 1;
        }
    }
}

/// L005: no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` outside
/// binary targets and tests. Library and daemon code must not write to
/// the server's stdio; observable state belongs in typed stats or
/// returned values.
fn l005_print_hygiene(file: &SourceFile, report: &mut FileReport) {
    if file.ctx.is_shim() || file.ctx.is_bin() {
        return;
    }
    let toks = file.tokens();
    for (i, tok) in toks.iter().enumerate() {
        let is_print = matches!(
            tok.text.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if !is_print || file.in_test_code(tok.line) || file.allows("L005", tok.line) {
            continue;
        }
        report.violations.push(violation(
            file,
            tok.line,
            tok.col,
            "L005",
            format!(
                "{}! in library code: binaries and tests may print, \
                 libraries return data",
                tok.text
            ),
        ));
    }
}
