//! `instantdb-lint`: run the workspace invariant checker.
//!
//! ```text
//! instantdb-lint [--root DIR] [--deny-all] [--ranks]
//! ```
//!
//! Exits non-zero iff violations were found. `--ranks` prints the global
//! lock-rank table instead (the source of truth for INVARIANTS.md).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut print_ranks = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            // Violations are always denying; the flag exists so the CI
            // invocation states its intent explicitly.
            "--deny-all" => {}
            "--ranks" => print_ranks = true,
            "-h" | "--help" => {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "instantdb-lint [--root DIR] [--deny-all] [--ranks]\n\n\
                     Checks the workspace against the INVARIANTS.md token rules L001-L005\n\
                     (plus L000: an allow naming any other rule) and prints each violation\n\
                     as `file:line:col: [Lxxx] message`. Exits non-zero iff violations were\n\
                     found.\n\n\
                       --root DIR     workspace root (default: .)\n\
                       --deny-all     fail on any violation (the default; kept for CI clarity)\n\
                       --ranks        print the global lock-rank table and exit"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match instant_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "instantdb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut out = std::io::stdout().lock();
    if print_ranks {
        let mut decls = report.rank_decls;
        decls.sort_by_key(|d| d.rank);
        let _ = writeln!(out, "rank  declaration site");
        for d in &decls {
            let _ = writeln!(out, "{:>4}  {}:{}", d.rank, d.file, d.line);
        }
        return ExitCode::SUCCESS;
    }

    for v in &report.violations {
        let _ = writeln!(out, "{v}");
    }
    let mut err = std::io::stderr().lock();
    if report.violations.is_empty() {
        let _ = writeln!(
            err,
            "instantdb-lint: {} files clean ({} ranked locks)",
            report.files_checked,
            report.rank_decls.len()
        );
        ExitCode::SUCCESS
    } else {
        let _ = writeln!(
            err,
            "instantdb-lint: {} violation(s) in {} files",
            report.violations.len(),
            report.files_checked
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "instantdb-lint: {msg} (try --help)");
    ExitCode::from(2)
}
