//! End-to-end tests: the library against each fixture workspace (exact
//! violation counts, one per rule, plus the false-positive guards those
//! fixtures embed), and the `instantdb-lint` binary's exit codes and
//! output format.

use std::path::{Path, PathBuf};
use std::process::Output;

use instant_lint::lint_workspace;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Rules of the violations reported for a fixture, in output order.
fn rules_for(name: &str) -> Vec<String> {
    lint_workspace(&fixture(name))
        .expect("fixture workspace discoverable")
        .violations
        .iter()
        .map(|v| v.rule.to_string())
        .collect()
}

#[test]
fn l001_fixture_flags_exactly_the_unwrap() {
    let report = lint_workspace(&fixture("ws-l001")).unwrap();
    assert_eq!(rules_for("ws-l001"), vec!["L001"]);
    let v = &report.violations[0];
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 5, "the guarded/allowed/test unwraps are exempt");
}

#[test]
fn l002_fixture_flags_exactly_the_unannotated_lock() {
    let report = lint_workspace(&fixture("ws-l002")).unwrap();
    assert_eq!(rules_for("ws-l002"), vec!["L002"]);
    assert!(report.violations[0].message.contains("lock-rank"));
    // The two annotated fields became rank declarations.
    let ranks: Vec<u32> = report.rank_decls.iter().map(|d| d.rank).collect();
    assert_eq!(ranks, vec![10, 20]);
}

#[test]
fn l002_duplicate_ranks_across_files_are_flagged() {
    let report = lint_workspace(&fixture("ws-l002-dup")).unwrap();
    assert_eq!(rules_for("ws-l002-dup"), vec!["L002"]);
    let v = &report.violations[0];
    assert!(v.message.contains("duplicate lock-rank 10"));
    assert!(
        v.message.contains("crates/a/src/lib.rs"),
        "names the first declaration site: {}",
        v.message
    );
}

#[test]
fn l003_fixture_flags_exactly_the_unjustified_unsafe() {
    let report = lint_workspace(&fixture("ws-l003")).unwrap();
    assert_eq!(rules_for("ws-l003"), vec!["L003"]);
    assert_eq!(report.violations[0].line, 4, "SAFETY-covered one is exempt");
}

#[test]
fn l004_fixture_flags_exactly_the_std_lock_import() {
    let report = lint_workspace(&fixture("ws-l004")).unwrap();
    assert_eq!(rules_for("ws-l004"), vec!["L004"]);
    let v = &report.violations[0];
    assert_eq!(v.file, "crates/a/src/lib.rs", "the shim copy is exempt");
    assert!(v.message.contains("std::sync::Mutex"));
}

#[test]
fn l005_fixture_flags_exactly_the_library_print() {
    let report = lint_workspace(&fixture("ws-l005")).unwrap();
    assert_eq!(rules_for("ws-l005"), vec!["L005"]);
    assert_eq!(
        report.violations[0].file, "crates/core/src/lib.rs",
        "src/bin/tool.rs and the test module are exempt"
    );
}

#[test]
fn clean_fixture_has_no_violations() {
    let report = lint_workspace(&fixture("ws-clean")).unwrap();
    assert!(
        report.violations.is_empty(),
        "clean fixture must pass: {:?}",
        report.violations
    );
    assert_eq!(report.rank_decls.len(), 2);
}

fn run_cli(fixture_name: &str) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_instantdb-lint"))
        .arg("--root")
        .arg(fixture(fixture_name))
        .arg("--deny-all")
        .output()
        .expect("run instantdb-lint")
}

#[test]
fn cli_exits_nonzero_on_each_violation_fixture() {
    for name in [
        "ws-l001",
        "ws-l002",
        "ws-l002-dup",
        "ws-l003",
        "ws-l004",
        "ws-l005",
    ] {
        let out = run_cli(name);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} must fail the lint: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cli_exits_zero_on_clean_fixture() {
    let out = run_cli("ws-clean");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_output_is_file_line_col_rule_message() {
    let out = run_cli("ws-l001");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next().expect("one violation line");
    // crates/core/src/lib.rs:5:7: [L001] ...
    assert_eq!(line, format!("crates/core/src/lib.rs:5:7: [L001] .unwrap() in hot-path code: return a typed Error, or justify with `// lint:allow(L001, reason)`"));
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn invariants_rank_table_matches_the_ranks_the_code_declares() {
    // `--ranks` prints `rank  file:line`, one declaration per line.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_instantdb-lint"))
        .arg("--root")
        .arg(repo_root())
        .arg("--ranks")
        .output()
        .expect("run instantdb-lint --ranks");
    assert_eq!(out.status.code(), Some(0));
    let mut declared: Vec<(u32, String)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .skip(1)
        .map(|line| {
            let (rank, site) = line.trim().split_once(char::is_whitespace).unwrap();
            let file = site.trim().rsplit_once(':').unwrap().0;
            (rank.parse().unwrap(), file.to_string())
        })
        .collect();
    declared.sort();

    // INVARIANTS.md rank rows: `| rank | lock | `crates/…/file.rs` |`.
    let doc = std::fs::read_to_string(repo_root().join("INVARIANTS.md")).unwrap();
    let mut documented: Vec<(u32, String)> = doc
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let rank = cells.get(1)?.parse().ok()?;
            let file = cells.get(3)?.strip_prefix('`')?.strip_suffix('`')?;
            file.ends_with(".rs").then(|| (rank, file.to_string()))
        })
        .collect();
    documented.sort();
    assert!(!declared.is_empty());
    assert_eq!(
        documented, declared,
        "INVARIANTS.md's lock-rank table must list exactly what `--ranks` reports"
    );
}

#[test]
fn cli_lints_the_real_workspace_clean() {
    // The repository itself is the ultimate fixture: the tree this test
    // runs in must satisfy every invariant the linter enforces.
    let repo_root = repo_root();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_instantdb-lint"))
        .arg("--root")
        .arg(&repo_root)
        .arg("--deny-all")
        .output()
        .expect("run instantdb-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
