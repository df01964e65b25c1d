//! The static half of the lock order: each lock's rank is written once, as
//! the `N` of its `Mutex::ranked(N, …)` / `RwLock::ranked(N, …)` call under
//! `crates/*/src`. This reads those calls and checks that no rank is 0 (the
//! shim's unchecked sentinel), that no rank repeats, and that the rank table
//! in `INVARIANTS.md` lists exactly the `(rank, file)` pairs the code
//! declares. The dynamic half, strictly increasing acquisition order, is
//! the `parking_lot` shim's debug checker.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `::ranked(N,` under `crates/*/src`, as `(N, file)` with the file
/// relative to the repository root. Whitespace is stripped first, so a
/// call that rustfmt splits over several lines is still one match.
fn declared_ranks() -> Vec<(u32, String)> {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text: String = fs::read_to_string(&path)
            .unwrap()
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        for (at, _) in text.match_indices("::ranked(") {
            let rest = &text[at + "::ranked(".len()..];
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if digits > 0 && rest[digits..].starts_with(',') {
                out.push((rest[..digits].parse().unwrap(), rel.clone()));
            }
        }
    }
    out
}

/// The rows of the `| rank | lock | declared in |` table in INVARIANTS.md,
/// as `(rank, file)`.
fn table_ranks() -> Vec<(u32, String)> {
    let doc = fs::read_to_string(repo_root().join("INVARIANTS.md")).unwrap();
    let lines = doc
        .lines()
        .skip_while(|l| l.trim() != "| rank | lock | declared in |")
        .skip(2); // the header and its `|---|` rule
    let mut out = Vec::new();
    for line in lines.take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let rank = cells[1]
            .parse()
            .unwrap_or_else(|_| panic!("bad rank row: {line}"));
        out.push((rank, cells[3].trim_matches('`').to_string()));
    }
    out
}

#[test]
fn every_declared_rank_is_nonzero_and_unique() {
    let declared = declared_ranks();
    assert!(
        declared.len() >= 20,
        "found only {} ranked locks under crates/*/src: is the scan broken?",
        declared.len()
    );
    let mut seen: BTreeMap<u32, &str> = BTreeMap::new();
    for (rank, file) in &declared {
        assert_ne!(*rank, 0, "{file}: rank 0 is the shim's unchecked sentinel");
        if let Some(first) = seen.insert(*rank, file) {
            panic!("rank {rank} is declared twice: in {first} and in {file}");
        }
    }
}

#[test]
fn invariants_table_lists_exactly_the_declared_ranks() {
    let code: BTreeSet<_> = declared_ranks().into_iter().collect();
    let table: BTreeSet<_> = table_ranks().into_iter().collect();
    let missing: Vec<_> = code.difference(&table).collect();
    let stale: Vec<_> = table.difference(&code).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "INVARIANTS.md rank table is out of date\n  \
         declared in code, missing from the table: {missing:?}\n  \
         in the table, not declared in code: {stale:?}"
    );
}
