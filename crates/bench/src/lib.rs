//! # instant_bench
//!
//! The paper's claims, checked. Each experiment binary
//! (`src/bin/exp_*.rs`) replays a simulated stream into stores under
//! different protection schemes, prints its table, then checks the
//! paper claim behind the table as a predicate over its rows: a
//! [`Claim`] names every failing row and turns into exit status 1.
//! Performance is measured by the standalone `benchmark/` package, not
//! here.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::fmt::{self, Display};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

pub mod setup;

/// A simple aligned-column table printer for experiment output.
#[derive(Debug, Default)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(title: &str, headers: &[&str]) -> Report {
        Report {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and also write a CSV next to the binary's cwd under
    /// `results/<slug>.csv` (best-effort).
    #[expect(
        clippy::print_stdout,
        reason = "the bench harness reports to the operator console by contract"
    )]
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        let _ = self.write_csv(slug);
    }

    fn write_csv(&self, slug: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{slug}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// A paper claim checked row by row. Print it (`Display`) for the
/// verdict, then return [`Claim::exit_code`] from `main`.
#[derive(Debug)]
pub struct Claim {
    statement: String,
    failures: Vec<String>,
}

impl Claim {
    pub fn new(statement: &str) -> Claim {
        Claim {
            statement: statement.to_string(),
            failures: Vec::new(),
        }
    }

    /// Record `row` as a counterexample unless `holds`.
    pub fn check(&mut self, holds: bool, row: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(row());
        }
    }

    fn holds(&self) -> bool {
        self.failures.is_empty()
    }

    /// Success when every row satisfied the claim, 1 otherwise.
    pub fn exit_code(&self) -> ExitCode {
        if self.holds() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

impl Display for Claim {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds() {
            return writeln!(out, "claim holds: {}", self.statement);
        }
        writeln!(out, "CLAIM FAILS: {}", self.statement)?;
        for row in &self.failures {
            writeln!(out, "  counterexample: {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["scheme", "exposure"]);
        r.row(vec!["degradation".into(), "0.25".into()]);
        r.row(vec!["retention".into(), "1".into()]);
        let text = r.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("degradation"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // Aligned: both data lines have equal length.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("x", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn claim_names_each_failing_row() {
        let mut c = Claim::new("x < 3");
        for x in 0..5 {
            c.check(x < 3, || format!("x = {x}"));
        }
        assert!(!c.holds());
        assert_eq!(c.exit_code(), ExitCode::FAILURE);
        let text = c.to_string();
        assert!(text.starts_with("CLAIM FAILS: x < 3"));
        assert!(text.contains("x = 3") && text.contains("x = 4"));
        assert!(!text.contains("x = 2"));

        let mut ok = Claim::new("x < 9");
        ok.check(true, || unreachable!("a holding row is never rendered"));
        assert_eq!(ok.exit_code(), ExitCode::SUCCESS);
        assert_eq!(ok.to_string(), "claim holds: x < 9\n");
    }
}
