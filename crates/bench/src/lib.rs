//! # instant_bench
//!
//! The experiment harness: reporting utilities shared by the experiment
//! binaries (`src/bin/exp_*.rs`). Each binary regenerates one of the
//! paper's experiments (README, "Running things") and prints its
//! table/series. Performance is measured by the standalone `benchmark/`
//! package, not here.

use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

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

    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    pub fn row_strings(&mut self, cells: Vec<String>) {
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
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render()); // lint:allow(L005, the bench harness reports to the operator console by contract)
        println!(); // lint:allow(L005, the bench harness reports to the operator console by contract)
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

/// Format a float with fixed precision for table cells.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a rate (per second).
pub fn rate(count: usize, secs: f64) -> String {
    if secs <= 0.0 {
        "inf".to_string()
    } else {
        format!("{:.0}", count as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["scheme", "exposure"]);
        r.row(&[&"degradation", &0.25]);
        r.row(&[&"retention", &1.0]);
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
        r.row(&[&1]);
    }

    #[test]
    fn float_format() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(rate(100, 2.0), "50");
        assert_eq!(rate(1, 0.0), "inf");
    }
}
