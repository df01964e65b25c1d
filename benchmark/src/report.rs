//! What a workload hands back — named metrics, frozen facts, correctness
//! checks — and how it is printed and written. JSON is written by hand:
//! the container has no serde and the shapes are flat.

use std::fmt::Write as _;

use crate::harness::Span;
use crate::stats::Summary;

/// The gated end-to-end metrics, in `BENCHMARK.json` order: name, unit,
/// and the share by which the metric may worsen before a change is
/// rejected (a test keeps these in step with `BENCHMARK.json`). Every
/// workload reports every one; `benchmark/README.md` says what each
/// means on each workload. `--aa` and `--spread` judge the benchmark's
/// own steadiness against the same bounds.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("ops_s", "1/s", 0.2),
    ("p50_ms", "ms", 0.2),
    ("p95_ms", "ms", 0.25),
    ("second_p50_ms", "ms", 0.2),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it summarises a timing.
    pub n: Option<usize>,
    /// Anything a reader must know to interpret the value (a fallback
    /// percentile, why a layer metric is unavailable).
    pub note: Option<String>,
}

/// A correctness check: the run fails unless every one passed.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub facts: Vec<(String, String)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans the traced pass recorded, written to its file.
    pub spans: Vec<Span>,
}

/// Spans written per trace file; the rest are counted, not written.
const SPANS_WRITTEN: usize = 20_000;

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, None, None);
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.put_noted(name, value, unit, Some(n), None);
    }

    pub fn put_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        n: Option<usize>,
        note: Option<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note,
        });
    }

    /// A layer metric this workload cannot produce: reported as 0 so the
    /// result line stays complete, with the reason beside it.
    pub fn unavailable(&mut self, name: &str, unit: &'static str, why: &str) {
        self.put_noted(name, 0.0, unit, None, Some(format!("unavailable: {why}")));
    }

    /// `<stem>_p50_ms` and `<stem>_p95_ms` from a latency summary in
    /// milliseconds, noting the percentile actually used when the sample
    /// is too small for p95.
    pub fn put_latency(&mut self, stem: &str, s: &Summary) {
        self.put_n(&format!("{stem}_p50_ms"), s.p50, "ms", s.n);
        let note = (s.p95_at < 0.95).then(|| {
            format!(
                "read at p{} — {} samples leave fewer than 10 beyond p95",
                s.p95_at * 100.0,
                s.n
            )
        });
        self.put_noted(&format!("{stem}_p95_ms"), s.p95, "ms", Some(s.n), note);
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// `failed_share`: failed or refused operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable ledger: every metric by name and unit.
    pub fn render(&self, workload: &str, pass: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload} ({pass}) ==");
        for (k, v) in &self.facts {
            let _ = writeln!(out, "  . {k} = {v}");
        }
        for m in &self.metrics {
            let n = m.n.map(|n| format!("  n={n}")).unwrap_or_default();
            let note = m
                .note
                .as_deref()
                .map(|s| format!("  [{s}]"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {}{n}{note}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>16} share  ({} failed of {} attempted)",
            "failed_share",
            fmt_value(self.failed_share()),
            self.failed,
            self.attempted
        );
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  check {verdict} {:<24} {}", c.name, c.detail);
        }
        out
    }

    /// The same content as a JSON object, for `out/` and `BASELINE.json`;
    /// `with_spans` appends the traced pass's spans.
    pub fn to_json(&self, workload: &str, pass: &str, with_spans: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"pass\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}",
            json_str(workload),
            json_str(pass),
            self.correct(),
            self.attempted,
            self.failed,
            json_num(self.failed_share())
        );
        out.push_str(", \"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {}", json_str(k), json_str(v));
        }
        out.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(n) = m.n {
                let _ = write!(out, ", \"n\": {n}");
            }
            if let Some(note) = &m.note {
                let _ = write!(out, ", \"note\": {}", json_str(note));
            }
            out.push('}');
        }
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.passed,
                json_str(&c.detail)
            );
        }
        out.push(']');
        if with_spans && !self.spans.is_empty() {
            let _ = write!(
                out,
                ", \"spans_dropped\": {}, \"spans\": [",
                self.spans.len().saturating_sub(SPANS_WRITTEN)
            );
            for (i, s) in self.spans.iter().take(SPANS_WRITTEN).enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let parent = s.parent.map_or("null".to_string(), json_str);
                let _ = write!(
                    out,
                    "{sep}{{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}",
                    json_str(s.name),
                    json_num(s.start_us),
                    json_num(s.end_us),
                    s.request
                );
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and the metrics named in `names`.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report `{name}`"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A number as measured, with all its digits. JSON has no NaN or
/// infinity; a harness that produced one has a bug worth a panic.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.put("setup_s", 0.5, "s");
        o.put("extra", 1.0, "ms");
        o.attempted = 10;
        o.check("always", true, String::new());
        let line = o.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_outcome_incorrect() {
        let mut o = Outcome::default();
        o.check("a", true, String::new());
        assert!(o.correct());
        o.check("b", false, "boom".into());
        assert!(!o.correct());
        assert!(o
            .to_json("w", "timed", false)
            .contains("\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
