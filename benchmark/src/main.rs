//! `ledger` — InstantDB's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload and prints, as the last line of standard output,
//! one JSON object with the gated end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). Without `--workload` it runs the
//! timed pass over all four, then with `--trace 1` the traced pass too,
//! and writes both to `<out>/ledger.json` — the shape of the committed
//! `BASELINE.json`; `--aa` runs the timed set twice and compares the two;
//! `--spread <n>` runs each workload under `n` seeds and prints each
//! gated metric's run-to-run spread beside its bound. The
//! human-readable ledger — every metric by name and unit, the frozen
//! sizes, the correctness checks — is printed before the result line and
//! written to `<out>/ledger-<workload>.json` (`trace-<workload>.json`
//! for the traced pass). See `benchmark/README.md`.

mod batch_recover;
mod harness;
mod live_degrade;
mod report;
mod stats;
mod trace;
mod wire_insert;
mod wire_read;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use instant_common::Result;

use harness::Ctx;
use report::{Outcome, END_TO_END};

const WORKLOADS: [&str; 4] = [
    wire_insert::NAME,
    wire_read::NAME,
    live_degrade::NAME,
    batch_recover::NAME,
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    spread: Option<usize>,
    data_dir: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        aa: false,
        spread: None,
        data_dir: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--spread" => {
                let n: usize = value("a number of runs")?
                    .parse()
                    .map_err(|e| format!("--spread: {e}"))?;
                if n < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                args.spread = Some(n);
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("a directory")?)),
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 1..=60, got {}",
            args.seconds
        ));
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn pass_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "timed"
    }
}

/// Run one pass over one workload, print its ledger and write its file.
fn run_one(workload: &str, traced: bool, args: &Args, ctx: &Ctx) -> Result<Outcome> {
    let pass = pass_name(traced);
    let file = if traced {
        format!("trace-{workload}.json")
    } else {
        format!("ledger-{workload}.json")
    };
    let mut out = match (workload, traced) {
        (wire_insert::NAME, false) => wire_insert::run(ctx)?,
        (wire_read::NAME, false) => wire_read::run(ctx)?,
        (live_degrade::NAME, false) => live_degrade::run(ctx)?,
        (batch_recover::NAME, false) => batch_recover::run(ctx)?,
        (_, true) => trace::run(workload, ctx)?,
        _ => unreachable!("workload names are validated at parse time"),
    };
    let mut facts = vec![
        ("seed".to_string(), ctx.seed.to_string()),
        ("seconds".to_string(), ctx.seconds.to_string()),
    ];
    facts.extend(world::host_facts(&ctx.data_root));
    facts.append(&mut out.facts);
    out.facts = facts;
    print!("{}", out.render(workload, pass));
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(
        args.out_dir.join(file),
        out.to_json(workload, pass, true) + "\n",
    )?;
    Ok(out)
}

/// One pass over all four workloads in order; `false` if a check or an
/// operation failed anywhere.
fn run_set(traced: bool, args: &Args, ctx: &Ctx) -> Result<(bool, Vec<Outcome>)> {
    let mut all_correct = true;
    let mut outcomes = Vec::new();
    for name in WORKLOADS {
        let out = run_one(name, traced, args, ctx)?;
        all_correct &= out.correct() && out.failed == 0;
        outcomes.push(out);
    }
    Ok((all_correct, outcomes))
}

/// No `--workload`: the timed pass over all four, the traced pass too
/// under `--trace 1`, both written to `<out>/ledger.json`.
fn run_all(args: &Args, ctx: &Ctx) -> Result<bool> {
    let mut ok = true;
    let mut json = String::from("{");
    for traced in [false, true] {
        if traced && !args.trace {
            break;
        }
        let (pass_ok, outcomes) = run_set(traced, args, ctx)?;
        ok &= pass_ok;
        let body: Vec<String> = WORKLOADS
            .iter()
            .zip(&outcomes)
            .map(|(name, out)| out.to_json(name, pass_name(traced), false))
            .collect();
        let sep = if traced { ",\n" } else { "\n" };
        json += &format!("{sep}\"{}\": [\n{}\n]", pass_name(traced), body.join(",\n"));
    }
    std::fs::write(args.out_dir.join("ledger.json"), json + "\n}\n")?;
    Ok(ok)
}

/// `--aa`: the whole set twice on the same build. Prints each gated
/// metric's relative difference beside its bound; fails if any exceeds.
fn run_aa(args: &Args, ctx: &Ctx) -> Result<bool> {
    let (ok_a, a) = run_set(false, args, ctx)?;
    let (ok_b, b) = run_set(false, args, ctx)?;
    let mut steady = true;
    println!("== A/A: two runs of the same build ==");
    println!("| workload | metric | run A | run B | difference | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for ((name, a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        for (metric, _, bound) in END_TO_END {
            let (va, vb) = (a.get(metric).unwrap_or(0.0), b.get(metric).unwrap_or(0.0));
            let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "ok" } else { "UNSTEADY" };
            steady &= diff <= bound;
            println!(
                "| {name} | {metric} | {va:.4} | {vb:.4} | {:.1} % | {:.0} % | {verdict} |",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok_a && ok_b && steady)
}

/// `--spread n`: each workload under `n` consecutive seeds. Prints, per
/// gated metric, the median and the distance between the quartiles as a
/// share of it — what the driver computes — and fails if a spread other
/// than set-up's exceeds its bound. A spread under a third of the bound
/// is the target.
fn run_spread(n: usize, args: &Args, ctx: &mut Ctx) -> Result<bool> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => WORKLOADS.iter().copied().filter(|n| n == w).collect(),
        None => WORKLOADS.to_vec(),
    };
    let first_seed = ctx.seed;
    let mut ok = true;
    let mut table = String::new();
    for name in names {
        let mut runs = Vec::new();
        for i in 0..n {
            ctx.seed = first_seed + i as u64;
            let out = run_one(name, false, args, ctx)?;
            ok &= out.correct() && out.failed == 0;
            runs.push(out);
        }
        for (metric, _, bound) in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|o| o.get(metric)).collect();
            let spread = stats::iqr_share(&values);
            let verdict = match spread {
                s if s <= bound / 3.0 => "steady",
                s if s <= bound || metric == "setup_s" => "within bound",
                _ => "UNSTEADY",
            };
            ok &= verdict != "UNSTEADY";
            table += &format!(
                "| {name} | {metric} | {:.4} | {:.1} % | {:.0} % | {verdict} |\n",
                stats::median(&values),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("== spread over {n} seeds from {first_seed} ==");
    println!("| workload | metric | median | IQR / median | bound | |");
    println!("|---|---|---|---|---|---|");
    print!("{table}");
    Ok(ok)
}

fn real_main() -> std::result::Result<bool, String> {
    let args = parse_args()?;
    let data_root = args
        .data_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("data-{}", std::process::id())));
    std::fs::create_dir_all(&data_root).map_err(|e| format!("{}: {e}", data_root.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        data_root: data_root.clone(),
        world: world::World::new(),
    };
    let mut run = || -> Result<bool> {
        if let Some(n) = args.spread {
            return run_spread(n, &args, &mut ctx);
        }
        if args.aa {
            return run_aa(&args, &ctx);
        }
        match &args.workload {
            Some(w) => {
                let out = run_one(w, args.trace, &args, &ctx)?;
                let names: Vec<(&str, &str)> = if args.trace {
                    trace::PER_LAYER.to_vec()
                } else {
                    END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
                };
                println!("{}", out.result_line(&names));
                Ok(out.correct() && out.failed == 0)
            }
            None => run_all(&args, &ctx),
        }
    };
    let ok = run().map_err(|e| format!("benchmark failed: {e}"))?;
    // The data is removed on success and kept for inspection on failure.
    if ok && args.data_dir.is_none() {
        let _ = std::fs::remove_dir_all(&data_root);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: a correctness check failed or an operation failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the constants here are
    /// what the harness prints and judges by. They must say the same.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let json = include_str!("../../BENCHMARK.json");
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit, bound) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} not in BENCHMARK.json"));
            let line = json[at..].lines().next().unwrap();
            assert!(line.contains(&format!("\"bound\": {bound}")), "{line}");
        }
        for (name, unit) in trace::PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        assert!(json.contains("\"paths\": [\"benchmark\"]"));
    }
}
