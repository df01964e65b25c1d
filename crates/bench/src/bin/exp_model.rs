//! E1–E3: executable reproductions of the paper's Figures 1–3.
//!
//! Fig. 1 — the location Generalization Tree and its degradation paths.
//! Fig. 2 — the attribute LCP timeline (address 1h → city 1d → region 1mo →
//!          country 1mo → removed), driven through the real engine.
//! Fig. 3 — the tuple LCP as the product of two attribute LCPs.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_model`

use instant_bench::Report;
use instant_common::{Duration, LevelId, Value};
use instant_lcp::gtree::location_tree_fig1;
use instant_lcp::hierarchy::Hierarchy;
use instant_lcp::{AttributeLcp, TupleLcp};

fn main() {
    fig1();
    fig2();
    fig3();
}

fn fig1() {
    let gt = location_tree_fig1();
    let mut r = Report::new(
        "E1 / Fig.1 — generalization tree of the location domain",
        &["level", "name", "cardinality", "example"],
    );
    let example_leaf = "4 rue Jussieu";
    for k in 0..gt.levels() {
        let level = LevelId(k);
        let form = gt
            .generalize(&Value::Str(example_leaf.into()), level)
            .unwrap();
        r.row_strings(vec![
            format!("d{k}"),
            gt.level_name(level),
            gt.cardinality_at(level).to_string(),
            form.to_string(),
        ]);
    }
    r.emit("e1_fig1_gtree");

    let mut p = Report::new(
        "E1 — full degradation path (\"all degraded forms the value can take\")",
        &["step", "value"],
    );
    for (i, (level, label)) in gt
        .degradation_path(example_leaf)
        .unwrap()
        .iter()
        .enumerate()
    {
        p.row_strings(vec![format!("{i} ({level})"), label.clone()]);
    }
    p.emit("e1_fig1_path");
}

fn fig2() {
    let lcp = AttributeLcp::fig2_location();
    let gt = location_tree_fig1();
    let mut r = Report::new(
        "E2 / Fig.2 — attribute LCP timeline for '4 rue Jussieu'",
        &["age", "state", "level", "value"],
    );
    let probes = [
        Duration::ZERO,
        Duration::minutes(59),
        Duration::hours(1),
        Duration::hours(12),
        Duration::hours(25),
        Duration::days(5),
        Duration::days(26),
        Duration::days(31),
        Duration::days(45),
        Duration::days(61),
        Duration::days(62),
    ];
    for age in probes {
        let (state, level, value) = match lcp.level_at(age) {
            Some(level) => {
                let v = gt
                    .generalize(&Value::Str("4 rue Jussieu".into()), level)
                    .unwrap();
                (format!("d{}", level.0), gt.level_name(level), v.to_string())
            }
            None => ("⊥".to_string(), "removed".to_string(), "<removed>".into()),
        };
        r.row_strings(vec![age.to_string(), state, level, value]);
    }
    r.emit("e2_fig2_lcp");
    println!(
        "lifetime = {}, shortest step (attack-frequency bound) = {}\n",
        lcp.lifetime(),
        lcp.shortest_step()
    );
}

fn fig3() {
    // Two attributes with interleaving transitions, as in Fig. 3.
    let location = AttributeLcp::from_pairs(&[
        (0, Duration::hours(1)),
        (1, Duration::days(1)),
        (2, Duration::months(1)),
    ])
    .unwrap();
    let salary =
        AttributeLcp::from_pairs(&[(0, Duration::hours(12)), (2, Duration::days(7))]).unwrap();
    let tuple = TupleLcp::combine(vec![location, salary]);
    let mut r = Report::new(
        "E3 / Fig.3 — tuple LCP (product automaton: location × salary)",
        &["tuple state", "fires at", "attribute", "enters"],
    );
    r.row_strings(vec![
        "t0".into(),
        "0s".into(),
        "-".into(),
        "(d0, d0)".into(),
    ]);
    for (i, e) in tuple.events().iter().enumerate() {
        let attr = if e.attr == 0 { "location" } else { "salary" };
        let enters = match e.to_level {
            Some(l) => format!("d{}", l.0),
            None => "⊥ removed".to_string(),
        };
        r.row_strings(vec![
            format!("t{}", i + 1),
            e.at.to_string(),
            attr.to_string(),
            enters,
        ]);
    }
    r.emit("e3_fig3_tuple_lcp");
    println!(
        "tuple states = {}, expunge age = {}, shortest step = {}",
        tuple.num_states(),
        tuple.expunge_age().unwrap(),
        tuple.shortest_step().unwrap()
    );
}
