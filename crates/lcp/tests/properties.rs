//! Property-based tests of the degradation model's invariants.
//!
//! These are the invariants the paper's semantics depend on:
//!
//! * **Irreversibility / composition**: for `j ≤ k`, `f_k(f_j(v)) = f_k(v)`
//!   — degrading in steps is the same as degrading directly, so the engine
//!   may rewrite values in place without losing the ability to serve any
//!   coarser accuracy level.
//! * **Monotone life cycle**: the accuracy level in force never becomes
//!   finer as a value ages; exposure never increases.

use std::sync::Arc;

use instant_common::{Duration, LevelId, Value};
use instant_lcp::{
    automaton::AttributeLcp, gtree::GeneralizationTree, hierarchy::Hierarchy,
    range::RangeHierarchy, Degrader,
};
use proptest::prelude::*;

/// A random 3-level GT: leaves grouped under mid nodes under one root.
fn arb_gtree() -> impl Strategy<Value = GeneralizationTree> {
    // groups: 1..5 mid nodes, each with 1..6 leaves
    proptest::collection::vec(1usize..6, 1..5).prop_map(|groups| {
        let mut b = GeneralizationTree::builder("t", &["leaf", "mid", "root"]);
        for (g, leaves) in groups.iter().enumerate() {
            for l in 0..*leaves {
                let leaf = format!("leaf_{g}_{l}");
                let mid = format!("mid_{g}");
                b = b.path(&[&leaf, &mid, "root"]);
            }
        }
        b.build().expect("generated tree is well-formed")
    })
}

fn arb_lcp(max_levels: u8) -> impl Strategy<Value = AttributeLcp> {
    // Random subset of levels (strictly increasing) with random retentions.
    let lv = max_levels;
    proptest::collection::vec((0..lv, 1u64..1000), 1..(lv as usize + 1)).prop_filter_map(
        "levels must strictly increase",
        |mut pairs| {
            pairs.sort_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
            AttributeLcp::from_pairs(
                &pairs
                    .iter()
                    .map(|&(l, m)| (l, Duration::minutes(m)))
                    .collect::<Vec<_>>(),
            )
            .ok()
        },
    )
}

proptest! {
    #[test]
    fn f_k_composition_gtree(tree in arb_gtree(), leaf_pick in any::<prop::sample::Index>(),
                             j in 0u8..3, k in 0u8..3) {
        prop_assume!(j <= k);
        let leaves: Vec<String> = (0..tree.leaf_count())
            .map(|_| String::new())
            .collect();
        // Pick a leaf label deterministically from the index.
        let n = leaves.len();
        prop_assume!(n > 0);
        // Reconstruct leaf labels the way arb_gtree builds them.
        let label = {
            // walk all possible labels; degradation_path errors filter misses
            let mut found = None;
            'outer: for g in 0..8 {
                for l in 0..8 {
                    let cand = format!("leaf_{g}_{l}");
                    if tree.degradation_path(&cand).is_ok() {
                        found = Some(cand);
                        if leaf_pick.index(n) == 0 { break 'outer; }
                    }
                }
            }
            found.unwrap()
        };
        let v = Value::Str(label);
        let via_j = tree.generalize(&v, LevelId(j)).unwrap();
        let direct = tree.generalize(&v, LevelId(k)).unwrap();
        let composed = tree.generalize(&via_j, LevelId(k)).unwrap();
        prop_assert_eq!(composed, direct);
    }

    #[test]
    fn f_k_composition_ranges(v in -1_000_000i64..1_000_000, j in 0u8..4, k in 0u8..4) {
        prop_assume!(j <= k);
        let h = RangeHierarchy::new("t", &[1, 100, 1000, 10000], -1_000_000, 1_000_000).unwrap();
        let val = Value::Int(v);
        let via_j = h.generalize(&val, LevelId(j)).unwrap();
        let direct = h.generalize(&val, LevelId(k)).unwrap();
        let composed = h.generalize(&via_j, LevelId(k)).unwrap();
        prop_assert_eq!(composed, direct);
    }

    #[test]
    fn range_generalization_contains_value(v in -1_000_000i64..1_000_000, k in 1u8..4) {
        let h = RangeHierarchy::new("t", &[1, 100, 1000, 10000], -1_000_000, 1_000_000).unwrap();
        match h.generalize(&Value::Int(v), LevelId(k)).unwrap() {
            Value::Range { lo, hi } => {
                prop_assert!(lo <= v && v < hi);
                prop_assert_eq!(hi - lo, [1i64,100,1000,10000][k as usize]);
            }
            other => prop_assert!(false, "expected range, got {:?}", other),
        }
    }

    #[test]
    fn lcp_level_monotone_in_age(lcp in arb_lcp(4), ages in proptest::collection::vec(0u64..1_000_000, 1..50)) {
        let mut sorted = ages.clone();
        sorted.sort_unstable();
        let mut prev: Option<LevelId> = Some(LevelId(0));
        let mut expired = false;
        for a in sorted {
            let age = Duration::secs(a);
            match lcp.level_at(age) {
                Some(l) => {
                    prop_assert!(!expired, "level reappeared after expiry");
                    if let Some(p) = prev {
                        prop_assert!(l >= p, "level went finer with age");
                    }
                    prev = Some(l);
                }
                None => expired = true,
            }
        }
    }

    #[test]
    fn exposure_never_increases(lcp in arb_lcp(4), steps in 1u64..200) {
        let h = Arc::new(RangeHierarchy::new("t", &[1, 100, 1000, 10000], 0, 1_000_000).unwrap());
        let d = Degrader::new(h, lcp).unwrap();
        let v0 = Value::Int(123_456);
        let horizon = d.lcp().lifetime().as_micros() + 1000;
        let mut prev = f64::INFINITY;
        for i in 0..=steps {
            let age = Duration::micros(horizon * i / steps);
            let e = d.exposure_at(&v0, age);
            prop_assert!(e <= prev + 1e-12, "exposure increased");
            prop_assert!((0.0..=1.0).contains(&e));
            prev = e;
        }
        prop_assert_eq!(d.exposure_at(&v0, Duration::micros(horizon)), 0.0);
    }

    #[test]
    fn value_at_matches_manual_stage_lookup(lcp in arb_lcp(4), v in 0i64..1_000_000, probe in 0u64..10_000_000) {
        let h = Arc::new(RangeHierarchy::new("t", &[1, 100, 1000, 10000], 0, 1_000_000).unwrap());
        let d = Degrader::new(h.clone(), lcp.clone()).unwrap();
        let age = Duration::secs(probe);
        let got = d.value_at(&Value::Int(v), age).unwrap();
        match lcp.level_at(age) {
            Some(level) => {
                let expect = h.generalize(&Value::Int(v), level).unwrap();
                prop_assert_eq!(got, expect);
            }
            None => prop_assert_eq!(got, Value::Removed),
        }
    }
}
