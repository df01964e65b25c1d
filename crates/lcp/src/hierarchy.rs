//! The [`Hierarchy`] trait — the degradation function `f_k`.
//!
//! Section II of the paper: "data subject to a predicate P expressed on a
//! demanded accuracy level k will be degraded before evaluating P, using a
//! degradation function `f_k` (based on the generalization tree(s))".
//!
//! A hierarchy knows, for a domain, how a value stored at accuracy level `j`
//! maps to its generalized form at any coarser level `k ≥ j`. Going *finer*
//! is impossible by construction — that is precisely the irreversibility the
//! model relies on: once the engine has rewritten a value to level `k`,
//! nobody (the server included) can recompute any level `< k`.

use instant_common::{Error, LevelId, Result, Value};

/// A domain generalization hierarchy ("one GT per domain", Section II).
pub trait Hierarchy: Send + Sync + std::fmt::Debug {
    /// Number of accuracy levels, **excluding** removal. Level 0 is the most
    /// accurate; `levels() - 1` is the coarsest retained form (the GT root).
    fn levels(&self) -> u8;

    /// The accuracy level at which `v` currently sits, or `None` when the
    /// value does not belong to this domain. `Removed` has no level.
    fn level_of(&self, v: &Value) -> Option<LevelId>;

    /// The degradation function `f_k`: the level-`k` generalization of `v`.
    ///
    /// Errors with [`Error::Accuracy`] when `k` is finer than `v`'s current
    /// level (level `k` is "not computable" in the paper's terms) and with
    /// [`Error::NotFound`] when `v` is not in the domain.
    fn generalize(&self, v: &Value, k: LevelId) -> Result<Value>;

    /// Residual information of a value at level `k`, in `[0, 1]`.
    ///
    /// 1.0 = fully accurate (level 0), 0.0 = no information (removed). The
    /// default is information-theoretic: the fraction of domain bits the
    /// level-`k` form still pins down. Experiments E4/E5 sum this over the
    /// store to get the paper's "amount of accurate personal information
    /// exposed to disclosure".
    fn residual_info(&self, v: &Value, k: LevelId) -> f64;

    /// Human-readable name of a level (e.g. "city"), for reports.
    fn level_name(&self, k: LevelId) -> String {
        format!("d{}", k.0)
    }

    /// Validate that `k` exists in this hierarchy.
    fn check_level(&self, k: LevelId) -> Result<()> {
        if k.0 < self.levels() {
            Ok(())
        } else {
            Err(Error::Accuracy(format!(
                "level d{} out of range (hierarchy has {} levels)",
                k.0,
                self.levels()
            )))
        }
    }

    /// Number of distinct values the domain exposes at level `k`.
    /// Used to reason about selectivity collapse (Section III: "OLTP
    /// queries become less selective").
    fn cardinality_at(&self, k: LevelId) -> u64;
}

/// Apply `f_k` to an optional value, passing `Removed` through untouched.
///
/// Degraded-past-`k` values yield `Err(Accuracy)` exactly as the trait does;
/// the query layer uses this to exclude non-computable subsets `ST_j` from
/// `σ_P,k` per the paper's semantics.
pub fn f_k(h: &dyn Hierarchy, v: &Value, k: LevelId) -> Result<Value> {
    if v.is_removed() {
        return Ok(Value::Removed);
    }
    h.generalize(v, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtree::GeneralizationTree;

    fn tiny_tree() -> GeneralizationTree {
        // root "World" -> {"EU" -> {"FR","NL"}, "US" -> {"CA"}}
        GeneralizationTree::builder("geo", &["leaf", "region", "world"])
            .path(&["FR", "EU", "World"])
            .path(&["NL", "EU", "World"])
            .path(&["CA", "US", "World"])
            .build()
            .unwrap()
    }

    #[test]
    fn f_k_passes_removed_through() {
        let t = tiny_tree();
        assert_eq!(
            f_k(&t, &Value::Removed, LevelId(0)).unwrap(),
            Value::Removed
        );
    }

    #[test]
    fn check_level_bounds() {
        let t = tiny_tree();
        assert!(t.check_level(LevelId(2)).is_ok());
        assert!(t.check_level(LevelId(3)).is_err());
    }

    #[test]
    fn f_k_rejects_refinement() {
        let t = tiny_tree();
        let eu = Value::Str("EU".into());
        // EU is level 1; asking for level 0 must fail (not computable).
        assert!(matches!(f_k(&t, &eu, LevelId(0)), Err(Error::Accuracy(_))));
    }
}
