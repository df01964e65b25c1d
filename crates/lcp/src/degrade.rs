//! The [`Degrader`]: a hierarchy bound to an attribute LCP.
//!
//! This is the unit the engine attaches to each degradable column: it knows
//! *what* a value becomes (the hierarchy's `f_k`) and *when* (the automaton's
//! timeline), and it scores the privacy exposure of a stored value — the
//! quantity the paper's first claim ("increased privacy wrt disclosure")
//! is about.

use std::sync::Arc;

use instant_common::{Duration, LevelId, Result, Timestamp, Value};

use crate::automaton::{AttributeLcp, LcpPosition};
use crate::hierarchy::Hierarchy;

/// Hierarchy + LCP for one degradable attribute.
#[derive(Debug, Clone)]
pub struct Degrader {
    hierarchy: Arc<dyn Hierarchy>,
    lcp: AttributeLcp,
}

impl Degrader {
    pub fn new(hierarchy: Arc<dyn Hierarchy>, lcp: AttributeLcp) -> Result<Self> {
        for s in lcp.stages() {
            hierarchy.check_level(s.level)?;
        }
        Ok(Degrader { hierarchy, lcp })
    }

    pub fn hierarchy(&self) -> &Arc<dyn Hierarchy> {
        &self.hierarchy
    }

    pub fn lcp(&self) -> &AttributeLcp {
        &self.lcp
    }

    /// The form an accurate value `v0` (inserted at age 0) takes at `age`.
    /// `Removed` once the life cycle has completed.
    pub fn value_at(&self, v0: &Value, age: Duration) -> Result<Value> {
        match self.lcp.position_at(age) {
            LcpPosition::Stage(i) => self.hierarchy.generalize(v0, self.lcp.stages()[i].level),
            LcpPosition::Expired => Ok(Value::Removed),
        }
    }

    /// Apply `f_k` to a stored (possibly already degraded) value.
    pub fn degrade_to(&self, v: &Value, k: LevelId) -> Result<Value> {
        crate::hierarchy::f_k(self.hierarchy.as_ref(), v, k)
    }

    /// The level in force at `age` (`None` = removed).
    pub fn level_at(&self, age: Duration) -> Option<LevelId> {
        self.lcp.level_at(age)
    }

    /// Exposure of a value stored at `level`: residual information in \[0,1\].
    /// `None` level (removed) scores 0.
    pub fn exposure(&self, v: &Value, level: Option<LevelId>) -> f64 {
        match level {
            Some(k) if !v.is_removed() => self.hierarchy.residual_info(v, k),
            _ => 0.0,
        }
    }

    /// Exposure of the value an observer sees if the store is snapshotted at
    /// `age` — the integrand of experiment E4's exposure-over-time curve.
    pub fn exposure_at(&self, v0: &Value, age: Duration) -> f64 {
        self.exposure(v0, self.level_at(age))
    }

    /// Absolute due time of the transition leaving stage `stage` for a datum
    /// born at `birth`.
    pub fn due_time(&self, birth: Timestamp, stage: usize) -> Option<Timestamp> {
        self.lcp.due_time(birth, stage)
    }

    /// Time-averaged exposure over the whole life cycle (closed form):
    /// `Σ_i retention_i · residual(level_i) / lifetime`. Used in reports to
    /// compare policies analytically against the measured curves.
    pub fn mean_lifetime_exposure(&self, v0: &Value) -> f64 {
        let total = self.lcp.lifetime().as_micros() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for s in self.lcp.stages() {
            let r = self.hierarchy.residual_info(v0, s.level);
            acc += r * s.retention.as_micros() as f64;
        }
        acc / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtree::location_tree_fig1;
    use crate::range::RangeHierarchy;
    use instant_common::Duration as D;

    fn location_degrader() -> Degrader {
        Degrader::new(
            Arc::new(location_tree_fig1()),
            AttributeLcp::fig2_location(),
        )
        .unwrap()
    }

    #[test]
    fn value_follows_fig2_timeline() {
        let d = location_degrader();
        let v0 = Value::Str("Domaine de Voluceau".into());
        assert_eq!(d.value_at(&v0, D::ZERO).unwrap(), v0);
        assert_eq!(
            d.value_at(&v0, D::hours(2)).unwrap(),
            Value::Str("Le Chesnay".into())
        );
        assert_eq!(
            d.value_at(&v0, D::days(2)).unwrap(),
            Value::Str("Ile-de-France".into())
        );
        assert_eq!(
            d.value_at(&v0, D::days(40)).unwrap(),
            Value::Str("France".into())
        );
        assert_eq!(d.value_at(&v0, D::days(400)).unwrap(), Value::Removed);
    }

    #[test]
    fn exposure_decreases_stepwise() {
        let d = location_degrader();
        let v0 = Value::Str("4 rue Jussieu".into());
        let ages = [D::ZERO, D::hours(2), D::days(2), D::days(40), D::days(400)];
        let exps: Vec<f64> = ages.iter().map(|a| d.exposure_at(&v0, *a)).collect();
        for pair in exps.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-12,
                "exposure must not increase: {exps:?}"
            );
        }
        assert!(
            (exps[0] - 1.0).abs() < 1e-9,
            "accurate state = full exposure"
        );
        assert_eq!(exps[4], 0.0, "removed = zero exposure");
    }

    #[test]
    fn degrade_to_respects_computability() {
        let d = location_degrader();
        let city = Value::Str("Paris".into());
        assert!(d.degrade_to(&city, LevelId(0)).is_err());
        assert_eq!(
            d.degrade_to(&city, LevelId(3)).unwrap(),
            Value::Str("France".into())
        );
        assert_eq!(
            d.degrade_to(&Value::Removed, LevelId(2)).unwrap(),
            Value::Removed
        );
    }

    #[test]
    fn constructor_rejects_levels_beyond_hierarchy() {
        let h: Arc<dyn Hierarchy> = Arc::new(RangeHierarchy::salary()); // 4 levels
        let bad = AttributeLcp::from_pairs(&[(0, D::hours(1)), (7, D::hours(1))]).unwrap();
        assert!(Degrader::new(h, bad).is_err());
    }

    #[test]
    fn mean_lifetime_exposure_between_bounds() {
        let d = location_degrader();
        let v0 = Value::Str("Drienerlolaan 5".into());
        let m = d.mean_lifetime_exposure(&v0);
        assert!(
            m > 0.0 && m < 1.0,
            "mean exposure {m} must be strictly inside (0,1)"
        );
        // A pure-retention policy (single d0 stage) has mean exposure 1.
        let ret = Degrader::new(
            Arc::new(location_tree_fig1()),
            AttributeLcp::from_pairs(&[(0, D::days(365))]).unwrap(),
        )
        .unwrap();
        assert!((ret.mean_lifetime_exposure(&v0) - 1.0).abs() < 1e-9);
        // And strictly larger than the degrading policy's — claim 1 in closed form.
        assert!(ret.mean_lifetime_exposure(&v0) > m);
    }

    #[test]
    fn numeric_degrader_end_to_end() {
        let d = Degrader::new(
            Arc::new(RangeHierarchy::salary()),
            AttributeLcp::from_pairs(&[(0, D::minutes(10)), (2, D::days(30)), (3, D::days(335))])
                .unwrap(),
        )
        .unwrap();
        let v0 = Value::Int(2340);
        assert_eq!(d.value_at(&v0, D::minutes(5)).unwrap(), Value::Int(2340));
        assert_eq!(
            d.value_at(&v0, D::hours(1)).unwrap(),
            Value::Range { lo: 2000, hi: 3000 }
        );
        assert_eq!(
            d.value_at(&v0, D::days(31)).unwrap(),
            Value::Range { lo: 0, hi: 10000 }
        );
        assert_eq!(d.value_at(&v0, D::days(366)).unwrap(), Value::Removed);
    }
}
