//! Section IV extensions ("other forms of data degradation make sense and
//! could be the target of future work").
//!
//! The paper names four: event-triggered transitions, predicate-conditioned
//! transitions, user-defined (per-donor) LCPs, and relaxed query semantics.
//! Relaxed semantics live in the executor
//! ([`crate::query::session::QuerySemantics::Relaxed`]); this module
//! provides the other three:
//!
//! * [`force_degrade`] — fire a tuple's next transition *now* (the
//!   database-trigger analogue: e.g. "degrade on account closure").
//! * [`degrade_where`] — predicate-conditioned degradation: advance every
//!   tuple matching a condition on its *stored* state.
//! * [`per_user_tables`] — the per-donor-LCP pattern: "paranoid" users'
//!   data routes to a table with an accelerated LCP. The helper builds the
//!   table family; routing is a lookup.

use std::collections::HashMap;
use std::sync::Arc;

use instant_common::{Result, TupleId, Value};
use instant_lcp::hierarchy::Hierarchy;
use instant_lcp::AttributeLcp;

use crate::catalog::Table;
use crate::db::Db;
use crate::scheduler::PendingTransition;
use crate::schema::TableSchema;
use crate::tuple::StoredTuple;

/// Fire the next pending transition of every degradable attribute of `tid`
/// immediately (event-triggered degradation). Returns the number of
/// attribute transitions executed.
pub fn force_degrade(db: &Db, table: &Arc<Table>, tid: TupleId) -> Result<usize> {
    if !table.exists(tid) {
        return Ok(0);
    }
    let tuple = table.get(tid)?;
    let mut fired = 0;
    for (slot, _cid) in table.schema().degradable_columns().iter().enumerate() {
        if let Some(stage) = tuple.stages.get(slot).copied().flatten() {
            // Re-arm this attribute as due immediately; the pump executes it
            // under the normal system-transaction machinery (locks, WAL,
            // secure rewrite), so event-triggered steps inherit every
            // guarantee of time-triggered ones.
            db.scheduler().schedule(PendingTransition {
                due: db.now(),
                table: table.id(),
                tid,
                insert_ts: tuple.insert_ts,
                deg_slot: slot as u8,
                from_stage: stage,
            });
            fired += 1;
        }
    }
    if fired > 0 {
        db.pump_degradation()?;
    }
    Ok(fired)
}

/// Predicate-conditioned degradation: advance every tuple whose *stored*
/// state matches `condition` by one step on every live attribute. Returns
/// the number of tuples advanced.
pub fn degrade_where(
    db: &Db,
    table: &Arc<Table>,
    condition: impl Fn(&StoredTuple) -> bool,
) -> Result<usize> {
    let mut advanced = 0;
    for (tid, tuple) in table.scan()? {
        if condition(&tuple) && force_degrade(db, table, tid)? > 0 {
            advanced += 1;
        }
    }
    Ok(advanced)
}

/// Privacy classes for per-donor LCPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivacyClass {
    /// Default LCP.
    Standard,
    /// Accelerated LCP (shorter retentions).
    Paranoid,
}

/// Build the per-user-class table family: one table per class, identical
/// shape, different LCPs. Returns `class → table name` for routing.
pub fn per_user_tables(
    db: &Db,
    base_name: &str,
    hierarchy: Arc<dyn Hierarchy>,
    standard: AttributeLcp,
    paranoid: AttributeLcp,
) -> Result<HashMap<PrivacyClass, String>> {
    let mut map = HashMap::new();
    for (class, suffix, lcp) in [
        (PrivacyClass::Standard, "standard", standard),
        (PrivacyClass::Paranoid, "paranoid", paranoid),
    ] {
        let name = format!("{base_name}_{suffix}");
        let schema = TableSchema::new(
            &name,
            vec![
                crate::schema::Column::stable("id", instant_common::DataType::Int).with_index(),
                crate::schema::Column::degradable(
                    "location",
                    instant_common::DataType::Str,
                    hierarchy.clone(),
                    lcp,
                )?
                .with_index(),
            ],
        )?;
        db.create_table(schema)?;
        map.insert(class, name);
    }
    Ok(map)
}

/// Route an insert to the class's table.
pub fn insert_for_class(
    db: &Db,
    routes: &HashMap<PrivacyClass, String>,
    class: PrivacyClass,
    row: &[Value],
) -> Result<TupleId> {
    let table = routes
        .get(&class)
        .ok_or_else(|| instant_common::Error::NotFound(format!("class {class:?}")))?;
    db.insert(table, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::schema::Column;
    use instant_common::{DataType, Duration, MockClock};
    use instant_lcp::gtree::location_tree_fig1;

    fn setup() -> (MockClock, Db) {
        let clock = MockClock::new();
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::stable("id", DataType::Int).with_index(),
                    Column::degradable(
                        "location",
                        DataType::Str,
                        gt,
                        AttributeLcp::fig2_location(),
                    )
                    .unwrap()
                    .with_index(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        (clock, db)
    }

    #[test]
    fn force_degrade_fires_ahead_of_schedule() {
        let (_clock, db) = setup();
        let table = db.catalog().get("person").unwrap();
        let tid = db
            .insert(
                "person",
                &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        // No time has passed — normally the tuple would stay accurate 1 h.
        let fired = force_degrade(&db, &table, tid).unwrap();
        assert_eq!(fired, 1);
        assert_eq!(table.get(tid).unwrap().row[1], Value::Str("Paris".into()));
        // Two queue entries remain: the re-armed stage-1 transition plus the
        // original (now stale) stage-0 entry, which the pump will skip as a
        // stage mismatch when its time comes.
        assert_eq!(db.scheduler().len(), 2);
    }

    #[test]
    fn force_degrade_missing_tuple_is_zero() {
        let (_clock, db) = setup();
        let table = db.catalog().get("person").unwrap();
        let tid = db
            .insert(
                "person",
                &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        db.delete_tuple(&table, tid).unwrap();
        assert_eq!(force_degrade(&db, &table, tid).unwrap(), 0);
    }

    #[test]
    fn degrade_where_is_predicate_conditioned() {
        let (_clock, db) = setup();
        let table = db.catalog().get("person").unwrap();
        for i in 0..6 {
            db.insert(
                "person",
                &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        }
        // Degrade only even ids.
        let n = degrade_where(
            &db,
            &table,
            |t| matches!(t.row[0], Value::Int(i) if i % 2 == 0),
        )
        .unwrap();
        assert_eq!(n, 3);
        let cities = table
            .scan()
            .unwrap()
            .iter()
            .filter(|(_, t)| t.row[1] == Value::Str("Paris".into()))
            .count();
        assert_eq!(cities, 3);
    }

    #[test]
    fn per_user_lcp_routing() {
        let clock = MockClock::new();
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        let standard = AttributeLcp::fig2_location();
        let paranoid =
            AttributeLcp::from_pairs(&[(0, Duration::minutes(5)), (3, Duration::hours(1))])
                .unwrap();
        let routes = per_user_tables(&db, "events", gt, standard, paranoid).unwrap();
        insert_for_class(
            &db,
            &routes,
            PrivacyClass::Standard,
            &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
        insert_for_class(
            &db,
            &routes,
            PrivacyClass::Paranoid,
            &[Value::Int(2), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
        // 10 minutes: the paranoid tuple has skipped straight to country;
        // the standard one is still accurate.
        clock.advance(Duration::minutes(10));
        db.pump_degradation().unwrap();
        let std_t = db.catalog().get("events_standard").unwrap();
        let par_t = db.catalog().get("events_paranoid").unwrap();
        assert_eq!(
            std_t.scan().unwrap()[0].1.row[1],
            Value::Str("4 rue Jussieu".into())
        );
        assert_eq!(
            par_t.scan().unwrap()[0].1.row[1],
            Value::Str("France".into())
        );
    }
}
