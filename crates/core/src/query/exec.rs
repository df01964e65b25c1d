//! Binder, planner and executor — the paper's `σ_P,k` and `π_*,k`.
//!
//! Section II defines, for a dataset partitioned by tuple state into
//! subsets `ST_j`:
//!
//! ```text
//! σ_P,k(DS) = σ_P( f_k( ∪_{j : k computable in j} ST_j ) )
//! π_*,k(DS) = π_*( f_k( ∪_{j : k computable in j} ST_j ) )
//! ```
//!
//! i.e. only tuples whose current accuracy can still *compute* level `k`
//! participate; their degradable values are degraded to exactly `k` with
//! `f_k` before predicate evaluation and projection, so every result row is
//! coherent at one accuracy level. The relaxed variant (Section IV, toggled
//! by [`QuerySemantics::Relaxed`]) additionally evaluates predicates
//! against coarser tuples and projects the most accurate computable value.
//!
//! Planning: one indexable conjunct is chosen as the access path — a
//! stable-column ordered-index probe, or a degradable-column probe against the
//! multi-level index at the requested level `k` (supplemented by the
//! finer-level member lists, since finer tuples also compute `k`); the
//! remaining conjuncts run as filters.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Bound;
use std::sync::Arc;

use instant_common::{ColumnId, Error, LevelId, Result, TupleId, Value};
use instant_tx::{LockMode, Resource};

use crate::catalog::Table;
use crate::query::ast::{ColumnDef, ComparisonOp, Predicate, Statement};
use crate::query::session::{QuerySemantics, Session};
use crate::schema::{Column, TableSchema};
use crate::tuple::StoredTuple;

/// Result rows of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// One-line plan description (for tests and EXPLAIN-style output).
    pub plan: String,
}

/// Output of one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    TableCreated(String),
    Inserted(usize),
    Rows(QueryResult),
    Deleted(usize),
    PurposeDeclared(String),
    /// A `CHECKPOINT` completed (flush → log → shred → truncate).
    Checkpointed,
    /// `SHOW STATS`: the full observability snapshot (boxed — it is two
    /// orders of magnitude bigger than every other variant).
    Stats(Box<instant_obs::StatsSnapshot>),
}

impl QueryOutput {
    /// Unwrap SELECT rows (test convenience).
    pub fn rows(self) -> QueryResult {
        match self {
            QueryOutput::Rows(r) => r,
            #[expect(
                clippy::panic,
                reason = "test-convenience accessor, not on the query path"
            )]
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

/// Execute a bound statement against the session's database.
pub fn run(session: &mut Session, stmt: Statement) -> Result<QueryOutput> {
    match stmt {
        Statement::CreateTable { name, columns } => {
            let schema = build_schema(session, &name, &columns)?;
            session.db().create_table(schema)?;
            Ok(QueryOutput::TableCreated(name))
        }
        Statement::Insert { table, rows } => {
            let mut n = 0;
            for row in rows {
                session.db().insert(&table, &row)?;
                n += 1;
            }
            Ok(QueryOutput::Inserted(n))
        }
        Statement::Select {
            table,
            projection,
            predicate,
        } => {
            let table = session.db().catalog().get(&table)?;
            let result = select(session, &table, &projection, predicate.as_ref())?;
            Ok(QueryOutput::Rows(result))
        }
        Statement::Delete { table, predicate } => {
            let table = session.db().catalog().get(&table)?;
            let n = delete(session, &table, predicate.as_ref())?;
            Ok(QueryOutput::Deleted(n))
        }
        Statement::Checkpoint => {
            session.db().checkpoint()?;
            Ok(QueryOutput::Checkpointed)
        }
        Statement::ShowStats => Ok(QueryOutput::Stats(Box::new(
            crate::metrics::stats_snapshot(session.db()),
        ))),
        Statement::DeclarePurpose { .. } => unreachable!("handled by Session::run"),
    }
}

fn build_schema(session: &Session, name: &str, defs: &[ColumnDef]) -> Result<TableSchema> {
    build_schema_with(session.hierarchies(), name, defs)
}

fn build_schema_with(
    hierarchies: &crate::query::session::HierarchyRegistry,
    name: &str,
    defs: &[ColumnDef],
) -> Result<TableSchema> {
    let mut columns = Vec::with_capacity(defs.len());
    for def in defs {
        let ty = instant_common::DataType::parse(&def.type_name)?;
        let mut col = match &def.degrade {
            None => Column::stable(&def.name, ty),
            Some(clause) => {
                let h = hierarchies.get(&clause.hierarchy)?;
                let lcp = instant_lcp::policy::parse_lcp(&clause.lcp_spec, Some(h.as_ref()))?;
                Column::degradable(&def.name, ty, h, lcp)?
            }
        };
        if def.indexed {
            col = col.with_index();
        }
        columns.push(col);
    }
    TableSchema::new(name, columns)
}

/// Build the [`TableSchema`] a `CREATE TABLE` statement describes without
/// executing it — hierarchies resolve against `hierarchies`. This is the
/// DDL-replay entry point: a server that persisted its `CREATE TABLE`
/// statements rebuilds the schemas for
/// [`Db::recover_with_schemas`](crate::db::Db::recover_with_schemas) from
/// here, before any session exists.
pub fn schema_for_create(
    hierarchies: &crate::query::session::HierarchyRegistry,
    sql: &str,
) -> Result<TableSchema> {
    match crate::query::parser::parse(sql)? {
        Statement::CreateTable { name, columns } => build_schema_with(hierarchies, &name, &columns),
        other => Err(Error::Parse(format!(
            "expected CREATE TABLE, got {other:?}"
        ))),
    }
}

/// The per-degradable-column requested accuracy for this query.
#[derive(Debug, Clone)]
struct AccuracyVector {
    /// `(column, requested level)` for every degradable column.
    levels: Vec<(ColumnId, LevelId)>,
}

impl AccuracyVector {
    fn level_of(&self, cid: ColumnId) -> Option<LevelId> {
        self.levels.iter().find(|(c, _)| *c == cid).map(|(_, l)| *l)
    }
}

/// Resolve the accuracy vector from the active purpose (default: each
/// attribute's initial stage level, i.e. the most accurate stored state).
fn resolve_accuracy(session: &Session, table: &Table) -> Result<AccuracyVector> {
    let schema = table.schema();
    let mut levels = Vec::new();
    for (cid, d) in schema.degraders() {
        let col = schema.column(cid);
        let default_level = d.lcp().stages()[0].level;
        let requested = session
            .active_purpose()
            .and_then(|p| p.levels.get(&col.name.to_ascii_lowercase()))
            .cloned();
        let level = match requested {
            None => default_level,
            Some(token) => resolve_level_token(&token, d.hierarchy().as_ref())?,
        };
        d.hierarchy().check_level(level)?;
        levels.push((cid, level));
    }
    Ok(AccuracyVector { levels })
}

fn resolve_level_token(token: &str, h: &dyn instant_lcp::hierarchy::Hierarchy) -> Result<LevelId> {
    if let Some(rest) = token.strip_prefix(['d', 'D']) {
        if let Ok(n) = rest.parse::<u8>() {
            return Ok(LevelId(n));
        }
    }
    for k in 0..h.levels() {
        if h.level_name(LevelId(k)).eq_ignore_ascii_case(token) {
            return Ok(LevelId(k));
        }
    }
    Err(Error::Accuracy(format!(
        "unknown accuracy level '{token}' (levels: {})",
        (0..h.levels())
            .map(|k| h.level_name(LevelId(k)))
            .collect::<Vec<_>>()
            .join(", ")
    )))
}

/// Candidate acquisition strategy.
enum AccessPath {
    SeqScan,
    StableEq(ColumnId, Value),
    StableRange(ColumnId, Bound<Value>, Bound<Value>),
    /// Probe the multi-level index at the requested level with the key,
    /// plus all members of finer levels (they also compute `k`).
    DegEq(ColumnId, LevelId, Value),
    DegRange(ColumnId, LevelId, Bound<Value>, Bound<Value>),
}

impl AccessPath {
    fn describe(&self, schema: &TableSchema) -> String {
        match self {
            AccessPath::SeqScan => "SeqScan".to_string(),
            AccessPath::StableEq(c, v) => {
                format!("IndexEq({}={v})", schema.column(*c).name)
            }
            AccessPath::StableRange(c, _, _) => {
                format!("IndexRange({})", schema.column(*c).name)
            }
            AccessPath::DegEq(c, l, v) => {
                format!("DegIndexEq({}@d{}={v})", schema.column(*c).name, l.0)
            }
            AccessPath::DegRange(c, l, _, _) => {
                format!("DegIndexRange({}@d{})", schema.column(*c).name, l.0)
            }
        }
    }
}

/// Bind a literal against a column: the paper's `'2000-3000'` interval
/// literal binds to a [`Value::Range`] on integer columns.
fn bind_literal(col: &Column, lit: &Value) -> Value {
    if col.ty == instant_common::DataType::Int {
        if let Value::Str(s) = lit {
            if let Some((lo, hi)) = s.split_once('-') {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<i64>(), hi.trim().parse::<i64>()) {
                    return Value::Range { lo, hi };
                }
            }
        }
    }
    lit.clone()
}

/// Validate that every column a predicate references exists — statements
/// must fail on bad names even when no tuple would ever be evaluated.
fn bind_predicate(schema: &TableSchema, predicate: Option<&Predicate>) -> Result<()> {
    if let Some(p) = predicate {
        for col in p.columns() {
            schema.column_id(col)?;
        }
    }
    Ok(())
}

/// Pick the access path: first indexable equality conjunct, else first
/// indexable range conjunct, else scan.
fn plan(table: &Table, predicate: Option<&Predicate>, acc: &AccuracyVector) -> AccessPath {
    let schema = table.schema();
    let Some(pred) = predicate else {
        return AccessPath::SeqScan;
    };
    let conjuncts = pred.conjuncts();
    // Pass 1: equality probes.
    for c in &conjuncts {
        if let Predicate::Cmp {
            column,
            op: ComparisonOp::Eq,
            literal,
        } = c
        {
            let Ok(cid) = schema.column_id(column) else {
                continue;
            };
            let col = schema.column(cid);
            if !col.indexed {
                continue;
            }
            let key = bind_literal(col, literal);
            match col.degrader() {
                None => return AccessPath::StableEq(cid, key),
                Some(_) => {
                    if let Some(level) = acc.level_of(cid) {
                        return AccessPath::DegEq(cid, level, key);
                    }
                }
            }
        }
    }
    // Pass 2: range probes.
    for c in &conjuncts {
        let (column, lo, hi) = match c {
            Predicate::Between { column, lo, hi } => {
                (column, Bound::Included(lo), Bound::Included(hi))
            }
            Predicate::Cmp {
                column,
                op,
                literal,
            } => match op {
                ComparisonOp::Lt => (column, Bound::Unbounded, Bound::Excluded(literal)),
                ComparisonOp::Le => (column, Bound::Unbounded, Bound::Included(literal)),
                ComparisonOp::Gt => (column, Bound::Excluded(literal), Bound::Unbounded),
                ComparisonOp::Ge => (column, Bound::Included(literal), Bound::Unbounded),
                ComparisonOp::Eq | ComparisonOp::Ne => continue,
            },
            _ => continue,
        };
        let Ok(cid) = schema.column_id(column) else {
            continue;
        };
        let col = schema.column(cid);
        if !col.indexed {
            continue;
        }
        let lo = lo.map(|v| bind_literal(col, v));
        let hi = hi.map(|v| bind_literal(col, v));
        match col.degrader() {
            None => return AccessPath::StableRange(cid, lo, hi),
            Some(_) => {
                if let Some(level) = acc.level_of(cid) {
                    return AccessPath::DegRange(cid, level, lo, hi);
                }
            }
        }
    }
    AccessPath::SeqScan
}

/// Gather candidate tuple ids for the path.
fn candidates(table: &Table, path: &AccessPath) -> Result<Option<Vec<TupleId>>> {
    match path {
        AccessPath::SeqScan => Ok(None),
        AccessPath::StableEq(cid, key) => Ok(table.index_probe_stable(*cid, key)),
        AccessPath::StableRange(cid, lo, hi) => {
            Ok(table.index_range_stable(*cid, lo.as_ref(), hi.as_ref()))
        }
        AccessPath::DegEq(cid, level, key) => {
            let mut out = match table.index_probe_deg(*cid, *level, key) {
                Some(v) => v,
                None => return Ok(None),
            };
            // Tuples at finer levels also compute level k; their keys live
            // in a finer keyspace, so take the whole finer membership and
            // let the filter decide.
            for finer in 0..level.0 {
                if let Some(members) = table.index_level_members(*cid, LevelId(finer)) {
                    out.extend(members);
                }
            }
            Ok(Some(out))
        }
        AccessPath::DegRange(cid, level, lo, hi) => {
            let mut out = match table.index_range_deg(*cid, *level, lo.as_ref(), hi.as_ref()) {
                Some(v) => v,
                None => return Ok(None),
            };
            for finer in 0..level.0 {
                if let Some(members) = table.index_level_members(*cid, LevelId(finer)) {
                    out.extend(members);
                }
            }
            Ok(Some(out))
        }
    }
}

/// The degraded view of one tuple at the accuracy vector, or `None` when
/// the tuple does not participate under the session semantics.
fn degraded_view(
    table: &Table,
    tuple: &StoredTuple,
    acc: &AccuracyVector,
    semantics: QuerySemantics,
) -> Option<Vec<Value>> {
    let schema = table.schema();
    let mut row = tuple.row.clone();
    // `acc` was resolved over this schema's degraders, in the same order.
    for (slot, ((cid, d), &(_, requested))) in schema.degraders().zip(&acc.levels).enumerate() {
        let stage = tuple.stages.get(slot).copied().flatten();
        let current_level = stage.map(|s| d.lcp().stages()[s as usize].level);
        match current_level {
            Some(cur) if cur <= requested => {
                // Computable: degrade to exactly k.
                match d.degrade_to(&row[cid.0 as usize], requested) {
                    Ok(v) => row[cid.0 as usize] = v,
                    Err(_) => return None,
                }
            }
            Some(_) | None => match semantics {
                // Strict: level k is not computable → the tuple is not in
                // any qualifying ST_j subset.
                QuerySemantics::Strict => return None,
                // Relaxed: keep the most accurate computable value (the
                // stored one; `Removed` stays removed).
                QuerySemantics::Relaxed => {}
            },
        }
    }
    Some(row)
}

/// Evaluate a predicate against a degraded row.
fn eval_predicate(schema: &TableSchema, pred: &Predicate, row: &[Value]) -> Result<bool> {
    match pred {
        Predicate::And(ps) => {
            for p in ps {
                if !eval_predicate(schema, p, row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Predicate::Cmp {
            column,
            op,
            literal,
        } => {
            let cid = schema.column_id(column)?;
            let col = schema.column(cid);
            let value = &row[cid.0 as usize];
            if value.is_removed() || value.is_null() {
                return Ok(false);
            }
            let lit = bind_literal(col, literal);
            let ord = value.compare(&lit);
            Ok(match op {
                ComparisonOp::Eq => ord == CmpOrdering::Equal,
                ComparisonOp::Ne => ord != CmpOrdering::Equal,
                ComparisonOp::Lt => ord == CmpOrdering::Less,
                ComparisonOp::Le => ord != CmpOrdering::Greater,
                ComparisonOp::Gt => ord == CmpOrdering::Greater,
                ComparisonOp::Ge => ord != CmpOrdering::Less,
            })
        }
        Predicate::Like { column, pattern } => {
            let cid = schema.column_id(column)?;
            Ok(row[cid.0 as usize].like(pattern))
        }
        Predicate::Between { column, lo, hi } => {
            let cid = schema.column_id(column)?;
            let col = schema.column(cid);
            let value = &row[cid.0 as usize];
            if value.is_removed() || value.is_null() {
                return Ok(false);
            }
            let lo = bind_literal(col, lo);
            let hi = bind_literal(col, hi);
            Ok(value.compare(&lo) != CmpOrdering::Less
                && value.compare(&hi) != CmpOrdering::Greater)
        }
    }
}

/// Run a SELECT with `σ_P,k` / `π_*,k` semantics.
fn select(
    session: &Session,
    table: &Arc<Table>,
    projection: &[String],
    predicate: Option<&Predicate>,
) -> Result<QueryResult> {
    let db = session.db();
    let schema = table.schema();
    bind_predicate(schema, predicate)?;
    let acc = resolve_accuracy(session, table)?;
    let path = plan(table, predicate, &acc);
    let plan_desc = path.describe(schema);

    // Column selection.
    let proj_ids: Vec<ColumnId> = if projection.is_empty() {
        (0..schema.arity()).map(|i| ColumnId(i as u16)).collect()
    } else {
        projection
            .iter()
            .map(|name| schema.column_id(name))
            .collect::<Result<_>>()?
    };

    let tx = db.tx_manager().begin();
    tx.lock(Resource::Table(table.id()), LockMode::IntentionShared)?;

    let candidate_ids = candidates(table, &path)?;
    let mut rows = Vec::new();
    let mut visit = |tid: TupleId, tuple: &StoredTuple| -> Result<()> {
        if let Some(view) = degraded_view(table, tuple, &acc, session.semantics()) {
            let keep = match predicate {
                Some(p) => eval_predicate(schema, p, &view)?,
                None => true,
            };
            if keep {
                rows.push(
                    proj_ids
                        .iter()
                        .map(|c| view[c.0 as usize].clone())
                        .collect(),
                );
            }
        }
        let _ = tid;
        Ok(())
    };
    match candidate_ids {
        Some(ids) => {
            let mut seen = std::collections::HashSet::new();
            for tid in ids {
                if !seen.insert(tid) {
                    continue;
                }
                tx.lock(Resource::Tuple(table.id(), tid), LockMode::Shared)?;
                if let Ok(tuple) = table.get(tid) {
                    visit(tid, &tuple)?;
                }
            }
        }
        None => {
            // Sequential scan under a table shared lock.
            tx.lock(Resource::Table(table.id()), LockMode::Shared)?;
            for (tid, tuple) in table.scan()? {
                visit(tid, &tuple)?;
            }
        }
    }
    tx.commit()?;
    Ok(QueryResult {
        columns: proj_ids
            .iter()
            .map(|c| schema.column(*c).name.clone())
            .collect(),
        rows,
        plan: plan_desc,
    })
}

/// DELETE with view-style semantics: the predicate is evaluated exactly as
/// in SELECT (same accuracy degradation and computability rules); every
/// qualifying tuple is then physically removed, stable attributes included.
/// A tuple already gone is not counted; any other failure ends the
/// statement with that error, and the tuples deleted before it stay
/// deleted.
fn delete(session: &Session, table: &Arc<Table>, predicate: Option<&Predicate>) -> Result<usize> {
    let db = session.db();
    let schema = table.schema();
    bind_predicate(schema, predicate)?;
    let acc = resolve_accuracy(session, table)?;
    let path = plan(table, predicate, &acc);
    let candidate_ids = candidates(table, &path)?;
    let ids: Vec<TupleId> = match candidate_ids {
        Some(ids) => ids,
        None => table.scan()?.into_iter().map(|(t, _)| t).collect(),
    };
    let mut victims = Vec::new();
    {
        let tx = db.tx_manager().begin();
        tx.lock(Resource::Table(table.id()), LockMode::IntentionShared)?;
        let mut seen = std::collections::HashSet::new();
        for tid in ids {
            if !seen.insert(tid) {
                continue;
            }
            tx.lock(Resource::Tuple(table.id(), tid), LockMode::Shared)?;
            let Ok(tuple) = table.get(tid) else { continue };
            if let Some(view) = degraded_view(table, &tuple, &acc, session.semantics()) {
                let keep = match predicate {
                    Some(p) => eval_predicate(schema, p, &view)?,
                    None => true,
                };
                if keep {
                    victims.push(tid);
                }
            }
        }
        tx.commit()?;
    }
    let mut deleted = 0;
    for tid in victims {
        match db.delete_tuple(table, tid) {
            Ok(()) => deleted += 1,
            // Already gone: a racing delete or the degrader's expunge.
            Err(Error::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Db, DbConfig};
    use instant_common::{Duration, MockClock};
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::RangeHierarchy;

    fn setup() -> (MockClock, Session) {
        let clock = MockClock::new();
        let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
        let mut s = Session::new(db);
        s.register_hierarchy("location_gt", Arc::new(location_tree_fig1()));
        s.register_hierarchy("salary_ranges", Arc::new(RangeHierarchy::salary()));
        s.execute(
            "CREATE TABLE person (\
               id INT INDEXED, \
               name TEXT, \
               location TEXT DEGRADE USING location_gt LCP 'd0:1h -> d1:1d -> d2:1mo -> d3:1mo' INDEXED, \
               salary INT DEGRADE USING salary_ranges LCP 'd0:1h -> d2:1mo -> d3:1mo')",
        )
        .unwrap();
        (clock, s)
    }

    fn seed(s: &mut Session) {
        for (id, name, loc, sal) in [
            (1, "alice", "4 rue Jussieu", 2340),
            (2, "bob", "Domaine de Voluceau", 2890),
            (3, "carol", "Drienerlolaan 5", 3500),
            (4, "dave", "Rue de la Paix", 1200),
        ] {
            s.execute(&format!(
                "INSERT INTO person VALUES ({id}, '{name}', '{loc}', {sal})"
            ))
            .unwrap();
        }
    }

    #[test]
    fn default_accuracy_sees_accurate_values() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        let r = s.execute("SELECT * FROM person").unwrap().rows();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][2], Value::Str("4 rue Jussieu".into()));
    }

    #[test]
    fn paper_query_at_country_and_range1000() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        s.execute(
            "DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION, RANGE1000 FOR P.SALARY",
        )
        .unwrap();
        let r = s
            .execute("SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND SALARY = '2000-3000'")
            .unwrap()
            .rows();
        // alice (France, 2340) and bob (France, 2890) qualify;
        // carol is in the Netherlands; dave's salary band is 1000-2000.
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert_eq!(row[2], Value::Str("France".into()));
            assert_eq!(row[3], Value::Range { lo: 2000, hi: 3000 });
        }
    }

    #[test]
    fn strict_semantics_excludes_coarser_tuples() {
        let (clock, mut s) = setup();
        seed(&mut s);
        // Age everything past 1 h: locations are now cities (d1).
        clock.advance(Duration::hours(2));
        s.db().pump_degradation().unwrap();
        // Default purpose = most accurate (d0) → nothing is computable.
        let r = s.execute("SELECT * FROM person").unwrap().rows();
        assert!(r.rows.is_empty(), "σ at d0 over degraded data is empty");
        // At city level every tuple is back.
        s.execute("DECLARE PURPOSE CITYQ SET ACCURACY LEVEL CITY FOR LOCATION, d2 FOR SALARY")
            .unwrap();
        let r = s.execute("SELECT * FROM person").unwrap().rows();
        assert_eq!(r.rows.len(), 4);
        assert!(r
            .rows
            .iter()
            .any(|row| row[2] == Value::Str("Paris".into())));
    }

    #[test]
    fn mixed_age_population_under_coarse_purpose() {
        let (clock, mut s) = setup();
        seed(&mut s);
        clock.advance(Duration::hours(2));
        s.db().pump_degradation().unwrap(); // old 4 at d1/city
        s.execute("INSERT INTO person VALUES (5, 'eve', 'Science Park 123', 2500)")
            .unwrap(); // fresh at d0
        s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL COUNTRY FOR LOCATION, d3 FOR SALARY")
            .unwrap();
        let r = s.execute("SELECT id, location FROM person").unwrap().rows();
        // All 5 compute country: 4 from city, 1 from address.
        assert_eq!(r.rows.len(), 5);
        let eve = r.rows.iter().find(|row| row[0] == Value::Int(5)).unwrap();
        assert_eq!(eve[1], Value::Str("Netherlands".into()));
    }

    #[test]
    fn projection_subset_and_order() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        let r = s
            .execute("SELECT name, id FROM person WHERE id = 2")
            .unwrap()
            .rows();
        assert_eq!(r.columns, vec!["name".to_string(), "id".to_string()]);
        assert_eq!(r.rows, vec![vec![Value::Str("bob".into()), Value::Int(2)]]);
    }

    #[test]
    fn stable_index_plan_chosen() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        let r = s
            .execute("SELECT * FROM person WHERE id = 3")
            .unwrap()
            .rows();
        assert!(r.plan.starts_with("IndexEq(id"), "plan was {}", r.plan);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn degradable_index_plan_at_level() {
        let (clock, mut s) = setup();
        seed(&mut s);
        clock.advance(Duration::hours(2));
        s.db().pump_degradation().unwrap();
        s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL CITY FOR LOCATION, d2 FOR SALARY")
            .unwrap();
        let r = s
            .execute("SELECT id FROM person WHERE location = 'Paris'")
            .unwrap()
            .rows();
        assert!(r.plan.starts_with("DegIndexEq"), "plan was {}", r.plan);
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn range_predicates_on_salary() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        let r = s
            .execute("SELECT id FROM person WHERE salary BETWEEN 2000 AND 3000")
            .unwrap()
            .rows();
        let ids: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
        assert_eq!(ids.len(), 2); // 2340, 2890
        let r2 = s
            .execute("SELECT id FROM person WHERE salary > 3000")
            .unwrap()
            .rows();
        assert_eq!(r2.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn indexed_upper_bounds_keep_the_boundary_row() {
        let (_clock, mut s) = setup();
        s.execute("CREATE TABLE m (f FLOAT INDEXED, g FLOAT, i INT INDEXED, j INT)")
            .unwrap();
        for (f, i) in [("1.5", "1"), ("3.5", "2"), ("7.25", "9223372036854775807")] {
            s.execute(&format!("INSERT INTO m VALUES ({f}, {f}, {i}, {i})"))
                .unwrap();
        }
        let mut count = |q: &str| {
            let r = s.execute(q).unwrap().rows();
            (r.rows.len(), r.plan)
        };
        for (indexed, scanned, want) in [
            ("f <= 3.5", "g <= 3.5", 2),
            ("f BETWEEN 1.5 AND 3.5", "g BETWEEN 1.5 AND 3.5", 2),
            ("f < 3.5", "g < 3.5", 1),
            ("f > 3.5", "g > 3.5", 1),
            ("i <= 9223372036854775807", "j <= 9223372036854775807", 3),
            ("i >= 9223372036854775807", "j >= 9223372036854775807", 1),
        ] {
            let (n, plan) = count(&format!("SELECT * FROM m WHERE {indexed}"));
            assert!(plan.starts_with("IndexRange"), "{indexed}: plan was {plan}");
            assert_eq!(n, want, "{indexed}");
            assert_eq!(count(&format!("SELECT * FROM m WHERE {scanned}")).0, want);
        }
    }

    #[test]
    fn reversed_bounds_return_no_rows() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        for q in [
            "SELECT * FROM person WHERE id BETWEEN 4 AND 1",
            "SELECT * FROM person WHERE location BETWEEN 'z' AND 'a'",
        ] {
            let r = s.execute(q).unwrap().rows();
            assert!(r.plan.contains("Range"), "{q}: plan was {}", r.plan);
            assert!(r.rows.is_empty(), "{q}");
        }
    }

    #[test]
    fn delete_with_view_semantics() {
        let (clock, mut s) = setup();
        seed(&mut s);
        clock.advance(Duration::hours(2));
        s.db().pump_degradation().unwrap();
        s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL COUNTRY FOR LOCATION, d3 FOR SALARY")
            .unwrap();
        let out = s
            .execute("DELETE FROM person WHERE location = 'Netherlands'")
            .unwrap();
        assert_eq!(out, QueryOutput::Deleted(1)); // carol
        let r = s.execute("SELECT id FROM person").unwrap().rows();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn delete_returns_a_failed_commit() {
        // Minimal segments rotate every few dozen commits; once the log
        // directory is gone, the next rotation cannot create its segment
        // file, so a delete's commit fails and the statement must say so.
        let clock = MockClock::new();
        let cfg = DbConfig {
            wal_shards: 1,
            wal_segment_bytes: 4096,
            ..DbConfig::default()
        };
        let db = Arc::new(Db::open(cfg, clock.shared()).unwrap());
        let mut s = Session::new(db.clone());
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..200 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        std::fs::remove_dir_all(db.wal().unwrap().path()).unwrap();
        let out = s.execute("DELETE FROM t");
        assert!(out.is_err(), "{out:?}");
    }

    #[test]
    fn relaxed_semantics_includes_coarser_tuples() {
        let (clock, mut s) = setup();
        seed(&mut s);
        clock.advance(Duration::hours(2));
        s.db().pump_degradation().unwrap(); // locations at city
                                            // Ask at d0 (default): strict sees nothing, relaxed sees the
                                            // stored (city) values.
        let strict = s.execute("SELECT * FROM person").unwrap().rows();
        assert!(strict.rows.is_empty());
        s.set_semantics(QuerySemantics::Relaxed);
        let relaxed = s.execute("SELECT * FROM person").unwrap().rows();
        assert_eq!(relaxed.rows.len(), 4);
        assert!(relaxed
            .rows
            .iter()
            .any(|row| row[2] == Value::Str("Paris".into())));
    }

    #[test]
    fn insert_through_sql_validates_policy() {
        let (_clock, mut s) = setup();
        // A city-level (degraded) location is not insertable.
        let err = s
            .execute("INSERT INTO person VALUES (9, 'mallory', 'Paris', 1000)")
            .unwrap_err();
        assert!(matches!(err, Error::Policy(_)));
    }

    #[test]
    fn unknown_column_and_table_errors() {
        let (_clock, mut s) = setup();
        assert!(s.execute("SELECT nope FROM person").is_err());
        assert!(s.execute("SELECT * FROM ghosts").is_err());
        assert!(s
            .execute("DECLARE PURPOSE P SET ACCURACY LEVEL BOGUS FOR LOCATION")
            .is_ok()); // declared lazily…
        assert!(s.execute("SELECT * FROM person").is_err()); // …fails at use
    }

    #[test]
    fn ne_and_like_filters() {
        let (_clock, mut s) = setup();
        seed(&mut s);
        let r = s
            .execute("SELECT id FROM person WHERE name <> 'alice' AND name LIKE '%O%'")
            .unwrap()
            .rows();
        // bob and carol contain 'o'.
        assert_eq!(r.rows.len(), 2);
    }
}
