//! Sessions: declared purposes, hierarchy registry, query semantics.
//!
//! "The accuracy level k is chosen such that it reflects the declared
//! purpose for querying the data" (Section II). A [`Session`] owns the
//! purposes declared with `DECLARE PURPOSE … SET ACCURACY LEVEL …`; the
//! most recent declaration is active and supplies the accuracy vector for
//! subsequent queries. Without a declaration, queries run at each
//! attribute's most accurate state — exactly the paper's default reading
//! where only still-accurate subsets are visible.

use std::collections::HashMap;
use std::sync::Arc;

use instant_common::{Error, Result};
use instant_lcp::hierarchy::Hierarchy;

use crate::db::Db;
use crate::query::ast::Statement;
use crate::query::exec::{self, QueryOutput};
use crate::query::parser;

/// Strict vs relaxed σ/π semantics (Section IV future work — see
/// [`crate::ext`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuerySemantics {
    /// Paper default: only tuples whose state can *compute* the requested
    /// level participate.
    #[default]
    Strict,
    /// Section IV: predicates may also be evaluated against tuples at
    /// coarser accuracy; projections return the most accurate computable
    /// value.
    Relaxed,
}

/// A declared purpose: column (lower-cased) → level token.
#[derive(Debug, Clone, Default)]
pub struct Purpose {
    pub levels: HashMap<String, String>,
}

/// A shared name → hierarchy map backing `DEGRADE USING <name>`.
///
/// Cloning shares the underlying registry (it is an `Arc` inside), so a
/// server can hand every connection's [`Session`] the same registry: a
/// hierarchy registered once is visible to all of them, and DDL replayed
/// at recovery resolves against the same names — see
/// [`crate::query::exec::schema_for_create`].
#[derive(Clone)]
pub struct HierarchyRegistry {
    inner: Arc<parking_lot::RwLock<HashMap<String, Arc<dyn Hierarchy>>>>,
}

impl Default for HierarchyRegistry {
    fn default() -> HierarchyRegistry {
        HierarchyRegistry {
            inner: Arc::new(parking_lot::RwLock::ranked(370, HashMap::new())),
        }
    }
}

impl std::fmt::Debug for HierarchyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<String> = self.inner.read().keys().cloned().collect();
        names.sort();
        f.debug_tuple("HierarchyRegistry").field(&names).finish()
    }
}

impl HierarchyRegistry {
    pub fn new() -> HierarchyRegistry {
        HierarchyRegistry::default()
    }

    /// Register `h` under `name` (case-insensitive; last one wins).
    pub fn register(&self, name: &str, h: Arc<dyn Hierarchy>) {
        self.inner.write().insert(name.to_ascii_lowercase(), h);
    }

    /// Look up a hierarchy by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Hierarchy>> {
        self.inner
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("hierarchy '{name}' not registered")))
    }
}

/// An interactive session against a [`Db`].
pub struct Session {
    db: Arc<Db>,
    hierarchies: HierarchyRegistry,
    purposes: HashMap<String, Purpose>,
    active_purpose: Option<String>,
    semantics: QuerySemantics,
}

impl Session {
    pub fn new(db: Arc<Db>) -> Session {
        Session::with_registry(db, HierarchyRegistry::new())
    }

    /// A session sharing `registry` with other sessions (the served-engine
    /// shape: one registry per server, one session per connection).
    pub fn with_registry(db: Arc<Db>, registry: HierarchyRegistry) -> Session {
        Session {
            db,
            hierarchies: registry,
            purposes: HashMap::new(),
            active_purpose: None,
            semantics: QuerySemantics::Strict,
        }
    }

    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Register a domain hierarchy so `CREATE TABLE … DEGRADE USING <name>`
    /// can reference it (in this session's registry — shared sessions see
    /// it too).
    pub fn register_hierarchy(&mut self, name: &str, h: Arc<dyn Hierarchy>) {
        self.hierarchies.register(name, h);
    }

    pub fn hierarchy(&self, name: &str) -> Result<Arc<dyn Hierarchy>> {
        self.hierarchies.get(name)
    }

    /// The session's hierarchy registry (shared handle).
    pub fn hierarchies(&self) -> &HierarchyRegistry {
        &self.hierarchies
    }

    /// Switch strict/relaxed semantics (paper Section IV).
    pub fn set_semantics(&mut self, s: QuerySemantics) {
        self.semantics = s;
    }

    pub fn semantics(&self) -> QuerySemantics {
        self.semantics
    }

    /// Declare (and activate) a purpose programmatically.
    pub fn declare_purpose(&mut self, name: &str, items: &[(String, String)]) {
        let mut p = Purpose::default();
        for (col, level) in items {
            p.levels.insert(col.to_ascii_lowercase(), level.clone());
        }
        self.purposes.insert(name.to_ascii_lowercase(), p);
        self.active_purpose = Some(name.to_ascii_lowercase());
    }

    /// Activate a previously declared purpose.
    pub fn set_purpose(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if !self.purposes.contains_key(&key) {
            return Err(Error::NotFound(format!("purpose '{name}' not declared")));
        }
        self.active_purpose = Some(key);
        Ok(())
    }

    /// Clear the active purpose: queries run at the most accurate state.
    pub fn clear_purpose(&mut self) {
        self.active_purpose = None;
    }

    /// The active purpose, if any.
    pub fn active_purpose(&self) -> Option<&Purpose> {
        self.active_purpose
            .as_ref()
            .and_then(|n| self.purposes.get(n))
    }

    /// Parse and execute one SQL statement.
    ///
    /// The whole call feeds `query.total`; parse and execution feed their
    /// stage histograms when spans are on. Every attempt (including
    /// failures — they cost latency too) is counted against the active
    /// purpose, and over-threshold statements land in the slow-query log
    /// by *kind*, never by SQL text (literals may be sensitive).
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput> {
        let obs = self.db.obs().clone();
        let started = std::time::Instant::now();
        let parsed = {
            let _parse = obs.span(instant_obs::Stage::QueryParse);
            parser::parse(sql)
        };
        let stmt = match parsed {
            Ok(stmt) => stmt,
            Err(e) => {
                obs.record_query(
                    "parse_error",
                    self.active_purpose.as_deref(),
                    0,
                    started.elapsed(),
                );
                return Err(e);
            }
        };
        let kind = stmt.kind();
        // Attribute to the purpose in effect when the query *started* — a
        // DECLARE PURPOSE counts against its predecessor, not itself.
        let purpose = self.active_purpose.clone();
        let result = {
            let _exec = obs.span(instant_obs::Stage::QueryExec);
            self.run(stmt)
        };
        let rows = match &result {
            Ok(QueryOutput::Rows(r)) => r.rows.len() as u64,
            Ok(QueryOutput::Inserted(n)) | Ok(QueryOutput::Deleted(n)) => *n as u64,
            _ => 0,
        };
        obs.record_query(kind, purpose.as_deref(), rows, started.elapsed());
        result
    }

    /// Execute a parsed statement.
    pub fn run(&mut self, stmt: Statement) -> Result<QueryOutput> {
        match stmt {
            Statement::DeclarePurpose { name, items } => {
                let pairs: Vec<(String, String)> =
                    items.into_iter().map(|i| (i.column, i.level)).collect();
                self.declare_purpose(&name, &pairs);
                Ok(QueryOutput::PurposeDeclared(name))
            }
            other => exec::run(self, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use instant_common::MockClock;
    use instant_lcp::gtree::location_tree_fig1;

    fn session() -> Session {
        let clock = MockClock::new();
        let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
        Session::new(db)
    }

    #[test]
    fn purpose_declaration_and_activation() {
        let mut s = session();
        s.declare_purpose("stat", &[("LOCATION".to_string(), "COUNTRY".to_string())]);
        assert!(s.active_purpose().is_some());
        assert_eq!(
            s.active_purpose().unwrap().levels.get("location").unwrap(),
            "COUNTRY"
        );
        s.clear_purpose();
        assert!(s.active_purpose().is_none());
        s.set_purpose("STAT").unwrap();
        assert!(s.active_purpose().is_some());
        assert!(s.set_purpose("nope").is_err());
    }

    #[test]
    fn hierarchy_registry() {
        let mut s = session();
        s.register_hierarchy("location_gt", Arc::new(location_tree_fig1()));
        assert!(s.hierarchy("LOCATION_GT").is_ok());
        assert!(s.hierarchy("other").is_err());
    }

    #[test]
    fn declare_purpose_via_sql() {
        let mut s = session();
        let out = s
            .execute("DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION")
            .unwrap();
        assert!(matches!(out, QueryOutput::PurposeDeclared(n) if n == "STAT"));
        assert_eq!(
            s.active_purpose().unwrap().levels.get("location").unwrap(),
            "COUNTRY"
        );
    }

    #[test]
    fn show_stats_surfaces_purpose_counts_and_engine_counters() {
        let mut s = session();
        s.execute("DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION")
            .unwrap();
        // Counted against the active purpose even though it errors.
        assert!(s.execute("SELECT * FROM missing").is_err());
        let out = s.execute("SHOW STATS").unwrap();
        let QueryOutput::Stats(snap) = out else {
            panic!("expected stats output");
        };
        let stat = snap
            .purposes
            .iter()
            .find(|(p, _)| p == "stat")
            .map(|(_, c)| *c)
            .expect("purpose 'stat' counted");
        assert!(stat.queries >= 1);
        // The declare ran before any purpose was active.
        assert!(snap.purposes.iter().any(|(p, _)| p == "(none)"));
        assert!(snap.hist("query.total").map(|h| h.count).unwrap_or(0) >= 2);
        assert_eq!(snap.counter("db.inserts"), Some(0));
        assert!(snap.gauge("degradation.overdue_lag_us").is_some());
    }

    #[test]
    fn slow_query_log_records_kind_not_sql_text() {
        let mut s = session();
        s.db()
            .obs()
            .set_slow_query_threshold(Some(std::time::Duration::from_nanos(1)));
        // Plenty of attempts so at least one crosses the 1 µs floor.
        for _ in 0..50 {
            let _ = s.execute("SELECT * FROM missing WHERE secret = 'sensitive-literal'");
        }
        let out = s.execute("SHOW STATS").unwrap();
        let QueryOutput::Stats(snap) = out else {
            panic!("expected stats output");
        };
        let slow = snap
            .slow_queries
            .iter()
            .find(|q| q.kind == "select")
            .expect("over-threshold select in the slow log");
        assert!(slow.elapsed_micros >= 1);
        // The log stores statement kinds, never SQL text or literals.
        assert!(snap
            .slow_queries
            .iter()
            .all(|q| !q.kind.contains("sensitive")));
    }

    #[test]
    fn semantics_toggle() {
        let mut s = session();
        assert_eq!(s.semantics(), QuerySemantics::Strict);
        s.set_semantics(QuerySemantics::Relaxed);
        assert_eq!(s.semantics(), QuerySemantics::Relaxed);
    }
}
