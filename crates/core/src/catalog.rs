//! Catalog and physical tables.
//!
//! A [`Table`] couples a schema with its heap file and its secondary
//! indexes: a degradation-aware [`MultiLevelIndex`] per indexed degradable
//! column, one ordered map per indexed stable column. The [`Catalog`] maps
//! names to tables.
//!
//! Tables expose *physical* primitives (insert/read/rewrite/expunge with
//! index maintenance); the transactional choreography (locks, WAL, clock)
//! lives in [`crate::db`].

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use instant_common::{ColumnId, Error, LevelId, Result, TableId, Timestamp, TupleId, Value};
use instant_index::btree::BPlusTree;
use instant_index::multilevel::MultiLevelIndex;
use instant_index::SecondaryIndex;
use instant_storage::{BufferPool, HeapFile, SecurePolicy};

use crate::schema::TableSchema;
use crate::tuple::{decode_stored, encode_stored_raw, IndexMove, StoredTuple};

/// A physical table.
pub struct Table {
    id: TableId,
    schema: TableSchema,
    heap: HeapFile,
    deg_indexes: RwLock<HashMap<ColumnId, MultiLevelIndex>>,
    stable_indexes: RwLock<HashMap<ColumnId, BPlusTree>>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.schema.name)
            .finish()
    }
}

impl Table {
    pub fn new(
        id: TableId,
        schema: TableSchema,
        pool: Arc<BufferPool>,
        policy: SecurePolicy,
    ) -> Table {
        let mut deg = HashMap::new();
        let mut stable = HashMap::new();
        for (i, col) in schema.columns.iter().enumerate() {
            if !col.indexed {
                continue;
            }
            let cid = ColumnId(i as u16);
            match col.degrader() {
                Some(d) => {
                    deg.insert(cid, MultiLevelIndex::new(d.hierarchy().levels()));
                }
                None => {
                    stable.insert(cid, BPlusTree::new());
                }
            }
        }
        Table {
            id,
            schema,
            heap: HeapFile::create(pool, id, policy),
            deg_indexes: RwLock::ranked(320, deg),
            stable_indexes: RwLock::ranked(330, stable),
        }
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Physically insert a validated row (degradable values supplied at the
    /// accurate domain state, per Section II). The value actually *stored*
    /// for a degradable column is its generalization to the LCP's first
    /// stage level — normally `d0` (identity), but a coarser first stage
    /// (the static-anonymization baseline) generalizes at ingest, so the
    /// accurate form never reaches the page. Returns the tuple id.
    pub fn insert_physical(&self, now: Timestamp, row: &[Value]) -> Result<TupleId> {
        let stages: Vec<Option<u8>> = self.schema.degraders().map(|_| Some(0)).collect();
        // Materialize the stored row: degradable values at stage-0 level.
        let mut stored_row = row.to_vec();
        for (cid, d) in self.schema.degraders() {
            let level = d.lcp().stages()[0].level;
            stored_row[cid.0 as usize] = d.hierarchy().generalize(&row[cid.0 as usize], level)?;
        }
        let bytes = encode_stored_raw(now, &stages, &stored_row);
        let reserve = self.schema.reserve_size(row)?;
        let tid = self.heap.insert(&bytes, reserve.max(bytes.len()))?;
        // Secondary index maintenance.
        {
            let mut deg = self.deg_indexes.write();
            for (cid, d) in self.schema.degraders() {
                if let Some(idx) = deg.get_mut(&cid) {
                    let level = d.lcp().stages()[0].level;
                    idx.insert_at(level, &stored_row[cid.0 as usize], tid)?;
                }
            }
        }
        {
            let mut stable = self.stable_indexes.write();
            for (cid, idx) in stable.iter_mut() {
                idx.insert(&stored_row[cid.0 as usize], tid);
            }
        }
        Ok(tid)
    }

    /// Read and decode a stored tuple.
    pub fn get(&self, tid: TupleId) -> Result<StoredTuple> {
        decode_stored(&self.heap.read(tid)?)
    }

    pub fn exists(&self, tid: TupleId) -> bool {
        self.heap.exists(tid)
    }

    /// Rewrite a tuple in place (a degradation step), maintaining its
    /// degradable indexes. `index_moves` describes their migrations (see
    /// [`StoredTuple::coarsen`]).
    pub fn rewrite_physical(
        &self,
        tid: TupleId,
        new_tuple: &StoredTuple,
        index_moves: &[IndexMove],
    ) -> Result<()> {
        let bytes = encode_stored_raw(new_tuple.insert_ts, &new_tuple.stages, &new_tuple.row);
        self.heap.update(tid, &bytes)?;
        let mut deg = self.deg_indexes.write();
        for (cid, old_level, old_key, new) in index_moves {
            if let Some(idx) = deg.get_mut(cid) {
                let (nl, nk) = match new {
                    Some((l, k)) => (Some(*l), Some(k)),
                    None => (None, None),
                };
                idx.migrate(*old_level, old_key, nl, nk, tid)?;
            }
        }
        Ok(())
    }

    /// Physically remove a tuple and every index entry referencing it.
    pub fn expunge_physical(&self, tid: TupleId) -> Result<StoredTuple> {
        let tuple = self.get(tid)?;
        // Drop index entries for current values.
        {
            let mut deg = self.deg_indexes.write();
            for (slot, (cid, d)) in self.schema.degraders().enumerate() {
                if let Some(idx) = deg.get_mut(&cid) {
                    if let Some(stage) = tuple.stages[slot] {
                        let level = d.lcp().stages()[stage as usize].level;
                        idx.remove_at(level, &tuple.row[cid.0 as usize], tid)?;
                    }
                }
            }
        }
        {
            let mut stable = self.stable_indexes.write();
            for (cid, idx) in stable.iter_mut() {
                idx.remove(&tuple.row[cid.0 as usize], tid);
            }
        }
        self.heap.delete(tid)?;
        Ok(tuple)
    }

    /// Insert pre-encoded stored-tuple bytes (WAL replay path): decodes to
    /// validate and to register index entries at the recorded stage levels.
    pub fn insert_raw_stored(&self, bytes: &[u8]) -> Result<TupleId> {
        let tuple = decode_stored(bytes)?;
        let reserve = self.schema.reserve_size(&tuple.row)?.max(bytes.len());
        let tid = self.heap.insert(bytes, reserve)?;
        self.index_tuple(tid, &tuple)?;
        Ok(tid)
    }

    /// Replace the stored tuple `old` wholesale, recomputing index entries
    /// from the old and new images (WAL replay path — idempotent).
    pub fn replace_stored(&self, tid: TupleId, old: &StoredTuple, new: &StoredTuple) -> Result<()> {
        self.unindex_tuple(tid, old)?;
        let bytes = encode_stored_raw(new.insert_ts, &new.stages, &new.row);
        self.heap.update(tid, &bytes)?;
        self.index_tuple(tid, new)?;
        Ok(())
    }

    /// Register every index entry for `tuple`.
    fn index_tuple(&self, tid: TupleId, tuple: &StoredTuple) -> Result<()> {
        let mut deg = self.deg_indexes.write();
        for (slot, (cid, d)) in self.schema.degraders().enumerate() {
            if let (Some(idx), Some(stage)) =
                (deg.get_mut(&cid), tuple.stages.get(slot).copied().flatten())
            {
                let level = d.lcp().stages()[stage as usize].level;
                idx.insert_at(level, &tuple.row[cid.0 as usize], tid)?;
            }
        }
        drop(deg);
        let mut stable = self.stable_indexes.write();
        for (cid, idx) in stable.iter_mut() {
            idx.insert(&tuple.row[cid.0 as usize], tid);
        }
        Ok(())
    }

    /// Remove every index entry for `tuple`.
    fn unindex_tuple(&self, tid: TupleId, tuple: &StoredTuple) -> Result<()> {
        let mut deg = self.deg_indexes.write();
        for (slot, (cid, d)) in self.schema.degraders().enumerate() {
            if let (Some(idx), Some(stage)) =
                (deg.get_mut(&cid), tuple.stages.get(slot).copied().flatten())
            {
                let level = d.lcp().stages()[stage as usize].level;
                idx.remove_at(level, &tuple.row[cid.0 as usize], tid)?;
            }
        }
        drop(deg);
        let mut stable = self.stable_indexes.write();
        for (cid, idx) in stable.iter_mut() {
            idx.remove(&tuple.row[cid.0 as usize], tid);
        }
        Ok(())
    }

    /// Full scan of live tuples.
    pub fn scan(&self) -> Result<Vec<(TupleId, StoredTuple)>> {
        let mut out = Vec::new();
        for (tid, bytes) in self.heap.scan()? {
            out.push((tid, decode_stored(&bytes)?));
        }
        Ok(out)
    }

    pub fn live_count(&self) -> Result<usize> {
        self.heap.live_count()
    }

    /// Equality probe on a degradable column's index at a specific level.
    pub fn index_probe_deg(
        &self,
        cid: ColumnId,
        level: LevelId,
        key: &Value,
    ) -> Option<Vec<TupleId>> {
        self.deg_indexes
            .read()
            .get(&cid)
            .map(|idx| idx.get_at(level, key).unwrap_or_default())
    }

    /// Range probe on a degradable column's index at a level.
    pub fn index_range_deg(
        &self,
        cid: ColumnId,
        level: LevelId,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<TupleId>> {
        self.deg_indexes
            .read()
            .get(&cid)
            .and_then(|idx| idx.range_at(level, lo, hi).ok())
    }

    /// All tuples currently indexed at `level` for `cid` (level occupancy).
    pub fn index_level_members(&self, cid: ColumnId, level: LevelId) -> Option<Vec<TupleId>> {
        self.index_range_deg(cid, level, Bound::Unbounded, Bound::Unbounded)
    }

    /// Equality probe on a stable column's index.
    pub fn index_probe_stable(&self, cid: ColumnId, key: &Value) -> Option<Vec<TupleId>> {
        self.stable_indexes.read().get(&cid).map(|i| i.get(key))
    }

    /// Range probe on a stable column's index.
    pub fn index_range_stable(
        &self,
        cid: ColumnId,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<TupleId>> {
        self.stable_indexes
            .read()
            .get(&cid)
            .map(|i| i.range(lo, hi))
    }

    /// Per-level index occupancy for a degradable column.
    pub fn index_occupancy(&self, cid: ColumnId) -> Option<Vec<usize>> {
        self.deg_indexes.read().get(&cid).map(|i| i.occupancy())
    }

    /// Vacuum the heap (compaction + residue scrub). Returns bytes reclaimed.
    pub fn vacuum(&self) -> Result<usize> {
        self.heap.vacuum()
    }

    /// Rebuild all indexes from the heap (recovery path).
    pub fn rebuild_indexes(&self) -> Result<()> {
        let mut deg = self.deg_indexes.write();
        let mut stable = self.stable_indexes.write();
        for idx in deg.values_mut() {
            *idx = MultiLevelIndex::new(idx.num_levels());
        }
        for idx in stable.values_mut() {
            *idx = BPlusTree::new();
        }
        // Scans under both index write guards: no stale entry is visible mid-rebuild.
        for (tid, tuple) in self.scan()? {
            for (slot, (cid, d)) in self.schema.degraders().enumerate() {
                if let (Some(idx), Some(stage)) = (deg.get_mut(&cid), tuple.stages[slot]) {
                    let level = d.lcp().stages()[stage as usize].level;
                    idx.insert_at(level, &tuple.row[cid.0 as usize], tid)?;
                }
            }
            for (cid, idx) in stable.iter_mut() {
                idx.insert(&tuple.row[cid.0 as usize], tid);
            }
        }
        Ok(())
    }
}

/// Name → table registry.
#[derive(Debug)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    by_id: RwLock<HashMap<TableId, Arc<Table>>>,
    next_id: std::sync::atomic::AtomicU32,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::new()
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog {
            tables: RwLock::ranked(300, HashMap::new()),
            by_id: RwLock::ranked(310, HashMap::new()),
            next_id: std::sync::atomic::AtomicU32::new(1),
        }
    }

    pub fn create_table(
        &self,
        schema: TableSchema,
        pool: Arc<BufferPool>,
        policy: SecurePolicy,
    ) -> Result<Arc<Table>> {
        let key = schema.name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(Error::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let id = TableId(
            self.next_id
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst),
        );
        let table = Arc::new(Table::new(id, schema, pool, policy));
        tables.insert(key, table.clone());
        self.by_id.write().insert(id, table.clone());
        Ok(table)
    }

    /// Register a table under the id the last checkpoint recorded for it
    /// (recovery). Its heap starts with no pages: recovery hands back the
    /// ones whose headers name `id` ([`HeapFile::adopt`]).
    pub fn attach_table(
        &self,
        id: TableId,
        schema: TableSchema,
        pool: Arc<BufferPool>,
        policy: SecurePolicy,
    ) -> Result<Arc<Table>> {
        let key = schema.name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(Error::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let table = Arc::new(Table::new(id, schema, pool, policy));
        tables.insert(key, table.clone());
        self.by_id.write().insert(id, table.clone());
        // Keep the id counter ahead of attached ids.
        let _ = self
            .next_id
            .fetch_max(id.0 + 1, std::sync::atomic::Ordering::SeqCst);
        Ok(table)
    }

    /// Remove a table from the catalog by name — the undo for error
    /// paths where a just-executed CREATE could not be externalized
    /// (e.g. a server's DDL-journal fsync failed) and the table must not
    /// stay reachable. If the table holds the most recently allocated
    /// id, the id is handed back so the sequence stays dense (recovery
    /// re-derives ids from creation order); the caller must ensure no
    /// concurrent CREATE can interleave (the server holds its DDL lock
    /// across execute + journal + detach). Heap pages the table already
    /// allocated are not reclaimed until restart.
    pub fn detach_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let table = tables
            .remove(&key)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))?;
        self.by_id.write().remove(&table.id());
        let _ = self.next_id.compare_exchange(
            table.id().0 + 1,
            table.id().0,
            std::sync::atomic::Ordering::SeqCst,
            std::sync::atomic::Ordering::SeqCst,
        );
        Ok(())
    }

    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    pub fn get_by_id(&self, id: TableId) -> Result<Arc<Table>> {
        self.by_id
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table id {id}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn all_tables(&self) -> Vec<Arc<Table>> {
        self.tables.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use instant_common::DataType;
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::hierarchy::Hierarchy;
    use instant_lcp::AttributeLcp;
    use instant_storage::DiskManager;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(DiskManager::temp("catalog").unwrap()),
            64,
        ))
    }

    fn schema() -> TableSchema {
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        TableSchema::new(
            "person",
            vec![
                Column::stable("id", DataType::Int).with_index(),
                Column::degradable("location", DataType::Str, gt, AttributeLcp::fig2_location())
                    .unwrap()
                    .with_index(),
            ],
        )
        .unwrap()
    }

    fn row(id: i64, addr: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::Str(addr.into())]
    }

    #[test]
    fn create_and_lookup() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        assert_eq!(cat.get("PERSON").unwrap().id(), t.id());
        assert_eq!(cat.get_by_id(t.id()).unwrap().schema().name, "person");
        assert!(cat.get("missing").is_err());
        assert!(cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .is_err());
        assert_eq!(cat.table_names(), vec!["person".to_string()]);
    }

    #[test]
    fn insert_read_scan() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        let tid = t
            .insert_physical(Timestamp::micros(5), &row(1, "4 rue Jussieu"))
            .unwrap();
        let back = t.get(tid).unwrap();
        assert_eq!(back.insert_ts, Timestamp::micros(5));
        assert_eq!(back.stages, vec![Some(0)]);
        assert_eq!(back.row, row(1, "4 rue Jussieu"));
        assert_eq!(t.scan().unwrap().len(), 1);
        assert_eq!(t.live_count().unwrap(), 1);
    }

    #[test]
    fn indexes_populated_on_insert() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        let tid = t
            .insert_physical(Timestamp::ZERO, &row(7, "Drienerlolaan 5"))
            .unwrap();
        // Stable index on id.
        assert_eq!(
            t.index_probe_stable(ColumnId(0), &Value::Int(7)).unwrap(),
            vec![tid]
        );
        // Degradable index at level 0.
        assert_eq!(
            t.index_probe_deg(
                ColumnId(1),
                LevelId(0),
                &Value::Str("Drienerlolaan 5".into())
            )
            .unwrap(),
            vec![tid]
        );
        assert_eq!(t.index_occupancy(ColumnId(1)).unwrap(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn rewrite_migrates_indexes() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        let tid = t
            .insert_physical(Timestamp::ZERO, &row(1, "4 rue Jussieu"))
            .unwrap();
        let mut tuple = t.get(tid).unwrap();
        tuple.stages[0] = Some(1);
        tuple.row[1] = Value::Str("Paris".into());
        t.rewrite_physical(
            tid,
            &tuple,
            &[(
                ColumnId(1),
                LevelId(0),
                Value::Str("4 rue Jussieu".into()),
                Some((LevelId(1), Value::Str("Paris".into()))),
            )],
        )
        .unwrap();
        assert!(t
            .index_probe_deg(ColumnId(1), LevelId(0), &Value::Str("4 rue Jussieu".into()))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_probe_deg(ColumnId(1), LevelId(1), &Value::Str("Paris".into()))
                .unwrap(),
            vec![tid]
        );
        let back = t.get(tid).unwrap();
        assert_eq!(back.row[1], Value::Str("Paris".into()));
        assert_eq!(back.stages[0], Some(1));
    }

    #[test]
    fn expunge_clears_heap_and_indexes() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        let tid = t
            .insert_physical(Timestamp::ZERO, &row(1, "Rue de la Paix"))
            .unwrap();
        t.expunge_physical(tid).unwrap();
        assert!(!t.exists(tid));
        assert!(t
            .index_probe_stable(ColumnId(0), &Value::Int(1))
            .unwrap()
            .is_empty());
        assert!(t
            .index_probe_deg(
                ColumnId(1),
                LevelId(0),
                &Value::Str("Rue de la Paix".into())
            )
            .unwrap()
            .is_empty());
        assert_eq!(t.live_count().unwrap(), 0);
    }

    #[test]
    fn rebuild_indexes_matches_heap() {
        let cat = Catalog::new();
        let t = cat
            .create_table(schema(), pool(), SecurePolicy::Overwrite)
            .unwrap();
        let mut tids = Vec::new();
        for i in 0..20 {
            tids.push(
                t.insert_physical(Timestamp::ZERO, &row(i, "4 rue Jussieu"))
                    .unwrap(),
            );
        }
        t.expunge_physical(tids[3]).unwrap();
        t.rebuild_indexes().unwrap();
        assert_eq!(
            t.index_probe_deg(ColumnId(1), LevelId(0), &Value::Str("4 rue Jussieu".into()))
                .unwrap()
                .len(),
            19
        );
        assert!(t
            .index_probe_stable(ColumnId(0), &Value::Int(3))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_probe_stable(ColumnId(0), &Value::Int(5))
                .unwrap()
                .len(),
            1
        );
    }
}
