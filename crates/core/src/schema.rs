//! Table schemas: stable vs degradable columns.
//!
//! "A tuple is a composition of stable attributes which do not participate
//! in the degradation process and degradable attributes" (Section II).
//! A degradable column binds a [`Degrader`] (hierarchy + LCP). The schema
//! also computes the **life-cycle-maximum encoded size** of a row, which
//! the heap uses to reserve slot capacity so degradation rewrites never
//! relocate tuples.

use std::sync::Arc;

use instant_common::codec::encode_value;
use instant_common::{ColumnId, DataType, Error, LevelId, Result, Value};
use instant_lcp::hierarchy::Hierarchy;
use instant_lcp::{AttributeLcp, Degrader};

/// Whether (and how) a column degrades.
#[derive(Debug, Clone)]
pub enum ColumnKind {
    /// Never degraded; updatable as in a classical DBMS.
    Stable,
    /// Subject to a Life Cycle Policy; immutable after insert; rewritten by
    /// the degradation engine.
    Degradable(Degrader),
}

/// One column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
    pub kind: ColumnKind,
    /// Build a secondary index for this column?
    pub indexed: bool,
}

impl Column {
    pub fn stable(name: &str, ty: DataType) -> Column {
        Column {
            name: name.to_string(),
            ty,
            kind: ColumnKind::Stable,
            indexed: false,
        }
    }

    pub fn degradable(
        name: &str,
        ty: DataType,
        hierarchy: Arc<dyn Hierarchy>,
        lcp: AttributeLcp,
    ) -> Result<Column> {
        Ok(Column {
            name: name.to_string(),
            ty,
            kind: ColumnKind::Degradable(Degrader::new(hierarchy, lcp)?),
            indexed: false,
        })
    }

    pub fn with_index(mut self) -> Column {
        self.indexed = true;
        self
    }

    pub fn is_degradable(&self) -> bool {
        matches!(self.kind, ColumnKind::Degradable(_))
    }

    pub fn degrader(&self) -> Option<&Degrader> {
        match &self.kind {
            ColumnKind::Degradable(d) => Some(d),
            ColumnKind::Stable => None,
        }
    }

    /// Largest encoded size this column's value can take over the rest of
    /// the tuple's life cycle (for slot capacity reservation). `v` is the
    /// accurate value at insert; redo may also store a tuple from an
    /// already degraded image, whose earlier stages need no room.
    fn max_encoded_size(&self, v: &Value) -> Result<usize> {
        let size = |v: &Value| {
            let mut buf = Vec::new();
            encode_value(v, &mut buf);
            buf.len()
        };
        let mut max = size(v);
        if let Some(d) = self.degrader().filter(|_| !v.is_removed()) {
            for stage in d.lcp().stages() {
                match d.hierarchy().generalize(v, stage.level) {
                    Ok(form) => max = max.max(size(&form)),
                    Err(Error::Accuracy(_)) => {} // `v` is already past this stage
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(max)
    }
}

/// A table schema.
#[derive(Debug, Clone)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl TableSchema {
    pub fn new(name: &str, columns: Vec<Column>) -> Result<TableSchema> {
        if columns.is_empty() {
            return Err(Error::Schema(format!("table {name} has no columns")));
        }
        for i in 0..columns.len() {
            for j in i + 1..columns.len() {
                if columns[i].name.eq_ignore_ascii_case(&columns[j].name) {
                    return Err(Error::Schema(format!(
                        "duplicate column '{}' in table {name}",
                        columns[i].name
                    )));
                }
            }
        }
        Ok(TableSchema {
            name: name.to_string(),
            columns,
        })
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ordinal of `name` (case-insensitive, as in the paper's upper-cased SQL).
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .map(|i| ColumnId(i as u16))
            .ok_or_else(|| Error::NotFound(format!("column '{name}' in table {}", self.name)))
    }

    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.0 as usize]
    }

    /// Ordinals of degradable columns, in schema order.
    pub fn degradable_columns(&self) -> Vec<ColumnId> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_degradable())
            .map(|(i, _)| ColumnId(i as u16))
            .collect()
    }

    /// Degradable columns with their degraders, in schema order: the
    /// `i`-th pair is the column behind a tuple's stage slot `i`.
    pub fn degraders(&self) -> impl Iterator<Item = (ColumnId, &Degrader)> + '_ {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((ColumnId(i as u16), c.degrader()?)))
    }

    /// Validate an insert row: arity, types, and the Section II rule that
    /// degradable values arrive at the most accurate state (`d0` of their
    /// hierarchy) — "insertions of new elements are granted only in the most
    /// accurate state".
    pub fn validate_insert(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(Error::Schema(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.arity(),
                row.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !v.conforms_to(col.ty) {
                return Err(Error::Schema(format!(
                    "column {} is {}, got {v}",
                    col.name, col.ty
                )));
            }
            if let Some(d) = col.degrader() {
                if v.is_null() || v.is_removed() {
                    return Err(Error::Policy(format!(
                        "degradable column {} requires a concrete value",
                        col.name
                    )));
                }
                match d.hierarchy().level_of(v) {
                    Some(LevelId(0)) => {}
                    Some(l) => {
                        return Err(Error::Policy(format!(
                            "insertions are granted only in the most accurate state: \
                             column {} received a d{} value ({v})",
                            col.name, l.0
                        )))
                    }
                    None => {
                        return Err(Error::NotFound(format!(
                            "value {v} not in the domain of column {}",
                            col.name
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Slot capacity to reserve for `row` (its largest life-cycle encoding
    /// plus tuple metadata — see `tuple::encode_stored`).
    pub fn reserve_size(&self, row: &[Value]) -> Result<usize> {
        let mut total = crate::tuple::META_BASE + self.degradable_columns().len();
        total += 2; // row count prefix
        for (col, v) in self.columns.iter().zip(row) {
            total += col.max_encoded_size(v)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::Duration;
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::RangeHierarchy;

    fn person() -> TableSchema {
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        let sal: Arc<dyn Hierarchy> = Arc::new(RangeHierarchy::salary());
        TableSchema::new(
            "person",
            vec![
                Column::stable("id", DataType::Int).with_index(),
                Column::stable("name", DataType::Str),
                Column::degradable("location", DataType::Str, gt, AttributeLcp::fig2_location())
                    .unwrap()
                    .with_index(),
                Column::degradable(
                    "salary",
                    DataType::Int,
                    sal,
                    AttributeLcp::from_pairs(&[
                        (0, Duration::minutes(10)),
                        (2, Duration::days(30)),
                    ])
                    .unwrap(),
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    fn valid_row() -> Vec<Value> {
        vec![
            Value::Int(1),
            Value::Str("alice".into()),
            Value::Str("4 rue Jussieu".into()),
            Value::Int(2340),
        ]
    }

    #[test]
    fn column_lookups() {
        let s = person();
        assert_eq!(s.column_id("LOCATION").unwrap(), ColumnId(2));
        assert!(s.column_id("nope").is_err());
        assert_eq!(s.degradable_columns(), vec![ColumnId(2), ColumnId(3)]);
        assert!(s.column(ColumnId(2)).is_degradable());
        assert!(!s.column(ColumnId(0)).is_degradable());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(
            "t",
            vec![
                Column::stable("x", DataType::Int),
                Column::stable("X", DataType::Str),
            ],
        );
        assert!(matches!(r, Err(Error::Schema(_))));
        assert!(TableSchema::new("t", vec![]).is_err());
    }

    #[test]
    fn validate_insert_accepts_accurate_row() {
        person().validate_insert(&valid_row()).unwrap();
    }

    #[test]
    fn validate_insert_rejects_wrong_arity_and_types() {
        let s = person();
        assert!(s.validate_insert(&valid_row()[..3]).is_err());
        let mut bad = valid_row();
        bad[0] = Value::Str("one".into());
        assert!(matches!(s.validate_insert(&bad), Err(Error::Schema(_))));
    }

    #[test]
    fn validate_insert_rejects_degraded_values() {
        let s = person();
        let mut row = valid_row();
        row[2] = Value::Str("Paris".into()); // a d1 (city) value
        assert!(matches!(s.validate_insert(&row), Err(Error::Policy(_))));
        let mut row2 = valid_row();
        row2[3] = Value::Range { lo: 2000, hi: 3000 }; // degraded salary
        assert!(matches!(s.validate_insert(&row2), Err(Error::Policy(_))));
    }

    #[test]
    fn validate_insert_rejects_unknown_domain_value() {
        let s = person();
        let mut row = valid_row();
        row[2] = Value::Str("Atlantis Boulevard".into());
        assert!(matches!(s.validate_insert(&row), Err(Error::NotFound(_))));
    }

    #[test]
    fn validate_insert_rejects_null_degradable() {
        let s = person();
        let mut row = valid_row();
        row[3] = Value::Null;
        assert!(matches!(s.validate_insert(&row), Err(Error::Policy(_))));
    }

    #[test]
    fn reserve_size_covers_every_life_cycle_form() {
        let s = person();
        let row = valid_row();
        let reserve = s.reserve_size(&row).unwrap();
        // The longest location form is "4 rue Jussieu" (13) vs
        // "Ile-de-France" (13); reserve must cover row + meta comfortably.
        let now_len = crate::tuple::encode_stored(
            instant_common::Timestamp::ZERO,
            &[Some(LevelId(0)), Some(LevelId(0))],
            &row,
        )
        .len();
        assert!(reserve >= now_len, "reserve {reserve} < current {now_len}");
        // Degrade location to "Ile-de-France" and salary to a range: still fits.
        let mut degraded = row.clone();
        degraded[2] = Value::Str("Ile-de-France".into());
        degraded[3] = Value::Range { lo: 2000, hi: 3000 };
        let deg_len = crate::tuple::encode_stored(
            instant_common::Timestamp::ZERO,
            &[Some(LevelId(2)), Some(LevelId(2))],
            &degraded,
        )
        .len();
        assert!(reserve >= deg_len, "reserve {reserve} < degraded {deg_len}");
    }
}
