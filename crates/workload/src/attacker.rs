//! Attacker models.
//!
//! Two adversaries from the paper's threat analysis:
//!
//! * [`SnapshotAttacker`] — compromises the *live* server at chosen instants
//!   and reads everything the DBMS itself can read (claim 1: exposure per
//!   snapshot; claim 2: "an attack … must be repeated with a frequency
//!   smaller than the duration of the shortest degradation step" to observe
//!   accurate values).
//! * [`forensic_needles`] — equips a
//!   [`instant_storage::secure::ForensicScanner`] with the accurate values
//!   an offline attacker (stolen disk / log) would hunt for (Section III's
//!   unintended-retention channels, after Stahlberg et al.).

use std::collections::HashSet;

use instant_common::{Result, Value};
use instant_core::db::Db;
use instant_core::metrics::{exposure_of_db, ExposureReport};
use instant_storage::secure::ForensicScanner;

/// What one snapshot of the live store yielded.
#[derive(Debug, Clone)]
pub struct SnapshotObservation {
    /// Exposure reports per table at snapshot time.
    pub reports: Vec<ExposureReport>,
    /// Accurate (stage-0) degradable values observed, as display strings.
    pub accurate_values: Vec<String>,
}

/// A snapshot attacker accumulating observations over repeated attacks.
#[derive(Debug, Default)]
pub struct SnapshotAttacker {
    /// Every accurate value ever observed (deduplicated).
    observed_accurate: HashSet<String>,
    pub snapshots_taken: usize,
}

impl SnapshotAttacker {
    pub fn new() -> SnapshotAttacker {
        SnapshotAttacker::default()
    }

    /// Attack now: read the whole store as the server could.
    pub fn snapshot(&mut self, db: &Db) -> Result<SnapshotObservation> {
        self.snapshots_taken += 1;
        let reports = exposure_of_db(db)?;
        let mut accurate_values = Vec::new();
        for table in db.catalog().all_tables() {
            let schema = table.schema();
            let deg_cols = schema.degradable_columns();
            for (_tid, tuple) in table.scan()? {
                for (slot, cid) in deg_cols.iter().enumerate() {
                    let Some(stage) = tuple.stages.get(slot).copied().flatten() else {
                        continue;
                    };
                    let d = schema.column(*cid).degrader().expect("degradable");
                    // Accurate = domain level 0, not merely LCP stage 0:
                    // a static-anonymization store (single coarse stage)
                    // yields the attacker nothing accurate.
                    if d.lcp().stages()[stage as usize].level == instant_common::LevelId(0) {
                        let v: &Value = &tuple.row[cid.0 as usize];
                        let s = v.to_string();
                        accurate_values.push(s.clone());
                        self.observed_accurate.insert(s);
                    }
                }
            }
        }
        Ok(SnapshotObservation {
            reports,
            accurate_values,
        })
    }

    /// Distinct accurate values captured across all snapshots so far.
    pub fn total_accurate_observed(&self) -> usize {
        self.observed_accurate.len()
    }
}

/// Build a forensic scanner hunting the byte encodings of the given
/// accurate values (typically: every address ever inserted).
pub fn forensic_needles<'a>(values: impl IntoIterator<Item = &'a str>) -> ForensicScanner {
    let mut scanner = ForensicScanner::new();
    for v in values {
        scanner.hunt(v.as_bytes().to_vec());
    }
    scanner
}

/// Convenience: scan a database's raw heap+WAL images with the scanner.
pub fn forensic_scan(
    db: &Db,
    scanner: &ForensicScanner,
) -> Result<instant_storage::secure::ForensicReport> {
    let images = db.forensic_images()?;
    let slices: Vec<&[u8]> = images.iter().map(|(_, b)| b.as_slice()).collect();
    Ok(scanner.scan(slices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::{DataType, Duration, MockClock};
    use instant_core::db::DbConfig;
    use instant_core::schema::{Column, TableSchema};
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::hierarchy::Hierarchy;
    use instant_lcp::AttributeLcp;
    use std::sync::Arc;

    fn setup() -> (MockClock, Db) {
        let clock = MockClock::new();
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::stable("id", DataType::Int),
                    Column::degradable(
                        "location",
                        DataType::Str,
                        gt,
                        AttributeLcp::fig2_location(),
                    )
                    .unwrap(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        (clock, db)
    }

    #[test]
    fn snapshot_sees_accurate_values_only_while_accurate() {
        let (clock, db) = setup();
        db.insert(
            "person",
            &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
        let mut attacker = SnapshotAttacker::new();
        let obs = attacker.snapshot(&db).unwrap();
        assert_eq!(obs.accurate_values, vec!["4 rue Jussieu".to_string()]);

        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap();
        let obs2 = attacker.snapshot(&db).unwrap();
        assert!(obs2.accurate_values.is_empty(), "only city remains");
        assert_eq!(attacker.snapshots_taken, 2);
        assert_eq!(attacker.total_accurate_observed(), 1);
    }

    #[test]
    fn slow_attacker_misses_fast_degradation() {
        let (clock, db) = setup();
        let mut attacker = SnapshotAttacker::new();
        // Value inserted, degrades after 1 h; attacker arrives at t=2 h.
        db.insert(
            "person",
            &[Value::Int(1), Value::Str("Rue de la Paix".into())],
        )
        .unwrap();
        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap();
        attacker.snapshot(&db).unwrap();
        assert_eq!(
            attacker.total_accurate_observed(),
            0,
            "attack slower than the shortest step captures nothing accurate"
        );
    }

    #[test]
    fn forensic_scanner_round_trip() {
        let (_clock, db) = setup();
        db.insert(
            "person",
            &[Value::Int(1), Value::Str("Science Park 123".into())],
        )
        .unwrap();
        let scanner = forensic_needles(["Science Park 123", "Nonexistent St"]);
        let report = forensic_scan(&db, &scanner).unwrap();
        // Live heap still holds the accurate value (it has not degraded).
        assert!(report.recovered.contains(&b"Science Park 123".to_vec()));
        assert!(!report.recovered.contains(&b"Nonexistent St".to_vec()));
    }
}
