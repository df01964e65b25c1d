//! End-to-end integration: full SQL sessions over the whole stack,
//! exercising the paper's Section II semantics across crate boundaries.

use std::sync::Arc;

use instantdb::prelude::*;

fn fig2_session() -> (MockClock, Session) {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let mut s = Session::new(db);
    s.register_hierarchy("location_gt", Arc::new(location_tree_fig1()));
    s.register_hierarchy("salary_ranges", Arc::new(RangeHierarchy::salary()));
    s.execute(
        "CREATE TABLE person (\
           id INT INDEXED, \
           name TEXT, \
           location TEXT DEGRADE USING location_gt \
             LCP 'address:1h -> city:1d -> region:1mo -> country:1mo' INDEXED, \
           salary INT DEGRADE USING salary_ranges \
             LCP 'exact:1h -> range1000:1mo -> range10000:1mo')",
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
        (5, "eve", "Science Park 123", 2750),
    ] {
        s.execute(&format!(
            "INSERT INTO person VALUES ({id}, '{name}', '{loc}', {sal})"
        ))
        .unwrap();
    }
}

/// The paper's full worked example: declare the STAT purpose, query with
/// unchanged SQL, observe country+range semantics.
#[test]
fn papers_worked_example() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    // Let everything degrade to country/range10000-visible states? No —
    // query the *fresh* data at coarse declared accuracy (the model allows
    // that: fine states compute coarse levels).
    s.execute(
        "DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION, \
         RANGE1000 FOR P.SALARY",
    )
    .unwrap();
    let r = s
        .execute("SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND SALARY = '2000-3000'")
        .unwrap()
        .rows();
    // France residents with salary in [2000,3000): alice (2340), bob (2890).
    assert_eq!(r.rows.len(), 2);
    for row in &r.rows {
        assert_eq!(row[2], Value::Str("France".into()));
        assert_eq!(row[3], Value::Range { lo: 2000, hi: 3000 });
    }
    // The same query after partial degradation returns the same answer —
    // coarse queries are stable across fine-grained aging (1 day in: city).
    clock.advance(Duration::hours(26));
    s.db().pump_degradation().unwrap();
    let r2 = s
        .execute("SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND SALARY = '2000-3000'")
        .unwrap()
        .rows();
    assert_eq!(r2.rows.len(), 2, "coarse answers survive degradation");
}

#[test]
fn tuple_state_partitions_are_respected() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    clock.advance(Duration::hours(2));
    s.db().pump_degradation().unwrap();
    // Insert two fresh tuples: store now holds two subsets ST_j.
    s.execute("INSERT INTO person VALUES (6, 'frank', '45 avenue des Etats-Unis', 2100)")
        .unwrap();
    s.execute("INSERT INTO person VALUES (7, 'grace', 'Hengelosestraat 99', 4100)")
        .unwrap();
    // At the accurate level only the fresh subset is visible.
    s.clear_purpose();
    let accurate = s.execute("SELECT id FROM person").unwrap().rows();
    assert_eq!(accurate.rows.len(), 2);
    // At city level, everything is visible and cities are exact.
    s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL CITY FOR LOCATION, RANGE1000 FOR SALARY")
        .unwrap();
    let city = s.execute("SELECT id, location FROM person").unwrap().rows();
    assert_eq!(city.rows.len(), 7);
    let versailles = city
        .rows
        .iter()
        .filter(|r| r[1] == Value::Str("Versailles".into()))
        .count();
    assert_eq!(
        versailles, 1,
        "fresh frank degrades to Versailles on the fly"
    );
}

#[test]
fn delete_semantics_match_views() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    clock.advance(Duration::hours(2));
    s.db().pump_degradation().unwrap();
    // Delete at country accuracy: "deletion through SQL views".
    s.execute("DECLARE PURPOSE D SET ACCURACY LEVEL COUNTRY FOR LOCATION, d3 FOR SALARY")
        .unwrap();
    let out = s
        .execute("DELETE FROM person WHERE location = 'Netherlands'")
        .unwrap();
    assert_eq!(out, QueryOutput::Deleted(2)); // carol + eve
    let left = s.execute("SELECT id FROM person").unwrap().rows();
    assert_eq!(left.rows.len(), 3);
    // Deleted tuples are physically gone (stable attributes included).
    let table = s.db().catalog().get("person").unwrap();
    assert_eq!(table.live_count().unwrap(), 3);
}

#[test]
fn salary_only_queries_under_partial_degradation() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    // Salary degrades to range1000 after 1 h; location to city after 1 h.
    clock.advance(Duration::hours(3));
    s.db().pump_degradation().unwrap();
    s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL CITY FOR LOCATION, RANGE1000 FOR SALARY")
        .unwrap();
    let r = s
        .execute("SELECT id, salary FROM person WHERE salary = '2000-3000'")
        .unwrap()
        .rows();
    // 2340, 2890, 2750 → three ids in the 2000-3000 band.
    assert_eq!(r.rows.len(), 3);
    for row in &r.rows {
        assert_eq!(row[1], Value::Range { lo: 2000, hi: 3000 });
    }
}

#[test]
fn index_and_scan_agree_at_every_level() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    clock.advance(Duration::hours(2));
    s.db().pump_degradation().unwrap();
    s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL CITY FOR LOCATION, RANGE1000 FOR SALARY")
        .unwrap();
    // Indexed plan.
    let by_index = s
        .execute("SELECT id FROM person WHERE location = 'Paris'")
        .unwrap()
        .rows();
    assert!(by_index.plan.starts_with("DegIndexEq"));
    // Force a scan by predicating on the unindexed name column too.
    let by_scan = s
        .execute("SELECT id FROM person WHERE name LIKE '%' AND location = 'Paris'")
        .unwrap()
        .rows();
    let mut a = by_index.rows.clone();
    let mut b = by_scan.rows.clone();
    a.sort_by_key(|r| format!("{r:?}"));
    b.sort_by_key(|r| format!("{r:?}"));
    assert_eq!(a, b, "access path must not change the answer");
}

#[test]
fn full_life_cycle_empties_the_table() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    clock.advance(Duration::months(3));
    let report = s.db().pump_degradation().unwrap();
    assert_eq!(report.expunged, 5);
    assert_eq!(
        s.db()
            .catalog()
            .get("person")
            .unwrap()
            .live_count()
            .unwrap(),
        0
    );
    // Every accuracy level now yields the empty answer.
    for purpose in [
        None,
        Some("DECLARE PURPOSE Q SET ACCURACY LEVEL COUNTRY FOR LOCATION, d3 FOR SALARY"),
    ] {
        if let Some(p) = purpose {
            s.execute(p).unwrap();
        }
        let r = s.execute("SELECT * FROM person").unwrap().rows();
        assert!(r.rows.is_empty());
    }
    assert_eq!(total_exposure(s.db()).unwrap(), 0.0);
}

#[test]
fn relaxed_vs_strict_monotonicity() {
    // Relaxed answers are always a superset of strict answers.
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    clock.advance(Duration::hours(2));
    s.db().pump_degradation().unwrap();
    s.execute("INSERT INTO person VALUES (9, 'hank', '4 rue Jussieu', 2000)")
        .unwrap();
    s.execute("DECLARE PURPOSE Q SET ACCURACY LEVEL CITY FOR LOCATION, RANGE1000 FOR SALARY")
        .unwrap();
    let strict = s.execute("SELECT id FROM person").unwrap().rows();
    s.set_semantics(QuerySemantics::Relaxed);
    let relaxed = s.execute("SELECT id FROM person").unwrap().rows();
    assert!(relaxed.rows.len() >= strict.rows.len());
    for row in &strict.rows {
        assert!(relaxed.rows.contains(row), "strict ⊆ relaxed violated");
    }
}

#[test]
fn exposure_report_over_session_lifetime() {
    let (clock, mut s) = fig2_session();
    seed(&mut s);
    let e0 = total_exposure(s.db()).unwrap();
    // Two degradable columns × 5 tuples, all accurate.
    assert!((e0 - 10.0).abs() < 1e-9);
    clock.advance(Duration::days(2));
    s.db().pump_degradation().unwrap();
    let e1 = total_exposure(s.db()).unwrap();
    assert!(e1 < e0);
    let reports = exposure_of_db(s.db()).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].tuples, 5);
    assert_eq!(reports[0].accurate_values, 0);
}
