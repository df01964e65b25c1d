//! Location-tracking service — the paper's motivating scenario.
//!
//! "Cell phones give location information … The data ends up in a database
//! somewhere, where it can be queried for various purposes."
//!
//! A synthetic phone fleet feeds location events into a degrading store for
//! a simulated week. Two consumers query concurrently with the ingest:
//! a *user-facing* service that needs recent accurate positions, and an
//! *analytics* service that works at country level — demonstrating the
//! usability claim: degraded data still serves the long-lived purpose while
//! accurate exposure stays bounded.
//!
//! Run with: `cargo run --release --example location_tracking`

use std::sync::Arc;

use instantdb::prelude::*;
use instantdb::workload::events::{EventStream, EventStreamConfig};
use instantdb::workload::location::{LocationDomain, LocationShape};

fn main() -> Result<()> {
    let clock = MockClock::new();
    // The point is what the store holds over the week, not durability: no
    // log, so no fsync per fix.
    let cfg = DbConfig {
        wal_mode: WalMode::Off,
        ..DbConfig::default()
    };
    let db = Arc::new(Db::open(cfg, clock.shared())?);
    let mut session = Session::new(db.clone());

    let domain = LocationDomain::generate(LocationShape::default(), 0.9);
    session.register_hierarchy("geo", domain.hierarchy());

    // Position fixes stay accurate for 1 h (navigation), city-level for a
    // day (local recommendations), region for a week, country for a month
    // (aggregate statistics), then vanish.
    session.execute(
        "CREATE TABLE events (\
           id INT INDEXED, \
           user TEXT, \
           location TEXT DEGRADE USING geo \
             LCP 'address:1h -> city:1d -> region:7d -> country:30d' INDEXED, \
           salary INT)",
    )?;

    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: 60.0,
            users: 200,
            ..Default::default()
        },
        &domain,
        42,
        clock.now(),
    );

    // Simulate one week, pumping degradation every simulated hour.
    let horizon = clock.now() + Duration::days(7);
    let mut inserted = 0usize;
    let mut pending: Vec<_> = stream.until(horizon);
    pending.reverse(); // pop() from the front of the timeline
    while let Some(event) = pending.pop() {
        // Advance the clock to the event's arrival and run due degradation.
        if event.at > clock.now() {
            clock.set(event.at);
            db.pump_degradation()?;
        }
        db.insert("events", &event.row)?;
        inserted += 1;
    }
    clock.set(horizon);
    db.pump_degradation()?;

    println!("ingested {inserted} location fixes over a simulated week\n");

    let table = db.catalog().get("events")?;
    let occupancy = table
        .index_occupancy(instantdb::common::ColumnId(2))
        .expect("location is indexed");
    println!("accuracy-level occupancy (address, city, region, country):");
    println!("  {occupancy:?}\n");

    // Consumer 1: user-facing service — needs accurate recent fixes.
    session.clear_purpose();
    let recent = session
        .execute("SELECT id, user, location FROM events")?
        .rows();
    println!(
        "user-facing service (accurate level): {} fixes from the last hour visible",
        recent.rows.len()
    );

    // Consumer 2: analytics at country level — sees almost everything.
    session.execute("DECLARE PURPOSE STATS SET ACCURACY LEVEL COUNTRY FOR LOCATION")?;
    let per_country = session
        .execute("SELECT location FROM events WHERE location = 'Country00'")?
        .rows();
    let all = session.execute("SELECT id FROM events")?.rows();
    println!(
        "analytics service (country level): {} of {} fixes visible, {} in Country00",
        all.rows.len(),
        table.live_count()?,
        per_country.rows.len()
    );

    // The privacy ledger: how much accurate information does the store hold?
    let reports = exposure_of_db(&db)?;
    for r in &reports {
        println!(
            "\nexposure[{}]: {} tuples, {:.1} residual bits-worth, \
             {} accurate / {} degraded / {} removed values",
            r.table,
            r.tuples,
            r.total_exposure,
            r.accurate_values,
            r.degraded_values,
            r.removed_values
        );
        println!("stage histogram: {:?}", r.stage_histogram);
    }
    Ok(())
}
