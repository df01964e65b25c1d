//! Shared experiment scaffolding — the setup prologue of every `exp_*`
//! binary: the synthetic location domain, the standard protected
//! `events` table, the engine around it, and the replay of an event
//! stream into it.
//!
//! Keeping this in one place means every experiment runs against the
//! *same* world (domain shape, selectivity, table layout), so their
//! numbers stay comparable across figures.

use std::sync::Arc;

use instant_common::{MockClock, Timestamp};
use instant_core::baseline::Protection;
use instant_core::db::{Db, DbConfig, WalMode};
use instant_workload::events::Event;
use instant_workload::location::{LocationDomain, LocationShape};

/// The experiments' shared synthetic location domain: default shape,
/// 0.9 address-per-leaf fill.
pub fn location_domain() -> LocationDomain {
    LocationDomain::generate(LocationShape::default(), 0.9)
}

/// Open an engine on `clock` with the standard `events` table (see
/// [`instant_core::baseline::protected_location_schema`]) protected by
/// `scheme`. The experiments measure store contents only, over simulated
/// weeks: logging is off (no fsync per event) and the pool holds the
/// whole heap.
pub fn events_db(clock: &MockClock, domain: &LocationDomain, scheme: &Protection) -> Arc<Db> {
    let cfg = DbConfig::builder()
        .wal_mode(WalMode::Off)
        .buffer_frames(8192)
        .build()
        .expect("bench config is valid");
    let db = Arc::new(Db::open(cfg, clock.shared()).expect("open bench engine"));
    let schema =
        instant_core::baseline::protected_location_schema("events", domain.hierarchy(), scheme)
            .expect("standard events schema is valid");
    db.create_table(schema).expect("create events table");
    db
}

/// Move the clock to `at` and fire every transition due by then.
pub fn advance_to(clock: &MockClock, db: &Db, at: Timestamp) {
    clock.set(at);
    db.pump_degradation().expect("pump degradation");
}

/// Replay one stream event as a live engine sees it: time moves to its
/// arrival, due transitions fire, and its id, user and location are
/// inserted into `events`.
pub fn ingest(clock: &MockClock, db: &Db, event: &Event) {
    advance_to(clock, db, event.at);
    db.insert("events", &event.row[..3]).expect("insert event");
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::Duration;
    use instant_lcp::AttributeLcp;
    use instant_workload::events::{EventStream, EventStreamConfig};

    #[test]
    fn shared_prologue_builds_a_working_world() {
        let domain = location_domain();
        let clock = MockClock::new();
        let scheme = Protection::Degradation(
            AttributeLcp::from_pairs(&[(0, Duration::hours(1)), (3, Duration::days(30))]).unwrap(),
        );
        let db = events_db(&clock, &domain, &scheme);
        assert!(db.wal().is_none(), "experiments run unlogged");
        let mut stream =
            EventStream::new(EventStreamConfig::default(), &domain, 7, Timestamp::ZERO);
        let event = stream.next_event();
        ingest(&clock, &db, &event);
        assert_eq!(db.now(), event.at, "ingest moves the clock");
        let table = db.catalog().get("events").unwrap();
        assert_eq!(table.live_count().unwrap(), 1);
        advance_to(&clock, &db, event.at + Duration::days(31));
        assert_eq!(table.live_count().unwrap(), 0, "advance_to pumps");
    }
}
