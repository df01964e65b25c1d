//! Replication properties, driven straight at the replay layer (no
//! sockets): a follower that applies an arbitrary stable prefix and then
//! catches up is byte-identical to one that applied everything at once —
//! and to the leader; a degraded follower never materializes a tuple
//! below its declared stage floor, for any prefix.

use std::sync::Arc;

use instant_common::{MockClock, TupleId};
use instant_core::query::HierarchyRegistry;
use instant_core::tuple::StoredTuple;
use instant_core::{Db, DbConfig, ReplicaApplyState, Session, WalMode};
use instant_lcp::gtree::location_tree_fig1;
use instant_repl::replica::stable_barrier;
use instant_wal::record::{LogRecord, Lsn};
use instant_wal::recovery;
use proptest::prelude::*;

const CREATE_PERSON: &str = "CREATE TABLE person (id INT INDEXED, \
     location TEXT DEGRADE USING location_gt \
     LCP 'address:1h -> city:1d -> region:1mo -> country:1mo' INDEXED)";

const ADDRS: [&str; 5] = [
    "4 rue Jussieu",
    "Rue de la Paix",
    "Drienerlolaan 5",
    "Science Park 123",
    "45 avenue des Etats-Unis",
];

fn registry() -> HierarchyRegistry {
    let h = HierarchyRegistry::new();
    h.register("location_gt", Arc::new(location_tree_fig1()));
    h
}

/// A leader with `shards` WAL shards, the given workload applied, and a
/// bootstrap retention hold so checkpoints in the workload cannot
/// truncate what an (offline) follower still needs.
fn leader_with_workload(shards: usize, workload: &[(u8, u8, u8)]) -> Arc<Db> {
    let clock = MockClock::new();
    let cfg = DbConfig::builder().wal_shards(shards).build().unwrap();
    let db = Arc::new(Db::open(cfg, clock.shared()).unwrap());
    let _hold = db
        .wal()
        .unwrap()
        .register_retention_hold(db.wal().unwrap().base_lsn());
    let mut session = Session::with_registry(Arc::clone(&db), registry());
    session.execute(CREATE_PERSON).unwrap();
    for &(op, id, addr) in workload {
        match op % 5 {
            4 => {
                session
                    .execute(&format!("DELETE FROM person WHERE id = {id}"))
                    .unwrap();
            }
            3 => {
                session.execute("CHECKPOINT").unwrap();
            }
            _ => {
                session
                    .execute(&format!(
                        "INSERT INTO person VALUES ({id}, '{}')",
                        ADDRS[addr as usize % ADDRS.len()]
                    ))
                    .unwrap();
            }
        }
    }
    db
}

fn follower_db(degrade_to: Option<u8>) -> Arc<Db> {
    let mut b = DbConfig::builder().wal_mode(WalMode::Off);
    if let Some(s) = degrade_to {
        b = b.replica_degrade_to(s);
    }
    let db = Arc::new(Db::open(b.build().unwrap(), MockClock::new().shared()).unwrap());
    let mut session = Session::with_registry(Arc::clone(&db), registry());
    session.execute(CREATE_PERSON).unwrap();
    db
}

/// Follower-style apply of everything below `barrier` (same pipeline as
/// the live replica: checkpoint-ignoring replay, then external-op apply
/// with the `applied_upto` watermark).
fn apply_below(db: &Db, merged: &[(Lsn, LogRecord)], barrier: Lsn, state: &mut ReplicaApplyState) {
    let below: Vec<(Lsn, LogRecord)> = merged
        .iter()
        .filter(|(lsn, _)| *lsn < barrier)
        .cloned()
        .collect();
    let plan = recovery::replay(&below, None, db.keystore());
    db.replay_external_ops(&plan.ops, state).unwrap();
}

fn scan_sorted(db: &Db) -> Vec<(TupleId, StoredTuple)> {
    let mut rows = db.catalog().get("person").unwrap().scan().unwrap();
    rows.sort_by_key(|(tid, _)| *tid);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Apply an arbitrary stable prefix, then the rest — the result must
    /// equal both a one-shot full replay and the leader's own heap.
    #[test]
    fn prefix_then_rest_equals_full_replay_equals_leader(
        workload in proptest::collection::vec((any::<u8>(), 0u8..20, any::<u8>()), 1..25),
        shards in 1usize..4,
        cuts in proptest::collection::vec(0u64..1000, 3..4),
    ) {
        let leader = leader_with_workload(shards, &workload);
        let wal = leader.wal().unwrap();
        let merged = wal.iterate().unwrap();
        let full: Vec<Lsn> = (0..shards).map(|k| wal.shard(k).next_lsn()).collect();
        let cut: Vec<Lsn> = (0..shards).map(|k| cuts[k % cuts.len()] % (full[k] + 1)).collect();

        // Incremental follower: arbitrary received prefix, then catch up.
        let b1 = stable_barrier(&merged, &cut, &full);
        let b2 = stable_barrier(&merged, &full, &full);
        prop_assert_eq!(b2, Lsn::MAX, "a caught-up follower has no barrier");
        let incremental = follower_db(None);
        let mut state = ReplicaApplyState::default();
        apply_below(&incremental, &merged, b1, &mut state);
        let applied_mid = state.applied_upto;
        apply_below(&incremental, &merged, b2, &mut state);
        prop_assert!(state.applied_upto >= applied_mid);

        // One-shot follower.
        let oneshot = follower_db(None);
        apply_below(&oneshot, &merged, b2, &mut ReplicaApplyState::default());

        let want = scan_sorted(&leader);
        prop_assert_eq!(scan_sorted(&incremental), want.clone());
        prop_assert_eq!(scan_sorted(&oneshot), want);
    }

    /// Tear one shard's tail (records of still-open transactions lost),
    /// recover the leader, replay follower-style: the states agree.
    #[test]
    fn torn_tail_prefix_converges_to_recovered_leader(
        workload in proptest::collection::vec((0u8..3, 0u8..20, any::<u8>()), 1..20),
        shards in 1usize..4,
        cut in 1u64..120,
    ) {
        let leader = leader_with_workload(shards, &workload);
        let wal = leader.wal().unwrap();
        // Tear shard 0's unsynced-flush tail: drop `cut` bytes off the
        // end, exactly what a mid-write crash leaves behind.
        wal.shard(0).torn_tail(cut).unwrap();
        let merged = wal.iterate().unwrap();
        let full: Vec<Lsn> = (0..shards).map(|k| wal.shard(k).next_lsn()).collect();

        let follower = follower_db(None);
        let b = stable_barrier(&merged, &full, &full);
        prop_assert_eq!(b, Lsn::MAX);
        apply_below(&follower, &merged, b, &mut ReplicaApplyState::default());

        // The "recovered leader": one-shot replay of the same trimmed
        // log into a fresh engine (the recovery path the leader process
        // itself would run).
        let recovered = follower_db(None);
        apply_below(&recovered, &merged, Lsn::MAX, &mut ReplicaApplyState::default());
        prop_assert_eq!(scan_sorted(&follower), scan_sorted(&recovered));
    }

    /// The degraded-replica invariant holds for every prefix of every
    /// workload: nothing on the follower heap is more precise than the
    /// declared floor.
    #[test]
    fn degraded_follower_never_below_floor_for_any_prefix(
        workload in proptest::collection::vec((0u8..3, 0u8..20, any::<u8>()), 1..20),
        shards in 1usize..3,
        floor in 0u8..5,
        cuts in proptest::collection::vec(0u64..1000, 2..3),
    ) {
        let leader = leader_with_workload(shards, &workload);
        let wal = leader.wal().unwrap();
        let merged = wal.iterate().unwrap();
        let full: Vec<Lsn> = (0..shards).map(|k| wal.shard(k).next_lsn()).collect();
        let cut: Vec<Lsn> = (0..shards).map(|k| cuts[k % cuts.len()] % (full[k] + 1)).collect();

        let follower = follower_db(Some(floor));
        let mut state = ReplicaApplyState::default();
        for barrier in [stable_barrier(&merged, &cut, &full), stable_barrier(&merged, &full, &full)] {
            apply_below(&follower, &merged, barrier, &mut state);
            for (tid, tuple) in scan_sorted(&follower) {
                if let Some(stage) = tuple.stages[0] {
                    prop_assert!(
                        stage >= floor,
                        "{:?} at stage {} violates floor {}", tid, stage, floor
                    );
                }
            }
        }
        // Degradation only ever removes rows (a fully-degraded image
        // becomes an expunge), never invents them.
        prop_assert!(scan_sorted(&follower).len() <= scan_sorted(&leader).len());
    }
}
