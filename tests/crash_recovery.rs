//! Crash-recovery harness for the segmented WAL durability subsystem.
//!
//! Each scenario "kills" the engine at an injected point — mid-append (a torn
//! or failed WAL write), post-freeze pre-flush (sealed segments still live),
//! or mid-flush (the SST build dies half-way) — then reopens the same storage
//! and asserts that the recovered contents equal **exactly** the acknowledged
//! writes: every write that returned `Ok` is present, every write that
//! errored (and therefore was never acknowledged) is absent.
//!
//! The bounded-replay test is the headline property: recovery replays only
//! the live WAL segments, so the replayed-record count stays flat while total
//! ingest grows 10x.

use std::sync::Arc;
use std::time::Duration;

use laser::lsm_storage::storage::{
    FaultConfig, FaultInjectingStorage, FaultStorage, MemStorage, StorageRef,
};
use laser::lsm_storage::wal_segment::{parse_segment_file_name, segment_file_name};
use laser::lsm_storage::{LsmDb, LsmOptions};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, Schema, Value};

mod common;

use common::{get, open, put, row, TestEngine};

/// Options for a durably-acknowledging engine: every `Ok` put means the WAL
/// record is fsynced (group commit), which is what makes "recovered ==
/// acknowledged" an exact equality rather than a prefix bound.
fn durable_options() -> LsmOptions {
    LsmDb::test_options(true, 0)
}

/// The value the row-engine scenarios write under `key` (what
/// [`common::put`] writes with `seed == key`).
fn value_for(key: u64) -> Vec<u8> {
    LsmDb::payload(key, 0)
}

/// Asserts the reopened database holds exactly `acknowledged` among the keys
/// in `universe`.
fn assert_exact_contents<E: TestEngine>(
    db: &E,
    universe: std::ops::Range<u64>,
    acknowledged: &[u64],
) {
    let acked: std::collections::BTreeSet<u64> = acknowledged.iter().copied().collect();
    for key in universe {
        let got = get(db, key);
        if acked.contains(&key) {
            assert_eq!(got, row::<E>(key), "acknowledged key {key} lost");
        } else {
            assert_eq!(got, None, "unacknowledged key {key} resurrected");
        }
    }
}

/// The id of the newest (active) WAL segment on disk.
fn active_segment_name(storage: &StorageRef) -> String {
    let id = storage
        .list()
        .unwrap()
        .iter()
        .filter_map(|n| parse_segment_file_name(n))
        .max()
        .expect("an active WAL segment must exist");
    segment_file_name(id)
}

// ---------------------------------------------------------------------------
// Injection point 1: mid-append
// ---------------------------------------------------------------------------

/// A write whose WAL append fails is never acknowledged, and recovery after
/// the crash serves exactly the acknowledged prefix.
#[test]
fn crash_mid_append_failed_write_is_not_recovered() {
    let base = MemStorage::new_ref();
    let faulty = Arc::new(FaultInjectingStorage::new(Arc::clone(&base)));
    let storage: StorageRef = faulty.clone();
    let mut acknowledged = Vec::new();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..40u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        // The crash: every further storage append dies, so the next put's
        // WAL record cannot be written and the put must error.
        faulty.set_config(FaultConfig {
            fail_append: true,
            ..Default::default()
        });
        assert!(
            db.put(40, value_for(40)).is_err(),
            "append failure must surface"
        );
        // Reads of acknowledged data still work on the damaged engine.
        assert_eq!(db.get(5).unwrap(), Some(value_for(5)));
        // Once the fault clears, the WAL self-heals in place: the damaged
        // segment is sealed, a fresh one opened, and the write acknowledged —
        // no reopen required.
        faulty.set_config(FaultConfig::default());
        db.put(41, value_for(41))
            .expect("the WAL must rotate past the damaged segment");
        acknowledged.push(41);
        assert!(
            db.stats().wal.recoveries >= 1,
            "the rotation recovery must be accounted"
        );
        // Drop without closing: the process is gone.
    }
    faulty.set_config(FaultConfig::default());
    let db = LsmDb::open(storage, durable_options()).unwrap();
    assert_exact_contents(&db, 0..45, &acknowledged);
}

/// A record half-written at the moment of the crash (torn tail) is discarded;
/// the acknowledged prefix before it survives intact.
#[test]
fn crash_mid_append_torn_tail_is_discarded() {
    let storage: StorageRef = MemStorage::new_ref();
    let mut acknowledged = Vec::new();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..30u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
    }
    // Simulate the torn write: the crash hit after a few header bytes of an
    // unacknowledged record reached the active segment.
    let name = active_segment_name(&storage);
    let intact = storage.open(&name).unwrap().read_all().unwrap();
    let mut file = storage.create(&name).unwrap();
    file.append(&intact).unwrap();
    file.append(&[0xAB, 0xCD, 0xEF, 0x01, 0x02, 0x03, 0x04])
        .unwrap();

    let db = LsmDb::open(storage, durable_options()).unwrap();
    assert_exact_contents(&db, 0..35, &acknowledged);
}

// ---------------------------------------------------------------------------
// Injection point 2: post-freeze, pre-flush
// ---------------------------------------------------------------------------

/// Crash with frozen-but-unflushed memtables: their sealed segments plus the
/// active segment are all replayed, in order.
///
/// A maintenance scheduler is attached so that writes after the manual
/// freeze do not drain the frozen memtable inline (the schedulerless write
/// path does exactly that); `freeze_memtable` itself enqueues no flush job,
/// which is precisely the "post-freeze, pre-flush" window.
#[test]
fn crash_post_freeze_pre_flush_recovers_all_acknowledged() {
    let storage: StorageRef = MemStorage::new_ref();
    let mut acknowledged = Vec::new();
    {
        let db = Arc::new(LsmDb::open(Arc::clone(&storage), durable_options()).unwrap());
        let scheduler = db.attach_maintenance(1).unwrap();
        for key in 0..60u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        assert!(db.freeze_memtable().unwrap(), "memtable must freeze");
        for key in 60..90u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        // Crash before any flush job ran.
        drop(scheduler);
    }
    let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
    assert_exact_contents(&db, 0..95, &acknowledged);
    let wal = db.stats().wal;
    assert_eq!(wal.segments_replayed, 2, "one sealed + one active segment");
    assert_eq!(wal.records_replayed, 90);
}

/// Replay ordering across three segments: a key overwritten in every segment
/// must resolve to the newest version after recovery.
#[test]
fn replay_ordering_across_three_segments() {
    let storage: StorageRef = MemStorage::new_ref();
    {
        let db = Arc::new(LsmDb::open(Arc::clone(&storage), durable_options()).unwrap());
        let scheduler = db.attach_maintenance(1).unwrap();
        db.put(7, b"generation-1".to_vec()).unwrap();
        db.put(100, b"only-in-seg-1".to_vec()).unwrap();
        assert!(db.freeze_memtable().unwrap());
        db.put(7, b"generation-2".to_vec()).unwrap();
        assert!(db.freeze_memtable().unwrap());
        db.put(7, b"generation-3".to_vec()).unwrap();
        drop(scheduler);
    }
    let db = LsmDb::open(storage, durable_options()).unwrap();
    assert_eq!(db.stats().wal.segments_replayed, 3);
    assert_eq!(
        db.get(7).unwrap(),
        Some(b"generation-3".to_vec()),
        "newest segment must win after replay"
    );
    assert_eq!(db.get(100).unwrap(), Some(b"only-in-seg-1".to_vec()));
}

// ---------------------------------------------------------------------------
// Injection point 3: mid-flush
// ---------------------------------------------------------------------------

/// Crash while an SST is being built: the half-written SST is never installed
/// in the manifest, the WAL segments stay live, and recovery replays them.
#[test]
fn crash_mid_flush_keeps_wal_segments_live() {
    let base = MemStorage::new_ref();
    let faulty = Arc::new(FaultInjectingStorage::new(Arc::clone(&base)));
    let storage: StorageRef = faulty.clone();
    let mut acknowledged = Vec::new();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..50u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        assert!(db.freeze_memtable().unwrap());
        // The flush dies while writing the SST.
        faulty.set_config(FaultConfig {
            fail_append: true,
            ..Default::default()
        });
        assert!(db.flush().is_err(), "mid-flush failure must surface");
        // Crash with the partial SST on disk.
    }
    faulty.set_config(FaultConfig::default());
    let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
    assert_exact_contents(&db, 0..55, &acknowledged);
    // And the engine is fully functional: the interrupted flush can rerun.
    db.flush().unwrap();
    assert_exact_contents(&db, 0..55, &acknowledged);
}

// ---------------------------------------------------------------------------
// Bounded replay: the acceptance criterion
// ---------------------------------------------------------------------------

/// Recovery replays only live segments: while total ingest grows 10x, the
/// replayed-record count per recovery stays bounded by the unflushed tail.
#[test]
fn replay_stays_bounded_while_ingest_grows_tenfold() {
    const ROUNDS: u64 = 10;
    const FLUSHED_PER_ROUND: u64 = 200;
    const TAIL: u64 = 20;

    let storage: StorageRef = MemStorage::new_ref();
    let mut options = durable_options();
    options.sync_wal = false; // volume test; durability knobs irrelevant here
    let mut total_ingested = 0u64;
    let mut replayed_per_open = Vec::new();

    for round in 0..ROUNDS {
        let db = LsmDb::open(Arc::clone(&storage), options.clone()).unwrap();
        replayed_per_open.push(db.stats().wal.records_replayed);
        let base = round * (FLUSHED_PER_ROUND + TAIL);
        for key in base..base + FLUSHED_PER_ROUND {
            db.put(key, value_for(key)).unwrap();
        }
        // Flushing retires the segments backing this round's bulk...
        db.flush().unwrap();
        // ...while the tail stays only in the active segment.
        for key in base + FLUSHED_PER_ROUND..base + FLUSHED_PER_ROUND + TAIL {
            db.put(key, value_for(key)).unwrap();
        }
        total_ingested += FLUSHED_PER_ROUND + TAIL;
    }
    assert!(total_ingested >= 10 * (FLUSHED_PER_ROUND + TAIL));

    // Every recovery (after round 1) replayed exactly the previous tail, not
    // the ever-growing history.
    for (round, replayed) in replayed_per_open.iter().enumerate().skip(1) {
        assert!(
            *replayed <= TAIL,
            "round {round}: replayed {replayed} records, expected <= {TAIL} \
             (replay must not grow with total ingest)"
        );
    }

    // Nothing was lost along the way.
    let db = LsmDb::open(storage, options).unwrap();
    for key in (0..total_ingested).step_by(37) {
        assert_eq!(db.get(key).unwrap(), Some(value_for(key)), "key {key} lost");
    }
}

// ---------------------------------------------------------------------------
// WAL edge cases
// ---------------------------------------------------------------------------

/// Clean shutdown leaves an empty active segment; reopening replays nothing.
#[test]
fn empty_segment_on_clean_shutdown() {
    let storage: StorageRef = MemStorage::new_ref();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..20u64 {
            db.put(key, value_for(key)).unwrap();
        }
        db.close().unwrap();
    }
    let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
    let wal = db.stats().wal;
    assert_eq!(
        wal.records_replayed, 0,
        "a clean shutdown leaves nothing to replay"
    );
    for key in 0..20u64 {
        assert_eq!(db.get(key).unwrap(), Some(value_for(key)));
    }
    // And a second immediate reopen (nothing ever written) is also clean.
    drop(db);
    let db = LsmDb::open(storage, durable_options()).unwrap();
    assert_eq!(db.stats().wal.records_replayed, 0);
}

/// A segment containing nothing but a torn record contributes zero records
/// and does not prevent the database from opening.
#[test]
fn segment_with_only_a_torn_record() {
    let storage: StorageRef = MemStorage::new_ref();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..25u64 {
            db.put(key, value_for(key)).unwrap();
        }
        db.close().unwrap();
    }
    // Craft a newer segment holding only a half-written record.
    let newest = storage
        .list()
        .unwrap()
        .iter()
        .filter_map(|n| parse_segment_file_name(n))
        .max()
        .unwrap();
    let mut f = storage.create(&segment_file_name(newest + 1)).unwrap();
    f.append(&[0x11, 0x22, 0x33, 0x44, 0x55]).unwrap();

    let db = LsmDb::open(storage, durable_options()).unwrap();
    let wal = db.stats().wal;
    assert_eq!(
        wal.records_replayed, 0,
        "the torn-only segment yields no records"
    );
    for key in 0..25u64 {
        assert_eq!(db.get(key).unwrap(), Some(value_for(key)));
    }
}

/// `remove_wal` deletes every segment (sealed and active), is idempotent,
/// and afterwards only flushed data survives a reopen — in either format.
#[test]
fn remove_wal_is_segment_aware_and_idempotent() {
    remove_wal_scenario::<LsmDb>();
    remove_wal_scenario::<LaserDb>();
}

fn remove_wal_scenario<E: TestEngine>() {
    let storage: StorageRef = MemStorage::new_ref();
    let options = E::test_options(true, 0);
    {
        let db: Arc<E> = Arc::new(open(Arc::clone(&storage), &options).unwrap());
        let scheduler = db.attach_maintenance(1).unwrap();
        for key in 0..30u64 {
            put(&*db, key, key).unwrap();
        }
        db.flush().unwrap();
        for key in 30..60u64 {
            put(&*db, key, key).unwrap();
        }
        assert!(db.freeze_memtable().unwrap());
        for key in 60..70u64 {
            put(&*db, key, key).unwrap();
        }
        // Several live segments now exist; remove them all, twice.
        db.remove_wal().unwrap();
        db.remove_wal().unwrap();
        drop(scheduler);
    }
    assert!(
        storage
            .list()
            .unwrap()
            .iter()
            .all(|n| parse_segment_file_name(n).is_none()),
        "[{}] no WAL segment file may survive remove_wal",
        E::NAME
    );
    let db: E = open(storage, &options).unwrap();
    for key in 0..30u64 {
        assert_eq!(
            get(&db, key),
            row::<E>(key),
            "[{}] flushed key {key} lost",
            E::NAME
        );
    }
    for key in 30..70u64 {
        assert_eq!(
            get(&db, key),
            None,
            "[{}] unflushed key {key} must be gone",
            E::NAME
        );
    }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// Concurrent durable writers coalesce into fewer fsyncs than writes, and no
/// acknowledged write is lost across a crash.
#[test]
fn group_commit_coalesces_concurrent_writers() {
    let storage: StorageRef = MemStorage::new_ref();
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 200;
    {
        let db = Arc::new(LsmDb::open(Arc::clone(&storage), durable_options()).unwrap());
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let key = w * PER_WRITER + i;
                    db.put(key, value_for(key)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let wal = db.stats().wal;
        assert!(wal.records_appended >= WRITERS * PER_WRITER);
        // Accounting identity: every acknowledged durable write either led
        // its own fsync or was covered by another writer's (coalesced).
        // (Whether coalescing actually fires here depends on thread timing;
        // the deterministic coalescing checks live in the wal_segment unit
        // tests.)
        assert!(
            wal.syncs + wal.coalesced_acks >= WRITERS * PER_WRITER,
            "every durable ack must be a sync or a coalesced ack: {wal:?}"
        );
        assert!(
            wal.syncs <= wal.records_appended + wal.rotations + 1,
            "unexpected extra fsyncs: {wal:?}"
        );
        // Crash without flushing.
    }
    let db = LsmDb::open(storage, durable_options()).unwrap();
    for key in 0..WRITERS * PER_WRITER {
        assert_eq!(
            db.get(key).unwrap(),
            Some(value_for(key)),
            "durable key {key} lost"
        );
    }
}

/// The windowed sync policy issues at most one fsync per window on a
/// single-writer stream.
#[test]
fn windowed_group_commit_bounds_sync_rate() {
    let mut options = durable_options();
    options.sync_wal_interval_ms = 3_600_000; // one sync per hour at most
    let db = LsmDb::open_in_memory(options).unwrap();
    for key in 0..300u64 {
        db.put(key, value_for(key)).unwrap();
    }
    let wal = db.stats().wal;
    assert!(
        wal.syncs <= 2,
        "within one window the write path may sync at most once (got {})",
        wal.syncs
    );
    assert_eq!(wal.records_appended, 300);
}

// ---------------------------------------------------------------------------
// The LASER engine shares the same durability subsystem
// ---------------------------------------------------------------------------

/// Regression for the fsync-outside-the-mutex write path: concurrent
/// durably-acknowledged writers must coalesce into shared off-lock fsyncs,
/// and a crash (drop without close) must recover every acknowledged key.
#[test]
fn off_lock_group_commit_recovers_all_acknowledged_after_crash() {
    let storage: StorageRef = MemStorage::new_ref();
    const WRITERS: u64 = 4;
    const KEYS_PER_WRITER: u64 = 120;
    {
        let db = Arc::new(LsmDb::open(Arc::clone(&storage), durable_options()).unwrap());
        let mut handles = Vec::new();
        for writer in 0..WRITERS {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..KEYS_PER_WRITER {
                    let key = writer * KEYS_PER_WRITER + i;
                    db.put(key, value_for(key)).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let wal = db.wal_stats();
        assert!(
            wal.syncs_off_lock > 0,
            "write-path fsyncs must run off the append lock"
        );
        // (Coalescing is workload-dependent: on an instant in-memory backend
        // writers rarely overlap a sync, so no lower bound is asserted here —
        // the dedicated group-commit tests cover it deterministically.)
        // Crash: drop without close/flush.
    }
    let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
    let all: Vec<u64> = (0..WRITERS * KEYS_PER_WRITER).collect();
    assert_exact_contents(&db, 0..WRITERS * KEYS_PER_WRITER, &all);
}

/// An injected fsync failure on the off-lock path refuses the ack, and once
/// the fault clears the WAL heals in place — later writes are acknowledged
/// without a reopen, and a crash afterwards loses nothing acknowledged.
#[test]
fn off_lock_sync_failure_self_heals_without_reopen() {
    let base = MemStorage::new_ref();
    let faulty = Arc::new(FaultInjectingStorage::new(StorageRef::clone(&base)));
    let storage: StorageRef = faulty.clone();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        db.put(1, value_for(1)).unwrap();
        faulty.set_config(FaultConfig {
            fail_sync: true,
            ..Default::default()
        });
        assert!(
            db.put(2, value_for(2)).is_err(),
            "fsync failure must refuse the ack"
        );
        faulty.set_config(FaultConfig::default());
        db.put(3, value_for(3))
            .expect("the WAL must self-heal once the fault clears");
        assert!(db.stats().wal.recoveries >= 1);
    }
    let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
    assert_eq!(
        db.get(1).unwrap(),
        Some(value_for(1)),
        "acknowledged prefix lost"
    );
    // Key 2 was appended but never fsynced: its ack was refused, so it may
    // legitimately resurface after recovery re-stages the intact tail — the
    // durability contract only covers acknowledged writes, which must all be
    // present:
    assert_eq!(
        db.get(3).unwrap(),
        Some(value_for(3)),
        "post-recovery ack lost"
    );
    // The reopened log accepts writes again.
    db.put(4, value_for(4)).unwrap();
    assert_eq!(db.get(4).unwrap(), Some(value_for(4)));
}

// ---------------------------------------------------------------------------
// Storage-fault hardening: seeded fault plans, rotation recovery, read-only
// degradation
// ---------------------------------------------------------------------------

/// A transient fsync error mid-ingest seals the damaged segment and continues
/// in a fresh one: the very next write is acknowledged on the same open
/// engine, and a crash afterwards loses no acknowledged write.
#[test]
fn transient_fsync_error_seals_and_continues_in_fresh_segment() {
    let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 0xF51);
    let mut acknowledged = Vec::new();
    {
        let db = LsmDb::open(Arc::clone(&storage), durable_options()).unwrap();
        for key in 0..32u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        // Exactly one fsync dies; the plan then disarms itself (transient).
        // The write path seals the damaged segment, re-stages the tail into a
        // fresh one and syncs it — the fault is masked inside the same call,
        // so even this put is acknowledged.
        faults.fail_syncs(1);
        db.put(32, value_for(32))
            .expect("a transient fsync fault must be healed in place");
        acknowledged.push(32);
        // No clear(), no reopen: the engine keeps ingesting.
        for key in 33..48u64 {
            db.put(key, value_for(key)).unwrap();
            acknowledged.push(key);
        }
        let wal = db.stats().wal;
        assert!(wal.recoveries >= 1, "rotation recovery must be accounted");
        assert!(
            db.degraded_info().is_none(),
            "a healed engine must not report degradation"
        );
        assert_eq!(faults.injected_faults(), 1);
        // Crash without closing.
    }
    let db = LsmDb::open(storage, durable_options()).unwrap();
    assert_exact_contents(&db, 0..50, &acknowledged);
}

/// Persistent ENOSPC degrades the engine to read-only: writes fail with a
/// typed error, reads keep serving, and once space frees up the engine
/// recovers on the next write — all without a reopen. The degradation
/// machinery is the shell's, so both formats run the same body.
#[test]
fn enospc_degrades_to_read_only_then_auto_recovers() {
    enospc_scenario::<LsmDb>(0xE05);
    enospc_scenario::<LaserDb>(0x1A5);
}

fn enospc_scenario<E: TestEngine>(seed: u64) {
    let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), seed);
    let options = E::test_options(true, 0);
    let mut acknowledged = Vec::new();
    {
        let db: E = open(Arc::clone(&storage), &options).unwrap();
        for key in 0..24u64 {
            put(&db, key, key).unwrap();
            acknowledged.push(key);
        }
        // The disk fills: the write fails persistently and recovery probes
        // cannot succeed, so the engine parks itself read-only.
        faults.set_disk_full(true);
        assert!(put(&db, 24, 24).is_err(), "ENOSPC must surface");
        let err = put(&db, 25, 25).expect_err("a degraded engine must refuse writes");
        assert!(
            err.is_read_only(),
            "expected a typed read-only error, got: {err}"
        );
        let info = db.degraded_info().expect("degradation must be reported");
        assert!(
            info.reason.to_lowercase().contains("space")
                || info.reason.to_lowercase().contains("full"),
            "reason should name the cause: {}",
            info.reason
        );
        // Reads keep serving every acknowledged key while degraded.
        for key in (0..24u64).step_by(5) {
            assert_eq!(get(&db, key), row::<E>(key));
        }
        // Space frees up: the next write probes, recovers, and is acked.
        faults.set_disk_full(false);
        put(&db, 26, 26).expect("the engine must recover once space frees up");
        acknowledged.push(26);
        assert!(db.degraded_info().is_none(), "recovery must clear the flag");
        assert_eq!(get(&db, 26), row::<E>(26));
        assert_eq!(get(&db, 24), None, "unacknowledged row resurrected");
        // Crash without closing.
    }
    let db: E = open(storage, &options).unwrap();
    assert_exact_contents(&db, 0..30, &acknowledged);
}

fn laser_options() -> LaserOptions {
    let schema = Schema::with_columns(6);
    let mut options = LaserOptions::small_for_tests(LayoutSpec::equi_width(&schema, 5, 2));
    options.sync_wal = true;
    options
}

/// Post-freeze pre-flush crash on the LASER engine: full rows and partial
/// updates in sealed + active segments are all recovered.
#[test]
fn laser_crash_post_freeze_recovers_rows_and_updates() {
    let storage: StorageRef = MemStorage::new_ref();
    {
        let db = Arc::new(LaserDb::open(Arc::clone(&storage), laser_options()).unwrap());
        let scheduler = db.attach_maintenance(1).unwrap();
        for key in 0..80u64 {
            db.insert_int_row(key, key as i64).unwrap();
        }
        assert!(db.freeze_memtable().unwrap(), "memtable must freeze");
        for key in 0..40u64 {
            db.update(key, vec![(3, Value::Int(-7))]).unwrap();
        }
        // Crash with one sealed and one active segment.
        drop(scheduler);
    }
    let db = LaserDb::open(Arc::clone(&storage), laser_options()).unwrap();
    assert!(db.stats().wal.segments_replayed >= 2);
    let schema = Schema::with_columns(6);
    for key in (0..80u64).step_by(9) {
        let row = db.read(key, &Projection::all(&schema)).unwrap().unwrap();
        assert_eq!(
            row.get(0),
            Some(&Value::Int(key as i64 + 1)),
            "row {key} lost"
        );
        if key < 40 {
            assert_eq!(row.get(3), Some(&Value::Int(-7)), "update {key} lost");
        } else {
            assert_eq!(row.get(3), Some(&Value::Int(key as i64 + 4)));
        }
    }
}

// ---------------------------------------------------------------------------
// Storage-fault matrix and chaos soak (CI: fault-matrix job, nightly soak)
// ---------------------------------------------------------------------------

fn fault_seeds() -> Vec<u64> {
    match std::env::var("LASER_FAULT_SEED") {
        Ok(raw) => {
            let seeds: Vec<u64> = raw
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            assert!(!seeds.is_empty(), "LASER_FAULT_SEED set but unparsable");
            seeds
        }
        Err(_) => vec![3, 0xBEEF],
    }
}

/// `(name, sync_wal_interval_ms)` of the durable WAL sync policies to run.
fn fault_policies() -> Vec<(&'static str, u64)> {
    match std::env::var("LASER_FAULT_SYNC_POLICY").ok().as_deref() {
        Some("always") => vec![("always", 0)],
        Some("interval") => vec![("interval", 10)],
        _ => vec![("always", 0), ("interval", 10)],
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// {LsmDb, LaserDb} × {fsync-transient, ENOSPC, slow-io} × {WAL sync policy}
/// × {seed}: every fault class heals on the live engine with zero
/// acked-write loss, in both level formats. The CI `fault-matrix` job drives
/// the policy and seed axes through `LASER_FAULT_SYNC_POLICY` /
/// `LASER_FAULT_SEED`, like the failover harness.
#[test]
fn storage_fault_matrix_heals_with_zero_acked_loss() {
    storage_fault_matrix::<LsmDb>();
    storage_fault_matrix::<LaserDb>();
}

fn storage_fault_matrix<E: TestEngine>() {
    let engine = E::NAME;
    for (policy, interval_ms) in fault_policies() {
        let options = E::test_options(true, interval_ms);
        for seed in fault_seeds() {
            eprintln!("scenario storage_fault engine={engine} policy={policy} seed={seed}");
            let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), seed);
            let db: E = open(Arc::clone(&storage), &options).unwrap();
            let mut acked: Vec<u64> = Vec::new();
            let mut next_key = 0u64;
            let mut ingest = |db: &E, acked: &mut Vec<u64>, count: u64| {
                for _ in 0..count {
                    let key = next_key;
                    next_key += 1;
                    if put(db, key, key).is_ok() {
                        acked.push(key);
                    }
                }
            };

            // Profile 1: transient fsync failures — masked or healed by the
            // WAL's rotation recovery.
            ingest(&db, &mut acked, 20);
            faults.fail_syncs(2);
            ingest(&db, &mut acked, 10);

            // Profile 2: ENOSPC — graceful read-only degradation, reads keep
            // serving, recovery once space frees up.
            faults.set_disk_full(true);
            ingest(&db, &mut acked, 5);
            let probe = acked[0];
            assert_eq!(
                get(&db, probe),
                row::<E>(probe),
                "[{engine}/{policy}/{seed}] reads must keep serving under ENOSPC"
            );
            faults.set_disk_full(false);
            ingest(&db, &mut acked, 10);

            // Profile 3: slow I/O — absorbed, never refused.
            faults.set_latency(Duration::from_micros(500));
            let before = acked.len();
            ingest(&db, &mut acked, 10);
            assert_eq!(
                acked.len(),
                before + 10,
                "[{engine}/{policy}/{seed}] latency alone must not refuse writes"
            );
            faults.clear();

            assert!(
                db.degraded_info().is_none(),
                "[{engine}/{policy}/{seed}] the engine must end the matrix healthy"
            );
            for key in &acked {
                assert_eq!(
                    get(&db, *key),
                    row::<E>(*key),
                    "[{engine}/{policy}/{seed}] acked key {key} lost on the live engine"
                );
            }
            drop(db); // the WAL syncs on drop, so reopen keeps both policies exact
            let db: E = open(Arc::clone(&storage), &options).unwrap();
            for key in &acked {
                assert_eq!(
                    get(&db, *key),
                    row::<E>(*key),
                    "[{engine}/{policy}/{seed}] acked key {key} lost across reopen"
                );
            }
        }
    }
}

/// Nightly chaos soak: a seeded randomized fault schedule — transient fsync
/// bursts, torn appends, ENOSPC windows, transient EIO, latency — against a
/// live engine of each format. The invariant checked after every heal: every
/// acknowledged write is readable, on the live engine and across a final
/// reopen. `CHAOS_ROUNDS` scales the duration (default 25 rounds per seed).
#[test]
#[ignore = "nightly soak — run with --ignored; CHAOS_ROUNDS scales duration"]
fn chaos_soak_every_acked_write_readable_after_heal() {
    chaos_soak::<LsmDb>();
    chaos_soak::<LaserDb>();
}

fn chaos_soak<E: TestEngine>() {
    let engine = E::NAME;
    let rounds: u64 = std::env::var("CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let options = E::test_options(true, 0);
    for seed in fault_seeds() {
        eprintln!("scenario chaos_soak engine={engine} seed={seed} rounds={rounds}");
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), seed);
        let db: E = open(Arc::clone(&storage), &options).unwrap();
        let mut acked = std::collections::BTreeSet::new();
        let mut rng = seed | 1;
        let mut next_key = 0u64;
        for round in 0..rounds {
            match xorshift(&mut rng) % 5 {
                0 => faults.fail_syncs(xorshift(&mut rng) % 3 + 1),
                1 => faults.tear_appends(1),
                2 => faults.set_disk_full(true),
                3 => faults.set_eio_per_mille(150),
                _ => faults.set_latency(Duration::from_micros(200)),
            }
            for _ in 0..20 {
                let key = next_key;
                next_key += 1;
                if put(&db, key, key).is_ok() {
                    acked.insert(key);
                }
            }
            // Heal; the next write must recover the engine and be acked.
            faults.clear();
            let probe = next_key;
            next_key += 1;
            put(&db, probe, probe).unwrap_or_else(|e| {
                panic!("{engine} seed {seed} round {round}: post-heal write not acked: {e}")
            });
            acked.insert(probe);
            for key in acked.iter().step_by(7) {
                assert_eq!(
                    get(&db, *key),
                    row::<E>(*key),
                    "{engine} seed {seed} round {round}: acked key {key} lost after heal"
                );
            }
        }
        drop(db);
        let db: E = open(storage, &options).unwrap();
        for key in &acked {
            assert_eq!(
                get(&db, *key),
                row::<E>(*key),
                "{engine} seed {seed}: acked key {key} lost across the final reopen"
            );
        }
    }
}
