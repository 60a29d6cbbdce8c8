//! Integration tests for the background maintenance subsystem: scheduler
//! lifecycle, concurrent ingest correctness, and write-side backpressure,
//! for both the plain LSM engine and the LASER engine.

use std::sync::Arc;
use std::thread;

use laser::lsm_storage::{JobScheduler, LsmDb, LsmOptions};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, Schema, Value};

fn lsm_options() -> LsmOptions {
    let mut options = LsmOptions::small_for_tests();
    options.auto_compact = false;
    options.memtable_size_bytes = 4 << 10;
    options
}

#[test]
fn concurrent_writers_with_background_compaction_preserve_all_keys() {
    let db = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let scheduler = db.attach_maintenance(2).unwrap();

    const WRITERS: u64 = 4;
    const KEYS_PER_WRITER: u64 = 600;
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..KEYS_PER_WRITER {
                let key = w * KEYS_PER_WRITER + i;
                db.put(key, format!("value-{key}").into_bytes()).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    scheduler.wait_idle();
    // Drain whatever is still buffered, then settle the tree.
    db.flush().unwrap();
    db.compact_until_stable().unwrap();

    for key in 0..WRITERS * KEYS_PER_WRITER {
        assert_eq!(
            db.get(key).unwrap(),
            Some(format!("value-{key}").into_bytes()),
            "key {key} lost under concurrent background maintenance"
        );
    }
    let stats = db.stats();
    assert!(stats.flushes > 0, "background flushes should have run");
    assert!(
        stats.bg_jobs_completed > 0,
        "background jobs should have completed"
    );
    assert_eq!(
        stats.bg_jobs_failed, 0,
        "no background job may fail: {:?}",
        stats
    );
}

#[test]
fn drop_while_busy_joins_cleanly_and_loses_no_writes() {
    let db = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let scheduler = db.attach_maintenance(3).unwrap();

    for key in 0..2_000u64 {
        db.put(key, key.to_le_bytes().to_vec()).unwrap();
    }
    // Drop the scheduler while jobs are (very likely) still queued. Drop must
    // drain everything already enqueued and join the workers.
    drop(scheduler);

    // The engine keeps working in foreground mode afterwards.
    for key in 2_000..2_100u64 {
        db.put(key, key.to_le_bytes().to_vec()).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    for key in 0..2_100u64 {
        assert_eq!(
            db.get(key).unwrap(),
            Some(key.to_le_bytes().to_vec()),
            "key {key} lost across scheduler shutdown"
        );
    }
}

#[test]
fn backpressure_stalls_writers_under_l0_pileup() {
    let mut options = lsm_options();
    options.memtable_size_bytes = 1 << 10;
    options.l0_slowdown_files = 1;
    options.l0_stall_files = 2;
    options.max_pending_jobs = 4;
    let db = Arc::new(LsmDb::open_in_memory(options).unwrap());
    let scheduler = db.attach_maintenance(1).unwrap();

    for key in 0..1_500u64 {
        db.put(key, vec![7u8; 64]).unwrap();
    }
    scheduler.wait_idle();
    db.flush().unwrap();

    let stats = db.stats();
    assert!(
        stats.stall_events + stats.slowdown_events > 0,
        "aggressive thresholds must throttle the writer: {stats:?}"
    );
    assert!(stats.bg_jobs_completed > 0);
    for key in (0..1_500u64).step_by(113) {
        assert_eq!(db.get(key).unwrap(), Some(vec![7u8; 64]));
    }
}

#[test]
fn laser_concurrent_ingest_with_background_cg_compaction() {
    const COLS: usize = 8;
    let schema = Schema::with_columns(COLS);
    let mut options = LaserOptions::small_for_tests(LayoutSpec::equi_width(&schema, 5, 2));
    options.auto_compact = false;
    options.memtable_size_bytes = 8 << 10;
    options.block_cache_bytes = 256 << 10;
    let db = Arc::new(LaserDb::open(lsm_storage::storage::MemStorage::new_ref(), options).unwrap());
    let scheduler = db.attach_maintenance(2).unwrap();

    const WRITERS: u64 = 3;
    const KEYS_PER_WRITER: u64 = 400;
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..KEYS_PER_WRITER {
                let key = w * KEYS_PER_WRITER + i;
                db.insert_int_row(key, key as i64).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    scheduler.wait_idle();
    db.flush().unwrap();
    db.compact_until_stable().unwrap();

    let projection = Projection::all(&schema);
    for key in 0..WRITERS * KEYS_PER_WRITER {
        let row = db
            .read(key, &projection)
            .unwrap()
            .unwrap_or_else(|| panic!("key {key} lost under background CG compaction"));
        assert_eq!(row.get(0), Some(&Value::Int(key as i64 + 1)));
        assert_eq!(
            row.get(COLS - 1),
            Some(&Value::Int(key as i64 + COLS as i64))
        );
    }
    let stats = db.stats();
    assert!(stats.flushes > 0);
    assert!(
        stats.compactions > 0,
        "CG-local compactions should have run in background"
    );
    assert!(stats.bg_jobs_completed > 0);
    assert_eq!(stats.bg_jobs_failed, 0);
}

#[test]
fn equal_stall_and_slowdown_thresholds_make_progress() {
    // Regression: with stall == slowdown, a stalled writer must still find a
    // runnable compaction (the L0 count trigger fires *at* the threshold,
    // not past it), or backpressure would wait forever.
    let mut options = lsm_options();
    options.memtable_size_bytes = 1 << 10;
    options.l0_slowdown_files = 2;
    options.l0_stall_files = 2;
    let db = Arc::new(LsmDb::open_in_memory(options).unwrap());
    let scheduler = db.attach_maintenance(1).unwrap();
    for key in 0..800u64 {
        db.put(key, vec![5u8; 64]).unwrap();
    }
    scheduler.wait_idle();
    db.flush().unwrap();
    for key in (0..800u64).step_by(61) {
        assert_eq!(db.get(key).unwrap(), Some(vec![5u8; 64]));
    }
}

#[test]
fn freeze_and_schedule_enqueues_the_flush_immediately() {
    let db = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let scheduler = db.attach_maintenance(2).unwrap();

    // Far below the memtable threshold: the write path would never freeze.
    for key in 0..20u64 {
        db.put(key, vec![3u8; 16]).unwrap();
    }
    assert!(db.freeze_and_schedule().unwrap());
    // No further writes: the flush must happen from the enqueued job alone.
    scheduler.wait_idle();
    let stats = db.stats();
    assert!(
        stats.flushes >= 1,
        "freeze_and_schedule must flush without another write-path trigger: {stats:?}"
    );
    assert_eq!(db.memtable_len(), 0);
    assert!(stats.bg_jobs_completed >= 1);
    for key in 0..20u64 {
        assert_eq!(db.get(key).unwrap(), Some(vec![3u8; 16]));
    }
    // An empty memtable is a no-op.
    assert!(!db.freeze_and_schedule().unwrap());
}

#[test]
fn freeze_and_schedule_without_scheduler_drains_inline() {
    let db = LsmDb::open_in_memory(lsm_options()).unwrap();
    for key in 0..10u64 {
        db.put(key, vec![9u8; 16]).unwrap();
    }
    assert!(db.freeze_and_schedule().unwrap());
    assert_eq!(db.memtable_len(), 0);
    assert!(db.stats().flushes >= 1, "inline drain must have flushed");
    for key in 0..10u64 {
        assert_eq!(db.get(key).unwrap(), Some(vec![9u8; 16]));
    }
}

#[test]
fn laser_freeze_and_schedule_enqueues_the_flush() {
    let schema = Schema::with_columns(4);
    let mut options = LaserOptions::small_for_tests(LayoutSpec::row_store(&schema, 4));
    options.auto_compact = false;
    let db = Arc::new(LaserDb::open_in_memory(options).unwrap());
    let scheduler = db.attach_maintenance(1).unwrap();
    for key in 0..15u64 {
        db.insert_int_row(key, key as i64).unwrap();
    }
    assert!(db.freeze_and_schedule().unwrap());
    scheduler.wait_idle();
    let stats = db.stats();
    assert!(stats.flushes >= 1, "{stats:?}");
    assert_eq!(db.memtable_len(), 0);
    let projection = Projection::all(&schema);
    for key in 0..15u64 {
        assert!(db.read(key, &projection).unwrap().is_some());
    }
}

#[test]
fn attach_twice_is_rejected() {
    let db = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let _scheduler = db.attach_maintenance(1).unwrap();
    assert!(db.attach_maintenance(1).is_err());
}

#[test]
fn foreground_apis_still_work_with_scheduler_attached() {
    let db = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let scheduler = db.attach_maintenance(2).unwrap();
    for key in 0..300u64 {
        db.put(key, vec![1u8; 32]).unwrap();
    }
    // Deterministic settling via the foreground API while workers are live.
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    scheduler.wait_idle();
    for key in 0..300u64 {
        assert_eq!(db.get(key).unwrap(), Some(vec![1u8; 32]));
    }
}

#[test]
fn engines_sharing_a_pool_count_only_their_own_jobs() {
    let scheduler = JobScheduler::start_pool(1);
    let a = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    let b = Arc::new(LsmDb::open_in_memory(lsm_options()).unwrap());
    a.register_maintenance(&scheduler.client()).unwrap();
    b.register_maintenance(&scheduler.client()).unwrap();
    for key in 0..400u64 {
        a.put(key, vec![2u8; 64]).unwrap();
    }
    scheduler.wait_idle();
    let (a_stats, b_stats) = (a.stats(), b.stats());
    assert!(a_stats.flushes > 0, "{a_stats:?}");
    assert!(a_stats.bg_jobs_completed > 0, "{a_stats:?}");
    assert_eq!(
        b_stats.bg_jobs_completed, 0,
        "an idle engine must not report the shared pool's jobs: {b_stats:?}"
    );
    assert_eq!(
        scheduler.state().completed_jobs(),
        a_stats.bg_jobs_completed,
        "the pool totals every engine's jobs"
    );
}
