//! Integration tests for the range-sharding subsystem: routing, cross-shard
//! scan ordering and snapshot consistency, batch split/ack semantics,
//! shard-manifest reopen, the shared maintenance pool, the process-wide
//! block cache with per-shard accounting across both engine types, and
//! online re-sharding (live splits, crash safety of the two-phase manifest
//! swap, split-policy triggering, cache-scope retirement).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use laser::laser_sharding::manifest::{read_split_intent, write_split_intent, SplitIntent};
use laser::laser_sharding::{MemShardStorage, ShardStorageProvider, ShardedDb, ShardedOptions};
use laser::lsm_storage::cache::ENTRY_OVERHEAD;
use laser::lsm_storage::types::WriteBatch;
use laser::lsm_storage::{BlockCache, EngineMaintenance, LsmDb, LsmOptions, TableOptions};
use laser::{
    DirShardStorage, LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema,
    SplitFailpoint, SplitPolicy,
};

fn lsm_options() -> LsmOptions {
    let mut options = LsmOptions::small_for_tests();
    options.auto_compact = false;
    options
}

/// Four shards over the key range the tests use (0..4000 and beyond).
fn four_shard_options() -> ShardedOptions {
    ShardedOptions::with_boundaries(vec![1000, 2000, 3000])
}

#[test]
fn point_ops_route_to_owning_shards() {
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), four_shard_options()).unwrap();
    assert_eq!(db.num_shards(), 4);

    // One key per shard, then overwrite and delete across shards.
    for key in [10u64, 1010, 2010, 3010] {
        db.put(key, key.to_le_bytes().to_vec()).unwrap();
    }
    for key in [10u64, 1010, 2010, 3010] {
        assert_eq!(db.get(key, &()).unwrap(), Some(key.to_le_bytes().to_vec()));
    }
    db.put(1010, b"v2".to_vec()).unwrap();
    db.delete(2010).unwrap();
    assert_eq!(db.get(1010, &()).unwrap(), Some(b"v2".to_vec()));
    assert_eq!(db.get(2010, &()).unwrap(), None);
    assert_eq!(db.get(999_999, &()).unwrap(), None);

    // Every shard saw exactly its own writes.
    let seqs: Vec<u64> = db.shards().iter().map(|s| s.last_seq()).collect();
    assert_eq!(seqs, vec![1, 2, 2, 1]);
}

/// The acceptance-criterion equivalence: a cross-shard `scan_at` must return
/// byte-identical rows to an equivalent single-shard engine for the same
/// workload trace.
#[test]
fn cross_shard_scan_is_byte_identical_to_single_shard_engine() {
    let provider = MemShardStorage::new_ref();
    let sharded: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), four_shard_options()).unwrap();
    let single = LsmDb::open_in_memory(lsm_options()).unwrap();

    // A deterministic trace with overwrites, deletes and multi-shard
    // batches, interleaved across the shard ranges.
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for round in 0..3 {
        let mut batch = WriteBatch::new();
        for i in 0..600u64 {
            let key = next() % 4000;
            match next() % 10 {
                0 => {
                    batch.delete(key);
                }
                _ => {
                    batch.put(key, format!("r{round}-i{i}-k{key}").into_bytes());
                }
            }
            if batch.len() == 50 {
                sharded.write(&batch).unwrap();
                single.write(&batch).unwrap();
                batch = WriteBatch::new();
            }
        }
        if !batch.is_empty() {
            sharded.write(&batch).unwrap();
            single.write(&batch).unwrap();
        }
        // Exercise the on-disk read path too, not just memtables.
        sharded.flush().unwrap();
        single.flush().unwrap();
    }
    sharded.compact_until_stable().unwrap();
    single.compact_until_stable().unwrap();

    let snapshot = sharded.latest_snapshot();
    let full_sharded = sharded.scan_at(0, 4000, &(), &snapshot).unwrap();
    let full_single = single.scan(0, 4000).unwrap();
    assert!(!full_single.is_empty());
    assert_eq!(
        full_sharded, full_single,
        "full scans must be byte-identical"
    );

    // Windows crossing each boundary, inside one shard, and degenerate.
    for (lo, hi) in [
        (900, 1100),
        (0, 999),
        (1500, 3500),
        (2000, 2000),
        (3999, 4000),
    ] {
        assert_eq!(
            sharded.scan_at(lo, hi, &(), &snapshot).unwrap(),
            single.scan(lo, hi).unwrap(),
            "scan window [{lo}, {hi}] diverged"
        );
    }

    // Order sanity: concatenation in shard order is globally sorted.
    assert!(full_sharded.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn snapshots_never_observe_half_of_a_cross_shard_batch() {
    let provider = MemShardStorage::new_ref();
    let options = ShardedOptions::with_boundaries(vec![500]).fanout_threads(2);
    let db: Arc<ShardedDb<LsmDb>> =
        Arc::new(ShardedDb::open(provider, lsm_options(), options).unwrap());

    let done = Arc::new(AtomicBool::new(false));
    // One writer issues batches that write the SAME version byte to one key
    // on each shard; snapshot consistency means a reader can never see the
    // two keys at different versions. The writer is bounded so the versions
    // the reader must skip past stay small.
    const VERSIONS: u64 = 1200;
    let writer = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for version in 1..=VERSIONS {
                let mut batch = WriteBatch::new();
                batch.put(100, version.to_le_bytes().to_vec());
                batch.put(900, version.to_le_bytes().to_vec());
                db.write(&batch).unwrap();
                if version % 16 == 0 {
                    thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        })
    };

    let mut consistent_reads = 0u64;
    let mut racing_reads = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let snapshot = db.snapshot();
        let a = db.get_at(100, &(), &snapshot).unwrap();
        let b = db.get_at(900, &(), &snapshot).unwrap();
        assert_eq!(a, b, "snapshot observed a torn cross-shard batch");
        if a.is_some() {
            consistent_reads += 1;
        }
        // The scan path must hold the same invariant.
        let rows = db.scan_at(0, 1000, &(), &snapshot).unwrap();
        if rows.len() == 2 {
            assert_eq!(rows[0].1, rows[1].1);
        } else {
            assert!(rows.len() < 2, "only keys 100 and 900 exist");
        }
        if finished {
            break;
        }
        racing_reads += 1;
    }
    writer.join().unwrap();
    assert!(consistent_reads > 0, "reader never saw any data");
    // The final snapshot (taken after the writer finished) sees the last
    // version on both shards.
    let snapshot = db.snapshot();
    assert_eq!(
        db.get_at(100, &(), &snapshot).unwrap(),
        Some(VERSIONS.to_le_bytes().to_vec())
    );
    // `racing_reads` only documents that some reads raced the writer; zero
    // is acceptable on a slow machine.
    let _ = racing_reads;
}

#[test]
fn batch_split_applies_every_entry_and_acks_once() {
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), four_shard_options()).unwrap();

    // Seed a key so the batch's delete has something to kill.
    db.put(2500, b"doomed".to_vec()).unwrap();

    let mut batch = WriteBatch::new();
    batch.put(1, b"s0".to_vec());
    batch.put(1500, b"s1".to_vec());
    batch.put(1600, b"s1-second".to_vec());
    batch.delete(2500);
    batch.put(3999, b"s3".to_vec());
    db.write(&batch).unwrap();

    // Once write() returns, every sub-batch is applied and durable-per-policy.
    assert_eq!(db.get(1, &()).unwrap(), Some(b"s0".to_vec()));
    assert_eq!(db.get(1500, &()).unwrap(), Some(b"s1".to_vec()));
    assert_eq!(db.get(1600, &()).unwrap(), Some(b"s1-second".to_vec()));
    assert_eq!(db.get(2500, &()).unwrap(), None);
    assert_eq!(db.get(3999, &()).unwrap(), Some(b"s3".to_vec()));

    // Each shard assigned seqs only for its own entries: 1 + seed, 2, 1, 1.
    let seqs: Vec<u64> = db.shards().iter().map(|s| s.last_seq()).collect();
    assert_eq!(seqs, vec![1, 2, 2, 1]);

    let stats = db.stats();
    assert_eq!(stats.batches, 2, "the seed put plus the split batch");
    assert_eq!(stats.cross_shard_batches, 1);

    // An empty batch is a no-op, not a cross-shard write.
    db.write(&WriteBatch::new()).unwrap();
    assert_eq!(db.stats().batches, 2);
}

#[test]
fn shard_manifest_pins_topology_across_reopen() {
    let provider = MemShardStorage::new_ref();
    {
        let db: ShardedDb<LsmDb> =
            ShardedDb::open(provider.clone(), lsm_options(), four_shard_options()).unwrap();
        for key in (0..4000u64).step_by(37) {
            db.put(key, key.to_be_bytes().to_vec()).unwrap();
        }
        db.close().unwrap();
    }
    // Reopen requesting a DIFFERENT topology: the persisted manifest wins.
    let reopened: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), ShardedOptions::with_shards(2)).unwrap();
    assert_eq!(reopened.num_shards(), 4);
    assert_eq!(reopened.router().boundaries(), &[1000, 2000, 3000]);
    for key in (0..4000u64).step_by(37) {
        assert_eq!(
            reopened.get(key, &()).unwrap(),
            Some(key.to_be_bytes().to_vec()),
            "key {key} lost across reopen"
        );
    }
    let all = reopened.scan(0, 4000, &()).unwrap();
    assert_eq!(all.len(), (0..4000u64).step_by(37).count());
}

#[test]
fn dir_shard_storage_reopens_from_disk() {
    let dir = std::env::temp_dir().join(format!("laser-sharding-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let provider = Arc::new(DirShardStorage::new(&dir));
    {
        let db: ShardedDb<LsmDb> = ShardedDb::open(
            provider.clone(),
            lsm_options(),
            ShardedOptions::with_boundaries(vec![100]),
        )
        .unwrap();
        db.put(5, b"left".to_vec()).unwrap();
        db.put(500, b"right".to_vec()).unwrap();
        // Unflushed writes recover from each shard's own WAL segments.
    }
    assert!(dir.join("SHARDS").exists());
    assert!(dir.join("shard-000").is_dir());
    assert!(dir.join("shard-001").is_dir());
    let reopened: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), ShardedOptions::with_shards(1)).unwrap();
    assert_eq!(reopened.num_shards(), 2);
    assert_eq!(reopened.get(5, &()).unwrap(), Some(b"left".to_vec()));
    assert_eq!(reopened.get(500, &()).unwrap(), Some(b"right".to_vec()));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_maintenance_pool_serves_all_shards() {
    let provider = MemShardStorage::new_ref();
    let mut engine_options = lsm_options();
    engine_options.memtable_size_bytes = 4 << 10;
    let options = four_shard_options().maintenance_workers(3);
    let db: Arc<ShardedDb<LsmDb>> =
        Arc::new(ShardedDb::open(provider, engine_options, options).unwrap());
    assert_eq!(db.maintenance_workers(), 3);

    let mut handles = Vec::new();
    for writer in 0..4u64 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..400u64 {
                let key = (writer * 1000) + (i % 1000);
                db.put(key, vec![writer as u8; 64]).unwrap();
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    db.wait_maintenance_idle();

    let stats = db.stats();
    assert!(
        stats.bg_jobs_completed > 0,
        "background jobs must have run on the shared pool"
    );
    assert_eq!(stats.bg_jobs_pending, 0);
    // Every shard flushed in the background (each got ~400 * 64B writes
    // against a 4 KiB memtable).
    for (index, shard) in db.shards().iter().enumerate() {
        assert!(
            shard.stats().flushes > 0,
            "shard {index} never flushed in the background"
        );
    }
    for writer in 0..4u64 {
        for i in (0..400u64).step_by(41) {
            let key = writer * 1000 + i;
            assert_eq!(db.get(key, &()).unwrap(), Some(vec![writer as u8; 64]));
        }
    }
}

#[test]
fn process_wide_cache_accounts_bytes_per_shard_and_across_engines() {
    const BUDGET: usize = 256 << 10;
    let cache = BlockCache::new(BUDGET);

    // Two sharded databases of DIFFERENT engine types share the one cache.
    let kv_provider = MemShardStorage::new_ref();
    let kv: ShardedDb<LsmDb> = ShardedDb::open_with_cache(
        kv_provider,
        lsm_options(),
        ShardedOptions::with_boundaries(vec![500]),
        Some(Arc::clone(&cache)),
    )
    .unwrap();

    let schema = Schema::with_columns(4);
    let layout = LayoutSpec::row_store(&schema, 4);
    let mut laser_options = LaserOptions::small_for_tests(layout);
    laser_options.auto_compact = false;
    let laser_provider = MemShardStorage::new_ref();
    let laser: ShardedDb<LaserDb> = ShardedDb::open_with_cache(
        laser_provider,
        laser_options,
        ShardedOptions::with_boundaries(vec![500]),
        Some(Arc::clone(&cache)),
    )
    .unwrap();

    for key in 0..1000u64 {
        kv.put(key, vec![key as u8; 48]).unwrap();
        laser
            .put(key, RowFragment::int_row(&schema, key as i64).encode(4))
            .unwrap();
    }
    kv.flush().unwrap();
    laser.flush().unwrap();

    // Read-heavy phase pulls blocks of all four shards into the one cache.
    let projection = Projection::of([0, 1]);
    for key in (0..1000u64).step_by(3) {
        kv.get(key, &()).unwrap();
        laser.get(key, &projection).unwrap();
    }

    let stats = cache.stats();
    assert!(stats.hits + stats.misses > 0, "cache never consulted");
    assert!(
        stats.used_bytes <= BUDGET as u64,
        "global budget exceeded: {} > {BUDGET}",
        stats.used_bytes
    );
    // Per-shard accounting: both engines' shards hold attributable bytes,
    // and the scopes sum to exactly the global usage.
    let kv_bytes = kv.stats().per_shard_cache_bytes;
    let laser_bytes = laser.stats().per_shard_cache_bytes;
    assert_eq!(kv_bytes.len(), 2);
    assert_eq!(laser_bytes.len(), 2);
    assert!(kv_bytes.iter().all(|&b| b > 0), "kv shards: {kv_bytes:?}");
    assert!(
        laser_bytes.iter().all(|&b| b > 0),
        "laser shards: {laser_bytes:?}"
    );
    let accounted: u64 = cache.scope_usage().iter().sum();
    assert_eq!(accounted, stats.used_bytes);
    // Blocks are cached encoded and charged what they hold: no entry weighs
    // more than one data block (which may overshoot its target size by an
    // entry) plus its restart array and the fixed overhead.
    let block_size = TableOptions::default().block_size as u64;
    assert!(
        stats.used_bytes <= stats.entries * (block_size + 512 + ENTRY_OVERHEAD as u64),
        "{} bytes charged for {} blocks",
        stats.used_bytes,
        stats.entries
    );
}

#[test]
fn sharded_laser_scan_with_projection_matches_unsharded() {
    let schema = Schema::with_columns(6);
    let layout = LayoutSpec::equi_width(&schema, 5, 3);
    let mut options = LaserOptions::small_for_tests(layout);
    options.auto_compact = false;
    let columns = schema.num_columns();

    let provider = MemShardStorage::new_ref();
    let sharded: ShardedDb<LaserDb> = ShardedDb::open(
        provider,
        options.clone(),
        ShardedOptions::with_boundaries(vec![400, 800]),
    )
    .unwrap();
    let single = LaserDb::open_in_memory(options).unwrap();

    for key in 0..1200u64 {
        let fragment = RowFragment::int_row(&schema, key as i64 * 3);
        sharded.put(key, fragment.encode(columns)).unwrap();
        single.insert(key, fragment).unwrap();
    }
    sharded.flush().unwrap();
    single.flush().unwrap();

    for projection in [
        Projection::of([0]),
        Projection::of([1, 4]),
        Projection::all(&schema),
    ] {
        let got = sharded.scan(100, 1100, &projection).unwrap();
        let expected = single.scan(100, 1100, &projection).unwrap();
        assert_eq!(got.len(), expected.len());
        for ((gk, gv), (ek, ev)) in got.iter().zip(expected.iter()) {
            assert_eq!(gk, ek);
            assert_eq!(
                gv.encode(columns),
                ev.encode(columns),
                "row for key {gk} not byte-identical"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Online re-sharding
// ---------------------------------------------------------------------------

/// Ingests a deterministic trace slice `[from, to)` into `db` (puts with a
/// delete sprinkled in), mirroring it into `control`.
fn ingest_slice(db: &ShardedDb<LsmDb>, control: &ShardedDb<LsmDb>, from: u64, to: u64) {
    let mut batch = WriteBatch::new();
    for key in from..to {
        if key % 19 == 3 {
            batch.delete(key.wrapping_mul(31) % 4000);
        } else {
            batch.put(key % 4000, format!("v-{key}").into_bytes());
        }
        if batch.len() == 40 {
            db.write(&batch).unwrap();
            control.write(&batch).unwrap();
            batch = WriteBatch::new();
        }
    }
    if !batch.is_empty() {
        db.write(&batch).unwrap();
        control.write(&batch).unwrap();
    }
}

#[test]
fn split_shard_live_preserves_data_and_matches_no_split_trace() {
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> =
        ShardedDb::open(provider.clone(), lsm_options(), four_shard_options()).unwrap();
    let control: ShardedDb<LsmDb> = ShardedDb::open(
        MemShardStorage::new_ref(),
        lsm_options(),
        four_shard_options(),
    )
    .unwrap();

    // Half the trace, flush (so the split has SSTs to adopt), checkpoint.
    ingest_slice(&db, &control, 0, 3000);
    db.flush().unwrap();
    control.flush().unwrap();
    assert_eq!(
        db.scan(0, 4000, &()).unwrap(),
        control.scan(0, 4000, &()).unwrap()
    );

    // Split the second shard (owns [1000, 2000)) at 1500, live.
    db.split_shard(1, 1500).unwrap();
    assert_eq!(db.num_shards(), 5);
    assert_eq!(db.router().boundaries(), &[1000, 1500, 2000, 3000]);
    assert_eq!(db.stats().splits, 1);
    assert_eq!(db.stats().epoch, 1);

    // Scans right after the split are byte-identical to the no-split trace.
    assert_eq!(
        db.scan(0, 4000, &()).unwrap(),
        control.scan(0, 4000, &()).unwrap()
    );
    assert_eq!(
        db.scan(1200, 1800, &()).unwrap(),
        control.scan(1200, 1800, &()).unwrap(),
        "window across the new boundary diverged"
    );

    // Without a scheduler the children were trimmed inline: no child SST
    // carries out-of-range entries, and every file's range fits its shard.
    let router = db.router();
    for (index, shard) in db.shards().iter().enumerate() {
        let (lo, hi) = router.shard_range(index);
        assert!(!shard.needs_trim(), "shard {index} still needs a trim");
        for meta in shard.level_files().iter().flatten() {
            assert!(
                meta.min_user_key >= lo && meta.max_user_key <= hi,
                "shard {index} file {meta:?} outside [{lo}, {hi}]"
            );
        }
    }

    // The rest of the trace lands on the new topology; results stay equal.
    ingest_slice(&db, &control, 3000, 6000);
    assert_eq!(
        db.scan(0, 4000, &()).unwrap(),
        control.scan(0, 4000, &()).unwrap()
    );

    // The committed topology survives a reopen.
    db.close().unwrap();
    drop(db);
    let reopened: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), ShardedOptions::with_shards(1)).unwrap();
    assert_eq!(reopened.num_shards(), 5);
    assert_eq!(reopened.router().boundaries(), &[1000, 1500, 2000, 3000]);
    assert_eq!(
        reopened.scan(0, 4000, &()).unwrap(),
        control.scan(0, 4000, &()).unwrap()
    );
}

/// The paper's engine splits like the row engine: key-bound trim is the
/// shell's, so the children of a `LaserDb` shard under the paper's `D-opt`
/// layout (data spread over several column-group levels) trim to completion
/// in the background, reclaim the out-of-range halves, and keep serving
/// byte-identical rows.
#[test]
fn laser_split_children_trim_to_completion() {
    const ROWS: u64 = 3000;
    let schema = Schema::with_columns(30);
    let all = Projection::all(&schema);
    let columns = schema.num_columns();
    let options = LaserOptions::small_for_tests(LayoutSpec::d_opt_paper(&schema).unwrap());
    let db: ShardedDb<LaserDb> = ShardedDb::open(
        MemShardStorage::new_ref(),
        options,
        ShardedOptions::with_shards(1).maintenance_workers(2),
    )
    .unwrap();

    let mut batch = WriteBatch::new();
    for key in 0..ROWS {
        batch.put(
            key,
            RowFragment::int_row(&schema, key as i64).encode(columns),
        );
        if key % 7 == 0 {
            let update = RowFragment::from_cells(vec![(17, laser::Value::Int(-(key as i64)))]);
            batch.put_partial(key / 2, update.encode(columns));
        }
        if key % 41 == 0 {
            batch.delete(key / 3);
        }
        if batch.len() >= 40 {
            db.write(&batch).unwrap();
            batch = WriteBatch::new();
        }
    }
    db.write(&batch).unwrap();
    db.flush().unwrap();
    db.wait_maintenance_idle();
    db.compact_until_stable().unwrap();

    // `scan(all columns)` must agree with per-key `read`, for every key.
    let rows_matching_reads = |db: &ShardedDb<LaserDb>| {
        let rows = db.scan(0, ROWS, &all).unwrap();
        let mut scanned = rows.iter().peekable();
        for key in 0..ROWS {
            let read = db.get(key, &all).unwrap();
            let from_scan = scanned.next_if(|(k, _)| *k == key).map(|(_, row)| row);
            assert_eq!(from_scan, read.as_ref(), "scan and read disagree at {key}");
        }
        assert!(
            scanned.next().is_none(),
            "scan returned a key no read finds"
        );
        rows
    };
    let before = rows_matching_reads(&db);
    assert!(before.len() as u64 > ROWS / 2);

    let parent = Arc::clone(&db.shards()[0]);
    let cg_levels = parent
        .level_summaries()
        .iter()
        .filter(|level| level.column_groups.len() > 1 && level.total_bytes > 0)
        .count();
    assert!(cg_levels >= 2, "data must sit on several CG levels");
    let parent_bytes = parent.total_sst_bytes();

    db.split_shard(0, ROWS / 2).unwrap();
    db.wait_maintenance_idle();

    let children = db.shards();
    assert_eq!(children.len(), 2);
    for (index, child) in children.iter().enumerate() {
        assert!(!child.needs_trim(), "child {index} still needs a trim");
        let shell = laser::lsm_storage::EngineShell::stats(child);
        assert!(shell.trimmed_entries > 0, "child {index} trimmed nothing");
        assert!(shell.trim_compactions > 0);
    }
    let child_bytes: u64 = children.iter().map(|c| c.total_sst_bytes()).sum();
    assert!(
        child_bytes * 10 <= parent_bytes * 11,
        "children hold {child_bytes} bytes, parent held {parent_bytes}"
    );
    assert_eq!(rows_matching_reads(&db), before);
}

#[test]
fn split_on_dir_storage_hard_links_and_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("laser-split-dir-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let provider = Arc::new(DirShardStorage::new(&dir));
    {
        let db: ShardedDb<LsmDb> = ShardedDb::open(
            provider.clone(),
            lsm_options(),
            ShardedOptions::with_boundaries(vec![2000]),
        )
        .unwrap();
        for key in 0..2000u64 {
            db.put(key, vec![key as u8; 48]).unwrap();
        }
        db.flush().unwrap();
        db.split_shard(0, 1000).unwrap();
        assert_eq!(db.num_shards(), 3);
        // The parent slot directory was retired; the children got fresh ones.
        assert!(dir.join("shard-002").is_dir());
        assert!(dir.join("shard-003").is_dir());
        assert_eq!(std::fs::read_dir(dir.join("shard-000")).unwrap().count(), 0);
        for key in (0..2000u64).step_by(13) {
            assert_eq!(db.get(key, &()).unwrap(), Some(vec![key as u8; 48]));
        }
        db.close().unwrap();
    }
    let reopened: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), ShardedOptions::with_shards(1)).unwrap();
    assert_eq!(reopened.num_shards(), 3);
    assert_eq!(reopened.router().boundaries(), &[1000, 2000]);
    let rows = reopened.scan(0, 2000, &()).unwrap();
    assert_eq!(rows.len(), 2000);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn split_rejects_invalid_arguments() {
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), four_shard_options()).unwrap();
    db.put(1500, b"x".to_vec()).unwrap();
    // Split key must fall strictly inside the shard's range.
    assert!(db.split_shard(1, 1000).is_err());
    assert!(db.split_shard(1, 2000).is_err());
    assert!(db.split_shard(9, 1500).is_err());
    assert_eq!(db.num_shards(), 4);
    assert_eq!(db.get(1500, &()).unwrap(), Some(b"x".to_vec()));
}

#[test]
fn split_crash_before_commit_replays_the_old_topology() {
    for failpoint in [SplitFailpoint::AfterIntent, SplitFailpoint::AfterPrepare] {
        let provider = MemShardStorage::new_ref();
        {
            let db: ShardedDb<LsmDb> =
                ShardedDb::open(provider.clone(), lsm_options(), four_shard_options()).unwrap();
            for key in (0..4000u64).step_by(7) {
                db.put(key, key.to_le_bytes().to_vec()).unwrap();
            }
            db.flush().unwrap();
            let err = db
                .split_shard_with_failpoint(1, 1500, failpoint)
                .unwrap_err();
            assert!(err.to_string().contains("simulated crash"), "{err}");
            // The in-memory topology never changed.
            assert_eq!(db.num_shards(), 4);
            assert_eq!(db.stats().splits, 0);
            // Drop without cleanup: simulates the crash.
        }
        let reopened: ShardedDb<LsmDb> = ShardedDb::open(
            provider.clone(),
            lsm_options(),
            ShardedOptions::with_shards(1),
        )
        .unwrap();
        assert_eq!(reopened.num_shards(), 4, "{failpoint:?} must roll back");
        assert_eq!(reopened.router().boundaries(), &[1000, 2000, 3000]);
        for key in (0..4000u64).step_by(7) {
            assert_eq!(
                reopened.get(key, &()).unwrap(),
                Some(key.to_le_bytes().to_vec()),
                "key {key} lost rolling back {failpoint:?}"
            );
        }
        // The intent is gone and the half-prepared child slots are empty.
        let root = provider.root().unwrap();
        assert!(read_split_intent(&root).unwrap().is_none());
        for slot in [4usize, 5] {
            assert!(
                provider.shard(slot).unwrap().list().unwrap().is_empty(),
                "child slot {slot} not rolled back for {failpoint:?}"
            );
        }
        // After the rollback, the same split succeeds for real.
        reopened.split_shard(1, 1500).unwrap();
        assert_eq!(reopened.num_shards(), 5);
        assert_eq!(
            reopened.get(1505, &()).unwrap(),
            Some(1505u64.to_le_bytes().to_vec())
        );
    }
}

#[test]
fn split_crash_after_commit_replays_the_new_topology() {
    let provider = MemShardStorage::new_ref();
    {
        let db: ShardedDb<LsmDb> =
            ShardedDb::open(provider.clone(), lsm_options(), four_shard_options()).unwrap();
        for key in (0..4000u64).step_by(7) {
            db.put(key, key.to_le_bytes().to_vec()).unwrap();
        }
        db.flush().unwrap();
        db.split_shard(1, 1500).unwrap();
        assert_eq!(db.num_shards(), 5);
    }
    // Simulate a crash after the SHARDS commit but before cleanup: the
    // intent is still on disk and the retired parent slot still has files.
    // (Slots of a fresh 4-shard db are 0..3; the split allocated 4 and 5.)
    let root = provider.root().unwrap();
    write_split_intent(
        &root,
        &SplitIntent {
            parent_slot: 1,
            left_slot: 4,
            right_slot: 5,
            split_key: 1500,
        },
    )
    .unwrap();
    provider
        .shard(1)
        .unwrap()
        .create("stale-parent-file")
        .unwrap();

    let reopened: ShardedDb<LsmDb> = ShardedDb::open(
        provider.clone(),
        lsm_options(),
        ShardedOptions::with_shards(1),
    )
    .unwrap();
    assert_eq!(reopened.num_shards(), 5, "commit must roll forward");
    assert_eq!(reopened.router().boundaries(), &[1000, 1500, 2000, 3000]);
    for key in (0..4000u64).step_by(7) {
        assert_eq!(
            reopened.get(key, &()).unwrap(),
            Some(key.to_le_bytes().to_vec()),
            "key {key} lost rolling forward"
        );
    }
    let root = provider.root().unwrap();
    assert!(read_split_intent(&root).unwrap().is_none());
    assert!(
        provider.shard(1).unwrap().list().unwrap().is_empty(),
        "retired parent slot must be cleared on roll-forward"
    );
}

#[test]
fn snapshots_from_before_a_split_are_invalidated() {
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> =
        ShardedDb::open(provider, lsm_options(), four_shard_options()).unwrap();
    db.put(1500, b"x".to_vec()).unwrap();
    let snapshot = db.snapshot();
    assert_eq!(
        db.get_at(1500, &(), &snapshot).unwrap(),
        Some(b"x".to_vec())
    );
    db.split_shard(1, 1500).unwrap();
    assert!(db.get_at(1500, &(), &snapshot).is_err());
    assert!(db.scan_at(0, 4000, &(), &snapshot).is_err());
    // A fresh snapshot works against the new topology.
    let snapshot = db.snapshot();
    assert_eq!(
        db.get_at(1500, &(), &snapshot).unwrap(),
        Some(b"x".to_vec())
    );
}

#[test]
fn concurrent_scans_and_batches_stay_consistent_across_a_split() {
    let provider = MemShardStorage::new_ref();
    let options = ShardedOptions::with_boundaries(vec![2000]).fanout_threads(2);
    let db: Arc<ShardedDb<LsmDb>> =
        Arc::new(ShardedDb::open(provider, lsm_options(), options).unwrap());

    // The writer updates keys 500 and 3000 (different shards; after the
    // split, 500 and 1500 land on different *children*) with one version per
    // batch — the torn-batch invariant must hold across the split.
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for version in 1..=800u64 {
                let mut batch = WriteBatch::new();
                batch.put(500, version.to_le_bytes().to_vec());
                batch.put(1500, version.to_le_bytes().to_vec());
                batch.put(3000, version.to_le_bytes().to_vec());
                db.write(&batch).unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };
    let scanner = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut observed = 0u64;
            while !done.load(Ordering::Acquire) {
                let rows = db.scan(0, 4000, &()).unwrap();
                if !rows.is_empty() {
                    assert!(
                        rows.iter().all(|(_, v)| v == &rows[0].1),
                        "scan observed a torn batch across a split: {rows:?}"
                    );
                    observed += 1;
                }
                assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
            }
            observed
        })
    };

    // Let some writes land, then split the first shard under load.
    while db.shards()[0].last_seq() < 50 {
        thread::yield_now();
    }
    db.split_shard(0, 1000).unwrap();
    assert_eq!(db.num_shards(), 3);

    writer.join().unwrap();
    let observed = scanner.join().unwrap();
    assert!(observed > 0, "scanner never observed data");
    // Final state: all three keys at the last version.
    let rows = db.scan(0, 4000, &()).unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows
        .iter()
        .all(|(_, v)| v == &800u64.to_le_bytes().to_vec()));
}

#[test]
fn retired_parent_cache_scope_is_drained_after_split() {
    const BUDGET: usize = 512 << 10;
    let cache = BlockCache::new(BUDGET);
    let provider = MemShardStorage::new_ref();
    let db: ShardedDb<LsmDb> = ShardedDb::open_with_cache(
        provider,
        lsm_options(),
        ShardedOptions::with_boundaries(vec![2000]),
        Some(Arc::clone(&cache)),
    )
    .unwrap();

    for key in 0..2000u64 {
        db.put(key, vec![key as u8; 64]).unwrap();
    }
    db.flush().unwrap();
    for key in (0..2000u64).step_by(3) {
        db.get(key, &()).unwrap();
    }
    let before = db.stats();
    assert!(
        before.per_shard_cache_bytes[0] > 0,
        "hot shard holds no cache bytes: {before:?}"
    );

    db.split_shard(0, 1000).unwrap();

    // The retired parent's scope was drained: every resident byte is
    // attributable to a *live* shard and the global accounting balances.
    let accounted: u64 = cache.scope_usage().iter().sum();
    assert_eq!(accounted, cache.stats().used_bytes);
    let after = db.stats();
    assert_eq!(after.per_shard_cache_bytes.len(), 3);
    let live_total: u64 = after.per_shard_cache_bytes.iter().sum();
    assert_eq!(live_total, cache.stats().used_bytes);

    // Reads through the children repopulate the cache under their scopes.
    for key in (0..2000u64).step_by(3) {
        assert_eq!(db.get(key, &()).unwrap(), Some(vec![key as u8; 64]));
    }
    let repopulated = db.stats().per_shard_cache_bytes;
    assert!(repopulated[0] > 0 && repopulated[1] > 0, "{repopulated:?}");
}

#[test]
fn split_policy_auto_splits_the_hot_shard() {
    let provider = MemShardStorage::new_ref();
    let policy = SplitPolicy {
        max_resident_bytes: 48 << 10,
        max_ingest_bytes: 0,
        split_pending_jobs: 0,
        max_shards: 4,
        check_every_batches: 4,
    };
    let db: ShardedDb<LsmDb> = ShardedDb::open(
        provider,
        lsm_options(),
        ShardedOptions::with_boundaries(vec![1 << 32]).split_policy(policy),
    )
    .unwrap();

    // Skewed ingest: everything lands on shard 0.
    let mut batch = WriteBatch::new();
    for key in 0..4000u64 {
        batch.put(key, vec![key as u8; 64]);
        if batch.len() == 16 {
            db.write(&batch).unwrap();
            batch = WriteBatch::new();
        }
        if key % 500 == 499 {
            db.flush().unwrap();
        }
    }
    if !batch.is_empty() {
        db.write(&batch).unwrap();
    }

    let stats = db.stats();
    assert!(
        stats.splits >= 1,
        "the hot shard was never split automatically: {stats:?}"
    );
    assert!(db.num_shards() > 2 && db.num_shards() <= 4);
    assert_eq!(stats.auto_split_failures, 0);
    // All data survived the automatic re-sharding.
    let rows = db.scan(0, 4000, &()).unwrap();
    assert_eq!(rows.len(), 4000);
    for (i, (key, value)) in rows.iter().enumerate() {
        assert_eq!(*key, i as u64);
        assert_eq!(value, &vec![*key as u8; 64]);
    }
}

/// Nightly soak: repeated splits under sustained concurrent load, verified
/// against a no-split control each round. Run with `-- --ignored` (the
/// nightly workflow sets `SPLIT_SOAK_ROUNDS`).
#[test]
#[ignore = "long-running soak; exercised by the nightly stress workflow"]
fn split_soak_under_load() {
    let rounds: u64 = std::env::var("SPLIT_SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let mut engine_options = lsm_options();
    engine_options.memtable_size_bytes = 32 << 10;
    engine_options.auto_compact = true;
    let db: Arc<ShardedDb<LsmDb>> = Arc::new(
        ShardedDb::open(
            MemShardStorage::new_ref(),
            engine_options.clone(),
            ShardedOptions::with_boundaries(vec![1 << 40]).maintenance_workers(2),
        )
        .unwrap(),
    );
    let control: ShardedDb<LsmDb> = ShardedDb::open(
        MemShardStorage::new_ref(),
        engine_options,
        ShardedOptions::with_boundaries(vec![1 << 40]),
    )
    .unwrap();

    const SPAN: u64 = 1 << 16;
    for round in 0..rounds {
        let stop = Arc::new(AtomicBool::new(false));
        let scanner = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let rows = db.scan(0, SPAN, &()).unwrap();
                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
                }
            })
        };
        // Sustained skewed ingest, mirrored into the control.
        let mut batch = WriteBatch::new();
        for i in 0..4000u64 {
            let key = (round * 4000 + i).wrapping_mul(2654435761) % SPAN;
            batch.put(key, format!("r{round}-{key}").into_bytes());
            if batch.len() == 32 {
                db.write(&batch).unwrap();
                control.write(&batch).unwrap();
                batch = WriteBatch::new();
            }
        }
        if !batch.is_empty() {
            db.write(&batch).unwrap();
            control.write(&batch).unwrap();
        }
        // Split the currently largest shard mid-load.
        let router = db.router();
        let sizes: Vec<u64> = db
            .shards()
            .iter()
            .map(|s| s.total_sst_bytes() + s.buffered_bytes())
            .collect();
        let hot = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, _)| i)
            .unwrap();
        let (lo, hi) = router.shard_range(hot);
        let mid = lo / 2 + hi / 2;
        if mid > lo && mid <= hi {
            db.split_shard(hot, mid).unwrap();
        }
        stop.store(true, Ordering::Release);
        scanner.join().unwrap();

        db.wait_maintenance_idle();
        assert_eq!(
            db.scan(0, SPAN, &()).unwrap(),
            control.scan(0, SPAN, &()).unwrap(),
            "round {round}: split engine diverged from the no-split control"
        );
    }
    assert!(db.num_shards() >= 2);
}
