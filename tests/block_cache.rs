//! Integration tests for the shared block cache: hit/miss accounting through
//! real engine reads, capacity eviction, and — critically — read-after-
//! compaction correctness (blocks of replaced SSTs must never be served).

use laser::lsm_storage::cache::ENTRY_OVERHEAD;
use laser::lsm_storage::{BlockCache, LsmDb, LsmOptions};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, Schema, Value};

fn cached_options(cache_bytes: usize) -> LsmOptions {
    let mut options = LsmOptions::small_for_tests();
    options.auto_compact = false;
    options.block_cache_bytes = cache_bytes;
    options
}

#[test]
fn repeated_reads_hit_the_cache() {
    let db = LsmDb::open_in_memory(cached_options(4 << 20)).unwrap();
    for key in 0..500u64 {
        db.put(key, vec![3u8; 64]).unwrap();
    }
    db.flush().unwrap();

    // First pass warms the cache, second pass should hit.
    for _ in 0..2 {
        for key in (0..500u64).step_by(7) {
            assert_eq!(db.get(key).unwrap(), Some(vec![3u8; 64]));
        }
    }
    let stats = db.stats();
    assert!(stats.cache_misses > 0, "cold reads must miss: {stats:?}");
    assert!(stats.cache_hits > 0, "warm reads must hit: {stats:?}");
    let cache = db.block_cache().expect("cache configured");
    assert!(cache.stats().used_bytes > 0);
}

/// Blocks are cached in their encoded form and charged what they hold
/// (encoded bytes + parsed restart array + a fixed per-entry overhead), so a
/// fully cached tree costs about its size on storage; a budget of N bytes
/// caches N bytes of SST, not a third of that.
#[test]
fn cached_blocks_are_charged_their_encoded_size() {
    let db = LsmDb::open_in_memory(cached_options(16 << 20)).unwrap();
    for key in 0..4_000u64 {
        db.put(key, vec![5u8; 48]).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.scan(0, u64::MAX).unwrap().len(), 4_000);
    let sst_bytes: u64 = db.level_sizes().iter().sum();
    let stats = db.block_cache().unwrap().stats();
    assert_eq!(stats.evictions, 0, "the tree must fit: {stats:?}");
    // Every data block is resident. Below the file size by the bloom filter,
    // index and footer; above it by at most the restart arrays (one u32 per
    // 16 entries) and the per-entry overhead.
    let overhead = stats.entries * ENTRY_OVERHEAD as u64;
    assert!(
        stats.used_bytes > sst_bytes * 9 / 10 && stats.used_bytes <= sst_bytes * 21 / 20 + overhead,
        "{} bytes charged for {sst_bytes} bytes of SST in {} blocks",
        stats.used_bytes,
        stats.entries
    );
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    // A cache far smaller than the data set: constant eviction churn.
    let db = LsmDb::open_in_memory(cached_options(2 << 10)).unwrap();
    for key in 0..2_000u64 {
        db.put(key, vec![9u8; 48]).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    for round in 0..2 {
        for key in (0..2_000u64).step_by(37) {
            assert_eq!(
                db.get(key).unwrap(),
                Some(vec![9u8; 48]),
                "round {round} key {key}"
            );
        }
    }
    let cache = db.block_cache().unwrap();
    let stats = cache.stats();
    assert!(stats.evictions > 0, "a 2 KiB cache must evict: {stats:?}");
    assert!(
        stats.used_bytes as usize <= cache.capacity_bytes() + 4096,
        "cache stays near capacity: {stats:?}"
    );
}

#[test]
fn read_after_compaction_never_serves_stale_blocks() {
    let db = LsmDb::open_in_memory(cached_options(4 << 20)).unwrap();
    // Round 1: write, flush, and read everything so the cache is saturated
    // with blocks of the round-1 SSTs.
    for key in 0..800u64 {
        db.put(key, format!("old-{key}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    for key in 0..800u64 {
        assert_eq!(
            db.get(key).unwrap(),
            Some(format!("old-{key}").into_bytes())
        );
    }
    // Round 2: overwrite every key, then compact — the round-1 SSTs are
    // deleted and replaced. Their cached blocks must die with them.
    for key in 0..800u64 {
        db.put(key, format!("new-{key}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    for key in 0..800u64 {
        assert_eq!(
            db.get(key).unwrap(),
            Some(format!("new-{key}").into_bytes()),
            "stale cached block served for key {key} after compaction"
        );
    }
    // Deletes propagate through the cache as well.
    for key in 0..100u64 {
        db.delete(key).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    for key in 0..100u64 {
        assert_eq!(db.get(key).unwrap(), None, "deleted key {key} resurrected");
    }
}

#[test]
fn scans_are_correct_under_caching() {
    let db = LsmDb::open_in_memory(cached_options(1 << 20)).unwrap();
    for key in 0..1_000u64 {
        db.put(key, key.to_le_bytes().to_vec()).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_stable().unwrap();
    for _ in 0..2 {
        let rows = db.scan(100, 299).unwrap();
        assert_eq!(rows.len(), 200);
        assert!(rows.iter().all(|(k, v)| v == &k.to_le_bytes().to_vec()));
    }
    assert!(db.stats().cache_hits > 0);
}

#[test]
fn laser_engine_reads_through_the_cache() {
    const COLS: usize = 8;
    let schema = Schema::with_columns(COLS);
    let mut options = LaserOptions::small_for_tests(LayoutSpec::equi_width(&schema, 5, 2));
    options.block_cache_bytes = 4 << 20;
    options.auto_compact = true;
    let db = LaserDb::open_in_memory(options).unwrap();
    for key in 0..400u64 {
        db.insert_int_row(key, key as i64).unwrap();
    }
    db.compact_all().unwrap();
    let projection = Projection::of([1, 6]);
    for _ in 0..3 {
        for key in (0..400u64).step_by(11) {
            let row = db.read(key, &projection).unwrap().unwrap();
            assert_eq!(row.get(1), Some(&Value::Int(key as i64 + 2)));
            assert_eq!(row.get(6), Some(&Value::Int(key as i64 + 7)));
        }
    }
    let stats = db.stats();
    assert!(
        stats.cache_hits > 0,
        "projection reads must hit the cache: {stats:?}"
    );
    assert!(stats.cache_hit_rate() > 0.0);
}

#[test]
fn cache_can_be_shared_inspection_api() {
    // The BlockCache type is public: direct use for capacity planning.
    let cache = BlockCache::new(1 << 20);
    assert_eq!(cache.stats().entries, 0);
    assert!(cache.capacity_bytes() >= 1 << 20);
}
