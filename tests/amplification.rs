//! Amplification accounting: the measured write/read/space amplifications
//! and LSM-shape introspection exported by the cost-model observability
//! layer must track the physical reality of the tree — write amplification
//! only grows as compaction rewrites data, trim compactions reclaim space,
//! and the per-level column-group counts mirror the LASER layout.

use laser::laser_core::{LaserDb, LaserOptions, LayoutSpec, RowFragment, Schema};
use laser::laser_sharding::ShardEngine;
use laser::lsm_storage::{EngineMaintenance, LsmDb, LsmOptions};

/// Options small enough that a few thousand keys span several flushes.
fn lsm_options() -> LsmOptions {
    let mut options = LsmOptions::small_for_tests();
    options.memtable_size_bytes = 16 << 10;
    options.sst_target_size_bytes = 32 << 10;
    options.auto_compact = false;
    options
}

fn ingest(db: &LsmDb, range: std::ops::Range<u64>) {
    for key in range {
        db.put(key, vec![(key % 251) as u8; 64]).unwrap();
    }
}

fn write_amp(db: &LsmDb) -> f64 {
    let ingested = db.stats().ingest_bytes;
    assert!(ingested > 0, "workload must have ingested bytes");
    db.shard_flush_compact_bytes() as f64 / ingested as f64
}

#[test]
fn write_amp_is_at_least_one_and_monotone_under_compaction() {
    let db = LsmDb::open_in_memory(lsm_options()).unwrap();
    ingest(&db, 0..4_000);
    db.flush().unwrap();

    // Everything ingested has been rewritten at least once by the flush;
    // SST framing (blocks, restarts, index, footer) only adds to that.
    let after_flush = write_amp(&db);
    assert!(
        after_flush >= 1.0,
        "write amp {after_flush} < 1 after full flush"
    );

    // With ingest frozen, every compaction step rewrites bytes and can only
    // push the ratio up.
    let mut previous = after_flush;
    while db.compact_once().unwrap() {
        let current = write_amp(&db);
        assert!(
            current >= previous,
            "write amp regressed {previous} -> {current} during compaction"
        );
        previous = current;
    }
    assert!(
        previous > after_flush,
        "compaction of a multi-SST tree must rewrite something"
    );
}

#[test]
fn space_amp_shrinks_after_trim_compaction() {
    let db = LsmDb::open_in_memory(lsm_options()).unwrap();
    ingest(&db, 0..4_000);
    db.flush().unwrap();
    db.compact_until_stable().unwrap();

    // Adopt the shape a post-split child sees: the shard now owns only the
    // lower half of the keys it physically stores.
    db.set_key_bound(0, 2_000);
    let before = db.tree_shape();
    assert!(before.space_amp() > 1.5, "out-of-bounds bytes not visible");

    let mut trims = 0;
    while db.trim_once().unwrap() {
        trims += 1;
    }
    assert!(trims > 0, "trim found nothing to reclaim");

    let after = db.tree_shape();
    assert!(
        after.space_amp() < before.space_amp(),
        "space amp did not shrink: {} -> {}",
        before.space_amp(),
        after.space_amp()
    );
    assert!(after.total_bytes < before.total_bytes);
    // The reads still see every in-bounds key.
    for key in (0..2_000u64).step_by(97) {
        assert!(db.get(key).unwrap().is_some(), "key {key} lost by trim");
    }
}

#[test]
fn laser_tree_shape_counts_column_groups_per_level() {
    let schema = Schema::with_columns(6);
    let layout = LayoutSpec::equi_width(&schema, 4, 3);
    let mut options = LaserOptions::small_for_tests(layout.clone());
    options.auto_compact = false;
    let db = LaserDb::open_in_memory(options).unwrap();
    for key in 0..2_000u64 {
        db.insert(key, RowFragment::int_row(&schema, key as i64))
            .unwrap();
    }
    db.flush().unwrap();

    // Level 0 is row-oriented: every flushed SST belongs to the single CG.
    let shape = db.tree_shape();
    assert!(shape.levels[0].files > 0, "flush left no level-0 files");
    assert_eq!(shape.levels[0].column_groups, 1);

    // One CG-local compaction re-encodes the row run into level 1's two
    // equi-width groups; the shape counts both.
    db.compact_cg(0, 0).unwrap();
    let shape = db.tree_shape();
    assert_eq!(shape.levels[0].files, 0);
    assert_eq!(
        shape.levels[1].column_groups,
        layout.level(1).groups().len() as u32,
        "shape: {}",
        shape.to_json()
    );
    // Per-CG compaction may leave a level's groups at different depths, but
    // a level never reports more groups than its layout describes.
    for level in &shape.levels {
        let described = layout.level(level.level as usize).groups().len() as u32;
        assert!(
            level.column_groups <= described,
            "level {} reports {} groups, layout describes {described}",
            level.level,
            level.column_groups
        );
    }
}

#[test]
fn stats_delta_since_saturates_instead_of_underflowing() {
    let db = LsmDb::open_in_memory(lsm_options()).unwrap();
    ingest(&db, 0..500);
    let earlier = db.stats();
    ingest(&db, 500..1_500);
    db.flush().unwrap();
    let later = db.stats();

    let forward = later.delta_since(&earlier);
    assert!(forward.ingest_bytes > 0);
    assert!(forward.bytes_written > 0);
    assert!(forward.wal.records_appended > 0);

    // Comparing against a *newer* snapshot (reopen, counter reset) must
    // clamp to zero, never wrap.
    let backward = earlier.delta_since(&later);
    assert_eq!(backward.ingest_bytes, 0);
    assert_eq!(backward.bytes_written, 0);
    assert_eq!(backward.flushes, 0);
    assert_eq!(backward.wal.records_appended, 0);
}
