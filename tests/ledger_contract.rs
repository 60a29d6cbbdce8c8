//! The engine API surface `perf_ledger` is built against.
//!
//! The ledger (`crates/bench/src/bin/perf_ledger/`) is a package of its own,
//! outside the workspace, so `cargo test` never compiles it: renaming an
//! engine item it uses would pass tier-1 and break only the benchmark. This
//! file names every such item in a function that is compiled but never run,
//! so the break shows up here. It is also the list of what a change to the
//! ledger must touch before an item can go.

#![allow(dead_code)]

use std::sync::Arc;

use laser::laser_core::{
    LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema, Value,
};
use laser::laser_sharding::{
    ReplicationConfig, ShardEngine, ShardRouter, ShardStorageProvider, ShardedDb, ShardedOptions,
    ShardedStatsSnapshot,
};
use laser::lsm_storage::block::{Block, BlockBuilder};
use laser::lsm_storage::cache::ScopedCache;
use laser::lsm_storage::iterator::{
    BoxedIterator, KvIterator, MergingIterator, RangeIterator, VecIterator,
};
use laser::lsm_storage::storage::{
    FileStorage, IoStats, RandomAccessFile, SharedSyncHandle, Storage, StorageRef, WritableFile,
};
use laser::lsm_storage::types::{InternalKey, ValueKind, WriteBatch, WriteEntry, MAX_SEQNO};
use laser::lsm_storage::{
    BlockCache, IoStatsSnapshot, LsmDb, LsmOptions, MemTable, Result, SegmentedWal, TableBuilder,
    TableHandle, TableOptions, WalSyncPolicy,
};

/// The engine calls and fields the ledger's workloads, probes and model use.
fn engine_surface(storage: StorageRef, provider: Arc<dyn ShardStorageProvider>) -> Result<()> {
    // Options: the fields `workloads.rs` assigns, the literal it builds.
    let schema = Schema::narrow();
    let mut laser = LaserOptions::new(LayoutSpec::d_opt_paper(&schema)?);
    laser.num_levels = 4;
    laser.size_ratio = 10;
    laser.memtable_size_bytes = 1 << 20;
    laser.level0_size_bytes = 4 << 20;
    laser.sst_target_size_bytes = 2 << 20;
    laser.sync_wal = true;
    laser.sync_wal_interval_ms = 0;
    laser.block_cache_bytes = 0;
    let lsm = LsmOptions {
        num_levels: 4,
        size_ratio: 10,
        memtable_size_bytes: 1 << 20,
        level0_size_bytes: 4 << 20,
        sst_target_size_bytes: 2 << 20,
        sync_wal: true,
        sync_wal_interval_ms: 0,
        block_cache_bytes: 0,
        ..LsmOptions::default()
    };

    // The sharded facade over both engines.
    let options = ShardedOptions::with_boundaries(vec![1 << 32])
        .fanout_threads(2)
        .maintenance_workers(1)
        .cache_bytes(1 << 20)
        .replication(ReplicationConfig::new(2));
    let db: ShardedDb<LsmDb> = ShardedDb::open(Arc::clone(&provider), lsm.clone(), options)?;
    let mut batch = WriteBatch::new();
    batch.put(1, vec![1]);
    db.write(&batch)?;
    let _: Option<Vec<u8>> = db.get(1, &())?;
    let _: Vec<(u64, Vec<u8>)> = db.scan(0, 10, &())?;
    db.flush()?;
    db.compact_until_stable()?;
    db.wait_maintenance_idle();
    for shard in db.replication_status() {
        let _ = shard
            .replicas
            .iter()
            .all(|r| r.applied_seq >= shard.leader_seq);
    }
    let stats: ShardedStatsSnapshot = db.stats();
    let _ = (
        stats.bg_jobs_completed,
        stats.bg_jobs_pending,
        stats.fanout_scans,
    );
    let _ = (stats.cross_shard_batches, stats.cache, stats.io.syncs);
    let _ = (
        stats.wal.records_appended,
        stats.wal.syncs,
        stats.wal.rotations,
    );
    let _ = (stats.wal.coalesced_acks, stats.io.bytes_written);
    for engine in db.shards() {
        let _: u64 = engine.shard_flush_compact_bytes();
        let s = engine.stats();
        let _ = (
            s.stall_events,
            s.slowdown_events,
            s.ingest_bytes,
            s.compactions,
        );
    }
    db.close()?;

    let laser_db: ShardedDb<LaserDb> = ShardedDb::open(
        provider,
        laser.clone(),
        ShardedOptions::with_boundaries(vec![1]),
    )?;
    let _: Option<RowFragment> = laser_db.get(1, &Projection::of([0usize]))?;
    let bare = [LaserDb::open_with_cache(storage.clone(), laser, None)?];
    let s = bare[0].stats();
    let _ = (s.stall_events, s.compaction_bytes_written);
    bare.iter().try_for_each(LaserDb::close)?;
    let _ = LsmDb::open_with_cache(storage.clone(), lsm, None)?;
    let _ = ShardRouter::from_boundaries(vec![1])?;
    let _ = (RowFragment::from_cells(vec![(7, Value::Int(1))]), MAX_SEQNO);

    // Per-layer probes: WAL, memtable, SST, block, cache and merge stack.
    let policy = WalSyncPolicy::from_options(true, 0);
    let (_wal, recovery) = SegmentedWal::open(&storage, policy, &[], &[], 1)?;
    let _: usize = recovery.num_records();
    MemTable::new().insert(1, &WriteEntry::put(1, vec![]));
    let mut builder = TableBuilder::new(storage.create("x.sst")?, TableOptions::default());
    builder.add(&InternalKey::new(1, 1, ValueKind::Full).encode(), b"v")?;
    builder.finish()?;
    let cache = ScopedCache::unscoped(BlockCache::new(1 << 20));
    let _ = TableHandle::open(&storage, "x.sst")?;
    let _ = TableHandle::open_with_cache(&storage, "x.sst", Some(cache))?;
    let _ = Block::decode(BlockBuilder::new().finish())?;
    let runs: Vec<BoxedIterator> = vec![Box::new(VecIterator::new(Vec::new()))];
    let mut merged = MergingIterator::new(runs);
    merged.seek_to_first()?;
    let _ = RangeIterator::new;
    Ok(())
}

/// The storage traits `crash.rs` implements, with the methods it overrides.
struct Wrapped(StorageRef, Box<dyn WritableFile>, Arc<IoStats>);

impl WritableFile for Wrapped {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.1.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        self.2.record_sync();
        Ok(())
    }
    fn len(&self) -> u64 {
        self.1.len()
    }
    fn shared_sync_handle(&self) -> Option<Arc<dyn SharedSyncHandle>> {
        None
    }
}

impl SharedSyncHandle for Wrapped {
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

impl Storage for Wrapped {
    fn create(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        self.0.create(name)
    }
    fn open(&self, name: &str) -> Result<Box<dyn RandomAccessFile>> {
        self.0.open(name)
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.0.delete(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.0.exists(name)
    }
    fn list(&self) -> Result<Vec<String>> {
        self.0.list()
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.0.rename(from, to)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.0.io_stats()
    }
    fn size_of(&self, name: &str) -> Result<u64> {
        self.0.size_of(name)
    }
}

fn storage_surface(dir: &std::path::Path) -> Result<IoStatsSnapshot> {
    let storage: StorageRef = FileStorage::open_ref(dir)?;
    Ok(IoStatsSnapshot::default().merged(&storage.io_stats().snapshot()))
}
