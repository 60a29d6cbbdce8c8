//! The LASER storage engine: a Real-Time LSM-Tree.
//!
//! The engine keeps the memory component and Level-0 row-oriented (exactly as
//! the paper prescribes, to preserve write throughput) and stores every level
//! beyond Level-0 as one sorted run per column group, where the level's
//! column-group partition is given by the configured [`LayoutSpec`].
//!
//! Supported operations (Section 3.1):
//! * `insert(key, row)` — full-row insert.
//! * `read(key, Π)` — projection-aware point lookup.
//! * `scan(lo, hi, Π)` — projection-aware range scan.
//! * `update(key, valueΠ)` — partial-row (column) update.
//! * `delete(key)` — tombstone.
//!
//! Layout changes happen during compaction: the CG-local compaction strategy
//! (Section 4.4) picks the most-overflowing column group in the
//! most-overflowing level and merges it into the overlapping (contained)
//! column groups of the next level, using the level/column merging iterators.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use telemetry::trace::{self, TraceKind};
use telemetry::Telemetry;

use lsm_storage::cache::{BlockCache, ScopedCache};
use lsm_storage::degrade::{DegradationController, DegradedInfo};
use lsm_storage::iterator::KvIterator;
use lsm_storage::maintenance::{
    attach_engine, BackpressureConfig, BackpressureGate, EngineMaintenance, JobKind, JobScheduler,
    MaintainableEngine, MaintenanceHandle, Throttle,
};
use lsm_storage::manifest::{read_manifest, write_manifest, FileMeta, VersionSnapshot};
use lsm_storage::memtable::{FrozenMemTable, MemTable, MemTableRef};
use lsm_storage::observability::EngineTelemetry;
use lsm_storage::retry::{retry_io, RetryPolicy};
use lsm_storage::sst::{TableBuilder, TableHandle};
use lsm_storage::storage::{MemStorage, StorageRef};
use lsm_storage::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch, MAX_SEQNO};
use lsm_storage::wal_segment::{SegmentedWal, WalStatsSnapshot, WalSyncPolicy};
use lsm_storage::{Error, Result};

use crate::iters::{
    BoxedFragmentSource, ColumnMergingIterator, ConcatIterator, FragmentSource,
    LevelMergingIterator, RowSource,
};
use crate::layout::LayoutSpec;
use crate::options::LaserOptions;
use crate::row::RowFragment;
use crate::schema::{ColumnId, Projection, Schema};
use crate::stats::{EngineStats, EngineStatsSnapshot};
use crate::value::Value;

/// Pre-segmentation WAL file name, still recognised (and migrated) at open.
const LEGACY_WAL_NAME: &str = "laser-wal.log";

/// One SST file belonging to a column-group run.
#[derive(Clone, Debug)]
struct LevelFile {
    meta: FileMeta,
    table: TableHandle,
}

/// The sorted run of one column group at one level.
#[derive(Clone, Debug, Default)]
struct CgRun {
    /// Files of the run. Level 0 files may overlap (ordered oldest→newest);
    /// deeper levels hold disjoint files sorted by key.
    files: Vec<LevelFile>,
}

impl CgRun {
    fn size_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.meta.file_size).sum()
    }

    fn num_entries(&self) -> u64 {
        self.files.iter().map(|f| f.meta.num_entries).sum()
    }
}

/// All column-group runs of one level.
#[derive(Clone, Debug, Default)]
struct LevelState {
    runs: Vec<CgRun>,
}

impl LevelState {
    fn size_bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.size_bytes()).sum()
    }
}

#[derive(Default)]
struct DbInner {
    mutable: Option<MemTableRef>,
    /// Frozen memtables awaiting a background flush (each paired with its
    /// WAL segment), oldest first.
    immutables: Vec<FrozenMemTable>,
    levels: Vec<LevelState>,
    next_file_number: u64,
    last_seq: SeqNo,
}

/// Summary of one level for introspection and experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSummary {
    /// Level number.
    pub level: usize,
    /// Per-column-group `(files, entries, bytes)`.
    pub column_groups: Vec<(usize, u64, u64)>,
    /// Total bytes stored at this level.
    pub total_bytes: u64,
}

/// The LASER Real-Time LSM-Tree storage engine.
pub struct LaserDb {
    storage: StorageRef,
    options: LaserOptions,
    inner: RwLock<DbInner>,
    /// Segmented write-ahead log: one segment per memtable, group commit on
    /// the write path, manifest-tracked lifecycle.
    wal: SegmentedWal,
    stats: EngineStats,
    /// Shared block cache (None when no cache is configured). May be
    /// a scoped view of a process-wide cache shared with other engines.
    cache: Option<ScopedCache>,
    /// Registered background scheduler handle; set once by
    /// [`LaserDb::attach_maintenance`]. While present, the write path
    /// enqueues flush/CG-compaction jobs instead of running them inline.
    maintenance: OnceLock<MaintenanceHandle>,
    /// Serialises flush jobs so Level-0 keeps its oldest-first order.
    flush_lock: Mutex<()>,
    /// Serialises CG-compaction jobs so two jobs never merge the same run.
    compaction_lock: Mutex<()>,
    /// Writers stalled on backpressure park here; maintenance jobs notify it.
    write_room: BackpressureGate,
    /// Pre-resolved telemetry handles; set once by
    /// [`LaserDb::attach_telemetry`]. While absent, instrumentation costs
    /// one branch per hot-path operation.
    telemetry: OnceLock<EngineTelemetry>,
    /// Read-only degradation state: entered on persistent storage faults
    /// (after WAL rotation recovery and SST/manifest retries are exhausted),
    /// cleared automatically once a storage probe succeeds again.
    degradation: DegradationController,
}

impl LaserDb {
    /// Opens (or creates) an engine on `storage` with the given options,
    /// recovering previous state from the manifest and WAL.
    pub fn open(storage: StorageRef, options: LaserOptions) -> Result<Self> {
        let cache = if options.block_cache_bytes > 0 {
            Some(ScopedCache::unscoped(BlockCache::new(
                options.block_cache_bytes,
            )))
        } else {
            None
        };
        Self::open_with_cache(storage, options, cache)
    }

    /// Opens (or creates) an engine on `storage`, serving block reads
    /// through the given cache view instead of a private per-engine cache
    /// (`block_cache_bytes` is ignored). A sharded deployment passes every
    /// shard a differently-scoped view of one process-wide [`BlockCache`] so
    /// the global byte budget and per-shard accounting are shared.
    pub fn open_with_cache(
        storage: StorageRef,
        options: LaserOptions,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        options.validate()?;
        let snapshot = read_manifest(&storage)?;
        let mut inner = DbInner {
            levels: (0..options.num_levels)
                .map(|level| LevelState {
                    runs: vec![CgRun::default(); options.layout.level(level).num_groups()],
                })
                .collect(),
            next_file_number: snapshot.next_file_number.max(1),
            last_seq: snapshot.last_seq,
            ..Default::default()
        };
        for meta in &snapshot.files {
            let table = TableHandle::open_with_cache(&storage, &meta.file_name(), cache.clone())?;
            let level = meta.level as usize;
            let cg = meta.column_group as usize;
            let runs = &mut inner
                .levels
                .get_mut(level)
                .ok_or_else(|| Error::corruption(format!("manifest level {level} out of range")))?
                .runs;
            if cg >= runs.len() {
                return Err(Error::corruption(format!(
                    "manifest references column group {cg} at level {level}, layout has {}",
                    runs.len()
                )));
            }
            runs[cg].files.push(LevelFile {
                meta: meta.clone(),
                table,
            });
        }
        for (level, state) in inner.levels.iter_mut().enumerate() {
            for run in &mut state.runs {
                if level == 0 {
                    run.files.sort_by_key(|f| f.meta.max_seq);
                } else {
                    run.files.sort_by_key(|f| f.meta.min_user_key);
                }
            }
        }

        // Open the segmented WAL, replaying only the segments the manifest
        // lists as live (plus anything newer, plus the legacy single-file
        // WAL if this directory predates segmentation).
        let policy = WalSyncPolicy::from_options(options.sync_wal, options.sync_wal_interval_ms);
        let (wal, recovery) = SegmentedWal::open(
            &storage,
            policy,
            &snapshot.wal_segments,
            &[LEGACY_WAL_NAME],
            snapshot.last_seq + 1,
        )?;

        let stats = EngineStats::new(options.num_levels);
        let db = LaserDb {
            storage,
            options,
            inner: RwLock::new(inner),
            wal,
            stats,
            cache,
            maintenance: OnceLock::new(),
            flush_lock: Mutex::new(()),
            compaction_lock: Mutex::new(()),
            write_room: BackpressureGate::new(),
            telemetry: OnceLock::new(),
            degradation: DegradationController::new(),
        };

        // WAL recovery: replay intact records into fresh memtable state and
        // record the active segment in the manifest. A large clean tail is
        // adopted in place — the replayed segments stay live, paired with one
        // frozen memtable rebuilt from their records — so recovery does O(1)
        // manifest work instead of re-logging every record; a small or dirty
        // tail keeps the re-log path, which compacts it into one segment.
        {
            let mut inner = db.inner.write();
            inner.mutable = Some(Arc::new(MemTable::new()));
            if recovery.adoptable() && recovery.total_bytes() >= db.options.recovery_adopt_bytes {
                let rebuilt = Arc::new(MemTable::new());
                for record in recovery.records() {
                    for (seq, entry) in (record.start_seq..).zip(record.batch.iter()) {
                        rebuilt.insert(seq, entry);
                        inner.last_seq = inner.last_seq.max(seq);
                    }
                }
                let adopted = db.wal.adopt_recovered(&recovery);
                inner.immutables.push(FrozenMemTable {
                    memtable: rebuilt,
                    wal_segments: adopted,
                });
            } else {
                for record in recovery.records() {
                    db.wal.append(record.start_seq, &record.batch)?;
                    for (seq, entry) in (record.start_seq..).zip(record.batch.iter()) {
                        inner.mutable.as_ref().unwrap().insert(seq, entry);
                        inner.last_seq = inner.last_seq.max(seq);
                    }
                }
            }
            db.wal.finish_recovery()?;
            db.persist_manifest(&inner)?;
        }
        Ok(db)
    }

    /// Opens an engine backed by fresh in-memory storage.
    pub fn open_in_memory(options: LaserOptions) -> Result<Self> {
        Self::open(MemStorage::new_ref(), options)
    }

    /// The configured options.
    pub fn options(&self) -> &LaserOptions {
        &self.options
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.options.schema()
    }

    /// The layout (design) in use.
    pub fn layout(&self) -> &LayoutSpec {
        &self.options.layout
    }

    /// The storage backend (exposes I/O statistics).
    pub fn storage(&self) -> &StorageRef {
        &self.storage
    }

    /// Engine statistics (operation counts, per-level profile, write
    /// amplification, block-cache and background-maintenance counters).
    pub fn stats(&self) -> EngineStatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        if let Some(cache) = &self.cache {
            let cache_stats = cache.cache().stats();
            snapshot.cache_hits = cache_stats.hits;
            snapshot.cache_misses = cache_stats.misses;
        }
        if let Some(handle) = self.maintenance.get() {
            let state = handle.state();
            snapshot.bg_jobs_completed = state.completed_jobs();
            snapshot.bg_jobs_failed = state.failed_jobs();
            snapshot.bg_jobs_pending = state.pending_jobs() as u64;
        }
        snapshot.wal = self.wal.stats();
        snapshot
    }

    /// Durability statistics of the segmented WAL (also embedded in
    /// [`LaserDb::stats`]).
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.wal.stats()
    }

    /// The shared block cache, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref().map(|c| c.cache())
    }

    /// Starts a background maintenance scheduler with `num_workers` threads
    /// and registers it with this engine. From then on the write path freezes
    /// full memtables and enqueues flush / CG-local-compaction jobs instead
    /// of running them inline, applying slowdown/stall backpressure per the
    /// `l0_slowdown_files` / `l0_stall_files` / `max_pending_jobs` options.
    ///
    /// The returned [`JobScheduler`] owns the worker threads: dropping it
    /// drains all queued jobs and joins the workers. The foreground
    /// `flush` / `compact_*` APIs keep working (they share the same internal
    /// locks), which deterministic tests rely on.
    ///
    /// Errors if a scheduler was already attached.
    pub fn attach_maintenance(self: &Arc<Self>, num_workers: usize) -> Result<JobScheduler> {
        attach_engine(self, num_workers)
    }

    /// Registers this engine (and its WAL) with a shared telemetry hub under
    /// `shard_label`: latency histograms on the read/scan/commit paths, byte
    /// counters on flush/CG-compaction, and maintenance events in the hub's
    /// event log. Idempotent — a second attach keeps the first registration.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>, shard_label: &str) {
        let _ = self
            .telemetry
            .set(EngineTelemetry::register(hub, "laser", shard_label));
        self.wal.attach_telemetry(hub, shard_label);
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// The last sequence number assigned to a write.
    pub fn last_seq(&self) -> SeqNo {
        self.inner.read().last_seq
    }

    fn num_columns(&self) -> usize {
        self.schema().num_columns()
    }

    // ------------------------------------------------------------------
    // Write operations (Section 4.2)
    // ------------------------------------------------------------------

    /// Inserts (or fully replaces) the row for `key`.
    pub fn insert(&self, key: UserKey, row: RowFragment) -> Result<()> {
        if !row.is_complete(self.schema()) {
            return Err(Error::invalid(
                "insert requires a complete row; use update() for partial rows",
            ));
        }
        self.stats.record_insert();
        let mut batch = WriteBatch::new();
        batch.put(key, row.encode(self.num_columns()));
        self.apply(&batch)
    }

    /// Inserts a benchmark-style integer row (column `ai` = `base + i`).
    pub fn insert_int_row(&self, key: UserKey, base: i64) -> Result<()> {
        self.insert(key, RowFragment::int_row(self.schema(), base))
    }

    /// Updates a subset of columns of `key` (a LASER partial-row insert).
    pub fn update(&self, key: UserKey, values: Vec<(ColumnId, Value)>) -> Result<()> {
        if values.is_empty() {
            return Err(Error::invalid("update requires at least one column"));
        }
        for (c, _) in &values {
            if !self.schema().contains(*c) {
                return Err(Error::invalid(format!("column {c} outside schema")));
            }
        }
        let fragment = RowFragment::from_cells(values);
        self.stats.record_update();
        self.stats.record_update_level(0, &fragment.columns());
        let mut batch = WriteBatch::new();
        batch.put_partial(key, fragment.encode(self.num_columns()));
        self.apply(&batch)
    }

    /// Deletes `key`.
    pub fn delete(&self, key: UserKey) -> Result<()> {
        self.stats.record_delete();
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.apply(&batch)
    }

    /// Applies a pre-encoded write batch atomically (consecutive sequence
    /// numbers, one WAL record, group-committed durability).
    ///
    /// This is the batch entry point used by sharded deployments, which split
    /// one logical batch across shard engines. Entry payloads must be
    /// [`RowFragment`] encodings for this engine's schema — `Full` entries a
    /// complete row (as [`LaserDb::insert`] produces), `Partial` entries a
    /// column subset (as [`LaserDb::update`] produces); payloads are *not*
    /// re-validated against the schema here.
    pub fn write(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for entry in batch.iter() {
            match entry.kind {
                ValueKind::Full => self.stats.record_insert(),
                ValueKind::Partial => {
                    self.stats.record_update();
                    // Mirror update(): feed the per-level update-column
                    // profile, decoding the fragment to recover which
                    // columns this partial write touches.
                    if let Ok(fragment) = RowFragment::decode(&entry.value, self.num_columns()) {
                        self.stats.record_update_level(0, &fragment.columns());
                    }
                }
                ValueKind::Tombstone => self.stats.record_delete(),
            }
        }
        self.apply(batch)
    }

    fn apply(&self, batch: &WriteBatch) -> Result<()> {
        self.check_writable()?;
        let logical_bytes: u64 = batch
            .iter()
            .map(|e| std::mem::size_of::<UserKey>() as u64 + e.value.len() as u64)
            .sum();
        self.stats.record_ingest_bytes(logical_bytes);
        let telemetry = self.telemetry.get();
        let commit_start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Commit));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        EngineMaintenance::apply_backpressure(self);
        let ticket = {
            let _apply_span = if traced {
                trace::span("wal_append")
            } else {
                None
            };
            let mut inner = self.inner.write();
            let start_seq = inner.last_seq + 1;
            let mutable = Arc::clone(inner.mutable.as_ref().ok_or(Error::Closed)?);
            let ticket = self
                .wal
                .append(start_seq, batch)
                .map_err(|e| self.note_write_error(e))?;
            let mut seq = start_seq;
            for entry in batch.iter() {
                mutable.insert(seq, entry);
                seq += 1;
            }
            inner.last_seq = seq - 1;
            ticket
        };
        // The write is acknowledged only once its WAL record is durable
        // (group commit: concurrent writers share one fsync).
        {
            let _durable_span = if traced {
                trace::span("wal_durable")
            } else {
                None
            };
            self.wal
                .ensure_durable(&ticket)
                .map_err(|e| self.note_write_error(e))?;
        }
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, commit_start, op) {
            let elapsed = start.elapsed();
            telemetry.commit_ns.record(elapsed.as_nanos() as u64);
            telemetry.end_op(
                TraceKind::Commit,
                op,
                elapsed,
                &[("entries", batch.len() as u64)],
            );
        }
        self.after_write_maintenance()
    }

    /// Unconditionally freezes the mutable memtable (sealing its WAL segment
    /// and opening a fresh one), without flushing it. No-op on an empty
    /// memtable. Returns true if a memtable was frozen.
    ///
    /// Used by the flush path and by crash-recovery tests that need the
    /// "frozen but not yet flushed" state.
    pub fn freeze_memtable(&self) -> Result<bool> {
        let mut inner = self.inner.write();
        let Some(mutable) = inner.mutable.as_ref() else {
            return Ok(false);
        };
        if mutable.is_empty() {
            return Ok(false);
        }
        self.freeze_locked(&mut inner)
    }

    /// Freezes the mutable memtable and immediately schedules its flush:
    /// with a maintenance scheduler attached the flush job is enqueued right
    /// away (instead of waiting for the next write-path trigger); without
    /// one the frozen memtable is drained inline. Returns true if a memtable
    /// was frozen.
    pub fn freeze_and_schedule(&self) -> Result<bool> {
        if !self.freeze_memtable()? {
            return Ok(false);
        }
        self.schedule_frozen_flush()?;
        Ok(true)
    }

    /// Freezes the mutable memtable under the held engine lock: rotates to a
    /// fresh WAL segment and pairs the sealed segment with the frozen
    /// memtable.
    fn freeze_locked(&self, inner: &mut DbInner) -> Result<bool> {
        let frozen = Arc::clone(inner.mutable.as_ref().ok_or(Error::Closed)?);
        let sealed_segment = self.wal.rotate(inner.last_seq + 1)?;
        inner
            .immutables
            .push(FrozenMemTable::sealed(frozen, sealed_segment));
        inner.mutable = Some(Arc::new(MemTable::new()));
        // No manifest write here: the previous flush-time manifest already
        // lists the sealed segment, and recovery unconditionally replays any
        // segment newer than the manifest knows, so the fresh active segment
        // needs no record. Keeping the freeze path free of manifest I/O
        // keeps the engine's write lock cheap.
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Read operations (Section 4.3)
    // ------------------------------------------------------------------

    /// Point lookup: returns the newest values of the projected columns for
    /// `key`, or `None` if the key is absent or deleted.
    pub fn read(&self, key: UserKey, projection: &Projection) -> Result<Option<RowFragment>> {
        self.read_at(key, projection, MAX_SEQNO)
    }

    /// Point lookup at a snapshot sequence number.
    pub fn read_at(
        &self,
        key: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
    ) -> Result<Option<RowFragment>> {
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Get));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        let result = self.read_at_inner(key, projection, snapshot, traced);
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            let elapsed = start.elapsed();
            telemetry.get_ns.record(elapsed.as_nanos() as u64);
            telemetry.end_op(TraceKind::Get, op, elapsed, &[("key", key)]);
        }
        result
    }

    fn read_at_inner(
        &self,
        key: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
        traced: bool,
    ) -> Result<Option<RowFragment>> {
        self.stats.record_point_read();
        let needed = if projection.is_empty() {
            Projection::all(self.schema())
        } else {
            projection.clone()
        };
        let inner = self.inner.read();
        let mut acc = RowFragment::empty();
        let mut deleted = false;
        let mut satisfied = false;

        // 1. Memtable.
        {
            let _memtable_span = if traced {
                trace::span("memtable_probe")
            } else {
                None
            };
            if let Some(mutable) = &inner.mutable {
                let versions = mutable.get_versions(key, snapshot);
                Self::overlay_versions(
                    &mut acc,
                    &mut deleted,
                    &mut satisfied,
                    &needed,
                    versions.into_iter(),
                    self.num_columns(),
                    true,
                )?;
            }

            // 1.5. Frozen memtables awaiting flush, newest first
            // (row-oriented).
            if !satisfied && !deleted {
                for imm in inner.immutables.iter().rev() {
                    let versions = imm.memtable.get_versions(key, snapshot);
                    Self::overlay_versions(
                        &mut acc,
                        &mut deleted,
                        &mut satisfied,
                        &needed,
                        versions.into_iter(),
                        self.num_columns(),
                        true,
                    )?;
                    if satisfied || deleted {
                        break;
                    }
                }
            }
        }

        // 2. Level 0, newest file first (row-oriented full rows).
        if !satisfied && !deleted {
            let mut l0_span = if traced {
                trace::span("l0_probe")
            } else {
                None
            };
            let mut bloom_skips = 0u64;
            for file in inner.levels[0].runs[0].files.iter().rev() {
                if !file.table.may_contain(key) {
                    bloom_skips += 1;
                    continue;
                }
                let versions = Self::table_versions(&file.table, key, snapshot)?;
                if !versions.is_empty() {
                    self.stats.record_point_read_level(0, 1, &needed);
                }
                Self::overlay_versions(
                    &mut acc,
                    &mut deleted,
                    &mut satisfied,
                    &needed,
                    versions.into_iter(),
                    self.num_columns(),
                    true,
                )?;
                if satisfied || deleted {
                    break;
                }
            }
            if let Some(span) = l0_span.as_mut() {
                span.annotate("bloom_skips", bloom_skips);
            }
        }

        // 3. Deeper levels: probe only the CGs overlapping the still-needed columns.
        if !satisfied && !deleted {
            let mut level_span = if traced {
                trace::span("level_probe")
            } else {
                None
            };
            let mut total_groups = 0u64;
            let mut bloom_skips = 0u64;
            for level in 1..inner.levels.len() {
                let missing = needed.difference(&acc.columns());
                if missing.is_empty() {
                    break;
                }
                let layout = self.options.layout.level(level);
                let mut groups_fetched = 0u64;
                for (cg_idx, group) in layout.groups().iter().enumerate() {
                    if !group.overlaps_projection(&missing) {
                        continue;
                    }
                    let run = &inner.levels[level].runs[cg_idx];
                    // Binary search the run's disjoint files for the key.
                    let idx = run.files.partition_point(|f| f.meta.max_user_key < key);
                    if idx >= run.files.len() || run.files[idx].meta.min_user_key > key {
                        continue;
                    }
                    let file = &run.files[idx];
                    if !file.table.may_contain(key) {
                        bloom_skips += 1;
                        continue;
                    }
                    let versions = Self::table_versions(&file.table, key, snapshot)?;
                    if versions.is_empty() {
                        continue;
                    }
                    groups_fetched += 1;
                    Self::overlay_versions(
                        &mut acc,
                        &mut deleted,
                        &mut satisfied,
                        &needed,
                        versions.into_iter(),
                        self.num_columns(),
                        false,
                    )?;
                    if deleted {
                        break;
                    }
                }
                if groups_fetched > 0 {
                    self.stats
                        .record_point_read_level(level, groups_fetched, &needed);
                }
                total_groups += groups_fetched;
                if satisfied || deleted {
                    break;
                }
            }
            if let Some(span) = level_span.as_mut() {
                span.annotate("groups_fetched", total_groups);
                span.annotate("bloom_skips", bloom_skips);
            }
        }

        if acc.is_empty() {
            return Ok(None);
        }
        Ok(Some(acc.project(&needed)))
    }

    /// Overlays a list of newest-first versions onto the accumulator.
    ///
    /// `full_covers_row` must be true only for row-oriented sources (memtable,
    /// Level-0 SSTs), where a `Full` record carries the complete row and can
    /// terminate the search. In a column-group run a `Full` record only means
    /// the *group's* columns are complete, so it must not stop the descent.
    fn overlay_versions(
        acc: &mut RowFragment,
        deleted: &mut bool,
        satisfied: &mut bool,
        needed: &Projection,
        versions: impl Iterator<Item = (InternalKey, Vec<u8>)>,
        num_columns: usize,
        full_covers_row: bool,
    ) -> Result<()> {
        for (ik, value) in versions {
            match ik.kind {
                ValueKind::Tombstone => {
                    *deleted = true;
                    break;
                }
                ValueKind::Full => {
                    let fragment = RowFragment::decode(&value, num_columns)?;
                    acc.fill_missing_from(&fragment.project(needed));
                    if full_covers_row {
                        *satisfied = true;
                    }
                    break;
                }
                ValueKind::Partial => {
                    let fragment = RowFragment::decode(&value, num_columns)?;
                    acc.fill_missing_from(&fragment.project(needed));
                }
            }
        }
        if acc.covers(needed) {
            *satisfied = true;
        }
        Ok(())
    }

    /// Collects the visible versions of `key` in one table, newest first,
    /// stopping after the first full row or tombstone.
    fn table_versions(
        table: &TableHandle,
        key: UserKey,
        snapshot: SeqNo,
    ) -> Result<Vec<(InternalKey, Vec<u8>)>> {
        let mut iter = table.iter();
        iter.seek(&InternalKey::seek_to(key).encode())?;
        let mut out = Vec::new();
        while iter.valid() {
            let ik = InternalKey::decode(iter.key())?;
            if ik.user_key != key {
                break;
            }
            if ik.seq <= snapshot {
                out.push((ik, iter.value().to_vec()));
                if ik.kind != ValueKind::Partial {
                    break;
                }
            }
            iter.next()?;
        }
        Ok(out)
    }

    /// Range scan: returns the newest values of the projected columns for
    /// every live key in `[lo, hi]`.
    pub fn scan(
        &self,
        lo: UserKey,
        hi: UserKey,
        projection: &Projection,
    ) -> Result<Vec<(UserKey, RowFragment)>> {
        self.scan_at(lo, hi, projection, MAX_SEQNO)
    }

    /// Range scan at a snapshot sequence number.
    pub fn scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
    ) -> Result<Vec<(UserKey, RowFragment)>> {
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Scan));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        self.stats.record_scan();
        let projection = if projection.is_empty() {
            Projection::all(self.schema())
        } else {
            projection.clone()
        };
        let mut lmi = {
            let mut setup_span = if traced {
                trace::span("merge_setup")
            } else {
                None
            };
            let mut lmi = self.level_merging_iterator(lo, hi, &projection, snapshot)?;
            lmi.seek(lo)?;
            if let Some(span) = setup_span.as_mut() {
                span.annotate("merge_width", lmi.merge_width() as u64);
            }
            lmi
        };
        let rows = {
            let _drain_span = if traced { trace::span("drain") } else { None };
            lmi.collect_rows()?
        };
        // Attribute scanned entries to levels for the per-level profile: the
        // share of entries scanned at level i is proportional to that level's
        // population, which is what the cost model's s_i denotes.
        let inner = self.inner.read();
        let total_entries: u64 = inner
            .levels
            .iter()
            .map(|l| l.runs.iter().map(|r| r.num_entries()).sum::<u64>())
            .sum();
        for (level, state) in inner.levels.iter().enumerate() {
            let level_entries: u64 = state.runs.iter().map(|r| r.num_entries()).sum();
            if level_entries == 0 {
                continue;
            }
            let Some(share) = (rows.len() as u64 * level_entries).checked_div(total_entries) else {
                break;
            };
            self.stats.record_scan_level(level, share, &projection);
        }
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            let elapsed = start.elapsed();
            telemetry.scan_ns.record(elapsed.as_nanos() as u64);
            telemetry.end_op(TraceKind::Scan, op, elapsed, &[("rows", rows.len() as u64)]);
        }
        Ok(rows.into_iter().map(|r| (r.key, r.fragment)).collect())
    }

    /// Builds the paper's LevelMergingIterator for `[lo, hi]` with the given
    /// projection: the memtable and Level-0 runs (row-oriented) come first,
    /// then one ColumnMergingIterator per deeper level, opened only over the
    /// column groups that overlap the projection. Each CG run iterates
    /// through the substrate's lazy [`ConcatIterator`]: a file of the run is
    /// opened only when the scan actually crosses into it.
    fn level_merging_iterator(
        &self,
        lo: UserKey,
        hi: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
    ) -> Result<LevelMergingIterator> {
        let inner = self.inner.read();
        let c = self.num_columns();
        let mut sources: Vec<BoxedFragmentSource> = Vec::new();
        if let Some(mutable) = &inner.mutable {
            sources.push(Box::new(RowSource::new(
                Box::new(mutable.iter()),
                c,
                snapshot,
            )));
        }
        for imm in inner.immutables.iter().rev() {
            sources.push(Box::new(RowSource::new(
                Box::new(imm.memtable.iter()),
                c,
                snapshot,
            )));
        }
        for file in inner.levels[0].runs[0].files.iter().rev() {
            if file.meta.overlaps(lo, hi) {
                sources.push(Box::new(RowSource::new(
                    Box::new(file.table.iter()),
                    c,
                    snapshot,
                )));
            }
        }
        for level in 1..inner.levels.len() {
            let layout = self.options.layout.level(level);
            let mut children = Vec::new();
            for (cg_idx, group) in layout.groups().iter().enumerate() {
                if !group.overlaps_projection(projection) {
                    continue;
                }
                let run = &inner.levels[level].runs[cg_idx];
                let tables: Vec<TableHandle> = run
                    .files
                    .iter()
                    .filter(|f| f.meta.overlaps(lo, hi))
                    .map(|f| f.table.clone())
                    .collect();
                if tables.is_empty() {
                    continue;
                }
                children.push(RowSource::new(
                    Box::new(ConcatIterator::new(tables)),
                    c,
                    snapshot,
                ));
            }
            if !children.is_empty() {
                sources.push(Box::new(ColumnMergingIterator::new(children)));
            }
        }
        Ok(LevelMergingIterator::new(sources, projection.clone(), hi))
    }

    // ------------------------------------------------------------------
    // Graceful degradation (read-only mode on persistent storage faults)
    // ------------------------------------------------------------------

    /// True while the engine can accept writes — its WAL has no unrecovered
    /// damage and it has not entered read-only degradation.
    pub fn is_healthy(&self) -> bool {
        !self.wal.is_damaged() && !self.degradation.is_degraded()
    }

    /// True while the engine is in read-only degradation: writes are
    /// rejected with [`Error::ReadOnly`], reads continue, flushes and
    /// compactions are blocked.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_degraded()
    }

    /// Why (and for how long) the engine has been read-only, if degraded.
    pub fn degraded_info(&self) -> Option<DegradedInfo> {
        self.degradation.info()
    }

    /// Attempts to leave read-only degradation: re-runs WAL rotation
    /// recovery if the log is still damaged, then probes the storage with a
    /// small write-fsync-delete cycle. Returns true if the engine is (now)
    /// healthy. Called automatically by every rejected write.
    pub fn probe_recovery(&self) -> bool {
        if !self.degradation.is_degraded() {
            return true;
        }
        if self.wal.is_damaged() && self.wal.sync().is_err() {
            return false;
        }
        if self.storage_probe().is_err() {
            return false;
        }
        if let Some(downtime) = self.degradation.clear() {
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.recovered_event(downtime);
            }
            self.notify_write_room();
        }
        true
    }

    /// A minimal durability probe: create, append, fsync and delete a scratch
    /// file — the same failure modes (EIO, ENOSPC) as the real write paths
    /// without touching live data.
    fn storage_probe(&self) -> Result<()> {
        const PROBE_NAME: &str = "health-probe.tmp";
        let result = (|| {
            let mut file = self.storage.create(PROBE_NAME)?;
            file.append(b"laser-storage-probe")?;
            file.sync()
        })();
        let _ = self.storage.delete(PROBE_NAME);
        result
    }

    /// Rejects the write with a typed error while degraded, probing for
    /// recovery first so a healed device resumes service on the very next
    /// write.
    fn check_writable(&self) -> Result<()> {
        if !self.degradation.is_degraded() || self.probe_recovery() {
            return Ok(());
        }
        let reason = self
            .degradation
            .info()
            .map(|i| i.reason)
            .unwrap_or_else(|| "storage fault".to_string());
        Err(Error::read_only(reason))
    }

    /// Enters read-only degradation (idempotently) after a persistent
    /// storage fault, emitting `Degraded` and raising `laser_degraded` on
    /// the transition edge.
    fn enter_degraded(&self, cause: &Error) {
        if self.degradation.enter(cause.to_string()) {
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.degraded_event();
            }
        }
    }

    /// Classifies an error escaping the write or maintenance path: anything
    /// non-transient (the WAL already self-healed transients, `retry_io`
    /// already retried the rest) degrades the engine instead of leaving the
    /// next caller to hit the same broken device.
    fn note_storage_error(&self, e: &Error) {
        if !e.is_transient() && !e.is_read_only() {
            self.enter_degraded(e);
        }
    }

    fn note_write_error(&self, e: Error) -> Error {
        self.note_storage_error(&e);
        e
    }

    fn note_io_retry(&self) {
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.io_retry();
        }
    }

    // ------------------------------------------------------------------
    // Flush
    // ------------------------------------------------------------------

    /// Flushes the mutable memtable and every frozen memtable into
    /// row-oriented Level-0 SSTs, retiring their WAL segments. No-op when
    /// nothing is buffered.
    pub fn flush(&self) -> Result<()> {
        self.check_writable()?;
        let result = (|| {
            self.freeze_memtable()?;
            while self.flush_frozen_one_impl()? {}
            Ok(())
        })();
        if let Err(e) = &result {
            self.note_storage_error(e);
        }
        result
    }

    /// Flushes the oldest frozen memtable, if any. Once the SST is installed
    /// in the manifest, the WAL segment backing the memtable is retired and
    /// its file deleted — recovery never replays data that already lives in
    /// the tree. Returns true if a memtable was flushed.
    fn flush_frozen_one_impl(&self) -> Result<bool> {
        if let Some(info) = self.degradation.info() {
            // While degraded, background flushing is blocked outright:
            // re-running half-failed jobs against a broken device risks
            // double-applying work (at-most-once), and the typed error also
            // trips the backpressure gate's failed-jobs bail-out so stalled
            // writers are released instead of waiting forever.
            return Err(Error::read_only(info.reason));
        }
        let telemetry = self.telemetry.get();
        let flush_start = telemetry.map(|_| Instant::now());
        // Serialise flushes so Level-0 keeps its oldest-first order.
        let _flushing = self.flush_lock.lock();
        let (frozen, file_number) = {
            let mut inner = self.inner.write();
            let Some(frozen) = inner.immutables.first().cloned() else {
                return Ok(false);
            };
            if frozen.memtable.is_empty() {
                inner
                    .immutables
                    .retain(|m| !Arc::ptr_eq(&m.memtable, &frozen.memtable));
                for segment in &frozen.wal_segments {
                    self.wal.retire(*segment);
                }
                self.persist_manifest(&inner)?;
                drop(inner);
                self.wal.delete_retired()?;
                return Ok(true);
            }
            let n = inner.next_file_number;
            inner.next_file_number += 1;
            (frozen, n)
        };
        // Build outside the lock; the frozen memtable stays readable in
        // `immutables` until the SST is installed.
        let meta = self.build_sst(file_number, 0, 0, frozen.memtable.to_sorted_vec())?;
        self.stats.record_flush(meta.file_size, meta.num_entries);
        let (flushed_bytes, flushed_entries) = (meta.file_size, meta.num_entries);
        {
            let mut inner = self.inner.write();
            let table =
                TableHandle::open_with_cache(&self.storage, &meta.file_name(), self.cache.clone())?;
            inner.levels[0].runs[0]
                .files
                .push(LevelFile { meta, table });
            inner
                .immutables
                .retain(|m| !Arc::ptr_eq(&m.memtable, &frozen.memtable));
            // Manifest-first segment GC: drop the segment from the live set,
            // persist a manifest that has the SST and no longer lists the
            // segment, and only then unlink the file.
            for segment in &frozen.wal_segments {
                self.wal.retire(*segment);
            }
            self.persist_manifest(&inner)?;
        }
        self.wal.delete_retired()?;
        if let (Some(telemetry), Some(start)) = (telemetry, flush_start) {
            telemetry.flush_event(start.elapsed(), flushed_bytes, flushed_entries);
        }
        self.notify_write_room();
        Ok(true)
    }

    fn build_sst(
        &self,
        file_number: u64,
        level: u32,
        column_group: u32,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<FileMeta> {
        let name = format!("{file_number:08}.sst");
        // A transient fault mid-build restarts the whole table from scratch
        // (create truncates), so a retried build never sees torn output.
        let props = retry_io(
            &RetryPolicy::transient_io(),
            |_, _| self.note_io_retry(),
            || {
                let file = self.storage.create(&name)?;
                let mut builder = TableBuilder::new(file, self.options.table.clone());
                for (k, v) in &entries {
                    builder.add(k, v)?;
                }
                builder.finish()
            },
        )?;
        Ok(FileMeta {
            file_number,
            level,
            min_user_key: props.min_user_key,
            max_user_key: props.max_user_key,
            num_entries: props.num_entries,
            file_size: props.file_size,
            min_seq: props.min_seq,
            max_seq: props.max_seq,
            column_group,
        })
    }

    fn persist_manifest(&self, inner: &DbInner) -> Result<()> {
        let snapshot = VersionSnapshot {
            next_file_number: inner.next_file_number,
            last_seq: inner.last_seq,
            files: inner
                .levels
                .iter()
                .flat_map(|state| {
                    state
                        .runs
                        .iter()
                        .flat_map(|r| r.files.iter().map(|f| f.meta.clone()))
                })
                .collect(),
            wal_segments: self.wal.live_segments(),
        };
        // The manifest write is atomic (write-new-then-swap), so a transient
        // fault can simply be retried.
        retry_io(
            &RetryPolicy::transient_io(),
            |_, _| self.note_io_retry(),
            || write_manifest(&self.storage, &snapshot),
        )
    }

    // ------------------------------------------------------------------
    // CG-local compaction (Section 4.4)
    // ------------------------------------------------------------------

    /// Picks `(level, cg_index)` of the most overflowing column group in the
    /// most overflowing level, or `None` if nothing overflows. Level-0
    /// additionally overflows on *file count* (at the slowdown threshold), so
    /// a backpressure pileup always has a compaction that can clear it even
    /// when the files are small.
    fn pick_compaction(&self, inner: &DbInner) -> Option<(usize, usize)> {
        // Most overflowing level first.
        let mut best_level: Option<(usize, f64)> = None;
        for (level, state) in inner.levels.iter().enumerate() {
            if level + 1 >= inner.levels.len() {
                break;
            }
            let capacity = self.options.level_capacity_bytes(level);
            if capacity == 0 {
                continue;
            }
            let mut score = state.size_bytes() as f64 / capacity as f64;
            // The count trigger only applies in background mode: the legacy
            // synchronous path (and the paper's experiments) compacts purely
            // on byte overflow, and must keep doing so.
            if level == 0 && self.maintenance.get().is_some() && self.options.l0_slowdown_files > 0
            {
                // `files + 1` so the score strictly exceeds 1.0 exactly when
                // the count reaches the slowdown threshold — a stalled writer
                // (stall == slowdown is allowed) must always have a runnable
                // compaction, or backpressure would wait forever.
                let files = state.runs[0].files.len();
                if files >= self.options.l0_slowdown_files {
                    score = score.max((files + 1) as f64 / self.options.l0_slowdown_files as f64);
                }
            }
            if score > 1.0 && best_level.map(|(_, s)| score > s).unwrap_or(true) {
                best_level = Some((level, score));
            }
        }
        let (level, _) = best_level?;
        // Most overflowing CG within that level (capacity divided
        // proportionally across the CGs).
        let mut best_cg: Option<(usize, f64)> = None;
        for (cg_idx, run) in inner.levels[level].runs.iter().enumerate() {
            let capacity = self.options.cg_capacity_bytes(level, cg_idx).max(1);
            let score = run.size_bytes() as f64 / capacity as f64;
            if run.size_bytes() > 0 && best_cg.map(|(_, s)| score > s).unwrap_or(true) {
                best_cg = Some((cg_idx, score));
            }
        }
        best_cg.map(|(cg, _)| (level, cg))
    }

    /// Runs one CG-local compaction job if any level overflows. Returns true
    /// if work was done.
    pub fn compact_once(&self) -> Result<bool> {
        if let Some(info) = self.degradation.info() {
            // Same error-state gate as the flush path: no compactions while
            // the engine is read-only.
            return Err(Error::read_only(info.reason));
        }
        let pick = {
            let inner = self.inner.read();
            self.pick_compaction(&inner)
        };
        let Some((level, cg_idx)) = pick else {
            return Ok(false);
        };
        self.compact_cg(level, cg_idx)?;
        Ok(true)
    }

    /// Compacts until no level overflows.
    pub fn compact_until_stable(&self) -> Result<()> {
        while self.compact_once()? {}
        Ok(())
    }

    /// Compacts the whole tree down as far as possible (used by experiments
    /// that want a fully-settled tree regardless of capacity thresholds).
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        loop {
            let pick = {
                let inner = self.inner.read();
                // Find the shallowest non-empty level that is not the last.
                (0..inner.levels.len() - 1)
                    .find(|&l| inner.levels[l].size_bytes() > 0)
                    .map(|l| {
                        let cg = inner.levels[l]
                            .runs
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.size_bytes() > 0)
                            .map(|(i, _)| i)
                            .next()
                            .unwrap_or(0);
                        (l, cg)
                    })
            };
            let Some((level, cg)) = pick else { break };
            self.compact_cg(level, cg)?;
        }
        Ok(())
    }

    /// The core of LASER's layout-changing compaction: merges the chosen
    /// column group of `level` into the contained column groups of `level+1`,
    /// re-encoding fragments into the target layout.
    pub fn compact_cg(&self, level: usize, cg_idx: usize) -> Result<()> {
        let telemetry = self.telemetry.get();
        let compact_start = telemetry.map(|_| Instant::now());
        // Serialise compaction jobs (background workers and foreground calls
        // share this lock); the plan below re-reads state after acquiring it,
        // so a stale pick degrades to a no-op rather than a double merge.
        let _compacting = self.compaction_lock.lock();
        let target_level = level + 1;
        let c = self.num_columns();
        // Collect inputs and plan under the read lock.
        let (input_files, source_group_cols, target_cgs) = {
            let inner = self.inner.read();
            if target_level >= inner.levels.len() {
                return Ok(());
            }
            let run = &inner.levels[level].runs[cg_idx];
            if run.files.is_empty() {
                return Ok(());
            }
            let input_files: Vec<LevelFile> = run.files.clone();
            let source_group = self.options.layout.level(level).groups()[cg_idx].clone();
            let target_layout = self.options.layout.level(target_level);
            // Target CGs: those sharing columns with the source CG. Under the
            // containment assumption they are subsets of the source CG.
            let target_cgs: Vec<(usize, Vec<ColumnId>)> = target_layout
                .groups()
                .iter()
                .enumerate()
                .filter(|(_, g)| g.overlaps(&source_group))
                .map(|(i, g)| (i, g.columns().to_vec()))
                .collect();
            (input_files, source_group.columns().to_vec(), target_cgs)
        };

        let bytes_read_inputs: u64 = input_files.iter().map(|f| f.meta.file_size).sum();

        // Materialise the deduplicated source entries: newest version of every
        // key in the source CG, with partial rows merged (Section 4.2).
        let sources: Vec<BoxedFragmentSource> = input_files
            .iter()
            .rev()
            .map(|f| {
                Box::new(RowSource::new(Box::new(f.table.iter()), c, MAX_SEQNO))
                    as BoxedFragmentSource
            })
            .collect();
        let mut source_iter = LevelMergingIteratorForCompaction::new(sources);
        source_iter.seek(0)?;
        let mut source_entries: Vec<(UserKey, SeqNo, ValueKind, RowFragment)> = Vec::new();
        while let Some((key, seq, kind, fragment)) = source_iter.next_merged()? {
            source_entries.push((key, seq, kind, fragment.restrict(&source_group_cols)));
        }

        let mut total_bytes_written = 0u64;
        let mut total_entries_written = 0u64;
        let mut new_outputs: Vec<(usize, Vec<FileMeta>)> = Vec::new();
        let mut replaced: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut bytes_read = bytes_read_inputs;

        let output_is_last_level = target_level + 1 >= self.options.num_levels;

        for (target_cg_idx, target_cols) in &target_cgs {
            // Existing entries of the target CG run (older than the inputs).
            let existing_files: Vec<LevelFile> = {
                let inner = self.inner.read();
                inner.levels[target_level].runs[*target_cg_idx]
                    .files
                    .clone()
            };
            bytes_read += existing_files.iter().map(|f| f.meta.file_size).sum::<u64>();
            let existing_tables: Vec<TableHandle> =
                existing_files.iter().map(|f| f.table.clone()).collect();
            let mut existing =
                RowSource::new(Box::new(ConcatIterator::new(existing_tables)), c, MAX_SEQNO);
            existing.seek(0)?;

            // Merge source entries (newer) with the existing run (older).
            let mut out_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut push_entry =
                |key: UserKey, seq: SeqNo, kind: ValueKind, fragment: &RowFragment| {
                    if kind == ValueKind::Tombstone {
                        if !output_is_last_level {
                            out_entries.push((
                                InternalKey::new(key, seq, ValueKind::Tombstone)
                                    .encode()
                                    .to_vec(),
                                Vec::new(),
                            ));
                        }
                        return;
                    }
                    let restricted = fragment.restrict(target_cols);
                    if restricted.is_empty() {
                        return;
                    }
                    let kind = if restricted.len() == target_cols.len() {
                        ValueKind::Full
                    } else {
                        ValueKind::Partial
                    };
                    out_entries.push((
                        InternalKey::new(key, seq, kind).encode().to_vec(),
                        restricted.encode(c),
                    ));
                };

            let mut src_idx = 0usize;
            loop {
                let src = source_entries.get(src_idx);
                let existing_key = existing.current_key();
                match (src, existing_key) {
                    (None, None) => break,
                    (Some((key, seq, kind, fragment)), None) => {
                        push_entry(*key, *seq, *kind, fragment);
                        src_idx += 1;
                    }
                    (None, Some(ekey)) => {
                        let versions = existing.take_versions()?;
                        if let Some((eseq, ekind, efrag, _)) = Self::merge_versions(&versions) {
                            push_entry(ekey, eseq, ekind, &efrag);
                        }
                    }
                    (Some((skey, sseq, skind, sfrag)), Some(ekey)) => {
                        if *skey < ekey {
                            push_entry(*skey, *sseq, *skind, sfrag);
                            src_idx += 1;
                        } else if ekey < *skey {
                            let versions = existing.take_versions()?;
                            if let Some((eseq, ekind, efrag, _)) = Self::merge_versions(&versions) {
                                push_entry(ekey, eseq, ekind, &efrag);
                            }
                        } else {
                            // Same key: the source (upper level) is newer.
                            let versions = existing.take_versions()?;
                            let older = Self::merge_versions(&versions);
                            if *skind == ValueKind::Tombstone {
                                push_entry(*skey, *sseq, ValueKind::Tombstone, sfrag);
                            } else if let Some((_, okind, ofrag, _)) = older {
                                if okind == ValueKind::Tombstone {
                                    // Older tombstone: only the newer columns survive.
                                    push_entry(*skey, *sseq, *skind, sfrag);
                                } else {
                                    let merged = sfrag.merge_over(&ofrag);
                                    push_entry(*skey, *sseq, ValueKind::Full, &merged);
                                }
                            } else {
                                push_entry(*skey, *sseq, *skind, sfrag);
                            }
                            src_idx += 1;
                        }
                    }
                }
            }

            // Write the new run, partitioned into SSTs of the target size.
            let mut metas = Vec::new();
            let mut chunk: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut chunk_bytes = 0u64;
            for (k, v) in out_entries {
                chunk_bytes += (k.len() + v.len()) as u64;
                chunk.push((k, v));
                if chunk_bytes >= self.options.sst_target_size_bytes {
                    let meta = self.write_run_file(
                        target_level as u32,
                        *target_cg_idx as u32,
                        std::mem::take(&mut chunk),
                    )?;
                    total_bytes_written += meta.file_size;
                    total_entries_written += meta.num_entries;
                    metas.push(meta);
                    chunk_bytes = 0;
                }
            }
            if !chunk.is_empty() {
                let meta =
                    self.write_run_file(target_level as u32, *target_cg_idx as u32, chunk)?;
                total_bytes_written += meta.file_size;
                total_entries_written += meta.num_entries;
                metas.push(meta);
            }
            replaced.push((
                *target_cg_idx,
                existing_files.iter().map(|f| f.meta.file_number).collect(),
            ));
            new_outputs.push((*target_cg_idx, metas));
        }

        // Install: remove the source run and the replaced target runs, add outputs.
        {
            let mut inner = self.inner.write();
            let removed_inputs: Vec<u64> = input_files.iter().map(|f| f.meta.file_number).collect();
            inner.levels[level].runs[cg_idx]
                .files
                .retain(|f| !removed_inputs.contains(&f.meta.file_number));
            for (target_cg_idx, old_numbers) in &replaced {
                inner.levels[target_level].runs[*target_cg_idx]
                    .files
                    .retain(|f| !old_numbers.contains(&f.meta.file_number));
            }
            for (target_cg_idx, metas) in &new_outputs {
                for meta in metas {
                    let table = TableHandle::open_with_cache(
                        &self.storage,
                        &meta.file_name(),
                        self.cache.clone(),
                    )?;
                    inner.levels[target_level].runs[*target_cg_idx]
                        .files
                        .push(LevelFile {
                            meta: meta.clone(),
                            table,
                        });
                }
                inner.levels[target_level].runs[*target_cg_idx]
                    .files
                    .sort_by_key(|f| f.meta.min_user_key);
            }
            self.persist_manifest(&inner)?;
            for f in &input_files {
                let _ = self.storage.delete(&f.meta.file_name());
            }
            for (_, old_numbers) in &replaced {
                for n in old_numbers {
                    let _ = self.storage.delete(&format!("{n:08}.sst"));
                }
            }
        }
        self.stats
            .record_compaction(bytes_read, total_bytes_written, total_entries_written);
        if let (Some(telemetry), Some(start)) = (telemetry, compact_start) {
            telemetry.compaction_event(
                start.elapsed(),
                bytes_read,
                total_bytes_written,
                total_entries_written,
            );
        }
        self.notify_write_room();
        Ok(())
    }

    /// Collapses a newest-first version list into a single merged fragment.
    /// Returns `(seq, kind, fragment, key)` of the merged record.
    fn merge_versions(
        versions: &[crate::iters::FragmentVersion],
    ) -> Option<(SeqNo, ValueKind, RowFragment, UserKey)> {
        // Versions coming from RowSource belong to a single key; the key is
        // not part of FragmentVersion, so callers that need it thread it
        // separately. Here we only need the merged fragment and kind.
        let first = versions.first()?;
        let mut acc = RowFragment::empty();
        let mut kind = ValueKind::Partial;
        for v in versions {
            match v.kind {
                ValueKind::Tombstone => {
                    if acc.is_empty() {
                        kind = ValueKind::Tombstone;
                    }
                    break;
                }
                ValueKind::Full => {
                    acc.fill_missing_from(&v.fragment);
                    kind = ValueKind::Full;
                    break;
                }
                ValueKind::Partial => {
                    acc.fill_missing_from(&v.fragment);
                }
            }
        }
        Some((first.seq, kind, acc, 0))
    }

    fn write_run_file(
        &self,
        level: u32,
        column_group: u32,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<FileMeta> {
        let file_number = {
            let mut inner = self.inner.write();
            let n = inner.next_file_number;
            inner.next_file_number += 1;
            n
        };
        self.build_sst(file_number, level, column_group, entries)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-level, per-column-group summary of the on-disk state.
    pub fn level_summaries(&self) -> Vec<LevelSummary> {
        let inner = self.inner.read();
        inner
            .levels
            .iter()
            .enumerate()
            .map(|(level, state)| LevelSummary {
                level,
                column_groups: state
                    .runs
                    .iter()
                    .map(|r| (r.files.len(), r.num_entries(), r.size_bytes()))
                    .collect(),
                total_bytes: state.size_bytes(),
            })
            .collect()
    }

    /// Every file's metadata grouped by level (all column groups interleaved).
    pub fn level_files(&self) -> Vec<Vec<FileMeta>> {
        let inner = self.inner.read();
        inner
            .levels
            .iter()
            .map(|state| {
                state
                    .runs
                    .iter()
                    .flat_map(|r| r.files.iter().map(|f| f.meta.clone()))
                    .collect()
            })
            .collect()
    }

    /// Total bytes stored per level.
    pub fn level_sizes(&self) -> Vec<u64> {
        let inner = self.inner.read();
        inner.levels.iter().map(|s| s.size_bytes()).collect()
    }

    /// Number of entries in the mutable memtable.
    pub fn memtable_len(&self) -> usize {
        let inner = self.inner.read();
        inner.mutable.as_ref().map(|m| m.len()).unwrap_or(0)
    }

    /// Approximate bytes buffered in the mutable and frozen memtables.
    pub fn buffered_bytes(&self) -> u64 {
        let inner = self.inner.read();
        let mut total = inner
            .mutable
            .as_ref()
            .map(|m| m.approximate_bytes())
            .unwrap_or(0);
        total += inner
            .immutables
            .iter()
            .map(|m| m.memtable.approximate_bytes())
            .sum::<usize>();
        total as u64
    }

    /// Total bytes of all attached SST files.
    pub fn total_sst_bytes(&self) -> u64 {
        self.level_sizes().iter().sum()
    }

    /// Flushes outstanding data and persists the manifest.
    pub fn close(&self) -> Result<()> {
        self.flush()?;
        let inner = self.inner.read();
        self.persist_manifest(&inner)
    }

    /// Deletes every WAL segment file, idempotently (used by tests that
    /// simulate crashes after a clean flush: all durable data must come from
    /// SSTs alone). The engine should be dropped afterwards.
    pub fn remove_wal(&self) -> Result<()> {
        self.wal.remove_all()
    }
}

impl EngineMaintenance for LaserDb {
    fn maintenance_cell(&self) -> &OnceLock<MaintenanceHandle> {
        &self.maintenance
    }

    fn write_room(&self) -> &BackpressureGate {
        &self.write_room
    }

    fn backpressure_config(&self) -> BackpressureConfig {
        BackpressureConfig {
            l0_slowdown_files: self.options.l0_slowdown_files,
            l0_stall_files: self.options.l0_stall_files,
            max_pending_jobs: self.options.max_pending_jobs,
        }
    }

    fn compaction_kind(&self) -> JobKind {
        JobKind::CgCompaction
    }

    /// Freezes the mutable memtable (rotating the WAL segment) when it
    /// crossed the size threshold.
    fn freeze_if_full(&self) -> Result<bool> {
        let mut inner = self.inner.write();
        let Some(mutable) = inner.mutable.as_ref() else {
            return Ok(false);
        };
        if mutable.approximate_bytes() < self.options.memtable_size_bytes || mutable.is_empty() {
            return Ok(false);
        }
        self.freeze_locked(&mut inner)
    }

    fn flush_frozen_one(&self) -> Result<bool> {
        self.flush_frozen_one_impl()
    }

    fn compact_once(&self) -> Result<bool> {
        LaserDb::compact_once(self)
    }

    /// True if some level overflows (by bytes, or Level-0 by file count).
    fn needs_compaction(&self) -> bool {
        let inner = self.inner.read();
        self.pick_compaction(&inner).is_some()
    }

    fn has_frozen_memtables(&self) -> bool {
        !self.inner.read().immutables.is_empty()
    }

    fn l0_pressure(&self) -> usize {
        let inner = self.inner.read();
        inner.levels[0].runs[0].files.len() + inner.immutables.len()
    }

    fn maybe_flush(&self) -> Result<()> {
        let should = {
            let inner = self.inner.read();
            inner
                .mutable
                .as_ref()
                .map(|m| m.approximate_bytes() >= self.options.memtable_size_bytes)
                .unwrap_or(false)
        };
        if should {
            self.flush()?;
        }
        Ok(())
    }

    fn auto_compact(&self) -> bool {
        self.options.auto_compact
    }

    fn record_throttle(&self, throttle: Throttle) {
        match throttle {
            Throttle::Stall => self.stats.record_stall(),
            Throttle::Slowdown => self.stats.record_slowdown(),
            Throttle::None => {}
        }
    }

    fn record_stall_duration(&self, waited: Duration) {
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.stall_event(waited);
        }
    }
}

impl MaintainableEngine for LaserDb {
    /// Forwards to the shared [`EngineMaintenance::run_job`] protocol. A
    /// persistent storage fault escaping a background job degrades the
    /// engine to read-only instead of letting the pool churn against a
    /// broken device.
    fn run_maintenance_job(&self, kind: JobKind) -> Result<()> {
        let result = self.run_job(kind);
        if let Err(e) = &result {
            self.note_storage_error(e);
        }
        result
    }
}

/// A small helper used only by compaction: merges the row-oriented input runs
/// (Level-0 SSTs or a single CG run) into one deduplicated stream of
/// `(key, seq, kind, fragment)` where partial rows within the inputs have
/// already been overlaid newest-first.
struct LevelMergingIteratorForCompaction {
    sources: Vec<BoxedFragmentSource>,
}

impl LevelMergingIteratorForCompaction {
    fn new(sources: Vec<BoxedFragmentSource>) -> Self {
        LevelMergingIteratorForCompaction { sources }
    }

    fn seek(&mut self, lo: UserKey) -> Result<()> {
        for s in &mut self.sources {
            s.seek(lo)?;
        }
        Ok(())
    }

    fn next_merged(&mut self) -> Result<Option<(UserKey, SeqNo, ValueKind, RowFragment)>> {
        let Some(key) = self.sources.iter().filter_map(|s| s.current_key()).min() else {
            return Ok(None);
        };
        let mut acc = RowFragment::empty();
        let mut newest_seq = 0;
        let mut kind = ValueKind::Partial;
        let mut decided = false;
        for source in &mut self.sources {
            if source.current_key() != Some(key) {
                continue;
            }
            let versions = source.take_versions()?;
            if decided {
                continue;
            }
            for v in versions {
                newest_seq = newest_seq.max(v.seq);
                match v.kind {
                    ValueKind::Tombstone => {
                        if acc.is_empty() {
                            kind = ValueKind::Tombstone;
                        }
                        decided = true;
                        break;
                    }
                    ValueKind::Full => {
                        acc.fill_missing_from(&v.fragment);
                        kind = ValueKind::Full;
                        decided = true;
                        break;
                    }
                    ValueKind::Partial => {
                        acc.fill_missing_from(&v.fragment);
                    }
                }
            }
        }
        Ok(Some((key, newest_seq, kind, acc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutSpec;

    const C: usize = 8;

    fn schema() -> Schema {
        Schema::with_columns(C)
    }

    fn db_with(layout: LayoutSpec) -> LaserDb {
        LaserDb::open_in_memory(LaserOptions::small_for_tests(layout)).unwrap()
    }

    fn designs() -> Vec<LayoutSpec> {
        let s = schema();
        vec![
            LayoutSpec::row_store(&s, 6),
            LayoutSpec::column_store(&s, 6),
            LayoutSpec::equi_width(&s, 6, 2),
            LayoutSpec::equi_width(&s, 6, 4),
            LayoutSpec::htap_simple(&s, 6, 3),
        ]
    }

    #[test]
    fn insert_read_roundtrip_all_designs() {
        for layout in designs() {
            let db = db_with(layout.clone());
            for key in 0..200u64 {
                db.insert_int_row(key, key as i64 * 10).unwrap();
            }
            db.flush().unwrap();
            db.compact_until_stable().unwrap();
            for key in (0..200u64).step_by(7) {
                let row = db
                    .read(key, &Projection::all(&schema()))
                    .unwrap()
                    .unwrap_or_else(|| panic!("key {key} missing in design {}", layout.name()));
                assert!(
                    row.is_complete(&schema()),
                    "incomplete row in {}",
                    layout.name()
                );
                assert_eq!(row.get(0), Some(&Value::Int(key as i64 * 10 + 1)));
                assert_eq!(
                    row.get(C - 1),
                    Some(&Value::Int(key as i64 * 10 + C as i64))
                );
            }
            assert!(db
                .read(10_000, &Projection::all(&schema()))
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn projection_read_returns_only_projected_columns() {
        let db = db_with(LayoutSpec::equi_width(&schema(), 6, 2));
        for key in 0..100u64 {
            db.insert_int_row(key, key as i64).unwrap();
        }
        db.compact_all().unwrap();
        let proj = Projection::of([1, 5]);
        let row = db.read(42, &proj).unwrap().unwrap();
        assert_eq!(row.columns().to_vec(), vec![1, 5]);
        assert_eq!(row.get(1), Some(&Value::Int(44)));
        assert_eq!(row.get(5), Some(&Value::Int(48)));
    }

    #[test]
    fn update_merges_partial_rows_across_levels() {
        for layout in designs() {
            let db = db_with(layout.clone());
            for key in 0..50u64 {
                db.insert_int_row(key, 0).unwrap();
            }
            // Push the full rows to the disk levels.
            db.compact_all().unwrap();
            // Update a single column of key 7; the rest of the row stays below.
            db.update(7, vec![(3, Value::Int(999))]).unwrap();
            let row = db.read(7, &Projection::all(&schema())).unwrap().unwrap();
            assert_eq!(
                row.get(3),
                Some(&Value::Int(999)),
                "design {}",
                layout.name()
            );
            assert_eq!(row.get(0), Some(&Value::Int(1)), "design {}", layout.name());
            assert_eq!(row.get(7), Some(&Value::Int(8)), "design {}", layout.name());
            // After further compaction the partial row is merged physically.
            db.compact_all().unwrap();
            let row = db.read(7, &Projection::all(&schema())).unwrap().unwrap();
            assert_eq!(row.get(3), Some(&Value::Int(999)));
            assert_eq!(row.get(0), Some(&Value::Int(1)));
        }
    }

    #[test]
    fn delete_hides_key_in_all_designs() {
        for layout in designs() {
            let db = db_with(layout);
            for key in 0..30u64 {
                db.insert_int_row(key, 5).unwrap();
            }
            db.compact_all().unwrap();
            db.delete(13).unwrap();
            assert!(db.read(13, &Projection::all(&schema())).unwrap().is_none());
            // And stays hidden after the tombstone is compacted down.
            db.compact_all().unwrap();
            assert!(db.read(13, &Projection::all(&schema())).unwrap().is_none());
            assert!(db.read(12, &Projection::all(&schema())).unwrap().is_some());
        }
    }

    #[test]
    fn scan_returns_sorted_keys_with_projection() {
        for layout in designs() {
            let db = db_with(layout.clone());
            for key in 0..300u64 {
                db.insert_int_row(key, key as i64).unwrap();
            }
            db.compact_all().unwrap();
            let proj = Projection::of([0, 6]);
            let rows = db.scan(50, 99, &proj).unwrap();
            assert_eq!(rows.len(), 50, "design {}", layout.name());
            assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "keys must be sorted"
            );
            for (key, frag) in &rows {
                assert_eq!(frag.get(0), Some(&Value::Int(*key as i64 + 1)));
                assert_eq!(frag.get(6), Some(&Value::Int(*key as i64 + 7)));
                assert!(!frag.contains(3), "unprojected column leaked");
            }
        }
    }

    #[test]
    fn scan_sees_updates_and_deletes() {
        let db = db_with(LayoutSpec::equi_width(&schema(), 6, 2));
        for key in 0..100u64 {
            db.insert_int_row(key, 0).unwrap();
        }
        db.compact_all().unwrap();
        db.update(10, vec![(2, Value::Int(-1))]).unwrap();
        db.delete(11).unwrap();
        let rows = db.scan(0, 99, &Projection::all(&schema())).unwrap();
        assert_eq!(rows.len(), 99, "deleted key must be skipped");
        let updated = rows.iter().find(|(k, _)| *k == 10).unwrap();
        assert_eq!(updated.1.get(2), Some(&Value::Int(-1)));
        assert_eq!(updated.1.get(0), Some(&Value::Int(1)));
        assert!(!rows.iter().any(|(k, _)| *k == 11));
    }

    #[test]
    fn data_reaches_deeper_levels_with_cg_layout() {
        let db = db_with(LayoutSpec::equi_width(&schema(), 6, 2));
        for key in 0..2000u64 {
            db.insert_int_row(key, key as i64).unwrap();
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        let summaries = db.level_summaries();
        let deepest_populated = summaries
            .iter()
            .rev()
            .find(|s| s.total_bytes > 0)
            .map(|s| s.level)
            .unwrap_or(0);
        assert!(deepest_populated >= 1, "data should age past level 0");
        // Levels >= 1 use the configured number of column groups, and at least
        // one populated level must hold data in several of them (compaction
        // from Level-0 splits full rows into every CG of the next level; a
        // deeper level may legitimately hold only the single CG that
        // overflowed so far).
        let mut some_level_has_multiple_cgs = false;
        for s in &summaries {
            if s.level >= 1 && s.total_bytes > 0 {
                assert_eq!(s.column_groups.len(), 4, "8 columns / cg_size 2");
                let populated = s.column_groups.iter().filter(|(_, e, _)| *e > 0).count();
                if populated >= 2 {
                    some_level_has_multiple_cgs = true;
                }
            }
        }
        assert!(some_level_has_multiple_cgs);
    }

    #[test]
    fn stats_reflect_operations() {
        let db = db_with(LayoutSpec::equi_width(&schema(), 6, 4));
        for key in 0..500u64 {
            db.insert_int_row(key, 1).unwrap();
        }
        db.compact_all().unwrap();
        db.read(5, &Projection::of([0])).unwrap();
        db.scan(0, 50, &Projection::of([7])).unwrap();
        db.update(3, vec![(1, Value::Int(0))]).unwrap();
        db.delete(4).unwrap();
        let stats = db.stats();
        assert_eq!(stats.inserts, 500);
        assert_eq!(stats.point_reads, 1);
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.deletes, 1);
        assert!(stats.flushes >= 1);
        assert!(stats.compactions >= 1);
        assert!(stats.compaction_bytes_written > 0);
    }

    #[test]
    fn recovery_preserves_data_and_layout() {
        let storage: StorageRef = MemStorage::new_ref();
        let layout = LayoutSpec::equi_width(&schema(), 6, 2);
        let options = LaserOptions::small_for_tests(layout.clone());
        {
            let db = LaserDb::open(Arc::clone(&storage), options.clone()).unwrap();
            for key in 0..400u64 {
                db.insert_int_row(key, key as i64).unwrap();
            }
            db.flush().unwrap();
            db.compact_until_stable().unwrap();
            // Unflushed tail in the WAL only.
            for key in 400..450u64 {
                db.insert_int_row(key, key as i64).unwrap();
            }
        }
        let db = LaserDb::open(storage, options).unwrap();
        for key in (0..450u64).step_by(37) {
            let row = db.read(key, &Projection::of([2])).unwrap().unwrap();
            assert_eq!(row.get(2), Some(&Value::Int(key as i64 + 3)));
        }
    }

    #[test]
    fn insert_requires_complete_row() {
        let db = db_with(LayoutSpec::row_store(&schema(), 4));
        let partial = RowFragment::from_cells(vec![(0, Value::Int(1))]);
        assert!(db.insert(1, partial).is_err());
        assert!(db.update(1, vec![]).is_err());
        assert!(
            db.update(1, vec![(C, Value::Int(1))]).is_err(),
            "out-of-schema column"
        );
    }

    #[test]
    fn update_then_delete_then_update() {
        let db = db_with(LayoutSpec::equi_width(&schema(), 6, 2));
        db.insert_int_row(1, 0).unwrap();
        db.compact_all().unwrap();
        db.delete(1).unwrap();
        db.update(1, vec![(0, Value::Int(7))]).unwrap();
        // The newer partial is visible; the deleted older columns are not.
        let row = db.read(1, &Projection::all(&schema())).unwrap().unwrap();
        assert_eq!(row.get(0), Some(&Value::Int(7)));
        assert_eq!(row.get(1), None);
    }

    #[test]
    fn read_empty_projection_returns_whole_row() {
        let db = db_with(LayoutSpec::row_store(&schema(), 4));
        db.insert_int_row(9, 100).unwrap();
        let row = db.read(9, &Projection::empty()).unwrap().unwrap();
        assert!(row.is_complete(&schema()));
    }
}
