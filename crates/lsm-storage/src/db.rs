//! A plain key-value LSM-Tree engine with leveled compaction.
//!
//! This is the substrate's stand-in for unmodified RocksDB: a row-style
//! LSM-Tree where each entry is an opaque value blob. It provides the
//! baseline behaviour the paper relies on — write batching, flush to Level-0,
//! leveled compaction with a configurable picking priority, bloom-filtered
//! point lookups and merged range scans — and is used directly by the
//! Figure 2 experiment (key age distribution across levels under the two
//! compaction priorities).
//!
//! The Real-Time LSM-Tree engine (crate `laser-core`) builds its per-level,
//! per-column-group structure from the same components (memtable, SSTs,
//! merging iterators) rather than wrapping this type, because its compaction
//! jobs span column groups rather than whole levels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use telemetry::trace::{self, TraceKind};
use telemetry::Telemetry;

use crate::cache::{BlockCache, ScopedCache};
use crate::degrade::{DegradationController, DegradedInfo};
use crate::error::{Error, Result};
use crate::iterator::{
    BoxedIterator, KvIterator, LevelConcatIterator, MergingIterator, NaiveMergingIterator,
    RangeIterator,
};
use crate::maintenance::{
    attach_engine, BackpressureConfig, BackpressureGate, EngineMaintenance, JobKind, JobScheduler,
    MaintainableEngine, MaintenanceHandle, Throttle,
};
use crate::manifest::{read_manifest, write_manifest, FileMeta, VersionSnapshot};
use crate::memtable::{FrozenMemTable, MemTable, MemTableRef};
use crate::observability::EngineTelemetry;
use crate::options::{CompactionPriority, LsmOptions};
use crate::retry::{retry_io, RetryPolicy};
use crate::sst::{TableBuilder, TableHandle};
use crate::storage::StorageRef;
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch, MAX_SEQNO};
use crate::wal_segment::{SegmentedWal, WalStatsSnapshot, WalSyncPolicy};

/// Pre-segmentation WAL file name, still recognised (and migrated) at open.
const LEGACY_WAL_NAME: &str = "wal-current.log";

/// Counters describing flush/compaction work performed by the engine.
#[derive(Debug, Default)]
pub struct CompactionStats {
    /// Number of memtable flushes.
    pub flushes: AtomicU64,
    /// Number of compaction jobs run.
    pub compactions: AtomicU64,
    /// Total bytes written by flushes and compactions (write amplification).
    pub bytes_written: AtomicU64,
    /// Total bytes read by compactions.
    pub bytes_read: AtomicU64,
    /// Total entries written out by flushes and compactions.
    pub entries_written: AtomicU64,
    /// Writes that blocked on backpressure (stall threshold reached).
    pub stall_events: AtomicU64,
    /// Writes that briefly yielded on backpressure (slowdown threshold).
    pub slowdown_events: AtomicU64,
    /// Entries dropped because they fell outside the engine's key bound
    /// (trim compactions plus regular compactions under a bound).
    pub trimmed_entries: AtomicU64,
    /// Trim compactions run (out-of-range SSTs rewritten or dropped).
    pub trim_compactions: AtomicU64,
    /// Logical bytes accepted on the write path (key + value payload),
    /// before any storage overhead — the denominator of measured write
    /// amplification.
    pub ingest_bytes: AtomicU64,
}

impl CompactionStats {
    /// Point-in-time snapshot as plain integers.
    pub fn snapshot(&self) -> CompactionStatsSnapshot {
        CompactionStatsSnapshot {
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            entries_written: self.entries_written.load(Ordering::Relaxed),
            stall_events: self.stall_events.load(Ordering::Relaxed),
            slowdown_events: self.slowdown_events.load(Ordering::Relaxed),
            trimmed_entries: self.trimmed_entries.load(Ordering::Relaxed),
            trim_compactions: self.trim_compactions.load(Ordering::Relaxed),
            ingest_bytes: self.ingest_bytes.load(Ordering::Relaxed),
            ..Default::default()
        }
    }
}

/// Owned snapshot of [`CompactionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStatsSnapshot {
    /// Number of memtable flushes.
    pub flushes: u64,
    /// Number of compaction jobs run.
    pub compactions: u64,
    /// Total bytes written by flushes and compactions.
    pub bytes_written: u64,
    /// Total bytes read by compactions.
    pub bytes_read: u64,
    /// Total entries written out.
    pub entries_written: u64,
    /// Writes that blocked on backpressure.
    pub stall_events: u64,
    /// Writes that briefly yielded on backpressure.
    pub slowdown_events: u64,
    /// Entries dropped for lying outside the engine's key bound.
    pub trimmed_entries: u64,
    /// Trim compactions run.
    pub trim_compactions: u64,
    /// Logical bytes accepted on the write path (key + value payload).
    pub ingest_bytes: u64,
    /// Block-cache hits (0 when no cache is configured).
    pub cache_hits: u64,
    /// Block-cache misses (0 when no cache is configured).
    pub cache_misses: u64,
    /// Background jobs completed by an attached maintenance scheduler.
    pub bg_jobs_completed: u64,
    /// Background jobs that failed.
    pub bg_jobs_failed: u64,
    /// Background jobs queued or running at snapshot time.
    pub bg_jobs_pending: u64,
    /// Durability counters of the segmented write-ahead log.
    pub wal: WalStatsSnapshot,
}

impl CompactionStatsSnapshot {
    /// Counter increments since `earlier` (saturating, so comparing across
    /// an engine reopen or stats reset can never underflow). The embedded
    /// WAL snapshot applies its own saturating delta.
    pub fn delta_since(&self, earlier: &CompactionStatsSnapshot) -> CompactionStatsSnapshot {
        CompactionStatsSnapshot {
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            entries_written: self.entries_written.saturating_sub(earlier.entries_written),
            stall_events: self.stall_events.saturating_sub(earlier.stall_events),
            slowdown_events: self.slowdown_events.saturating_sub(earlier.slowdown_events),
            trimmed_entries: self.trimmed_entries.saturating_sub(earlier.trimmed_entries),
            trim_compactions: self
                .trim_compactions
                .saturating_sub(earlier.trim_compactions),
            ingest_bytes: self.ingest_bytes.saturating_sub(earlier.ingest_bytes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            bg_jobs_completed: self
                .bg_jobs_completed
                .saturating_sub(earlier.bg_jobs_completed),
            bg_jobs_failed: self.bg_jobs_failed.saturating_sub(earlier.bg_jobs_failed),
            // Pending is a point-in-time gauge, not a counter.
            bg_jobs_pending: self.bg_jobs_pending,
            wal: self.wal.delta_since(&earlier.wal),
        }
    }
}

/// One SST file attached to a level.
#[derive(Clone, Debug)]
struct LevelFile {
    meta: FileMeta,
    table: TableHandle,
}

#[derive(Default)]
struct DbInner {
    mutable: Option<MemTableRef>,
    /// Frozen memtables awaiting flush (each paired with its WAL segment),
    /// oldest first.
    immutables: Vec<FrozenMemTable>,
    /// `levels[i]` holds the files of level `i`. Level 0 files may overlap and
    /// are ordered oldest-first; deeper levels hold disjoint files sorted by key.
    levels: Vec<Vec<LevelFile>>,
    next_file_number: u64,
    last_seq: SeqNo,
}

/// A plain key-value LSM-Tree database.
pub struct LsmDb {
    storage: StorageRef,
    options: LsmOptions,
    inner: RwLock<DbInner>,
    /// Segmented write-ahead log: one segment per memtable, group commit on
    /// the write path, manifest-tracked lifecycle.
    wal: SegmentedWal,
    stats: CompactionStats,
    /// Shared block cache (None when no cache is configured). May be
    /// a scoped view of a process-wide cache shared with other engines.
    cache: Option<ScopedCache>,
    /// Registered background scheduler handle; set once by
    /// [`LsmDb::attach_maintenance`]. While present, the write path enqueues
    /// flush/compaction jobs instead of running them inline.
    maintenance: OnceLock<MaintenanceHandle>,
    /// Serialises flush jobs so L0 keeps its oldest-first order.
    flush_lock: Mutex<()>,
    /// Serialises compaction jobs so two jobs never pick the same inputs.
    compaction_lock: Mutex<()>,
    /// Writers stalled on backpressure park here; maintenance jobs notify it.
    write_room: BackpressureGate,
    /// Pre-resolved telemetry handles; set once by
    /// [`LsmDb::attach_telemetry`]. While absent, instrumentation costs one
    /// branch per hot-path operation.
    telemetry: OnceLock<EngineTelemetry>,
    /// Optional key-range restriction (`[lo, hi]` inclusive). Set when this
    /// engine serves one shard of a sharded deployment: compactions drop
    /// entries outside the bound, and trim compactions proactively rewrite
    /// SSTs adopted from a pre-split parent that still carry out-of-range
    /// data. Reads are unaffected (the router never asks for out-of-range
    /// keys, and scans clamp to the bound's range at the sharding layer).
    key_bound: RwLock<Option<(UserKey, UserKey)>>,
    /// Point reads answered per level (index = level; memtable hits count
    /// as level 0, the level they would flush into). Feeds the advisor's
    /// per-level workload attribution.
    level_reads: Vec<AtomicU64>,
    /// Read-only degradation state: entered on persistent storage faults
    /// (after WAL rotation recovery and SST/manifest retries are exhausted),
    /// cleared automatically once a storage probe succeeds again.
    degradation: DegradationController,
}

impl LsmDb {
    /// Opens (or creates) a database on `storage`, recovering any previous
    /// state from the manifest and WAL. A private block cache is created per
    /// the `block_cache_bytes` option; use [`LsmDb::open_with_cache`] to
    /// share one process-wide cache across engines instead.
    pub fn open(storage: StorageRef, options: LsmOptions) -> Result<Self> {
        let cache = if options.block_cache_bytes > 0 {
            Some(ScopedCache::unscoped(BlockCache::new(
                options.block_cache_bytes,
            )))
        } else {
            None
        };
        Self::open_with_cache(storage, options, cache)
    }

    /// Opens (or creates) a database on `storage`, serving block reads
    /// through the given cache view instead of a private per-engine cache
    /// (`block_cache_bytes` is ignored). A sharded deployment passes every
    /// shard a differently-scoped view of one process-wide [`BlockCache`] so
    /// the global byte budget and per-shard accounting are shared.
    pub fn open_with_cache(
        storage: StorageRef,
        options: LsmOptions,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        options.validate()?;
        let snapshot = read_manifest(&storage)?;
        let mut inner = DbInner {
            levels: vec![Vec::new(); options.num_levels],
            next_file_number: snapshot.next_file_number.max(1),
            last_seq: snapshot.last_seq,
            ..Default::default()
        };
        for meta in &snapshot.files {
            let table = TableHandle::open_with_cache(&storage, &meta.file_name(), cache.clone())?;
            let level = meta.level as usize;
            if level >= inner.levels.len() {
                return Err(Error::corruption(format!(
                    "manifest references level {level} but num_levels is {}",
                    options.num_levels
                )));
            }
            inner.levels[level].push(LevelFile {
                meta: meta.clone(),
                table,
            });
        }
        for (level, files) in inner.levels.iter_mut().enumerate() {
            if level == 0 {
                files.sort_by_key(|f| f.meta.max_seq);
            } else {
                files.sort_by_key(|f| f.meta.min_user_key);
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

        let level_reads = (0..options.num_levels).map(|_| AtomicU64::new(0)).collect();
        let db = LsmDb {
            storage,
            options,
            inner: RwLock::new(inner),
            wal,
            stats: CompactionStats::default(),
            cache,
            maintenance: OnceLock::new(),
            flush_lock: Mutex::new(()),
            compaction_lock: Mutex::new(()),
            write_room: BackpressureGate::new(),
            telemetry: OnceLock::new(),
            key_bound: RwLock::new(None),
            level_reads,
            degradation: DegradationController::new(),
        };

        {
            let mut inner = db.inner.write();
            inner.mutable = Some(Arc::new(MemTable::new()));
            if recovery.adoptable() && recovery.total_bytes() >= db.options.recovery_adopt_bytes {
                // Large clean tail: adopt the replayed sealed segments in
                // place instead of re-logging every record. The records are
                // rebuilt into one frozen memtable paired with all adopted
                // segments, so the eventual flush retires them together.
                // Recovery I/O drops from O(records re-logged) to the
                // manifest write below.
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
                    // Re-log with the original sequence numbers so a second
                    // recovery replays identically.
                    db.wal.append(record.start_seq, &record.batch)?;
                    for (seq, entry) in (record.start_seq..).zip(record.batch.iter()) {
                        inner.mutable.as_ref().unwrap().insert(seq, entry);
                        inner.last_seq = inner.last_seq.max(seq);
                    }
                }
            }
            // Sync any re-logged records, drop the non-adopted replayed
            // files, and record the live segments in the manifest.
            db.wal.finish_recovery()?;
            db.persist_manifest(&inner)?;
        }
        Ok(db)
    }

    /// Opens a database backed by a fresh in-memory storage (for tests).
    pub fn open_in_memory(options: LsmOptions) -> Result<Self> {
        Self::open(crate::storage::MemStorage::new_ref(), options)
    }

    /// The configured options.
    pub fn options(&self) -> &LsmOptions {
        &self.options
    }

    /// The storage backend.
    pub fn storage(&self) -> &StorageRef {
        &self.storage
    }

    /// Flush/compaction statistics, including block-cache and background-job
    /// counters when those subsystems are active.
    pub fn stats(&self) -> CompactionStatsSnapshot {
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
    /// [`LsmDb::stats`]).
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.wal.stats()
    }

    /// The shared block cache, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref().map(|c| c.cache())
    }

    /// Starts a background maintenance scheduler with `num_workers` threads
    /// and registers it with this engine. From then on the write path freezes
    /// full memtables and enqueues flush/compaction jobs instead of running
    /// them inline, and applies slowdown/stall backpressure per the
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
    /// `shard_label`: latency histograms on the get/scan/commit paths, byte
    /// counters on flush/compaction, and maintenance events in the hub's
    /// event log. Idempotent — a second attach keeps the first registration.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>, shard_label: &str) {
        let _ = self
            .telemetry
            .set(EngineTelemetry::register(hub, "lsm", shard_label));
        self.wal.attach_telemetry(hub, shard_label);
    }

    /// The last sequence number assigned.
    pub fn last_seq(&self) -> SeqNo {
        self.inner.read().last_seq
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Applies a write batch atomically.
    ///
    /// The batch is appended to the active WAL segment and inserted into the
    /// mutable memtable under the engine lock; durability (per the
    /// `sync_wal` / `sync_wal_interval_ms` group-commit policy) is then
    /// awaited *outside* the lock, so concurrent writers coalesce into one
    /// fsync. With a maintenance scheduler attached, a full memtable is
    /// frozen (rotating the WAL segment) and its flush is enqueued for the
    /// background workers, after applying slowdown/stall backpressure;
    /// without one, the legacy synchronous flush/compact path runs inline.
    pub fn write(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.check_writable()?;
        let telemetry = self.telemetry.get();
        let commit_start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Commit));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        EngineMaintenance::apply_backpressure(self);
        let logical_bytes: u64 = batch
            .iter()
            .map(|e| std::mem::size_of::<UserKey>() as u64 + e.value.len() as u64)
            .sum();
        self.stats
            .ingest_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
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
        // The write is acknowledged only once its WAL record is durable.
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

    /// Inserts a single key/value pair.
    pub fn put(&self, key: UserKey, value: Vec<u8>) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write(&b)
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: UserKey) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.write(&b)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Returns the newest value for `key`, or `None` if absent or deleted.
    pub fn get(&self, key: UserKey) -> Result<Option<Vec<u8>>> {
        self.get_at(key, MAX_SEQNO)
    }

    /// Returns the newest value for `key` visible at `snapshot_seq`.
    ///
    /// The in-memory sources (mutable and frozen memtables) are probed under
    /// the engine's read lock — a hit pays no snapshot work at all. On a
    /// miss, only the candidate tables are Arc-snapshotted and every disk
    /// probe runs with the lock *released*, so a cold read never stalls
    /// writers. Files whose manifest key range excludes `key` are pruned
    /// before their table (or bloom filter) is touched — on Level-0 this
    /// skips most files outright, and on deeper levels at most one file
    /// survives the binary search.
    pub fn get_at(&self, key: UserKey, snapshot_seq: SeqNo) -> Result<Option<Vec<u8>>> {
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Get));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        let result = self.get_at_inner(key, snapshot_seq, traced);
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            let elapsed = start.elapsed();
            telemetry.get_ns.record(elapsed.as_nanos() as u64);
            telemetry.end_op(TraceKind::Get, op, elapsed, &[("key", key)]);
        }
        result
    }

    fn get_at_inner(
        &self,
        key: UserKey,
        snapshot_seq: SeqNo,
        traced: bool,
    ) -> Result<Option<Vec<u8>>> {
        let tables = {
            let _memtable_span = if traced {
                trace::span("memtable_probe")
            } else {
                None
            };
            let inner = self.inner.read();
            if let Some(mutable) = &inner.mutable {
                if let Some((ik, value)) = mutable.get(key, snapshot_seq) {
                    self.record_level_read(0);
                    return Ok(filter_tombstone(ik, value));
                }
            }
            // Frozen memtables, newest first.
            for imm in inner.immutables.iter().rev() {
                if let Some((ik, value)) = imm.memtable.get(key, snapshot_seq) {
                    self.record_level_read(0);
                    return Ok(filter_tombstone(ik, value));
                }
            }
            // Memtable miss: snapshot the Level-0 candidates newest first
            // (range-pruned via metadata, which may be narrower than the
            // file contents for SSTs adopted from a pre-split parent shard),
            // then at most one candidate per deeper level.
            let mut tables: Vec<(usize, TableHandle)> = inner.levels[0]
                .iter()
                .rev()
                .filter(|f| f.meta.min_user_key <= key && key <= f.meta.max_user_key)
                .map(|f| (0, f.table.clone()))
                .collect();
            for (level_no, level) in inner.levels.iter().enumerate().skip(1) {
                let idx = level.partition_point(|f| f.meta.max_user_key < key);
                if idx < level.len() && level[idx].meta.min_user_key <= key {
                    tables.push((level_no, level[idx].table.clone()));
                }
            }
            tables
        };
        let mut sst_span = if traced {
            trace::span("sst_probe")
        } else {
            None
        };
        if let Some(span) = &mut sst_span {
            span.annotate("candidates", tables.len());
        }
        for (probed, (level, table)) in tables.iter().enumerate() {
            if let Some((ik, value)) = table.get(key, snapshot_seq)? {
                if let Some(span) = &mut sst_span {
                    span.annotate("tables_probed", probed + 1);
                }
                self.record_level_read(*level);
                return Ok(filter_tombstone(ik, value));
            }
        }
        if let Some(span) = &mut sst_span {
            span.annotate("tables_probed", tables.len());
        }
        Ok(None)
    }

    /// Scans keys in `[lo, hi]`, returning the newest visible version of each
    /// (tombstoned keys are omitted).
    pub fn scan(&self, lo: UserKey, hi: UserKey) -> Result<Vec<(UserKey, Vec<u8>)>> {
        self.scan_at(lo, hi, MAX_SEQNO)
    }

    /// Scans keys in `[lo, hi]` as of `snapshot_seq`: a thin collect over the
    /// streaming [`LsmDb::range`] iterator.
    pub fn scan_at(
        &self,
        lo: UserKey,
        hi: UserKey,
        snapshot_seq: SeqNo,
    ) -> Result<Vec<(UserKey, Vec<u8>)>> {
        let telemetry = self.telemetry.get();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Scan));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        let iter = {
            let mut setup_span = if traced {
                trace::span("merge_setup")
            } else {
                None
            };
            let iter = self.range(lo, hi, snapshot_seq)?;
            if let Some(span) = &mut setup_span {
                span.annotate("merge_width", iter.merge_width());
            }
            iter
        };
        let mut iter = iter;
        let mut out = Vec::new();
        {
            let _drain_span = if traced { trace::span("drain") } else { None };
            while iter.next_visible()? {
                if !iter.is_tombstone() {
                    out.push((iter.user_key(), iter.value().to_vec()));
                }
            }
        }
        if let (Some(telemetry), Some(start), Some(op)) = (telemetry, start, op) {
            let elapsed = start.elapsed();
            telemetry.scan_ns.record(elapsed.as_nanos() as u64);
            telemetry.end_op(TraceKind::Scan, op, elapsed, &[("rows", out.len() as u64)]);
        }
        Ok(out)
    }

    /// Streaming range scan: the newest version of every user key in
    /// `[lo, hi]` visible at `snapshot_seq`, in key order, produced lazily.
    /// Tombstones are surfaced via [`RangeIterator::is_tombstone`] (the
    /// `Iterator` facade skips them). This is the entry point `scan_at`,
    /// cross-shard scans and the compaction drain build on.
    pub fn range(&self, lo: UserKey, hi: UserKey, snapshot_seq: SeqNo) -> Result<RangeIterator> {
        RangeIterator::new(self.range_iterator(lo, hi)?, lo, hi, snapshot_seq)
    }

    /// Builds the tournament-tree merge over every source that may contain
    /// keys in `[lo, hi]`: memtables, all overlapping Level-0 files, and one
    /// lazy [`LevelConcatIterator`] per deeper level — so the merge width is
    /// `memtables + L0 + #levels`, independent of how many files a deep
    /// level holds. Children are ordered newest-to-oldest so ties resolve
    /// toward fresher data.
    pub fn range_iterator(&self, lo: UserKey, hi: UserKey) -> Result<MergingIterator> {
        let inner = self.inner.read();
        let mut children: Vec<BoxedIterator> = Vec::new();
        if let Some(mutable) = &inner.mutable {
            children.push(Box::new(mutable.iter()));
        }
        for imm in inner.immutables.iter().rev() {
            children.push(Box::new(imm.memtable.iter()));
        }
        for (level, files) in inner.levels.iter().enumerate() {
            Self::push_level_children(level, files, Some((lo, hi)), &mut children);
        }
        Ok(MergingIterator::new(children))
    }

    /// The pre-overhaul merge shape: one child per overlapping file, flat,
    /// drained by the linear-scan [`NaiveMergingIterator`]. Kept as the
    /// executable reference the property tests and the `read_path` bench
    /// compare the tournament stack against; not used by any read path.
    pub fn naive_range_iterator(&self, lo: UserKey, hi: UserKey) -> Result<NaiveMergingIterator> {
        let inner = self.inner.read();
        let mut children: Vec<BoxedIterator> = Vec::new();
        if let Some(mutable) = &inner.mutable {
            children.push(Box::new(mutable.iter()));
        }
        for imm in inner.immutables.iter().rev() {
            children.push(Box::new(imm.memtable.iter()));
        }
        for level in inner.levels.iter() {
            for file in level.iter().rev() {
                if file.meta.overlaps(lo, hi) {
                    children.push(Box::new(file.table.iter()));
                }
            }
        }
        Ok(NaiveMergingIterator::new(children))
    }

    /// Appends the merge children contributed by one level, newest first:
    /// Level-0 files become one child each (they may overlap), deeper levels
    /// contribute a single lazy concatenating child over their disjoint
    /// files. The one place child assembly is encoded — `range_iterator`,
    /// `iter_level` and the compaction drain all route through it.
    fn push_level_children(
        level: usize,
        files: &[LevelFile],
        range: Option<(UserKey, UserKey)>,
        children: &mut Vec<BoxedIterator>,
    ) {
        let in_range = |f: &LevelFile| range.is_none_or(|(lo, hi)| f.meta.overlaps(lo, hi));
        if level == 0 {
            for file in files.iter().rev() {
                if in_range(file) {
                    children.push(Box::new(file.table.iter()));
                }
            }
        } else {
            let tables: Vec<TableHandle> = files
                .iter()
                .filter(|f| in_range(f))
                .map(|f| f.table.clone())
                .collect();
            if !tables.is_empty() {
                children.push(Box::new(LevelConcatIterator::new(tables)));
            }
        }
    }

    /// Iterates every entry (all versions) currently stored in `level`.
    /// Used by experiments that inspect how data ages through the tree.
    pub fn iter_level(&self, level: usize) -> Result<MergingIterator> {
        let inner = self.inner.read();
        if level >= inner.levels.len() {
            return Err(Error::invalid(format!("level {level} out of range")));
        }
        let mut children: Vec<BoxedIterator> = Vec::new();
        Self::push_level_children(level, &inner.levels[level], None, &mut children);
        Ok(MergingIterator::new(children))
    }

    /// Returns the metadata of every file, grouped by level.
    pub fn level_files(&self) -> Vec<Vec<FileMeta>> {
        let inner = self.inner.read();
        inner
            .levels
            .iter()
            .map(|files| files.iter().map(|f| f.meta.clone()).collect())
            .collect()
    }

    /// Total bytes stored in each level.
    pub fn level_sizes(&self) -> Vec<u64> {
        let inner = self.inner.read();
        inner
            .levels
            .iter()
            .map(|files| files.iter().map(|f| f.meta.file_size).sum())
            .collect()
    }

    /// Number of entries in the mutable memtable (for tests).
    pub fn memtable_len(&self) -> usize {
        let inner = self.inner.read();
        inner.mutable.as_ref().map(|m| m.len()).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Flush
    // ------------------------------------------------------------------

    /// Flushes the mutable memtable and every frozen memtable to Level-0
    /// SSTs, retiring their WAL segments. No-op when nothing is buffered.
    /// Rejected with [`Error::ReadOnly`] while the engine is degraded.
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

    /// Flushes the oldest frozen memtable, if any, to a Level-0 SST. Once
    /// the SST is installed in the manifest, the WAL segment backing the
    /// memtable is retired and its file deleted — recovery never replays
    /// data that already lives in the tree. Returns true if a memtable was
    /// flushed.
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
            let file_number = inner.next_file_number;
            inner.next_file_number += 1;
            (frozen, file_number)
        };

        // Build the SST outside the lock; the frozen memtable stays readable
        // in `immutables` until the file is installed.
        let meta =
            self.build_sst_from_entries(file_number, 0, 0, frozen.memtable.to_sorted_vec())?;
        let (flushed_bytes, flushed_entries) = (meta.file_size, meta.num_entries);

        {
            let mut inner = self.inner.write();
            let table =
                TableHandle::open_with_cache(&self.storage, &meta.file_name(), self.cache.clone())?;
            inner.levels[0].push(LevelFile { meta, table });
            inner
                .immutables
                .retain(|m| !Arc::ptr_eq(&m.memtable, &frozen.memtable));
            // Manifest-first segment GC: drop the segments from the live set,
            // persist a manifest that has the SST and no longer lists them,
            // and only then unlink the files. A crash in between leaves
            // orphan files that the next open deletes unreplayed.
            for segment in &frozen.wal_segments {
                self.wal.retire(*segment);
            }
            self.persist_manifest(&inner)?;
        }
        self.wal.delete_retired()?;
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, flush_start) {
            telemetry.flush_event(start.elapsed(), flushed_bytes, flushed_entries);
        }
        self.notify_write_room();
        Ok(true)
    }

    fn build_sst_from_entries(
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
        self.stats
            .bytes_written
            .fetch_add(props.file_size, Ordering::Relaxed);
        self.stats
            .entries_written
            .fetch_add(props.num_entries, Ordering::Relaxed);
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
                .flat_map(|files| files.iter().map(|f| f.meta.clone()))
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
    // Compaction
    // ------------------------------------------------------------------

    /// Returns the level with the highest overflow score (> 1.0), if any.
    /// The last level never overflows (there is nowhere to push its data).
    /// Level-0 additionally overflows on *file count* (at the slowdown
    /// threshold), so a backpressure pileup always has a compaction that can
    /// clear it even when the files are small.
    fn pick_compaction_level(&self, inner: &DbInner) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (level, files) in inner.levels.iter().enumerate() {
            if level + 1 >= inner.levels.len() {
                break;
            }
            let size: u64 = files.iter().map(|f| f.meta.file_size).sum();
            let capacity = self.options.level_capacity_bytes(level);
            if capacity == 0 {
                continue;
            }
            let mut score = size as f64 / capacity as f64;
            // The count trigger only applies in background mode: the legacy
            // synchronous path (and the paper's experiments) compacts purely
            // on byte overflow, and must keep doing so.
            if level == 0 && self.maintenance.get().is_some() && self.options.l0_slowdown_files > 0
            {
                // `files + 1` so the score strictly exceeds 1.0 exactly when
                // the count reaches the slowdown threshold — a stalled writer
                // (stall == slowdown is allowed) must always have a runnable
                // compaction, or backpressure would wait forever.
                let count_score = (files.len() + 1) as f64 / self.options.l0_slowdown_files as f64;
                if files.len() >= self.options.l0_slowdown_files {
                    score = score.max(count_score);
                }
            }
            if score > 1.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((level, score));
            }
        }
        best.map(|(level, _)| level)
    }

    /// Picks which files of `level` should be compacted, honouring the
    /// configured [`CompactionPriority`].
    fn pick_input_files(&self, inner: &DbInner, level: usize) -> Vec<u64> {
        let files = &inner.levels[level];
        if files.is_empty() {
            return Vec::new();
        }
        if level == 0 {
            // Level-0 files overlap; compact all of them together.
            return files.iter().map(|f| f.meta.file_number).collect();
        }
        let chosen = match self.options.compaction_priority {
            CompactionPriority::ByCompensatedSize => files.iter().max_by_key(|f| f.meta.file_size),
            CompactionPriority::OldestSmallestSeqFirst => {
                files.iter().min_by_key(|f| f.meta.min_seq)
            }
        };
        chosen.map(|f| vec![f.meta.file_number]).unwrap_or_default()
    }

    /// Runs a single compaction job if any level overflows. Returns `true`
    /// if work was done. Safe to call concurrently (from background workers
    /// and the foreground API): jobs are serialised internally.
    pub fn compact_once(&self) -> Result<bool> {
        if let Some(info) = self.degradation.info() {
            // Same error-state gate as the flush path: no compactions while
            // the engine is read-only.
            return Err(Error::read_only(info.reason));
        }
        let _compacting = self.compaction_lock.lock();
        // Snapshot the plan under the read lock.
        let plan = {
            let inner = self.inner.read();
            let Some(level) = self.pick_compaction_level(&inner) else {
                return Ok(false);
            };
            let inputs = self.pick_input_files(&inner, level);
            if inputs.is_empty() {
                return Ok(false);
            }
            (level, inputs)
        };
        let (level, input_numbers) = plan;
        self.compact_files(level, &input_numbers)?;
        Ok(true)
    }

    /// Repeatedly compacts until no level overflows.
    pub fn compact_until_stable(&self) -> Result<()> {
        while self.compact_once()? {}
        Ok(())
    }

    /// Compacts the given files of `level` into `level + 1`.
    fn compact_files(&self, level: usize, input_numbers: &[u64]) -> Result<()> {
        let telemetry = self.telemetry.get();
        let compaction_start = telemetry.map(|_| Instant::now());
        let target_level = level + 1;
        // Gather inputs and overlapping files in the target level.
        let (inputs, overlaps, output_is_last_level) = {
            let inner = self.inner.read();
            let inputs: Vec<LevelFile> = inner.levels[level]
                .iter()
                .filter(|f| input_numbers.contains(&f.meta.file_number))
                .cloned()
                .collect();
            if inputs.is_empty() {
                return Ok(());
            }
            let lo = inputs.iter().map(|f| f.meta.min_user_key).min().unwrap();
            let hi = inputs.iter().map(|f| f.meta.max_user_key).max().unwrap();
            let overlaps: Vec<LevelFile> = inner.levels[target_level]
                .iter()
                .filter(|f| f.meta.overlaps(lo, hi))
                .cloned()
                .collect();
            let output_is_last_level = target_level + 1 >= inner.levels.len();
            (inputs, overlaps, output_is_last_level)
        };

        let input_bytes: u64 = inputs
            .iter()
            .chain(overlaps.iter())
            .map(|f| f.meta.file_size)
            .sum();
        self.stats
            .bytes_read
            .fetch_add(input_bytes, Ordering::Relaxed);

        // Merge: newer sources first so ties resolve toward fresher versions.
        // The input files may overlap (Level-0) and become one child each;
        // the target level's overlapping files are disjoint and concatenate
        // into a single lazy child.
        let mut children: Vec<BoxedIterator> = Vec::new();
        for f in inputs.iter().rev() {
            children.push(Box::new(f.table.iter()));
        }
        if !overlaps.is_empty() {
            children.push(Box::new(LevelConcatIterator::new(
                overlaps.iter().map(|f| f.table.clone()).collect(),
            )));
        }
        // Drain the streaming iterator: it yields exactly the newest version
        // of each user key (everything is visible at MAX_SEQNO), with no
        // per-entry key decode. Tombstones are dropped once they reach the
        // last level, and entries outside the key bound (shard-split
        // leftovers) are dropped at every level.
        let mut stream =
            RangeIterator::new(MergingIterator::new(children), 0, UserKey::MAX, MAX_SEQNO)?;
        let key_bound = self.key_bound();
        let mut trimmed = 0u64;
        let mut outputs: Vec<FileMeta> = Vec::new();
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut current_bytes = 0u64;
        while stream.next_visible()? {
            let user_key = stream.user_key();
            let out_of_bound = key_bound.is_some_and(|(lo, hi)| user_key < lo || user_key > hi);
            if out_of_bound {
                trimmed += 1;
            }
            let drop_entry = out_of_bound || (output_is_last_level && stream.is_tombstone());
            if !drop_entry {
                current_bytes += (stream.key().len() + stream.value().len()) as u64;
                current.push((stream.key().to_vec(), stream.value().to_vec()));
                if current_bytes >= self.options.sst_target_size_bytes {
                    outputs.push(self.write_compaction_output(
                        target_level as u32,
                        std::mem::take(&mut current),
                    )?);
                    current_bytes = 0;
                }
            }
        }
        if !current.is_empty() {
            outputs.push(self.write_compaction_output(target_level as u32, current)?);
        }

        // Install the new version.
        {
            let mut inner = self.inner.write();
            let input_set: Vec<u64> = inputs.iter().map(|f| f.meta.file_number).collect();
            let overlap_set: Vec<u64> = overlaps.iter().map(|f| f.meta.file_number).collect();
            inner.levels[level].retain(|f| !input_set.contains(&f.meta.file_number));
            inner.levels[target_level].retain(|f| !overlap_set.contains(&f.meta.file_number));
            for meta in &outputs {
                let table = TableHandle::open_with_cache(
                    &self.storage,
                    &meta.file_name(),
                    self.cache.clone(),
                )?;
                inner.levels[target_level].push(LevelFile {
                    meta: meta.clone(),
                    table,
                });
            }
            inner.levels[target_level].sort_by_key(|f| f.meta.min_user_key);
            self.persist_manifest(&inner)?;
            // Delete the replaced files.
            for f in inputs.iter().chain(overlaps.iter()) {
                let _ = self.storage.delete(&f.meta.file_name());
            }
        }
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        if trimmed > 0 {
            self.stats
                .trimmed_entries
                .fetch_add(trimmed, Ordering::Relaxed);
        }
        if let (Some(telemetry), Some(start)) = (telemetry, compaction_start) {
            let bytes_written: u64 = outputs.iter().map(|m| m.file_size).sum();
            let entries_written: u64 = outputs.iter().map(|m| m.num_entries).sum();
            telemetry.compaction_event(
                start.elapsed(),
                input_bytes,
                bytes_written,
                entries_written,
            );
        }
        self.notify_write_room();
        Ok(())
    }

    fn write_compaction_output(
        &self,
        level: u32,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<FileMeta> {
        let file_number = {
            let mut inner = self.inner.write();
            let n = inner.next_file_number;
            inner.next_file_number += 1;
            n
        };
        self.build_sst_from_entries(file_number, level, 0, entries)
    }

    /// Flushes outstanding data and persists the manifest.
    pub fn close(&self) -> Result<()> {
        self.flush()?;
        let inner = self.inner.read();
        self.persist_manifest(&inner)?;
        Ok(())
    }

    /// Deletes every WAL segment file, idempotently (used by tests that
    /// simulate crashes after a clean flush: all durable data must come from
    /// SSTs alone). The engine should be dropped afterwards.
    pub fn remove_wal(&self) -> Result<()> {
        self.wal.remove_all()
    }

    // ------------------------------------------------------------------
    // Replication support (WAL shipping, replicated apply, retention)
    // ------------------------------------------------------------------

    /// Applies a record replicated from a leader at its original sequence
    /// numbers, through this replica's own WAL and memtable (so a replica
    /// crash recovers through the ordinary replay path).
    ///
    /// Sequence handling is strict: a record that starts beyond
    /// `last_seq + 1` is a replication gap and errors (the caller must fall
    /// back to segment catch-up); a fully duplicate record (retransmission)
    /// is skipped idempotently; a partially overlapping record logs and
    /// applies only its unseen suffix — re-logging an already-applied prefix
    /// would replay duplicate internal keys after a replica restart.
    /// Returns the replica's new last applied sequence number.
    pub fn apply_replicated(&self, start_seq: SeqNo, batch: &WriteBatch) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.last_seq());
        }
        self.check_writable()?;
        EngineMaintenance::apply_backpressure(self);
        let ticket = {
            let mut inner = self.inner.write();
            let next = inner.last_seq + 1;
            if start_seq > next {
                return Err(Error::invalid(format!(
                    "replication gap: record starts at seq {start_seq} but this \
                     replica has only applied through {}",
                    inner.last_seq
                )));
            }
            let end_seq = start_seq + batch.len() as SeqNo - 1;
            if end_seq < next {
                return Ok(inner.last_seq);
            }
            let skip = (next - start_seq) as usize;
            let suffix;
            let (log_start, log_batch): (SeqNo, &WriteBatch) = if skip == 0 {
                (start_seq, batch)
            } else {
                let mut b = WriteBatch::new();
                for entry in batch.iter().skip(skip) {
                    b.push(entry.clone());
                }
                suffix = b;
                (next, &suffix)
            };
            let logical_bytes: u64 = log_batch
                .iter()
                .map(|e| std::mem::size_of::<UserKey>() as u64 + e.value.len() as u64)
                .sum();
            self.stats
                .ingest_bytes
                .fetch_add(logical_bytes, Ordering::Relaxed);
            let mutable = Arc::clone(inner.mutable.as_ref().ok_or(Error::Closed)?);
            let ticket = self
                .wal
                .append(log_start, log_batch)
                .map_err(|e| self.note_write_error(e))?;
            let mut seq = log_start;
            for entry in log_batch.iter() {
                mutable.insert(seq, entry);
                seq += 1;
            }
            inner.last_seq = seq - 1;
            ticket
        };
        self.wal
            .ensure_durable(&ticket)
            .map_err(|e| self.note_write_error(e))?;
        self.after_write_maintenance()?;
        Ok(self.last_seq())
    }

    /// The catch-up payload a leader ships to a replica that has applied
    /// through `from_seq`: the byte images of every live sealed segment that
    /// may contain newer records (adopted wholesale on the other end), plus
    /// the intact records of the live tail. Together they cover everything
    /// this engine has accepted past `from_seq`.
    pub fn wal_catchup(
        &self,
        from_seq: SeqNo,
    ) -> Result<(
        Vec<crate::wal_segment::ShippedSegment>,
        Vec<crate::wal::WalRecord>,
    )> {
        let segments = self.wal.sealed_segments_from(from_seq)?;
        let tail = self.wal.tail_records_from(from_seq)?;
        Ok((segments, tail))
    }

    /// Adopts a shipped sealed-segment image in place (replica catch-up):
    /// the image becomes a local sealed segment, its records are rebuilt
    /// into one frozen memtable paired with that segment, and the manifest
    /// is persisted — O(1) appends per segment instead of one per record.
    /// The image must continue this replica's sequence run contiguously.
    /// Returns the new last applied sequence number.
    pub fn adopt_wal_segment(&self, bytes: &[u8]) -> Result<SeqNo> {
        let _flushing = self.flush_lock.lock();
        let mut inner = self.inner.write();
        let (records, clean, _) = crate::wal::decode_records(bytes)?;
        if !clean || records.is_empty() {
            return Err(Error::corruption(
                "shipped WAL segment image is torn, corrupt or empty",
            ));
        }
        let first = records.first().map(|r| r.start_seq).unwrap_or(0);
        let last = records.iter().map(|r| r.end_seq()).max().unwrap_or(0);
        if first > inner.last_seq + 1 {
            return Err(Error::invalid(format!(
                "replication gap: shipped segment starts at seq {first} but this \
                 replica has only applied through {}",
                inner.last_seq
            )));
        }
        if last <= inner.last_seq {
            // Entirely duplicate (a re-ship after reconnect): skip.
            return Ok(inner.last_seq);
        }
        if first <= inner.last_seq {
            // Partially overlapping: adopting the whole image would leave
            // duplicate sequence numbers in this WAL, and a later recovery
            // would replay them twice into one memtable. The caller must
            // apply the records individually instead (which trims overlap).
            return Err(Error::invalid(format!(
                "shipped segment [{first}, {last}] overlaps applied prefix \
                 (through {}); apply its records individually",
                inner.last_seq
            )));
        }
        let (segment_id, records) = self.wal.adopt_segment_bytes(bytes)?;
        let rebuilt = Arc::new(MemTable::new());
        for record in &records {
            for (seq, entry) in (record.start_seq..).zip(record.batch.iter()) {
                rebuilt.insert(seq, entry);
            }
        }
        inner.immutables.push(FrozenMemTable {
            memtable: rebuilt,
            wal_segments: vec![segment_id],
        });
        inner.last_seq = inner.last_seq.max(last);
        self.persist_manifest(&inner)?;
        Ok(inner.last_seq)
    }

    /// Sets the WAL retention floor from replication acknowledgements: every
    /// record with a sequence number `<= seq` is acked by every replica, so
    /// segments ending at or below it may retire. When the advance releases
    /// a previously pinned segment, the manifest is re-persisted and the
    /// file deleted.
    pub fn set_wal_retention_floor(&self, seq: SeqNo) -> Result<()> {
        if self.wal.set_retention_floor(seq) {
            let inner = self.inner.read();
            self.persist_manifest(&inner)?;
            drop(inner);
            self.wal.delete_retired()?;
        }
        Ok(())
    }

    /// True while the engine can accept writes — its WAL has no unrecovered
    /// damage and it has not entered read-only degradation. The replication
    /// health monitor treats an unhealthy leader as lost and promotes a
    /// replica.
    pub fn is_healthy(&self) -> bool {
        !self.wal.is_damaged() && !self.degradation.is_degraded()
    }

    // ------------------------------------------------------------------
    // Graceful degradation (read-only mode on persistent storage faults)
    // ------------------------------------------------------------------

    /// True while the engine is in read-only degradation: writes are
    /// rejected with [`Error::ReadOnly`], reads and replica serving
    /// continue, flushes and compactions are blocked.
    pub fn is_degraded(&self) -> bool {
        self.degradation.is_degraded()
    }

    /// Why (and for how long) the engine has been read-only, if degraded.
    pub fn degraded_info(&self) -> Option<DegradedInfo> {
        self.degradation.info()
    }

    /// Attempts to leave read-only degradation: re-runs WAL rotation
    /// recovery if the log is still damaged, then probes the storage with a
    /// small write-fsync-delete cycle. On success the engine clears the
    /// degraded flag, emits `Recovered`, zeroes the `laser_degraded` gauge
    /// and wakes stalled writers. Returns true if the engine is (now)
    /// healthy. Called automatically by every rejected write, so recovery
    /// needs no operator action; health loops may also call it directly.
    pub fn probe_recovery(&self) -> bool {
        if !self.degradation.is_degraded() {
            return true;
        }
        // A damaged WAL recovers through its own rotation-recovery path;
        // `sync` re-attempts it and fails while the fault persists.
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
    /// file. Exercises the same failure modes (EIO, ENOSPC) as the real
    /// write paths without touching live data.
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
    // Key-range restriction and trim compaction (shard-split support)
    // ------------------------------------------------------------------

    /// Restricts this engine to the inclusive key range `[lo, hi]`. From
    /// then on compactions drop entries outside the bound and
    /// [`LsmDb::trim_once`] can proactively rewrite SSTs that still carry
    /// out-of-range data (files adopted by reference from a pre-split
    /// parent shard). The bound never affects reads: callers are expected to
    /// route only in-range keys at this engine.
    pub fn set_key_bound(&self, lo: UserKey, hi: UserKey) {
        *self.key_bound.write() = Some((lo, hi));
    }

    /// The key bound, if one is set.
    pub fn key_bound(&self) -> Option<(UserKey, UserKey)> {
        *self.key_bound.read()
    }

    /// Attributes one answered point read to `level` (clamped to the
    /// deepest configured level).
    fn record_level_read(&self, level: usize) {
        if let Some(counter) = self
            .level_reads
            .get(level.min(self.level_reads.len().saturating_sub(1)))
        {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point reads answered per level since open (index = level; memtable
    /// hits count as level 0). Reads that found nothing are not attributed.
    pub fn reads_by_level(&self) -> Vec<u64> {
        self.level_reads
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
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

    /// Rewrites one SST whose *contents* exceed the key bound, keeping only
    /// in-range entries (the file is removed outright if nothing remains).
    /// Returns true if a file was processed. No-op without a key bound.
    /// Safe to call concurrently with writes and compactions.
    pub fn trim_once(&self) -> Result<bool> {
        if self.degradation.is_degraded() {
            return Ok(false);
        }
        let Some((lo, hi)) = self.key_bound() else {
            return Ok(false);
        };
        let telemetry = self.telemetry.get();
        let trim_start = telemetry.map(|_| Instant::now());
        // Serialise with compactions so the victim cannot be replaced (and
        // its file deleted) between planning and install.
        let _compacting = self.compaction_lock.lock();
        let victim = {
            let inner = self.inner.read();
            let mut found = None;
            'levels: for (level, files) in inner.levels.iter().enumerate() {
                for file in files {
                    if file.table.spans_outside(lo, hi) {
                        found = Some((level, file.clone()));
                        break 'levels;
                    }
                }
            }
            found
        };
        let Some((level, victim)) = victim else {
            return Ok(false);
        };

        // Rewrite outside the lock; the victim stays attached (and readable)
        // until the replacement is installed.
        let mut kept: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut iter = victim.table.iter();
        iter.seek_to_first()?;
        while iter.valid() {
            let ik = InternalKey::decode(iter.key())?;
            if ik.user_key >= lo && ik.user_key <= hi {
                kept.push((iter.key().to_vec(), iter.value().to_vec()));
            }
            iter.next()?;
        }
        let trimmed = victim.meta.num_entries.saturating_sub(kept.len() as u64);
        let replacement = if kept.is_empty() {
            None
        } else {
            let file_number = {
                let mut inner = self.inner.write();
                let n = inner.next_file_number;
                inner.next_file_number += 1;
                n
            };
            // The replacement's manifest bounds are its true content bounds,
            // which lie within `[lo, hi]` by construction.
            Some(self.build_sst_from_entries(
                file_number,
                level as u32,
                victim.meta.column_group,
                kept,
            )?)
        };

        let rewritten_bytes = replacement.as_ref().map_or(0, |meta| meta.file_size);
        {
            let mut inner = self.inner.write();
            let Some(pos) = inner.levels[level]
                .iter()
                .position(|f| f.meta.file_number == victim.meta.file_number)
            else {
                // The victim vanished (e.g. a foreground flush raced us on
                // Level-0 bookkeeping); discard the replacement we built for
                // it rather than leaving an orphan file behind.
                if let Some(meta) = &replacement {
                    let _ = self.storage.delete(&meta.file_name());
                }
                return Ok(true);
            };
            match replacement {
                Some(meta) => {
                    let table = TableHandle::open_with_cache(
                        &self.storage,
                        &meta.file_name(),
                        self.cache.clone(),
                    )?;
                    // Replace in place so Level-0's oldest-first order (and
                    // deeper levels' sort) is preserved.
                    inner.levels[level][pos] = LevelFile { meta, table };
                }
                None => {
                    inner.levels[level].remove(pos);
                }
            }
            self.persist_manifest(&inner)?;
            let _ = self.storage.delete(&victim.meta.file_name());
        }
        self.stats
            .trimmed_entries
            .fetch_add(trimmed, Ordering::Relaxed);
        self.stats.trim_compactions.fetch_add(1, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, trim_start) {
            telemetry.trim_event(
                start.elapsed(),
                victim.meta.file_size,
                rewritten_bytes,
                trimmed,
            );
        }
        Ok(true)
    }

    /// True if some SST still carries entries outside the key bound.
    pub fn needs_trim(&self) -> bool {
        let Some((lo, hi)) = self.key_bound() else {
            return false;
        };
        let inner = self.inner.read();
        inner
            .levels
            .iter()
            .flatten()
            .any(|f| f.table.spans_outside(lo, hi))
    }
}

impl EngineMaintenance for LsmDb {
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
        JobKind::Compaction
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
        LsmDb::compact_once(self)
    }

    /// True if some level (by bytes, or Level-0 by file count) overflows.
    fn needs_compaction(&self) -> bool {
        let inner = self.inner.read();
        self.pick_compaction_level(&inner).is_some()
    }

    fn has_frozen_memtables(&self) -> bool {
        !self.inner.read().immutables.is_empty()
    }

    fn l0_pressure(&self) -> usize {
        let inner = self.inner.read();
        inner.levels[0].len() + inner.immutables.len()
    }

    fn maybe_flush(&self) -> Result<()> {
        let should_flush = {
            let inner = self.inner.read();
            inner
                .mutable
                .as_ref()
                .map(|m| m.approximate_bytes() >= self.options.memtable_size_bytes)
                .unwrap_or(false)
        };
        if should_flush {
            self.flush()?;
        }
        Ok(())
    }

    fn auto_compact(&self) -> bool {
        self.options.auto_compact
    }

    fn trim_once(&self) -> Result<bool> {
        LsmDb::trim_once(self)
    }

    fn needs_trim(&self) -> bool {
        LsmDb::needs_trim(self)
    }

    fn record_throttle(&self, throttle: Throttle) {
        match throttle {
            Throttle::Stall => {
                self.stats.stall_events.fetch_add(1, Ordering::Relaxed);
            }
            Throttle::Slowdown => {
                self.stats.slowdown_events.fetch_add(1, Ordering::Relaxed);
            }
            Throttle::None => {}
        }
    }

    fn record_stall_duration(&self, waited: Duration) {
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.stall_event(waited);
        }
    }
}

impl MaintainableEngine for LsmDb {
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

fn filter_tombstone(ik: InternalKey, value: Vec<u8>) -> Option<Vec<u8>> {
    if ik.kind == ValueKind::Tombstone {
        None
    } else {
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn small_db() -> LsmDb {
        LsmDb::open_in_memory(LsmOptions::small_for_tests()).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let db = small_db();
        db.put(1, b"one".to_vec()).unwrap();
        db.put(2, b"two".to_vec()).unwrap();
        assert_eq!(db.get(1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(db.get(2).unwrap(), Some(b"two".to_vec()));
        assert_eq!(db.get(3).unwrap(), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let db = small_db();
        db.put(7, b"v1".to_vec()).unwrap();
        db.put(7, b"v2".to_vec()).unwrap();
        assert_eq!(db.get(7).unwrap(), Some(b"v2".to_vec()));
        db.flush().unwrap();
        db.put(7, b"v3".to_vec()).unwrap();
        assert_eq!(db.get(7).unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn delete_hides_key() {
        let db = small_db();
        db.put(5, b"x".to_vec()).unwrap();
        db.delete(5).unwrap();
        assert_eq!(db.get(5).unwrap(), None);
        // Deleting a missing key is fine.
        db.delete(99).unwrap();
        assert_eq!(db.get(99).unwrap(), None);
    }

    #[test]
    fn snapshot_reads_see_past_versions() {
        let db = small_db();
        db.put(1, b"a".to_vec()).unwrap();
        let snap = db.last_seq();
        db.put(1, b"b".to_vec()).unwrap();
        assert_eq!(db.get_at(1, snap).unwrap(), Some(b"a".to_vec()));
        assert_eq!(db.get(1).unwrap(), Some(b"b".to_vec()));
    }

    #[test]
    fn flush_moves_data_to_level0() {
        let db = small_db();
        for i in 0..100u64 {
            db.put(i, vec![i as u8; 64]).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.memtable_len(), 0);
        let files = db.level_files();
        let total_l0_plus: usize = files.iter().map(|l| l.len()).sum();
        assert!(total_l0_plus > 0, "expected at least one SST after flush");
        for i in 0..100u64 {
            assert_eq!(db.get(i).unwrap(), Some(vec![i as u8; 64]));
        }
    }

    #[test]
    fn scan_merges_memtable_and_disk() {
        let db = small_db();
        for i in 0..50u64 {
            db.put(i, vec![1]).unwrap();
        }
        db.flush().unwrap();
        for i in 50..100u64 {
            db.put(i, vec![2]).unwrap();
        }
        let all = db.scan(0, 99).unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all.first().unwrap().0, 0);
        assert_eq!(all.last().unwrap().0, 99);
        let window = db.scan(40, 59).unwrap();
        assert_eq!(window.len(), 20);
        assert!(window.iter().all(|(k, v)| if *k < 50 {
            v == &vec![1]
        } else {
            v == &vec![2]
        }));
    }

    #[test]
    fn scan_skips_deleted_and_old_versions() {
        let db = small_db();
        for i in 0..20u64 {
            db.put(i, b"old".to_vec()).unwrap();
        }
        db.flush().unwrap();
        for i in 0..10u64 {
            db.put(i, b"new".to_vec()).unwrap();
        }
        for i in 15..20u64 {
            db.delete(i).unwrap();
        }
        let result = db.scan(0, 19).unwrap();
        assert_eq!(result.len(), 15);
        for (k, v) in &result {
            if *k < 10 {
                assert_eq!(v, b"new");
            } else {
                assert_eq!(v, b"old");
            }
        }
    }

    #[test]
    fn compaction_keeps_data_correct_and_bounded() {
        let mut options = LsmOptions::small_for_tests();
        options.auto_compact = true;
        let db = LsmDb::open_in_memory(options).unwrap();
        // Write enough data (with overwrites) to force several compactions.
        for round in 0..6u64 {
            for i in 0..400u64 {
                db.put(i, format!("round-{round}-key-{i}").into_bytes())
                    .unwrap();
            }
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        let stats = db.stats();
        assert!(stats.compactions > 0, "expected compactions to run");
        // All keys resolve to the latest round.
        for i in (0..400u64).step_by(17) {
            assert_eq!(
                db.get(i).unwrap(),
                Some(format!("round-5-key-{i}").into_bytes())
            );
        }
        // No level (other than the last) exceeds its capacity.
        let sizes = db.level_sizes();
        for (level, size) in sizes.iter().enumerate().take(sizes.len() - 1) {
            let cap = db.options().level_capacity_bytes(level);
            assert!(
                *size <= cap,
                "level {level} has {size} bytes, capacity {cap}"
            );
        }
    }

    #[test]
    fn data_ages_into_deeper_levels() {
        let mut options = LsmOptions::small_for_tests();
        options.compaction_priority = CompactionPriority::OldestSmallestSeqFirst;
        let db = LsmDb::open_in_memory(options).unwrap();
        for i in 0..3000u64 {
            db.put(i, vec![0u8; 32]).unwrap();
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        let files = db.level_files();
        let populated: Vec<usize> = files
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert!(
            populated.iter().any(|&l| l >= 1),
            "expected data to reach level >= 1, levels populated: {populated:?}"
        );
    }

    #[test]
    fn recovery_from_manifest_and_wal() {
        let storage: StorageRef = MemStorage::new_ref();
        let options = LsmOptions::small_for_tests();
        {
            let db = LsmDb::open(Arc::clone(&storage), options.clone()).unwrap();
            for i in 0..500u64 {
                db.put(i, i.to_le_bytes().to_vec()).unwrap();
            }
            db.flush().unwrap();
            // These writes stay only in the WAL (no flush).
            for i in 500..600u64 {
                db.put(i, i.to_le_bytes().to_vec()).unwrap();
            }
            // Drop without closing: simulates a crash.
        }
        let db = LsmDb::open(Arc::clone(&storage), options).unwrap();
        for i in (0..600u64).step_by(29) {
            assert_eq!(
                db.get(i).unwrap(),
                Some(i.to_le_bytes().to_vec()),
                "key {i} lost after recovery"
            );
        }
    }

    #[test]
    fn recovery_without_wal_keeps_flushed_data_only() {
        let storage: StorageRef = MemStorage::new_ref();
        let options = LsmOptions::small_for_tests();
        {
            let db = LsmDb::open(Arc::clone(&storage), options.clone()).unwrap();
            for i in 0..100u64 {
                db.put(i, vec![1]).unwrap();
            }
            db.flush().unwrap();
            for i in 100..150u64 {
                db.put(i, vec![2]).unwrap();
            }
            db.remove_wal().unwrap();
        }
        let db = LsmDb::open(Arc::clone(&storage), options).unwrap();
        assert_eq!(db.get(50).unwrap(), Some(vec![1]));
        assert_eq!(
            db.get(120).unwrap(),
            None,
            "unflushed data without WAL is lost"
        );
    }

    #[test]
    fn compaction_priorities_differ_in_choice() {
        // Construct a level-1 with two files: one big and new, one small and old.
        // ByCompensatedSize must pick the big one, OldestSmallestSeqFirst the old one.
        for (priority, expect_oldest) in [
            (CompactionPriority::ByCompensatedSize, false),
            (CompactionPriority::OldestSmallestSeqFirst, true),
        ] {
            let mut options = LsmOptions::small_for_tests();
            options.compaction_priority = priority;
            options.auto_compact = false;
            let db = LsmDb::open_in_memory(options).unwrap();
            // Old small batch.
            for i in 0..50u64 {
                db.put(i, vec![0u8; 16]).unwrap();
            }
            db.flush().unwrap();
            // New large batch over a disjoint range.
            for i in 10_000..10_400u64 {
                db.put(i, vec![0u8; 64]).unwrap();
            }
            db.flush().unwrap();
            {
                // Both flushed files sit in level 0; compact them into level 1
                // so the priority choice applies to level 1 next time.
                db.compact_until_stable().unwrap();
            }
            let inner = db.inner.read();
            if inner.levels[1].len() < 2 {
                // Not enough structure to differentiate priorities; acceptable
                // for the small sizes, skip assertion.
                continue;
            }
            let chosen = db.pick_input_files(&inner, 1);
            assert_eq!(chosen.len(), 1);
            let chosen_meta = inner.levels[1]
                .iter()
                .find(|f| f.meta.file_number == chosen[0])
                .unwrap()
                .meta
                .clone();
            let oldest = inner.levels[1]
                .iter()
                .map(|f| f.meta.min_seq)
                .min()
                .unwrap();
            let biggest = inner.levels[1]
                .iter()
                .map(|f| f.meta.file_size)
                .max()
                .unwrap();
            if expect_oldest {
                assert_eq!(chosen_meta.min_seq, oldest);
            } else {
                assert_eq!(chosen_meta.file_size, biggest);
            }
        }
    }

    #[test]
    fn stats_track_writes() {
        let db = small_db();
        for i in 0..2000u64 {
            db.put(i, vec![0u8; 32]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.flushes >= 1);
        assert!(stats.bytes_written > 0);
        assert!(stats.entries_written >= 2000);
    }

    #[test]
    fn empty_batch_is_noop() {
        let db = small_db();
        let before = db.last_seq();
        db.write(&WriteBatch::new()).unwrap();
        assert_eq!(db.last_seq(), before);
    }

    #[test]
    fn enospc_degrades_to_read_only_and_self_recovers() {
        use crate::storage::FaultStorage;
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 3);
        let db = LsmDb::open(storage, LsmOptions::small_for_tests()).unwrap();
        db.put(1, b"a".to_vec()).unwrap();
        faults.set_disk_full(true);
        // The write that hits the full disk surfaces the raw ENOSPC and
        // flips the engine read-only.
        let err = db.put(2, b"b".to_vec()).unwrap_err();
        assert!(err.is_disk_full());
        assert!(db.is_degraded());
        assert!(!db.is_healthy());
        // Later writes are rejected with the typed error...
        assert!(db.put(3, b"c".to_vec()).unwrap_err().is_read_only());
        // ...flushes are blocked...
        assert!(db.flush().unwrap_err().is_read_only());
        // ...but reads keep serving.
        assert_eq!(db.get(1).unwrap(), Some(b"a".to_vec()));
        assert_eq!(db.scan(0, 10).unwrap().len(), 1);
        // Space freed: the very next write probes, recovers and succeeds.
        faults.set_disk_full(false);
        db.put(2, b"b".to_vec()).unwrap();
        assert!(!db.is_degraded());
        assert!(db.is_healthy());
        db.flush().unwrap();
        assert_eq!(db.get(2).unwrap(), Some(b"b".to_vec()));
        assert!(db.degraded_info().is_none());
    }

    #[test]
    fn transient_eio_on_flush_path_is_retried() {
        use crate::storage::FaultStorage;
        let (storage, faults) = FaultStorage::wrap(MemStorage::new_ref(), 11);
        let db = LsmDb::open(storage, LsmOptions::small_for_tests()).unwrap();
        for i in 0..50u64 {
            db.put(i, vec![i as u8; 32]).unwrap();
        }
        // A heavy (but transient) EIO rate on the SST/manifest path: the
        // bounded-backoff retry rebuilds the table until a build gets
        // through, so the flush still succeeds and nothing degrades.
        faults.set_eio_per_mille(300);
        let result = db.flush();
        faults.set_eio_per_mille(0);
        if result.is_err() {
            // The retry budget is bounded; with an unlucky seed the flush
            // may still escalate. Heal and assert the engine recovers.
            assert!(db.probe_recovery());
        }
        db.flush().unwrap();
        assert!(!db.is_degraded());
        for i in (0..50u64).step_by(7) {
            assert_eq!(db.get(i).unwrap(), Some(vec![i as u8; 32]));
        }
    }
}
