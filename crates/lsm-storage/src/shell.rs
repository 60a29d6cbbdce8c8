//! The engine shell: everything an LSM engine does that is not a level
//! layout.
//!
//! The paper defines a Real-Time LSM-Tree as an ordinary LSM-Tree with one
//! change — a column-group layout chosen per level — so a row LSM is simply
//! the layout with one group at every level. [`EngineShell`] is that ordinary
//! LSM-Tree, written once: storage, the segmented WAL, the mutable and frozen
//! memtables, sequence numbers, file-number allocation, the block-cache view,
//! background maintenance (job bodies, scheduling and write backpressure),
//! telemetry, the key bound and read-only degradation. The tree has the one
//! shape both engines use on disk, `levels[level].runs[column_group].files`;
//! the plain key-value engine ([`LsmDb`](crate::LsmDb)) is `runs.len() == 1`
//! at every level.
//!
//! What differs per engine sits behind the small [`LevelFormat`] hook (groups
//! per level, pick one compaction, merge it into output runs, per-commit
//! stats) plus the engine's typed read API, which reads through a
//! [`ReadView`].
//!
//! ## Locking
//!
//! * The tree lock is held only to append to the WAL and insert into the
//!   memtable (commit), to swap memtables (freeze), and to install a new file
//!   list (flush, compaction, trim, segment adoption). No SST, bloom, index
//!   or block I/O ever runs under it.
//! * Readers take it just long enough to clone a [`ReadView`] — the memtable
//!   `Arc`s and the current immutable file lists — and probe with the lock
//!   released.
//! * `flush_lock` serialises flushes (Level-0 stays oldest-first);
//!   `compaction_lock` serialises compactions and trims (two jobs never pick
//!   the same inputs). SSTs are built under those, outside the tree lock.
//!
//! ## Garbage collection order
//!
//! Manifest first: a flush retires its WAL segments from the live set, a
//! compaction drops its inputs from the file lists, the manifest that no
//! longer names them is persisted, and only then are the files unlinked. A
//! crash in between leaves orphans the next open deletes unreplayed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use telemetry::trace::{self, TraceKind};
use telemetry::Telemetry;

use crate::cache::{BlockCache, ScopedCache};
use crate::degrade::{DegradationController, DegradedInfo};
use crate::error::{Error, Result};
use crate::iterator::KvIterator;
use crate::maintenance::{
    JobKind, JobScheduler, MaintainableEngine, MaintenanceHandle, SchedulerClient,
};
use crate::manifest::{read_manifest, write_manifest, FileMeta, VersionSnapshot};
use crate::memtable::{FrozenMemTable, MemTable, MemTableRef};
use crate::observability::EngineTelemetry;
use crate::retry::{retry_io, RetryPolicy};
use crate::shape::TreeShape;
use crate::sst::{TableBuilder, TableHandle, TableOptions};
use crate::storage::StorageRef;
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch};
use crate::wal::{decode_records, WalRecord};
use crate::wal_segment::{
    SegmentedWal, ShippedSegment, WalStatsSnapshot, WalSyncPolicy, WalTicket,
};

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
    /// This engine's background jobs completed by its maintenance scheduler
    /// (a pool shared with other engines counts each engine separately).
    pub bg_jobs_completed: u64,
    /// This engine's background jobs that failed.
    pub bg_jobs_failed: u64,
    /// This engine's background jobs queued or running at snapshot time.
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

/// One SST file attached to a run.
#[derive(Clone, Debug)]
pub struct LevelFile {
    /// Manifest metadata; `meta.level` and `meta.column_group` name the run
    /// the file belongs to.
    pub meta: FileMeta,
    /// The opened table.
    pub table: TableHandle,
}

/// The sorted run of one column group at one level. Level-0 files may
/// overlap and are ordered oldest-first; deeper levels hold disjoint files
/// sorted by key.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Files of the run.
    pub files: Vec<LevelFile>,
}

impl Run {
    /// Total bytes of the run's files.
    pub fn size_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.meta.file_size).sum()
    }

    /// Total entries of the run's files.
    pub fn num_entries(&self) -> u64 {
        self.files.iter().map(|f| f.meta.num_entries).sum()
    }

    /// The file whose key range may hold `key`, for a run of disjoint sorted
    /// files (any level but 0).
    pub fn file_for(&self, key: UserKey) -> Option<&LevelFile> {
        let idx = self.files.partition_point(|f| f.meta.max_user_key < key);
        self.files.get(idx).filter(|f| f.meta.min_user_key <= key)
    }
}

/// All column-group runs of one level (one run for a row-oriented level).
#[derive(Clone, Debug, Default)]
pub struct Level {
    /// `runs[column_group]`.
    pub runs: Vec<Run>,
}

impl Level {
    /// Total bytes stored at this level.
    pub fn size_bytes(&self) -> u64 {
        self.runs.iter().map(Run::size_bytes).sum()
    }

    /// Every file of the level, run by run.
    pub fn files(&self) -> impl Iterator<Item = &LevelFile> {
        self.runs.iter().flat_map(|r| r.files.iter())
    }
}

/// The level with the highest overflow score (bytes over capacity, > 1.0),
/// if any — the first half of every format's compaction pick. The last level
/// never overflows (there is nowhere to push its data). With
/// `l0_file_trigger` set (background mode), Level-0 also overflows on file
/// count at that threshold, so a backpressure pileup always has a compaction
/// that can clear it even when the files are small; the synchronous path
/// (and the paper's experiments) compacts purely on byte overflow.
pub fn most_overflowing_level(
    levels: &[Level],
    capacity_bytes: impl Fn(usize) -> u64,
    l0_file_trigger: Option<usize>,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (level, state) in levels.iter().enumerate() {
        if level + 1 >= levels.len() {
            break;
        }
        let capacity = capacity_bytes(level);
        if capacity == 0 {
            continue;
        }
        let mut score = state.size_bytes() as f64 / capacity as f64;
        if let (0, Some(trigger)) = (level, l0_file_trigger) {
            let files = state.files().count();
            if files >= trigger {
                // `files + 1` so the score strictly exceeds 1.0 exactly when
                // the count reaches the threshold — a stalled writer (stall
                // == slowdown is allowed) must always have a runnable
                // compaction, or backpressure would wait forever.
                score = score.max((files + 1) as f64 / trigger as f64);
            }
        }
        if score > 1.0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((level, score));
        }
    }
    best.map(|(level, _)| level)
}

/// What the shell reads from an engine's option struct, plus the engine's
/// telemetry label.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// Engine label on metrics and in logs (`"lsm"`, `"laser"`).
    pub label: &'static str,
    /// Number of on-disk levels.
    pub num_levels: usize,
    /// Size at which the mutable memtable is frozen and flushed, in bytes.
    pub memtable_size_bytes: usize,
    /// Capacity of Level-0 in bytes; level `i` holds `level0 * T^i` bytes.
    pub level0_size_bytes: u64,
    /// Size ratio `T` between adjacent levels.
    pub size_ratio: u64,
    /// Target size of individual SST files produced by compaction.
    pub sst_target_size_bytes: u64,
    /// Whether acknowledged writes wait for WAL durability.
    pub sync_wal: bool,
    /// Group-commit window in milliseconds (see the engine options).
    pub sync_wal_interval_ms: u64,
    /// Whether the inline (no scheduler) path compacts after writes.
    pub auto_compact: bool,
    /// L0 pressure (files plus frozen memtables) at which writers briefly
    /// yield.
    pub l0_slowdown_files: usize,
    /// L0 pressure at which writers block until background work makes room.
    pub l0_stall_files: usize,
    /// This engine's pending-job depth at which writers block.
    pub max_pending_jobs: usize,
    /// Recovery tail size at or above which sealed segments are adopted in
    /// place instead of re-logged.
    pub recovery_adopt_bytes: u64,
    /// SST/block construction parameters.
    pub table: TableOptions,
}

/// The per-engine part of an LSM-Tree: how many column groups each level
/// has, which run to compact next, how to merge it into the next level's
/// runs, and what to count per commit. Everything else is [`EngineShell`].
pub trait LevelFormat: Send + Sync + 'static {
    /// Column groups (runs) at `level`. Level 0 is row-oriented: one group.
    fn groups(&self, level: usize) -> usize;

    /// The most overflowing `(level, group)`, or `None` if nothing
    /// overflows. `background` is true once a maintenance scheduler is
    /// attached; Level-0 then also overflows on file count at the slowdown
    /// threshold, so a stalled writer always has a runnable compaction.
    /// Never picks the last level.
    fn pick_compaction(&self, levels: &[Level], background: bool) -> Option<(usize, usize)>;

    /// Merges run `(level, group)` into the runs of `level + 1`: chooses the
    /// input files, streams every surviving entry — newest version per key,
    /// in key order per output group — into `sink`, and returns every file
    /// it consumed (inputs and the next-level files merged with them). The
    /// sink drops out-of-bound entries and last-level tombstones itself. An
    /// empty return means there was nothing to do. Called under the
    /// compaction lock with the tree lock released; `levels` is the file
    /// list the shell will replace the consumed files in.
    fn merge(
        &self,
        level: usize,
        group: usize,
        levels: &[Level],
        sink: &mut CompactionSink<'_>,
    ) -> Result<Vec<LevelFile>>;

    /// Per-commit statistics hook, called once per accepted client batch
    /// before it is logged (not for replicated applies).
    fn record_commit(&self, _batch: &WriteBatch) {}
}

/// A reader's snapshot of the tree: the memtable `Arc`s and the immutable
/// file lists, cloned under the tree lock and probed with it released.
pub struct ReadView {
    /// The mutable memtable.
    pub mutable: MemTableRef,
    /// Frozen memtables awaiting flush, oldest first.
    pub immutables: Vec<MemTableRef>,
    /// `levels[level].runs[column_group].files`.
    pub levels: Arc<Vec<Level>>,
}

impl ReadView {
    /// The memtables, newest first.
    pub fn memtables(&self) -> impl Iterator<Item = &MemTableRef> {
        std::iter::once(&self.mutable).chain(self.immutables.iter().rev())
    }
}

/// The lock-guarded tree state.
struct Tree {
    mutable: MemTableRef,
    /// Frozen memtables awaiting flush (each paired with its WAL segments),
    /// oldest first.
    immutables: Vec<FrozenMemTable>,
    /// Copy-on-write: readers hold the `Arc`, installs go through
    /// `Arc::make_mut`.
    levels: Arc<Vec<Level>>,
    last_seq: SeqNo,
}

/// The shared LSM engine shell (see the module docs).
pub struct EngineShell {
    storage: StorageRef,
    config: ShellConfig,
    format: Arc<dyn LevelFormat>,
    tree: RwLock<Tree>,
    next_file_number: AtomicU64,
    /// Segmented write-ahead log: one segment per memtable, group commit on
    /// the write path, manifest-tracked lifecycle.
    wal: SegmentedWal,
    stats: CompactionStats,
    /// Shared block cache (None when no cache is configured). May be a
    /// scoped view of a process-wide cache shared with other engines.
    cache: Option<ScopedCache>,
    /// Registered background scheduler handle; set once by
    /// [`EngineShell::attach_maintenance`]. While present, the write path
    /// enqueues flush/compaction jobs instead of running them inline.
    maintenance: OnceLock<MaintenanceHandle>,
    /// Serialises flush jobs so Level-0 keeps its oldest-first order.
    flush_lock: Mutex<()>,
    /// Serialises compaction and trim jobs so two never pick the same inputs.
    compaction_lock: Mutex<()>,
    /// Writers stalled on backpressure park on `write_room` (under
    /// `write_room_lock`); flushes, compactions and recovery notify it.
    write_room_lock: Mutex<()>,
    write_room: Condvar,
    /// Pre-resolved telemetry handles; set once by
    /// [`EngineShell::attach_telemetry`]. While absent, instrumentation costs
    /// one branch per hot-path operation.
    telemetry: OnceLock<EngineTelemetry>,
    /// Optional key-range restriction (`[lo, hi]` inclusive). Set when this
    /// engine serves one shard of a sharded deployment: compactions drop
    /// entries outside the bound, and trim compactions proactively rewrite
    /// SSTs adopted from a pre-split parent that still carry out-of-range
    /// data. Reads are unaffected (the router never asks for out-of-range
    /// keys, and scans clamp to the bound's range at the sharding layer).
    key_bound: RwLock<Option<(UserKey, UserKey)>>,
    /// Read-only degradation state: entered on persistent storage faults
    /// (after WAL rotation recovery and SST/manifest retries are exhausted),
    /// cleared automatically once a storage probe succeeds again.
    degradation: DegradationController,
}

impl EngineShell {
    /// A private block cache of `bytes` capacity (None for 0), for engines
    /// opened without a shared cache view.
    pub fn private_cache(bytes: usize) -> Option<ScopedCache> {
        (bytes > 0).then(|| ScopedCache::unscoped(BlockCache::new(bytes)))
    }

    /// Opens (or creates) an engine on `storage`, recovering any previous
    /// state from the manifest and WAL. Block reads are served through
    /// `cache`; a sharded deployment passes every shard a differently-scoped
    /// view of one process-wide [`BlockCache`] so the global byte budget and
    /// per-shard accounting are shared.
    pub fn open(
        storage: StorageRef,
        config: ShellConfig,
        format: Arc<dyn LevelFormat>,
        cache: Option<ScopedCache>,
    ) -> Result<Arc<Self>> {
        let snapshot = read_manifest(&storage)?;
        let mut levels: Vec<Level> = (0..config.num_levels)
            .map(|level| Level {
                runs: vec![Run::default(); format.groups(level)],
            })
            .collect();
        for meta in &snapshot.files {
            let run = levels
                .get_mut(meta.level as usize)
                .and_then(|l| l.runs.get_mut(meta.column_group as usize))
                .ok_or_else(|| {
                    Error::corruption(format!(
                        "manifest references level {} column group {}, outside the \
                         configured {} levels and their layouts",
                        meta.level, meta.column_group, config.num_levels
                    ))
                })?;
            let table = TableHandle::open_with_cache(&storage, &meta.file_name(), cache.clone())?;
            run.files.push(LevelFile {
                meta: meta.clone(),
                table,
            });
        }
        for (level, state) in levels.iter_mut().enumerate() {
            for run in &mut state.runs {
                if level == 0 {
                    run.files.sort_by_key(|f| f.meta.max_seq);
                } else {
                    run.files.sort_by_key(|f| f.meta.min_user_key);
                }
            }
        }

        // Open the segmented WAL, replaying only the segments the manifest
        // lists as live (plus anything newer).
        let policy = WalSyncPolicy::from_options(config.sync_wal, config.sync_wal_interval_ms);
        let (wal, recovery) = SegmentedWal::open(
            &storage,
            policy,
            &snapshot.wal_segments,
            &[],
            snapshot.last_seq + 1,
        )?;

        // WAL recovery: replay intact records into fresh memtable state. A
        // large clean tail is adopted in place — the replayed segments stay
        // live, paired with one frozen memtable rebuilt from their records,
        // so the eventual flush retires them together and recovery does O(1)
        // manifest work instead of re-logging every record; a small or dirty
        // tail keeps the re-log path, which compacts it into one segment.
        let mutable = Arc::new(MemTable::new());
        let mut immutables = Vec::new();
        let mut last_seq = snapshot.last_seq;
        let adopt = recovery.adoptable() && recovery.total_bytes() >= config.recovery_adopt_bytes;
        let target = if adopt {
            Arc::new(MemTable::new())
        } else {
            Arc::clone(&mutable)
        };
        for record in recovery.records() {
            if !adopt {
                // Re-log with the original sequence numbers so a second
                // recovery replays identically.
                wal.append(record.start_seq, &record.batch)?;
            }
            last_seq = last_seq.max(insert_record(&target, record));
        }
        if adopt {
            immutables.push(FrozenMemTable {
                memtable: target,
                wal_segments: wal.adopt_recovered(&recovery),
            });
        }
        // Sync any re-logged records, drop the non-adopted replayed files,
        // and record the live segments in the manifest.
        wal.finish_recovery()?;

        let shell = EngineShell {
            storage,
            config,
            format,
            tree: RwLock::new(Tree {
                mutable,
                immutables,
                levels: Arc::new(levels),
                last_seq,
            }),
            next_file_number: AtomicU64::new(snapshot.next_file_number.max(1)),
            wal,
            stats: CompactionStats::default(),
            cache,
            maintenance: OnceLock::new(),
            flush_lock: Mutex::new(()),
            compaction_lock: Mutex::new(()),
            write_room_lock: Mutex::new(()),
            write_room: Condvar::new(),
            telemetry: OnceLock::new(),
            key_bound: RwLock::new(None),
            degradation: DegradationController::new(),
        };
        shell.persist_manifest(&shell.tree.read())?;
        Ok(Arc::new(shell))
    }

    /// What the shell was configured with.
    pub fn config(&self) -> &ShellConfig {
        &self.config
    }

    /// The storage backend (exposes I/O statistics).
    pub fn storage(&self) -> &StorageRef {
        &self.storage
    }

    /// Flush/compaction/ingest counters, including block-cache,
    /// background-job and WAL counters when those subsystems are active.
    pub fn stats(&self) -> CompactionStatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        if let Some(cache) = &self.cache {
            let cache_stats = cache.cache().stats();
            snapshot.cache_hits = cache_stats.hits;
            snapshot.cache_misses = cache_stats.misses;
        }
        if let Some(handle) = self.maintenance.get() {
            snapshot.bg_jobs_completed = handle.completed_jobs();
            snapshot.bg_jobs_failed = handle.failed_jobs();
            snapshot.bg_jobs_pending = handle.pending_jobs() as u64;
        }
        snapshot.wal = self.wal.stats();
        snapshot
    }

    /// Durability statistics of the segmented WAL (also embedded in
    /// [`EngineShell::stats`]).
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
        let scheduler = JobScheduler::start_pool(num_workers);
        self.register_maintenance(&scheduler.client())?;
        Ok(scheduler)
    }

    /// Registers this engine with an existing, possibly shared, scheduler
    /// pool: from then on its write path enqueues flush/compaction jobs on
    /// that pool, as with [`EngineShell::attach_maintenance`]. Queue depth,
    /// job counters and backpressure stay per engine. A sharded deployment
    /// registers every shard (and every replica) with one pool. Errors if a
    /// scheduler was already attached.
    pub fn register_maintenance(self: &Arc<Self>, client: &SchedulerClient) -> Result<()> {
        let engine: Arc<dyn MaintainableEngine> = Arc::clone(self) as _;
        self.maintenance
            .set(client.register(&engine))
            .map_err(|_| Error::invalid("a maintenance scheduler is already attached"))
    }

    /// Registers this engine (and its WAL) with a shared telemetry hub under
    /// `shard_label`: latency histograms on the get/scan/commit paths, byte
    /// counters on flush/compaction, and maintenance events in the hub's
    /// event log. Idempotent — a second attach keeps the first registration.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>, shard_label: &str) {
        let _ = self.telemetry.set(EngineTelemetry::register(
            hub,
            self.config.label,
            shard_label,
        ));
        self.wal.attach_telemetry(hub, shard_label);
    }

    /// The attached telemetry handles, if any (for the typed read paths).
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.telemetry.get()
    }

    /// The last sequence number assigned.
    pub fn last_seq(&self) -> SeqNo {
        self.tree.read().last_seq
    }

    /// Snapshots the tree for a read: takes the tree lock only to clone the
    /// memtable `Arc`s and the current file lists.
    pub fn read_view(&self) -> ReadView {
        let tree = self.tree.read();
        ReadView {
            mutable: Arc::clone(&tree.mutable),
            immutables: tree
                .immutables
                .iter()
                .map(|m| Arc::clone(&m.memtable))
                .collect(),
            levels: Arc::clone(&tree.levels),
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Applies a write batch atomically (consecutive sequence numbers, one
    /// WAL record).
    ///
    /// The batch is appended to the active WAL segment and inserted into the
    /// mutable memtable under the tree lock; durability (per the
    /// `sync_wal` / `sync_wal_interval_ms` group-commit policy) is then
    /// awaited *outside* the lock, so concurrent writers coalesce into one
    /// fsync. With a maintenance scheduler attached, a full memtable is
    /// frozen (rotating the WAL segment) and its flush is enqueued for the
    /// background workers, after applying slowdown/stall backpressure;
    /// without one, the synchronous flush/compact path runs inline.
    ///
    /// Entry payloads are whatever the engine's typed API encodes (opaque
    /// blobs for `LsmDb`, `RowFragment` encodings for `LaserDb`); they are
    /// not validated here.
    pub fn write(&self, batch: &WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.check_writable()?;
        self.format.record_commit(batch);
        let telemetry = self.telemetry.get();
        let commit_start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Commit));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        self.apply_backpressure();
        let ticket = {
            let _apply_span = traced.then(|| trace::span("wal_append")).flatten();
            let mut tree = self.tree.write();
            let start_seq = tree.last_seq + 1;
            self.log_and_insert(&mut tree, start_seq, batch)?
        };
        // The write is acknowledged only once its WAL record is durable
        // (group commit: concurrent writers share one fsync).
        {
            let _durable_span = traced.then(|| trace::span("wal_durable")).flatten();
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

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: UserKey) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(&batch)
    }

    /// Logs `batch` at `start_seq` and inserts it into the mutable memtable,
    /// under the held tree lock.
    fn log_and_insert(
        &self,
        tree: &mut Tree,
        start_seq: SeqNo,
        batch: &WriteBatch,
    ) -> Result<WalTicket> {
        let logical_bytes: u64 = batch
            .iter()
            .map(|e| std::mem::size_of::<UserKey>() as u64 + e.value.len() as u64)
            .sum();
        self.stats
            .ingest_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
        let ticket = self
            .wal
            .append(start_seq, batch)
            .map_err(|e| self.note_write_error(e))?;
        for (seq, entry) in (start_seq..).zip(batch.iter()) {
            tree.mutable.insert(seq, entry);
        }
        tree.last_seq = start_seq + batch.len() as SeqNo - 1;
        Ok(ticket)
    }

    /// Unconditionally freezes the mutable memtable (sealing its WAL segment
    /// and opening a fresh one), without flushing it. No-op on an empty
    /// memtable. Returns true if a memtable was frozen.
    ///
    /// Used by the flush path and by crash-recovery tests that need the
    /// "frozen but not yet flushed" state.
    pub fn freeze_memtable(&self) -> Result<bool> {
        let mut tree = self.tree.write();
        if tree.mutable.is_empty() {
            return Ok(false);
        }
        self.freeze_locked(&mut tree)
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

    /// Freezes the mutable memtable under the held tree lock: rotates to a
    /// fresh WAL segment and pairs the sealed segment with the frozen
    /// memtable.
    fn freeze_locked(&self, tree: &mut Tree) -> Result<bool> {
        let sealed_segment = self.wal.rotate(tree.last_seq + 1)?;
        let frozen = std::mem::replace(&mut tree.mutable, Arc::new(MemTable::new()));
        tree.immutables
            .push(FrozenMemTable::sealed(frozen, sealed_segment));
        // No manifest write here: the previous flush-time manifest already
        // lists the sealed segment, and recovery unconditionally replays any
        // segment newer than the manifest knows, so the fresh active segment
        // needs no record. Keeping the freeze path free of manifest I/O
        // keeps the tree lock cheap.
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Flush
    // ------------------------------------------------------------------

    /// Flushes the mutable memtable and every frozen memtable to
    /// row-oriented Level-0 SSTs, retiring their WAL segments. No-op when
    /// nothing is buffered. Rejected with [`Error::ReadOnly`] while the
    /// engine is degraded.
    pub fn flush(&self) -> Result<()> {
        self.check_writable()?;
        let result = (|| {
            self.freeze_memtable()?;
            while self.flush_frozen_one()? {}
            Ok(())
        })();
        if let Err(e) = &result {
            self.note_storage_error(e);
        }
        result
    }

    /// Flushes the oldest frozen memtable, if any, to a Level-0 SST. Once
    /// the SST is installed in the manifest, the WAL segments backing the
    /// memtable are retired and their files deleted — recovery never replays
    /// data that already lives in the tree. Returns true if a memtable was
    /// flushed.
    fn flush_frozen_one(&self) -> Result<bool> {
        self.check_not_degraded()?;
        let telemetry = self.telemetry.get();
        let flush_start = telemetry.map(|_| Instant::now());
        // Serialise flushes so Level-0 keeps its oldest-first order.
        let _flushing = self.flush_lock.lock();
        let Some(frozen) = self.tree.read().immutables.first().cloned() else {
            return Ok(false);
        };
        // Build the SST outside the lock; the frozen memtable stays readable
        // in `immutables` until the file is installed.
        let flushed = if frozen.memtable.is_empty() {
            None
        } else {
            Some(self.build_sst(0, 0, frozen.memtable.to_sorted_vec())?)
        };
        {
            let mut tree = self.tree.write();
            if let Some(file) = &flushed {
                Arc::make_mut(&mut tree.levels)[0].runs[0]
                    .files
                    .push(file.clone());
            }
            tree.immutables
                .retain(|m| !Arc::ptr_eq(&m.memtable, &frozen.memtable));
            // Manifest-first segment GC: drop the segments from the live set,
            // persist a manifest that has the SST and no longer lists them,
            // and only then unlink the files. A crash in between leaves
            // orphan files that the next open deletes unreplayed.
            for segment in &frozen.wal_segments {
                self.wal.retire(*segment);
            }
            self.persist_manifest(&tree)?;
        }
        self.wal.delete_retired()?;
        if let Some(LevelFile { meta, .. }) = flushed {
            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
            if let (Some(telemetry), Some(start)) = (telemetry, flush_start) {
                telemetry.flush_event(start.elapsed(), meta.file_size, meta.num_entries);
            }
            self.notify_write_room();
        }
        Ok(true)
    }

    /// Builds one SST from sorted `entries` under a freshly allocated file
    /// number and opens it, ready to install (all of it outside the tree
    /// lock).
    fn build_sst(
        &self,
        level: u32,
        column_group: u32,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<LevelFile> {
        let file_number = self.next_file_number.fetch_add(1, Ordering::Relaxed);
        let name = format!("{file_number:08}.sst");
        // A transient fault mid-build restarts the whole table from scratch
        // (create truncates), so a retried build never sees torn output.
        let props = retry_io(
            &RetryPolicy::transient_io(),
            |_, _| self.note_io_retry(),
            || {
                let file = self.storage.create(&name)?;
                let mut builder = TableBuilder::new(file, self.config.table.clone());
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
        let meta = FileMeta {
            file_number,
            level,
            min_user_key: props.min_user_key,
            max_user_key: props.max_user_key,
            num_entries: props.num_entries,
            file_size: props.file_size,
            min_seq: props.min_seq,
            max_seq: props.max_seq,
            column_group,
        };
        let table = TableHandle::open_with_cache(&self.storage, &name, self.cache.clone())?;
        Ok(LevelFile { meta, table })
    }

    fn persist_manifest(&self, tree: &Tree) -> Result<()> {
        let snapshot = VersionSnapshot {
            next_file_number: self.next_file_number.load(Ordering::Relaxed),
            last_seq: tree.last_seq,
            files: tree
                .levels
                .iter()
                .flat_map(|level| level.files().map(|f| f.meta.clone()))
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

    /// The format's pick for the current tree; the Level-0 file-count
    /// trigger applies once a maintenance scheduler is attached.
    fn pick_compaction(&self, levels: &[Level]) -> Option<(usize, usize)> {
        self.format
            .pick_compaction(levels, self.maintenance.get().is_some())
    }

    /// Repeatedly compacts ([`EngineShell::compact_once`]) until no level
    /// overflows.
    pub fn compact_until_stable(&self) -> Result<()> {
        while self.compact_once()? {}
        Ok(())
    }

    /// Compacts run `(level, group)` into `level + 1` regardless of
    /// capacity thresholds. Returns true if work was done.
    pub fn compact_run(&self, level: usize, group: usize) -> Result<bool> {
        self.compact_with(|_| Some((level, group)))
    }

    /// One compaction job: picks `(level, group)` under the compaction lock,
    /// lets the format merge it into output SSTs with the tree lock released,
    /// installs the outputs in place of the consumed files, persists the
    /// manifest and only then unlinks the consumed files.
    pub fn compact_with(
        &self,
        pick: impl FnOnce(&[Level]) -> Option<(usize, usize)>,
    ) -> Result<bool> {
        // No compactions while the engine is read-only (same gate as the
        // flush path).
        self.check_not_degraded()?;
        let telemetry = self.telemetry.get();
        let compaction_start = telemetry.map(|_| Instant::now());
        let _compacting = self.compaction_lock.lock();
        let levels = Arc::clone(&self.tree.read().levels);
        let Some((level, group)) = pick(&levels) else {
            return Ok(false);
        };
        let target_level = level + 1;
        if target_level >= levels.len() || group >= levels[level].runs.len() {
            return Ok(false);
        }
        let mut sink = CompactionSink::new(self, target_level);
        let consumed = self.format.merge(level, group, &levels, &mut sink)?;
        if consumed.is_empty() {
            return Ok(false);
        }
        let (outputs, trimmed) = sink.finish()?;
        // Release the snapshot so the install below edits the lists in place
        // (no reader holding them) instead of copying them.
        drop(levels);
        let bytes_read: u64 = consumed.iter().map(|f| f.meta.file_size).sum();
        self.stats
            .bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);

        {
            let mut tree = self.tree.write();
            let levels = Arc::make_mut(&mut tree.levels);
            for gone in &consumed {
                levels[gone.meta.level as usize].runs[gone.meta.column_group as usize]
                    .files
                    .retain(|f| f.meta.file_number != gone.meta.file_number);
            }
            for file in &outputs {
                levels[target_level].runs[file.meta.column_group as usize]
                    .files
                    .push(file.clone());
            }
            for run in &mut levels[target_level].runs {
                run.files.sort_by_key(|f| f.meta.min_user_key);
            }
            self.persist_manifest(&tree)?;
        }
        for gone in &consumed {
            let _ = self.storage.delete(&gone.meta.file_name());
        }
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .trimmed_entries
            .fetch_add(trimmed, Ordering::Relaxed);
        if let (Some(telemetry), Some(start)) = (telemetry, compaction_start) {
            telemetry.compaction_event(
                start.elapsed(),
                bytes_read,
                outputs.iter().map(|f| f.meta.file_size).sum(),
                outputs.iter().map(|f| f.meta.num_entries).sum(),
            );
        }
        self.notify_write_room();
        Ok(true)
    }

    /// Flushes outstanding data and persists the manifest.
    pub fn close(&self) -> Result<()> {
        self.flush()?;
        self.persist_manifest(&self.tree.read())
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
        self.apply_backpressure();
        let ticket = {
            let mut tree = self.tree.write();
            let next = tree.last_seq + 1;
            if start_seq > next {
                return Err(Error::invalid(format!(
                    "replication gap: record starts at seq {start_seq} but this \
                     replica has only applied through {}",
                    tree.last_seq
                )));
            }
            let end_seq = start_seq + batch.len() as SeqNo - 1;
            if end_seq < next {
                return Ok(tree.last_seq);
            }
            let skip = (next - start_seq) as usize;
            if skip == 0 {
                self.log_and_insert(&mut tree, start_seq, batch)?
            } else {
                let mut suffix = WriteBatch::new();
                for entry in batch.iter().skip(skip) {
                    suffix.push(entry.clone());
                }
                self.log_and_insert(&mut tree, next, &suffix)?
            }
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
    pub fn wal_catchup(&self, from_seq: SeqNo) -> Result<(Vec<ShippedSegment>, Vec<WalRecord>)> {
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
        let mut tree = self.tree.write();
        let (records, clean, _) = decode_records(bytes)?;
        if !clean || records.is_empty() {
            return Err(Error::corruption(
                "shipped WAL segment image is torn, corrupt or empty",
            ));
        }
        let first = records.first().map(|r| r.start_seq).unwrap_or(0);
        let last = records.iter().map(|r| r.end_seq()).max().unwrap_or(0);
        if first > tree.last_seq + 1 {
            return Err(Error::invalid(format!(
                "replication gap: shipped segment starts at seq {first} but this \
                 replica has only applied through {}",
                tree.last_seq
            )));
        }
        if last <= tree.last_seq {
            // Entirely duplicate (a re-ship after reconnect): skip.
            return Ok(tree.last_seq);
        }
        if first <= tree.last_seq {
            // Partially overlapping: adopting the whole image would leave
            // duplicate sequence numbers in this WAL, and a later recovery
            // would replay them twice into one memtable. The caller must
            // apply the records individually instead (which trims overlap).
            return Err(Error::invalid(format!(
                "shipped segment [{first}, {last}] overlaps applied prefix \
                 (through {}); apply its records individually",
                tree.last_seq
            )));
        }
        let (segment_id, records) = self.wal.adopt_segment_bytes(bytes)?;
        let rebuilt = Arc::new(MemTable::new());
        for record in &records {
            insert_record(&rebuilt, record);
        }
        tree.immutables
            .push(FrozenMemTable::sealed(rebuilt, segment_id));
        tree.last_seq = tree.last_seq.max(last);
        self.persist_manifest(&tree)?;
        Ok(tree.last_seq)
    }

    /// Sets the WAL retention floor from replication acknowledgements: every
    /// record with a sequence number `<= seq` is acked by every replica, so
    /// segments ending at or below it may retire. When the advance releases
    /// a previously pinned segment, the manifest is re-persisted and the
    /// file deleted.
    pub fn set_wal_retention_floor(&self, seq: SeqNo) -> Result<()> {
        if self.wal.set_retention_floor(seq) {
            self.persist_manifest(&self.tree.read())?;
            self.wal.delete_retired()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Graceful degradation (read-only mode on persistent storage faults)
    // ------------------------------------------------------------------

    /// True while the engine can accept writes — its WAL has no unrecovered
    /// damage and it has not entered read-only degradation. The replication
    /// health monitor treats an unhealthy leader as lost and promotes a
    /// replica.
    pub fn is_healthy(&self) -> bool {
        !self.wal.is_damaged() && !self.degradation.is_degraded()
    }

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
        self.check_not_degraded()
    }

    /// The error-state gate of background work. While degraded, flushing and
    /// compacting are blocked outright: re-running half-failed jobs against
    /// a broken device risks double-applying work (at-most-once), and the
    /// typed error also trips the backpressure gate's failed-jobs bail-out
    /// so stalled writers are released instead of waiting forever.
    fn check_not_degraded(&self) -> Result<()> {
        match self.degradation.info() {
            Some(info) => Err(Error::read_only(info.reason)),
            None => Ok(()),
        }
    }

    /// Classifies an error escaping the write or maintenance path: anything
    /// non-transient (the WAL already self-healed transients, `retry_io`
    /// already retried the rest) degrades the engine — emitting `Degraded`
    /// and raising `laser_degraded` on the transition edge — instead of
    /// leaving the next caller to hit the same broken device.
    fn note_storage_error(&self, e: &Error) {
        if !e.is_transient() && !e.is_read_only() && self.degradation.enter(e.to_string()) {
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.degraded_event();
            }
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
    // Key-range restriction (shard-split support; trim compaction is below)
    // ------------------------------------------------------------------

    /// Restricts this engine to the inclusive key range `[lo, hi]`. From
    /// then on compactions drop entries outside the bound and
    /// [`EngineShell::trim_once`] can proactively rewrite SSTs that still
    /// carry out-of-range data (files adopted by reference from a pre-split
    /// parent shard). The bound never affects reads: callers are expected to
    /// route only in-range keys at this engine.
    pub fn set_key_bound(&self, lo: UserKey, hi: UserKey) {
        *self.key_bound.write() = Some((lo, hi));
    }

    /// The key bound, if one is set.
    pub fn key_bound(&self) -> Option<(UserKey, UserKey)> {
        *self.key_bound.read()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Returns the metadata of every file, grouped by level (all column
    /// groups interleaved).
    pub fn level_files(&self) -> Vec<Vec<FileMeta>> {
        self.tree
            .read()
            .levels
            .iter()
            .map(|level| level.files().map(|f| f.meta.clone()).collect())
            .collect()
    }

    /// Total bytes stored in each level.
    pub fn level_sizes(&self) -> Vec<u64> {
        self.tree
            .read()
            .levels
            .iter()
            .map(Level::size_bytes)
            .collect()
    }

    /// Total bytes of all attached SST files.
    pub fn total_sst_bytes(&self) -> u64 {
        self.level_sizes().iter().sum()
    }

    /// Number of entries in the mutable memtable.
    pub fn memtable_len(&self) -> usize {
        self.tree.read().mutable.len()
    }

    /// Approximate bytes buffered in the mutable and frozen memtables.
    pub fn buffered_bytes(&self) -> u64 {
        let tree = self.tree.read();
        let frozen: usize = tree
            .immutables
            .iter()
            .map(|m| m.memtable.approximate_bytes())
            .sum();
        (tree.mutable.approximate_bytes() + frozen) as u64
    }

    /// Point-in-time physical shape of the tree (files, bytes, overlap and
    /// compaction debt per level), from which the structural read
    /// amplification and measured space amplification derive. The live-byte
    /// estimate discounts out-of-bound leftovers by the key bound.
    pub fn tree_shape(&self) -> TreeShape {
        TreeShape::compute(
            &self.level_files(),
            self.buffered_bytes(),
            self.config.size_ratio,
            self.config.level0_size_bytes,
            self.key_bound(),
        )
    }
}

/// Inserts every entry of a WAL record into `memtable` at its original
/// sequence numbers; returns the record's last sequence number.
fn insert_record(memtable: &MemTable, record: &WalRecord) -> SeqNo {
    for (seq, entry) in (record.start_seq..).zip(record.batch.iter()) {
        memtable.insert(seq, entry);
    }
    record.end_seq()
}

/// Where a compaction's surviving entries go: cuts the stream into SSTs of
/// the target size, one run (column group) of the target level at a time,
/// and applies the two drop rules every format shares — entries outside the
/// engine's key bound (shard-split leftovers) at every level, tombstones
/// once they reach the last level.
pub struct CompactionSink<'a> {
    shell: &'a EngineShell,
    level: u32,
    drop_tombstones: bool,
    key_bound: Option<(UserKey, UserKey)>,
    group: usize,
    chunk: Vec<(Vec<u8>, Vec<u8>)>,
    chunk_bytes: u64,
    outputs: Vec<LevelFile>,
    trimmed: u64,
}

impl<'a> CompactionSink<'a> {
    fn new(shell: &'a EngineShell, target_level: usize) -> Self {
        CompactionSink {
            shell,
            level: target_level as u32,
            drop_tombstones: target_level + 1 >= shell.config.num_levels,
            key_bound: shell.key_bound(),
            group: 0,
            chunk: Vec::new(),
            chunk_bytes: 0,
            outputs: Vec::new(),
            trimmed: 0,
        }
    }

    /// Appends one entry to the output run of column group `group`. Entries
    /// of one group must arrive in internal-key order; groups one after the
    /// other.
    pub fn add(&mut self, group: usize, key: InternalKey, value: Vec<u8>) -> Result<()> {
        if self
            .key_bound
            .is_some_and(|(lo, hi)| key.user_key < lo || key.user_key > hi)
        {
            self.trimmed += 1;
            return Ok(());
        }
        if self.drop_tombstones && key.kind == ValueKind::Tombstone {
            return Ok(());
        }
        if group != self.group {
            self.cut()?;
            self.group = group;
        }
        let encoded = key.encode();
        self.chunk_bytes += (encoded.len() + value.len()) as u64;
        self.chunk.push((encoded.to_vec(), value));
        if self.chunk_bytes >= self.shell.config.sst_target_size_bytes {
            self.cut()?;
        }
        Ok(())
    }

    /// Writes the buffered entries out as one SST.
    fn cut(&mut self) -> Result<()> {
        if !self.chunk.is_empty() {
            let entries = std::mem::take(&mut self.chunk);
            self.outputs.push(
                self.shell
                    .build_sst(self.level, self.group as u32, entries)?,
            );
            self.chunk_bytes = 0;
        }
        Ok(())
    }

    /// The output files and the number of out-of-bound entries dropped.
    fn finish(mut self) -> Result<(Vec<LevelFile>, u64)> {
        self.cut()?;
        Ok((self.outputs, self.trimmed))
    }
}

// ----------------------------------------------------------------------
// Background maintenance: the write-path protocol, the job bodies and the
// primitives they share with the foreground API
// ----------------------------------------------------------------------

impl EngineShell {
    /// The registered scheduler handle, if it is still accepting jobs. A
    /// handle whose scheduler has been dropped is treated as absent so
    /// writes fall back to inline maintenance.
    fn active_maintenance(&self) -> Option<&MaintenanceHandle> {
        self.maintenance.get().filter(|h| !h.is_shutdown())
    }

    /// This engine's background jobs queued or running (0 without a live
    /// scheduler).
    pub fn pending_jobs(&self) -> usize {
        self.active_maintenance()
            .map_or(0, MaintenanceHandle::pending_jobs)
    }

    /// Enqueues a trim job on the attached scheduler; the job re-enqueues
    /// itself until no SST carries out-of-range entries. Returns false when
    /// no live scheduler is attached, leaving the caller to trim inline
    /// ([`EngineShell::trim_once`]) or to let compactions drop the leftovers.
    pub fn schedule_trim(&self) -> bool {
        self.active_maintenance()
            .is_some_and(|h| h.submit(JobKind::Trim))
    }

    /// Applies the two-step policy before a write: sleep briefly once L0
    /// pressure reaches `l0_slowdown_files`, block once it reaches
    /// `l0_stall_files` (or this engine's queue depth reaches
    /// `max_pending_jobs`) until background work makes room. No-op without
    /// a live scheduler: the write path then maintains the tree inline.
    fn apply_backpressure(&self) {
        let Some(handle) = self.active_maintenance() else {
            return;
        };
        let start = Instant::now();
        let l0 = self.l0_pressure();
        if l0 >= self.config.l0_stall_files || handle.pending_jobs() >= self.config.max_pending_jobs
        {
            self.wait_for_room(handle);
            self.stats.stall_events.fetch_add(1, Ordering::Relaxed);
            // Telemetry histograms the wait, logs a stall event and adds a
            // `stall_wait` retro-span to any active trace.
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.stall_event(start.elapsed());
            }
        } else if l0 >= self.config.l0_slowdown_files {
            std::thread::sleep(Duration::from_millis(1));
            self.stats.slowdown_events.fetch_add(1, Ordering::Relaxed);
            // Slowdown yields are brief but real: attribute them when a
            // trace is active (no-op otherwise, off the fast path).
            trace::retro_span("slowdown_wait", start.elapsed(), &[]);
        }
    }

    /// Parks a stalled writer until L0 pressure and this engine's queue
    /// depth fall below the stall thresholds. Makes sure a job that can
    /// clear the pileup is queued, and gives up once the scheduler shuts
    /// down or this engine's jobs keep failing.
    fn wait_for_room(&self, handle: &MaintenanceHandle) {
        let failed_at_entry = handle.failed_jobs();
        let mut guard = self.write_room_lock.lock();
        loop {
            if handle.is_shutdown() {
                break;
            }
            // A backend that keeps failing this engine's jobs will never
            // clear the pileup; stop stalling rather than hang the writer
            // (the failure stays visible via stats().bg_jobs_failed). Other
            // engines' failures on a shared pool do not count.
            if handle.failed_jobs() > failed_at_entry + 1 {
                break;
            }
            if self.l0_pressure() < self.config.l0_stall_files
                && handle.pending_jobs() < self.config.max_pending_jobs
            {
                break;
            }
            // Make sure something is scheduled that can clear the pileup: a
            // flush if frozen memtables are the pressure, otherwise a
            // compaction.
            if handle.pending_jobs() == 0 {
                let kind = if self.has_frozen_memtables() {
                    JobKind::Flush
                } else {
                    JobKind::Compaction
                };
                // A false return here usually means another writer won the
                // submission race (fine — a job is now pending); only a
                // shut-down scheduler justifies giving up.
                if !handle.submit_if_idle(kind) && handle.is_shutdown() {
                    break;
                }
            }
            self.write_room
                .wait_for(&mut guard, Duration::from_millis(20));
        }
    }

    /// Wakes writers parked on backpressure after maintenance made progress.
    fn notify_write_room(&self) {
        let _guard = self.write_room_lock.lock();
        self.write_room.notify_all();
    }

    /// Schedules the flush of already-frozen memtables: enqueues a flush job
    /// when a live scheduler is attached, drains them inline otherwise (a
    /// manual `freeze_memtable()` alone leaves the frozen memtable waiting
    /// for the next write-path trigger).
    fn schedule_frozen_flush(&self) -> Result<()> {
        match self.active_maintenance() {
            Some(handle) if handle.submit(JobKind::Flush) => Ok(()),
            // No scheduler (or it shut down between the check and the
            // submit): drain inline instead of leaking the frozen memtable.
            _ => {
                while self.flush_frozen_one()? {}
                Ok(())
            }
        }
    }

    /// The post-write maintenance step: with a scheduler attached, freeze a
    /// full memtable and enqueue flush/compaction jobs; without one, drain
    /// any leftover frozen memtables and run the synchronous path.
    fn after_write_maintenance(&self) -> Result<()> {
        match self.active_maintenance() {
            Some(handle) => {
                if self.freeze_if_full()? && !handle.submit(JobKind::Flush) {
                    // Scheduler shut down between the check and the submit:
                    // drain the frozen memtable inline instead of leaking it.
                    while self.flush_frozen_one()? {}
                }
                if self.needs_compaction() {
                    handle.submit_if_idle(JobKind::Compaction);
                }
            }
            None => {
                // Drain any memtables frozen before a scheduler shutdown,
                // then run the synchronous path.
                if self.has_frozen_memtables() {
                    while self.flush_frozen_one()? {}
                }
                if self.tree.read().mutable.approximate_bytes() >= self.config.memtable_size_bytes {
                    self.flush()?;
                }
                if self.config.auto_compact {
                    while self.compact_once()? {}
                }
            }
        }
        Ok(())
    }

    /// Executes one background job. Flush jobs drain the oldest frozen
    /// memtable and chain a compaction when the tree overflows; compaction
    /// and trim jobs run one step and re-enqueue themselves while work
    /// remains, so a single submission settles the whole tree (or trims the
    /// whole shard) without monopolising a worker.
    fn run_job(&self, kind: JobKind) -> Result<()> {
        let Some(handle) = self.maintenance.get() else {
            return Ok(());
        };
        match kind {
            JobKind::Flush => {
                self.flush_frozen_one()?;
                if self.needs_compaction() {
                    handle.submit_if_idle(JobKind::Compaction);
                }
            }
            JobKind::Compaction => {
                if self.compact_once()? && self.needs_compaction() {
                    // `submit_if_idle` would see this running job as
                    // pending, so resubmit directly; bounded because it only
                    // happens while a level still overflows.
                    handle.submit(JobKind::Compaction);
                }
            }
            JobKind::Trim => {
                if self.trim_once()? && self.needs_trim() {
                    handle.submit(JobKind::Trim);
                }
            }
        }
        Ok(())
    }

    /// Freezes the mutable memtable (rotating the WAL segment) when it
    /// crossed the size threshold.
    fn freeze_if_full(&self) -> Result<bool> {
        let mut tree = self.tree.write();
        if tree.mutable.approximate_bytes() < self.config.memtable_size_bytes
            || tree.mutable.is_empty()
        {
            return Ok(false);
        }
        self.freeze_locked(&mut tree)
    }

    /// Runs a single compaction job if any level overflows. Returns `true`
    /// if work was done. Safe to call concurrently (from background workers
    /// and the foreground API): jobs are serialised internally.
    pub fn compact_once(&self) -> Result<bool> {
        self.compact_with(|levels| self.pick_compaction(levels))
    }

    /// True if some level (by bytes, or Level-0 by file count) overflows.
    fn needs_compaction(&self) -> bool {
        let levels = Arc::clone(&self.tree.read().levels);
        self.pick_compaction(&levels).is_some()
    }

    fn has_frozen_memtables(&self) -> bool {
        !self.tree.read().immutables.is_empty()
    }

    /// L0 pressure as backpressure sees it: on-disk Level-0 files plus
    /// frozen memtables still waiting for their flush job.
    fn l0_pressure(&self) -> usize {
        let tree = self.tree.read();
        tree.levels[0].files().count() + tree.immutables.len()
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
        let victim = self
            .tree
            .read()
            .levels
            .iter()
            .flat_map(Level::files)
            .find(|f| f.table.spans_outside(lo, hi))
            .cloned();
        let Some(victim) = victim else {
            return Ok(false);
        };
        let (level, group) = (
            victim.meta.level as usize,
            victim.meta.column_group as usize,
        );

        // Rewrite outside the lock; the victim stays attached (and readable)
        // until the replacement is installed.
        let mut kept: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut iter = victim.table.iter();
        iter.seek_to_first()?;
        while iter.valid() {
            let user_key = InternalKey::decode_user_key(iter.key())?;
            if (lo..=hi).contains(&user_key) {
                kept.push((iter.key().to_vec(), iter.value().to_vec()));
            }
            iter.next()?;
        }
        let trimmed = victim.meta.num_entries.saturating_sub(kept.len() as u64);
        // The replacement's manifest bounds are its true content bounds,
        // which lie within `[lo, hi]` by construction.
        let replacement = if kept.is_empty() {
            None
        } else {
            Some(self.build_sst(level as u32, group as u32, kept)?)
        };
        let rewritten_bytes = replacement.as_ref().map_or(0, |f| f.meta.file_size);
        {
            let mut tree = self.tree.write();
            let files = &mut Arc::make_mut(&mut tree.levels)[level].runs[group].files;
            let Some(pos) = files
                .iter()
                .position(|f| f.meta.file_number == victim.meta.file_number)
            else {
                // The victim vanished; discard the replacement built for it
                // rather than leaving an orphan file behind.
                if let Some(file) = &replacement {
                    let _ = self.storage.delete(&file.meta.file_name());
                }
                return Ok(true);
            };
            match replacement {
                // Replace in place so Level-0's oldest-first order (and
                // deeper levels' sort) is preserved.
                Some(file) => files[pos] = file,
                None => {
                    files.remove(pos);
                }
            }
            self.persist_manifest(&tree)?;
        }
        let _ = self.storage.delete(&victim.meta.file_name());
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
        self.tree
            .read()
            .levels
            .iter()
            .flat_map(Level::files)
            .any(|f| f.table.spans_outside(lo, hi))
    }
}

impl MaintainableEngine for EngineShell {
    /// Runs one flush, compaction or trim job. A persistent storage fault
    /// escaping a background job degrades the engine to read-only instead
    /// of letting the pool churn against a broken device.
    fn run_maintenance_job(&self, kind: JobKind) -> Result<()> {
        let result = self.run_job(kind);
        if let Err(e) = &result {
            self.note_storage_error(e);
        }
        result
    }
}
