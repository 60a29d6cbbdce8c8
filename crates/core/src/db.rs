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
//!
//! A Real-Time LSM-Tree is an ordinary LSM-Tree with a column-group layout
//! chosen per level, and the code says so: [`LaserDb`] is the substrate's
//! [`EngineShell`] — WAL, memtables, flush, manifest, maintenance,
//! degradation, replication hooks and trim, all reached through `Deref` —
//! plus the column-group [`LevelFormat`] (CG-local compaction) and the typed,
//! projection-aware read API in this file.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use telemetry::trace::{self, TraceKind};

use lsm_storage::cache::ScopedCache;
use lsm_storage::iterator::KvIterator;
use lsm_storage::maintenance::{BackpressureConfig, JobKind};
use lsm_storage::shell::{
    most_overflowing_level, CompactionSink, EngineShell, Level, LevelFile, LevelFormat, ReadView,
    ShellConfig,
};
use lsm_storage::sst::TableHandle;
use lsm_storage::storage::{MemStorage, StorageRef};
use lsm_storage::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch, MAX_SEQNO};
use lsm_storage::{Error, Result};

use crate::iters::{
    BoxedFragmentSource, ColumnMergingIterator, ConcatIterator, FragmentSource, FragmentVersion,
    LevelMergingIterator, RowSource,
};
use crate::layout::LayoutSpec;
use crate::options::LaserOptions;
use crate::row::RowFragment;
use crate::schema::{ColumnId, Projection, Schema};
use crate::stats::{EngineStats, EngineStatsSnapshot};
use crate::value::Value;

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
    shell: Arc<EngineShell>,
    format: Arc<CgFormat>,
}

impl Deref for LaserDb {
    type Target = Arc<EngineShell>;

    fn deref(&self) -> &Arc<EngineShell> {
        &self.shell
    }
}

impl LaserDb {
    /// Opens (or creates) an engine on `storage` with the given options,
    /// recovering previous state from the manifest and WAL.
    pub fn open(storage: StorageRef, options: LaserOptions) -> Result<Self> {
        let cache = EngineShell::private_cache(options.block_cache_bytes);
        Self::open_with_cache(storage, options, cache)
    }

    /// Opens (or creates) an engine on `storage`, serving block reads
    /// through the given cache view instead of a private per-engine cache
    /// (`block_cache_bytes` is ignored). A sharded deployment passes every
    /// shard a differently-scoped view of one process-wide
    /// [`BlockCache`](lsm_storage::BlockCache) so the global byte budget and
    /// per-shard accounting are shared.
    pub fn open_with_cache(
        storage: StorageRef,
        options: LaserOptions,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        options.validate()?;
        let config = ShellConfig {
            label: "laser",
            compaction_kind: JobKind::CgCompaction,
            num_levels: options.num_levels,
            memtable_size_bytes: options.memtable_size_bytes,
            level0_size_bytes: options.level0_size_bytes,
            size_ratio: options.size_ratio,
            sst_target_size_bytes: options.sst_target_size_bytes,
            sync_wal: options.sync_wal,
            sync_wal_interval_ms: options.sync_wal_interval_ms,
            auto_compact: options.auto_compact,
            backpressure: BackpressureConfig {
                l0_slowdown_files: options.l0_slowdown_files,
                l0_stall_files: options.l0_stall_files,
                max_pending_jobs: options.max_pending_jobs,
            },
            recovery_adopt_bytes: options.recovery_adopt_bytes,
            table: options.table.clone(),
        };
        let format = Arc::new(CgFormat {
            stats: EngineStats::new(options.num_levels),
            options,
        });
        let shell = EngineShell::open(storage, config, Arc::clone(&format) as _, cache)?;
        Ok(LaserDb { shell, format })
    }

    /// Opens an engine backed by fresh in-memory storage.
    pub fn open_in_memory(options: LaserOptions) -> Result<Self> {
        Self::open(MemStorage::new_ref(), options)
    }

    /// The configured options.
    pub fn options(&self) -> &LaserOptions {
        &self.format.options
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.options().schema()
    }

    /// The layout (design) in use.
    pub fn layout(&self) -> &LayoutSpec {
        &self.options().layout
    }

    /// Engine statistics: operation counts and the per-level profile, plus
    /// the shell's write-amplification, block-cache, background-maintenance
    /// and WAL counters.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let shell = self.shell.stats();
        EngineStatsSnapshot {
            flushes: shell.flushes,
            compactions: shell.compactions,
            compaction_bytes_written: shell.bytes_written,
            compaction_bytes_read: shell.bytes_read,
            compaction_entries_written: shell.entries_written,
            ingest_bytes: shell.ingest_bytes,
            stall_events: shell.stall_events,
            slowdown_events: shell.slowdown_events,
            cache_hits: shell.cache_hits,
            cache_misses: shell.cache_misses,
            bg_jobs_completed: shell.bg_jobs_completed,
            bg_jobs_failed: shell.bg_jobs_failed,
            bg_jobs_pending: shell.bg_jobs_pending,
            wal: shell.wal,
            ..self.format.stats.snapshot()
        }
    }

    /// Flushes outstanding data and persists the manifest. The one shell
    /// method repeated here: the benchmark (`perf_ledger`, not editable)
    /// names it by path, `LaserDb::close`, which `Deref` does not serve.
    pub fn close(&self) -> Result<()> {
        self.shell.close()
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
        let mut batch = WriteBatch::new();
        batch.put(key, row.encode(self.num_columns()));
        self.write(&batch)
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
        let mut batch = WriteBatch::new();
        batch.put_partial(key, fragment.encode(self.num_columns()));
        self.write(&batch)
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
        let telemetry = self.telemetry();
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

    /// Probes a [`ReadView`] newest to oldest; the engine's tree lock is not
    /// held across any of it.
    fn read_at_inner(
        &self,
        key: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
        traced: bool,
    ) -> Result<Option<RowFragment>> {
        let stats = &self.format.stats;
        stats.record_point_read();
        let all;
        let needed = if projection.is_empty() {
            all = Projection::all(self.schema());
            &all
        } else {
            projection
        };
        let view = self.read_view();
        let mut acc = Overlay::new(needed, self.num_columns());

        // 1. Memtables, newest first (row-oriented).
        {
            let _memtable_span = traced.then(|| trace::span("memtable_probe")).flatten();
            for memtable in view.memtables() {
                acc.overlay(memtable.get_versions(key, snapshot), true)?;
                if acc.done() {
                    break;
                }
            }
        }

        // 2. Level 0, newest file first (row-oriented full rows).
        if !acc.done() {
            let mut l0_span = traced.then(|| trace::span("l0_probe")).flatten();
            let mut bloom_skips = 0u64;
            for file in view.levels[0].runs[0].files.iter().rev() {
                if !file.table.may_contain(key) {
                    bloom_skips += 1;
                    continue;
                }
                let versions = table_versions(&file.table, key, snapshot)?;
                if !versions.is_empty() {
                    stats.record_point_read_level(0, 1, needed);
                }
                acc.overlay(versions, true)?;
                if acc.done() {
                    break;
                }
            }
            if let Some(span) = l0_span.as_mut() {
                span.annotate("bloom_skips", bloom_skips);
            }
        }

        // 3. Deeper levels: probe only the CGs overlapping the still-needed columns.
        if !acc.done() {
            let mut level_span = traced.then(|| trace::span("level_probe")).flatten();
            let mut total_groups = 0u64;
            let mut bloom_skips = 0u64;
            for level in 1..view.levels.len() {
                let missing = needed.difference(&acc.row.columns());
                if missing.is_empty() {
                    break;
                }
                let layout = self.layout().level(level);
                let mut groups_fetched = 0u64;
                for (cg_idx, group) in layout.groups().iter().enumerate() {
                    if !group.overlaps_projection(&missing) {
                        continue;
                    }
                    // Binary search the run's disjoint files for the key.
                    let Some(file) = view.levels[level].runs[cg_idx].file_for(key) else {
                        continue;
                    };
                    if !file.table.may_contain(key) {
                        bloom_skips += 1;
                        continue;
                    }
                    let versions = table_versions(&file.table, key, snapshot)?;
                    if versions.is_empty() {
                        continue;
                    }
                    groups_fetched += 1;
                    acc.overlay(versions, false)?;
                    if acc.deleted {
                        break;
                    }
                }
                if groups_fetched > 0 {
                    stats.record_point_read_level(level, groups_fetched, needed);
                }
                total_groups += groups_fetched;
                if acc.done() {
                    break;
                }
            }
            if let Some(span) = level_span.as_mut() {
                span.annotate("groups_fetched", total_groups);
                span.annotate("bloom_skips", bloom_skips);
            }
        }

        if acc.row.is_empty() {
            return Ok(None);
        }
        Ok(Some(acc.row.project(needed)))
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
        let telemetry = self.telemetry();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Scan));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        let stats = &self.format.stats;
        stats.record_scan();
        let projection = if projection.is_empty() {
            Projection::all(self.schema())
        } else {
            projection.clone()
        };
        let view = self.read_view();
        let mut lmi = {
            let mut setup_span = traced.then(|| trace::span("merge_setup")).flatten();
            let mut lmi = self.level_merging_iterator(&view, lo, hi, &projection, snapshot);
            lmi.seek(lo)?;
            if let Some(span) = setup_span.as_mut() {
                span.annotate("merge_width", lmi.merge_width() as u64);
            }
            lmi
        };
        let rows = {
            let _drain_span = traced.then(|| trace::span("drain")).flatten();
            lmi.collect_rows()?
        };
        // Attribute scanned entries to levels for the per-level profile: the
        // share of entries scanned at level i is proportional to that level's
        // population, which is what the cost model's s_i denotes.
        let level_entries: Vec<u64> = view
            .levels
            .iter()
            .map(|l| l.files().map(|f| f.meta.num_entries).sum())
            .collect();
        let total_entries: u64 = level_entries.iter().sum();
        for (level, entries) in level_entries.into_iter().enumerate() {
            if entries == 0 {
                continue;
            }
            let Some(share) = (rows.len() as u64 * entries).checked_div(total_entries) else {
                break;
            };
            stats.record_scan_level(level, share, &projection);
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
        view: &ReadView,
        lo: UserKey,
        hi: UserKey,
        projection: &Projection,
        snapshot: SeqNo,
    ) -> LevelMergingIterator {
        let c = self.num_columns();
        let mut sources: Vec<BoxedFragmentSource> = Vec::new();
        for memtable in view.memtables() {
            sources.push(Box::new(RowSource::new(
                Box::new(memtable.iter()),
                c,
                snapshot,
            )));
        }
        for file in view.levels[0].runs[0].files.iter().rev() {
            if file.meta.overlaps(lo, hi) {
                sources.push(Box::new(RowSource::new(
                    Box::new(file.table.iter()),
                    c,
                    snapshot,
                )));
            }
        }
        for level in 1..view.levels.len() {
            let layout = self.layout().level(level);
            let mut children = Vec::new();
            for (cg_idx, group) in layout.groups().iter().enumerate() {
                if !group.overlaps_projection(projection) {
                    continue;
                }
                let tables: Vec<TableHandle> = view.levels[level].runs[cg_idx]
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
        LevelMergingIterator::new(sources, projection.clone(), hi)
    }

    // ------------------------------------------------------------------
    // CG-local compaction (Section 4.4)
    // ------------------------------------------------------------------

    /// Compacts the whole tree down as far as possible (used by experiments
    /// that want a fully-settled tree regardless of capacity thresholds).
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        // The shallowest non-empty run that is not at the last level.
        while self.compact_with(|levels| {
            levels[..levels.len() - 1]
                .iter()
                .enumerate()
                .find_map(|(level, state)| {
                    let cg = state.runs.iter().position(|r| r.size_bytes() > 0)?;
                    Some((level, cg))
                })
        })? {}
        Ok(())
    }

    /// The core of LASER's layout-changing compaction: merges the chosen
    /// column group of `level` into the contained column groups of `level+1`,
    /// re-encoding fragments into the target layout.
    pub fn compact_cg(&self, level: usize, cg_idx: usize) -> Result<()> {
        self.compact_run(level, cg_idx).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-level, per-column-group summary of the on-disk state.
    pub fn level_summaries(&self) -> Vec<LevelSummary> {
        self.read_view()
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
}

/// The accumulator of a point read: overlays newest-first versions from
/// successive sources until the projection is covered or a tombstone ends
/// the descent.
struct Overlay<'a> {
    needed: &'a Projection,
    num_columns: usize,
    row: RowFragment,
    deleted: bool,
    satisfied: bool,
}

impl<'a> Overlay<'a> {
    fn new(needed: &'a Projection, num_columns: usize) -> Self {
        Overlay {
            needed,
            num_columns,
            row: RowFragment::empty(),
            deleted: false,
            satisfied: false,
        }
    }

    fn done(&self) -> bool {
        self.satisfied || self.deleted
    }

    /// Overlays a list of newest-first versions onto the accumulator.
    ///
    /// `full_covers_row` must be true only for row-oriented sources (memtable,
    /// Level-0 SSTs), where a `Full` record carries the complete row and can
    /// terminate the search. In a column-group run a `Full` record only means
    /// the *group's* columns are complete, so it must not stop the descent.
    fn overlay(
        &mut self,
        versions: Vec<(InternalKey, Vec<u8>)>,
        full_covers_row: bool,
    ) -> Result<()> {
        for (ik, value) in versions {
            if ik.kind == ValueKind::Tombstone {
                self.deleted = true;
                break;
            }
            let fragment = RowFragment::decode(&value, self.num_columns)?;
            self.row.fill_missing_from(&fragment.project(self.needed));
            if ik.kind == ValueKind::Full {
                self.satisfied |= full_covers_row;
                break;
            }
        }
        self.satisfied |= self.row.covers(self.needed);
        Ok(())
    }
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

/// The column-group level format: one run per column group of the level's
/// layout, CG-local compaction, and the per-level workload profile.
struct CgFormat {
    options: LaserOptions,
    stats: EngineStats,
}

impl CgFormat {
    fn num_columns(&self) -> usize {
        self.options.schema().num_columns()
    }
}

impl LevelFormat for CgFormat {
    fn groups(&self, level: usize) -> usize {
        self.options.layout.level(level).num_groups()
    }

    /// The most overflowing column group in the most overflowing level.
    fn pick_compaction(&self, levels: &[Level], background: bool) -> Option<(usize, usize)> {
        let level = most_overflowing_level(
            levels,
            |level| self.options.level_capacity_bytes(level),
            background.then_some(self.options.l0_slowdown_files),
        )?;
        // Most overflowing CG within that level (capacity divided
        // proportionally across the CGs).
        let mut best_cg: Option<(usize, f64)> = None;
        for (cg_idx, run) in levels[level].runs.iter().enumerate() {
            let capacity = self.options.cg_capacity_bytes(level, cg_idx).max(1);
            let score = run.size_bytes() as f64 / capacity as f64;
            if run.size_bytes() > 0 && best_cg.is_none_or(|(_, s)| score > s) {
                best_cg = Some((cg_idx, score));
            }
        }
        best_cg.map(|(cg, _)| (level, cg))
    }

    /// Merges the whole run `(level, cg_idx)` into every column group of
    /// `level + 1` that shares columns with it, re-encoding fragments into
    /// the target layout.
    fn merge(
        &self,
        level: usize,
        cg_idx: usize,
        levels: &[Level],
        sink: &mut CompactionSink<'_>,
    ) -> Result<Vec<LevelFile>> {
        let target_level = level + 1;
        let c = self.num_columns();
        let mut consumed: Vec<LevelFile> = levels[level].runs[cg_idx].files.clone();
        if consumed.is_empty() {
            return Ok(consumed);
        }
        let source_group = &self.options.layout.level(level).groups()[cg_idx];
        // Target CGs: those sharing columns with the source CG. Under the
        // containment assumption they are subsets of the source CG.
        let target_layout = self.options.layout.level(target_level);
        let target_cgs = target_layout
            .groups()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.overlaps(source_group));

        // Materialise the deduplicated source entries: newest version of every
        // key in the source CG, with partial rows merged (Section 4.2).
        let mut sources: Vec<RowSource> = consumed
            .iter()
            .rev()
            .map(|f| RowSource::new(Box::new(f.table.iter()), c, MAX_SEQNO))
            .collect();
        for source in &mut sources {
            source.seek(0)?;
        }
        let mut source_entries: Vec<(UserKey, Merged)> = Vec::new();
        while let Some(key) = sources.iter().filter_map(|s| s.current_key()).min() {
            // Newest source first; most keys live in exactly one source.
            let mut versions = Vec::new();
            for source in &mut sources {
                if source.current_key() == Some(key) {
                    let taken = source.take_versions()?;
                    if versions.is_empty() {
                        versions = taken;
                    } else {
                        versions.extend(taken);
                    }
                }
            }
            if let Some(mut merged) = merge_versions(&versions) {
                merged.fragment = merged.fragment.restrict(source_group.columns());
                source_entries.push((key, merged));
            }
        }

        for (target_cg_idx, target_group) in target_cgs {
            let target_cols = target_group.columns();
            // Existing entries of the target CG run (older than the inputs).
            let existing_files = &levels[target_level].runs[target_cg_idx].files;
            let existing_tables: Vec<TableHandle> =
                existing_files.iter().map(|f| f.table.clone()).collect();
            let mut existing =
                RowSource::new(Box::new(ConcatIterator::new(existing_tables)), c, MAX_SEQNO);
            existing.seek(0)?;

            let mut push_entry = |key: UserKey, entry: &Merged| -> Result<()> {
                if entry.kind == ValueKind::Tombstone {
                    let tombstone = InternalKey::new(key, entry.seq, ValueKind::Tombstone);
                    return sink.add(target_cg_idx, tombstone, Vec::new());
                }
                let restricted = entry.fragment.restrict(target_cols);
                if restricted.is_empty() {
                    return Ok(());
                }
                let kind = if restricted.len() == target_cols.len() {
                    ValueKind::Full
                } else {
                    ValueKind::Partial
                };
                sink.add(
                    target_cg_idx,
                    InternalKey::new(key, entry.seq, kind),
                    restricted.encode(c),
                )
            };

            // Merge source entries (newer) with the existing run (older).
            let mut source_iter = source_entries.iter().peekable();
            loop {
                let source_key = source_iter.peek().map(|(key, _)| *key);
                let existing_key = existing.current_key();
                let key = match (source_key, existing_key) {
                    (None, None) => break,
                    (Some(s), Some(e)) => s.min(e),
                    (Some(key), None) | (None, Some(key)) => key,
                };
                let older = if existing_key == Some(key) {
                    merge_versions(&existing.take_versions()?)
                } else {
                    None
                };
                let newer = if source_key == Some(key) {
                    source_iter.next().map(|(_, merged)| merged)
                } else {
                    None
                };
                match (newer, &older) {
                    // Same key in both: the source (upper level) is newer.
                    // Below a newer tombstone nothing older survives; above
                    // an older tombstone only the newer columns do.
                    (Some(newer), Some(older))
                        if newer.kind != ValueKind::Tombstone
                            && older.kind != ValueKind::Tombstone =>
                    {
                        let merged = Merged {
                            seq: newer.seq,
                            kind: ValueKind::Full,
                            fragment: newer.fragment.merge_over(&older.fragment),
                        };
                        push_entry(key, &merged)?;
                    }
                    (Some(newer), _) => push_entry(key, newer)?,
                    (None, Some(older)) => push_entry(key, older)?,
                    (None, None) => {}
                }
            }
            consumed.extend(existing_files.iter().cloned());
        }
        Ok(consumed)
    }

    /// Counts the batch's operations and feeds the per-level update-column
    /// profile, decoding each partial fragment to recover which columns it
    /// touches.
    fn record_commit(&self, batch: &WriteBatch) {
        for entry in batch.iter() {
            match entry.kind {
                ValueKind::Full => self.stats.record_insert(),
                ValueKind::Partial => {
                    self.stats.record_update();
                    if let Ok(fragment) = RowFragment::decode(&entry.value, self.num_columns()) {
                        self.stats.record_update_level(0, &fragment.columns());
                    }
                }
                ValueKind::Tombstone => self.stats.record_delete(),
            }
        }
    }
}

/// One key's versions collapsed into a single record.
struct Merged {
    seq: SeqNo,
    kind: ValueKind,
    fragment: RowFragment,
}

/// Collapses a newest-first version list of one key into a single merged
/// record: partial rows are overlaid until a full row or a tombstone ends the
/// list. The record carries the newest version's sequence number.
fn merge_versions(versions: &[FragmentVersion]) -> Option<Merged> {
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
    Some(Merged {
        seq: first.seq,
        kind,
        fragment: acc,
    })
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
