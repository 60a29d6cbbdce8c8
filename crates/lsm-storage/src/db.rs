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
//! [`LsmDb`] is the single-column-group case of the Real-Time LSM-Tree: the
//! [`EngineShell`] with one run per level. Everything that is not a level
//! layout — WAL, memtables, flush, manifest, maintenance, degradation,
//! replication hooks, trim — is the shell's and reached through `Deref`;
//! this file holds the row [`LevelFormat`] (whole-file leveled compaction)
//! and the typed read API.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use telemetry::trace::{self, TraceKind};

use crate::cache::ScopedCache;
use crate::error::{Error, Result};
use crate::iterator::{
    BoxedIterator, LevelConcatIterator, MergingIterator, NaiveMergingIterator, RangeIterator,
};
use crate::maintenance::{BackpressureConfig, JobKind};
use crate::options::{CompactionPriority, LsmOptions};
use crate::shell::{
    most_overflowing_level, CompactionSink, EngineShell, Level, LevelFile, LevelFormat, ShellConfig,
};
use crate::sst::TableHandle;
use crate::storage::StorageRef;
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteBatch, MAX_SEQNO};

/// A plain key-value LSM-Tree database.
pub struct LsmDb {
    shell: Arc<EngineShell>,
    format: Arc<RowFormat>,
    /// Point reads answered per level (index = level; memtable hits count
    /// as level 0, the level they would flush into). Feeds the advisor's
    /// per-level workload attribution.
    level_reads: Vec<AtomicU64>,
}

impl Deref for LsmDb {
    type Target = Arc<EngineShell>;

    fn deref(&self) -> &Arc<EngineShell> {
        &self.shell
    }
}

impl LsmDb {
    /// Opens (or creates) a database on `storage`, recovering any previous
    /// state from the manifest and WAL. A private block cache is created per
    /// the `block_cache_bytes` option; use [`LsmDb::open_with_cache`] to
    /// share one process-wide cache across engines instead.
    pub fn open(storage: StorageRef, options: LsmOptions) -> Result<Self> {
        let cache = EngineShell::private_cache(options.block_cache_bytes);
        Self::open_with_cache(storage, options, cache)
    }

    /// Opens (or creates) a database on `storage`, serving block reads
    /// through the given cache view instead of a private per-engine cache
    /// (`block_cache_bytes` is ignored). A sharded deployment passes every
    /// shard a differently-scoped view of one process-wide
    /// [`BlockCache`](crate::BlockCache) so the global byte budget and
    /// per-shard accounting are shared.
    pub fn open_with_cache(
        storage: StorageRef,
        options: LsmOptions,
        cache: Option<ScopedCache>,
    ) -> Result<Self> {
        options.validate()?;
        let config = ShellConfig {
            label: "lsm",
            compaction_kind: JobKind::Compaction,
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
        let level_reads = (0..options.num_levels).map(|_| AtomicU64::new(0)).collect();
        let format = Arc::new(RowFormat { options });
        let shell = EngineShell::open(storage, config, Arc::clone(&format) as _, cache)?;
        Ok(LsmDb {
            shell,
            format,
            level_reads,
        })
    }

    /// Opens a database backed by a fresh in-memory storage (for tests).
    pub fn open_in_memory(options: LsmOptions) -> Result<Self> {
        Self::open(crate::storage::MemStorage::new_ref(), options)
    }

    /// The configured options.
    pub fn options(&self) -> &LsmOptions {
        &self.format.options
    }

    /// Inserts a single key/value pair.
    pub fn put(&self, key: UserKey, value: Vec<u8>) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
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
    /// The engine's tree lock is held only to snapshot the memtables and
    /// file lists ([`EngineShell::read_view`]); every probe runs with it
    /// released, so a cold read never stalls writers. Files whose manifest
    /// key range excludes `key` are pruned before their table (or bloom
    /// filter) is touched — on Level-0 this skips most files outright, and
    /// on deeper levels at most one file survives the binary search.
    pub fn get_at(&self, key: UserKey, snapshot_seq: SeqNo) -> Result<Option<Vec<u8>>> {
        let telemetry = self.telemetry();
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
        let view = self.read_view();
        {
            let _memtable_span = traced.then(|| trace::span("memtable_probe")).flatten();
            for memtable in view.memtables() {
                if let Some((ik, value)) = memtable.get(key, snapshot_seq) {
                    self.record_level_read(0);
                    return Ok(filter_tombstone(ik, value));
                }
            }
        }
        // Memtable miss: the Level-0 candidates newest first (range-pruned
        // via metadata, which may be narrower than the file contents for
        // SSTs adopted from a pre-split parent shard), then at most one
        // candidate per deeper level.
        let level0 = view.levels[0].runs[0]
            .files
            .iter()
            .rev()
            .filter(|f| f.meta.min_user_key <= key && key <= f.meta.max_user_key)
            .map(|f| (0, f));
        let deeper = view
            .levels
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(level, state)| state.runs[0].file_for(key).map(|f| (level, f)));
        let candidates: Vec<(usize, &LevelFile)> = level0.chain(deeper).collect();
        let mut sst_span = traced.then(|| trace::span("sst_probe")).flatten();
        if let Some(span) = &mut sst_span {
            span.annotate("candidates", candidates.len());
        }
        for (probed, (level, file)) in candidates.iter().enumerate() {
            if let Some((ik, value)) = file.table.get(key, snapshot_seq)? {
                if let Some(span) = &mut sst_span {
                    span.annotate("tables_probed", probed + 1);
                }
                self.record_level_read(*level);
                return Ok(filter_tombstone(ik, value));
            }
        }
        if let Some(span) = &mut sst_span {
            span.annotate("tables_probed", candidates.len());
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
        let telemetry = self.telemetry();
        let start = telemetry.map(|_| Instant::now());
        let op = telemetry.map(|t| t.begin_op(TraceKind::Scan));
        // True both when this op won the sampling decision and when an
        // enclosing router-owned sampled trace is active on this thread
        // (nested case): child spans record into whichever trace owns us.
        let traced = trace::is_active();
        let mut iter = {
            let mut setup_span = traced.then(|| trace::span("merge_setup")).flatten();
            let iter = self.range(lo, hi, snapshot_seq)?;
            if let Some(span) = &mut setup_span {
                span.annotate("merge_width", iter.merge_width());
            }
            iter
        };
        let mut out = Vec::new();
        {
            let _drain_span = traced.then(|| trace::span("drain")).flatten();
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
        let view = self.read_view();
        let mut children: Vec<BoxedIterator> = Vec::new();
        for memtable in view.memtables() {
            children.push(Box::new(memtable.iter()));
        }
        for (level, state) in view.levels.iter().enumerate() {
            push_level_children(level, &state.runs[0].files, Some((lo, hi)), &mut children);
        }
        Ok(MergingIterator::new(children))
    }

    /// The pre-overhaul merge shape: one child per overlapping file, flat,
    /// drained by the linear-scan [`NaiveMergingIterator`]. Kept as the
    /// executable reference the property tests and the `read_path` bench
    /// compare the tournament stack against; not used by any read path.
    pub fn naive_range_iterator(&self, lo: UserKey, hi: UserKey) -> Result<NaiveMergingIterator> {
        let view = self.read_view();
        let mut children: Vec<BoxedIterator> = Vec::new();
        for memtable in view.memtables() {
            children.push(Box::new(memtable.iter()));
        }
        for level in view.levels.iter() {
            for file in level.runs[0].files.iter().rev() {
                if file.meta.overlaps(lo, hi) {
                    children.push(Box::new(file.table.iter()));
                }
            }
        }
        Ok(NaiveMergingIterator::new(children))
    }

    /// Iterates every entry (all versions) currently stored in `level`.
    /// Used by experiments that inspect how data ages through the tree.
    pub fn iter_level(&self, level: usize) -> Result<MergingIterator> {
        let view = self.read_view();
        let state = view
            .levels
            .get(level)
            .ok_or_else(|| Error::invalid(format!("level {level} out of range")))?;
        let mut children: Vec<BoxedIterator> = Vec::new();
        push_level_children(level, &state.runs[0].files, None, &mut children);
        Ok(MergingIterator::new(children))
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

/// The row level format: one column group per level, whole-file leveled
/// compaction with a configurable picking priority.
struct RowFormat {
    options: LsmOptions,
}

impl RowFormat {
    /// Picks which files of `level` should be compacted, honouring the
    /// configured [`CompactionPriority`].
    fn pick_input_files(&self, level: usize, files: &[LevelFile]) -> Vec<LevelFile> {
        if level == 0 {
            // Level-0 files overlap; compact all of them together.
            return files.to_vec();
        }
        let chosen = match self.options.compaction_priority {
            CompactionPriority::ByCompensatedSize => files.iter().max_by_key(|f| f.meta.file_size),
            CompactionPriority::OldestSmallestSeqFirst => {
                files.iter().min_by_key(|f| f.meta.min_seq)
            }
        };
        chosen.cloned().into_iter().collect()
    }
}

impl LevelFormat for RowFormat {
    fn groups(&self, _level: usize) -> usize {
        1
    }

    fn pick_compaction(&self, levels: &[Level], background: bool) -> Option<(usize, usize)> {
        most_overflowing_level(
            levels,
            |level| self.options.level_capacity_bytes(level),
            background.then_some(self.options.l0_slowdown_files),
        )
        .map(|level| (level, 0))
    }

    /// Compacts the picked files of `level` into `level + 1`.
    fn merge(
        &self,
        level: usize,
        _group: usize,
        levels: &[Level],
        sink: &mut CompactionSink<'_>,
    ) -> Result<Vec<LevelFile>> {
        let inputs = self.pick_input_files(level, &levels[level].runs[0].files);
        if inputs.is_empty() {
            return Ok(inputs);
        }
        let lo = inputs
            .iter()
            .map(|f| f.meta.min_user_key)
            .min()
            .unwrap_or(0);
        let hi = inputs
            .iter()
            .map(|f| f.meta.max_user_key)
            .max()
            .unwrap_or(0);
        let overlaps: Vec<LevelFile> = levels[level + 1].runs[0]
            .files
            .iter()
            .filter(|f| f.meta.overlaps(lo, hi))
            .cloned()
            .collect();

        // Merge: newer sources first so ties resolve toward fresher versions.
        // The input files may overlap (Level-0) and become one child each;
        // the target level's overlapping files are disjoint and concatenate
        // into a single lazy child.
        let mut children: Vec<BoxedIterator> = Vec::new();
        for f in inputs.iter().rev() {
            children.push(Box::new(f.table.iter()));
        }
        push_level_children(level + 1, &overlaps, None, &mut children);
        // Drain the streaming iterator: it yields exactly the newest version
        // of each user key (everything is visible at MAX_SEQNO).
        let mut stream =
            RangeIterator::new(MergingIterator::new(children), 0, UserKey::MAX, MAX_SEQNO)?;
        while stream.next_visible()? {
            sink.add(
                0,
                InternalKey::decode(stream.key())?,
                stream.value().to_vec(),
            )?;
        }
        Ok(inputs.into_iter().chain(overlaps).collect())
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
            let view = db.read_view();
            let files = &view.levels[1].runs[0].files;
            if files.len() < 2 {
                // Not enough structure to differentiate priorities; acceptable
                // for the small sizes, skip assertion.
                continue;
            }
            let chosen = db.format.pick_input_files(1, files);
            assert_eq!(chosen.len(), 1);
            let chosen_meta = &chosen[0].meta;
            let oldest = files.iter().map(|f| f.meta.min_seq).min().unwrap();
            let biggest = files.iter().map(|f| f.meta.file_size).max().unwrap();
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
}
