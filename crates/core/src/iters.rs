//! LASER's merging iterators (Section 4.3–4.4 of the paper).
//!
//! * [`ConcatIterator`] — iterates the non-overlapping SSTs of one sorted run
//!   (one column group at one level) in key order. Since the read-path
//!   overhaul this is the substrate's lazy
//!   [`LevelConcatIterator`](lsm_storage::iterator::LevelConcatIterator)
//!   re-exported: each table is opened only when the cursor crosses into it,
//!   and a seek binary-searches the run and touches exactly one file.
//! * [`ColumnMergingIterator`] — stitches column values from the different
//!   column groups *within one level*: for every user key it combines the
//!   fragments found in each overlapping CG run into a single row fragment.
//! * [`LevelMergingIterator`] — merges entries *across levels* (and the
//!   memtable / Level-0 runs), discarding old column versions: newer sources
//!   are consulted first and only columns not yet seen are filled in from
//!   older sources.
//!
//! All three operate on [`RowFragment`]s keyed by user key, which is the unit
//! the engine's read paths and the CG-local compaction consume.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lsm_storage::iterator::BoxedIterator;
use lsm_storage::types::{InternalKey, SeqNo, UserKey, ValueKind};
use lsm_storage::Result;

/// The non-overlapping-run concatenating iterator, shared with the substrate
/// (one lazily-opened table at a time; see the module docs).
pub use lsm_storage::iterator::LevelConcatIterator as ConcatIterator;

use crate::row::RowFragment;
use crate::schema::Projection;

/// One version of one key produced by a fragment source.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentVersion {
    /// Sequence number of the contributing write (newest of the merged writes).
    pub seq: SeqNo,
    /// Record kind: `Full`, `Partial` or `Tombstone`.
    pub kind: ValueKind,
    /// The column values carried by this version (empty for tombstones).
    pub fragment: RowFragment,
}

/// A stream of `(user key, versions)` pairs in ascending user-key order.
///
/// `versions` are returned newest-first. Implementations include single
/// row-oriented runs (memtable snapshots, Level-0 SSTs) and whole levels
/// stitched across column groups.
pub trait FragmentSource {
    /// Positions the source at the first key `>= target`.
    fn seek(&mut self, target: UserKey) -> Result<()>;
    /// The user key the source is currently positioned on, if any.
    fn current_key(&self) -> Option<UserKey>;
    /// Returns all versions at the current key (newest first) and advances
    /// past that key.
    fn take_versions(&mut self) -> Result<Vec<FragmentVersion>>;
}

/// A boxed fragment source.
pub type BoxedFragmentSource = Box<dyn FragmentSource + Send>;

// ---------------------------------------------------------------------------
// RowSource: a single row-oriented run as a FragmentSource
// ---------------------------------------------------------------------------

/// Adapts a [`KvIterator`] over encoded internal keys / encoded fragments into
/// a [`FragmentSource`]. Used for memtable snapshots and Level-0 SSTs (which
/// store whole rows) as well as individual column-group runs.
pub struct RowSource {
    iter: BoxedIterator,
    schema_columns: usize,
    /// Only versions visible at this snapshot are returned.
    snapshot_seq: SeqNo,
    positioned: bool,
}

impl RowSource {
    /// Wraps `iter`, decoding fragments against a schema of `schema_columns` columns.
    pub fn new(iter: BoxedIterator, schema_columns: usize, snapshot_seq: SeqNo) -> Self {
        RowSource {
            iter,
            schema_columns,
            snapshot_seq,
            positioned: false,
        }
    }

    fn skip_invisible(&mut self) -> Result<()> {
        // Advance past versions newer than the snapshot.
        while self.iter.valid() {
            let ik = InternalKey::decode(self.iter.key())?;
            if ik.seq <= self.snapshot_seq {
                break;
            }
            self.iter.next()?;
        }
        Ok(())
    }
}

impl FragmentSource for RowSource {
    fn seek(&mut self, target: UserKey) -> Result<()> {
        self.iter.seek(&InternalKey::seek_to(target).encode())?;
        self.skip_invisible()?;
        self.positioned = true;
        Ok(())
    }

    fn current_key(&self) -> Option<UserKey> {
        if !self.positioned || !self.iter.valid() {
            return None;
        }
        InternalKey::decode_user_key(self.iter.key()).ok()
    }

    fn take_versions(&mut self) -> Result<Vec<FragmentVersion>> {
        let Some(key) = self.current_key() else {
            return Ok(Vec::new());
        };
        let mut versions = Vec::new();
        while self.iter.valid() {
            let ik = InternalKey::decode(self.iter.key())?;
            if ik.user_key != key {
                break;
            }
            if ik.seq <= self.snapshot_seq {
                let fragment = if ik.kind == ValueKind::Tombstone {
                    RowFragment::empty()
                } else {
                    RowFragment::decode(self.iter.value(), self.schema_columns)?
                };
                versions.push(FragmentVersion {
                    seq: ik.seq,
                    kind: ik.kind,
                    fragment,
                });
            }
            self.iter.next()?;
        }
        self.skip_invisible()?;
        Ok(versions)
    }
}

// ---------------------------------------------------------------------------
// ColumnMergingIterator: stitch CGs within a level
// ---------------------------------------------------------------------------

/// Combines the column-group runs of one level into whole-row fragments.
///
/// Each child iterates one CG run. For every user key, the fragments found in
/// each child are united (their column sets are disjoint by construction);
/// if any child carries a tombstone for the key, the combined version is a
/// tombstone. Within a level there is at most one version per key per CG
/// (Section 4.4), but the implementation tolerates duplicates by letting the
/// newest version of each column win.
///
/// A stitched version is never reported as `Full`: a column group's `Full`
/// record completes that group only, and the children are just the groups of
/// this level that the scan opened, so another group of the row may sit a
/// level deeper. The [`LevelMergingIterator`] therefore stops descending only
/// once the projection is covered, exactly as point reads do.
pub struct ColumnMergingIterator {
    children: Vec<RowSource>,
}

impl ColumnMergingIterator {
    /// Creates the iterator from one [`RowSource`] per column-group run.
    pub fn new(children: Vec<RowSource>) -> Self {
        ColumnMergingIterator { children }
    }

    /// Number of column-group runs being stitched.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }
}

impl FragmentSource for ColumnMergingIterator {
    fn seek(&mut self, target: UserKey) -> Result<()> {
        for child in &mut self.children {
            child.seek(target)?;
        }
        Ok(())
    }

    fn current_key(&self) -> Option<UserKey> {
        self.children.iter().filter_map(|c| c.current_key()).min()
    }

    fn take_versions(&mut self) -> Result<Vec<FragmentVersion>> {
        let Some(key) = self.current_key() else {
            return Ok(Vec::new());
        };
        let mut combined = RowFragment::empty();
        let mut newest_seq = 0;
        let mut any_tombstone = false;
        let mut contributed = false;
        for child in &mut self.children {
            if child.current_key() != Some(key) {
                continue;
            }
            for v in child.take_versions()? {
                newest_seq = newest_seq.max(v.seq);
                contributed = true;
                match v.kind {
                    ValueKind::Tombstone => {
                        any_tombstone = true;
                        // Older values within this child are dead.
                        break;
                    }
                    ValueKind::Full => {
                        combined.fill_missing_from(&v.fragment);
                        break;
                    }
                    ValueKind::Partial => combined.fill_missing_from(&v.fragment),
                }
            }
        }
        if !contributed {
            return Ok(Vec::new());
        }
        let kind = if any_tombstone {
            ValueKind::Tombstone
        } else {
            ValueKind::Partial
        };
        Ok(vec![FragmentVersion {
            seq: newest_seq,
            kind,
            fragment: combined,
        }])
    }
}

// ---------------------------------------------------------------------------
// LevelMergingIterator: merge across levels, newest wins
// ---------------------------------------------------------------------------

/// One stitched row produced by the [`LevelMergingIterator`].
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRow {
    /// The user key.
    pub key: UserKey,
    /// The newest visible values of the projected columns.
    pub fragment: RowFragment,
    /// Sequence number of the newest contributing write.
    pub seq: SeqNo,
}

/// Merges fragment sources across the tree, newest source first.
///
/// `sources` must be ordered newest-to-oldest (mutable memtable, immutable
/// memtables, Level-0 runs newest-first, then level 1, level 2, ...). For each
/// user key the iterator overlays the sources in that order, filling in only
/// columns not yet seen; a `Full` record or a tombstone stops the descent.
/// Keys whose newest record is a tombstone (with no newer partial columns) are
/// skipped.
pub struct LevelMergingIterator {
    sources: Vec<BoxedFragmentSource>,
    projection: Projection,
    /// Upper bound of the scanned key range (inclusive).
    hi: UserKey,
    /// Levels that contributed at least one fragment to the current row, by
    /// source index — used for per-level statistics.
    last_contributors: Vec<usize>,
    /// The merge frontier: `(current key, source index)` per live source, as
    /// a min-heap. Equal keys pop in ascending source index, preserving the
    /// newest-source-first overlay order without a full sweep per row.
    frontier: BinaryHeap<Reverse<(UserKey, usize)>>,
}

impl LevelMergingIterator {
    /// Creates the iterator over `sources` (newest first), returning only the
    /// columns in `projection`, for keys up to `hi` inclusive.
    pub fn new(sources: Vec<BoxedFragmentSource>, projection: Projection, hi: UserKey) -> Self {
        LevelMergingIterator {
            sources,
            projection,
            hi,
            last_contributors: Vec::new(),
            frontier: BinaryHeap::new(),
        }
    }

    /// Positions every source at `lo` and rebuilds the merge frontier.
    pub fn seek(&mut self, lo: UserKey) -> Result<()> {
        self.frontier.clear();
        for (idx, s) in self.sources.iter_mut().enumerate() {
            s.seek(lo)?;
            if let Some(key) = s.current_key() {
                self.frontier.push(Reverse((key, idx)));
            }
        }
        Ok(())
    }

    /// Indices of the sources that contributed to the most recent row.
    pub fn last_contributors(&self) -> &[usize] {
        &self.last_contributors
    }

    /// Number of sources this iterator merges across (the merge width).
    pub fn merge_width(&self) -> usize {
        self.sources.len()
    }

    /// Produces the next stitched row, or `None` when the range is exhausted.
    pub fn next_row(&mut self) -> Result<Option<MergedRow>> {
        loop {
            // Smallest key across live sources: the top of the frontier.
            let Some(&Reverse((key, _))) = self.frontier.peek() else {
                return Ok(None);
            };
            if key > self.hi {
                return Ok(None);
            }
            let mut acc = RowFragment::empty();
            let mut newest_seq = 0;
            let mut deleted = false;
            let mut satisfied = false;
            self.last_contributors.clear();
            while let Some(&Reverse((k, idx))) = self.frontier.peek() {
                if k != key {
                    break;
                }
                self.frontier.pop();
                let source = &mut self.sources[idx];
                // Advances the source past `key`; its next key (strictly
                // greater) rejoins the frontier, so the drain loop below
                // cannot revisit it for this row.
                let versions = source.take_versions()?;
                if let Some(next_key) = source.current_key() {
                    self.frontier.push(Reverse((next_key, idx)));
                }
                if satisfied || deleted {
                    // Source already advanced; just skip the data.
                    continue;
                }
                let mut contributed = false;
                for v in versions {
                    newest_seq = newest_seq.max(v.seq);
                    match v.kind {
                        ValueKind::Tombstone => {
                            deleted = true;
                            break;
                        }
                        ValueKind::Full => {
                            acc.fill_missing_from(&v.fragment.project(&self.projection));
                            contributed = true;
                            satisfied = true;
                            break;
                        }
                        ValueKind::Partial => {
                            acc.fill_missing_from(&v.fragment.project(&self.projection));
                            contributed = true;
                        }
                    }
                }
                if contributed {
                    self.last_contributors.push(idx);
                }
                if acc.covers(&self.projection) {
                    satisfied = true;
                }
            }
            if deleted && acc.is_empty() {
                // The key's newest record is a delete: skip it entirely.
                continue;
            }
            if acc.is_empty() {
                // Nothing visible for the projection (e.g. all contributing
                // columns outside the projection); skip.
                continue;
            }
            return Ok(Some(MergedRow {
                key,
                fragment: acc,
                seq: newest_seq,
            }));
        }
    }

    /// Drains the iterator into a vector (convenience for scans and tests).
    pub fn collect_rows(&mut self) -> Result<Vec<MergedRow>> {
        let mut out = Vec::new();
        while let Some(row) = self.next_row()? {
            out.push(row);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;
    use lsm_storage::iterator::{KvIterator, VecIterator};
    use lsm_storage::types::MAX_SEQNO;

    const C: usize = 4;

    fn schema() -> Schema {
        Schema::with_columns(C)
    }

    fn frag(cells: &[(usize, i64)]) -> RowFragment {
        RowFragment::from_cells(cells.iter().map(|&(c, v)| (c, Value::Int(v))).collect())
    }

    fn entry(key: u64, seq: u64, kind: ValueKind, f: &RowFragment) -> (Vec<u8>, Vec<u8>) {
        (
            InternalKey::new(key, seq, kind).encode().to_vec(),
            if kind == ValueKind::Tombstone {
                Vec::new()
            } else {
                f.encode(C)
            },
        )
    }

    fn row_source(mut entries: Vec<(Vec<u8>, Vec<u8>)>) -> RowSource {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        RowSource::new(Box::new(VecIterator::new(entries)), C, MAX_SEQNO)
    }

    #[test]
    fn row_source_groups_versions_by_key() {
        let mut src = row_source(vec![
            entry(
                1,
                5,
                ValueKind::Full,
                &frag(&[(0, 1), (1, 2), (2, 3), (3, 4)]),
            ),
            entry(1, 8, ValueKind::Partial, &frag(&[(1, 20)])),
            entry(
                2,
                6,
                ValueKind::Full,
                &frag(&[(0, 9), (1, 9), (2, 9), (3, 9)]),
            ),
        ]);
        src.seek(0).unwrap();
        assert_eq!(src.current_key(), Some(1));
        let versions = src.take_versions().unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].seq, 8, "newest version first");
        assert_eq!(versions[0].kind, ValueKind::Partial);
        assert_eq!(versions[1].kind, ValueKind::Full);
        assert_eq!(src.current_key(), Some(2));
        let versions = src.take_versions().unwrap();
        assert_eq!(versions.len(), 1);
        assert_eq!(src.current_key(), None);
    }

    #[test]
    fn row_source_respects_snapshot() {
        let entries = vec![
            entry(
                1,
                5,
                ValueKind::Full,
                &frag(&[(0, 1), (1, 1), (2, 1), (3, 1)]),
            ),
            entry(
                1,
                9,
                ValueKind::Full,
                &frag(&[(0, 2), (1, 2), (2, 2), (3, 2)]),
            ),
        ];
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut src = RowSource::new(Box::new(VecIterator::new(sorted)), C, 6);
        src.seek(0).unwrap();
        let versions = src.take_versions().unwrap();
        assert_eq!(versions.len(), 1);
        assert_eq!(versions[0].seq, 5, "version 9 is invisible at snapshot 6");
    }

    #[test]
    fn column_merging_iterator_stitches_cgs() {
        // Level with two CG runs: <a1,a2> and <a3,a4>.
        let cg_a = row_source(vec![
            entry(10, 3, ValueKind::Full, &frag(&[(0, 1), (1, 2)])),
            entry(11, 4, ValueKind::Full, &frag(&[(0, 5), (1, 6)])),
        ]);
        let cg_b = row_source(vec![
            entry(10, 3, ValueKind::Full, &frag(&[(2, 3), (3, 4)])),
            // Key 11 has no values in CG <a3,a4> (it arrived as a partial update).
        ]);
        let mut cmi = ColumnMergingIterator::new(vec![cg_a, cg_b]);
        assert_eq!(cmi.num_children(), 2);
        cmi.seek(0).unwrap();
        assert_eq!(cmi.current_key(), Some(10));
        let v = cmi.take_versions().unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].fragment, frag(&[(0, 1), (1, 2), (2, 3), (3, 4)]));
        assert_eq!(
            v[0].kind,
            ValueKind::Partial,
            "a stitched version never ends the descent by kind"
        );
        assert_eq!(cmi.current_key(), Some(11));
        let v = cmi.take_versions().unwrap();
        assert_eq!(v[0].fragment, frag(&[(0, 5), (1, 6)]));
        assert_eq!(cmi.current_key(), None);
    }

    #[test]
    fn column_merging_iterator_propagates_tombstones() {
        let cg_a = row_source(vec![entry(
            10,
            7,
            ValueKind::Tombstone,
            &RowFragment::empty(),
        )]);
        let cg_b = row_source(vec![entry(
            10,
            3,
            ValueKind::Full,
            &frag(&[(2, 3), (3, 4)]),
        )]);
        let mut cmi = ColumnMergingIterator::new(vec![cg_a, cg_b]);
        cmi.seek(0).unwrap();
        let v = cmi.take_versions().unwrap();
        assert_eq!(v[0].kind, ValueKind::Tombstone);
    }

    #[test]
    fn level_merging_iterator_prefers_newer_levels() {
        // Figure 5 style: key 108 has A,B updated in level 0, C,D in level 2.
        let level0 = row_source(vec![entry(
            108,
            50,
            ValueKind::Partial,
            &frag(&[(0, 100), (1, 200)]),
        )]);
        let level2 = row_source(vec![
            entry(
                107,
                10,
                ValueKind::Full,
                &frag(&[(0, 7), (1, 7), (2, 7), (3, 7)]),
            ),
            entry(
                108,
                9,
                ValueKind::Full,
                &frag(&[(0, 1), (1, 2), (2, 3), (3, 4)]),
            ),
        ]);
        let mut lmi = LevelMergingIterator::new(
            vec![Box::new(level0), Box::new(level2)],
            Projection::all(&schema()),
            u64::MAX,
        );
        lmi.seek(50).unwrap();
        let rows = lmi.collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, 107);
        assert_eq!(rows[1].key, 108);
        // Latest values of A,B come from level 0; C,D from level 2.
        assert_eq!(
            rows[1].fragment,
            frag(&[(0, 100), (1, 200), (2, 3), (3, 4)])
        );
        assert_eq!(rows[1].seq, 50);
    }

    #[test]
    fn level_merging_iterator_skips_deleted_keys() {
        let level0 = row_source(vec![entry(
            5,
            20,
            ValueKind::Tombstone,
            &RowFragment::empty(),
        )]);
        let level1 = row_source(vec![entry(
            5,
            3,
            ValueKind::Full,
            &frag(&[(0, 1), (1, 1), (2, 1), (3, 1)]),
        )]);
        let mut lmi = LevelMergingIterator::new(
            vec![Box::new(level0), Box::new(level1)],
            Projection::all(&schema()),
            u64::MAX,
        );
        lmi.seek(0).unwrap();
        assert!(lmi.next_row().unwrap().is_none());
    }

    #[test]
    fn level_merging_iterator_honours_projection_and_range() {
        let level1 = row_source(vec![
            entry(
                1,
                1,
                ValueKind::Full,
                &frag(&[(0, 1), (1, 2), (2, 3), (3, 4)]),
            ),
            entry(
                2,
                2,
                ValueKind::Full,
                &frag(&[(0, 5), (1, 6), (2, 7), (3, 8)]),
            ),
            entry(
                3,
                3,
                ValueKind::Full,
                &frag(&[(0, 9), (1, 10), (2, 11), (3, 12)]),
            ),
        ]);
        let mut lmi = LevelMergingIterator::new(
            vec![Box::new(level1)],
            Projection::of([2]),
            2, // hi bound excludes key 3
        );
        lmi.seek(1).unwrap();
        let rows = lmi.collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].fragment.columns().to_vec(), vec![2]);
        assert_eq!(rows[0].fragment.get(2), Some(&Value::Int(3)));
        assert_eq!(rows[1].fragment.get(2), Some(&Value::Int(7)));
    }

    #[test]
    fn level_merging_iterator_stops_overlay_at_full_record() {
        // Newer full row in level 0 must completely shadow the older row below.
        let level0 = row_source(vec![entry(
            1,
            9,
            ValueKind::Full,
            &frag(&[(0, 90), (1, 90), (2, 90), (3, 90)]),
        )]);
        let level1 = row_source(vec![entry(
            1,
            2,
            ValueKind::Full,
            &frag(&[(0, 1), (1, 1), (2, 1), (3, 1)]),
        )]);
        let mut lmi = LevelMergingIterator::new(
            vec![Box::new(level0), Box::new(level1)],
            Projection::all(&schema()),
            u64::MAX,
        );
        lmi.seek(0).unwrap();
        let row = lmi.next_row().unwrap().unwrap();
        assert_eq!(row.fragment, frag(&[(0, 90), (1, 90), (2, 90), (3, 90)]));
        assert_eq!(lmi.last_contributors(), &[0]);
    }

    #[test]
    fn concat_iterator_over_tables() {
        use lsm_storage::sst::{TableBuilder, TableHandle, TableOptions};
        use lsm_storage::storage::MemStorage;
        let storage: lsm_storage::StorageRef = MemStorage::new_ref();
        let mut handles = Vec::new();
        for (idx, range) in [(0u64, 0..50u64), (1, 50..100), (2, 100..150)] {
            let name = format!("{idx}.sst");
            let mut b = TableBuilder::new(storage.create(&name).unwrap(), TableOptions::default());
            for k in range {
                b.add(
                    &InternalKey::new(k, 1, ValueKind::Full).encode(),
                    &frag(&[(0, k as i64)]).encode(C),
                )
                .unwrap();
            }
            b.finish().unwrap();
            handles.push(TableHandle::open(&storage, &name).unwrap());
        }
        let mut it = ConcatIterator::new(handles);
        it.seek_to_first().unwrap();
        let mut count = 0u64;
        while it.valid() {
            assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, count);
            count += 1;
            it.next().unwrap();
        }
        assert_eq!(count, 150);
        // Seek into the middle table.
        it.seek(&InternalKey::seek_to(75).encode()).unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 75);
        // Seek past the end.
        it.seek(&InternalKey::seek_to(1000).encode()).unwrap();
        assert!(!it.valid());
        // Seek to a boundary.
        it.seek(&InternalKey::seek_to(100).encode()).unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 100);
    }
}
