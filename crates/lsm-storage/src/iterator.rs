//! Iterator abstractions: the [`KvIterator`] trait implemented by memtables,
//! SSTs and merging iterators, plus the k-way merge stack used for range
//! queries and compaction.
//!
//! The paper's `LevelMergingIterator` (Section 4.4) is built from this
//! generic k-way merge: each child iterates one level's sorted run(s) and the
//! merge emits entries in internal-key order, so all versions of a user key
//! appear consecutively, newest first.
//!
//! The merge stack has three layers:
//!
//! * [`MergingIterator`] — a tournament-tree (binary min-heap) k-way merge:
//!   `next()` costs O(log k) key comparisons instead of the O(k) re-scan of
//!   the naive merge, which matters because every scanned *and* compacted
//!   entry drains through this loop.
//! * [`LevelConcatIterator`] — walks the sorted, non-overlapping SSTs of one
//!   deep level as a single child, opening each table's iterator lazily only
//!   when the cursor crosses into it. This collapses a level's contribution
//!   to the merge width from "number of overlapping files" to exactly 1, and
//!   a seek touches exactly one file per level.
//! * [`RangeIterator`] — a streaming visibility filter over the merge:
//!   newest-visible-version per user key at a snapshot, exposing tombstones
//!   to the caller (scans skip them, compactions keep them until the last
//!   level). It never decodes an [`InternalKey`]
//!   per entry — the user-key, sequence and kind fields live at fixed
//!   offsets of the 17-byte encoding and are compared as raw slices.
//!
//! [`NaiveMergingIterator`] preserves the pre-tournament linear-scan merge as
//! an executable reference: property tests assert the heap produces
//! byte-identical output, and the `read_path` bench measures the gap.

use std::cmp::Ordering;

use crate::error::Result;
use crate::sst::{TableHandle, TableIterator};
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, INTERNAL_KEY_LEN};

/// A cursor over `(encoded internal key, value)` pairs in ascending key order.
pub trait KvIterator {
    /// Positions the iterator at the first entry.
    fn seek_to_first(&mut self) -> Result<()>;
    /// Positions the iterator at the first entry with key >= `target`.
    fn seek(&mut self, target: &[u8]) -> Result<()>;
    /// Advances to the next entry.
    fn next(&mut self) -> Result<()>;
    /// Returns true while positioned on a valid entry.
    fn valid(&self) -> bool;
    /// Current key (encoded internal key). Only valid while `valid()`.
    fn key(&self) -> &[u8];
    /// Current value. Only valid while `valid()`.
    fn value(&self) -> &[u8];
}

/// Boxed iterator alias used when composing heterogeneous children.
pub type BoxedIterator = Box<dyn KvIterator + Send>;

/// An iterator over an in-memory vector of `(key, value)` pairs.
///
/// Used for tests, for iterating immutable memtable snapshots, and as a
/// building block in higher layers.
#[derive(Debug, Clone, Default)]
pub struct VecIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    valid: bool,
}

impl VecIterator {
    /// Creates an iterator over `entries`, which must already be sorted by key.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted and unique"
        );
        VecIterator {
            entries,
            pos: 0,
            valid: false,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl KvIterator for VecIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        self.pos = 0;
        self.valid = !self.entries.is_empty();
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.pos = self.entries.partition_point(|(k, _)| k.as_slice() < target);
        self.valid = self.pos < self.entries.len();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        if self.valid {
            self.pos += 1;
            self.valid = self.pos < self.entries.len();
        }
        Ok(())
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

/// K-way merging iterator backed by a tournament tree (binary min-heap).
///
/// Children are assigned priorities by their position: when two children are
/// positioned on equal keys, the child with the lower index wins and the other
/// children are *not* skipped (duplicate keys are emitted). Callers that need
/// newest-version-wins semantics order children from newest to oldest and
/// de-duplicate by user key while draining (see [`RangeIterator`]).
///
/// `seek`/`seek_to_first` cost O(k) to rebuild the heap; `next()` costs
/// O(log k) — the winning child advances and sifts back into place without
/// re-examining the other k-1 children.
pub struct MergingIterator {
    children: Vec<BoxedIterator>,
    /// Min-heap of indices into `children`, ordered by (current key, index).
    /// Only valid (positioned) children appear; the root is the current entry.
    heap: Vec<usize>,
}

/// True if child `a` orders strictly before child `b`: smaller key first,
/// ties broken toward the lower (newer) index.
fn child_less(children: &[BoxedIterator], a: usize, b: usize) -> bool {
    match children[a].key().cmp(children[b].key()) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a < b,
    }
}

impl MergingIterator {
    /// Creates a merging iterator over `children`. Order matters: earlier
    /// children win ties, so put newer sources first.
    pub fn new(children: Vec<BoxedIterator>) -> Self {
        MergingIterator {
            heap: Vec::with_capacity(children.len()),
            children,
        }
    }

    /// Number of child iterators.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < self.heap.len()
                && child_less(&self.children, self.heap[right], self.heap[left])
            {
                smallest = right;
            }
            if child_less(&self.children, self.heap[smallest], self.heap[pos]) {
                self.heap.swap(pos, smallest);
                pos = smallest;
            } else {
                break;
            }
        }
    }

    /// Rebuilds the heap from the children's current positions (after a seek).
    fn rebuild_heap(&mut self) {
        self.heap.clear();
        for (i, child) in self.children.iter().enumerate() {
            if child.valid() {
                self.heap.push(i);
            }
        }
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }
}

impl KvIterator for MergingIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        for child in &mut self.children {
            child.seek_to_first()?;
        }
        self.rebuild_heap();
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        for child in &mut self.children {
            child.seek(target)?;
        }
        self.rebuild_heap();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        let Some(&top) = self.heap.first() else {
            return Ok(());
        };
        self.children[top].next()?;
        if self.children[top].valid() {
            self.sift_down(0);
        } else {
            let last = self.heap.pop().expect("heap non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
        }
        Ok(())
    }

    fn valid(&self) -> bool {
        !self.heap.is_empty()
    }

    fn key(&self) -> &[u8] {
        self.children[*self.heap.first().expect("iterator not valid")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[*self.heap.first().expect("iterator not valid")].value()
    }
}

/// The pre-tournament k-way merge: `next()` re-scans all k children with full
/// key comparisons. Kept as an executable reference implementation — property
/// tests assert [`MergingIterator`] produces byte-identical output, and the
/// `read_path` bench quantifies the O(k) vs O(log k) gap. Not used on any
/// production path.
pub struct NaiveMergingIterator {
    children: Vec<BoxedIterator>,
    /// Index of the child currently holding the smallest key, or `None`.
    current: Option<usize>,
}

impl NaiveMergingIterator {
    /// Creates a naive merging iterator over `children` (earlier children win
    /// ties, exactly like [`MergingIterator`]).
    pub fn new(children: Vec<BoxedIterator>) -> Self {
        NaiveMergingIterator {
            children,
            current: None,
        }
    }

    /// Number of child iterators.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    fn find_smallest(&mut self) {
        let mut smallest: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            match smallest {
                None => smallest = Some(i),
                Some(s) => {
                    // Strictly smaller wins; ties keep the earlier (newer) child.
                    if child.key() < self.children[s].key() {
                        smallest = Some(i);
                    }
                }
            }
        }
        self.current = smallest;
    }
}

impl KvIterator for NaiveMergingIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        for child in &mut self.children {
            child.seek_to_first()?;
        }
        self.find_smallest();
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        for child in &mut self.children {
            child.seek(target)?;
        }
        self.find_smallest();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        if let Some(cur) = self.current {
            self.children[cur].next()?;
            self.find_smallest();
        }
        Ok(())
    }

    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.expect("iterator not valid")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("iterator not valid")].value()
    }
}

/// The pre-overhaul scan drain over a [`NaiveMergingIterator`]: per-entry
/// `InternalKey` decode, manual per-user-key dedup and tombstone skip. The
/// single executable reference `scan_at` must match byte for byte — shared
/// by the property tests and the `read_path` bench so the two can never
/// drift apart.
pub fn naive_visible_scan(
    iter: &mut NaiveMergingIterator,
    lo: UserKey,
    hi: UserKey,
    snapshot_seq: SeqNo,
) -> Result<Vec<(UserKey, Vec<u8>)>> {
    iter.seek(&InternalKey::seek_to(lo).encode())?;
    let mut out = Vec::new();
    let mut last_emitted: Option<UserKey> = None;
    while iter.valid() {
        let ik = InternalKey::decode(iter.key())?;
        if ik.user_key > hi {
            break;
        }
        if ik.seq <= snapshot_seq && last_emitted != Some(ik.user_key) {
            last_emitted = Some(ik.user_key);
            if ik.kind != ValueKind::Tombstone {
                out.push((ik.user_key, iter.value().to_vec()));
            }
        }
        iter.next()?;
    }
    Ok(out)
}

/// Iterates the sorted, non-overlapping SSTs of one deep level as a single
/// stream, opening each table's iterator lazily only when the cursor crosses
/// into it.
///
/// Used as one merge child per level >= 1, so the merge width of a scan is
/// `memtables + L0 files + number of deep levels` instead of growing with
/// every overlapping file, and a seek binary-searches the file list and
/// touches exactly one table.
pub struct LevelConcatIterator {
    tables: Vec<TableHandle>,
    current: usize,
    iter: Option<TableIterator>,
    valid: bool,
}

impl LevelConcatIterator {
    /// Creates a concatenating iterator; `tables` must be sorted by min key
    /// and non-overlapping (the invariant every level >= 1 maintains).
    pub fn new(tables: Vec<TableHandle>) -> Self {
        debug_assert!(tables
            .windows(2)
            .all(|w| w[0].properties().max_user_key < w[1].properties().min_user_key));
        LevelConcatIterator {
            tables,
            current: 0,
            iter: None,
            valid: false,
        }
    }

    /// Number of SSTs in the level run.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Opens table `idx` (the lazy step: nothing is touched until the scan
    /// actually reaches the file). Returns false past the last table.
    fn open_table(&mut self, idx: usize) -> Result<bool> {
        if idx >= self.tables.len() {
            self.iter = None;
            self.valid = false;
            return Ok(false);
        }
        self.current = idx;
        self.iter = Some(self.tables[idx].iter());
        Ok(true)
    }

    /// Advances to the first non-empty table at or after `idx`.
    fn first_entry_from(&mut self, mut idx: usize) -> Result<()> {
        self.valid = false;
        while self.open_table(idx)? {
            let it = self.iter.as_mut().unwrap();
            it.seek_to_first()?;
            if it.valid() {
                self.valid = true;
                return Ok(());
            }
            idx += 1;
        }
        Ok(())
    }
}

impl KvIterator for LevelConcatIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        self.first_entry_from(0)
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.valid = false;
        let target_user = InternalKey::decode_user_key(target).unwrap_or(0);
        // Binary search for the single file that can contain the target: the
        // first table whose max key >= target user key.
        let mut idx = self
            .tables
            .partition_point(|t| t.properties().max_user_key < target_user);
        while self.open_table(idx)? {
            let it = self.iter.as_mut().unwrap();
            it.seek(target)?;
            if it.valid() {
                self.valid = true;
                return Ok(());
            }
            idx += 1;
        }
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        if !self.valid {
            return Ok(());
        }
        let it = self.iter.as_mut().unwrap();
        it.next()?;
        if it.valid() {
            return Ok(());
        }
        self.first_entry_from(self.current + 1)
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        self.iter.as_ref().expect("iterator not valid").key()
    }

    fn value(&self) -> &[u8] {
        self.iter.as_ref().expect("iterator not valid").value()
    }
}

// ---------------------------------------------------------------------------
// RangeIterator: streaming newest-visible-version scan
// ---------------------------------------------------------------------------

/// Byte offset of the (complemented, big-endian) sequence number within an
/// encoded internal key.
const SEQ_OFFSET: usize = 8;
/// Byte offset of the kind tag within an encoded internal key.
const KIND_OFFSET: usize = 16;

/// A streaming scan over a k-way merge: positions on the newest version of
/// each user key visible at a snapshot, in ascending key order, within an
/// inclusive `[lo, hi]` user-key range.
///
/// Tombstones are *surfaced*, not skipped: `scan` callers drop them (the key
/// is deleted), compactions keep them until the last level. The [`Iterator`]
/// impl is the convenience facade for scans — it yields live
/// `(user key, value)` pairs only.
///
/// The hot loop never decodes an `InternalKey`: the encoding places the
/// big-endian user key at bytes `0..8`, the complemented big-endian sequence
/// number at `8..16` and the kind tag at byte 16, so "same user key",
/// "visible at snapshot" and "is tombstone" are all raw slice comparisons at
/// fixed offsets.
pub struct RangeIterator {
    merge: MergingIterator,
    /// Big-endian `hi` bound: entries whose first 8 key bytes exceed this are
    /// out of range.
    hi_prefix: [u8; 8],
    /// Encoded visibility floor `!snapshot_seq`: an entry is visible iff its
    /// complemented-seq bytes are >= this (i.e. its seq is <= the snapshot).
    seq_floor: [u8; 8],
    /// User-key prefix of the entry most recently emitted (older versions of
    /// the same key are skipped without comparison beyond these 8 bytes).
    last_user_key: Option<[u8; 8]>,
    exhausted: bool,
}

impl RangeIterator {
    /// Creates a streaming scan over `merge` (children newest-to-oldest) for
    /// user keys in `[lo, hi]` visible at `snapshot_seq`, seeking to `lo`.
    pub fn new(
        mut merge: MergingIterator,
        lo: UserKey,
        hi: UserKey,
        snapshot_seq: SeqNo,
    ) -> Result<Self> {
        merge.seek(&InternalKey::seek_to(lo).encode())?;
        Ok(RangeIterator {
            merge,
            hi_prefix: hi.to_be_bytes(),
            seq_floor: (!snapshot_seq).to_be_bytes(),
            last_user_key: None,
            exhausted: false,
        })
    }

    /// Merge width (number of children under the tournament tree).
    pub fn merge_width(&self) -> usize {
        self.merge.num_children()
    }

    /// Advances to the newest visible version of the next user key (including
    /// tombstones). Returns false once the range is exhausted; the accessors
    /// are valid only after a `true` return.
    pub fn next_visible(&mut self) -> Result<bool> {
        if self.exhausted {
            return Ok(false);
        }
        loop {
            if !self.merge.valid() {
                self.exhausted = true;
                return Ok(false);
            }
            let key = self.merge.key();
            debug_assert_eq!(key.len(), INTERNAL_KEY_LEN);
            let prefix = &key[..SEQ_OFFSET];
            if prefix > &self.hi_prefix[..] {
                self.exhausted = true;
                return Ok(false);
            }
            if self
                .last_user_key
                .as_ref()
                .is_some_and(|last| last == prefix)
            {
                // An older version of a key already emitted.
                self.merge.next()?;
                continue;
            }
            if key[SEQ_OFFSET..KIND_OFFSET] < self.seq_floor[..] {
                // Newer than the snapshot: invisible, but an older version of
                // this key may still be visible — don't mark the key emitted.
                self.merge.next()?;
                continue;
            }
            let mut last = [0u8; 8];
            last.copy_from_slice(prefix);
            self.last_user_key = Some(last);
            return Ok(true);
        }
    }

    /// The current entry's encoded internal key.
    pub fn key(&self) -> &[u8] {
        self.merge.key()
    }

    /// The current entry's value (empty for tombstones).
    pub fn value(&self) -> &[u8] {
        self.merge.value()
    }

    /// The current entry's user key (read from the fixed offset, no decode).
    pub fn user_key(&self) -> UserKey {
        let mut k = [0u8; 8];
        k.copy_from_slice(&self.merge.key()[..SEQ_OFFSET]);
        u64::from_be_bytes(k)
    }

    /// The current entry's sequence number.
    pub fn seq(&self) -> SeqNo {
        let mut s = [0u8; 8];
        s.copy_from_slice(&self.merge.key()[SEQ_OFFSET..KIND_OFFSET]);
        !u64::from_be_bytes(s)
    }

    /// True if the current entry is a deletion marker.
    pub fn is_tombstone(&self) -> bool {
        self.merge.key()[KIND_OFFSET] == ValueKind::Tombstone as u8
    }
}

impl Iterator for RangeIterator {
    type Item = Result<(UserKey, Vec<u8>)>;

    /// Streams live `(user key, value)` pairs: tombstoned keys are skipped.
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.next_visible() {
                Err(e) => return Some(Err(e)),
                Ok(false) => return None,
                Ok(true) if self.is_tombstone() => continue,
                Ok(true) => return Some(Ok((self.user_key(), self.value().to_vec()))),
            }
        }
    }
}

/// Drains an iterator into a vector of owned pairs. Convenience for tests and
/// small result sets.
pub fn collect_all(iter: &mut dyn KvIterator) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    iter.seek_to_first()?;
    while iter.valid() {
        out.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::{TableBuilder, TableOptions};
    use crate::storage::{MemStorage, StorageRef};
    use crate::types::{InternalKey, ValueKind, MAX_SEQNO};

    fn enc(key: u64, seq: u64) -> Vec<u8> {
        InternalKey::new(key, seq, ValueKind::Full)
            .encode()
            .to_vec()
    }

    fn vec_iter(pairs: &[(u64, u64, &str)]) -> BoxedIterator {
        let entries = pairs
            .iter()
            .map(|&(k, s, v)| (enc(k, s), v.as_bytes().to_vec()))
            .collect();
        Box::new(VecIterator::new(entries))
    }

    #[test]
    fn vec_iterator_basics() {
        let mut it = VecIterator::new(vec![
            (enc(1, 1), b"a".to_vec()),
            (enc(2, 1), b"b".to_vec()),
            (enc(3, 1), b"c".to_vec()),
        ]);
        assert_eq!(it.len(), 3);
        it.seek_to_first().unwrap();
        assert!(it.valid());
        assert_eq!(it.value(), b"a");
        it.seek(&enc(2, u64::MAX >> 8)).unwrap();
        // seek target has max seq which sorts before seq=1 for the same key
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 2);
        it.seek(&enc(4, 0)).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn empty_vec_iterator() {
        let mut it = VecIterator::new(vec![]);
        assert!(it.is_empty());
        it.seek_to_first().unwrap();
        assert!(!it.valid());
        it.seek(&enc(1, 1)).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn merge_two_sorted_streams() {
        let a = vec_iter(&[(1, 1, "a1"), (3, 1, "a3"), (5, 1, "a5")]);
        let b = vec_iter(&[(2, 1, "b2"), (4, 1, "b4"), (6, 1, "b6")]);
        let mut m = MergingIterator::new(vec![a, b]);
        let all = collect_all(&mut m).unwrap();
        let keys: Vec<u64> = all
            .iter()
            .map(|(k, _)| InternalKey::decode(k).unwrap().user_key)
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_emits_all_versions_newest_first() {
        // Same user key in two children with different sequence numbers: the
        // internal-key ordering puts the newer version first.
        let newer = vec_iter(&[(10, 20, "new")]);
        let older = vec_iter(&[(10, 5, "old")]);
        let mut m = MergingIterator::new(vec![older, newer]);
        let all = collect_all(&mut m).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, b"new");
        assert_eq!(all[1].1, b"old");
    }

    #[test]
    fn merge_with_empty_children() {
        let a = vec_iter(&[]);
        let b = vec_iter(&[(1, 1, "x")]);
        let c = vec_iter(&[]);
        let mut m = MergingIterator::new(vec![a, b, c]);
        assert_eq!(m.num_children(), 3);
        let all = collect_all(&mut m).unwrap();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn merge_seek_positions_all_children() {
        let a = vec_iter(&[(1, 1, "a"), (10, 1, "a10")]);
        let b = vec_iter(&[(5, 1, "b5"), (15, 1, "b15")]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek(&enc(6, u64::MAX >> 8)).unwrap();
        let mut seen = Vec::new();
        while m.valid() {
            seen.push(InternalKey::decode(m.key()).unwrap().user_key);
            m.next().unwrap();
        }
        assert_eq!(seen, vec![10, 15]);
    }

    #[test]
    fn merge_of_nothing_is_invalid() {
        let mut m = MergingIterator::new(vec![]);
        m.seek_to_first().unwrap();
        assert!(!m.valid());
    }

    #[test]
    fn merge_is_stable_for_identical_keys() {
        // Two children with byte-identical keys: the earlier child wins first.
        let a = vec_iter(&[(7, 3, "first")]);
        let b = vec_iter(&[(7, 3, "second")]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek_to_first().unwrap();
        assert_eq!(m.value(), b"first");
        m.next().unwrap();
        assert_eq!(m.value(), b"second");
        m.next().unwrap();
        assert!(!m.valid());
    }

    #[test]
    fn heap_merge_matches_naive_on_interleaved_runs() {
        // Many children with interleaved, duplicated and tied keys: the heap
        // must emit the exact byte sequence of the linear-scan reference.
        let make = || {
            vec![
                vec_iter(&[(1, 9, "a"), (4, 9, "b"), (7, 9, "c"), (9, 1, "d")]),
                vec_iter(&[(1, 9, "A"), (2, 5, "B"), (7, 9, "C")]),
                vec_iter(&[]),
                vec_iter(&[(3, 3, "x"), (4, 12, "y"), (4, 2, "z"), (11, 1, "w")]),
                vec_iter(&[(1, 9, "α"), (12, 4, "β")]),
            ]
        };
        let heap = collect_all(&mut MergingIterator::new(make())).unwrap();
        let naive = collect_all(&mut NaiveMergingIterator::new(make())).unwrap();
        assert_eq!(heap, naive);
        // And after an arbitrary seek.
        let mut h = MergingIterator::new(make());
        let mut n = NaiveMergingIterator::new(make());
        h.seek(&enc(4, MAX_SEQNO)).unwrap();
        n.seek(&enc(4, MAX_SEQNO)).unwrap();
        while n.valid() {
            assert!(h.valid());
            assert_eq!((h.key(), h.value()), (n.key(), n.value()));
            h.next().unwrap();
            n.next().unwrap();
        }
        assert!(!h.valid());
    }

    fn build_tables(runs: &[&[(u64, u64)]]) -> (StorageRef, Vec<TableHandle>) {
        let storage: StorageRef = MemStorage::new_ref();
        let mut tables = Vec::new();
        for (idx, run) in runs.iter().enumerate() {
            let name = format!("{idx}.sst");
            let mut b = TableBuilder::new(storage.create(&name).unwrap(), TableOptions::default());
            for &(key, seq) in run.iter() {
                b.add(
                    &InternalKey::new(key, seq, ValueKind::Full).encode(),
                    format!("v{key}-{seq}").as_bytes(),
                )
                .unwrap();
            }
            b.finish().unwrap();
            tables.push(TableHandle::open(&storage, &name).unwrap());
        }
        (storage, tables)
    }

    #[test]
    fn level_concat_walks_disjoint_tables_in_order() {
        let (_s, tables) = build_tables(&[
            &[(1, 1), (2, 1), (5, 1)],
            &[(10, 2), (11, 1)],
            &[(20, 1), (25, 3), (25, 1)],
        ]);
        let mut it = LevelConcatIterator::new(tables);
        assert_eq!(it.num_tables(), 3);
        let all = collect_all(&mut it).unwrap();
        let keys: Vec<(u64, u64)> = all
            .iter()
            .map(|(k, _)| {
                let ik = InternalKey::decode(k).unwrap();
                (ik.user_key, ik.seq)
            })
            .collect();
        assert_eq!(
            keys,
            vec![
                (1, 1),
                (2, 1),
                (5, 1),
                (10, 2),
                (11, 1),
                (20, 1),
                (25, 3),
                (25, 1)
            ]
        );
    }

    #[test]
    fn level_concat_seek_lands_in_the_right_table() {
        let (_s, tables) = build_tables(&[&[(1, 1), (5, 1)], &[(10, 1), (15, 1)], &[(20, 1)]]);
        let mut it = LevelConcatIterator::new(tables);
        // Into the middle table.
        it.seek(&InternalKey::seek_to(12).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 15);
        // Into a gap between tables: first key of the next table.
        it.seek(&InternalKey::seek_to(7).encode()).unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 10);
        // Before everything.
        it.seek(&InternalKey::seek_to(0).encode()).unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 1);
        // Past everything.
        it.seek(&InternalKey::seek_to(100).encode()).unwrap();
        assert!(!it.valid());
        // Crossing a table boundary with next().
        it.seek(&InternalKey::seek_to(5).encode()).unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 5);
        it.next().unwrap();
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 10);
    }

    #[test]
    fn level_concat_of_nothing_is_invalid() {
        let mut it = LevelConcatIterator::new(Vec::new());
        it.seek_to_first().unwrap();
        assert!(!it.valid());
        it.seek(&InternalKey::seek_to(1).encode()).unwrap();
        assert!(!it.valid());
    }

    fn entry(key: u64, seq: u64, kind: ValueKind, value: &str) -> (Vec<u8>, Vec<u8>) {
        (
            InternalKey::new(key, seq, kind).encode().to_vec(),
            value.as_bytes().to_vec(),
        )
    }

    #[test]
    fn range_iterator_emits_newest_visible_and_surfaces_tombstones() {
        // Newer child shadows the older one; key 3 is deleted.
        let newer = Box::new(VecIterator::new(vec![
            entry(1, 10, ValueKind::Full, "one-new"),
            entry(3, 11, ValueKind::Tombstone, ""),
        ])) as BoxedIterator;
        let older = Box::new(VecIterator::new(vec![
            entry(1, 2, ValueKind::Full, "one-old"),
            entry(2, 3, ValueKind::Full, "two"),
            entry(3, 4, ValueKind::Full, "three"),
        ])) as BoxedIterator;
        let merge = MergingIterator::new(vec![newer, older]);
        let mut it = RangeIterator::new(merge, 0, u64::MAX, MAX_SEQNO).unwrap();
        let mut seen = Vec::new();
        while it.next_visible().unwrap() {
            seen.push((it.user_key(), it.seq(), it.is_tombstone()));
        }
        assert_eq!(seen, vec![(1, 10, false), (2, 3, false), (3, 11, true)]);
    }

    #[test]
    fn range_iterator_respects_snapshot_and_bounds() {
        let child = Box::new(VecIterator::new(vec![
            entry(1, 10, ValueKind::Full, "v10"),
            entry(1, 2, ValueKind::Full, "v2"),
            entry(2, 12, ValueKind::Full, "w12"),
            entry(5, 1, ValueKind::Full, "x1"),
        ])) as BoxedIterator;
        // Snapshot 5: key 1 resolves to seq 2, key 2 is invisible entirely.
        let merge = MergingIterator::new(vec![child]);
        let it = RangeIterator::new(merge, 0, 4, 5).unwrap();
        let rows: Vec<(u64, Vec<u8>)> = it.map(|r| r.unwrap()).collect();
        assert_eq!(rows, vec![(1, b"v2".to_vec())]);
    }

    #[test]
    fn range_iterator_facade_skips_tombstones() {
        let child = Box::new(VecIterator::new(vec![
            entry(1, 5, ValueKind::Full, "a"),
            entry(2, 6, ValueKind::Tombstone, ""),
            entry(3, 7, ValueKind::Full, "c"),
        ])) as BoxedIterator;
        let it =
            RangeIterator::new(MergingIterator::new(vec![child]), 0, u64::MAX, MAX_SEQNO).unwrap();
        let rows: Vec<(u64, Vec<u8>)> = it.map(|r| r.unwrap()).collect();
        assert_eq!(rows, vec![(1, b"a".to_vec()), (3, b"c".to_vec())]);
    }
}
