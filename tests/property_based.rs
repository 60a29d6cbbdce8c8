//! Property-based integration tests: the LASER engine is compared against a
//! simple in-memory model under random operation sequences, core invariants
//! (layout validity, merge semantics) are checked on arbitrary inputs, and
//! the read-path merge stack (tournament-tree merge, lazy per-level concat,
//! streaming visibility filter) is pinned byte-for-byte to the naive
//! reference merge over randomized multi-source traces.

use std::collections::BTreeMap;

use laser::lsm_storage::iterator::{
    collect_all, naive_visible_scan, BoxedIterator, KvIterator, LevelConcatIterator,
    MergingIterator, NaiveMergingIterator, VecIterator,
};
use laser::lsm_storage::sst::{TableBuilder, TableHandle, TableOptions};
use laser::lsm_storage::storage::{MemStorage, StorageRef};
use laser::lsm_storage::types::{InternalKey, UserKey, ValueKind, MAX_SEQNO};
use laser::lsm_storage::wal_segment::{SegmentedWal, WalSegmentMeta, WalSyncPolicy};
use laser::lsm_storage::{BlockCache, LsmDb, LsmOptions, ScopedCache, SeqNo, WriteBatch};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema, Value};
use proptest::prelude::*;

const COLS: usize = 6;

#[derive(Debug, Clone)]
enum ModelOp {
    Insert { key: u8, base: i8 },
    Update { key: u8, col: u8, value: i8 },
    Delete { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (any::<u8>(), any::<i8>()).prop_map(|(key, base)| ModelOp::Insert { key, base }),
        (any::<u8>(), 0u8..COLS as u8, any::<i8>()).prop_map(|(key, col, value)| ModelOp::Update {
            key,
            col,
            value
        }),
        any::<u8>().prop_map(|key| ModelOp::Delete { key }),
    ]
}

/// The reference model: a map from key to the latest value of each column
/// (None = column never written since the last full insert/delete).
type Model = BTreeMap<u64, Vec<Option<i64>>>;

fn apply_model(model: &mut Model, op: &ModelOp) {
    match op {
        ModelOp::Insert { key, base } => {
            let row: Vec<Option<i64>> = (0..COLS)
                .map(|c| Some(*base as i64 + c as i64 + 1))
                .collect();
            model.insert(*key as u64, row);
        }
        ModelOp::Update { key, col, value } => {
            let entry = model.entry(*key as u64).or_insert_with(|| vec![None; COLS]);
            entry[*col as usize] = Some(*value as i64);
        }
        ModelOp::Delete { key } => {
            model.remove(&(*key as u64));
        }
    }
}

fn apply_db(db: &LaserDb, op: &ModelOp) {
    match op {
        ModelOp::Insert { key, base } => db.insert_int_row(*key as u64, *base as i64).unwrap(),
        ModelOp::Update { key, col, value } => db
            .update(
                *key as u64,
                vec![(*col as usize, Value::Int(*value as i64))],
            )
            .unwrap(),
        ModelOp::Delete { key } => db.delete(*key as u64).unwrap(),
    }
}

fn check_equivalence(db: &LaserDb, model: &Model) {
    // Full-table scan with full projection matches the model exactly.
    let schema = Schema::with_columns(COLS);
    let rows = db
        .scan(0, u64::from(u8::MAX), &Projection::all(&schema))
        .unwrap();
    let from_db: BTreeMap<u64, Vec<Option<i64>>> = rows
        .into_iter()
        .map(|(k, frag)| {
            (
                k,
                (0..COLS)
                    .map(|c| frag.get(c).and_then(|v| v.as_int()))
                    .collect(),
            )
        })
        .collect();
    assert_eq!(&from_db, model, "scan diverges from the model");
    // Spot-check point reads with a narrow projection.
    for (key, expected) in model.iter().take(16) {
        let got = db.read(*key, &Projection::of([2])).unwrap();
        match (&got, expected[2]) {
            (Some(frag), Some(v)) => assert_eq!(frag.get(2), Some(&Value::Int(v))),
            (Some(frag), None) => assert_eq!(frag.get(2), None),
            (None, expected_col) => {
                // A projection-restricted read returns None when the key has
                // no visible value for any projected column (e.g. the key was
                // re-created by a partial update of a different column).
                assert!(
                    expected_col.is_none(),
                    "missing value for key {key} column a3"
                );
            }
        }
    }
}

proptest! {
    // 12 cases on the PR path; the nightly stress workflow raises the count
    // via PROPTEST_CASES (which ProptestConfig::default() honours).
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(12),
        .. ProptestConfig::default()
    })]

    /// Random op sequences: the engine matches a naive model for every design.
    #[test]
    fn engine_matches_model(ops in prop::collection::vec(op_strategy(), 1..120), cg_size in 1usize..=COLS) {
        let schema = Schema::with_columns(COLS);
        let design = LayoutSpec::equi_width(&schema, 5, cg_size);
        let mut options = LaserOptions::small_for_tests(design);
        options.memtable_size_bytes = 2 << 10;
        options.level0_size_bytes = 4 << 10;
        options.num_levels = 5;
        let db = LaserDb::open_in_memory(options).unwrap();
        let mut model = Model::new();
        for op in &ops {
            apply_db(&db, op);
            apply_model(&mut model, op);
        }
        check_equivalence(&db, &model);
        // And again after everything has been pushed through the tree.
        db.compact_all().unwrap();
        check_equivalence(&db, &model);
    }

    /// Partial-row merge is independent of where the split between newer and
    /// older columns falls (associativity of the overlay).
    #[test]
    fn fragment_overlay_is_consistent(values in prop::collection::vec((0usize..COLS, any::<i32>()), 0..20)) {
        let full: Vec<(usize, Value)> = values.iter().map(|(c, v)| (*c, Value::Int(*v as i64))).collect();
        let frag = RowFragment::from_cells(full);
        for split in 0..values.len() {
            let newer = RowFragment::from_cells(
                values[split..].iter().map(|(c, v)| (*c, Value::Int(*v as i64))).collect());
            let older = RowFragment::from_cells(
                values[..split].iter().map(|(c, v)| (*c, Value::Int(*v as i64))).collect());
            let merged = newer.merge_over(&older);
            // Every column present in the original (first-write-wins dedup)
            // must be present in the merged fragment.
            for (c, _) in frag.iter() {
                prop_assert!(merged.contains(c));
            }
        }
    }

    /// Equi-width layouts are valid partitions for any width and satisfy
    /// containment when stacked coarse-to-fine.
    #[test]
    fn equi_width_layouts_always_valid(cols in 1usize..40, cg in 1usize..40) {
        let schema = Schema::with_columns(cols);
        let layout = laser::LevelLayout::equi_width(&schema, cg);
        prop_assert!(layout.validate_partition(&schema).is_ok());
        prop_assert!(layout.is_contained_in(&laser::LevelLayout::row_oriented(&schema)));
        prop_assert!(laser::LevelLayout::column_oriented(&schema).is_contained_in(&layout));
    }

    /// Arbitrary write batches survive the WAL round-trip byte-exactly:
    /// encode/decode is the identity, and appending batches to a segmented
    /// WAL (with rotations sprinkled in) then replaying it on a fresh open
    /// reproduces every batch, in order, with its sequence number.
    #[test]
    fn write_batch_encode_replay_roundtrip(
        batches in prop::collection::vec(
            prop::collection::vec(
                (any::<u64>(), 0u8..3, prop::collection::vec(any::<u8>(), 0..24)),
                1..8,
            ),
            1..12,
        ),
        rotate_every in 1usize..5,
    ) {
        // Build the batches and check pure encode/decode first.
        let mut built: Vec<(SeqNo, WriteBatch)> = Vec::new();
        let mut seq: SeqNo = 1;
        for ops in &batches {
            let mut b = WriteBatch::new();
            for (key, kind, value) in ops {
                match kind {
                    0 => b.put(*key, value.clone()),
                    1 => b.put_partial(*key, value.clone()),
                    _ => b.delete(*key),
                };
            }
            prop_assert_eq!(&WriteBatch::decode(&b.encode()).unwrap(), &b);
            let start = seq;
            seq += b.len() as SeqNo;
            built.push((start, b));
        }

        // Append through a segmented WAL, rotating periodically, then replay.
        let storage: StorageRef = MemStorage::new_ref();
        let live_segments: Vec<WalSegmentMeta>;
        {
            let (wal, recovery) =
                SegmentedWal::open(&storage, WalSyncPolicy::Never, &[], &[], 1).unwrap();
            prop_assert!(recovery.is_empty());
            for (i, (start, b)) in built.iter().enumerate() {
                wal.append(*start, b).unwrap();
                if (i + 1) % rotate_every == 0 {
                    wal.rotate(*start + b.len() as SeqNo).unwrap();
                }
            }
            wal.sync().unwrap();
            live_segments = wal.live_segments();
        }
        let (_, recovery) =
            SegmentedWal::open(&storage, WalSyncPolicy::Never, &live_segments, &[], seq)
                .unwrap();
        prop_assert!(recovery.clean);
        prop_assert_eq!(recovery.records().count(), built.len());
        for (record, (start, batch)) in recovery.records().zip(built.iter()) {
            prop_assert_eq!(record.start_seq, *start);
            prop_assert_eq!(&record.batch, batch);
        }
    }
}

// ---------------------------------------------------------------------------
// Read-path merge stack vs the naive reference
// ---------------------------------------------------------------------------

/// Builds one sorted, key-unique in-memory run from raw `(key, seq, kind)`
/// triples. Values encode the run index, so any divergence in tie-breaking
/// between merge implementations shows up as a byte difference.
fn build_run(run_idx: usize, raw: &[(u8, u8, u8)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = raw
        .iter()
        .map(|&(key, seq, kind)| {
            let kind = match kind % 3 {
                0 => ValueKind::Full,
                1 => ValueKind::Partial,
                _ => ValueKind::Tombstone,
            };
            (
                InternalKey::new(key as u64, seq as u64, kind)
                    .encode()
                    .to_vec(),
                format!("r{run_idx}-k{key}-s{seq}").into_bytes(),
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    entries
}

/// The pre-overhaul scan drain over a naive flat merge, shared with the
/// `read_path` bench via `lsm_storage::iterator::naive_visible_scan` so the
/// reference `LsmDb::scan_at` must match can never fork.
fn naive_reference_scan(
    db: &LsmDb,
    lo: UserKey,
    hi: UserKey,
    snapshot_seq: SeqNo,
) -> Vec<(UserKey, Vec<u8>)> {
    naive_visible_scan(
        &mut db.naive_range_iterator(lo, hi).unwrap(),
        lo,
        hi,
        snapshot_seq,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(12),
        .. ProptestConfig::default()
    })]

    /// The tournament-tree merge emits the exact byte sequence of the naive
    /// linear-scan merge over arbitrary multi-source traces — including
    /// duplicated keys, cross-run ties (where the newer child must win) and
    /// empty children — from `seek_to_first` and from arbitrary seeks.
    #[test]
    fn tournament_merge_matches_naive_reference(
        runs in prop::collection::vec(
            prop::collection::vec((any::<u8>(), any::<u8>(), 0u8..3), 0..40),
            1..10,
        ),
        seek_keys in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let make_children = || -> Vec<BoxedIterator> {
            runs.iter()
                .enumerate()
                .map(|(idx, raw)| {
                    Box::new(VecIterator::new(build_run(idx, raw))) as BoxedIterator
                })
                .collect()
        };
        let heap_out = collect_all(&mut MergingIterator::new(make_children())).unwrap();
        let naive_out = collect_all(&mut NaiveMergingIterator::new(make_children())).unwrap();
        prop_assert_eq!(&heap_out, &naive_out);
        for &key in &seek_keys {
            let target = InternalKey::seek_to(key as u64).encode();
            let mut heap = MergingIterator::new(make_children());
            let mut naive = NaiveMergingIterator::new(make_children());
            heap.seek(&target).unwrap();
            naive.seek(&target).unwrap();
            while naive.valid() {
                prop_assert!(heap.valid());
                prop_assert_eq!(heap.key(), naive.key());
                prop_assert_eq!(heap.value(), naive.value());
                heap.next().unwrap();
                naive.next().unwrap();
            }
            prop_assert!(!heap.valid());
        }
    }

    /// A lazy per-level concat over disjoint SST files is byte-identical to
    /// the flat per-file merge the pre-overhaul read path used, for any
    /// partition of a random sorted run into files and from arbitrary seeks.
    #[test]
    fn level_concat_matches_flat_merge(
        raw in prop::collection::vec((any::<u16>(), any::<u8>()), 1..150),
        num_files in 1usize..6,
        seek_keys in prop::collection::vec(any::<u16>(), 0..4),
    ) {
        // Sorted, unique encoded entries (several seqs per user key allowed).
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = raw
            .iter()
            .map(|&(key, seq)| {
                (
                    InternalKey::new(key as u64, seq as u64, ValueKind::Full)
                        .encode()
                        .to_vec(),
                    format!("k{key}-s{seq}").into_bytes(),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        // Partition at user-key granularity so files never split a key.
        let mut user_keys: Vec<u64> = entries
            .iter()
            .map(|(k, _)| InternalKey::decode_user_key(k).unwrap())
            .collect();
        user_keys.dedup();
        let files_wanted = num_files.min(user_keys.len());
        let keys_per_file = user_keys.len().div_ceil(files_wanted);
        let storage: StorageRef = MemStorage::new_ref();
        let mut tables = Vec::new();
        for (file_idx, chunk) in user_keys.chunks(keys_per_file).enumerate() {
            let (first, last) = (*chunk.first().unwrap(), *chunk.last().unwrap());
            let name = format!("{file_idx}.sst");
            let mut builder =
                TableBuilder::new(storage.create(&name).unwrap(), TableOptions::default());
            for (k, v) in &entries {
                let user_key = InternalKey::decode_user_key(k).unwrap();
                if user_key >= first && user_key <= last {
                    builder.add(k, v).unwrap();
                }
            }
            builder.finish().unwrap();
            tables.push(TableHandle::open(&storage, &name).unwrap());
        }
        let concat_out =
            collect_all(&mut LevelConcatIterator::new(tables.clone())).unwrap();
        let flat_children: Vec<BoxedIterator> = tables
            .iter()
            .map(|t| Box::new(t.iter()) as BoxedIterator)
            .collect();
        let flat_out = collect_all(&mut NaiveMergingIterator::new(flat_children)).unwrap();
        prop_assert_eq!(&concat_out, &flat_out);
        prop_assert_eq!(&concat_out, &entries);
        for &key in &seek_keys {
            let target = InternalKey::seek_to(key as u64).encode();
            let mut concat = LevelConcatIterator::new(tables.clone());
            concat.seek(&target).unwrap();
            let expected = entries
                .iter()
                .find(|(k, _)| k.as_slice() >= target.as_slice());
            match expected {
                Some((k, v)) => {
                    prop_assert!(concat.valid());
                    prop_assert_eq!(concat.key(), k.as_slice());
                    prop_assert_eq!(concat.value(), v.as_slice());
                }
                None => prop_assert!(!concat.valid()),
            }
        }
    }

    /// The in-place SST reader (resident index, encoded blocks, restart-point
    /// seek) against a `BTreeMap` over the same entries, for every block
    /// encoding the builder can produce and with and without a block cache:
    /// a full drain, seeks to present, absent, before-first and after-last
    /// targets followed by a few steps, and point gets at snapshots that fall
    /// on, between and below the versions of a key.
    #[test]
    fn table_reader_matches_btreemap_reference(
        raw in prop::collection::vec((any::<u8>(), 0u8..12, 0u8..3, 0usize..200), 1..400),
        prefix_compression in any::<bool>(),
        restart_every_entry in any::<bool>(),
        cached in any::<bool>(),
        probes in prop::collection::vec((any::<u8>(), 0u8..14), 1..24),
    ) {
        // User keys start at 1000 and end below 2000, so both a before-first
        // and an after-last target exist; a key holds up to 12 versions.
        let reference: BTreeMap<Vec<u8>, Vec<u8>> = raw
            .iter()
            .map(|&(key, seq, kind, value_len)| {
                let kind = [ValueKind::Full, ValueKind::Partial, ValueKind::Tombstone][kind as usize];
                let ik = InternalKey::new(1000 + key as u64 * 3, seq as u64, kind);
                (ik.encode().to_vec(), vec![key ^ seq; value_len])
            })
            .collect();
        let storage: StorageRef = MemStorage::new_ref();
        let options = TableOptions {
            // Small blocks: a few hundred entries span many of them, and the
            // versions of one key straddle block boundaries. Value lengths
            // fall on both sides of the one-byte varint limit.
            block_size: 512,
            restart_interval: if restart_every_entry { 1 } else { 16 },
            prefix_compression,
            ..TableOptions::default()
        };
        let mut builder = TableBuilder::new(storage.create("t.sst").unwrap(), options);
        for (k, v) in &reference {
            builder.add(k, v).unwrap();
        }
        builder.finish().unwrap();
        let cache = cached.then(|| ScopedCache::unscoped(BlockCache::new(4 << 10)));
        let table = TableHandle::open_with_cache(&storage, "t.sst", cache).unwrap();

        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            reference.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&collect_all(&mut table.iter()).unwrap(), &expected);

        let mut targets: Vec<[u8; 17]> = probes
            .iter()
            .map(|&(key, seq)| {
                // Every third user key in range is absent by construction.
                InternalKey::new(1000 + key as u64 * 3 + (seq as u64 % 3), seq as u64, ValueKind::Full)
                    .encode()
            })
            .collect();
        targets.push(InternalKey::seek_to(0).encode());
        targets.push(InternalKey::seek_to(5000).encode());
        let mut iter = table.iter();
        for target in &targets {
            iter.seek(target).unwrap();
            let mut want = reference.range(target.to_vec()..);
            for _ in 0..4 {
                match want.next() {
                    Some((k, v)) => {
                        prop_assert!(iter.valid());
                        prop_assert_eq!(iter.key(), k.as_slice());
                        prop_assert_eq!(iter.value(), v.as_slice());
                        iter.next().unwrap();
                    }
                    None => {
                        prop_assert!(!iter.valid());
                        break;
                    }
                }
            }
        }

        for &(key, snapshot) in &probes {
            for user_key in [1000 + key as u64 * 3, 1001 + key as u64 * 3, 0, 5000] {
                let want = reference
                    .iter()
                    .map(|(k, v)| (InternalKey::decode(k).unwrap(), v))
                    .find(|(ik, _)| ik.user_key == user_key && ik.seq <= snapshot as u64)
                    .map(|(ik, v)| (ik, v.clone()));
                prop_assert_eq!(table.get(user_key, snapshot as u64).unwrap(), want);
            }
        }
    }

    /// End-to-end: random put/delete traces with interleaved flushes and
    /// compactions. `LsmDb::scan` must match an in-memory model, `scan_at`
    /// must reproduce a mid-trace snapshot, and the streaming result must be
    /// byte-identical to the naive reference drain over the same tree.
    #[test]
    fn lsm_scan_matches_model_and_naive_drain(
        ops in prop::collection::vec((any::<u8>(), 0u8..8), 1..150),
    ) {
        let mut options = LsmOptions::small_for_tests();
        options.memtable_size_bytes = 2 << 10;
        options.level0_size_bytes = 4 << 10;
        options.auto_compact = false;
        let db = LsmDb::open_in_memory(options).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut mid: Option<(SeqNo, BTreeMap<u64, Vec<u8>>)> = None;
        let mut compacted_after_mid = false;
        for (i, &(key, action)) in ops.iter().enumerate() {
            match action {
                0 => {
                    db.delete(key as u64).unwrap();
                    model.remove(&(key as u64));
                }
                6 => db.flush().unwrap(),
                7 => {
                    db.flush().unwrap();
                    db.compact_until_stable().unwrap();
                    compacted_after_mid = mid.is_some();
                }
                _ => {
                    let value = format!("v{i}-{key}").into_bytes();
                    db.put(key as u64, value.clone()).unwrap();
                    model.insert(key as u64, value);
                }
            }
            if i == ops.len() / 2 {
                mid = Some((db.last_seq(), model.clone()));
            }
        }
        let scanned: BTreeMap<u64, Vec<u8>> =
            db.scan(0, u64::MAX).unwrap().into_iter().collect();
        prop_assert_eq!(&scanned, &model);
        if let Some((seq, mid_model)) = mid {
            // Compaction keeps only the newest version of each key, so a
            // snapshot taken before a later compaction is not reproducible —
            // the model comparison only holds while no compaction ran after
            // the midpoint. The streaming-vs-naive equivalence below holds
            // unconditionally (both drain the same tree).
            if !compacted_after_mid {
                let at_mid: BTreeMap<u64, Vec<u8>> =
                    db.scan_at(0, u64::MAX, seq).unwrap().into_iter().collect();
                prop_assert_eq!(&at_mid, &mid_model);
            }
            prop_assert_eq!(
                db.scan_at(0, u64::MAX, seq).unwrap(),
                naive_reference_scan(&db, 0, u64::MAX, seq)
            );
        }
        prop_assert_eq!(
            db.scan(0, u64::MAX).unwrap(),
            naive_reference_scan(&db, 0, u64::MAX, MAX_SEQNO)
        );
    }
}
